"""Unit tests for the Naive-I / Naive-II baselines and the brute-force oracle."""

import numpy as np
import pytest

from repro.core.cp import compute_causality
from repro.core.cr import compute_causality_certain
from repro.core.naive import brute_force_causality, naive_i, naive_ii
from repro.exceptions import NotANonAnswerError
from repro.prsq.query import prsq_non_answers
from repro.skyline.reverse import reverse_skyline
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject
from tests.conftest import make_uncertain_dataset


class TestNaiveI:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_output_as_cp(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=7, dims=2)
        q = rng.uniform(0, 10, size=2)
        for an in prsq_non_answers(ds, q, 0.5):
            assert naive_i(ds, an, q, 0.5).same_causality(
                compute_causality(ds, an, q, 0.5)
            )

    def test_examines_at_least_as_many_subsets(self, rng):
        ds = make_uncertain_dataset(rng, n=9, dims=2)
        q = rng.uniform(0, 10, size=2)
        nas = prsq_non_answers(ds, q, 0.5)
        if not nas:
            pytest.skip("no non-answers")
        an = nas[0]
        cp = compute_causality(ds, an, q, 0.5)
        nv = naive_i(ds, an, q, 0.5)
        assert nv.stats.subsets_examined >= cp.stats.subsets_examined

    def test_same_io_as_cp(self, rng):
        """Paper Fig. 6: CP and Naive-I have identical I/O (same filter)."""
        from repro.core.candidates import find_candidate_causes

        ds = make_uncertain_dataset(rng, n=25, dims=2)
        q = rng.uniform(0, 10, size=2)
        # Bound the candidate count so Naive-I's exponential refinement
        # stays cheap; the I/O identity is a filter-step property anyway.
        nas = [
            an
            for an in prsq_non_answers(ds, q, 0.5)
            if len(find_candidate_causes(ds, an, q)) <= 8
        ]
        if not nas:
            pytest.skip("no bounded non-answers")
        an = nas[0]
        cp = compute_causality(ds, an, q, 0.5)
        nv = naive_i(ds, an, q, 0.5)
        assert nv.stats.node_accesses == cp.stats.node_accesses


class TestNaiveII:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_output_as_cr(self, seed):
        rng = np.random.default_rng(seed + 30)
        ds = CertainDataset(rng.uniform(0, 10, size=(12, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            if oid in members:
                continue
            assert naive_ii(ds, oid, q).same_causality(
                compute_causality_certain(ds, oid, q)
            )

    def test_rejects_reverse_skyline_member(self):
        ds = CertainDataset([[4.0, 4.0], [9.0, 9.0]], ids=["m", "o"])
        with pytest.raises(NotANonAnswerError):
            naive_ii(ds, "m", [5.0, 5.0])

    def test_candidate_cap(self):
        points = [[4.0, 4.0]] + [
            [4.0 + 0.01 * (i + 1), 4.0 + 0.01 * (i + 1)] for i in range(30)
        ]
        ds = CertainDataset(points)
        with pytest.raises(ValueError):
            naive_ii(ds, 0, [5.0, 5.0], max_candidates=10)

    def test_subset_count_exponential(self):
        # 4 dominators -> each verification enumerates subsets of the other 3.
        ds = CertainDataset(
            [[4.0, 4.0], [4.2, 4.2], [4.3, 4.3], [4.4, 4.4], [4.5, 4.5]],
            ids=["an", "c1", "c2", "c3", "c4"],
        )
        res = naive_ii(ds, "an", [5.0, 5.0])
        assert len(res) == 4
        # per candidate: all subsets of the 3 others up to the full set.
        assert res.stats.subsets_examined == 4 * 2**3


class TestBruteForce:
    def test_cap_enforced(self, rng):
        ds = make_uncertain_dataset(rng, n=16, dims=2)
        with pytest.raises(ValueError):
            brute_force_causality(ds, ds.ids()[0], [5.0, 5.0], 0.5, max_objects=8)

    def test_rejects_answer(self):
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[9.0, 9.0]]),
            ]
        )
        with pytest.raises(NotANonAnswerError):
            brute_force_causality(ds, "u", [3.0, 3.0], 0.5)

    def test_counterfactual_detected(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("cf", [[2.4, 2.4]]),
            ]
        )
        res = brute_force_causality(ds, "an", [3.0, 3.0], 0.5)
        assert res.cause_ids() == ["cf"]
        assert res.responsibility("cf") == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_independent_of_optimized_kernels(self, seed, monkeypatch):
        # The ground truth must share no kernel with CP: with the segmented
        # Eq. (2), the Eq. (3) tensor and the packed grouped traversal all
        # broken, it still returns exactly the causes it returns intact.
        from repro.engine import kernels
        from repro.index.packed import PackedRTree

        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=7, dims=2)
        q = rng.uniform(0, 10, size=2)
        nas = prsq_non_answers(ds, q, 0.5)
        expected = [brute_force_causality(ds, an, q, 0.5) for an in nas]

        def broken(*args, **kwargs):
            raise AssertionError("brute force reached an optimized kernel")

        monkeypatch.setattr(kernels, "eq2_segmented", broken)
        monkeypatch.setattr(kernels, "eq3_dominance_tensor", broken)
        monkeypatch.setattr(PackedRTree, "group_hits", broken)
        for an, want in zip(nas, expected):
            got = brute_force_causality(ds, an, q, 0.5)
            assert got.causes == want.causes
