"""Unit and integration tests for algorithm CR (CRPRSQ, Section 4)."""

import numpy as np
import pytest

from repro.core.cp import compute_causality
from repro.core.cr import compute_causality_certain
from repro.core.lemmas import lemma7_certain_candidates_are_causes
from repro.core.model import CauseKind
from repro.core.naive import brute_force_causality
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dynamically_dominates
from repro.skyline.reverse import reverse_skyline
from repro.uncertain.dataset import CertainDataset
from tests import reference


class TestKnownScenarios:
    def test_fig5_style_example(self):
        """A non-reverse-skyline object whose dominators split responsibility
        equally (Lemma 7 / Equation (4))."""
        ds = CertainDataset(
            [
                [4.0, 4.0],   # an
                [4.3, 4.3],   # b - dominates q w.r.t. an
                [4.5, 4.2],   # d - dominates
                [4.2, 4.6],   # e - dominates
                [9.0, 0.5],   # far away
            ],
            ids=["an", "b", "d", "e", "far"],
        )
        res = compute_causality_certain(ds, "an", [5.0, 5.0])
        assert res.cause_ids() == ["b", "d", "e"]
        for oid in ("b", "d", "e"):
            assert res.responsibility(oid) == pytest.approx(1 / 3)
        assert res.causes["b"].contingency_set == frozenset({"d", "e"})

    def test_single_dominator_is_counterfactual(self):
        ds = CertainDataset([[4.0, 4.0], [4.4, 4.4]], ids=["an", "c"])
        res = compute_causality_certain(ds, "an", [5.0, 5.0])
        assert res.cause_ids() == ["c"]
        assert res.causes["c"].kind is CauseKind.COUNTERFACTUAL
        assert res.responsibility("c") == 1.0

    def test_reverse_skyline_member_rejected(self):
        ds = CertainDataset([[4.0, 4.0], [9.0, 9.0]], ids=["member", "other"])
        with pytest.raises(NotANonAnswerError):
            compute_causality_certain(ds, "member", [5.0, 5.0])


class TestLemmaSeven:
    @pytest.mark.parametrize("seed", range(8))
    def test_candidates_equal_causes(self, seed):
        rng = np.random.default_rng(seed)
        ds = CertainDataset(rng.uniform(0, 10, size=(15, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            if oid in members:
                continue
            res = compute_causality_certain(ds, oid, q)
            an_point = ds.point_of(oid)
            dominators = {
                other.oid
                for other in ds
                if other.oid != oid
                and dynamically_dominates(other.samples[0], q, an_point)
            }
            assert set(res.cause_ids()) == dominators
            for cause in res.causes.values():
                assert cause.responsibility == pytest.approx(1 / len(dominators))

    def test_lemma7_helper(self):
        mapping = lemma7_certain_candidates_are_causes(None, {"a", "b", "c"})
        assert mapping["a"] == frozenset({"b", "c"})
        assert mapping["b"] == frozenset({"a", "c"})


class TestAgainstOtherAlgorithms:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 20)
        ds = CertainDataset(rng.uniform(0, 10, size=(9, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            if oid in members:
                continue
            cr = compute_causality_certain(ds, oid, q)
            bf = brute_force_causality(ds, oid, q, alpha=0.5)
            assert cr.same_causality(bf)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cp_on_certain_data(self, seed):
        """CR must agree with CP run on the 1-sample uncertain encoding."""
        rng = np.random.default_rng(seed + 40)
        ds = CertainDataset(rng.uniform(0, 10, size=(12, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            if oid in members:
                continue
            cr = compute_causality_certain(ds, oid, q)
            cp = compute_causality(ds, oid, q, alpha=0.5)
            assert cr.same_causality(cp)


class TestCosts:
    def test_index_and_scan_agree(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(40, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        non_answers = [oid for oid in ds.ids() if oid not in members]
        for oid in non_answers[:5]:
            a = compute_causality_certain(ds, oid, q)
            scan = reference.dominators(ds, ds.point_of(oid), q, skip=[oid])
            assert a.cause_ids() == scan
            assert all(
                c.responsibility == 1.0 / len(scan) for c in a.causes.values()
            )
            assert a.stats.node_accesses > 0

    def test_stats_candidates_equals_causes(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(30, 2)))
        q = rng.uniform(0, 10, size=2)
        members = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            if oid in members:
                continue
            res = compute_causality_certain(ds, oid, q)
            assert res.stats.candidates == len(res)
            break
