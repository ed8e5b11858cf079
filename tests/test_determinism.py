"""Determinism tests: identical inputs must produce identical outputs.

A reproduction package lives or dies by replayability — every generator,
workload selector, and algorithm here must be a pure function of its seed
and inputs.
"""

import numpy as np
import pytest

from repro.bench.workloads import random_query, select_prsq_non_answers
from repro.core.cp import CPConfig, compute_causality
from repro.core.cr import compute_causality_certain
from repro.datasets.cardb import generate_cardb
from repro.datasets.nba import generate_nba
from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.prsq.probability import reverse_skyline_probability
from repro.prsq.query import prsq_non_answers
from tests import reference
from tests.conftest import make_uncertain_dataset


class TestGeneratorDeterminism:
    def test_uncertain_generator(self):
        a = generate_uncertain_dataset(60, 3, seed=21)
        b = generate_uncertain_dataset(60, 3, seed=21)
        for oa, ob in zip(a, b):
            assert oa == ob

    def test_certain_generator(self):
        a = generate_certain_dataset(100, 2, distribution="clustered", seed=22)
        b = generate_certain_dataset(100, 2, distribution="clustered", seed=22)
        assert np.array_equal(a.points, b.points)

    def test_nba_generator(self):
        a = generate_nba(n_players=80, seed=23)
        b = generate_nba(n_players=80, seed=23)
        for oa, ob in zip(a, b):
            assert oa == ob

    def test_cardb_generator(self):
        a = generate_cardb(n=200, seed=24)
        b = generate_cardb(n=200, seed=24)
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = generate_uncertain_dataset(30, 2, seed=1)
        b = generate_uncertain_dataset(30, 2, seed=2)
        assert any(oa != ob for oa, ob in zip(a, b))


class TestWorkloadDeterminism:
    def test_query_and_selection(self):
        ds = generate_uncertain_dataset(300, 2, radius_range=(0, 120), seed=25)
        q = random_query(2, seed=25)
        assert np.array_equal(q, random_query(2, seed=25))
        picks_a = select_prsq_non_answers(ds, q, 0.5, count=3, seed=25)
        picks_b = select_prsq_non_answers(ds, q, 0.5, count=3, seed=25)
        assert picks_a == picks_b


class TestProbabilityDeterminism:
    """Eq. (2) must return the same *bits* run after run.

    The pruned path once iterated an unordered ``set`` of R-tree hits, so
    the floating-point product order — and the returned bits — could vary
    between runs; hits are now sorted into dataset order, the same order
    the unpruned scan uses.
    """

    def _dataset(self):
        return generate_uncertain_dataset(120, 2, radius_range=(0, 150), seed=31)

    def test_bits_stable_across_runs_and_fresh_indexes(self):
        q = random_query(2, seed=31)
        reference = None
        for _ in range(3):
            ds = self._dataset()  # fresh dataset => fresh R-tree
            bits = [
                reverse_skyline_probability(ds, oid, q).hex()
                for oid in ds.ids()[:30]
            ]
            if reference is None:
                reference = bits
            assert bits == reference

    def test_bits_identical_across_kernel_paths(self):
        ds = self._dataset()
        q = random_query(2, seed=31)
        for oid in ds.ids()[:30]:
            fast = reverse_skyline_probability(ds, oid, q)
            slow = reference.prsq_probability(ds, oid, q)
            assert fast.hex() == slow.hex()


class TestAlgorithmDeterminism:
    def _instance(self):
        rng = np.random.default_rng(26)
        ds = make_uncertain_dataset(rng, n=10, dims=2)
        q = rng.uniform(0, 10, size=2)
        nas = prsq_non_answers(ds, q, 0.5)
        if not nas:
            pytest.skip("no non-answers in draw")
        return ds, q, nas[0]

    def test_cp_identical_across_runs(self):
        ds, q, an = self._instance()
        first = compute_causality(ds, an, q, 0.5)
        second = compute_causality(ds, an, q, 0.5)
        assert first.same_causality(second)
        # Witness sets are deterministic too, not just responsibilities.
        for oid in first.cause_ids():
            assert (
                first.causes[oid].contingency_set
                == second.causes[oid].contingency_set
            )

    def test_cp_identical_across_fresh_datasets(self):
        """Recreating the dataset object (fresh R-tree) changes nothing."""
        rng_a = np.random.default_rng(27)
        rng_b = np.random.default_rng(27)
        ds_a = make_uncertain_dataset(rng_a, n=12, dims=2)
        ds_b = make_uncertain_dataset(rng_b, n=12, dims=2)
        q = np.array([5.0, 5.0])
        nas = prsq_non_answers(ds_a, q, 0.5)
        if not nas:
            pytest.skip("no non-answers in draw")
        a = compute_causality(ds_a, nas[0], q, 0.5)
        b = compute_causality(ds_b, nas[0], q, 0.5)
        assert a.same_causality(b)
        assert a.stats.node_accesses == b.stats.node_accesses

    def test_cr_identical_across_runs(self, rng):
        ds = generate_certain_dataset(200, 2, seed=28)
        q = random_query(2, seed=28)
        from repro.skyline.reverse import reverse_skyline

        members = set(reverse_skyline(ds, q))
        non_answers = [oid for oid in ds.ids() if oid not in members]
        if not non_answers:
            pytest.skip("no non-answers")
        an = non_answers[0]
        a = compute_causality_certain(ds, an, q)
        b = compute_causality_certain(ds, an, q)
        assert a.same_causality(b)

    def test_config_ablation_does_not_change_witness_sizes(self):
        ds, q, an = self._instance()
        full = compute_causality(ds, an, q, 0.5)
        for config in (
            CPConfig(use_lemma6=False),
            CPConfig(use_bound_prune=False),
        ):
            alt = compute_causality(ds, an, q, 0.5, config=config)
            for oid in full.cause_ids():
                assert len(full.causes[oid].contingency_set) == len(
                    alt.causes[oid].contingency_set
                )
