"""Direct tests of the paper's lemmas (1, 3, 4, 5, 6) against semantics."""

import itertools

import numpy as np
import pytest

from repro.core.lemmas import (
    lemma1_is_candidate,
    lemma3_search_space,
    lemma4_must_include,
    lemma5_is_counterfactual,
    lemma6_propagate,
)
from repro.prsq.oracle import MembershipOracle
from repro.prsq.query import prsq_non_answers
from tests.conftest import make_uncertain_dataset


def instances(seed, n=7, alpha=0.5, count=3):
    """Yield (oracle, dataset, q) for up to *count* random non-answers."""
    rng = np.random.default_rng(seed)
    ds = make_uncertain_dataset(rng, n=n, dims=2)
    q = rng.uniform(0, 10, size=2)
    produced = 0
    for an in prsq_non_answers(ds, q, alpha):
        yield MembershipOracle(ds, an, q, alpha), ds, q
        produced += 1
        if produced == count:
            return


def all_contingency_sets(oracle, cc, universe):
    """All qualifying contingency sets for cc drawn from *universe*."""
    pool = [oid for oid in universe if oid != cc]
    found = []
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if oracle.is_contingency_set(frozenset(combo), cc):
                found.append(frozenset(combo))
    return found


class TestLemma1:
    @pytest.mark.parametrize("seed", range(5))
    def test_non_candidates_are_never_causes(self, seed):
        """Removing a zero-vector object (alone or inside any Γ) never flips
        membership, so it cannot be a cause."""
        for oracle, ds, _q in instances(seed):
            non_candidates = [
                oid
                for oid in ds.ids()
                if oid != oracle.an_oid and not lemma1_is_candidate(oracle, oid)
            ]
            for oid in non_candidates[:2]:
                # probability is unchanged by its removal under any context
                for removed in (frozenset(), frozenset(oracle.influencer_ids[:1])):
                    assert oracle.probability(removed) == pytest.approx(
                        oracle.probability(removed | {oid})
                    )


class TestLemma3:
    @pytest.mark.parametrize("seed", range(5))
    def test_minimal_sets_only_contain_candidates(self, seed):
        for oracle, ds, _q in instances(seed, n=6):
            candidates = set(lemma3_search_space(oracle))
            for cc in oracle.influencer_ids:
                sets = all_contingency_sets(oracle, cc, ds.ids())
                if not sets:
                    continue
                min_size = min(len(s) for s in sets)
                for gamma in sets:
                    if len(gamma) == min_size:
                        assert gamma <= candidates


class TestLemma4:
    @pytest.mark.parametrize("seed", range(5))
    def test_blockers_in_every_qualifying_set(self, seed):
        for oracle, ds, _q in instances(seed, n=6):
            blockers = set(lemma4_must_include(oracle))
            for cc in oracle.influencer_ids:
                for gamma in all_contingency_sets(
                    oracle, cc, oracle.influencer_ids
                ):
                    assert blockers - {cc} <= gamma


class TestLemma5:
    @pytest.mark.parametrize("seed", range(5))
    def test_counterfactuals_absent_from_minimal_sets(self, seed):
        for oracle, _ds, _q in instances(seed, n=6):
            counterfactuals = {
                oid
                for oid in oracle.influencer_ids
                if lemma5_is_counterfactual(oracle, oid)
            }
            if not counterfactuals:
                continue
            for cc in oracle.influencer_ids:
                if cc in counterfactuals:
                    continue
                sets = all_contingency_sets(oracle, cc, oracle.influencer_ids)
                if not sets:
                    continue
                min_size = min(len(s) for s in sets)
                minimal = [s for s in sets if len(s) == min_size]
                assert any(not (s & counterfactuals) for s in minimal)


class TestLemma6:
    @pytest.mark.parametrize("seed", range(5))
    def test_propagated_witnesses_are_contingency_sets(self, seed):
        for oracle, _ds, _q in instances(seed, n=6):
            for cc in oracle.influencer_ids:
                sets = all_contingency_sets(oracle, cc, oracle.influencer_ids)
                if not sets:
                    continue
                gamma = min(sets, key=len)
                witnesses = lemma6_propagate(
                    oracle, cc, gamma, oracle.influencer_ids
                )
                for member, witness in witnesses.items():
                    assert oracle.is_contingency_set(witness, member)
                    assert len(witness) == len(gamma)
