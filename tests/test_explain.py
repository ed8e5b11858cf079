"""Unit tests for the explanation / repair module."""

import numpy as np
import pytest

from repro.core.cp import compute_causality
from repro.core.cr import compute_causality_certain
from repro.core.explain import (
    explain_with_oracle,
    minimal_repair_set,
    narrative,
    responsibility_groups,
    verify_repair,
    what_if,
)
from repro.core.model import CausalityResult
from repro.prsq.query import prsq_non_answers
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject
from tests.conftest import make_uncertain_dataset


@pytest.fixture
def explained(rng):
    """A (dataset, q, alpha, result) tuple for some non-answer."""
    for seed in range(50):
        local = np.random.default_rng(seed)
        ds = make_uncertain_dataset(local, n=8, dims=2)
        q = local.uniform(0, 10, size=2)
        nas = prsq_non_answers(ds, q, 0.5)
        if nas:
            result = compute_causality(ds, nas[0], q, 0.5)
            if result.causes:
                return ds, q, 0.5, result
    pytest.skip("no suitable instance found")


class TestMinimalRepair:
    def test_repair_flips_membership(self, explained):
        ds, q, _alpha, result = explained
        assert verify_repair(ds, result, q)

    def test_repair_size_matches_best_responsibility(self, explained):
        _ds, _q, _alpha, result = explained
        repair = minimal_repair_set(result)
        best = max(c.responsibility for c in result.causes.values())
        assert len(repair) == int(round(1.0 / best))

    def test_repair_is_minimal(self, explained):
        """No strictly smaller deletion set flips membership."""
        import itertools

        ds, q, alpha, result = explained
        repair = minimal_repair_set(result)
        if len(repair) > 3 or len(result.causes) > 8:
            pytest.skip("exhaustive minimality check too large")
        universe = list(result.causes)
        for size in range(len(repair)):
            for combo in itertools.combinations(universe, size):
                assert not verify_repair(ds, result, q, repair=combo)

    def test_empty_result_rejected(self):
        empty = CausalityResult(an_oid="x", alpha=0.5)
        with pytest.raises(ValueError):
            minimal_repair_set(empty)

    def test_certain_result_needs_alpha_for_verification(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(8, 2)))
        q = rng.uniform(0, 10, size=2)
        from repro.skyline.reverse import reverse_skyline

        members = set(reverse_skyline(ds, q))
        non_answers = [oid for oid in ds.ids() if oid not in members]
        if not non_answers:
            pytest.skip("no non-answers")
        result = compute_causality_certain(ds, non_answers[0], q)
        with pytest.raises(ValueError):
            verify_repair(ds, result, q)


class TestWhatIf:
    def test_removing_nothing_keeps_probability(self, explained):
        ds, q, alpha, result = explained
        assert what_if(ds, result, q, []) < alpha

    def test_removing_all_causes_reaches_one(self, explained):
        ds, q, _alpha, result = explained
        # All candidate causes include every influencer only when all are
        # causes; removing causes + repair always flips, so check repair.
        assert what_if(ds, result, q, minimal_repair_set(result)) >= result.alpha


class TestNarrative:
    def test_mentions_an_and_repair(self, explained):
        ds, q, _alpha, result = explained
        text = narrative(result, ds)
        assert repr(result.an_oid) in text
        assert "Minimal repair" in text

    def test_counterfactual_callout(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("cf", [[2.4, 2.4]]),
            ]
        )
        result = compute_causality(ds, "an", [3.0, 3.0], alpha=0.5)
        text = narrative(result, ds)
        assert "Counterfactual" in text

    def test_names_used_when_available(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]], name="The Player"),
                UncertainObject("cf", [[2.4, 2.4]], name="The Star"),
            ]
        )
        result = compute_causality(ds, "an", [3.0, 3.0], alpha=0.5)
        assert "The Star" in narrative(result, ds)

    def test_truncation(self, rng):
        # Fabricate a result with many causes to exercise the cap.
        from repro.core.model import Cause, CauseKind

        result = CausalityResult(an_oid="an", alpha=0.5)
        ids = [f"c{i}" for i in range(15)]
        for i, oid in enumerate(ids):
            gamma = frozenset(o for o in ids[:3] if o != oid)
            result.add(
                Cause(
                    oid=oid,
                    responsibility=1.0 / (1 + len(gamma)),
                    contingency_set=gamma,
                    kind=CauseKind.ACTUAL,
                )
            )
        text = narrative(result, max_causes=5)
        assert "more cause(s)" in text


class TestGroupsAndBundle:
    def test_groups_sorted_strongest_first(self, explained):
        _ds, _q, _alpha, result = explained
        groups = responsibility_groups(result)
        values = [resp for resp, _members in groups]
        assert values == sorted(values, reverse=True)
        assert sum(len(m) for _r, m in groups) == len(result.causes)

    def test_bundle_contents(self, explained):
        ds, q, _alpha, result = explained
        bundle = explain_with_oracle(ds, result, q)
        assert bundle["repair_verified"]
        assert bundle["minimal_repair"]
        assert bundle["greedy_trajectory"]
        probabilities = [step["pr"] for step in bundle["greedy_trajectory"]]
        assert probabilities == sorted(probabilities)  # removals only help
