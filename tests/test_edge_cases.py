"""Edge-case tests: degenerate geometry, ties, boundary thresholds, 1-D data."""

import numpy as np
import pytest

from repro.core.cp import compute_causality
from repro.core.naive import brute_force_causality
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dominance_rectangle, dynamically_dominates
from repro.prsq.oracle import MembershipOracle
from repro.prsq.probability import reverse_skyline_probability
from repro.skyline.reverse import reverse_skyline
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject


class TestDegenerateGeometry:
    def test_sample_at_query_position(self):
        """A non-answer sample exactly at q has a degenerate (point)
        dominance rectangle; nothing can dominate q w.r.t. it."""
        rect = dominance_rectangle([5.0, 5.0], [5.0, 5.0])
        assert rect.area() == 0.0
        assert not dynamically_dominates([5.0, 5.0], [5.0, 5.0], [5.0, 5.0])

    def test_object_colocated_with_q_is_answer(self):
        ds = UncertainDataset(
            [
                UncertainObject("at-q", [[5.0, 5.0]]),
                UncertainObject("other", [[4.0, 4.0]]),
            ]
        )
        assert reverse_skyline_probability(ds, "at-q", [5.0, 5.0]) == 1.0

    def test_duplicate_objects_block_each_other(self):
        """Two objects at the same location: the twin sits at distance 0
        from the center, strictly closer than q in every dimension, so each
        dominates q w.r.t. the other — both are non-answers and each is the
        counterfactual cause of the other's exclusion."""
        ds = UncertainDataset(
            [
                UncertainObject("t1", [[4.0, 4.0]]),
                UncertainObject("t2", [[4.0, 4.0]]),
            ]
        )
        q = [5.0, 5.0]
        assert reverse_skyline_probability(ds, "t1", q) == 0.0
        assert reverse_skyline_probability(ds, "t2", q) == 0.0
        result = compute_causality(ds, "t1", q, alpha=0.5)
        assert result.responsibility("t2") == 1.0

    def test_dominator_on_rectangle_boundary_tie(self):
        """A point mirroring q exactly (equal distance in every dim) lies on
        the rectangle boundary but does not dominate."""
        an = np.array([4.0, 4.0])
        q = np.array([5.0, 5.0])
        mirrored = np.array([3.0, 3.0])  # |p-an| == |q-an| per dim
        rect = dominance_rectangle(an, q)
        assert rect.contains_point(mirrored)
        assert not dynamically_dominates(mirrored, q, an)
        ds = CertainDataset([an, mirrored], ids=["an", "mirror"])
        assert "an" in reverse_skyline(ds, q)

    def test_partial_tie_still_dominates(self):
        an = np.array([4.0, 4.0])
        q = np.array([5.0, 5.0])
        p = np.array([3.0, 4.5])  # tie in dim 0, strictly closer in dim 1
        assert dynamically_dominates(p, q, an)


class TestOneDimensional:
    def test_rsq_in_1d(self):
        ds = CertainDataset([[1.0], [2.0], [4.0], [9.0]])
        q = [3.0]
        members = set(reverse_skyline(ds, q))
        # object 2 (value 4): nothing within |3-4|=1 strictly closer -> member
        assert 2 in members
        # object 0 (value 1): 2 is closer to 1 than 3 is -> blocked
        assert 0 not in members

    def test_cp_in_1d_matches_brute_force(self):
        rng = np.random.default_rng(5)
        objs = [
            UncertainObject(i, rng.uniform(0, 10, size=(2, 1))) for i in range(6)
        ]
        ds = UncertainDataset(objs)
        q = rng.uniform(0, 10, size=1)
        for oid in ds.ids():
            pr = reverse_skyline_probability(ds, oid, q)
            if pr >= 0.5:
                continue
            cp = compute_causality(ds, oid, q, 0.5)
            bf = brute_force_causality(ds, oid, q, 0.5)
            assert cp.same_causality(bf)


class TestThresholdBoundaries:
    def test_alpha_exactly_at_probability_is_answer(self):
        """Definition 4 uses >=: Pr == alpha makes the object an answer."""
        ds = UncertainDataset(
            [
                UncertainObject("an", [[4.0, 4.0]]),
                UncertainObject("half", [[4.5, 4.5], [9.0, 9.0]]),
            ]
        )
        q = [5.0, 5.0]
        assert reverse_skyline_probability(ds, "an", q) == pytest.approx(0.5)
        with pytest.raises(NotANonAnswerError):
            compute_causality(ds, "an", q, alpha=0.5)
        result = compute_causality(ds, "an", q, alpha=0.51)
        assert result.cause_ids() == ["half"]

    def test_tiny_alpha_non_answer_requires_blocker(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[4.0, 4.0]]),
                UncertainObject("blocker", [[4.5, 4.5]]),
            ]
        )
        result = compute_causality(ds, "an", [5.0, 5.0], alpha=0.01)
        assert result.responsibility("blocker") == 1.0

    def test_oracle_threshold_semantics(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[4.0, 4.0]]),
                UncertainObject("half", [[4.5, 4.5], [9.0, 9.0]]),
            ]
        )
        oracle = MembershipOracle(ds, "an", [5.0, 5.0], alpha=0.5)
        assert oracle.is_answer()        # 0.5 >= 0.5
        oracle_strict = MembershipOracle(ds, "an", [5.0, 5.0], alpha=0.500001)
        assert oracle_strict.is_non_answer()


class TestManySamples:
    def test_objects_with_many_samples(self):
        rng = np.random.default_rng(9)
        objs = [
            UncertainObject("an", rng.uniform(4.0, 4.4, size=(17, 2))),
            UncertainObject("blocker", rng.uniform(4.5, 4.7, size=(17, 2))),
            UncertainObject("far", rng.uniform(0.0, 1.0, size=(17, 2))),
        ]
        ds = UncertainDataset(objs)
        result = compute_causality(ds, "an", [5.0, 5.0], alpha=0.5)
        assert result.cause_ids() == ["blocker"]

    def test_theorem_claim_instance_count_independence(self):
        """Sec. 3.2: 'algorithm CP is not relevant to the number of the
        instances per uncertain object' — same geometry, different sample
        counts, same causality."""
        coarse = UncertainDataset(
            [
                UncertainObject("an", [[4.0, 4.0]]),
                UncertainObject("c", [[4.5, 4.5]]),
            ]
        )
        fine = UncertainDataset(
            [
                UncertainObject("an", [[4.0, 4.0]] * 5),
                UncertainObject("c", [[4.5, 4.5]] * 7),
            ]
        )
        a = compute_causality(coarse, "an", [5.0, 5.0], 0.5)
        b = compute_causality(fine, "an", [5.0, 5.0], 0.5)
        assert a.same_causality(b)
