"""Unit tests for PRSQ probabilities, queries, and the membership oracle."""

import numpy as np
import pytest

from repro.exceptions import NotANonAnswerError
from repro.prsq.oracle import MembershipOracle
from repro.prsq.probability import (
    dominance_probability_matrix,
    dominance_probability_vector,
    probability_from_matrix,
    reverse_skyline_probability,
    sample_dominance_probability,
)
from repro.prsq.query import (
    is_prsq_answer,
    probabilistic_reverse_skyline,
    prsq_non_answers,
    prsq_probabilities,
)
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from tests import reference
from tests.conftest import make_uncertain_dataset


@pytest.fixture
def two_object_dataset():
    """u at (2,2); v dominates q w.r.t. u from one of two samples."""
    return UncertainDataset(
        [
            UncertainObject("u", [[2.0, 2.0]]),
            UncertainObject("v", [[2.5, 2.5], [9.0, 9.0]], [0.4, 0.6]),
        ]
    )


class TestEquationThree:
    def test_sample_dominance_probability(self, two_object_dataset):
        v = two_object_dataset.get("v")
        p = sample_dominance_probability(v, [2.0, 2.0], [3.0, 3.0])
        assert p == pytest.approx(0.4)

    def test_no_domination_zero(self, two_object_dataset):
        u = two_object_dataset.get("u")
        assert sample_dominance_probability(u, [9.0, 9.0], [9.1, 9.1]) == 0.0

    def test_vector_per_center_sample(self):
        center = UncertainObject("c", [[2.0, 2.0], [8.0, 8.0]])
        other = UncertainObject("o", [[2.5, 2.5]])
        vec = dominance_probability_vector(other, center, [3.0, 3.0])
        assert vec.shape == (2,)
        assert vec[0] == pytest.approx(1.0)  # dominates w.r.t. (2,2)
        assert vec[1] == pytest.approx(0.0)  # not w.r.t. (8,8)

    def test_matrix_drops_zero_rows(self, two_object_dataset):
        u = two_object_dataset.get("u")
        far = UncertainObject("far", [[0.0, 9.9]])
        matrix = dominance_probability_matrix(
            u, [two_object_dataset.get("v"), far], [3.0, 3.0]
        )
        assert "v" in matrix
        assert "far" not in matrix


class TestEquationTwo:
    def test_hand_computed(self, two_object_dataset):
        pr = reverse_skyline_probability(two_object_dataset, "u", [3.0, 3.0])
        assert pr == pytest.approx(0.6)

    def test_exclude_restores_certainty(self, two_object_dataset):
        pr = reverse_skyline_probability(
            two_object_dataset, "u", [3.0, 3.0], exclude={"v"}
        )
        assert pr == pytest.approx(1.0)

    def test_probability_from_matrix_keep_subset(self):
        center = UncertainObject("c", [[0.0, 0.0]])
        matrix = {"x": np.array([0.5]), "y": np.array([0.2])}
        assert probability_from_matrix(center, matrix) == pytest.approx(0.4)
        assert probability_from_matrix(center, matrix, keep=["x"]) == pytest.approx(0.5)
        assert probability_from_matrix(center, matrix, keep=[]) == pytest.approx(1.0)

    def test_removal_monotonicity(self, rng):
        """Pr(an) never decreases when objects are removed (Lemma 1's core)."""
        ds = make_uncertain_dataset(rng, n=7, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        others = [oid for oid in ds.ids() if oid != target]
        base = reverse_skyline_probability(ds, target, q)
        removed = set()
        previous = base
        for oid in others:
            removed.add(oid)
            current = reverse_skyline_probability(
                ds, target, q, exclude=removed
            )
            assert current >= previous - 1e-12
            previous = current
        assert previous == pytest.approx(1.0)


class TestQuery:
    def test_threshold_partitions_dataset(self, rng):
        ds = make_uncertain_dataset(rng, n=10, dims=2)
        q = rng.uniform(0, 10, size=2)
        answers = set(probabilistic_reverse_skyline(ds, q, alpha=0.5))
        non_answers = set(prsq_non_answers(ds, q, alpha=0.5))
        assert answers | non_answers == set(ds.ids())
        assert not answers & non_answers

    def test_probabilities_in_unit_interval(self, rng):
        ds = make_uncertain_dataset(rng, n=10, dims=3)
        q = rng.uniform(0, 10, size=3)
        for pr in prsq_probabilities(ds, q).values():
            assert 0.0 <= pr <= 1.0 + 1e-12

    def test_alpha_one_only_certain_members(self, rng):
        ds = make_uncertain_dataset(rng, n=10, dims=2)
        q = rng.uniform(0, 10, size=2)
        probs = prsq_probabilities(ds, q)
        members = set(probabilistic_reverse_skyline(ds, q, alpha=1.0))
        assert members == {oid for oid, pr in probs.items() if pr >= 1.0}

    def test_alpha_monotone_in_answers(self, rng):
        ds = make_uncertain_dataset(rng, n=12, dims=2)
        q = rng.uniform(0, 10, size=2)
        small = set(probabilistic_reverse_skyline(ds, q, alpha=0.2))
        large = set(probabilistic_reverse_skyline(ds, q, alpha=0.8))
        assert large <= small

    def test_invalid_alpha_rejected(self, rng):
        ds = make_uncertain_dataset(rng, n=3, dims=2)
        with pytest.raises(ValueError):
            probabilistic_reverse_skyline(ds, [1.0, 1.0], alpha=0.0)
        with pytest.raises(ValueError):
            probabilistic_reverse_skyline(ds, [1.0, 1.0], alpha=1.2)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize(
        "query",
        [
            lambda ds, alpha: probabilistic_reverse_skyline(ds, [1.0, 1.0], alpha),
            lambda ds, alpha: prsq_non_answers(ds, [1.0, 1.0], alpha),
            lambda ds, alpha: is_prsq_answer(ds, 0, [1.0, 1.0], alpha),
        ],
        ids=["probabilistic_reverse_skyline", "prsq_non_answers", "is_prsq_answer"],
    )
    def test_alpha_outside_unit_interval_rejected(self, rng, query, alpha):
        ds = make_uncertain_dataset(rng, n=3, dims=2)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            query(ds, alpha)

    def test_is_prsq_answer_returns_probability(self, two_object_dataset):
        member, pr = is_prsq_answer(two_object_dataset, "u", [3.0, 3.0], alpha=0.5)
        assert member
        assert pr == pytest.approx(0.6)


class TestMembershipOracle:
    def test_matches_direct_probability(self, rng):
        ds = make_uncertain_dataset(rng, n=8, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        oracle = MembershipOracle(ds, target, q, alpha=0.5)
        assert oracle.probability() == pytest.approx(
            reference.prsq_probability(ds, target, q)
        )

    def test_restricted_probability_matches(self, rng):
        ds = make_uncertain_dataset(rng, n=8, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        oracle = MembershipOracle(ds, target, q, alpha=0.5)
        others = [oid for oid in ds.ids() if oid != target]
        for k in range(len(others)):
            removed = set(others[: k + 1])
            assert oracle.probability(removed) == pytest.approx(
                reference.prsq_probability(ds, target, q, exclude=removed)
            )

    def test_caching_avoids_reevaluation(self, rng):
        ds = make_uncertain_dataset(rng, n=6, dims=2)
        q = rng.uniform(0, 10, size=2)
        oracle = MembershipOracle(ds, ds.ids()[0], q, alpha=0.5)
        oracle.probability({ds.ids()[1]})
        evals = oracle.evaluations
        oracle.probability({ds.ids()[1]})
        assert oracle.evaluations == evals

    def test_non_influencers_ignored_in_cache_key(self, rng):
        ds = make_uncertain_dataset(rng, n=6, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        oracle = MembershipOracle(ds, target, q, alpha=0.5)
        non_influencer = next(
            (oid for oid in ds.ids() if oid != target and not oracle.influences(oid)),
            None,
        )
        if non_influencer is not None:
            assert oracle.probability({non_influencer}) == pytest.approx(
                oracle.probability()
            )

    def test_is_contingency_set_rejects_cause_inside_gamma(self, rng):
        ds = make_uncertain_dataset(rng, n=5, dims=2)
        q = rng.uniform(0, 10, size=2)
        target, other = ds.ids()[0], ds.ids()[1]
        oracle = MembershipOracle(ds, target, q, alpha=0.5)
        with pytest.raises(ValueError):
            oracle.is_contingency_set({other}, other)

    def test_validate_non_answer(self):
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[2.5, 2.5]]),
            ]
        )
        q = [3.0, 3.0]
        # u is blocked by v -> non-answer; v is unblocked -> answer.
        MembershipOracle(ds, "u", q, alpha=0.5).validate_non_answer()
        with pytest.raises(NotANonAnswerError):
            MembershipOracle(ds, "v", q, alpha=0.5).validate_non_answer()

    def test_certain_blockers_detected(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0], [2.2, 2.2]]),
                UncertainObject("blocker", [[2.4, 2.4], [2.5, 2.5]]),
                UncertainObject("partial", [[2.6, 2.6], [9.0, 9.0]]),
            ]
        )
        oracle = MembershipOracle(ds, "an", [3.0, 3.0], alpha=0.5)
        assert oracle.certain_blockers() == ["blocker"]

    def test_survival_row_and_max(self, two_object_dataset):
        oracle = MembershipOracle(two_object_dataset, "u", [3.0, 3.0], alpha=0.5)
        assert oracle.survival_row("v").tolist() == pytest.approx([0.6])
        assert oracle.max_survival("v") == pytest.approx(0.6)
        assert oracle.max_survival("unknown") == 1.0

    def test_invalid_alpha(self, two_object_dataset):
        with pytest.raises(ValueError):
            MembershipOracle(two_object_dataset, "u", [3.0, 3.0], alpha=0.0)
