"""Unit and integration tests for algorithm CP (CR2PRSQ)."""

import numpy as np
import pytest

from repro.core.cp import CPConfig, compute_causality, compute_causality_pdf
from repro.core.model import CauseKind
from repro.core.naive import brute_force_causality
from repro.exceptions import NotANonAnswerError
from repro.geometry.rectangle import Rect
from repro.prsq.query import prsq_non_answers, prsq_probabilities
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from repro.uncertain.pdf import TruncatedGaussianObject, UniformBoxObject
from tests.conftest import make_uncertain_dataset


def first_non_answer(ds, q, alpha):
    nas = prsq_non_answers(ds, q, alpha)
    return nas[0] if nas else None


class TestInputValidation:
    def test_answer_rejected(self):
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[2.5, 2.5]]),
            ]
        )
        with pytest.raises(NotANonAnswerError):
            compute_causality(ds, "v", [3.0, 3.0], alpha=0.5)

    def test_invalid_alpha(self):
        ds = UncertainDataset([UncertainObject("u", [[0.0, 0.0]])])
        with pytest.raises(ValueError):
            compute_causality(ds, "u", [1.0, 1.0], alpha=1.5)


class TestKnownScenarios:
    def test_single_counterfactual_cause(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("cf", [[2.4, 2.4]]),
                UncertainObject("far", [[9.0, 0.5]]),
            ]
        )
        res = compute_causality(ds, "an", [3.0, 3.0], alpha=0.5)
        assert res.cause_ids() == ["cf"]
        assert res.causes["cf"].kind is CauseKind.COUNTERFACTUAL
        assert res.responsibility("cf") == 1.0

    def test_two_blockers_share_responsibility(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("b1", [[2.3, 2.3]]),
                UncertainObject("b2", [[2.5, 2.5]]),
            ]
        )
        res = compute_causality(ds, "an", [3.0, 3.0], alpha=0.5)
        assert res.cause_ids() == ["b1", "b2"]
        assert res.responsibility("b1") == pytest.approx(0.5)
        assert res.responsibility("b2") == pytest.approx(0.5)
        assert res.causes["b1"].contingency_set == frozenset({"b2"})

    def test_partial_dominator_probabilities(self):
        """Paper Fig. 1c-style: b's non-membership caused by a partial
        dominator with probability 0.75 > alpha."""
        ds = UncertainDataset(
            [
                UncertainObject("b", [[4.0, 4.0], [4.4, 4.4]]),
                UncertainObject(
                    "a",
                    [[4.5, 4.5], [4.6, 4.6], [4.4, 4.6], [9.9, 0.1]],
                ),
            ]
        )
        q = [5.0, 5.0]
        probs = prsq_probabilities(ds, q)
        assert probs["b"] == pytest.approx(0.25)
        res = compute_causality(ds, "b", q, alpha=0.5)
        assert res.cause_ids() == ["a"]
        assert res.causes["a"].kind is CauseKind.COUNTERFACTUAL

    def test_alpha_one_all_candidates_are_causes(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("weak", [[2.6, 2.6], [9.0, 9.0]]),
                UncertainObject("strong", [[2.3, 2.3]]),
            ]
        )
        res = compute_causality(ds, "an", [3.0, 3.0], alpha=1.0)
        assert res.cause_ids() == ["strong", "weak"]
        assert res.responsibility("weak") == pytest.approx(0.5)
        assert res.responsibility("strong") == pytest.approx(0.5)

    def test_alpha_one_single_candidate_counterfactual(self):
        ds = UncertainDataset(
            [
                UncertainObject("an", [[2.0, 2.0]]),
                UncertainObject("only", [[2.6, 2.6], [9.0, 9.0]]),
            ]
        )
        res = compute_causality(ds, "an", [3.0, 3.0], alpha=1.0)
        assert res.cause_ids() == ["only"]
        assert res.causes["only"].kind is CauseKind.COUNTERFACTUAL


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_random_instances(self, seed, alpha):
        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=6, dims=2)
        q = rng.uniform(0, 10, size=2)
        an = first_non_answer(ds, q, alpha)
        if an is None:
            pytest.skip("all answers in this draw")
        cp = compute_causality(ds, an, q, alpha)
        bf = brute_force_causality(ds, an, q, alpha)
        assert cp.same_causality(bf), (
            cp.responsibilities(),
            bf.responsibilities(),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_sets_are_valid_contingencies(self, seed):
        from repro.prsq.oracle import MembershipOracle

        rng = np.random.default_rng(seed + 50)
        ds = make_uncertain_dataset(rng, n=7, dims=2)
        q = rng.uniform(0, 10, size=2)
        an = first_non_answer(ds, q, 0.5)
        if an is None:
            pytest.skip("all answers in this draw")
        res = compute_causality(ds, an, q, 0.5)
        oracle = MembershipOracle(ds, an, q, 0.5)
        for oid, cause in res.causes.items():
            assert oracle.is_contingency_set(cause.contingency_set, oid)


class TestConfigurations:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_ablations_agree(self, seed):
        rng = np.random.default_rng(seed + 10)
        ds = make_uncertain_dataset(rng, n=8, dims=2)
        q = rng.uniform(0, 10, size=2)
        an = first_non_answer(ds, q, 0.5)
        if an is None:
            pytest.skip("all answers in this draw")
        reference = compute_causality(ds, an, q, 0.5)
        configs = [
            CPConfig(use_index=False),
            CPConfig(use_lemma4=False),
            CPConfig(use_lemma5=False),
            CPConfig(use_lemma6=False),
            CPConfig(use_bound_prune=False),
            CPConfig.naive_refinement(),
        ]
        for config in configs:
            alt = compute_causality(ds, an, q, 0.5, config=config)
            assert reference.same_causality(alt), config

    def test_stats_populated(self, rng):
        ds = make_uncertain_dataset(rng, n=20, dims=2)
        q = rng.uniform(0, 10, size=2)
        an = first_non_answer(ds, q, 0.5)
        if an is None:
            pytest.skip("all answers in this draw")
        res = compute_causality(ds, an, q, 0.5)
        assert res.stats.node_accesses > 0
        assert res.stats.cpu_time_s > 0
        assert res.stats.candidates >= len(res)

    def test_linear_scan_reports_zero_node_accesses(self, rng):
        ds = make_uncertain_dataset(rng, n=12, dims=2)
        q = rng.uniform(0, 10, size=2)
        an = first_non_answer(ds, q, 0.5)
        if an is None:
            pytest.skip("all answers in this draw")
        res = compute_causality(ds, an, q, 0.5, config=CPConfig(use_index=False))
        assert res.stats.node_accesses == 0


class TestPdfModel:
    def test_pdf_pipeline_runs(self):
        objects = [
            UniformBoxObject("an", Rect([4.0, 4.0], [4.6, 4.6])),
            UniformBoxObject("cause", Rect([4.4, 4.4], [4.8, 4.8])),
            TruncatedGaussianObject("far", Rect([9.0, 0.0], [9.8, 0.8])),
        ]
        result, dataset = compute_causality_pdf(
            objects, "an", [5.0, 5.0], alpha=0.5, samples_per_object=32
        )
        assert "cause" in result.cause_ids()
        assert "far" not in result.cause_ids()
        assert dataset.get("an").num_samples == 32

    def test_pdf_unknown_object_rejected(self):
        objects = [UniformBoxObject("an", Rect([0.0, 0.0], [1.0, 1.0]))]
        with pytest.raises(KeyError):
            compute_causality_pdf(objects, "nope", [5.0, 5.0], alpha=0.5)

    def test_pdf_matches_discrete_on_same_samples(self, rng):
        """Running CP directly on the discretized dataset (discrete filter)
        must agree with the pdf front-end (region filter)."""
        objects = [
            UniformBoxObject("an", Rect([4.0, 4.0], [4.6, 4.6])),
            UniformBoxObject("c1", Rect([4.3, 4.3], [4.9, 4.9])),
            UniformBoxObject("c2", Rect([4.5, 4.2], [5.0, 4.7])),
        ]
        pdf_result, dataset = compute_causality_pdf(
            objects, "an", [5.0, 5.0], alpha=0.5, samples_per_object=16,
            rng=np.random.default_rng(3),
        )
        discrete_result = compute_causality(dataset, "an", [5.0, 5.0], 0.5)
        assert pdf_result.same_causality(discrete_result)
