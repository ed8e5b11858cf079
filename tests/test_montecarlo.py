"""Unit tests for the Monte-Carlo PRSQ probability estimator."""

import numpy as np
import pytest

from repro.prsq.montecarlo import (
    ProbabilityEstimate,
    sample_reverse_skyline_probability,
)
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from tests import reference
from tests.conftest import make_uncertain_dataset


class TestEstimateContainer:
    def test_confidence_interval_clamped(self):
        est = ProbabilityEstimate(value=0.98, std_error=0.05, worlds=100)
        lo, hi = est.confidence_interval()
        assert 0.0 <= lo <= hi <= 1.0

    def test_contains_uses_wide_interval(self):
        est = ProbabilityEstimate(value=0.5, std_error=0.05, worlds=100)
        assert 0.55 in est
        assert 0.99 not in est

    def test_wilson_interval_not_degenerate_at_certainty(self):
        """At an observed 0 or 1 the interval must keep real width.

        The old normal approximation collapsed to ~±3e-6 (the 1e-12
        variance floor), so a true probability of e.g. 0.002 that sampled
        0/1000 hits fell outside and flaked the exact-vs-MC property.
        """
        at_zero = ProbabilityEstimate(value=0.0, std_error=0.0, worlds=1_000)
        lo, hi = at_zero.confidence_interval()
        assert lo == 0.0
        assert hi > 1e-3  # z^2 / (n + z^2) ~ 0.0038
        assert 0.002 in at_zero
        at_one = ProbabilityEstimate(value=1.0, std_error=0.0, worlds=1_000)
        lo, hi = at_one.confidence_interval()
        assert hi == 1.0
        assert lo < 1.0 - 1e-3
        assert 0.998 in at_one

    def test_wilson_matches_closed_form(self):
        est = ProbabilityEstimate(value=0.3, std_error=0.0, worlds=200)
        z = 1.96
        n, p = 200, 0.3
        denominator = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denominator
        half = z / denominator * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
        lo, hi = est.confidence_interval(z=z)
        assert lo == pytest.approx(center - half)
        assert hi == pytest.approx(center + half)


class TestEstimator:
    def test_deterministic_case_exact(self):
        """With certain objects the estimate is exact regardless of worlds."""
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[2.5, 2.5]]),
            ]
        )
        est = sample_reverse_skyline_probability(ds, "u", [3.0, 3.0], worlds=50)
        assert est.value == 0.0
        est2 = sample_reverse_skyline_probability(ds, "v", [3.0, 3.0], worlds=50)
        assert est2.value == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_converges_to_exact_probability(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=6, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        exact = reference.prsq_probability(ds, target, q)
        est = sample_reverse_skyline_probability(
            ds, target, q, worlds=3_000, rng=np.random.default_rng(seed + 100)
        )
        assert exact in est  # inside the ~99.9% interval

    def test_respects_sample_probabilities(self):
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[2.5, 2.5], [9.0, 9.0]], [0.9, 0.1]),
            ]
        )
        est = sample_reverse_skyline_probability(
            ds, "u", [3.0, 3.0], worlds=4_000, rng=np.random.default_rng(1)
        )
        assert est.value == pytest.approx(0.1, abs=0.03)

    def test_distinct_seeds_give_independent_estimates(self, rng):
        """Repeated calls must not silently reuse one generator state.

        The old default of ``rng or np.random.default_rng(0)`` made every
        nominally independent estimate identical; seeds now vary the draw
        while the default stays reproducible.
        """
        ds = make_uncertain_dataset(rng, n=8, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        default_a = sample_reverse_skyline_probability(ds, target, q, worlds=300)
        default_b = sample_reverse_skyline_probability(ds, target, q, worlds=300)
        assert default_a.value == default_b.value  # documented default seed
        seeded = [
            sample_reverse_skyline_probability(
                ds, target, q, worlds=300, seed=s
            ).value
            for s in range(8)
        ]
        assert seeded[0] == default_a.value  # seed=0 is the default
        assert len(set(seeded)) > 1  # distinct seeds decorrelate

    def test_worlds_validation(self, rng):
        ds = make_uncertain_dataset(rng, n=3, dims=2)
        with pytest.raises(ValueError):
            sample_reverse_skyline_probability(ds, ds.ids()[0], [1.0, 1.0], worlds=0)

    def test_std_error_shrinks_with_worlds(self, rng):
        ds = make_uncertain_dataset(rng, n=6, dims=2)
        q = rng.uniform(0, 10, size=2)
        target = ds.ids()[0]
        small = sample_reverse_skyline_probability(
            ds, target, q, worlds=100, rng=np.random.default_rng(0)
        )
        large = sample_reverse_skyline_probability(
            ds, target, q, worlds=10_000, rng=np.random.default_rng(0)
        )
        assert large.std_error <= small.std_error
