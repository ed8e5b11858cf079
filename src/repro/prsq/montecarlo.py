"""Monte-Carlo estimation of reverse-skyline probabilities.

Eq. (2) is exact but touches every influencing object; when only a rough
probability is needed (workload triage, sanity dashboards) sampling
possible worlds is a simple alternative and — more importantly here — an
*independent* estimator the exact computation is cross-validated against
in the property tests.  The estimator converges at the usual
:math:`O(1/\\sqrt{n})` Monte-Carlo rate; intervals use the Wilson score
construction, which stays honest at observed values of exactly 0 or 1
where the normal approximation collapses to zero width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

from repro.geometry.point import PointLike, as_point
from repro.uncertain.dataset import UncertainDataset

# float64 elements per gathered (n_others, chunk, d) instantiation block
# (~16 MB): bounds peak memory for huge world counts over large datasets.
_GATHER_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A sampled probability with Wilson-score error bars."""

    value: float
    std_error: float
    worlds: int

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Wilson score interval ``(lo, hi)`` at the given z (default ~95%).

        Unlike the normal approximation ``value ± z·std_error``, the Wilson
        interval keeps a non-degenerate width when the observed fraction is
        exactly 0 or 1 — there it spans ``[0, z²/(n+z²)]`` (resp. the
        mirror), covering the true probability at the nominal rate instead
        of collapsing onto the point estimate.
        """
        n = self.worlds
        p = self.value
        z2 = z * z
        denominator = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denominator
        half = (z / denominator) * math.sqrt(
            p * (1.0 - p) / n + z2 / (4.0 * n * n)
        )
        return (max(0.0, center - half), min(1.0, center + half))

    def __contains__(self, probability: float) -> bool:
        lo, hi = self.confidence_interval(z=3.29)  # ~99.9%
        return lo <= probability <= hi


def sample_reverse_skyline_probability(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    worlds: int = 1_000,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> ProbabilityEstimate:
    """Estimate ``Pr(oid)`` by sampling *worlds* possible worlds.

    Each world instantiates every object at one sample (independently, per
    the Sec. 2.2 model); the estimate is the fraction of worlds in which no
    instantiated object dynamically dominates ``q`` w.r.t. *oid*'s
    instantiation.

    Parameters
    ----------
    rng:
        Source of randomness.  When omitted, a fresh
        ``np.random.default_rng(seed)`` is created, so repeated calls with
        default arguments are reproducible **and identical** — pass
        distinct seeds (or one shared generator) to obtain independent
        estimates; earlier versions silently reused seed 0 on every call,
        perfectly correlating nominally independent estimates.

    All worlds are evaluated through the chunked broadcast kernel
    :func:`repro.engine.kernels.undominated_world_mask`, whose hit counts
    are boolean-exact against a per-world loop.
    """
    from repro.engine.kernels import undominated_world_mask

    if worlds < 1:
        raise ValueError("at least one world is required")
    if rng is None:
        rng = np.random.default_rng(seed)
    qq = as_point(q, dims=dataset.dims)
    target = dataset.get(oid)
    others = dataset.others(oid)

    # Pre-draw sample indices for every object across all worlds.
    target_draws = rng.choice(
        target.num_samples, size=worlds, p=target.probabilities
    )
    other_draws = {
        obj.oid: rng.choice(obj.num_samples, size=worlds, p=obj.probabilities)
        for obj in others
    }

    if not others:
        hits = worlds
    else:
        # Gather (n_others, chunk, d) instantiations per world chunk — the
        # kernel's internal chunking bounds its scratch, but the gathered
        # input itself must not scale with worlds × objects either.
        step = max(1, _GATHER_ELEMENTS // max(1, len(others) * dataset.dims))
        centers = target.samples[target_draws]
        hits = 0
        for start in range(0, worlds, step):
            sl = slice(start, min(start + step, worlds))
            instantiated = np.stack(
                [obj.samples[other_draws[obj.oid][sl]] for obj in others]
            )
            hits += int(
                undominated_world_mask(instantiated, centers[sl], qq).sum()
            )

    value = hits / worlds
    std_error = math.sqrt(value * (1.0 - value) / worlds)
    return ProbabilityEstimate(value=value, std_error=std_error, worlds=worlds)
