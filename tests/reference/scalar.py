"""Per-element loops over the scalar dominance predicates."""

from __future__ import annotations

from typing import Hashable, Iterable, List

import numpy as np

from repro.geometry.dominance import dominance_vector, dynamically_dominates
from repro.geometry.point import PointLike, as_point
from repro.prsq.montecarlo import ProbabilityEstimate
from repro.prsq.probability import (
    dominance_probability_matrix,
    probability_from_matrix,
)
from repro.uncertain.dataset import CertainDataset, UncertainDataset


def dominators(
    dataset: CertainDataset,
    center: PointLike,
    q: PointLike,
    skip: Iterable[Hashable] = (),
) -> List[Hashable]:
    """Ids of the points of *dataset* outside *skip* that dynamically
    dominate ``q`` w.r.t. *center*, ``repr``-sorted: one test per point."""
    qq = as_point(q, dims=dataset.dims)
    cc = as_point(center, dims=dataset.dims)
    skipped = set(skip)
    return sorted(
        (
            obj.oid
            for obj in dataset
            if obj.oid not in skipped
            and dynamically_dominates(obj.samples[0], qq, cc)
        ),
        key=repr,
    )


def dominator_counts(points: np.ndarray, q: PointLike) -> np.ndarray:
    """For every point: how many other points dominate ``q`` w.r.t. it."""
    points = np.asarray(points, dtype=np.float64)
    qq = as_point(q, dims=points.shape[1])
    n = points.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if j != i and dynamically_dominates(points[j], qq, points[i]):
                counts[i] += 1
    return counts


def prsq_probability(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    exclude: Iterable[Hashable] = (),
) -> float:
    """Eq. (2) over every other object outside *exclude*, in dataset order.

    No index and no tensor kernel: the Eq. (3) matrix comes from the
    per-sample helper and the survival product from the row loop.  The
    matrix drops objects whose Eq. (3) vector is zero (a factor of exactly
    1.0), so the unpruned scan has the bits of any exact Lemma-2 prune.
    """
    qq = as_point(q, dims=dataset.dims)
    removed = set(exclude)
    target = dataset.get(oid)
    others = [
        obj for obj in dataset if obj.oid != oid and obj.oid not in removed
    ]
    return probability_from_matrix(
        target, dominance_probability_matrix(target, others, qq)
    )


def monte_carlo_probability(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    worlds: int,
    seed: int,
) -> ProbabilityEstimate:
    """The Monte-Carlo estimator with one dominance test per world.

    Draws exactly what
    :func:`~repro.prsq.montecarlo.sample_reverse_skyline_probability`
    draws from ``default_rng(seed)``, so the two hit counts must agree.
    """
    rng = np.random.default_rng(seed)
    qq = as_point(q, dims=dataset.dims)
    target = dataset.get(oid)
    others = dataset.others(oid)
    target_draws = rng.choice(
        target.num_samples, size=worlds, p=target.probabilities
    )
    other_draws = [
        rng.choice(obj.num_samples, size=worlds, p=obj.probabilities)
        for obj in others
    ]
    hits = 0
    for world in range(worlds):
        center = target.samples[target_draws[world]]
        if not others:
            hits += 1
            continue
        instantiated = np.array(
            [obj.samples[draws[world]] for obj, draws in zip(others, other_draws)]
        )
        if not dominance_vector(instantiated, qq, center).any():
            hits += 1
    value = hits / worlds
    std_error = float(np.sqrt(value * (1.0 - value) / worlds))
    return ProbabilityEstimate(value=value, std_error=std_error, worlds=worlds)
