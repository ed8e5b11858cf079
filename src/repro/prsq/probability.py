"""Probabilistic reverse skyline probabilities (Eqs. (2) and (3)).

For an uncertain object ``u`` with samples ``u_i``:

.. math::

   Pr(u) = \\sum_i u_i.p \\prod_{u' \\in P - \\{u\\}}
           \\bigl(1 - Pr\\{u' \\prec_{u_i} q\\}\\bigr)

where ``Pr{u' ≺_{u_i} q}`` (Eq. (3)) sums the appearance probabilities of
the samples of ``u'`` that dynamically dominate ``q`` w.r.t. ``u_i``.

The queries evaluate it with the tensor kernels: blocked elementwise
Eq. (3) over the dataset's padded sample tensor followed by segmented
Eq. (2) reductions (:func:`repro.engine.kernels.eq2_segmented`), for one
center in :func:`reverse_skyline_probability` and for every center of a
query in :mod:`repro.prsq.query`.

The per-dominator / per-sample helpers below
(:func:`sample_dominance_probability` up to :func:`probability_from_matrix`)
are the scalar **reference**: they share no kernel with that path, only
the same left-to-right reductions and the same canonical Eq. (2) product
order (dataset order of the relevant objects).  The kernels' results are
bit-identical to them run after run, whether the reference visits the
relevant objects or every other one; the parity is property-tested, and
the brute-force causality oracle evaluates Eq. (2) through them alone.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from repro.geometry.dominance import dominance_rectangle, dominance_vector
from repro.geometry.point import PointLike, as_point
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject


def sample_dominance_probability(
    dominator: UncertainObject, center_sample: PointLike, q: PointLike
) -> float:
    """Eq. (3): probability that *dominator* dynamically dominates ``q``
    w.r.t. the fixed *center_sample*."""
    # Imported lazily: the engine package imports prsq at module-import time.
    from repro.engine.kernels import masked_ordered_sum

    mask = dominance_vector(dominator.samples, as_point(q), as_point(center_sample))
    if not mask.any():
        return 0.0
    return float(masked_ordered_sum(dominator.probabilities, mask))


def dominance_probability_vector(
    dominator: UncertainObject, center: UncertainObject, q: PointLike
) -> np.ndarray:
    """Vector of Eq. (3) probabilities, one entry per sample of *center*.

    Entry ``i`` is ``Pr{dominator ≺_{center_i} q}``.
    """
    qq = as_point(q, dims=center.dims)
    return np.array(
        [
            sample_dominance_probability(dominator, center.samples[i], qq)
            for i in range(center.num_samples)
        ]
    )


def dominance_probability_matrix(
    center: UncertainObject,
    others: Iterable[UncertainObject],
    q: PointLike,
) -> Dict[Hashable, np.ndarray]:
    """Eq. (3) vectors for every object in *others*, keyed by object id.

    Objects whose vector is identically zero are omitted — they contribute a
    factor of exactly 1 to every term of Eq. (2) (this is Lemma 1's
    irrelevance argument in matrix form).
    """
    matrix: Dict[Hashable, np.ndarray] = {}
    for other in others:
        vector = dominance_probability_vector(other, center, q)
        if vector.any():
            matrix[other.oid] = vector
    return matrix


def relevant_indices(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    exclude: Optional[Iterable[Hashable]] = None,
) -> List[int]:
    """Dataset positions of the objects Eq. (2) must visit, in dataset order.

    Only objects whose MBR crosses one of *oid*'s dominance rectangles can
    have a non-zero Eq. (3) vector (Lemma 2), found by one packed
    level-frontier traversal.  Ascending dataset positions fix the
    Eq. (2) floating-point product order, so the returned probability
    bits are identical across runs and to the unpruned scan over every
    other object.
    """
    target = dataset.get(oid)
    qq = as_point(q, dims=dataset.dims)
    center = dataset.index_of(oid)
    windows = [
        dominance_rectangle(target.samples[i], qq)
        for i in range(target.num_samples)
    ]
    positions = dataset.window_positions(windows, exclude=center)
    if exclude is not None:
        removed = [dataset.index_of(o) for o in exclude if o in dataset]
        positions = positions[~np.isin(positions, removed)]
    return positions.tolist()


def reverse_skyline_probability(
    dataset: UncertainDataset,
    oid: Hashable,
    q: PointLike,
    exclude: Optional[Iterable[Hashable]] = None,
) -> float:
    """Eq. (2): the probability of *oid* being a reverse skyline object of ``q``.

    Pruned with the dataset R-tree: only objects whose MBR crosses one of
    *oid*'s dominance rectangles can have a non-zero Eq. (3) vector
    (Lemma 2), so only those (:func:`relevant_indices`) are evaluated.

    Parameters
    ----------
    exclude:
        Treat these object ids as removed (evaluates ``Pr`` over ``P - Γ``).

    This is the one-center case of the batched PRSQ kernel
    (:func:`repro.engine.kernels.eq2_segmented`), bit-identical to the
    scalar reference ``probability_from_matrix(center,
    dominance_probability_matrix(center, relevant, q))``.
    """
    from repro.engine.kernels import eq2_segmented

    qq = as_point(q, dims=dataset.dims)
    indices = relevant_indices(dataset, oid, qq, exclude=exclude)
    # Only the center's row and its relevant rows: the kernel copies
    # what it is given into slot-major order, O(|relevant|), not O(n).
    samples, probabilities, mask = dataset.tensor.rows(
        [dataset.index_of(oid)] + indices
    )
    value = eq2_segmented(
        samples, probabilities, mask,
        [0], [0, len(indices)], np.arange(1, len(indices) + 1), qq,
    )
    return float(value[0])


def probability_from_matrix(
    center: UncertainObject,
    matrix: Dict[Hashable, np.ndarray],
    keep: Optional[Iterable[Hashable]] = None,
) -> float:
    """Evaluate Eq. (2) from a precomputed Eq. (3) matrix.

    *keep* restricts the product to a subset of the matrix rows (used when
    evaluating ``Pr`` over ``P - Γ`` without recomputing dominance).
    """
    from repro.engine.kernels import ordered_dot

    if keep is None:
        rows: List[np.ndarray] = list(matrix.values())
    else:
        rows = [matrix[k] for k in keep if k in matrix]
    survival = np.ones(center.num_samples)
    for vector in rows:
        survival = survival * (1.0 - vector)
    return ordered_dot(center.probabilities, survival)
