"""NumPy-vectorized dominance, candidate-pruning and Eq. (3)/(2) kernels.

Every kernel evaluates whole point matrices at once, chunked to bound its
broadcast scratch memory.  Each performs the same float64 subtractions,
``abs`` and comparisons element by element as the scalar predicates of
:mod:`repro.geometry.dominance` and the Eq. (3)/(2) helpers of
:mod:`repro.prsq.probability`, so its outputs are **bit-identical** to
those references; the parity is property-tested against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.dominance import dominance_vector
from repro.geometry.point import PointLike, as_point
from repro.geometry.rectangle import Rect

# Windows per broadcast chunk for points_in_any_window: bounds the
# (n, chunk, d) containment scratch the same way.
_WINDOW_CHUNK = 128

# float64 elements per Eq. (3) broadcast chunk (~16 MB of scratch): the
# (S_center, chunk, S_max, d) distance tensor is sliced over the relevant
# objects so one center with many samples cannot blow up memory.
_EQ3_SCRATCH_ELEMENTS = 1 << 21

# float64 elements per dominator_counts chunk (~16 MB of scratch): the
# (centers, n, d) distance array holds as many centers as fit, so its size
# stays bounded at any n instead of growing with it.
_COUNT_SCRATCH_ELEMENTS = 1 << 21

# Elements per (center samples, pairs) array of one eq2_segmented block
# (64 KB of float64, under a MB for everything a block keeps alive): small
# enough that the arrays stay in cache and that the freed scratch of every
# server thread stays small, large enough that a query is tens of blocks.
_PAIR_BLOCK_ELEMENTS = 1 << 13

# Possible worlds per Monte-Carlo broadcast chunk: bounds the (n, chunk, d)
# instantiation-distance scratch.
_WORLD_CHUNK = 256

# Boxes per orthant of q that certainly_dominated tries, nearest q first.
# On lUrU (n = 1000, radius (0, 75)) 16 of them resolve ~97.6 % of the
# objects, nearly all of the ~98.5 % whose Pr(u) is zero.
_CANDIDATES_PER_ORTHANT = 16

# (point, candidate) pairs per certainly_dominated chunk: bounds its
# per-dimension (points, candidates) scratch.
_CANDIDATE_PAIR_ELEMENTS = 1 << 16


def _dominance_block(dp: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Dynamic-dominance predicate on pre-computed |·-center| distances.

    The single source of the broadcast comparison every tensor kernel
    shares — keeping it in one place is what keeps their bit-parity
    contracts in lockstep.  Reduces over the last (dimension) axis.
    """
    return np.logical_and((dp <= dq).all(axis=-1), (dp < dq).any(axis=-1))


# ---------------------------------------------------------------------------
# order-stable reductions (shared by the kernels and the scalar references)
# ---------------------------------------------------------------------------
def masked_ordered_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Left-to-right sum of ``values`` where ``mask``, along the last axis.

    Unlike ``np.sum`` (whose pairwise grouping depends on the axis length,
    so a zero-padded array need not sum to the same bits as its unpadded
    prefix), this accumulates strictly in index order.  Masked-out and
    padded slots contribute an exact ``+0.0`` — a floating-point no-op for
    the non-negative probabilities summed here — so the scalar reference
    (over ``l`` real samples) and the tensor kernels (over ``S_max``
    padded slots) produce **bit-identical** Eq. (3) entries.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if values.ndim == 1 and mask.ndim == 1:
        # One-vector fast lane: plain float accumulation, skipping the
        # masked-out exact-zero terms (a bit-exact no-op), instead of one
        # 0-d ufunc round-trip per element.
        acc = 0.0
        for v, m in zip(values.tolist(), mask.tolist()):
            if m:
                acc += v
        return np.float64(acc)
    shape = np.broadcast_shapes(values.shape, mask.shape)
    acc = np.zeros(shape[:-1], dtype=np.float64)
    for k in range(shape[-1]):
        acc = acc + np.where(mask[..., k], values[..., k], 0.0)
    return acc


def ordered_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Left-to-right ``sum_i a[i] * b[i]`` (the Eq. (2) final reduction).

    BLAS ``np.dot`` blocks and reorders; the Eq. (2) reference uses this
    sequential form instead, as the segmented kernel's in-order
    accumulation does, so their final bits agree.
    """
    acc = 0.0
    for x, y in zip(np.asarray(a, dtype=np.float64).tolist(),
                    np.asarray(b, dtype=np.float64).tolist()):
        acc += x * y
    return float(acc)


def dominance_mask(
    points: np.ndarray, target: PointLike, center: PointLike
) -> np.ndarray:
    """Boolean vector: row ``k`` iff ``points[k] ≺_center target``."""
    points = np.asarray(points, dtype=np.float64)
    return dominance_vector(points, as_point(target), as_point(center))


def dominator_counts(
    points: np.ndarray,
    q: PointLike,
) -> np.ndarray:
    """For every point ``p_i``: how many other points dominate ``q`` w.r.t. ``p_i``.

    Count 0 means ``p_i`` is in the reverse skyline of ``q``; count < k
    means membership in the reverse k-skyband.
    """
    points = np.asarray(points, dtype=np.float64)
    qq = as_point(q, dims=points.shape[1])
    n = points.shape[0]
    counts = np.empty(n, dtype=np.int64)
    chunk = max(1, _COUNT_SCRATCH_ELEMENTS // max(1, n * points.shape[1]))
    for start in range(0, n, chunk):
        centers = points[start : start + chunk]
        # (c, n, d) distances of every point / of q to each center.
        dp = np.abs(points[np.newaxis, :, :] - centers[:, np.newaxis, :])
        dq = np.abs(qq[np.newaxis, np.newaxis, :] - centers[:, np.newaxis, :])
        mask = _dominance_block(dp, dq)
        # The dominators of q w.r.t. p_i come from P - {p_i}: p_i itself
        # (distance 0 in every dimension) dominates q whenever q != p_i,
        # so the diagonal is zeroed.
        rows = np.arange(centers.shape[0])
        mask[rows, start + rows] = False
        counts[start : start + centers.shape[0]] = mask.sum(axis=1)
    return counts


def certainly_dominated(
    lo: np.ndarray,
    hi: np.ndarray,
    eligible: np.ndarray,
    points: np.ndarray,
    owners: np.ndarray,
    q: PointLike,
) -> np.ndarray:
    """Lemma-4 pre-pass: points for which another whole box dominates ``q``.

    ``lo`` / ``hi`` are ``(n, d)`` boxes, one per object, and ``eligible``
    marks the objects whose Eq. (3) sum over every sample is exactly
    ``1.0``.  ``out[k]`` is ``True`` only if some eligible object ``v !=
    owners[k]`` has every float of its box passing
    :func:`_dominance_block`'s comparisons against ``q`` w.r.t.
    ``points[k]``: then every sample of ``v`` dominates, ``v``'s Eq. (3)
    entry is its full sum ``1.0``, and the survival factor
    ``1.0 - 1.0`` is exactly ``+0.0``.  ``False`` proves nothing.

    ``fl(x - s)`` is monotone in ``x``, so the box passes when
    ``dist_j = max(|fl(lo_j - s_j)|, |fl(hi_j - s_j)|)`` is ``<=
    |fl(q_j - s_j)|`` in every dimension and ``<`` in one.  A dominator
    of ``q`` w.r.t. ``s`` lies in ``s``'s closed orthant of ``q``, so
    each point is tested only against the ``_CANDIDATES_PER_ORTHANT``
    eligible boxes nearest ``q`` (Chebyshev distance to the far corner)
    that lie strictly inside its own orthant.  With ``lo == hi`` the
    boxes are certain points.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    owners = np.asarray(owners, dtype=np.intp)
    dims = points.shape[1]
    qq = as_point(q, dims=dims)
    out = np.zeros(points.shape[0], dtype=bool)
    bits = 1 << np.arange(dims)
    above, below = lo > qq, hi < qq
    boxes = np.flatnonzero(
        np.asarray(eligible, dtype=bool) & (above | below).all(axis=1)
    )
    box_orthant = above[boxes] @ bits
    far = np.maximum(np.abs(lo[boxes] - qq), np.abs(hi[boxes] - qq)).max(axis=1)
    # a point on one of q's hyperplanes has reach 0 there: nothing passes
    point_orthant = np.where(
        (points != qq).all(axis=1), (points > qq) @ bits, -1
    )
    reach = np.abs(qq - points)
    for orthant in np.unique(box_orthant).tolist():
        ranked = np.flatnonzero(box_orthant == orthant)
        ranked = ranked[np.argsort(far[ranked], kind="stable")]
        candidates = boxes[ranked[:_CANDIDATES_PER_ORTHANT]]
        tested = np.flatnonzero(point_orthant == orthant)
        chunk = max(1, _CANDIDATE_PAIR_ELEMENTS // candidates.size)
        for start in range(0, tested.size, chunk):
            k = tested[start : start + chunk]
            s, r = points[k][:, :, np.newaxis], reach[k][:, :, np.newaxis]
            for j in range(dims):
                dist = np.maximum(
                    np.abs(lo[candidates, j] - s[:, j]),
                    np.abs(hi[candidates, j] - s[:, j]),
                )
                if j == 0:
                    within, strict = dist <= r[:, j], dist < r[:, j]
                else:
                    within &= dist <= r[:, j]
                    strict |= dist < r[:, j]
            within &= strict
            within &= owners[k][:, np.newaxis] != candidates
            out[k] = within.any(axis=1)
    return out


def points_in_any_window(
    points: np.ndarray, windows: Sequence[Rect]
) -> np.ndarray:
    """Candidate-pruning mask: rows of *points* inside at least one window.

    This is the vectorized Lemma-2 filter: stacking the window bounds turns
    per-point containment into two broadcast comparisons.
    """
    points = np.asarray(points, dtype=np.float64)
    if not windows:
        return np.zeros(points.shape[0], dtype=bool)
    los = np.stack([w.lo for w in windows])  # (m, d)
    his = np.stack([w.hi for w in windows])
    # Chunk over windows: a center with many samples produces many
    # windows, and the unchunked (n, m, d) broadcast would scale its
    # scratch with the product.  OR-accumulation over chunks is exact.
    hit = np.zeros(points.shape[0], dtype=bool)
    for start in range(0, los.shape[0], _WINDOW_CHUNK):
        lo = los[start : start + _WINDOW_CHUNK]
        hi = his[start : start + _WINDOW_CHUNK]
        inside = np.logical_and(
            (points[:, np.newaxis, :] >= lo[np.newaxis, :, :]).all(axis=2),
            (points[:, np.newaxis, :] <= hi[np.newaxis, :, :]).all(axis=2),
        )
        hit |= inside.any(axis=1)
    return hit


# ---------------------------------------------------------------------------
# exact-PRSQ probability kernels (tensorized Eqs. (2) and (3))
# ---------------------------------------------------------------------------
def eq3_dominance_tensor(
    center_samples: np.ndarray,
    other_samples: np.ndarray,
    other_probabilities: np.ndarray,
    other_mask: np.ndarray,
    q: PointLike,
) -> np.ndarray:
    """Eq. (3) matrix: ``out[r, i] = Pr{other_r ≺_{center_i} q}``.

    Parameters
    ----------
    center_samples:
        ``(C, d)`` samples of the center object (unpadded).
    other_samples, other_probabilities, other_mask:
        ``(R, S, d)`` / ``(R, S)`` padded rows from a
        :class:`~repro.uncertain.tensor.DatasetTensor` gather.

    One broadcast, chunked over ``R`` so the ``(C, chunk, S, d)`` scratch
    stays bounded.  It runs the float comparisons and left-to-right
    masked sums of
    :func:`~repro.prsq.probability.dominance_probability_vector`, so its
    rows are bit-identical to that reference.  One broadcast suits the
    few relevant rows of one center; a whole query's pairs go through
    :func:`eq2_segmented` instead.
    """
    center_samples = np.asarray(center_samples, dtype=np.float64)
    other_samples = np.asarray(other_samples, dtype=np.float64)
    other_probabilities = np.asarray(other_probabilities, dtype=np.float64)
    other_mask = np.asarray(other_mask, dtype=bool)
    c = center_samples.shape[0]
    r, s, d = other_samples.shape
    qq = as_point(q, dims=center_samples.shape[1])
    out = np.empty((r, c), dtype=np.float64)
    chunk = max(1, _EQ3_SCRATCH_ELEMENTS // max(1, c * s * d))
    for start in range(0, r, chunk):
        sl = slice(start, min(start + chunk, r))
        block = other_samples[sl]  # (b, S, d)
        # (C, b, S, d) distances of every sample / of q to each center sample.
        dp = np.abs(block[np.newaxis, :, :, :] - center_samples[:, np.newaxis, np.newaxis, :])
        dq = np.abs(qq - center_samples)[:, np.newaxis, np.newaxis, :]
        dominating = _dominance_block(dp, dq)
        dominating &= other_mask[sl][np.newaxis, :, :]
        probs = np.broadcast_to(
            other_probabilities[sl][np.newaxis, :, :], dominating.shape
        )
        out[sl] = masked_ordered_sum(probs, dominating).T
    return out


def _eq3_block(
    center: Sequence[np.ndarray],
    reach: Sequence[np.ndarray],
    others: np.ndarray,
    probabilities: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Eq. (3) for a block of B (center, other object) pairs.

    ``center[j]`` / ``reach[j]`` are ``(C, B)``: coordinate ``j`` of each
    pair's center samples, and its distance ``|q_j - center_j|`` to the
    query point.  ``others`` is ``(d, S, B)``, the other objects' padded
    sample slots per dimension; ``probabilities`` / ``mask`` are
    ``(S, B)``.  Returns ``out[i, b] = Pr{other_b ≺_{center_b,i} q}``.

    Every step is elementwise on ``(C, B)`` arrays whose long pair axis
    is the contiguous one — a loop over the S slots and d dimensions
    instead of :func:`eq3_dominance_tensor`'s ``(C, B, S, d)`` broadcast
    — so the scratch is a few ``(C, B)`` arrays and nothing reduces over
    a tiny axis.  The comparisons are :func:`_dominance_block`'s, and the
    slot sum accumulates left to right like :func:`masked_ordered_sum`:
    a masked slot's ``+0.0`` is skipped, and ``x + 0.0 == x`` exactly
    for the never-negative-zero running sum.
    """
    out = np.zeros(center[0].shape, dtype=np.float64)
    dist = np.empty(out.shape, dtype=np.float64)
    within = np.empty(out.shape, dtype=bool)
    strict = np.empty(out.shape, dtype=bool)
    scratch = np.empty(out.shape, dtype=bool)
    for k in range(others.shape[1]):
        for j in range(len(center)):
            np.subtract(others[j, k], center[j], out=dist)
            np.abs(dist, out=dist)
            if j == 0:
                np.less_equal(dist, reach[j], out=within)
                np.less(dist, reach[j], out=strict)
            else:
                within &= np.less_equal(dist, reach[j], out=scratch)
                strict |= np.less(dist, reach[j], out=scratch)
        within &= strict
        within &= mask[k]
        np.add(out, probabilities[k], out=out, where=within)
    return out


def eq2_segmented(
    samples: np.ndarray,
    probabilities: np.ndarray,
    mask: np.ndarray,
    centers: Sequence[int],
    offsets: Sequence[int],
    rows: Sequence[int],
    q: PointLike,
) -> np.ndarray:
    """Eq. (2) for many centers at once, over CSR relevance sets.

    *samples* / *probabilities* / *mask* are a
    :class:`~repro.uncertain.tensor.DatasetTensor`'s padded arrays.
    ``out[g]`` is ``Pr(u)`` of the object at row ``centers[g]``, whose
    relevant rows are ``rows[offsets[g]:offsets[g + 1]]`` in ascending
    order, the canonical product order.

    Pairs run in blocks of whole segments, at most
    ``_PAIR_BLOCK_ELEMENTS`` (pair, center sample) elements or one
    segment.  Per block: Eq. (3) for every pair (:func:`_eq3_block`); the
    survival products as one ``multiply.reduceat`` over the segments,
    which multiplies each segment's rows in order, factor for factor
    :func:`~repro.prsq.probability.probability_from_matrix`; then the
    ordered dot with each center's probabilities, over its real samples.
    Results are bit-identical to that reference and to evaluating the
    centers one by one, and the Python call count is O(blocks), not
    O(pairs).
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_slots, dims = samples.shape[1], samples.shape[2]
    qq = as_point(q, dims=dims)
    centers = np.asarray(centers, dtype=np.intp)
    offsets = np.asarray(offsets, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    # Slot-major layouts, (d, S, n) and (S, n): a gather by pair lands the
    # pairs on the contiguous axis, for the centers and the others alike.
    coords = np.ascontiguousarray(samples.transpose(2, 1, 0))
    reach = np.abs(qq[:, np.newaxis, np.newaxis] - coords)
    slot_probabilities = np.ascontiguousarray(probabilities.T)
    slot_mask = np.ascontiguousarray(mask.T)

    out = np.empty(centers.shape[0], dtype=np.float64)
    budget = max(1, _PAIR_BLOCK_ELEMENTS // n_slots)
    first = 0
    while first < centers.shape[0]:
        last = int(
            np.searchsorted(offsets, offsets[first] + budget, side="right")
        ) - 1
        last = min(max(last, first + 1), centers.shape[0])
        block = centers[first:last]
        lengths = np.diff(offsets[first : last + 1])
        pair_centers = np.repeat(block, lengths)
        pair_rows = rows[offsets[first] : offsets[last]]
        eq3 = _eq3_block(
            [coords[j][:, pair_centers] for j in range(dims)],
            [reach[j][:, pair_centers] for j in range(dims)],
            coords[:, :, pair_rows],
            slot_probabilities[:, pair_rows],
            slot_mask[:, pair_rows],
        )
        # reduceat cannot express an empty segment: reduce the non-empty
        # ones (strictly increasing starts) and leave the others at 1.0.
        survival = np.ones((n_slots, block.shape[0]), dtype=np.float64)
        filled = np.flatnonzero(lengths)
        if filled.size:
            starts = offsets[first:last][filled] - offsets[first]
            survival[:, filled] = np.multiply.reduceat(
                1.0 - eq3, starts, axis=1
            )
        center_probabilities = slot_probabilities[:, block]
        center_mask = slot_mask[:, block]
        total = np.zeros(block.shape[0], dtype=np.float64)
        for i in range(n_slots):
            total += np.where(
                center_mask[i], center_probabilities[i] * survival[i], 0.0
            )
        out[first:last] = total
        first = last
    return out


def influence_mask(
    center_samples: np.ndarray,
    other_samples: np.ndarray,
    other_mask: np.ndarray,
    q: PointLike,
) -> np.ndarray:
    """Lemma-1 filter: can object ``r`` dominate ``q`` w.r.t. *any* center sample?

    ``out[r]`` is ``True`` iff some valid sample of ``other_r`` dynamically
    dominates ``q`` w.r.t. some row of *center_samples* — i.e. the object's
    Eq. (3) vector is non-zero.  Boolean-exact against the scalar
    :func:`~repro.core.candidates.can_influence`.
    """
    center_samples = np.asarray(center_samples, dtype=np.float64)
    other_samples = np.asarray(other_samples, dtype=np.float64)
    other_mask = np.asarray(other_mask, dtype=bool)
    c = center_samples.shape[0]
    r, s, d = other_samples.shape
    qq = as_point(q, dims=center_samples.shape[1])
    out = np.zeros(r, dtype=bool)
    chunk = max(1, _EQ3_SCRATCH_ELEMENTS // max(1, c * s * d))
    for start in range(0, r, chunk):
        sl = slice(start, min(start + chunk, r))
        block = other_samples[sl]
        dp = np.abs(block[np.newaxis, :, :, :] - center_samples[:, np.newaxis, np.newaxis, :])
        dq = np.abs(qq - center_samples)[:, np.newaxis, np.newaxis, :]
        dominating = _dominance_block(dp, dq)
        dominating &= other_mask[sl][np.newaxis, :, :]
        out[sl] = dominating.any(axis=(0, 2))
    return out


def undominated_world_mask(
    instantiated: np.ndarray,
    centers: np.ndarray,
    q: PointLike,
) -> np.ndarray:
    """Monte-Carlo world kernel: worlds where no instantiation dominates ``q``.

    Parameters
    ----------
    instantiated:
        ``(R, W, d)`` — object ``r``'s drawn location in world ``w``.
    centers:
        ``(W, d)`` — the center object's drawn location per world.

    Returns the ``(W,)`` boolean vector of *hit* worlds (the center's
    instantiation is a reverse skyline point).  Chunked over worlds;
    boolean-exact against a per-world ``dominance_vector`` loop.
    """
    instantiated = np.asarray(instantiated, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, worlds, _ = instantiated.shape
    qq = as_point(q, dims=centers.shape[1])
    hits = np.empty(worlds, dtype=bool)
    for start in range(0, worlds, _WORLD_CHUNK):
        sl = slice(start, min(start + _WORLD_CHUNK, worlds))
        block_centers = centers[sl]  # (w, d)
        dp = np.abs(instantiated[:, sl, :] - block_centers[np.newaxis, :, :])
        dq = np.abs(qq - block_centers)[np.newaxis, :, :]
        hits[sl] = ~_dominance_block(dp, dq).any(axis=0)
    return hits
