"""NumPy-vectorized dominance and candidate-pruning kernels.

Every kernel has two implementations selected by ``use_numpy``:

* a broadcast NumPy path that evaluates whole point matrices at once
  (chunked over centers to bound the ``(chunk, n, d)`` scratch memory);
* a pure-Python fallback that loops over the scalar predicates from
  :mod:`repro.geometry.dominance`.

Both paths perform the same float64 subtractions, ``abs`` and comparisons
element by element, so their outputs are **bit-compatible** — the parity is
property-tested, and the engine may pick either path per session without
changing any result.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.dominance import dominance_vector, dynamically_dominates
from repro.geometry.point import PointLike, as_point
from repro.geometry.rectangle import Rect

#: Default kernel selection for sessions that don't specify one.
DEFAULT_USE_NUMPY = True

# Centers per broadcast chunk: bounds the (chunk, n, d) scratch array to a
# few MB for the cardinalities the benchmarks sweep.
_CENTER_CHUNK = 128

# Windows per broadcast chunk for points_in_any_window: bounds the
# (n, chunk, d) containment scratch the same way.
_WINDOW_CHUNK = 128

# float64 elements per Eq. (3) broadcast chunk (~16 MB of scratch): the
# (S_center, chunk, S_max, d) distance tensor is sliced over the relevant
# objects so one center with many samples cannot blow up memory.
_EQ3_SCRATCH_ELEMENTS = 1 << 21

# Elements per (center samples, pairs) array of one eq2_segmented block
# (64 KB of float64, under a MB for everything a block keeps alive): small
# enough that the arrays stay in cache and that the freed scratch of every
# server thread stays small, large enough that a query is tens of blocks.
_PAIR_BLOCK_ELEMENTS = 1 << 13

# Possible worlds per Monte-Carlo broadcast chunk: bounds the (n, chunk, d)
# instantiation-distance scratch.
_WORLD_CHUNK = 256


def resolve_use_numpy(use_numpy: Optional[bool]) -> bool:
    """Apply the session default when a caller leaves the switch unset."""
    return DEFAULT_USE_NUMPY if use_numpy is None else use_numpy


_resolve = resolve_use_numpy


def _dominance_block(dp: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Dynamic-dominance predicate on pre-computed |·-center| distances.

    The single source of the broadcast comparison every tensor kernel
    shares — keeping it in one place is what keeps their bit-parity
    contracts in lockstep.  Reduces over the last (dimension) axis.
    """
    return np.logical_and((dp <= dq).all(axis=-1), (dp < dq).any(axis=-1))


# ---------------------------------------------------------------------------
# order-stable reductions (shared by the scalar and tensor probability paths)
# ---------------------------------------------------------------------------
def masked_ordered_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Left-to-right sum of ``values`` where ``mask``, along the last axis.

    Unlike ``np.sum`` (whose pairwise grouping depends on the axis length,
    so a zero-padded array need not sum to the same bits as its unpadded
    prefix), this accumulates strictly in index order.  Masked-out and
    padded slots contribute an exact ``+0.0`` — a floating-point no-op for
    the non-negative probabilities summed here — so the scalar path (over
    ``l`` real samples) and the tensor path (over ``S_max`` padded slots)
    produce **bit-identical** Eq. (3) entries.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if values.ndim == 1 and mask.ndim == 1:
        # Scalar-path fast lane: plain float accumulation, skipping the
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

    BLAS ``np.dot`` blocks and reorders; both probability paths use this
    sequential form instead so their final bits agree.
    """
    acc = 0.0
    for x, y in zip(np.asarray(a, dtype=np.float64).tolist(),
                    np.asarray(b, dtype=np.float64).tolist()):
        acc += x * y
    return float(acc)


def dominance_mask(
    points: np.ndarray,
    target: PointLike,
    center: PointLike,
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Boolean vector: row ``k`` iff ``points[k] ≺_center target``."""
    points = np.asarray(points, dtype=np.float64)
    t = as_point(target)
    c = as_point(center)
    if _resolve(use_numpy):
        return dominance_vector(points, t, c)
    return np.array(
        [dynamically_dominates(points[k], t, c) for k in range(points.shape[0])],
        dtype=bool,
    )


def dominator_counts(
    points: np.ndarray,
    q: PointLike,
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """For every point ``p_i``: how many other points dominate ``q`` w.r.t. ``p_i``.

    Count 0 means ``p_i`` is in the reverse skyline of ``q``; count < k
    means membership in the reverse k-skyband.
    """
    points = np.asarray(points, dtype=np.float64)
    qq = as_point(q, dims=points.shape[1])
    n = points.shape[0]
    if not _resolve(use_numpy):
        counts = np.zeros(n, dtype=np.int64)
        for i in range(n):
            center = points[i]
            for j in range(n):
                if j != i and dynamically_dominates(points[j], qq, center):
                    counts[i] += 1
        return counts

    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, _CENTER_CHUNK):
        centers = points[start : start + _CENTER_CHUNK]
        # (c, n, d) distances of every point / of q to each center.
        dp = np.abs(points[np.newaxis, :, :] - centers[:, np.newaxis, :])
        dq = np.abs(qq[np.newaxis, np.newaxis, :] - centers[:, np.newaxis, :])
        mask = _dominance_block(dp, dq)
        # A point never dominates w.r.t. itself (distance 0 vs 0 per dim is
        # never strict), but zero the diagonal explicitly for clarity.
        rows = np.arange(centers.shape[0])
        mask[rows, start + rows] = False
        counts[start : start + centers.shape[0]] = mask.sum(axis=1)
    return counts


def reverse_skyline_mask(
    points: np.ndarray,
    q: PointLike,
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Boolean reverse-skyline membership per point (no dominators of ``q``)."""
    return dominator_counts(points, q, use_numpy=use_numpy) == 0


def k_skyband_mask(
    points: np.ndarray,
    q: PointLike,
    k: int,
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Boolean reverse k-skyband membership (fewer than ``k`` dominators)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return dominator_counts(points, q, use_numpy=use_numpy) < k


def points_in_any_window(
    points: np.ndarray,
    windows: Sequence[Rect],
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Candidate-pruning mask: rows of *points* inside at least one window.

    This is the vectorized Lemma-2 filter: stacking the window bounds turns
    per-point containment into two broadcast comparisons.
    """
    points = np.asarray(points, dtype=np.float64)
    if not windows:
        return np.zeros(points.shape[0], dtype=bool)
    if _resolve(use_numpy):
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
    return np.array(
        [
            any(w.contains_point(points[i]) for w in windows)
            for i in range(points.shape[0])
        ],
        dtype=bool,
    )


# ---------------------------------------------------------------------------
# exact-PRSQ probability kernels (tensorized Eqs. (2) and (3))
# ---------------------------------------------------------------------------
def eq3_dominance_tensor(
    center_samples: np.ndarray,
    other_samples: np.ndarray,
    other_probabilities: np.ndarray,
    other_mask: np.ndarray,
    q: PointLike,
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Eq. (3) matrix: ``out[r, i] = Pr{other_r ≺_{center_i} q}``.

    Parameters
    ----------
    center_samples:
        ``(C, d)`` samples of the center object (unpadded).
    other_samples, other_probabilities, other_mask:
        ``(R, S, d)`` / ``(R, S)`` padded rows from a
        :class:`~repro.uncertain.tensor.DatasetTensor` gather.
    use_numpy:
        Broadcast path (chunked over ``R`` so the ``(C, chunk, S, d)``
        scratch stays bounded) vs. the scalar per-sample fallback.  Both
        run the same float comparisons and the same left-to-right masked
        sums, so their outputs are bit-identical.  One broadcast suits
        the few relevant rows of one center; a whole query's pairs go
        through :func:`eq2_segmented` instead.
    """
    center_samples = np.asarray(center_samples, dtype=np.float64)
    other_samples = np.asarray(other_samples, dtype=np.float64)
    other_probabilities = np.asarray(other_probabilities, dtype=np.float64)
    other_mask = np.asarray(other_mask, dtype=bool)
    c = center_samples.shape[0]
    r, s, d = other_samples.shape
    qq = as_point(q, dims=center_samples.shape[1])

    if not _resolve(use_numpy):
        out = np.zeros((r, c), dtype=np.float64)
        for j in range(r):
            valid = other_mask[j]
            samples = other_samples[j][valid]
            probs = other_probabilities[j][valid]
            for i in range(c):
                if samples.shape[0] == 0:
                    continue
                dominating = dominance_vector(samples, qq, center_samples[i])
                out[j, i] = masked_ordered_sum(probs, dominating)
        return out

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


def eq2_probability(
    center_probabilities: np.ndarray,
    eq3: np.ndarray,
    rows: Optional[Sequence[int]] = None,
) -> float:
    """Batched Eq. (2): ``sum_i p_i * prod_r (1 - eq3[r, i])``.

    The survival product runs row by row in the given order (``rows``
    restricts and orders it — the ``P − Γ`` evaluations), matching the
    scalar :func:`repro.prsq.probability.probability_from_matrix` loop
    factor for factor.  All-zero rows are skipped: they multiply by an
    exact ``1.0``, a floating-point no-op (Lemma 1's irrelevance argument
    in bit-exact form).
    """
    center_probabilities = np.asarray(center_probabilities, dtype=np.float64)
    eq3 = np.asarray(eq3, dtype=np.float64)
    survival = np.ones(center_probabilities.shape[0], dtype=np.float64)
    order = range(eq3.shape[0]) if rows is None else rows
    for j in order:
        row = eq3[j]
        if row.any():
            survival = survival * (1.0 - row)
    return ordered_dot(center_probabilities, survival)


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
    :func:`eq2_probability`; then the ordered dot with each center's
    probabilities, over its real samples.  Results are bit-identical to
    evaluating the centers one by one, and the Python call count is
    O(blocks), not O(pairs).
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
    use_numpy: Optional[bool] = None,
) -> np.ndarray:
    """Lemma-1 filter: can object ``r`` dominate ``q`` w.r.t. *any* center sample?

    ``out[r]`` is ``True`` iff some valid sample of ``other_r`` dynamically
    dominates ``q`` w.r.t. some row of *center_samples* — i.e. the object's
    Eq. (3) vector is non-zero.  Boolean-exact on both paths.
    """
    center_samples = np.asarray(center_samples, dtype=np.float64)
    other_samples = np.asarray(other_samples, dtype=np.float64)
    other_mask = np.asarray(other_mask, dtype=bool)
    c = center_samples.shape[0]
    r, s, d = other_samples.shape
    qq = as_point(q, dims=center_samples.shape[1])

    if not _resolve(use_numpy):
        out = np.zeros(r, dtype=bool)
        for j in range(r):
            samples = other_samples[j][other_mask[j]]
            if samples.shape[0] == 0:
                continue
            out[j] = any(
                dominance_vector(samples, qq, center_samples[i]).any()
                for i in range(c)
            )
        return out

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
    use_numpy: Optional[bool] = None,
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
    boolean-exact on both paths.
    """
    instantiated = np.asarray(instantiated, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, worlds, _ = instantiated.shape
    qq = as_point(q, dims=centers.shape[1])

    if not _resolve(use_numpy):
        hits = np.zeros(worlds, dtype=bool)
        for w in range(worlds):
            hits[w] = not dominance_vector(
                instantiated[:, w, :], qq, centers[w]
            ).any()
        return hits

    hits = np.empty(worlds, dtype=bool)
    for start in range(0, worlds, _WORLD_CHUNK):
        sl = slice(start, min(start + _WORLD_CHUNK, worlds))
        block_centers = centers[sl]  # (w, d)
        dp = np.abs(instantiated[:, sl, :] - block_centers[np.newaxis, :, :])
        dq = np.abs(qq - block_centers)[np.newaxis, :, :]
        hits[sl] = ~_dominance_block(dp, dq).any(axis=0)
    return hits
