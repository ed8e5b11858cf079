"""Dominance relations.

Two flavours of dominance appear in the paper:

* **Classic dominance** (smaller-is-better): ``a`` dominates ``b`` when
  ``a[i] <= b[i]`` in every dimension with at least one strict inequality.
  This underlies the static skyline operator.

* **Dynamic dominance** (Definition 3 / Papadias et al. [35]): ``p1``
  dominates ``p2`` *with respect to* ``p3`` when
  ``|p1[i] - p3[i]| <= |p2[i] - p3[i]|`` in every dimension, strictly in at
  least one.  Reverse skylines, PRSQ probabilities, and every lemma of the
  paper are phrased in terms of dynamic dominance.

The module also builds the *dominance rectangle* of Lemma 2: the set of
locations that could dynamically dominate the query point ``q`` w.r.t. a
sample ``s`` is exactly the hyper-rectangle centred at ``s`` whose
half-extent in dimension ``i`` is ``|q[i] - s[i]|``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import PointLike, as_point
from repro.geometry.rectangle import Rect


def dominates(a: PointLike, b: PointLike) -> bool:
    """Classic (minimising) dominance: ``a`` dominates ``b``."""
    pa, pb = as_point(a), as_point(b)
    return bool(np.all(pa <= pb) and np.any(pa < pb))


def strictly_dominates(a: PointLike, b: PointLike) -> bool:
    """``a`` beats ``b`` strictly in every dimension."""
    pa, pb = as_point(a), as_point(b)
    return bool(np.all(pa < pb))


def dynamically_dominates(p1: PointLike, p2: PointLike, center: PointLike) -> bool:
    """Dynamic dominance ``p1 ≺_center p2`` (Definition 3).

    ``p1`` dominates ``p2`` w.r.t. ``center`` iff p1 is coordinate-wise at
    least as close to ``center`` as ``p2``, and strictly closer in at least
    one dimension.
    """
    d1 = np.abs(as_point(p1) - as_point(center))
    d2 = np.abs(as_point(p2) - as_point(center))
    return bool(np.all(d1 <= d2) and np.any(d1 < d2))


def dominance_vector(points: np.ndarray, target: PointLike, center: PointLike) -> np.ndarray:
    """Vectorized dynamic dominance of many *points* over *target* w.r.t. *center*.

    Parameters
    ----------
    points:
        ``(n, d)`` matrix of candidate dominators.
    target:
        the point being dominated (the query object ``q`` in the paper).
    center:
        the reference sample the distances are measured against.

    Returns
    -------
    numpy.ndarray
        Boolean vector of length ``n``; entry ``k`` is ``True`` iff
        ``points[k] ≺_center target``.
    """
    c = as_point(center)
    dt = np.abs(as_point(target) - c)
    dp = np.abs(points - c)
    return np.logical_and((dp <= dt).all(axis=1), (dp < dt).any(axis=1))


def _widen(s: np.ndarray, h: np.ndarray, bound: np.ndarray, toward: float) -> np.ndarray:
    outward = np.minimum if toward < 0 else np.maximum
    step = h.copy()
    while True:
        probe = np.nextafter(bound, toward)
        bad = np.abs(probe - s) <= h
        if not bad.any():
            return bound
        # One float outward is the minimal widening; if the float after that
        # still passes, the gap is large relative to ulp(bound) (bounds near
        # zero from same-magnitude s and h), so jump in units of one h-ulp.
        new = np.where(bad, probe, bound)
        probe2 = np.nextafter(new, toward)
        still = bad & (np.abs(probe2 - s) <= h)
        if still.any():
            step = np.where(still, np.nextafter(step, np.inf), step)
            jump = s - step if toward < 0 else s + step
            new = np.where(still, outward(jump, probe2), new)
        bound = new


def dominance_rectangle(sample: PointLike, q: PointLike) -> Rect:
    """The Lemma-2 hyper-rectangle of locations that can dominate ``q`` w.r.t. *sample*.

    Centred at *sample* with per-dimension half-extent ``|q[i] - sample[i]|``.
    A point strictly inside it (or on its boundary but not maximally distant
    in every dimension) dynamically dominates ``q`` w.r.t. *sample*; the
    rectangle is therefore a complete, slightly-loose filter whose hits are
    confirmed with :func:`dynamically_dominates`.  Bounds are widened by at
    most a few ulps where float rounding would otherwise exclude boundary
    points that pass the dominance comparison.
    """
    s = as_point(sample)
    lo, hi = dominance_bounds(s[np.newaxis, :], q)
    return Rect(lo[0], hi[0])


def dominance_bounds(samples: np.ndarray, q: PointLike) -> tuple:
    """``(lo, hi)`` of every row's :func:`dominance_rectangle`, in one pass.

    *samples* is an ``(m, d)`` matrix; row ``i`` of the returned bounds
    covers every float ``p`` with ``|p - s| <= |q - s|`` for ``s =
    samples[i]``.  The naive bounds ``s ∓ h`` round to nearest, which can
    land strictly inside that set (e.g. ``s=1, q=2.22e-16``: the point
    ``p=2.22e-16`` ties ``q``'s distance after rounding yet falls below
    ``fl(s - h)``).  Because ``|fl(p - s)|`` is monotone in ``p`` on either
    side of ``s``, probing one float past each bound is an exact
    completeness check; unsound bounds are stepped outward in units of one
    ``h``-ulp until the probe fails.  Sound bounds are returned untouched,
    so exact cases (and degenerate ``h = 0`` rectangles) keep their naive
    values.  The widening is elementwise, so widening all rows together
    moves no bound.
    """
    s = np.asarray(samples, dtype=np.float64)
    h = np.abs(as_point(q, dims=s.shape[1]) - s)
    lo = s - h
    hi = s + h
    # A row with an infinite or overflowing bound keeps its naive bounds:
    # an infinite-extent side already covers every passing point, and
    # ulp-stepping from +/-inf would never terminate.
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    if finite.all():
        return _widen(s, h, lo, -np.inf), _widen(s, h, hi, np.inf)
    if finite.any():
        lo[finite] = _widen(s[finite], h[finite], lo[finite], -np.inf)
        hi[finite] = _widen(s[finite], h[finite], hi[finite], np.inf)
    return lo, hi


def dominated_by_any(points: np.ndarray, target: PointLike, center: PointLike) -> bool:
    """``True`` iff any row of *points* dynamically dominates *target* w.r.t. *center*."""
    if points.shape[0] == 0:
        return False
    return bool(dominance_vector(points, target, center).any())
