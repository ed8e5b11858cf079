"""Filter step: candidate cause discovery (Lemmas 1 and 2).

Lemma 1 says only objects that can dynamically dominate ``q`` w.r.t. the
non-answer in *some* possible world can be causes; Lemma 2 turns that into
geometry — such an object must place a sample inside one of the dominance
hyper-rectangles of the non-answer's samples.  The filter is therefore a
multi-window R-tree scan followed by an exact per-sample confirmation.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

import numpy as np

from repro.geometry.dominance import (
    dominance_rectangle,
    dominance_vector,
)
from repro.geometry.point import PointLike, as_point
from repro.geometry.rectangle import Rect
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject


def filter_rectangles(an: UncertainObject, q: PointLike) -> List[Rect]:
    """The Lemma-2 rectangle list ``RecList``: one per sample of *an*."""
    qq = as_point(q, dims=an.dims)
    return [
        dominance_rectangle(an.samples[i], qq) for i in range(an.num_samples)
    ]


def can_influence(candidate: UncertainObject, an: UncertainObject, q: PointLike) -> bool:
    """Exact Lemma-1 test: some sample of *candidate* dominates ``q`` w.r.t.
    some sample of *an* (equivalently, its Eq. (3) vector is non-zero)."""
    qq = as_point(q, dims=an.dims)
    for i in range(an.num_samples):
        if dominance_vector(candidate.samples, qq, an.samples[i]).any():
            return True
    return False


def find_candidate_causes(
    dataset: UncertainDataset,
    an_oid: Hashable,
    q: PointLike,
    use_index: bool = True,
    windows: Sequence[Rect] | None = None,
) -> List[Hashable]:
    """Candidate cause ids for the non-answer *an_oid* (filter step of CP).

    Parameters
    ----------
    use_index:
        When true (the CP configuration), traverse the dataset R-tree in a
        branch-and-bound manner over the rectangle list (Algorithm 1 lines
        1-8) with the packed level-frontier kernels
        (:class:`repro.index.packed.PackedRTree`).  When false, linearly
        scan the dataset — the ablation baseline with :math:`O(|P|^2)`
        filtering cost discussed under Lemma 1.
    windows:
        Override the rectangle list (the pdf model supplies region-derived
        rectangles instead of per-sample ones).

    The survivors are confirmed with one batched Lemma-1 kernel call
    (:func:`repro.engine.kernels.influence_mask`), boolean-exact against
    the per-object :func:`can_influence` reference.
    """
    from repro.engine.kernels import influence_mask

    an = dataset.get(an_oid)
    qq = as_point(q, dims=dataset.dims)
    if windows is None:
        windows = filter_rectangles(an, qq)
    windows = list(windows)

    if use_index:
        # Ascending dataset positions, so traversal order can never leak
        # into result bits.
        pool_indices = dataset.window_positions(
            windows, exclude=dataset.index_of(an_oid)
        )
        # Sample-level Lemma-2 pre-confirm of the MBR-level R-tree hits:
        # it cannot change the confirmed set (the rectangles are a complete
        # filter), only skip exact confirmations, so CP's output and node
        # accesses are untouched.  Pool order is dataset order.
        objects = dataset.objects()
        pool = _sample_level_prefilter(
            [objects[i] for i in pool_indices.tolist()], windows
        )
    else:
        # The documented ablation baseline: a plain linear scan with exact
        # per-object confirmation and O(|P|^2) filtering cost — keep it
        # free of any pruning so use_index on/off comparisons stay honest.
        pool = dataset.others(an_oid)

    if not pool:
        return []
    tensor = dataset.tensor
    indices = [tensor.index_of[obj.oid] for obj in pool]
    samples, _, mask = tensor.rows(indices)
    influencing = influence_mask(an.samples, samples, mask, qq)
    confirmed = [obj.oid for obj, hit in zip(pool, influencing) if hit]
    return sorted(confirmed, key=repr)


def _sample_level_prefilter(
    pool: List[UncertainObject], windows: List[Rect]
) -> List[UncertainObject]:
    """Drop pool objects with no sample inside any Lemma-2 rectangle.

    One batched kernel call over the concatenated sample matrices — the
    window bounds are stacked once, not per object.
    """
    if not pool or not windows:
        return pool
    # Imported lazily: repro.core must stay importable without pulling the
    # engine package in at module-import time (engine itself imports core).
    from repro.engine.kernels import points_in_any_window

    samples = np.concatenate([obj.samples for obj in pool])
    inside = points_in_any_window(samples, windows)
    kept: List[UncertainObject] = []
    start = 0
    for obj in pool:
        stop = start + obj.num_samples
        if inside[start:stop].any():
            kept.append(obj)
        start = stop
    return kept
