"""Reverse skyline queries on certain data (Definition 3, Dellis & Seeger).

Two implementations are provided:

* :func:`reverse_skyline_bruteforce` — the quadratic reference used as the
  ground truth in tests;
* :func:`reverse_skyline` — the index-assisted algorithm: a point ``p`` is
  in the reverse skyline of ``q`` iff the dominance rectangle of ``p``
  (Lemma 2's geometry specialized to certain data) contains no other point
  that dynamically dominates ``q`` w.r.t. ``p``, which one R-tree window
  query per point answers — all of them in one batched pass.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.geometry.dominance import dominance_rectangle, dynamically_dominates
from repro.geometry.point import PointLike, as_point
from repro.skyline.dynamic import q_in_dynamic_skyline
from repro.uncertain.dataset import CertainDataset


def is_reverse_skyline_bruteforce(
    dataset: CertainDataset, oid: Hashable, q: PointLike
) -> bool:
    """Linear-scan membership test: does *oid* take ``q`` in its dynamic skyline?"""
    center = dataset.point_of(oid)
    others = [obj.samples[0] for obj in dataset.others(oid)]
    return q_in_dynamic_skyline(others, center, q)


def reverse_skyline_bruteforce(dataset: CertainDataset, q: PointLike) -> List[Hashable]:
    """Reverse skyline of ``q`` by the quadratic reference algorithm."""
    return [
        obj.oid
        for obj in dataset
        if is_reverse_skyline_bruteforce(dataset, obj.oid, q)
    ]


def is_reverse_skyline(dataset: CertainDataset, oid: Hashable, q: PointLike) -> bool:
    """Index-assisted membership test (one window query on the dataset R-tree)."""
    center = dataset.point_of(oid)
    qq = as_point(q, dims=dataset.dims)
    window = dominance_rectangle(center, qq)
    for hit_oid in dataset.spatial_index().range_search(window):
        if hit_oid == oid:
            continue
        if dynamically_dominates(dataset.point_of(hit_oid), qq, center):
            return False
    return True


def reverse_skyline(dataset: CertainDataset, q: PointLike) -> List[Hashable]:
    """Reverse skyline of ``q`` using the dataset R-tree.

    All per-object window queries run as one batched multi-window pass
    over the packed index — the reverse skyline is exactly the reverse
    1-skyband, so the batched traversal lives in
    :func:`repro.skyline.skyband.reverse_k_skyband`.  The membership set,
    its order (dataset order) and the node-access accounting are identical
    to a per-object :func:`is_reverse_skyline` loop.
    """
    from repro.skyline.skyband import reverse_k_skyband

    return reverse_k_skyband(dataset, q, 1)
