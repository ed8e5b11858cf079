"""Reverse skyline queries on certain data (Definition 3, Dellis & Seeger).

Two implementations are provided:

* :func:`reverse_skyline_bruteforce` — the quadratic reference used as the
  ground truth in tests;
* :func:`reverse_skyline` — the reverse 1-skyband: one
  :func:`~repro.engine.kernels.dominator_counts` pass counts, for every
  point ``p``, the other points that dynamically dominate ``q`` w.r.t.
  ``p``, and ``p`` is a member iff its count is zero.

:func:`is_reverse_skyline` tests one object: one R-tree window query over
its dominance rectangle (Lemma 2's geometry specialized to certain data),
with the hits confirmed in one vectorized dominance test.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.geometry.point import PointLike
from repro.skyline.dynamic import q_in_dynamic_skyline
from repro.skyline.skyband import dominators_of_query, reverse_k_skyband
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
    return not dominators_of_query(dataset, oid, q)


def reverse_skyline(dataset: CertainDataset, q: PointLike) -> List[Hashable]:
    """Reverse skyline of ``q``: the reverse 1-skyband, in dataset order.

    Runs :func:`repro.skyline.skyband.reverse_k_skyband` with ``k = 1``,
    one :func:`~repro.engine.kernels.dominator_counts` pass over
    ``dataset.points``.
    """
    return reverse_k_skyband(dataset, q, 1)
