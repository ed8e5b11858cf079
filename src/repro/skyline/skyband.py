"""Reverse k-skyband queries and their non-answer causality.

The reverse k-skyband (Gao et al. [19], one of the variant queries the
paper surveys) relaxes the reverse skyline: an object ``p`` belongs to the
reverse k-skyband of ``q`` when *fewer than k* objects dynamically
dominate ``q`` w.r.t. ``p``; ``k = 1`` is exactly the reverse skyline.

Causality generalizes Lemma 7 cleanly.  For a non-answer ``an`` with
dominator set ``D`` (``|D| = m >= k``):

* every ``d ∈ D`` is an actual cause — remove any other ``m - k`` of them
  and ``d``'s removal brings the count from ``k`` to ``k - 1``;
* nothing outside ``D`` is a cause (it cannot change the count);
* the minimal contingency set has exactly ``m - k`` elements, so every
  cause has responsibility ``1 / (m - k + 1)``.
"""

from __future__ import annotations

import time
from typing import Hashable, List

from repro.core.cr import confirm_dominators
from repro.core.model import Cause, CauseKind, CausalityResult
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dominance_rectangle
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.uncertain.dataset import CertainDataset


def dominators_of_query(
    dataset: CertainDataset,
    oid: Hashable,
    q: PointLike,
) -> List[Hashable]:
    """Objects that dynamically dominate ``q`` w.r.t. object *oid*.

    The hits of one window query are confirmed in one vectorized
    :func:`~repro.core.cr.confirm_dominators` call, ``repr``-sorted.
    """
    an_point = dataset.point_of(oid)
    qq = as_point(q, dims=dataset.dims)
    window = dominance_rectangle(an_point, qq)
    pool = dataset.packed.range_search(window)
    return confirm_dominators(dataset, pool, oid, qq, an_point)


def is_reverse_k_skyband(
    dataset: CertainDataset, oid: Hashable, q: PointLike, k: int
) -> bool:
    """Membership test: fewer than *k* dominators of ``q`` w.r.t. *oid*."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(dominators_of_query(dataset, oid, q)) < k


def reverse_k_skyband(
    dataset: CertainDataset, q: PointLike, k: int
) -> List[Hashable]:
    """The reverse k-skyband of ``q`` (``k = 1`` is the reverse skyline).

    One :func:`~repro.engine.kernels.dominator_counts` pass over
    ``dataset.points`` counts every object's dominators at once; members
    come back in dataset order.  No index is read.
    """
    from repro.engine.kernels import dominator_counts

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = dominator_counts(dataset.points, as_point(q, dims=dataset.dims))
    return [
        oid for oid, count in zip(dataset.ids(), counts.tolist()) if count < k
    ]


def compute_causality_k_skyband(
    dataset: CertainDataset,
    an_oid: Hashable,
    q: PointLike,
    k: int,
) -> CausalityResult:
    """Causality & responsibility for a reverse k-skyband non-answer.

    Extends algorithm CR beyond the paper (its future-work direction of
    applying CRP to other queries): one window query finds the dominator
    set ``D``; every member is an actual cause with responsibility
    ``1 / (|D| - k + 1)`` and a minimal contingency witness of ``|D| - k``
    other dominators.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    started = time.perf_counter()

    with _span("filter", k=k) as filter_span:
        with dataset.access_stats.measure() as snapshot:
            dominators = dominators_of_query(dataset, an_oid, q)
        filter_span.set(dominators=len(dominators))

    m = len(dominators)
    if m < k:
        raise NotANonAnswerError(
            f"object {an_oid!r} has only {m} dominator(s); it is in the "
            f"reverse {k}-skyband of q"
        )

    result = CausalityResult(an_oid=an_oid, alpha=None)
    need = m - k  # minimal contingency size
    # Shared-witness construction (O(m) instead of O(m^2)): the first
    # `need` dominators witness every cause outside that prefix; causes
    # inside it swap themselves for the next dominator.
    head = dominators[: need + 1]
    shared_witness = frozenset(head[:need])
    with _span("refine", candidates=m):
        for oid in dominators:
            if need == 0:
                witness = frozenset()
            elif oid in shared_witness:
                witness = frozenset(d for d in head if d != oid)
            else:
                witness = shared_witness
            result.add(
                Cause(
                    oid=oid,
                    responsibility=1.0 / (need + 1),
                    contingency_set=witness,
                    kind=(
                        CauseKind.COUNTERFACTUAL
                        if need == 0
                        else CauseKind.ACTUAL
                    ),
                )
            )

    result.stats.node_accesses = snapshot.node_accesses
    result.stats.cpu_time_s = time.perf_counter() - started
    result.stats.candidates = m
    return result
