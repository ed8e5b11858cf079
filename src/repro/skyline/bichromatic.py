"""Bichromatic reverse skyline queries and their non-answer causality.

In the bichromatic setting (Wu et al. [42], surveyed by the paper) there
are two datasets: customers ``A`` and products ``B``.  A customer
``a ∈ A`` is in the bichromatic reverse skyline of a query product ``q``
when no *product* ``b ∈ B`` dynamically dominates ``q`` w.r.t. ``a`` —
i.e. q would be on customer a's dynamic skyline over the product catalog.

Causality for a non-answer customer mirrors Lemma 7, with the twist that
causes are drawn from the *product* dataset: every product dominating
``q`` w.r.t. the customer is an actual cause, sharing responsibility
``1 / |D|``.
"""

from __future__ import annotations

import time
from typing import Hashable, List

from repro.core.cr import confirm_dominators
from repro.core.model import Cause, CauseKind, CausalityResult
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dominance_rectangle, dynamically_dominates
from repro.geometry.point import PointLike, as_point
from repro.uncertain.dataset import CertainDataset


def product_dominators(
    customers: CertainDataset,
    products: CertainDataset,
    customer_id: Hashable,
    q: PointLike,
) -> List[Hashable]:
    """Products that dynamically dominate ``q`` w.r.t. *customer_id*."""
    center = customers.point_of(customer_id)
    qq = as_point(q, dims=customers.dims)
    if products.dims != customers.dims:
        raise ValueError(
            f"customers have {customers.dims} dims, products {products.dims}"
        )
    window = dominance_rectangle(center, qq)
    pool = products.packed.range_search(window)
    # Products are another dataset: none is excluded, so one co-located
    # with the customer dominates q unless q is that very point.
    return confirm_dominators(products, pool, None, qq, center)


def bichromatic_reverse_skyline(
    customers: CertainDataset,
    products: CertainDataset,
    q: PointLike,
) -> List[Hashable]:
    """Customers for which no product dominates ``q`` w.r.t. them.

    All customers' window queries over the product index run as one
    batched multi-window pass; membership and node accounting match a
    per-customer :func:`product_dominators` loop exactly.
    """
    qq = as_point(q, dims=customers.dims)
    if products.dims != customers.dims:
        raise ValueError(
            f"customers have {customers.dims} dims, products {products.dims}"
        )
    centers = [customer.samples[0] for customer in customers]
    windows = [dominance_rectangle(center, qq) for center in centers]
    hits_per = products.packed.range_search_many(windows)
    members: List[Hashable] = []
    for customer, center, hits in zip(customers, centers, hits_per):
        if not any(
            dynamically_dominates(products.points[row], qq, center)
            for row in hits.tolist()
        ):
            members.append(customer.oid)
    return members


def compute_causality_bichromatic(
    customers: CertainDataset,
    products: CertainDataset,
    customer_id: Hashable,
    q: PointLike,
) -> CausalityResult:
    """Causality for a customer missing from the bichromatic reverse skyline.

    One window query over the *product* R-tree; every dominating product is
    an actual cause with responsibility ``1 / |D|`` (Lemma 7 transplanted
    to the bichromatic setting).
    """
    started = time.perf_counter()
    with products.access_stats.measure() as snapshot:
        dominators = product_dominators(customers, products, customer_id, q)

    if not dominators:
        raise NotANonAnswerError(
            f"customer {customer_id!r} is in the bichromatic reverse skyline of q"
        )

    result = CausalityResult(an_oid=customer_id, alpha=None)
    total = len(dominators)
    for oid in dominators:
        gamma = frozenset(d for d in dominators if d != oid)
        result.add(
            Cause(
                oid=oid,
                responsibility=1.0 / total,
                contingency_set=gamma,
                kind=CauseKind.COUNTERFACTUAL if total == 1 else CauseKind.ACTUAL,
            )
        )
    result.stats.node_accesses = snapshot.node_accesses
    result.stats.cpu_time_s = time.perf_counter() - started
    result.stats.candidates = total
    return result
