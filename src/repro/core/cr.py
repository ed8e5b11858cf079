"""Algorithm CR — causality & responsibility for CRPRSQ (Section 4).

On certain data, Lemma 7 collapses the whole refinement step: every object
that dynamically dominates ``q`` w.r.t. the non-answer is an actual cause,
its minimal contingency set is all the *other* such objects, and therefore
every cause shares responsibility ``1/|C_c|`` (Equation (4)).  CR is a
single window query on the dataset R-tree followed by exact dominance
confirmation — time complexity ``O(|R_P|)``.
"""

from __future__ import annotations

import time
from typing import Hashable, List, Optional

import numpy as np

from repro.core.model import Cause, CauseKind, CausalityResult
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dominance_rectangle
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.uncertain.dataset import CertainDataset


def confirm_dominators(
    dataset: CertainDataset,
    hits: np.ndarray,
    an_oid: Optional[Hashable],
    qq: np.ndarray,
    an_point: np.ndarray,
) -> List[Hashable]:
    """Window-query hits that really dominate ``q`` w.r.t. ``an_point``.

    *hits* are dataset positions, as the index answers them.  One batched
    :func:`repro.engine.kernels.dominance_mask` call over those rows of
    ``dataset.points``; the confirmed ids come back sorted for
    deterministic output.  *an_oid*, the object at ``an_point``, is left
    out (its dominators come from P - {an}); ``None`` keeps every hit,
    for hits drawn from another dataset (the bichromatic products).
    """
    from repro.engine.kernels import dominance_mask

    if an_oid is not None:
        hits = hits[hits != dataset.index_of(an_oid)]
    if not hits.size:
        return []
    dominating = dominance_mask(dataset.points[hits], qq, an_point)
    ids = dataset.tensor.ids
    return sorted((ids[row] for row in hits[dominating].tolist()), key=repr)


def compute_causality_certain(
    dataset: CertainDataset,
    an_oid: Hashable,
    q: PointLike,
) -> CausalityResult:
    """Run algorithm CR for the non-reverse-skyline object *an_oid*.

    Candidates come from one window query on the dataset's packed R-tree,
    confirmed by :func:`confirm_dominators`.

    Raises
    ------
    repro.exceptions.NotANonAnswerError
        If nothing dominates ``q`` w.r.t. *an_oid* — then *an_oid* is in the
        reverse skyline and has no non-answer causality.
    """
    started = time.perf_counter()
    an_point = dataset.point_of(an_oid)
    qq = as_point(q, dims=dataset.dims)
    window = dominance_rectangle(an_point, qq)

    with dataset.access_stats.measure() as snapshot:
        with _span("filter") as filter_span:
            hits = dataset.packed.range_search(window)
            candidates = confirm_dominators(dataset, hits, an_oid, qq, an_point)
            filter_span.set(hits=len(hits), candidates=len(candidates))

    if not candidates:
        raise NotANonAnswerError(
            f"object {an_oid!r} is a reverse skyline object of q; "
            "no non-answer causality to compute"
        )

    result = CausalityResult(an_oid=an_oid, alpha=None)
    total = len(candidates)
    with _span("refine", candidates=total):
        for oid in candidates:  # Lemma 7 / Equation (4)
            gamma = frozenset(c for c in candidates if c != oid)
            result.add(
                Cause(
                    oid=oid,
                    responsibility=1.0 / total,
                    contingency_set=gamma,
                    kind=(
                        CauseKind.COUNTERFACTUAL
                        if total == 1
                        else CauseKind.ACTUAL
                    ),
                )
            )

    result.stats.node_accesses = snapshot.node_accesses
    result.stats.cpu_time_s = time.perf_counter() - started
    result.stats.candidates = total
    return result
