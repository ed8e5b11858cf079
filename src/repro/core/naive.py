"""Baselines: Naive-I, Naive-II, and a Definition-1 brute-force oracle.

* **Naive-I** (Sec. 5.3): finds candidate causes exactly like CP, then
  refines each by plain ascending-cardinality enumeration over all subsets
  of the candidate set — no Γ₁ forcing, no counterfactual exclusion, no
  Lemma-6 reuse.  Same I/O as CP, strictly more CPU.
* **Naive-II** (Sec. 5.4): certain-data analogue — window-query filter,
  then per-candidate subset-enumeration verification instead of Lemma 7.
* **brute_force_causality**: the semantics itself, straight from
  Definition 1 — enumerate every subset of ``P`` as a potential contingency
  set.  Exponential in ``|P|``; the ground truth for correctness tests.
"""

from __future__ import annotations

import itertools
import time
from typing import Hashable, Optional

from repro.core.cp import CPConfig, compute_causality
from repro.core.cr import confirm_dominators
from repro.core.model import Cause, CauseKind, CausalityResult
from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dominance_rectangle
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.prsq.probability import (
    dominance_probability_matrix,
    probability_from_matrix,
)
from repro.uncertain.dataset import CertainDataset, UncertainDataset

MAX_NAIVE_CANDIDATES = 24


def naive_i(
    dataset: UncertainDataset,
    an_oid: Hashable,
    q: PointLike,
    alpha: float,
) -> CausalityResult:
    """Naive-I: CP's filter with lemma-free subset-enumeration refinement."""
    return compute_causality(
        dataset, an_oid, q, alpha, config=CPConfig.naive_refinement()
    )


def naive_ii(
    dataset: CertainDataset,
    an_oid: Hashable,
    q: PointLike,
    max_candidates: int = MAX_NAIVE_CANDIDATES,
) -> CausalityResult:
    """Naive-II: window-query filter + per-candidate subset verification.

    Produces the same causality as algorithm CR (Lemma 7 guarantees it)
    while paying :math:`O(|C_c| \\cdot 2^{|C_c|})` verification work.
    *max_candidates* guards against accidentally exponential invocations.
    """
    started = time.perf_counter()
    an_point = dataset.point_of(an_oid)
    qq = as_point(q, dims=dataset.dims)
    window = dominance_rectangle(an_point, qq)

    with dataset.access_stats.measure() as snapshot:
        with _span("filter") as filter_span:
            hits = dataset.packed.range_search(window)
            candidates = confirm_dominators(dataset, hits, an_oid, qq, an_point)
            filter_span.set(candidates=len(candidates))

    if not candidates:
        raise NotANonAnswerError(
            f"object {an_oid!r} is a reverse skyline object of q"
        )
    if len(candidates) > max_candidates:
        raise ValueError(
            f"Naive-II would enumerate 2^{len(candidates)} subsets; "
            f"cap is {max_candidates} candidates"
        )

    candidate_set = set(candidates)

    def an_in_rsq_without(removed: frozenset) -> bool:
        # an is a reverse skyline object of q over P - removed iff no
        # remaining object dominates q w.r.t. an; only candidates can.
        return candidate_set <= removed

    result = CausalityResult(an_oid=an_oid, alpha=None)
    subsets = 0
    with _span("refine", candidates=len(candidates)) as refine_span:
        for cc in candidates:
            others = [oid for oid in candidates if oid != cc]
            found = None
            for size in range(len(others) + 1):
                for combo in itertools.combinations(others, size):
                    subsets += 1
                    gamma = frozenset(combo)
                    if not an_in_rsq_without(gamma) and an_in_rsq_without(
                        gamma | {cc}
                    ):
                        found = gamma
                        break
                if found is not None:
                    break
            if found is not None:
                result.add(
                    Cause(
                        oid=cc,
                        responsibility=1.0 / (1.0 + len(found)),
                        contingency_set=found,
                        kind=(
                            CauseKind.COUNTERFACTUAL
                            if not found
                            else CauseKind.ACTUAL
                        ),
                    )
                )
        refine_span.set(subsets_examined=subsets)

    result.stats.node_accesses = snapshot.node_accesses
    result.stats.cpu_time_s = time.perf_counter() - started
    result.stats.candidates = len(candidates)
    result.stats.subsets_examined = subsets
    return result


def brute_force_causality(
    dataset: UncertainDataset,
    an_oid: Hashable,
    q: PointLike,
    alpha: float,
    max_objects: int = 14,
) -> CausalityResult:
    """Definition 1 applied literally: enumerate all ``Γ ⊆ P``.

    Probabilities are evaluated analytically (Eq. (2)) by the scalar
    reference helpers of :mod:`repro.prsq.probability`, without any index,
    lemma or tensor kernel, so this shares *no* optimized code path with
    CP — it is the independent ground truth the test suite compares CP and
    Naive-I against.
    Certain datasets work unchanged (alpha is then irrelevant as
    probabilities are 0/1; pass any threshold in ``(0, 1]``).
    """
    if len(dataset) > max_objects:
        raise ValueError(
            f"brute force over {len(dataset)} objects would enumerate "
            f"2^{len(dataset) - 1} subsets per object; cap is {max_objects}"
        )
    qq = as_point(q, dims=dataset.dims)
    target = dataset.get(an_oid)

    def pr_without(removed: frozenset) -> float:
        # Every other object outside Γ, in dataset order: the canonical
        # Eq. (2) product order the optimized paths also use.
        others = [
            obj for obj in dataset
            if obj.oid != an_oid and obj.oid not in removed
        ]
        matrix = dominance_probability_matrix(target, others, qq)
        return probability_from_matrix(target, matrix)

    if pr_without(frozenset()) >= alpha:
        raise NotANonAnswerError(f"object {an_oid!r} is an answer at alpha={alpha}")

    result = CausalityResult(an_oid=an_oid, alpha=alpha)
    others = [oid for oid in dataset.ids() if oid != an_oid]
    for p in others:
        rest = [oid for oid in others if oid != p]
        found: Optional[frozenset] = None
        for size in range(len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                gamma = frozenset(combo)
                if pr_without(gamma) < alpha <= pr_without(gamma | {p}):
                    found = gamma
                    break
            if found is not None:
                break
        if found is not None:
            result.add(
                Cause(
                    oid=p,
                    responsibility=1.0 / (1.0 + len(found)),
                    contingency_set=found,
                    kind=(
                        CauseKind.COUNTERFACTUAL if not found else CauseKind.ACTUAL
                    ),
                )
            )
    return result
