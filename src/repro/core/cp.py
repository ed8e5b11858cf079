"""Algorithm CP — causality & responsibility for CR2PRSQ (Algorithm 1).

CP follows the paper's filter-and-refinement framework:

1. **Filter** (lines 1-8): build the Lemma-2 rectangle list from the
   non-answer's samples and collect candidate causes with one
   branch-and-bound R-tree traversal.
2. **Refine** (lines 9-24): peel off the ``α = 1`` shortcut, the must-
   include set ``Γ₁`` (Lemma 4) and the counterfactual causes (Lemma 5),
   then verify each remaining candidate with FMCS (Algorithm 2), reusing
   found sets across candidates via Lemma 6.

Every pruning strategy can be disabled individually through
:class:`CPConfig` for the ablation benchmarks; all configurations produce
identical causality output (property-tested), differing only in cost.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import find_candidate_causes
from repro.core.fmcs import find_minimal_contingency_set
from repro.core.lemmas import lemma6_propagate
from repro.core.model import Cause, CauseKind, CausalityResult
from repro.geometry.point import PointLike, as_point
from repro.obs import span as _span
from repro.geometry.rectangle import Rect
from repro.prsq.oracle import MembershipOracle
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.pdf import ContinuousUncertainObject


@dataclass(frozen=True)
class CPConfig:
    """Strategy switches for algorithm CP (all on = the paper's CP)."""

    use_index: bool = True        # Lemma 2 R-tree filter vs linear scan
    use_lemma4: bool = True       # force Γ₁ into every trial set
    use_lemma5: bool = True       # exclude counterfactuals from pools
    use_lemma6: bool = True       # propagate found sets to pending candidates
    use_bound_prune: bool = True  # size-level survival-product bound (ours)

    @classmethod
    def naive_refinement(cls) -> "CPConfig":
        """The Naive-I refinement: plain subset enumeration, no lemmas."""
        return cls(use_index=True, use_lemma4=False, use_lemma5=False,
                   use_lemma6=False, use_bound_prune=False)


def compute_causality(
    dataset: UncertainDataset,
    an_oid: Hashable,
    q: PointLike,
    alpha: float,
    config: CPConfig = CPConfig(),
    windows: Optional[Sequence[Rect]] = None,
) -> CausalityResult:
    """Run algorithm CP for the non-answer *an_oid*.

    Parameters
    ----------
    dataset:
        The uncertain dataset ``P`` (R-tree built lazily on first use).
    an_oid:
        Id of the designated non-probabilistic-reverse-skyline object.
    q:
        The (certain) query object.
    alpha:
        Probability threshold in ``(0, 1]``.
    config:
        Strategy switches; defaults to full CP.
    windows:
        Optional override of the filter rectangles (used by the pdf-model
        front-end); defaults to the discrete per-sample rectangles.

    Returns
    -------
    CausalityResult
        All actual causes with responsibilities, one minimal-contingency
        witness each, and cost counters.

    Raises
    ------
    repro.exceptions.NotANonAnswerError
        If *an_oid* is actually an answer at this ``alpha``.
    """
    started = time.perf_counter()
    qq = as_point(q, dims=dataset.dims)

    access_ctx = (
        dataset.access_stats.measure() if config.use_index else nullcontext()
    )
    with access_ctx as snapshot:
        with _span("filter", use_index=config.use_index) as filter_span:
            candidate_ids = find_candidate_causes(
                dataset,
                an_oid,
                qq,
                use_index=config.use_index,
                windows=windows,
            )
            filter_span.set(candidates=len(candidate_ids))
        with _span("refine", alpha=alpha) as refine_span:
            oracle = MembershipOracle(
                dataset, an_oid, qq, alpha, relevant_ids=candidate_ids
            )
            oracle.validate_non_answer()
            result = _refine(oracle, config)
            refine_span.set(
                causes=len(result.causes),
                oracle_evaluations=oracle.evaluations,
            )

    result.stats.node_accesses = snapshot.node_accesses if snapshot else 0
    result.stats.cpu_time_s = time.perf_counter() - started
    result.stats.candidates = len(oracle.influencer_ids)
    result.stats.oracle_evaluations = oracle.evaluations
    return result


def _refine(oracle: MembershipOracle, config: CPConfig) -> CausalityResult:
    """Refinement step (Algorithm 1 lines 9-24)."""
    alpha = oracle.alpha
    candidates: List[Hashable] = list(oracle.influencer_ids)
    result = CausalityResult(an_oid=oracle.an_oid, alpha=alpha)

    # α = 1 shortcut (lines 9-11): an is an answer only when *no* candidate
    # survives, so every candidate is a cause whose minimal contingency set
    # is all the other candidates.
    if alpha == 1.0:
        for oid in candidates:
            gamma = frozenset(c for c in candidates if c != oid)
            result.add(
                Cause(
                    oid=oid,
                    responsibility=1.0 / len(candidates),
                    contingency_set=gamma,
                    kind=(
                        CauseKind.COUNTERFACTUAL
                        if not gamma
                        else CauseKind.ACTUAL
                    ),
                )
            )
        return result

    # Lemma 4: Γ₁ — objects that every qualifying contingency set contains.
    gamma1: FrozenSet[Hashable] = (
        frozenset(oracle.certain_blockers()) if config.use_lemma4 else frozenset()
    )

    # Lemma 5 / lines 16-17: counterfactual causes, responsibility 1.
    counterfactuals = {
        oid for oid in candidates if oracle.is_answer({oid})
    }
    for oid in sorted(counterfactuals, key=repr):
        result.add(
            Cause(
                oid=oid,
                responsibility=1.0,
                contingency_set=frozenset(),
                kind=CauseKind.COUNTERFACTUAL,
            )
        )

    pending = [oid for oid in candidates if oid not in counterfactuals]
    # Lemma 6 state: candidate -> (achievable bound, witness set).
    bounds: Dict[Hashable, Tuple[int, FrozenSet[Hashable]]] = {}

    for position, cc in enumerate(pending):
        forced = gamma1 - {cc}
        excluded = set(forced) | {cc}
        if config.use_lemma5:
            excluded |= counterfactuals
        pool = [oid for oid in candidates if oid not in excluded]

        bound_entry = bounds.get(cc) if config.use_lemma6 else None
        known_bound = bound_entry[0] if bound_entry is not None else None

        outcome = find_minimal_contingency_set(
            oracle,
            cc,
            pool,
            gamma1=forced,
            known_bound=known_bound,
            use_bound_prune=config.use_bound_prune,
        )
        result.stats.subsets_examined += outcome.subsets_examined

        if outcome.gamma is not None:
            gamma = outcome.gamma
        elif bound_entry is not None:
            # Lines 23-24: nothing smaller exists, the Lemma-6 witness is
            # minimal.
            gamma = bound_entry[1]
        else:
            continue  # not an actual cause

        result.add(
            Cause(
                oid=cc,
                responsibility=1.0 / (1.0 + len(gamma)),
                contingency_set=gamma,
                kind=CauseKind.ACTUAL if gamma else CauseKind.COUNTERFACTUAL,
            )
        )

        if config.use_lemma6 and gamma:
            not_yet_verified = pending[position + 1 :]
            for member, witness in lemma6_propagate(
                oracle, cc, gamma, not_yet_verified
            ).items():
                size = len(witness)
                current = bounds.get(member)
                if current is None or size < current[0]:
                    bounds[member] = (size, witness)

    return result


def compute_causality_pdf(
    objects: Sequence[ContinuousUncertainObject],
    an_oid: Hashable,
    q: PointLike,
    alpha: float,
    samples_per_object: int = 64,
    rng: Optional[np.random.Generator] = None,
    config: CPConfig = CPConfig(),
) -> Tuple[CausalityResult, UncertainDataset]:
    """CP under the continuous pdf model (Section 3.2).

    The filter step uses the exact region geometry (farthest-corner
    rectangles per overlapped sub-quadrant of ``q``); the refinement step
    integrates probabilities by Monte-Carlo discretization with
    *samples_per_object* points per object.

    Returns the causality result together with the discretized dataset the
    probabilities were evaluated on.
    """
    rng = rng or np.random.default_rng(0)
    by_id = {obj.oid: obj for obj in objects}
    if an_oid not in by_id:
        raise KeyError(f"unknown pdf object {an_oid!r}")
    dataset = UncertainDataset(
        [obj.discretize(samples_per_object, rng) for obj in objects]
    )
    windows = by_id[an_oid].filter_rectangles(q)
    result = compute_causality(
        dataset, an_oid, q, alpha, config=config, windows=windows
    )
    return result, dataset
