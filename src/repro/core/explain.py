"""Human-readable explanations and repairs for causality results.

The paper motivates CRP as *explanation capability* for database systems:
the basketball player wants to know "what causes me to be unqualified and
how strongly?".  This module turns a :class:`CausalityResult` into that
answer — a ranked narrative, a minimal *repair set* (the smallest deletion
that flips the non-answer into an answer), and verified what-if analyses.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Optional, Sequence

from repro.core.model import CausalityResult, CauseKind
from repro.geometry.point import PointLike
from repro.prsq.oracle import MembershipOracle
from repro.prsq.probability import reverse_skyline_probability
from repro.uncertain.dataset import UncertainDataset


def minimal_repair_set(result: CausalityResult) -> FrozenSet[Hashable]:
    """The smallest deletion set that makes the non-answer an answer.

    For the top-responsibility cause ``c`` with minimal contingency set
    ``Γ``, removing ``Γ ∪ {c}`` flips membership, and by Definition 2 no
    smaller deletion can: a flip-set of size ``s`` yields some member with
    a contingency set of size ``s - 1``, i.e. responsibility ``1/s``, so
    the best responsibility bounds the flip-set size from below.
    """
    if not result.causes:
        raise ValueError("result has no causes; nothing to repair")
    top_oid, _resp = result.ranked()[0]
    top = result.causes[top_oid]
    return frozenset(top.contingency_set | {top_oid})


def verify_repair(
    dataset: UncertainDataset,
    result: CausalityResult,
    q: PointLike,
    repair: Optional[Sequence[Hashable]] = None,
) -> bool:
    """Check that deleting *repair* (default: the minimal repair set)
    actually makes the non-answer an answer at the result's alpha."""
    if result.alpha is None:
        raise ValueError("verify_repair needs a probabilistic result (alpha set)")
    chosen = frozenset(repair) if repair is not None else minimal_repair_set(result)
    pr = reverse_skyline_probability(dataset, result.an_oid, q, exclude=chosen)
    return pr >= result.alpha


def what_if(
    dataset: UncertainDataset,
    result: CausalityResult,
    q: PointLike,
    removed: Sequence[Hashable],
) -> float:
    """``Pr(an)`` after hypothetically deleting *removed* objects."""
    return reverse_skyline_probability(
        dataset, result.an_oid, q, exclude=set(removed)
    )


def responsibility_groups(result: CausalityResult) -> List[tuple]:
    """``(responsibility, [cause ids])`` groups, strongest first."""
    groups: dict = {}
    for oid, cause in result.causes.items():
        groups.setdefault(round(cause.responsibility, 12), []).append(oid)
    return [
        (resp, sorted(map(str, members)))
        for resp, members in sorted(groups.items(), reverse=True)
    ]


def narrative(
    result: CausalityResult,
    dataset: Optional[UncertainDataset] = None,
    max_causes: int = 10,
) -> str:
    """A multi-line, human-readable explanation of the result."""
    lines: List[str] = []
    alpha_text = (
        f"at threshold alpha = {result.alpha}" if result.alpha is not None
        else "for the reverse skyline query"
    )
    lines.append(
        f"{result.an_oid!r} is a non-answer {alpha_text}; "
        f"{len(result.causes)} object(s) cause this."
    )

    counterfactuals = result.counterfactual_ids()
    if counterfactuals:
        names = ", ".join(_label(dataset, oid) for oid in counterfactuals)
        lines.append(
            f"Counterfactual cause(s) — removing any one alone flips the "
            f"answer: {names}."
        )

    shown = 0
    for oid, resp in result.ranked():
        if shown == max_causes:
            lines.append(f"... and {len(result.causes) - shown} more cause(s).")
            break
        cause = result.causes[oid]
        if cause.kind is CauseKind.COUNTERFACTUAL:
            continue
        lines.append(
            f"  {_label(dataset, oid)}: responsibility {resp:.4f} "
            f"(needs {cause.min_contingency_size} other deletion(s) to become "
            f"decisive)"
        )
        shown += 1

    if result.causes:
        repair = minimal_repair_set(result)
        names = ", ".join(sorted(_label(dataset, oid) for oid in repair))
        lines.append(
            f"Minimal repair: deleting {{{names}}} "
            f"({len(repair)} object(s)) makes {result.an_oid!r} an answer."
        )
    return "\n".join(lines)


def _label(dataset: Optional[UncertainDataset], oid: Hashable) -> str:
    if dataset is not None and oid in dataset:
        name = dataset.get(oid).name
        if name:
            return f"{name} ({oid})"
    return str(oid)


def explain_with_oracle(
    dataset: UncertainDataset,
    result: CausalityResult,
    q: PointLike,
) -> dict:
    """Machine-readable explanation bundle (used by the CLI and examples).

    Includes the verified minimal repair and the probability trajectory as
    causes are removed strongest-first.
    """
    if result.alpha is None:
        raise ValueError("explain_with_oracle needs a probabilistic result")
    oracle = MembershipOracle(
        dataset, result.an_oid, q, result.alpha,
        relevant_ids=list(result.causes),
    )
    trajectory = []
    removed: set = set()
    for oid, _resp in result.ranked():
        removed.add(oid)
        trajectory.append(
            {"removed": sorted(map(str, removed)), "pr": oracle.probability(removed)}
        )
        if oracle.is_answer(removed):
            break
    repair = minimal_repair_set(result)
    return {
        "an": result.an_oid,
        "alpha": result.alpha,
        "groups": responsibility_groups(result),
        "minimal_repair": sorted(map(str, repair)),
        "repair_verified": verify_repair(dataset, result, q),
        "greedy_trajectory": trajectory,
    }
