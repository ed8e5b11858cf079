"""Query planning: compile a :class:`~repro.engine.spec.QuerySpec` into an
executable plan against a :class:`~repro.engine.session.Session`.

A plan is a small value object: the ordered step names (for explain/debug
output) plus a runner closure.  Each query family has one physical path:
the reverse skyline and k-skyband plans run the dominator-count kernel
over the dataset's points at every size, and the causality plans run the
paper's filter and refinement over the packed index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.core.cp import compute_causality
from repro.core.cr import compute_causality_certain
from repro.obs import span as _span
from repro.engine.spec import (
    CausalityCertainSpec,
    CausalitySpec,
    KSkybandCausalitySpec,
    PdfCausalitySpec,
    PRSQSpec,
    QuerySpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    UpdateSpec,
)
from repro.rtopk.query import WeightSet, reverse_top_k
from repro.skyline.reverse import reverse_skyline
from repro.skyline.skyband import compute_causality_k_skyband, reverse_k_skyband

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import Session


@dataclass(frozen=True)
class QueryPlan:
    """A compiled query: declarative steps plus an executable runner."""

    spec: QuerySpec
    steps: Tuple[str, ...]
    runner: Callable[["Session"], Any]

    def execute(self, session: "Session") -> Any:
        return self.runner(session)

    def explain(self) -> str:
        lines = [f"plan for {self.spec.describe()}:"]
        lines += [f"  {i + 1}. {step}" for i, step in enumerate(self.steps)]
        return "\n".join(lines)


def plan_prsq(spec: PRSQSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        probabilities = session.probability_map(spec.q)
        with _span("refine", alpha=spec.alpha, want=spec.want):
            if spec.want == "probabilities":
                return probabilities
            if spec.want == "answers":
                return probabilities.answers(spec.alpha)
            return probabilities.non_answers(spec.alpha)

    return QueryPlan(
        spec=spec,
        steps=("prsq-probabilities (cached per query point; lemma-4 "
               "pre-pass, then grouped packed filter and segmented "
               "eq3/eq2 kernel over the unresolved objects)",
               f"threshold-filter alpha={spec.alpha} want={spec.want}"),
        runner=run,
    )


def plan_causality(spec: CausalitySpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        return compute_causality(
            session.dataset, spec.an, spec.q, spec.alpha, config=spec.config
        )

    return QueryPlan(
        spec=spec,
        steps=("lemma2-rtree-filter", "oracle-build", "cp-refinement"),
        runner=run,
    )


def plan_pdf_causality(spec: PdfCausalitySpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        pdf_object = session.pdf_object(spec.an)
        with _span("pdf-windows") as sp:
            windows = pdf_object.filter_rectangles(spec.q)
            sp.set(windows=len(windows))
        return compute_causality(
            session.dataset,
            spec.an,
            spec.q,
            spec.alpha,
            config=spec.config,
            windows=windows,
        )

    return QueryPlan(
        spec=spec,
        steps=("pdf-region-windows", "lemma2-rtree-filter",
               "oracle-build (shared discretization)", "cp-refinement"),
        runner=run,
    )


def plan_causality_certain(spec: CausalityCertainSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        return compute_causality_certain(session.dataset, spec.an, spec.q)

    return QueryPlan(
        spec=spec,
        steps=("dominance-window-rtree-query", "lemma7-share-responsibility"),
        runner=run,
    )


def plan_k_skyband_causality(spec: KSkybandCausalitySpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        return compute_causality_k_skyband(
            session.dataset, spec.an, spec.q, spec.k
        )

    return QueryPlan(
        spec=spec,
        steps=("dominance-window-rtree-query",
               f"k-skyband-responsibility k={spec.k}"),
        runner=run,
    )


def plan_reverse_skyline(spec: ReverseSkylineSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        with _span("filter", kernel="dominator-counts") as sp:
            result = reverse_skyline(session.dataset, spec.q)
            sp.set(answers=len(result))
        return result

    return QueryPlan(
        spec=spec,
        steps=("dominator-counts (broadcast over dataset points)",
               "members: count == 0"),
        runner=run,
    )


def plan_reverse_k_skyband(spec: ReverseKSkybandSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        with _span("filter", kernel="dominator-counts", k=spec.k) as sp:
            result = reverse_k_skyband(session.dataset, spec.q, spec.k)
            sp.set(answers=len(result))
        return result

    return QueryPlan(
        spec=spec,
        steps=("dominator-counts (broadcast over dataset points)",
               f"members: count < {spec.k}"),
        runner=run,
    )


def plan_reverse_top_k(spec: ReverseTopKSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        users = WeightSet(
            [list(w) for w in spec.weights],
            ids=list(spec.user_ids) if spec.user_ids is not None else None,
        )
        with _span("refine", users=len(spec.weights), k=spec.k):
            return reverse_top_k(session.dataset, users, spec.q, spec.k)

    return QueryPlan(
        spec=spec,
        steps=("linear-score-ranking", f"top-{spec.k}-membership"),
        runner=run,
    )


def plan_update(spec: UpdateSpec) -> QueryPlan:
    def run(session: "Session") -> Any:
        with _span(
            "apply-delta",
            deletes=len(spec.deletes),
            updates=len(spec.updates),
            inserts=len(spec.inserts),
        ):
            return session.apply(spec.to_delta())

    return QueryPlan(
        spec=spec,
        steps=(
            f"apply-delta -{len(spec.deletes)} ~{len(spec.updates)} "
            f"+{len(spec.inserts)} (incremental tensor/digest patch)",
            "bump-version-refresh-fingerprint",
        ),
        runner=run,
    )


def compile_plan(spec: QuerySpec) -> QueryPlan:
    """Compile *spec* into an executable :class:`QueryPlan`.

    Dispatch goes through :data:`repro.api.registry.REGISTRY` — the
    planners above are bound to their spec classes by
    :mod:`repro.api.families`, and a query family registered at runtime
    plans here with zero engine edits.  Raises :class:`TypeError` for an
    unregistered spec type (an unregistered *kind* string raises
    :class:`~repro.exceptions.UnknownQueryKindError` at parse time
    instead).
    """
    from repro.api.registry import REGISTRY

    return REGISTRY.family_for_spec(spec).planner(spec)
