"""Typed result envelopes — the public API's answer to ``Any``.

Every query family returns its own payload dataclass (:class:`PRSQResult`,
:class:`CausalityAnswer`, ...) wrapped in one uniform :class:`QueryResult`
envelope carrying the schema version, the dataset fingerprint the result
was computed against, an echo of the spec, run stats (cache hit, wall
time, node accesses) and — for failed batch entries — a machine-actionable
:class:`ErrorInfo` drawn from the :mod:`repro.exceptions` taxonomy.

Envelopes are value objects: ``QueryResult.from_dict(env.to_dict()) ==
env`` holds exactly, including through a real JSON serialization (the
tagged :mod:`repro.api.wire` encoding preserves tuple ids, frozensets and
non-string dict keys).  ``to_raw()`` recovers the plain payload shape
(the list / dict / :class:`~repro.core.model.CausalityResult` the engine
computes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.api import wire
from repro.core.model import Cause, CauseKind, CausalityResult, RunStats
from repro.prsq.query import NonAnswerIds, ProbabilityMap

SCHEMA_VERSION = 2


def _encode_ids(ids: Tuple[Hashable, ...]) -> List[Any]:
    return [wire.encode_value(v) for v in ids]


def _decode_ids(items: List[Any]) -> Tuple[Hashable, ...]:
    return tuple(wire.decode_value(v) for v in items)


# ---------------------------------------------------------------------------
# per-family payloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PRSQResult:
    """Probabilistic reverse skyline projection at one query point."""

    want: str
    alpha: float
    # answers / non_answers: a tuple, or the engine's read-only
    # NonAnswerIds view (equal to and hashing like the tuple)
    ids: Optional[Sequence[Hashable]] = None
    # a read-only ProbabilityMap from the engine, a dict when decoded
    probabilities: Optional[Mapping[Hashable, float]] = None

    @classmethod
    def from_raw(cls, value: Any, spec: Any) -> "PRSQResult":
        if spec.want == "probabilities":
            if not isinstance(value, ProbabilityMap):
                value = dict(value)
            return cls(want=spec.want, alpha=spec.alpha, probabilities=value)
        if not isinstance(value, NonAnswerIds):
            value = tuple(value)
        return cls(want=spec.want, alpha=spec.alpha, ids=value)

    def to_raw(self) -> Any:
        if self.want == "probabilities":
            return dict(self.probabilities.items())
        return list(self.ids)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "want": self.want,
            "alpha": self.alpha,
            "ids": None if self.ids is None else _encode_ids(self.ids),
            "probabilities": (
                None
                if self.probabilities is None
                else wire.encode_value(dict(self.probabilities.items()))
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PRSQResult":
        probabilities = payload.get("probabilities")
        if probabilities is not None:
            probabilities = wire.decode_value(probabilities)
        ids = payload.get("ids")
        return cls(
            want=payload["want"],
            alpha=payload["alpha"],
            ids=None if ids is None else _decode_ids(ids),
            probabilities=probabilities,
        )


@dataclass(frozen=True)
class CauseRecord:
    """One cause in a causality answer (wire form of :class:`Cause`)."""

    id: Hashable
    responsibility: float
    kind: str
    contingency_set: Tuple[Hashable, ...]  # sorted by repr, deterministic

    @classmethod
    def from_cause(cls, cause: Cause) -> "CauseRecord":
        return cls(
            id=cause.oid,
            responsibility=cause.responsibility,
            kind=cause.kind.value,
            contingency_set=tuple(sorted(cause.contingency_set, key=repr)),
        )

    def to_cause(self) -> Cause:
        return Cause(
            oid=self.id,
            responsibility=self.responsibility,
            contingency_set=frozenset(self.contingency_set),
            kind=CauseKind(self.kind),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": wire.encode_value(self.id),
            "responsibility": self.responsibility,
            "kind": self.kind,
            "contingency_set": _encode_ids(self.contingency_set),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CauseRecord":
        return cls(
            id=wire.decode_value(payload["id"]),
            responsibility=payload["responsibility"],
            kind=payload["kind"],
            contingency_set=_decode_ids(payload["contingency_set"]),
        )


@dataclass(frozen=True)
class StatsRecord:
    """Wire form of :class:`~repro.core.model.RunStats`."""

    node_accesses: int = 0
    cpu_time_s: float = 0.0
    candidates: int = 0
    oracle_evaluations: int = 0
    subsets_examined: int = 0

    @classmethod
    def from_stats(cls, stats: RunStats) -> "StatsRecord":
        return cls(
            node_accesses=stats.node_accesses,
            cpu_time_s=stats.cpu_time_s,
            candidates=stats.candidates,
            oracle_evaluations=stats.oracle_evaluations,
            subsets_examined=stats.subsets_examined,
        )

    def to_stats(self) -> RunStats:
        return RunStats(
            node_accesses=self.node_accesses,
            cpu_time_s=self.cpu_time_s,
            candidates=self.candidates,
            oracle_evaluations=self.oracle_evaluations,
            subsets_examined=self.subsets_examined,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node_accesses": self.node_accesses,
            "cpu_time_s": self.cpu_time_s,
            "candidates": self.candidates,
            "oracle_evaluations": self.oracle_evaluations,
            "subsets_examined": self.subsets_examined,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StatsRecord":
        return cls(**payload)


@dataclass(frozen=True)
class CausalityAnswer:
    """Causes + responsibilities for one non-answer (CP, CR, pdf, skyband)."""

    an: Hashable
    alpha: Optional[float]
    causes: Tuple[CauseRecord, ...]
    stats: StatsRecord = field(default_factory=StatsRecord)

    @classmethod
    def from_raw(cls, value: CausalityResult, spec: Any = None) -> "CausalityAnswer":
        return cls(
            an=value.an_oid,
            alpha=value.alpha,
            causes=tuple(
                CauseRecord.from_cause(cause)
                for _oid, cause in sorted(
                    value.causes.items(), key=lambda kv: repr(kv[0])
                )
            ),
            stats=StatsRecord.from_stats(value.stats),
        )

    def to_raw(self) -> CausalityResult:
        result = CausalityResult(
            an_oid=self.an, alpha=self.alpha, stats=self.stats.to_stats()
        )
        for record in self.causes:
            result.add(record.to_cause())
        return result

    def ranked(self) -> List[Tuple[Hashable, float]]:
        """Causes by decreasing responsibility (mirrors the legacy model)."""
        return sorted(
            ((c.id, c.responsibility) for c in self.causes),
            key=lambda pair: (-pair[1], repr(pair[0])),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "an": wire.encode_value(self.an),
            "alpha": self.alpha,
            "causes": [record.to_dict() for record in self.causes],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CausalityAnswer":
        return cls(
            an=wire.decode_value(payload["an"]),
            alpha=payload["alpha"],
            causes=tuple(
                CauseRecord.from_dict(item) for item in payload["causes"]
            ),
            stats=StatsRecord.from_dict(payload["stats"]),
        )


@dataclass(frozen=True)
class ReverseSkylineResult:
    """Members of the reverse skyline of the query point."""

    ids: Tuple[Hashable, ...]

    @classmethod
    def from_raw(cls, value: Any, spec: Any = None) -> "ReverseSkylineResult":
        return cls(ids=tuple(value))

    def to_raw(self) -> List[Hashable]:
        return list(self.ids)

    def to_dict(self) -> Dict[str, Any]:
        return {"ids": _encode_ids(self.ids)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReverseSkylineResult":
        return cls(ids=_decode_ids(payload["ids"]))


@dataclass(frozen=True)
class ReverseKSkybandResult:
    """Members of the reverse k-skyband of the query point."""

    k: int
    ids: Tuple[Hashable, ...]

    @classmethod
    def from_raw(cls, value: Any, spec: Any) -> "ReverseKSkybandResult":
        return cls(k=spec.k, ids=tuple(value))

    def to_raw(self) -> List[Hashable]:
        return list(self.ids)

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.k, "ids": _encode_ids(self.ids)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReverseKSkybandResult":
        return cls(k=payload["k"], ids=_decode_ids(payload["ids"]))


@dataclass(frozen=True)
class ReverseTopKResult:
    """Users (weight-vector ids) for whom the query product ranks top-k."""

    k: int
    user_ids: Tuple[Hashable, ...]

    @classmethod
    def from_raw(cls, value: Any, spec: Any) -> "ReverseTopKResult":
        return cls(k=spec.k, user_ids=tuple(value))

    def to_raw(self) -> List[Hashable]:
        return list(self.user_ids)

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.k, "user_ids": _encode_ids(self.user_ids)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReverseTopKResult":
        return cls(k=payload["k"], user_ids=_decode_ids(payload["user_ids"]))


@dataclass(frozen=True)
class UpdateResult:
    """Acknowledgement of one applied dataset delta (the write family).

    ``fingerprint`` here is the *post-update* dataset fingerprint (the
    envelope's own ``fingerprint`` field matches it);
    ``previous_fingerprint`` is what cached results keyed before the
    update — entries under it can never be served again and age out of
    the LRU.
    """

    version: int
    n_objects: int
    deleted: int
    updated: int
    inserted: int
    previous_fingerprint: Optional[str] = None
    fingerprint: Optional[str] = None

    @classmethod
    def from_raw(cls, value: Dict[str, Any], spec: Any = None) -> "UpdateResult":
        return cls(**value)

    def to_raw(self) -> Dict[str, Any]:
        return self.to_dict()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "n_objects": self.n_objects,
            "deleted": self.deleted,
            "updated": self.updated,
            "inserted": self.inserted,
            "previous_fingerprint": self.previous_fingerprint,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "UpdateResult":
        return cls(**payload)


# ---------------------------------------------------------------------------
# the uniform envelope
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorInfo:
    """Machine-actionable failure: taxonomy code + exception type + text."""

    code: str
    type: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"code": self.code, "type": self.type, "message": self.message}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "ErrorInfo":
        return cls(**payload)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        from repro.exceptions import error_code

        return cls(
            code=error_code(exc), type=type(exc).__name__, message=str(exc)
        )


@dataclass(frozen=True)
class RunInfo:
    """Execution metadata for one envelope.

    ``elapsed_s`` covers the full engine path — plan compilation, cache
    lookup, and (on a miss) execution — so a cache hit reports its real
    lookup cost.  ``phases`` is the per-phase wall-time breakdown
    (``filter``/``refine``/``probability``/``cache-lookup``/...) from the
    query's span tree; it is present only when the session was built with
    a :class:`repro.obs.Tracer`.
    """

    cached: bool = False
    elapsed_s: float = 0.0
    node_accesses: Optional[int] = None
    phases: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "node_accesses": self.node_accesses,
            "phases": None if self.phases is None else dict(self.phases),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunInfo":
        return cls(**payload)


@dataclass(frozen=True)
class QueryResult:
    """The uniform typed envelope every v2 API call returns."""

    spec: Any                      # the QuerySpec echo
    value: Optional[Any]           # typed per-family payload, None on error
    run: RunInfo = field(default_factory=RunInfo)
    fingerprint: Optional[str] = None
    error: Optional[ErrorInfo] = None
    schema_version: int = SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def to_raw(self) -> Any:
        """The legacy payload shape; raises if the query failed."""
        if self.error is not None:
            raise RuntimeError(
                f"query failed [{self.error.code}] {self.error.type}: "
                f"{self.error.message}"
            )
        return self.value.to_raw()

    def to_dict(self) -> Dict[str, Any]:
        from repro.api.registry import REGISTRY

        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "ok": self.ok,
            "spec": REGISTRY.spec_to_dict(self.spec),
            "value": None if self.value is None else self.value.to_dict(),
            "error": None if self.error is None else self.error.to_dict(),
            "run": self.run.to_dict(),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryResult":
        from repro.api.registry import REGISTRY

        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported envelope schema_version {version!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        spec = REGISTRY.spec_from_dict(payload["spec"])
        family = REGISTRY.family(spec.kind)
        value = payload.get("value")
        error = payload.get("error")
        return cls(
            spec=spec,
            value=None if value is None else family.result_cls.from_dict(value),
            run=RunInfo.from_dict(payload["run"]),
            fingerprint=payload.get("fingerprint"),
            error=None if error is None else ErrorInfo.from_dict(error),
            schema_version=version,
        )

    @classmethod
    def from_outcome(
        cls, outcome: Any, fingerprint: Optional[str] = None
    ) -> "QueryResult":
        """Wrap an engine :class:`~repro.engine.session.QueryOutcome`."""
        from repro.api.registry import REGISTRY

        if outcome.error is not None:
            message = (
                outcome.error_message
                if outcome.error_message is not None
                else outcome.error
            )
            error = ErrorInfo(
                code=outcome.error_code or "internal_error",
                type=outcome.error_type or "Exception",
                message=message,
            )
            return cls(
                spec=outcome.spec,
                value=None,
                run=RunInfo(
                    cached=outcome.cached,
                    elapsed_s=outcome.elapsed_s,
                    phases=getattr(outcome, "phases", None),
                ),
                fingerprint=fingerprint,
                error=error,
            )
        family = REGISTRY.family_for_spec(outcome.spec)
        value = family.result_cls.from_raw(outcome.value, outcome.spec)
        node_accesses = None
        if isinstance(value, CausalityAnswer):
            node_accesses = value.stats.node_accesses
        return cls(
            spec=outcome.spec,
            value=value,
            run=RunInfo(
                cached=outcome.cached,
                elapsed_s=outcome.elapsed_s,
                node_accesses=node_accesses,
                phases=getattr(outcome, "phases", None),
            ),
            fingerprint=fingerprint,
        )
