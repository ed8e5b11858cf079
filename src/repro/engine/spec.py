"""Declarative query specifications — the engine's plan-layer input.

A :class:`QuerySpec` is an immutable, hashable, JSON-serializable value
describing *what* to compute; :mod:`repro.engine.plan` decides *how*.  The
spec zoo covers every query family in the repository:

================================  =========================================
spec                              underlying computation
================================  =========================================
:class:`PRSQSpec`                 probabilistic reverse skyline (Def. 4)
:class:`CausalitySpec`            algorithm CP on one PRSQ non-answer
:class:`PdfCausalitySpec`         CP under the continuous pdf model
:class:`CausalityCertainSpec`     algorithm CR (certain data)
:class:`KSkybandCausalitySpec`    CR generalized to reverse k-skybands
:class:`ReverseSkylineSpec`       reverse skyline (certain data)
:class:`ReverseKSkybandSpec`      reverse k-skyband (certain data)
:class:`ReverseTopKSpec`          reverse top-k user query
================================  =========================================

``spec_to_dict`` / ``spec_from_dict`` give the CLI a stable JSON wire
format; ``cache_key()`` gives the session a hashable identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Hashable, Optional, Tuple

from repro.core.cp import CPConfig
from repro.geometry.point import PointLike
from repro.prsq.query import _check_alpha
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject


def _point_tuple(q: PointLike) -> Tuple[float, ...]:
    try:
        point = tuple(map(float, q))
    except TypeError:
        raise ValueError(
            f"query point must be a sequence of numbers, got {q!r}"
        ) from None
    # json.loads parses a bare NaN or Infinity; no dominance test is sound
    # on one.
    if not all(map(math.isfinite, point)):
        raise ValueError(f"coordinates must be finite, got {point!r}")
    return point


def _validate_alpha(alpha: float) -> None:
    # bool is an int subclass; alpha=True must fail like _validate_k's k=True.
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    _check_alpha(alpha)


def _validate_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _require_hashable(name: str, value: Any) -> None:
    """Specs must be cache-key material; reject unhashable JSON (lists...)."""
    try:
        hash(value)
    except TypeError:
        raise ValueError(
            f"{name} must be hashable, got {type(value).__name__}: {value!r}"
        ) from None


@dataclass(frozen=True)
class QuerySpec:
    """Base class for all engine query specifications."""

    kind: ClassVar[str] = "abstract"
    dataset_kind: ClassVar[str] = "uncertain"  # uncertain | certain | pdf
    #: Results of this spec may be served from the LRU result cache.  Specs
    #: with side effects (dataset updates) must opt out, or a repeated
    #: identical op would hit the cache and silently not run.
    cacheable: ClassVar[bool] = True
    #: This spec changes session state.  Parallel executors refuse mutating
    #: specs: worker processes hold dataset copies, so a mutation applied
    #: in a worker would be lost — and batch order vs. other chunks is
    #: undefined anyway.
    mutates: ClassVar[bool] = False

    def cache_key(self) -> Tuple:
        """Hashable identity of the spec (kind + every field value)."""
        parts: Tuple = (self.kind,)
        for f in fields(self):
            parts += (f.name, getattr(self, f.name))
        return parts

    def describe(self) -> str:
        args = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.kind}({args})"


@dataclass(frozen=True)
class PRSQSpec(QuerySpec):
    """Probabilistic reverse skyline query at one query point.

    ``want`` selects the projection: ``"answers"`` (ids with
    ``Pr >= alpha``), ``"non_answers"``, or ``"probabilities"`` (the full
    id -> probability map).
    """

    q: Tuple[float, ...] = ()
    alpha: float = 0.5
    want: str = "answers"

    kind: ClassVar[str] = "prsq"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _validate_alpha(self.alpha)
        if self.want not in ("answers", "non_answers", "probabilities"):
            raise ValueError(
                f"want must be answers|non_answers|probabilities, got {self.want!r}"
            )


@dataclass(frozen=True)
class CausalitySpec(QuerySpec):
    """Algorithm CP: causality & responsibility for one PRSQ non-answer."""

    an: Hashable = None
    q: Tuple[float, ...] = ()
    alpha: float = 0.5
    config: CPConfig = CPConfig()

    kind: ClassVar[str] = "causality"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _require_hashable("an", self.an)
        _validate_alpha(self.alpha)


@dataclass(frozen=True)
class PdfCausalitySpec(QuerySpec):
    """Algorithm CP under the continuous pdf model (Section 3.2).

    Requires a session created with :meth:`repro.engine.session.Session.
    from_pdf_objects`, which owns both the pdf objects (for the exact
    filter-region geometry) and their one shared discretization.
    """

    an: Hashable = None
    q: Tuple[float, ...] = ()
    alpha: float = 0.5
    config: CPConfig = CPConfig()

    kind: ClassVar[str] = "pdf_causality"
    dataset_kind: ClassVar[str] = "pdf"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _require_hashable("an", self.an)
        _validate_alpha(self.alpha)


@dataclass(frozen=True)
class CausalityCertainSpec(QuerySpec):
    """Algorithm CR: causality for one reverse-skyline non-answer."""

    an: Hashable = None
    q: Tuple[float, ...] = ()

    kind: ClassVar[str] = "causality_certain"
    dataset_kind: ClassVar[str] = "certain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _require_hashable("an", self.an)


@dataclass(frozen=True)
class KSkybandCausalitySpec(QuerySpec):
    """Causality for a reverse k-skyband non-answer (certain data)."""

    an: Hashable = None
    q: Tuple[float, ...] = ()
    k: int = 1

    kind: ClassVar[str] = "k_skyband_causality"
    dataset_kind: ClassVar[str] = "certain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _require_hashable("an", self.an)
        _validate_k(self.k)


@dataclass(frozen=True)
class ReverseSkylineSpec(QuerySpec):
    """The reverse skyline of one query point (certain data)."""

    q: Tuple[float, ...] = ()

    kind: ClassVar[str] = "reverse_skyline"
    dataset_kind: ClassVar[str] = "certain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))


@dataclass(frozen=True)
class ReverseKSkybandSpec(QuerySpec):
    """The reverse k-skyband of one query point (certain data)."""

    q: Tuple[float, ...] = ()
    k: int = 1

    kind: ClassVar[str] = "reverse_k_skyband"
    dataset_kind: ClassVar[str] = "certain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        _validate_k(self.k)


@dataclass(frozen=True)
class ReverseTopKSpec(QuerySpec):
    """Reverse top-k: users (weight vectors) for whom ``q`` is top-k."""

    q: Tuple[float, ...] = ()
    k: int = 1
    weights: Tuple[Tuple[float, ...], ...] = ()
    user_ids: Optional[Tuple[Hashable, ...]] = None

    kind: ClassVar[str] = "reverse_top_k"
    dataset_kind: ClassVar[str] = "certain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", _point_tuple(self.q))
        object.__setattr__(
            self, "weights", tuple(_point_tuple(w) for w in self.weights)
        )
        if self.user_ids is not None:
            object.__setattr__(self, "user_ids", tuple(self.user_ids))
            _require_hashable("user_ids", self.user_ids)
        _validate_k(self.k)
        if not self.weights:
            raise ValueError("at least one weight vector is required")


#: Wire form of one object in an :class:`UpdateSpec`:
#: ``(id, samples, probabilities, name)`` with nested float tuples.
ObjectEntry = Tuple[Hashable, Tuple[Tuple[float, ...], ...],
                    Optional[Tuple[float, ...]], Optional[str]]


def object_entry(obj: UncertainObject) -> ObjectEntry:
    """The hashable, JSON-safe wire form of one uncertain object."""
    return (
        obj.oid,
        tuple(tuple(float(v) for v in row) for row in obj.samples),
        tuple(float(p) for p in obj.probabilities),
        obj.name,
    )


def entry_object(entry: ObjectEntry) -> UncertainObject:
    """Rebuild the :class:`UncertainObject` an :func:`object_entry` encodes."""
    oid, samples, probabilities, name = entry
    return UncertainObject(
        oid,
        [list(row) for row in samples],
        None if probabilities is None else list(probabilities),
        name=name,
    )


def _normalize_entry(label: str, entry: Any) -> ObjectEntry:
    if isinstance(entry, UncertainObject):
        return object_entry(entry)
    try:
        oid, samples, probabilities, name = entry
    except (TypeError, ValueError):
        raise ValueError(
            f"{label} entries must be (id, samples, probabilities, name) "
            f"4-tuples or UncertainObject instances, got {entry!r}"
        ) from None
    _require_hashable(f"{label} id", oid)
    samples_t = tuple(_point_tuple(row) for row in samples)
    if not samples_t:
        raise ValueError(f"{label} entry {oid!r} has no samples")
    probabilities_t = (
        None
        if probabilities is None
        else tuple(float(p) for p in probabilities)
    )
    if name is not None and not isinstance(name, str):
        raise ValueError(
            f"{label} entry {oid!r}: name must be a string or None, "
            f"got {name!r}"
        )
    return (oid, samples_t, probabilities_t, name)


@dataclass(frozen=True)
class UpdateSpec(QuerySpec):
    """A dataset delta as a registered query family (the write path).

    ``deletes`` removes ids, ``updates`` replaces objects in place,
    ``inserts`` appends new ones — applied in exactly that order by
    :meth:`repro.engine.session.Session.apply`.  Objects travel as
    :data:`ObjectEntry` tuples so the spec stays hashable and survives the
    JSON wire format; pass :class:`~repro.uncertain.object.UncertainObject`
    instances and they are converted on construction.

    Updates are never cached (``cacheable = False``) and never fan out to
    worker processes (``mutates = True``): workers hold dataset copies, so
    a mutation applied there would be silently lost.  Any session accepts
    them (the base ``dataset_kind``).
    """

    deletes: Tuple[Hashable, ...] = ()
    updates: Tuple[ObjectEntry, ...] = ()
    inserts: Tuple[ObjectEntry, ...] = ()

    kind: ClassVar[str] = "update"
    cacheable: ClassVar[bool] = False
    mutates: ClassVar[bool] = True

    def __post_init__(self):
        if isinstance(self.deletes, str):
            # tuple("hot-1") would silently explode into per-char deletes
            raise ValueError(
                f"deletes must be a sequence of ids, got the bare string "
                f"{self.deletes!r}; wrap it: deletes=({self.deletes!r},)"
            )
        deletes = tuple(self.deletes)
        for oid in deletes:
            _require_hashable("deletes id", oid)
        object.__setattr__(self, "deletes", deletes)
        object.__setattr__(
            self,
            "updates",
            tuple(_normalize_entry("updates", e) for e in self.updates),
        )
        object.__setattr__(
            self,
            "inserts",
            tuple(_normalize_entry("inserts", e) for e in self.inserts),
        )
        seen = set()
        for oid in (
            *self.deletes,
            *(e[0] for e in self.updates),
            *(e[0] for e in self.inserts),
        ):
            if oid in seen:
                raise ValueError(
                    f"id {oid!r} appears in more than one update op; "
                    "a delete + insert of the same id is an update"
                )
            seen.add(oid)
        if not seen:
            raise ValueError(
                "empty update: no deletes, updates, or inserts"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_delta(cls, delta: DatasetDelta) -> "UpdateSpec":
        return cls(
            deletes=delta.deletes,
            updates=tuple(object_entry(o) for o in delta.updates),
            inserts=tuple(object_entry(o) for o in delta.inserts),
        )

    def to_delta(self) -> DatasetDelta:
        """The executable :class:`DatasetDelta` this spec encodes.

        Object construction — and therefore probability validation —
        happens here, at execution time, so a malformed entry in a batch
        becomes a captured per-spec data error instead of a parse failure.
        """
        return DatasetDelta(
            deletes=self.deletes,
            updates=tuple(entry_object(e) for e in self.updates),
            inserts=tuple(entry_object(e) for e in self.inserts),
        )


def spec_to_dict(spec: QuerySpec) -> Dict[str, Any]:
    """JSON-ready dict for a spec (inverse of :func:`spec_from_dict`).

    Dispatches through the query registry, so runtime-registered families
    serialize exactly like the builtins — including the tagged wire
    encoding that lets tuple ids survive a real JSON round trip.
    """
    from repro.api.registry import REGISTRY

    return REGISTRY.spec_to_dict(spec)


def spec_from_dict(payload: Dict[str, Any]) -> QuerySpec:
    """Build a spec from its JSON dict form (registry-dispatched)."""
    from repro.api.registry import REGISTRY

    return REGISTRY.spec_from_dict(payload)
