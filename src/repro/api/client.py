"""The fluent client facade: ``repro.api.connect(dataset)`` and friends.

The client is the stable public surface over :mod:`repro.engine`.  Every
method builds the corresponding spec, executes it on the shared session,
and returns a typed :class:`~repro.api.results.QueryResult` envelope.
The per-family methods are defined once, on :class:`QueryMethods`, which
the batch builders and the remote client share::

    client = repro.api.connect(dataset)
    answer = client.prsq((5.0, 5.0), alpha=0.5)
    print(answer.value.ids, answer.run.cached, answer.fingerprint)

    blame = client.causality(an="alice", q=(5.0, 5.0), alpha=0.5)
    print(blame.value.ranked())

Batches are assembled with the fluent builder and delivered either all at
once or as an incremental stream (the CLI's NDJSON ``batch --stream``
rides on the same path)::

    batch = client.batch().prsq(q, alpha=0.3).prsq(q, alpha=0.7)
    for envelope in batch.stream(workers=4):
        handle(envelope)        # arrives as chunks complete, input order

Single-query methods raise on failure; batch execution captures per-spec
errors into failed envelopes (``error.code`` from the
:mod:`repro.exceptions` taxonomy) so one bad query cannot discard the
rest.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator, List, Optional, Sequence, Union

from repro import obs
from repro.api.results import QueryResult
from repro.core.cp import CPConfig
from repro.engine.executor import Executor, ParallelExecutor, SerialExecutor
from repro.engine.session import Session
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
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject
from repro.uncertain.pdf import ContinuousUncertainObject


def connect(
    dataset: Union[UncertainDataset, str, Path],
    dataset_kind: str = "uncertain",
    trace: Any = None,
    **session_kwargs: Any,
) -> "Client":
    """Open a :class:`Client` over *dataset*.

    *dataset* may be an in-memory dataset or a CSV path (``dataset_kind``
    selects the ``uncertain`` long format or the ``certain`` wide format).
    Keyword arguments (``cache_size``, ``cache``, ``build_index``) pass
    through to the underlying :class:`~repro.engine.session.Session`.

    ``trace`` turns on phase-level tracing: pass ``True`` for an in-memory
    :class:`repro.obs.Tracer`, a path or writable stream for an NDJSON
    span sink, or an existing tracer to share one across clients.  Traced
    queries carry a ``run.phases`` breakdown in every envelope.
    """
    if isinstance(dataset, (str, Path)):
        from repro.io.csvio import load_certain_csv, load_uncertain_csv

        if dataset_kind == "certain":
            dataset = load_certain_csv(dataset)
        elif dataset_kind == "uncertain":
            dataset = load_uncertain_csv(dataset)
        else:
            raise ValueError(
                f"dataset_kind must be uncertain|certain, got {dataset_kind!r}"
            )
    if trace is not None:
        session_kwargs["tracer"] = obs.as_tracer(trace)
    return Client(Session(dataset, **session_kwargs))


def connect_pdf(
    objects: Sequence[ContinuousUncertainObject],
    samples_per_object: int = 64,
    seed: int = 0,
    trace: Any = None,
    **session_kwargs: Any,
) -> "Client":
    """A client over continuous pdf objects (Section 3.2 model).

    ``trace`` behaves exactly as in :func:`connect`.
    """
    if trace is not None:
        session_kwargs["tracer"] = obs.as_tracer(trace)
    return Client(
        Session.from_pdf_objects(
            objects,
            samples_per_object=samples_per_object,
            seed=seed,
            **session_kwargs,
        )
    )


class QueryMethods:
    """One method per built-in query family, each defined once.

    Every method turns its arguments into a validated spec (a bad argument
    raises at the call) and returns ``self._take(spec)``.  The clients
    take with ``query``: ``Client`` returns the envelope, ``RemoteClient``
    a coroutine to await.  The batch builders queue the spec and return
    themselves, for chaining.
    """

    def _take(self, spec: QuerySpec) -> Any:
        return self.query(spec)

    def prsq(
        self,
        q: Sequence[float],
        alpha: float = 0.5,
        want: str = "answers",
    ) -> Any:
        return self._take(PRSQSpec(q=tuple(q), alpha=alpha, want=want))

    def causality(
        self,
        an: Hashable,
        q: Sequence[float],
        alpha: float = 0.5,
        config: Any = None,
    ) -> Any:
        return self._take(
            CausalitySpec(
                an=an, q=tuple(q), alpha=alpha,
                config=CPConfig() if config is None else config,
            )
        )

    def pdf_causality(
        self,
        an: Hashable,
        q: Sequence[float],
        alpha: float = 0.5,
        config: Any = None,
    ) -> Any:
        return self._take(
            PdfCausalitySpec(
                an=an, q=tuple(q), alpha=alpha,
                config=CPConfig() if config is None else config,
            )
        )

    def causality_certain(self, an: Hashable, q: Sequence[float]) -> Any:
        return self._take(CausalityCertainSpec(an=an, q=tuple(q)))

    def k_skyband_causality(
        self, an: Hashable, q: Sequence[float], k: int = 1
    ) -> Any:
        return self._take(KSkybandCausalitySpec(an=an, q=tuple(q), k=k))

    def reverse_skyline(self, q: Sequence[float]) -> Any:
        return self._take(ReverseSkylineSpec(q=tuple(q)))

    def reverse_k_skyband(self, q: Sequence[float], k: int = 1) -> Any:
        return self._take(ReverseKSkybandSpec(q=tuple(q), k=k))

    def reverse_top_k(
        self,
        q: Sequence[float],
        k: int,
        weights: Sequence[Sequence[float]],
        user_ids: Optional[Sequence[Hashable]] = None,
    ) -> Any:
        return self._take(
            ReverseTopKSpec(
                q=tuple(q),
                k=k,
                weights=tuple(tuple(w) for w in weights),
                user_ids=None if user_ids is None else tuple(user_ids),
            )
        )

    # ------------------------------------------------------------------
    # live updates (the write path; see Session.apply)
    # ------------------------------------------------------------------
    @staticmethod
    def _as_object(
        obj: Union[UncertainObject, Hashable],
        samples: Optional[Sequence[Sequence[float]]],
        probabilities: Optional[Sequence[float]],
        name: Optional[str],
    ) -> UncertainObject:
        if isinstance(obj, UncertainObject):
            if samples is not None or probabilities is not None or name is not None:
                raise ValueError(
                    "cannot combine an UncertainObject with samples=/"
                    "probabilities=/name= overrides; build the replacement "
                    "object yourself, or pass the bare id with samples="
                )
            return obj
        if samples is None:
            raise ValueError(
                "pass an UncertainObject, or an id plus samples= "
                "(and optionally probabilities=/name=)"
            )
        return UncertainObject(obj, samples, probabilities, name=name)

    def insert(
        self,
        obj: Union[UncertainObject, Hashable],
        samples: Optional[Sequence[Sequence[float]]] = None,
        probabilities: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> Any:
        """Insert one object; accepts an object or ``(id, samples=...)``."""
        target = self._as_object(obj, samples, probabilities, name)
        return self._take(UpdateSpec(inserts=(target,)))

    def delete(self, oid: Hashable) -> Any:
        """Delete the object with id *oid*."""
        return self._take(UpdateSpec(deletes=(oid,)))

    def update(
        self,
        obj: Union[UncertainObject, Hashable],
        samples: Optional[Sequence[Sequence[float]]] = None,
        probabilities: Optional[Sequence[float]] = None,
        name: Optional[str] = None,
    ) -> Any:
        """Replace the object sharing the given id, keeping its position."""
        target = self._as_object(obj, samples, probabilities, name)
        return self._take(UpdateSpec(updates=(target,)))

    def apply(self, delta: DatasetDelta) -> Any:
        """Apply a multi-op :class:`DatasetDelta` atomically."""
        return self._take(UpdateSpec.from_delta(delta))


class Client(QueryMethods):
    """Fluent, typed access to one session's query zoo."""

    def __init__(self, session: Session):
        self.session = session

    @property
    def fingerprint(self) -> str:
        return self.session.fingerprint

    @property
    def tracer(self) -> Optional[obs.Tracer]:
        """The session's tracer (``None`` unless opened with ``trace=``)."""
        return self.session.tracer

    def cache_stats(self) -> dict:
        return self.session.cache_stats()

    def metrics(self) -> dict:
        """Snapshot of the process-global metrics registry (plain dict)."""
        return obs.registry().snapshot()

    def close(self) -> None:
        """Close the tracer's owned sink, if any (idempotent)."""
        if self.session.tracer is not None:
            self.session.tracer.close()

    def query(self, spec: QuerySpec) -> QueryResult:
        """Execute any spec — including runtime-registered families."""
        return self.session.query(spec)

    def batch(self) -> "BatchBuilder":
        """Start a fluent batch; finish with ``.run()`` or ``.stream()``."""
        return BatchBuilder(self)

    def __repr__(self) -> str:
        return f"<Client {self.session!r}>"


class SpecBatch(QueryMethods):
    """The spec list both batch builders accumulate; ``_take`` is ``add``.

    Update specs run only in a serial batch (see ``UpdateSpec.mutates``).
    """

    def __init__(self, client: Any):
        self._client = client
        self._specs: List[QuerySpec] = []

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def specs(self) -> List[QuerySpec]:
        return list(self._specs)

    def add(self, spec: QuerySpec) -> "SpecBatch":
        self._specs.append(spec)
        return self

    _take = add

    def extend(self, specs: Iterable[QuerySpec]) -> "SpecBatch":
        self._specs.extend(specs)
        return self


class BatchBuilder(SpecBatch):
    """Accumulates specs fluently; executes with error-capturing envelopes."""

    def __init__(self, client: Client):
        super().__init__(client)
        self._last_executor: Optional[Executor] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _executor(self, workers: int, executor: Optional[Executor]) -> Executor:
        if executor is not None:
            return executor
        if workers > 1:
            return ParallelExecutor(workers=workers)
        return SerialExecutor()

    def stream(
        self, workers: int = 1, executor: Optional[Executor] = None
    ) -> Iterator[QueryResult]:
        """Yield one envelope per spec, incrementally, in input order.

        The fingerprint is re-read per envelope so a serial batch that
        interleaves ``update`` specs stamps each result with the dataset
        version it was actually computed against.
        """
        session = self._client.session
        chosen = self._executor(workers, executor)
        self._last_executor = chosen
        for outcome in chosen.stream(session, list(self._specs)):
            yield QueryResult.from_outcome(
                outcome, fingerprint=session.fingerprint
            )

    def run(
        self, workers: int = 1, executor: Optional[Executor] = None
    ) -> List[QueryResult]:
        """Execute the batch and return all envelopes at once."""
        return list(self.stream(workers=workers, executor=executor))

    def cache_stats(self) -> Optional[dict]:
        """Merged hit/miss/eviction counters for the last run.

        For a parallel run this aggregates the per-worker cache deltas
        (workers hold private caches), so churn-induced cold-cache
        regressions show up even though the parent session's own cache
        saw no traffic.  ``None`` before the first ``run()``/``stream()``.
        """
        if (
            self._last_executor is None
            or self._last_executor.last_cache_stats is None
        ):
            return None
        return self._last_executor.last_cache_stats.as_dict()

    def metrics(self) -> Optional[dict]:
        """Metrics delta for the last run, in registry-snapshot shape.

        For a parallel run this is the merged worker hand-back (also
        folded into the process-global registry); ``None`` before the
        first ``run()``/``stream()``.
        """
        if self._last_executor is None:
            return None
        return self._last_executor.last_metrics
