"""Executors: serial and multiprocess fan-out for query batches.

The :class:`ParallelExecutor` ships the *dataset contents* to each worker
once, via the pool initializer; workers build their own session (index,
cache, kernels) and then drain chunks of ``(index, spec)`` pairs.
Contiguous chunks submitted in order keep the result order deterministic
and identical to the serial executor, which is asserted by the engine
parity tests.
Per-spec *data* errors (unknown object ids, a causality query on an
object that is actually an answer, ...) are captured into the outcome's
``error`` field rather than aborting the batch; spec/session mismatches
still fail fast in the parent before any work is dispatched.

Worker fan-out runs on :class:`concurrent.futures.ProcessPoolExecutor`
rather than ``multiprocessing.Pool`` because the former *detects* worker
death: a SIGKILLed worker raises :class:`BrokenProcessPool` instead of
hanging a ``Pool.map`` forever.  On the first crash the executor salvages
every chunk that completed, respawns the pool once (with ``worker.chunk``
fault rules disarmed so an injected kill cannot re-fire), resubmits only
the incomplete chunks, and keeps the deterministic order; a second crash
raises :class:`~repro.exceptions.WorkerCrashError`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults, obs
from repro.engine.cache import CacheStats
from repro.engine.spec import QuerySpec
from repro.exceptions import ReproError, WorkerCrashError, error_code
from repro.uncertain.dataset import CertainDataset, UncertainDataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import QueryOutcome, Session


def _execute_captured(session: "Session", spec: QuerySpec) -> "QueryOutcome":
    """Run one spec, converting data errors into a failed outcome.

    The failed outcome carries the legacy combined ``error`` string plus
    the machine-actionable split (``error_type``/``error_code``/
    ``error_message``) that the API layer serializes into envelopes.
    """
    from repro.engine.session import QueryOutcome

    started = time.perf_counter()
    try:
        return session._execute_outcome(spec)
    except (ReproError, KeyError, ValueError) as exc:
        return QueryOutcome(
            spec=spec,
            value=None,
            cached=False,
            elapsed_s=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            error_code=error_code(exc),
            error_message=str(exc),
        )


# ---------------------------------------------------------------------------
# dataset (de)hydration — ship the contents; each worker builds its own index
# ---------------------------------------------------------------------------
def _dataset_payload(dataset: UncertainDataset) -> Dict[str, Any]:
    if isinstance(dataset, CertainDataset):
        return {
            "kind": "certain",
            "points": dataset.points,
            "ids": dataset.ids(),
            "names": [obj.name for obj in dataset],
            "page_size": dataset.page_size,
        }
    return {
        "kind": "uncertain",
        "objects": dataset.objects(),
        "page_size": dataset.page_size,
    }


def _restore_dataset(payload: Dict[str, Any]) -> UncertainDataset:
    if payload["kind"] == "certain":
        return CertainDataset(
            payload["points"],
            ids=payload["ids"],
            names=payload["names"],
            page_size=payload["page_size"],
        )
    return UncertainDataset(payload["objects"], page_size=payload["page_size"])


# ---------------------------------------------------------------------------
# worker plumbing (module-level for picklability under any start method)
# ---------------------------------------------------------------------------
_WORKER_SESSION: Optional["Session"] = None


def _worker_init(
    payload: Dict[str, Any],
    pdf_objects: Optional[list],
    session_kwargs: Dict[str, Any],
    trace_enabled: bool = False,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> None:
    from repro.engine.session import Session

    global _WORKER_SESSION
    # Fault hit counts are per *process*: install the shipped plan fresh
    # (install(None) also clears any injector inherited across fork, so
    # a worker never double-counts the parent's seam passes).
    faults.install(fault_plan)
    # A Tracer holds thread-local state and maybe a file handle, so the
    # parent ships a flag instead of its tracer: a traced parent gives
    # every worker a private in-memory collector whose finished span
    # trees are drained per chunk and pickled back as plain dicts.
    if trace_enabled:
        session_kwargs = dict(session_kwargs, tracer=obs.Tracer())
    session = Session(_restore_dataset(payload), **session_kwargs)
    if pdf_objects:
        session._pdf_objects = {obj.oid: obj for obj in pdf_objects}
    _WORKER_SESSION = session


def _worker_run(
    chunk: List[Tuple[int, QuerySpec]]
) -> Tuple[
    List[Tuple[int, "QueryOutcome"]],
    CacheStats,
    Dict[str, Any],
    List[Dict[str, Any]],
]:
    """Run one chunk; returns outcomes plus this chunk's observability deltas.

    Worker cache stats and metrics accumulate across chunks within one
    process, so the parent can't just sum end-of-batch snapshots — each
    chunk reports the *delta* it contributed (cache counters, a metrics
    delta snapshot, and any finished span trees as picklable dicts) and
    the parent merges those into the batch-wide totals.
    """
    assert _WORKER_SESSION is not None, "worker initialized without a session"
    rule = faults.check(
        "worker.chunk", chunk_start=chunk[0][0] if chunk else -1
    )
    if rule is not None and rule.action == "kill":
        # A real crash, not an exception: SIGKILL gives the pool no
        # chance to clean up, which is exactly the failure mode the
        # parent-side recovery has to survive.
        os.kill(os.getpid(), signal.SIGKILL)
    stats = _WORKER_SESSION.cache.stats
    before = (stats.hits, stats.misses, stats.evictions)
    metrics_before = obs.registry().snapshot()
    outcomes = [
        (index, _execute_captured(_WORKER_SESSION, spec))
        for index, spec in chunk
    ]
    delta = CacheStats(
        hits=stats.hits - before[0],
        misses=stats.misses - before[1],
        evictions=stats.evictions - before[2],
    )
    metrics_delta = obs.MetricsRegistry.diff(
        metrics_before, obs.registry().snapshot()
    )
    spans = (
        [root.to_dict() for root in _WORKER_SESSION.tracer.drain()]
        if _WORKER_SESSION.tracer is not None
        else []
    )
    return outcomes, delta, metrics_delta, spans


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------
class Executor:
    """Maps a batch of specs over a session, preserving input order."""

    #: Merged hit/miss/eviction counters for the most recent batch run by
    #: this executor — across *all* worker processes for the parallel
    #: executor, so cold-cache regressions under churn stay observable
    #: even though workers hold private caches.  ``None`` until a batch
    #: has run; updated incrementally while a stream is being consumed.
    last_cache_stats: Optional[CacheStats] = None

    #: Metrics delta attributable to the most recent batch, in
    #: :meth:`~repro.obs.MetricsRegistry.snapshot` shape.  For the
    #: parallel executor this is the merged worker hand-back (which is
    #: also folded into the parent's process-global registry); for the
    #: serial executor it is a diff of that registry around the batch.
    last_metrics: Optional[Dict[str, Any]] = None

    def map(
        self, session: "Session", specs: Sequence[QuerySpec]
    ) -> List["QueryOutcome"]:
        """All outcomes, in input order: :meth:`stream` drained."""
        return list(self.stream(session, specs))

    def stream(
        self, session: "Session", specs: Sequence[QuerySpec]
    ) -> Iterator["QueryOutcome"]:
        """Yield outcomes in input order as they complete.

        This is what feeds the client's ``.stream()`` and the CLI's
        NDJSON ``batch --stream`` output.
        """
        raise NotImplementedError

    @staticmethod
    def _precheck(session: "Session", specs: Sequence[QuerySpec]) -> None:
        """Spec/session mismatches are caller bugs: fail the batch up front."""
        for spec in specs:
            session._check_spec(spec)


class SerialExecutor(Executor):
    """Run the batch in-process, one spec at a time."""

    def stream(
        self, session: "Session", specs: Sequence[QuerySpec]
    ) -> Iterator["QueryOutcome"]:
        specs = list(specs)
        self._precheck(session, specs)
        stats = session.cache.stats
        base = (stats.hits, stats.misses, stats.evictions)
        metrics_base = obs.registry().snapshot()
        self.last_cache_stats = CacheStats()
        self.last_metrics = obs.MetricsRegistry.diff(metrics_base, metrics_base)
        for spec in specs:
            outcome = _execute_captured(session, spec)
            # record before yielding: an abandoned stream must still
            # account for every spec that actually executed
            self.last_cache_stats.hits = stats.hits - base[0]
            self.last_cache_stats.misses = stats.misses - base[1]
            self.last_cache_stats.evictions = stats.evictions - base[2]
            self.last_metrics = obs.MetricsRegistry.diff(
                metrics_base, obs.registry().snapshot()
            )
            yield outcome


class ParallelExecutor(Executor):
    """Chunked multiprocess fan-out with deterministic result ordering.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the CPU count.
    chunk_size:
        Specs per task; defaults to splitting the batch into ~4 chunks per
        worker so session-construction cost amortizes while stragglers
        still balance.
    cache_size:
        Capacity of each worker's private LRU cache (workers cannot share
        the parent cache; 0 disables worker caching).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        cache_size: int = 4096,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.cache_size = cache_size

    # ------------------------------------------------------------------
    def _chunks(
        self, indexed: List[Tuple[int, QuerySpec]]
    ) -> List[List[Tuple[int, QuerySpec]]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(indexed) / (self.workers * 4)))
        return [indexed[i : i + size] for i in range(0, len(indexed), size)]

    def _initargs(
        self, session: "Session"
    ) -> Tuple[
        Dict[str, Any],
        Optional[list],
        Dict[str, Any],
        bool,
        Optional[faults.FaultPlan],
    ]:
        payload = _dataset_payload(session.dataset)
        pdf_objects = (
            list(session._pdf_objects.values())
            if session.has_pdf_objects
            else None
        )
        # Workers inherit the parent session's build_index verbatim: a
        # lazy session stays lazy worker-side too, and an eager worker
        # builds its index at session start.
        session_kwargs: Dict[str, Any] = {"build_index": session.build_index}
        if self.cache_size <= 0:
            session_kwargs["cache"] = None
        else:
            session_kwargs["cache_size"] = self.cache_size
        # The tracer itself stays out of session_kwargs (it is not
        # picklable); workers rebuild their own from this flag.  An
        # installed fault plan ships along so injected worker faults
        # (e.g. worker.chunk kills) fire inside real pool processes.
        injector = faults.active()
        return (
            payload,
            pdf_objects,
            session_kwargs,
            session.tracer is not None,
            injector.plan if injector is not None else None,
        )

    @staticmethod
    def _context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            return multiprocessing.get_context()

    @staticmethod
    def _reject_mutating(specs: Sequence[QuerySpec]) -> None:
        """Mutating specs (dataset updates) may not fan out to workers.

        Workers hold private copies of the dataset, so a mutation applied
        there is silently lost — and its ordering relative to queries in
        other chunks would be undefined even if it were not.  This holds
        even on the single-worker serial fallback, so behavior does not
        depend on the worker count.
        """
        mutating = sorted({s.kind for s in specs if getattr(s, "mutates", False)})
        if mutating:
            raise ValueError(
                f"mutating spec kind(s) {mutating} cannot run under a "
                "ParallelExecutor; apply updates serially (SerialExecutor "
                "or Session.apply) between read-only batches"
            )

    def _completed_parts(
        self,
        chunks: List[List[Tuple[int, QuerySpec]]],
        initargs: Tuple[Any, ...],
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(chunk_index, worker part)`` in chunk order, surviving
        one pool crash.

        Chunks are submitted in order and awaited in order, so delivery
        matches the serial executor exactly.  When the pool breaks
        (a worker was SIGKILLed or died in its initializer), whether
        before every chunk was submitted or while they run, every chunk
        that already completed is salvaged from its future, the pool is
        respawned once with ``worker.chunk`` fault rules disarmed
        (``sticky`` rules survive, which is how the give-up path is
        tested), and only the incomplete chunks are resubmitted.  A
        second crash raises :class:`WorkerCrashError` — never a hang.
        """
        total = len(chunks)
        parts: Dict[int, Any] = {}
        pending = list(range(total))
        next_out = 0
        for attempt in range(2):
            executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending)),
                mp_context=self._context(),
                initializer=_worker_init,
                initargs=initargs,
            )
            futures: Dict[int, Any] = {}
            try:
                try:
                    # A worker can die while later chunks are still being
                    # submitted: submit() then raises BrokenProcessPool
                    # just as the broken futures' result() does.
                    for index in pending:
                        futures[index] = executor.submit(
                            _worker_run, chunks[index]
                        )
                    for index in pending:
                        parts[index] = futures[index].result()
                        while next_out in parts:
                            yield next_out, parts.pop(next_out)
                            next_out += 1
                except BrokenProcessPool:
                    # Chunks that finished before the crash are results
                    # we already hold — only the rest get resubmitted.
                    for index, future in futures.items():
                        if (
                            index not in parts
                            and future.done()
                            and not future.cancelled()
                            and future.exception() is None
                        ):
                            parts[index] = future.result()
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            pending = [
                index for index in range(next_out, total) if index not in parts
            ]
            if not pending:
                break
            if attempt == 1:
                raise WorkerCrashError(
                    f"worker pool crashed twice; {len(pending)} of {total} "
                    "chunk(s) unrecovered"
                )
            initargs = self._disarm_worker_kills(initargs)
            obs.registry().counter("fault.worker_respawns").inc()
        while next_out in parts:
            yield next_out, parts.pop(next_out)
            next_out += 1

    @staticmethod
    def _disarm_worker_kills(initargs: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The respawn initargs: same payload, kill rules removed.

        Without this a respawned worker would re-fire the very
        ``worker.chunk`` rule that killed its predecessor (hit counters
        are per process) and recovery could never converge.
        """
        plan = initargs[-1]
        if plan is None:
            return initargs
        return initargs[:-1] + (plan.drop("worker.chunk"),)

    def _merge_stats(self, delta: CacheStats) -> None:
        merged = self.last_cache_stats
        merged.hits += delta.hits
        merged.misses += delta.misses
        merged.evictions += delta.evictions

    @staticmethod
    def _merge_obs(
        session: "Session",
        batch_metrics: "obs.MetricsRegistry",
        metrics_delta: Dict[str, Any],
        spans: List[Dict[str, Any]],
    ) -> None:
        """Fold one chunk's worker-side observability back into the parent.

        Metrics deltas land both in the process-global registry (so a
        parallel batch reads like a serial one there) and in the
        per-batch scratch registry behind ``last_metrics``; worker span
        trees are re-hydrated into the parent session's tracer, which
        re-exports them through whatever sink it was built with.
        """
        obs.registry().merge(metrics_delta)
        batch_metrics.merge(metrics_delta)
        if spans and session.tracer is not None:
            session.tracer.ingest(spans)

    def stream(
        self, session: "Session", specs: Sequence[QuerySpec]
    ) -> Iterator["QueryOutcome"]:
        """Incremental fan-out: outcomes arrive chunk by chunk, in order.

        Ordered-chunk submission (with its crash recovery) keeps delivery
        order identical to the serial executor while a consumer (the
        NDJSON streamer) sees results as each chunk finishes instead of
        waiting for the whole batch.
        """
        specs = list(specs)
        if not specs:
            return
        self._precheck(session, specs)
        self._reject_mutating(specs)
        if self.workers == 1 or len(specs) == 1:
            serial = SerialExecutor()
            try:
                yield from serial.stream(session, specs)
            finally:
                self.last_cache_stats = serial.last_cache_stats
                self.last_metrics = serial.last_metrics
            return

        chunks = self._chunks(list(enumerate(specs)))
        self.last_cache_stats = CacheStats()
        batch_metrics = obs.MetricsRegistry()
        self.last_metrics = batch_metrics.snapshot()
        depth = obs.registry().gauge("batch.queue_depth")
        depth.set(len(chunks))
        remaining = len(chunks)
        try:
            for _chunk_index, (part, delta, metrics_delta, spans) in (
                self._completed_parts(chunks, self._initargs(session))
            ):
                remaining -= 1
                depth.set(remaining)
                self._merge_stats(delta)
                self._merge_obs(session, batch_metrics, metrics_delta, spans)
                self.last_metrics = batch_metrics.snapshot()
                for _index, outcome in part:
                    yield outcome
        finally:
            depth.set(0)
