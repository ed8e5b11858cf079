"""DatasetService: named live sessions behind snapshot-isolated reads.

One :class:`DatasetState` per hosted dataset holds

* the **writer session** — the only object mutations ever touch, and only
  from the single-writer queue (:class:`~repro.serve.writer.SingleWriter`);
* the **published snapshot** — an immutable
  :meth:`~repro.engine.session.Session.read_snapshot` of the writer
  session, swapped atomically (one attribute store under the GIL) after
  each successful mutation.

A read admits through the shared :class:`~repro.serve.admission.
AdmissionController`, grabs whatever snapshot is published *at that
moment*, wraps it in an O(1) :meth:`~repro.engine.session.Session.reader`
view (private access counters — concurrent causality queries each see
deterministic ``node_accesses``), and executes on the shared thread pool.
Updates landing mid-query are invisible to it: the response's
``session_version`` names exactly the version it saw.

All states share one :class:`~repro.engine.cache.LRUCache`: keys are
fingerprint-prefixed, so entries stay sound across datasets and versions,
and the cache class is lock-protected (PR 7) so reader threads can share
it.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro import faults, obs
from repro.api.results import QueryResult
from repro.engine.cache import LRUCache, NullCache
from repro.engine.executor import _execute_captured
from repro.engine.session import Session
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectionError,
    UnknownDatasetError,
)
from repro.serve.admission import AdmissionController
from repro.serve.protocol import ServeConfig
from repro.serve.writer import SingleWriter
from repro.uncertain.dataset import UncertainDataset

DatasetLike = Union[Session, UncertainDataset]


def _execute_with_deadline(
    reader: Session, spec: Any, deadline: Optional[float]
) -> Any:
    """The pool-side entry for reads: last deadline checkpoint, then run.

    Runs on a worker thread — a request that spent its whole budget
    waiting for a pool slot is answered ``deadline_exceeded`` here
    instead of executing dead work.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError(
            f"deadline expired before execution of {spec.kind!r} began"
        )
    return _execute_captured(reader, spec)


class _Stamp(NamedTuple):
    """What a write's response needs of the snapshot it published."""

    version: int
    fingerprint: str


class DatasetState:
    """One hosted dataset: writer session, published snapshot, writer queue."""

    def __init__(
        self,
        name: str,
        session: Session,
        pool: ThreadPoolExecutor,
        *,
        write_queue: int = 128,
        idem_window: int = 1024,
    ):
        self.name = name
        self.session = session  # the writer's live session
        self.published = session.read_snapshot()
        self.writer = SingleWriter(
            self._apply_write, pool, max_queue=write_queue, name=name,
            idem_window=idem_window,
        )

    def _apply_write(self, spec: Any) -> Any:
        """Blocking: run one mutating spec, publish on success.

        Runs only on the writer queue's pool slot, so the live session is
        never touched concurrently.  The publish is a plain attribute
        store — atomic under the GIL — and failed outcomes leave the old
        snapshot in place.  Returns ``(outcome, stamp)`` where the stamp
        names the snapshot *this* write published (or left in place), so
        the response echoes this write's version even if a queued write
        publishes again before the response is built.  A stamp, not the
        snapshot: the writer's idempotency window records the result of
        each of its last writes, and snapshots would keep all their
        arrays alive.
        """
        rule = faults.check("writer.apply", dataset=self.name, kind=spec.kind)
        if rule is not None and rule.action == "error":
            # Raised *before* the apply touches the session: the escaping
            # exception is what flips the writer dead, exercising the
            # degraded-mode path without actually corrupting anything.
            raise FaultInjectionError(
                rule.message or "injected writer.apply failure"
            )
        outcome = _execute_captured(self.session, spec)
        if outcome.error is None:
            self.published = self.session.read_snapshot()
        published = self.published
        return outcome, _Stamp(published.version, published.fingerprint)

    @property
    def status(self) -> str:
        return "degraded" if self.writer.dead else "ok"

    def info(self) -> Dict[str, Any]:
        published = self.published
        payload = {
            "version": published.version,
            "objects": len(published.dataset),
            "dims": published.dataset.dims,
            "fingerprint": published.fingerprint,
            "kind": type(published.dataset).__name__,
            "write_queue_depth": self.writer.depth,
            "status": self.status,
        }
        if self.writer.dead and self.writer.death_reason:
            payload["degraded_reason"] = self.writer.death_reason
        return payload


class DatasetService:
    """The server's core: route specs to named datasets, bounded + observed.

    ``datasets`` maps names to either prepared :class:`Session` objects
    (the caller controls cache/index choices) or raw datasets (a session
    is built per the config).  Use as an async context manager, or call
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        datasets: Mapping[str, DatasetLike],
        config: Optional[ServeConfig] = None,
    ):
        if not datasets:
            raise ValueError("DatasetService needs at least one dataset")
        self.config = config or ServeConfig()
        self.cache = (
            LRUCache(self.config.cache_size)
            if self.config.cache_size > 0
            else NullCache()
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.threads,
            thread_name_prefix="repro-serve",
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
        )
        self._states: Dict[str, DatasetState] = {}
        for name, item in datasets.items():
            session = (
                item
                if isinstance(item, Session)
                else Session(item, cache=self.cache)
            )
            self._states[name] = DatasetState(
                name, session, self._pool,
                write_queue=self.config.write_queue,
                idem_window=self.config.idem_window,
            )
        self._started = time.monotonic()
        metrics = obs.registry()
        self._requests = metrics.counter("serve.requests")
        self._failures = metrics.counter("serve.request_failures")
        self._latency = metrics.histogram("serve.request_latency_s")
        self._deadlines = metrics.counter("serve.deadline_exceeded")

    # ------------------------------------------------------------------
    async def start(self) -> None:
        for name in sorted(self._states):
            self._states[name].writer.start()

    async def stop(self) -> None:
        for name in sorted(self._states):
            await self._states[name].writer.stop()
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "DatasetService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    def dataset_names(self) -> List[str]:
        return sorted(self._states)

    def state(self, name: str) -> DatasetState:
        try:
            return self._states[name]
        except KeyError:
            raise UnknownDatasetError(
                f"unknown dataset {name!r}; hosting {self.dataset_names()}"
            ) from None

    def retry_after(self) -> float:
        return self.admission.retry_after()

    def degraded_datasets(self) -> List[str]:
        """Names of hosted datasets whose writer has died (read-only)."""
        return sorted(
            name for name, state in self._states.items()
            if state.writer.dead
        )

    # ------------------------------------------------------------------
    async def execute(
        self,
        spec: Any,
        dataset: str = "default",
        *,
        deadline: Optional[float] = None,
        idem: Optional[str] = None,
    ) -> Tuple[QueryResult, int]:
        """Run one spec; return ``(envelope, session_version)``.

        Mutating specs go through the dataset's single-writer queue
        (never the admission path — a full read queue must not be able to
        starve writes, and vice versa); reads admit, snapshot, and run on
        the pool.  Raises :class:`~repro.exceptions.OverloadedError` on
        rejection; data errors come back *inside* the envelope.

        *deadline* is an absolute ``time.monotonic()`` instant checked at
        every checkpoint (admission wait, pool dispatch, write queue);
        past it the request is answered with a ``deadline_exceeded``
        error instead of executing dead work.  *idem* keys mutations for
        exactly-once retries (see :meth:`SingleWriter.submit`).
        """
        state = self.state(dataset)
        started = time.perf_counter()
        self._requests.inc()
        try:
            if getattr(spec, "mutates", False):
                outcome, published = await state.writer.submit(
                    spec, idem=idem, deadline=deadline
                )
                envelope = QueryResult.from_outcome(
                    outcome, fingerprint=published.fingerprint
                )
                version = published.version
            else:
                async with self.admission.slot(deadline):
                    published = state.published
                    reader = published.reader()
                    outcome = await asyncio.get_running_loop().run_in_executor(
                        self._pool, _execute_with_deadline,
                        reader, spec, deadline,
                    )
                    envelope = QueryResult.from_outcome(
                        outcome, fingerprint=published.fingerprint
                    )
                    version = published.version
        except DeadlineExceededError:
            self._deadlines.inc()
            self._failures.inc()
            raise
        except Exception:
            self._failures.inc()
            raise
        finally:
            self._latency.observe(time.perf_counter() - started)
        if not envelope.ok:
            self._failures.inc()
        return envelope, version

    # ------------------------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` op body: service info, SLO quantiles, metrics."""
        snapshot = obs.registry().snapshot()
        slo: Dict[str, Dict[str, Any]] = {}
        for name, hist in snapshot.get("histograms", {}).items():
            if not (
                name == "serve.request_latency_s"
                or (name.startswith("query.") and name.endswith(".latency_s"))
            ):
                continue
            p50 = obs.quantile_from_snapshot(hist, 0.50)
            p99 = obs.quantile_from_snapshot(hist, 0.99)
            slo[name] = {
                "count": hist["count"],
                "p50_ms": None if p50 is None else round(p50 * 1e3, 3),
                "p99_ms": None if p99 is None else round(p99 * 1e3, 3),
            }
        return {
            "service": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "threads": self.config.threads,
                "cache": self.cache.stats.as_dict(),
                "admission": self.admission.snapshot(),
                "degraded": self.degraded_datasets(),
            },
            "datasets": {
                name: state.info() for name, state in self._states.items()
            },
            "slo": slo,
            "metrics": snapshot,
        }
