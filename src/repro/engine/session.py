"""Sessions: long-lived query-execution contexts over one dataset.

The seed entry points rebuild the R-tree and re-evaluate PRSQ
probabilities from scratch for every query point.  A :class:`Session`
amortizes that work across queries:

* the dataset R-tree is packed **once**, at session construction, and
  again only after a write;
* results (and the expensive PRSQ probability maps) are memoized in an
  LRU cache keyed by ``(dataset fingerprint, query identity)``, so a
  cache object can outlive the session — or be shared between sessions —
  without stale hits;
* batches fan out through an :class:`~repro.engine.executor.Executor`
  (serial or multiprocess) with deterministic result ordering.

Typical use::

    session = Session(dataset)
    envelope = session.query(PRSQSpec(q=(5.0, 5.0), alpha=0.5))
    outcomes = session.execute_batch(specs, executor=ParallelExecutor(4))

(Most callers should prefer the :func:`repro.api.connect` client facade.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.model import CausalityResult
from repro.engine.cache import LRUCache, NullCache
from repro.engine.plan import QueryPlan, compile_plan
from repro.engine.spec import QuerySpec
from repro.exceptions import SpecMismatchError
from repro.prsq.query import ProbabilityMap, prsq_probability_map
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.pdf import ContinuousUncertainObject

CacheLike = Union[LRUCache, NullCache]

_DEFAULT = object()  # sentinel: "build a private cache"


def _copy_out(value: Any) -> Any:
    """Copy cached results so caller mutation can't poison the cache.

    Lists/dicts are shallow-copied; a :class:`CausalityResult` gets a fresh
    causes dict and stats (the :class:`Cause` values themselves are frozen).
    """
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, CausalityResult):
        return CausalityResult(
            an_oid=value.an_oid,
            alpha=value.alpha,
            causes=dict(value.causes),
            stats=replace(value.stats),
        )
    return value


def dataset_fingerprint(dataset: UncertainDataset) -> str:
    """Content hash of a dataset: ids, names, samples, probabilities.

    Two datasets fingerprint equal iff they hold the same objects in the
    same order with bit-identical sample/probability arrays, so the
    fingerprint is a sound cache-key component: any data change — an
    added, removed, reordered or perturbed object — changes the key and
    silently invalidates every cached result for the old contents.  Every
    field is length-prefixed (and arrays carry their shape) so no two
    distinct datasets can concatenate to the same byte stream.

    The hash combines per-object digests cached on the (immutable) objects
    — see :meth:`repro.uncertain.dataset.UncertainDataset.content_digest`
    — so after an incremental :meth:`Session.apply` only changed objects
    are re-hashed and the refresh costs O(changed), not O(n) sample bytes.
    """
    return dataset.content_digest()


@dataclass
class QueryOutcome:
    """One executed query: the spec, its value, and execution metadata.

    Batch executors capture per-spec data errors (unknown ids, non-answers
    that are answers, ...) instead of aborting the batch: a failed outcome
    has ``value None``, ``error`` set to the legacy ``"Type: message"``
    string, and the machine-actionable split — ``error_type`` (exception
    class name), ``error_code`` (:func:`repro.exceptions.error_code`
    taxonomy), ``error_message`` (bare text) — filled in alongside.
    """

    spec: QuerySpec
    value: Any
    cached: bool
    elapsed_s: float
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    #: Per-phase wall-time totals (``filter``/``refine``/``probability``/
    #: ``cache-lookup``/...) aggregated from the query's span tree; only
    #: filled when the session has a tracer.  Plain picklable floats, so
    #: worker outcomes carry their breakdowns back to the parent.
    phases: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        tag = (
            f"error={self.error!r}"
            if self.error is not None
            else ("cached" if self.cached else "computed")
        )
        return (
            f"<QueryOutcome {self.spec.kind} {tag} "
            f"{self.elapsed_s * 1e3:.2f} ms>"
        )


class Session:
    """A reusable execution context: dataset + STR-packed index + cache.

    Parameters
    ----------
    dataset:
        The dataset all queries run against (uncertain or certain).
    cache:
        ``None`` disables caching; omit it for a private
        :class:`~repro.engine.cache.LRUCache`; pass an explicit cache to
        share one across sessions (fingerprinted keys keep them disjoint).
    cache_size:
        Capacity of the private cache when one is built; ``0`` disables
        caching (same convention as the executor and the CLI).
    build_index:
        Pack the dataset R-tree (:attr:`UncertainDataset.packed`) eagerly
        at construction (default) instead of on first use.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When set, every query runs
        under a root ``query`` span, instrumented phases (filter, refine,
        probability, cache-lookup, index-search, ...) nest beneath it,
        and each outcome carries a ``phases`` wall-time breakdown.  With
        ``None`` (the default) the instrumentation sites resolve to a
        shared no-op span.
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        cache: Any = _DEFAULT,
        cache_size: int = 4096,
        build_index: bool = True,
        tracer: Optional[obs.Tracer] = None,
    ):
        self.dataset = dataset
        self.build_index = build_index
        self.tracer = tracer
        #: Monotonic dataset version: 0 at construction, bumped by every
        #: :meth:`apply` / :meth:`replace_dataset`.  Purely informational —
        #: cache soundness rides on the fingerprint, not the version.
        self.version = 0
        if cache is _DEFAULT:
            self.cache: CacheLike = (
                LRUCache(cache_size) if cache_size > 0 else NullCache()
            )
        elif cache is None:
            self.cache = NullCache()
        else:
            self.cache = cache
        self._pdf_objects: Dict[Hashable, ContinuousUncertainObject] = {}
        if build_index:
            dataset.packed

    # ------------------------------------------------------------------
    # construction variants
    # ------------------------------------------------------------------
    @classmethod
    def from_pdf_objects(
        cls,
        objects: Sequence[ContinuousUncertainObject],
        samples_per_object: int = 64,
        seed: int = 0,
        **kwargs: Any,
    ) -> "Session":
        """A session over continuous pdf objects (Section 3.2).

        The objects are discretized **once** into the session dataset; pdf
        causality queries reuse both the discretization and the exact
        region geometry instead of re-sampling per query.
        """
        rng = np.random.default_rng(seed)
        dataset = UncertainDataset(
            [obj.discretize(samples_per_object, rng) for obj in objects]
        )
        session = cls(dataset, **kwargs)
        session._pdf_objects = {obj.oid: obj for obj in objects}
        return session

    # ------------------------------------------------------------------
    # properties / helpers
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The live dataset's content digest (cache-key material).

        Delegates to the dataset, which caches the combined digest and
        invalidates it on every mutation — so a dataset mutated directly
        through its own ``insert_object``/``delete_object``/``apply_delta``
        API (or through another session sharing it) can never leave this
        session serving results under a stale fingerprint.  Lazy: a parent
        session that only validates and dispatches (the parallel CLI path)
        never pays the hashing pass.
        """
        return self.dataset.content_digest()

    @property
    def is_certain(self) -> bool:
        return isinstance(self.dataset, CertainDataset)

    @property
    def has_pdf_objects(self) -> bool:
        return bool(self._pdf_objects)

    def pdf_object(self, oid: Hashable) -> ContinuousUncertainObject:
        if not self._pdf_objects:
            raise ValueError(
                "this session was not created with Session.from_pdf_objects; "
                "pdf causality queries need the continuous objects"
            )
        try:
            return self._pdf_objects[oid]
        except KeyError:
            from repro.exceptions import UnknownObjectError

            raise UnknownObjectError(f"unknown pdf object {oid!r}") from None

    def cache_stats(self) -> Dict[str, float]:
        return self.cache.stats.as_dict()

    def _key(self, *parts: Hashable) -> Tuple:
        """Result-cache key: the dataset fingerprint, then the spec parts."""
        return (self.fingerprint,) + parts

    def _check_spec(self, spec: QuerySpec) -> None:
        if spec.dataset_kind == "certain" and not self.is_certain:
            raise SpecMismatchError(
                f"{spec.kind} queries need a CertainDataset session"
            )
        if spec.dataset_kind == "pdf" and not self.has_pdf_objects:
            raise SpecMismatchError(
                f"{spec.kind} queries need a Session.from_pdf_objects session"
            )

    # ------------------------------------------------------------------
    # shared cached sub-computations
    # ------------------------------------------------------------------
    def probability_map(self, q: Sequence[float]) -> ProbabilityMap:
        """``Pr(u)`` for every object at query point *q*, cached.

        The probability map is alpha-independent, so PRSQ queries at the
        same point with different thresholds share one evaluation — this
        is the engine's single biggest amortization for multi-user traffic
        against a common catalogue.  The map is read-only, so the cache
        hands out the cached object itself; it stores only the rows the
        Lemma-4 pre-pass left to compute.
        """
        q_tuple = tuple(float(v) for v in q)
        key = self._key("prsq-probabilities", q_tuple)
        value, _ = self.cache.get_or_compute(
            key, lambda: prsq_probability_map(self.dataset, q_tuple)
        )
        return value

    def prsq_probabilities(self, q: Sequence[float]) -> Dict[Hashable, float]:
        """:meth:`probability_map` as a plain dict (a private copy)."""
        return dict(self.probability_map(q).items())

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def plan(self, spec: QuerySpec) -> QueryPlan:
        """Compile (but do not run) the plan for *spec*."""
        self._check_spec(spec)
        return compile_plan(spec)

    def _run_cached(self, plan: QueryPlan, spec: QuerySpec) -> Tuple[Any, bool]:
        """``(value, was_hit)`` through the result cache.

        Specs flagged ``cacheable = False`` (dataset updates) bypass the
        result cache entirely: caching a mutation would let a repeated
        identical update hit the cache and silently not apply.
        """
        if not getattr(spec, "cacheable", True):
            return plan.execute(self), False
        key = self._key(*spec.cache_key())
        return self.cache.get_or_compute(key, lambda: plan.execute(self))

    def _execute_outcome(self, spec: QuerySpec) -> QueryOutcome:
        """Execute *spec* with result caching; returns the outcome record.

        ``elapsed_s`` spans plan compilation through cache lookup and
        execution, so a cache *hit* reports its actual lookup cost rather
        than a near-zero residue.  Per-family latency histograms, result
        cache hit/miss counters and the node-access counter always record
        into the global :func:`repro.obs.registry`; the span tree (and the
        per-outcome ``phases`` breakdown) is built only when this session
        has a tracer.
        """
        started = time.perf_counter()
        plan = self.plan(spec)
        access_before = self.dataset.access_stats.snapshot()
        tracer = self.tracer
        if tracer is None:
            value, was_hit = self._run_cached(plan, spec)
            phases: Optional[Dict[str, float]] = None
        else:
            with tracer.activate():
                with tracer.span("query", kind=spec.kind) as root:
                    value, was_hit = self._run_cached(plan, spec)
                    root.set(
                        cached=was_hit,
                        node_accesses=(
                            self.dataset.access_stats.snapshot()
                            - access_before
                        ).node_accesses,
                    )
            phases = root.phase_totals()
        elapsed = time.perf_counter() - started

        metrics = obs.registry()
        metrics.counter(f"query.{spec.kind}.count").inc()
        metrics.counter(
            "cache.result.hits" if was_hit else "cache.result.misses"
        ).inc()
        access_delta = self.dataset.access_stats.snapshot() - access_before
        if access_delta.node_accesses:
            metrics.counter("index.node_accesses").inc(
                access_delta.node_accesses
            )
        metrics.histogram(f"query.{spec.kind}.latency_s").observe(elapsed)

        return QueryOutcome(
            spec=spec,
            value=_copy_out(value),
            cached=was_hit,
            elapsed_s=elapsed,
            phases=phases,
        )

    def query(self, spec: QuerySpec) -> "QueryResult":
        """Execute *spec* and return the typed v2 envelope.

        This is the canonical single-query entry point; prefer the
        :func:`repro.api.connect` client facade, which builds specs for
        you.  Errors raise; batch paths capture them into envelopes
        instead.
        """
        from repro.api.results import QueryResult

        return QueryResult.from_outcome(
            self._execute_outcome(spec), fingerprint=self.fingerprint
        )

    def execute_batch(
        self,
        specs: Iterable[QuerySpec],
        executor: Optional["Executor"] = None,
    ) -> List[QueryOutcome]:
        """Execute a batch of specs, preserving input order.

        With no executor the batch runs serially in-process; pass a
        :class:`~repro.engine.executor.ParallelExecutor` to fan out across
        worker processes (results come back in the same order either way).

        Spec/session mismatches fail the whole batch up front; per-spec
        data errors (unknown id, an answer posed as a non-answer, ...) are
        captured in the corresponding outcome's ``error`` field so one bad
        query cannot discard the rest of the batch.
        """
        from repro.engine.executor import SerialExecutor

        executor = executor or SerialExecutor()
        return executor.map(self, list(specs))

    # ------------------------------------------------------------------
    # snapshot isolation (the serve layer's read path)
    # ------------------------------------------------------------------
    def read_snapshot(self) -> "Session":
        """A snapshot-isolated read view of this session, frozen now.

        The returned session shares this session's result cache
        (fingerprinted keys keep entries sound across versions) and every
        immutable structure — objects, tensor, index arrays — but owns
        its id maps and access counters, so a later :meth:`apply` or
        :meth:`replace_dataset` here can never be observed by queries
        already running against the snapshot: they keep serving the old
        arrays.  Cost per call is O(n) pointer copies plus, after a
        write, one STR pack of the index from the tensor's boxes; see
        :meth:`repro.uncertain.dataset.UncertainDataset.snapshot`.

        This is the publish step of the serve layer's single-writer
        scheme: the writer applies deltas to the live session, then
        publishes ``read_snapshot()`` for new readers; in-flight readers
        finish on the previous snapshot.
        """
        snapshot = Session(
            self.dataset.snapshot(), cache=self.cache, build_index=False
        )
        snapshot.version = self.version
        snapshot._pdf_objects = dict(self._pdf_objects)
        return snapshot

    def reader(self) -> "Session":
        """An O(1) per-caller view for concurrent reads of one snapshot.

        Shares the dataset's maps/arrays and this session's result cache,
        but owns the node-access counters, so parallel readers of one
        :meth:`read_snapshot` result each measure deterministic per-query
        ``node_accesses`` (causality stats stay bit-identical to a serial
        replay).  Only take readers of immutable snapshot sessions — a
        reader of a *live* session shares maps its writer would patch.
        """
        view = Session(self.dataset.view(), cache=self.cache, build_index=False)
        view.version = self.version
        view._pdf_objects = self._pdf_objects
        return view

    # ------------------------------------------------------------------
    # dataset lifecycle
    # ------------------------------------------------------------------
    def apply(self, delta: DatasetDelta) -> Dict[str, Any]:
        """Apply *delta* to the live dataset incrementally.

        The dataset patches its cached tensor by row and re-combines the
        content digest from cached per-object digests, in O(changed) work;
        its index is dropped and packed afresh from the tensor's boxes on
        next use, so it depends only on the contents.  The session then
        bumps :attr:`version` and refreshes its fingerprint, so every
        cached result keyed by the old fingerprint can never be served
        again; with a shared cache the old entries simply age out of the
        LRU.

        Returns a summary dict (the raw payload the ``update`` query
        family wraps): old/new fingerprints, the new version, op counts,
        and the resulting object count.

        Pdf sessions are refused: their dataset is a discretization of the
        continuous objects, and patching one side would silently desync
        the other — rebuild via :meth:`from_pdf_objects`, or use
        :meth:`replace_dataset` with ``pdf_objects=``.
        """
        if self.has_pdf_objects:
            raise ValueError(
                "cannot apply a dataset delta to a Session.from_pdf_objects "
                "session: the discrete dataset is derived from the continuous "
                "objects; rebuild with Session.from_pdf_objects(...) or use "
                "replace_dataset(dataset, pdf_objects=...)"
            )
        previous = self.fingerprint
        self.dataset.apply_delta(delta)
        self.version += 1
        return {
            "version": self.version,
            "n_objects": len(self.dataset),
            "deleted": len(delta.deletes),
            "updated": len(delta.updates),
            "inserted": len(delta.inserts),
            "previous_fingerprint": previous,
            "fingerprint": self.fingerprint,
        }

    def replace_dataset(
        self,
        dataset: UncertainDataset,
        pdf_objects: Optional[Sequence[ContinuousUncertainObject]] = None,
    ) -> None:
        """Swap in a new dataset wholesale — the full-rebuild fallback.

        Prefer :meth:`apply` for small changes; use this when most of the
        dataset changed (bulk reload beats replaying a long delta).  The
        fingerprint is recomputed, so previously cached results can never
        be served for the new contents; old entries age out of the LRU
        naturally.

        A session built with :meth:`from_pdf_objects` must pass matching
        *pdf_objects* (the continuous objects *dataset* discretizes) or an
        empty sequence to explicitly drop the pdf side; omitting the
        argument raises instead of silently breaking later pdf causality
        queries.  The session's ``build_index`` choice is honored: with
        ``build_index=False`` the new index stays lazy.
        """
        if pdf_objects is None and self._pdf_objects:
            raise ValueError(
                "this session was created with Session.from_pdf_objects; "
                "replace_dataset needs the matching pdf_objects= (or an "
                "explicit empty sequence to drop pdf support)"
            )
        self.dataset = dataset
        self.version += 1
        if pdf_objects is not None:
            self._pdf_objects = {obj.oid: obj for obj in pdf_objects}
        if self.build_index:
            dataset.packed  # pack now, as at construction

    def __repr__(self) -> str:
        kind = "certain" if self.is_certain else "uncertain"
        digest = self.dataset._content_digest
        fp = digest[:10] if digest else "(lazy)"
        return (
            f"<Session {kind} n={len(self.dataset)} dims={self.dataset.dims} "
            f"fingerprint={fp} cache={self.cache!r}>"
        )
