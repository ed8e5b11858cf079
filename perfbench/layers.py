"""Per-layer tracing from outside the program: timed wrappers on public calls.

The traced run replaces each layer's public function (the table in
``LAYERS``) with a wrapper that records the call's *self* time: its wall
time minus the wall time of wrapped calls made beneath it.  Parents are
tracked in a ``contextvars`` variable, so a span knows its parent across
``await`` points (one asyncio task per request) and, once
:func:`propagate_context_to_pools` is in force, across the hop from the
event loop onto a worker thread.

The server's single-writer queue applies mutations on a pool thread from
a drain task that no request owns; spans that start there with no parent
are charged to the oldest ``SingleWriter.submit`` still waiting.  That is
exact while one connection writes in a closed loop, which is the only way
the benchmark writes.

Nothing here is imported by the program.  A name in ``LAYERS`` that a
later refactor removes is reported in ``absent`` and measures zero.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (metric name, module, attribute path) of every wrapped public call.
#: Several entries may share one metric; their self times add up.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("index.grouped_search_ms", "repro.index.packed",
     "PackedRTree.range_search_any_grouped"),
    ("index.window_search_ms", "repro.index.packed",
     "PackedRTree.range_search_any"),
    ("uncertain.positions_of_ms", "repro.uncertain.dataset",
     "UncertainDataset.positions_of"),
    ("uncertain.tensor_rows_ms", "repro.uncertain.tensor", "DatasetTensor.rows"),
    ("prsq.eq3_ms", "repro.engine.kernels", "eq3_dominance_tensor"),
    ("prsq.eq2_ms", "repro.engine.kernels", "eq2_probability"),
    ("core.candidates_ms", "repro.core.candidates", "find_candidate_causes"),
    ("core.fmcs_ms", "repro.core.fmcs", "find_minimal_contingency_set"),
    ("core.cr_ms", "repro.core.cr", "compute_causality_certain"),
    ("engine.query_ms", "repro.engine.session", "Session._execute_outcome"),
    ("engine.cache_probe_ms", "repro.engine.cache", "LRUCache.get_or_compute"),
    ("engine.reader_ms", "repro.engine.session", "Session.reader"),
    ("engine.apply_ms", "repro.engine.session", "Session.apply"),
    ("engine.read_snapshot_ms", "repro.engine.session", "Session.read_snapshot"),
    ("api.spec_decode_ms", "repro.engine.spec", "spec_from_dict"),
    ("api.envelope_ms", "repro.api.results", "QueryResult.from_outcome"),
    ("api.envelope_ms", "repro.api.results", "QueryResult.to_dict"),
    ("serve.admission_wait_ms", "repro.serve.admission",
     "AdmissionController.acquire"),
    ("serve.execute_ms", "repro.serve.service", "DatasetService.execute"),
    ("serve.write_submit_ms", "repro.serve.writer", "SingleWriter.submit"),
)

#: Metrics whose wrapped-call count is the Eq. (3)/(2) kernel call count.
KERNEL_METRICS = ("prsq.eq3_ms", "prsq.eq2_ms")

#: The cache probe is charged only on hits: on a miss the call is
#: transparent, so the query it computes stays with the engine.
_HIT_ONLY = "engine.cache_probe_ms"
_WRITE_SUBMIT = "serve.write_submit_ms"


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


_CURRENT: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class Accumulator:
    """Self-time totals, call counts and shed counts per metric."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.shed = 0
        self._writes: "deque[_Frame]" = deque()

    def record(
        self, name: str, self_s: float, parent: Optional[_Frame], charge: float
    ) -> None:
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent is not None:
                parent.child_s += charge

    def pass_through(self, parent: Optional[_Frame], charge: float) -> None:
        if parent is not None:
            with self._lock:
                parent.child_s += charge

    def note_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def orphan_parent(self) -> Optional[_Frame]:
        """The pending write a parentless pool-thread span belongs to."""
        if threading.current_thread() is threading.main_thread():
            return None
        with self._lock:
            return self._writes[0] if self._writes else None

    def push_write(self, frame: _Frame) -> None:
        with self._lock:
            self._writes.append(frame)

    def pop_write(self, frame: _Frame) -> None:
        with self._lock:
            self._writes.remove(frame)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "shed": self.shed,
            }


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What an :class:`Accumulator` recorded between two snapshots."""
    return {
        "self_s": {
            name: value - before["self_s"].get(name, 0.0)
            for name, value in after["self_s"].items()
        },
        "calls": {
            name: value - before["calls"].get(name, 0)
            for name, value in after["calls"].items()
        },
        "shed": after["shed"] - before["shed"],
    }


def _is_shed(exc: BaseException) -> bool:
    return type(exc).__name__ == "OverloadedError"


def _wrap_sync(fn: Callable, name: str, acc: Accumulator) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get() or acc.orphan_parent()
        frame = _Frame()
        token = _CURRENT.set(frame)
        started = time.perf_counter()
        hit = True
        try:
            result = fn(*args, **kwargs)
            if name == _HIT_ONLY:
                hit = not (isinstance(result, tuple) and result[-1] is False)
            return result
        finally:
            elapsed = time.perf_counter() - started
            _CURRENT.reset(token)
            if hit:
                acc.record(name, elapsed - frame.child_s, parent, elapsed)
            else:
                acc.pass_through(parent, frame.child_s)

    return wrapper


def _wrap_async(fn: Callable, name: str, acc: Accumulator) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        frame = _Frame()
        token = _CURRENT.set(frame)
        if name == _WRITE_SUBMIT:
            acc.push_write(frame)
        started = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        except BaseException as exc:
            if _is_shed(exc):
                acc.note_shed()
            raise
        finally:
            elapsed = time.perf_counter() - started
            if name == _WRITE_SUBMIT:
                acc.pop_write(frame)
            _CURRENT.reset(token)
            acc.record(name, elapsed - frame.child_s, parent, elapsed)

    return wrapper


def _wrap(fn: Callable, name: str, acc: Accumulator) -> Callable:
    if asyncio.iscoroutinefunction(fn):
        return _wrap_async(fn, name, acc)
    return _wrap_sync(fn, name, acc)


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``from x import f`` copy of a module-level function."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
            "repro"
        ):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(acc: Accumulator) -> Tuple[List[str], List[str]]:
    """Wrap every reachable entry of :data:`LAYERS`; return (installed, absent).

    Imports the program's modules first, so module-level ``from ... import``
    copies exist to be rebound.  Call once per process.
    """
    for module in ("repro.api", "repro.engine", "repro.serve", "repro.io.cli"):
        importlib.import_module(module)
    installed: List[str] = []
    absent: List[str] = []
    for name, module_name, path in LAYERS:
        label = f"{module_name}.{path}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(label)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = None if owner is None else (
            owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
        )
        if raw is None:
            absent.append(label)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(_wrap(raw.__func__, name, acc)))
        elif owner_name:
            setattr(owner, attr, _wrap(raw, name, acc))
        else:
            _replace_everywhere(raw, _wrap(raw, name, acc))
        installed.append(label)
    return installed, absent


def propagate_context_to_pools() -> None:
    """Run thread-pool work inside a copy of the submitter's context.

    ``loop.run_in_executor`` does not carry context variables onto the
    worker thread; this makes the request's span the parent of the engine
    work it hands to the serve pool.
    """
    submit = ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context
