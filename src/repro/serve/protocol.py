"""The wire protocol: NDJSON framing and the transport-agnostic handler.

Framing is newline-delimited JSON over a byte stream: every request and
every response is one UTF-8 JSON object terminated by ``\\n`` (the length
of a frame is therefore delimited by its newline; a configurable
``max_line_bytes`` bounds what the server will buffer for one frame).
Responses to different requests may interleave on one connection — each
response echoes the request's ``id``, and the client demultiplexes by it,
which is what lets one connection keep many queries in flight.

Requests::

    {"id": 1, "op": "query", "spec": {"kind": "prsq", "q": [5, 5],
     "alpha": 0.5}, "dataset": "default"}
    {"id": 2, "op": "batch", "specs": [{...}, {...}]}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "ping"}

Responses carry the existing v2 envelopes **verbatim** — ``result`` is
exactly :meth:`repro.api.results.QueryResult.to_dict`, so everything the
local client sees (typed payload, run stats, fingerprint, spec echo,
error taxonomy) crosses the wire unchanged — plus the ``session_version``
the query was served at, so clients can detect staleness across live
updates::

    {"id": 1, "ok": true, "session_version": 3, "result": {...}}

Request-level failures (malformed frame, unknown op, unparseable spec,
admission rejection) answer with the same :class:`~repro.api.results.
ErrorInfo` taxonomy instead of dropping the connection; an ``overloaded``
response additionally carries ``retry_after_s``::

    {"id": 1, "ok": false,
     "error": {"code": "overloaded", "type": "OverloadedError",
               "message": "..."},
     "retry_after_s": 0.25}

``batch`` streams one response per spec (``seq`` gives the input index)
followed by a ``done`` summary frame, mirroring the CLI's NDJSON
``batch --stream``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Optional

from repro import faults
from repro.api.results import ErrorInfo
from repro.engine import spec_from_dict
from repro.exceptions import (
    DatasetDegradedError,
    DeadlineExceededError,
    InvalidRequestError,
    OverloadedError,
    ReproError,
)
from repro.faults.plan import FaultPlan
from repro.serve.wire import DEFAULT_DATASET, DEFAULT_PORT, encode_frame

#: Ops a request may name; ``query`` is the default when ``op`` is absent
#: and a ``spec`` is present.
OPS = ("query", "batch", "stats", "ping")


@dataclass
class ServeConfig:
    """Tunables for one server instance (service + transports).

    ``max_inflight`` bounds concurrently *executing* queries,
    ``max_queue`` the admission queue behind them (beyond it requests get
    an ``overloaded`` envelope instead of waiting), ``write_queue`` the
    single-writer queue of pending mutations, and ``per_connection`` the
    number of requests one connection may keep in flight before further
    frames are answered ``overloaded`` immediately.

    ``idem_window`` bounds the per-dataset idempotency window (applied
    mutation results kept for retry dedup); ``fault_plan`` installs a
    deterministic :class:`~repro.faults.plan.FaultPlan` for the server's
    lifetime — chaos runs only, ``None`` in production.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    threads: int = 4
    cache_size: int = 4096
    max_inflight: int = 8
    max_queue: int = 64
    write_queue: int = 128
    per_connection: int = 32
    max_line_bytes: int = 1 << 20
    drain_timeout_s: float = 5.0
    idem_window: int = 1024
    fault_plan: Optional[FaultPlan] = None


def error_response(
    request_id: Any, exc: BaseException, **extra: Any
) -> Dict[str, Any]:
    """A request-level failure frame, coded through the error taxonomy."""
    payload: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": ErrorInfo.from_exception(exc).to_dict(),
    }
    if isinstance(exc, OverloadedError):
        payload["retry_after_s"] = exc.retry_after_s
    payload.update(extra)
    return payload


class RequestHandler:
    """Transport-agnostic dispatch: one request dict -> response dicts.

    Both front ends — the NDJSON stream loop below and the HTTP POST
    adapter in :mod:`repro.serve.http` — feed parsed frames through this
    one ``handle`` generator, so protocol semantics (spec decoding, error
    taxonomy, batch streaming, version echo) cannot drift between them.
    """

    def __init__(self, service: "DatasetService"):
        self.service = service

    # ------------------------------------------------------------------
    @staticmethod
    def _decode_spec(payload: Any):
        if not isinstance(payload, dict):
            raise InvalidRequestError(
                f"'spec' must be a JSON object with a 'kind', got "
                f"{type(payload).__name__}"
            )
        return spec_from_dict(payload)

    @staticmethod
    def _deadline_of(request: Dict[str, Any]) -> Optional[float]:
        """The absolute monotonic deadline for *request*, if it set one.

        ``deadline_ms`` is a *relative* budget (clients and servers do
        not share clocks); it is anchored to ``time.monotonic()`` here,
        at frame receipt, and the absolute instant rides along through
        admission, the write queue, and the pool dispatch checkpoint.
        """
        budget = request.get("deadline_ms")
        if budget is None:
            return None
        if not isinstance(budget, (int, float)) or isinstance(budget, bool) \
                or budget <= 0:
            raise InvalidRequestError(
                f"'deadline_ms' must be a positive number, got {budget!r}"
            )
        return time.monotonic() + float(budget) / 1000.0

    @staticmethod
    def _idem_of(request: Dict[str, Any]) -> Optional[str]:
        idem = request.get("idem")
        if idem is None:
            return None
        if not isinstance(idem, str) or not idem:
            raise InvalidRequestError(
                f"'idem' must be a non-empty string, got {idem!r}"
            )
        return idem

    async def handle(
        self, request: Any
    ) -> AsyncIterator[Dict[str, Any]]:
        """Yield the response frame(s) for one request frame.

        Never raises for request content: every failure — including
        admission rejection — becomes a coded response frame, so a
        misbehaving request can never cost a connection its stream.
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise InvalidRequestError(
                    f"each request must be a JSON object, got "
                    f"{type(request).__name__}"
                )
            op = request.get("op") or (
                "query" if "spec" in request else None
            )
            if op == "ping":
                yield {
                    "id": request_id,
                    "ok": True,
                    "pong": True,
                    "datasets": self.service.dataset_names(),
                    "status": {
                        name: self.service.state(name).status
                        for name in self.service.dataset_names()
                    },
                    "degraded": self.service.degraded_datasets(),
                }
            elif op == "stats":
                yield {"id": request_id, "ok": True, **self.service.stats_payload()}
            elif op == "query":
                if "spec" not in request:
                    raise InvalidRequestError("op 'query' needs a 'spec'")
                spec = self._decode_spec(request["spec"])
                envelope, version = await self.service.execute(
                    spec,
                    dataset=request.get("dataset", DEFAULT_DATASET),
                    deadline=self._deadline_of(request),
                    idem=self._idem_of(request),
                )
                yield {
                    "id": request_id,
                    "ok": envelope.ok,
                    "session_version": version,
                    "result": envelope.to_dict(),
                }
            elif op == "batch":
                async for frame in self._handle_batch(request_id, request):
                    yield frame
            else:
                raise InvalidRequestError(
                    f"unknown op {op!r}; expected one of {list(OPS)}"
                )
        except (ReproError, KeyError, ValueError, TypeError) as exc:
            yield error_response(request_id, exc)

    async def _handle_batch(
        self, request_id: Any, request: Dict[str, Any]
    ) -> AsyncIterator[Dict[str, Any]]:
        specs = request.get("specs")
        if not isinstance(specs, list):
            raise InvalidRequestError("op 'batch' needs a 'specs' array")
        dataset = request.get("dataset", DEFAULT_DATASET)
        deadline = self._deadline_of(request)
        # Pre-validate every spec up front (the CLI batch contract): a
        # malformed spec at index 50 fails the batch before spec 0 runs.
        parsed = [self._decode_spec(item) for item in specs]
        failures = 0
        for seq, spec in enumerate(parsed):
            try:
                envelope, version = await self.service.execute(
                    spec, dataset=dataset, deadline=deadline
                )
            except (
                OverloadedError, DeadlineExceededError, DatasetDegradedError
            ) as exc:
                # One rejected/expired spec does not abort the batch: the
                # client sees which seq failed and can retry just that one.
                failures += 1
                yield error_response(request_id, exc, seq=seq)
                continue
            failures += not envelope.ok
            yield {
                "id": request_id,
                "ok": envelope.ok,
                "seq": seq,
                "session_version": version,
                "result": envelope.to_dict(),
            }
        yield {
            "id": request_id,
            "ok": failures == 0,
            "done": True,
            "count": len(parsed),
            "failures": failures,
        }


async def serve_ndjson(
    handler: RequestHandler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    config: ServeConfig,
    first_line: Optional[bytes] = None,
    draining: Optional[asyncio.Event] = None,
) -> None:
    """Drive one NDJSON connection until EOF (or server drain).

    Each request frame is handled in its own task (so one slow query
    never head-of-line-blocks the connection), bounded by
    ``config.per_connection``: frames beyond the cap are answered with an
    immediate ``overloaded`` response instead of queueing unboundedly.
    Outbound frames are serialized through one lock; ``drain()`` under
    that lock gives natural per-connection backpressure against slow
    consumers.

    When *draining* (the server's shutdown event) fires, the loop stops
    *reading* but in-flight request tasks — including a half-streamed
    batch — run to completion and flush their tails before the socket
    closes cleanly; client-initiated EOF keeps the old behavior of
    cancelling whatever is still running.

    Fault seams (active only under an installed
    :class:`~repro.faults.FaultPlan`): ``socket.read`` (drop the
    connection before a frame is read, or stall the read), ``socket.write``
    (drop before a response frame is written), and ``stream.frame``
    (hard-reset mid-way through a streamed batch).
    """
    write_lock = asyncio.Lock()
    tasks: set = set()

    def _abort(reason: str) -> None:
        transport = writer.transport
        if transport is not None:
            transport.abort()  # hard reset, not a graceful FIN
        raise ConnectionResetError(reason)

    async def send(payload: Dict[str, Any]) -> None:
        if faults.active() is not None:
            if "seq" in payload:
                rule = faults.check("stream.frame", seq=payload.get("seq"))
                if rule is not None:
                    _abort(rule.message or "injected stream.frame disconnect")
            rule = faults.check("socket.write", id=payload.get("id"))
            if rule is not None:
                _abort(rule.message or "injected socket.write drop")
        frame = encode_frame(payload)
        async with write_lock:
            writer.write(frame)
            await writer.drain()

    async def process(request: Any) -> None:
        try:
            async for response in handler.handle(request):
                await send(response)
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            # The connection is already gone (or fault-injected away);
            # there is nobody left to answer.
            return
        except Exception as exc:  # defensive: never kill the connection
            await send(error_response(
                request.get("id") if isinstance(request, dict) else None, exc
            ))

    drain_wait = (
        asyncio.ensure_future(draining.wait()) if draining is not None
        else None
    )

    async def next_line() -> bytes:
        """One frame line — or ``b""`` when the server starts draining."""
        if drain_wait is None:
            return await reader.readline()
        if drain_wait.done():
            return b""
        read = asyncio.ensure_future(reader.readline())
        try:
            await asyncio.wait(
                {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            read.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await read
            raise
        if read.done():
            return read.result()
        read.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await read
        return b""

    drained_exit = False
    try:
        while True:
            if first_line is not None:
                line, first_line = first_line, None
            else:
                rule = faults.check("socket.read") if faults.active() else None
                if rule is not None:
                    if rule.action == "drop":
                        _abort(rule.message or "injected socket.read drop")
                    if rule.action == "stall":
                        await asyncio.sleep(rule.delay_s)
                try:
                    line = await next_line()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: framing is lost, close after a hint.
                    await send(error_response(None, InvalidRequestError(
                        f"frame exceeds max_line_bytes="
                        f"{config.max_line_bytes}"
                    )))
                    break
            if not line:
                drained_exit = draining is not None and draining.is_set()
                break
            if not line.strip():
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await send(error_response(None, InvalidRequestError(
                    f"invalid JSON frame: {exc}"
                )))
                continue
            if len(tasks) >= config.per_connection:
                await send(error_response(
                    request.get("id") if isinstance(request, dict) else None,
                    OverloadedError(
                        f"per-connection concurrency cap "
                        f"({config.per_connection}) exceeded",
                        retry_after_s=handler.service.retry_after(),
                    ),
                ))
                continue
            task = asyncio.ensure_future(process(request))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        if drain_wait is not None:
            drain_wait.cancel()
        if drained_exit and tasks:
            # Graceful drain: let in-flight requests (e.g. a half-
            # streamed batch) flush their remaining frames.  The server's
            # stop() still bounds this wait by drain_timeout_s — if that
            # expires, this connection task is cancelled and the
            # stragglers get cancelled in turn below.
            try:
                await asyncio.gather(*tasks, return_exceptions=True)
            except asyncio.CancelledError:
                for task in list(tasks):
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                raise
        else:
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
