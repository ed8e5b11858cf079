"""Async remote client: the :class:`~repro.api.client.Client` facade over
a socket.

One TCP connection speaks the NDJSON protocol and multiplexes: every
request carries a fresh ``id``, a background reader task demultiplexes
response frames by it, so **many requests can be in flight on one
connection at once** — ``asyncio.gather`` over twenty ``prsq`` calls is
the intended usage, not a protocol violation.

The per-family methods (``prsq``, ``causality``, ``insert``, ...) are
the local client's :class:`~repro.api.client.QueryMethods`, returning
coroutines here, and ``batch()`` takes the same calls; a bad argument
raises at the call, before any frame is sent.  The payloads *are* the
local payloads: responses carry v2 envelopes verbatim, decoded back into
typed :class:`~repro.api.results.QueryResult` objects whose values round
-trip bit-identically.  Single-query methods raise on failure — an
``overloaded`` rejection raises :class:`~repro.exceptions.
OverloadedError` with the server's ``retry_after_s`` hint, an envelope
error raises :class:`~repro.exceptions.RemoteQueryError` carrying the
server-side taxonomy code.  ``query_envelope`` returns failed envelopes
instead, for batch-style consumers.

Every response's ``session_version`` is remembered on
:attr:`RemoteClient.session_version`, so a writer can fence subsequent
reads (\"was this answer computed at or after my update?\").

    async with await RemoteClient.connect(port=port) as client:
        answer = await client.prsq((5.0, 5.0), alpha=0.5)
        await client.insert("new", samples=[[1, 1]], probabilities=[1.0])
        results = await client.batch().prsq(q, alpha=0.3).run()
"""

from __future__ import annotations

import asyncio
import itertools
import json
import uuid
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro import obs
from repro.api.client import QueryMethods, SpecBatch
from repro.api.registry import REGISTRY
from repro.api.results import QueryResult
from repro.api.retry import RetryPolicy
from repro.engine.spec import QuerySpec
from repro.exceptions import (
    DatasetDegradedError,
    DeadlineExceededError,
    InvalidRequestError,
    OverloadedError,
    RemoteProtocolError,
    RemoteQueryError,
    UnknownDatasetError,
)
from repro.serve.wire import DEFAULT_DATASET, DEFAULT_PORT, encode_frame

#: Extra client-side wait beyond ``deadline_ms`` before giving up
#: locally — covers wire latency so the server's own deadline answer
#: (the authoritative one) usually arrives first.
_DEADLINE_GRACE_S = 1.0


class RemoteClient(QueryMethods):
    """One multiplexed NDJSON connection to a ``repro serve`` server."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        dataset: str = DEFAULT_DATASET,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
    ):
        self._reader = reader
        self._writer = writer
        self.dataset = dataset
        self.retry = retry
        self.deadline_ms = deadline_ms
        self.session_version: Optional[int] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, "asyncio.Queue"] = {}
        self._write_lock = asyncio.Lock()
        self._fatal: Optional[BaseException] = None
        self._reader_task = asyncio.ensure_future(self._read_loop())
        # Reconnect coordinates (set by connect(); stream-constructed
        # clients have no address and therefore never auto-reconnect).
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._limit: int = 1 << 20
        self._conn_lock = asyncio.Lock()
        metrics = obs.registry()
        self._retries = metrics.counter("retry.attempts")
        self._reconnects = metrics.counter("retry.reconnects")

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        dataset: str = DEFAULT_DATASET,
        limit: int = 1 << 20,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
    ) -> "RemoteClient":
        reader, writer = await asyncio.open_connection(host, port, limit=limit)
        client = cls(
            reader, writer, dataset=dataset, retry=retry,
            deadline_ms=deadline_ms,
        )
        client._host, client._port, client._limit = host, port, limit
        return client

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    self._fatal = RemoteProtocolError(
                        f"server sent undecodable frame: {exc}"
                    )
                    break
                queue = self._pending.get(payload.get("id"))
                if queue is not None:
                    queue.put_nowait(payload)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fatal = RemoteProtocolError(f"connection lost: {exc}")
        finally:
            if self._fatal is None:
                self._fatal = RemoteProtocolError(
                    "connection closed by server"
                )
            for request_id in sorted(self._pending):
                self._pending[request_id].put_nowait(None)  # wake every waiter

    async def _send(self, payload: Dict[str, Any]) -> None:
        if self._fatal is not None:
            raise self._fatal
        frame = encode_frame(payload)
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except ConnectionError as exc:
            raise RemoteProtocolError(f"send failed: {exc}") from exc

    async def _reconnect(self) -> None:
        """Re-dial the remembered address after a connection loss.

        Only clients built via :meth:`connect` know their address;
        stream-constructed ones re-raise the fatal error.  Concurrent
        retriers serialize on a lock — whoever gets it first re-dials,
        the rest see ``_fatal`` already cleared and return.
        """
        if self._host is None or self._port is None:
            raise self._fatal or RemoteProtocolError("connection lost")
        async with self._conn_lock:
            if self._fatal is None:
                return  # another coroutine already reconnected
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port, limit=self._limit
                )
            except OSError as exc:
                raise RemoteProtocolError(
                    f"reconnect to {self._host}:{self._port} failed: {exc}"
                ) from exc
            self._reader = reader
            self._writer = writer
            self._fatal = None
            self._reader_task = asyncio.ensure_future(self._read_loop())
            self._reconnects.inc()

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "RemoteClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------
    def _note_version(self, response: Dict[str, Any]) -> None:
        version = response.get("session_version")
        if version is not None:
            self.session_version = version

    def _raise_request_error(self, response: Dict[str, Any]) -> None:
        """Map a request-level error frame onto a typed exception."""
        error = response.get("error") or {}
        code = error.get("code", "internal_error")
        message = error.get("message", "")
        if code == "overloaded":
            raise OverloadedError(
                message or "server overloaded",
                retry_after_s=response.get("retry_after_s", 0.1),
            )
        if code == "unknown_dataset":
            raise UnknownDatasetError(message)
        if code == "invalid_request":
            raise InvalidRequestError(message)
        if code == "deadline_exceeded":
            raise DeadlineExceededError(message or "deadline exceeded")
        if code == "degraded":
            raise DatasetDegradedError(message or "dataset degraded")
        raise RemoteQueryError(code, error.get("type", "Exception"), message)

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one single-response request; return the raw response frame.

        Raises the mapped exception for request-level errors; envelope
        failures (``result`` present, ``ok`` false) come back as-is.  A
        ``deadline_ms`` field in *payload* also bounds the client-side
        wait (budget plus a grace margin for the wire), so a server that
        stalls past the deadline cannot park the caller forever.
        """
        request_id = next(self._ids)
        queue: "asyncio.Queue" = asyncio.Queue()
        self._pending[request_id] = queue
        budget_ms = payload.get("deadline_ms")
        try:
            await self._send({"id": request_id, **payload})
            if budget_ms is None:
                response = await queue.get()
            else:
                try:
                    response = await asyncio.wait_for(
                        queue.get(), budget_ms / 1000.0 + _DEADLINE_GRACE_S
                    )
                except asyncio.TimeoutError:
                    raise DeadlineExceededError(
                        f"no response within deadline_ms={budget_ms} "
                        f"(+{_DEADLINE_GRACE_S}s grace)"
                    ) from None
        finally:
            self._pending.pop(request_id, None)
        if response is None:
            raise self._fatal or RemoteProtocolError("connection closed")
        self._note_version(response)
        if not response.get("ok", False) and "result" not in response:
            self._raise_request_error(response)
        return response

    async def _request_with_retry(
        self, payload: Dict[str, Any], *, retryable: bool
    ) -> Dict[str, Any]:
        """One request, retried per :attr:`retry` when *retryable*.

        Retries only ``overloaded`` rejections (sleeping at least the
        server's ``retry_after_s`` hint) and connection losses (after
        re-dialing).  Deadline, degraded, and query errors are final —
        retrying cannot change their answer.
        """
        policy = self.retry
        if policy is None or not retryable:
            return await self.request(payload)
        schedule = policy.schedule()
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._fatal is not None:
                    await self._reconnect()
                return await self.request(payload)
            except (OverloadedError, RemoteProtocolError) as exc:
                if attempt >= policy.max_attempts:
                    raise
                delay = next(schedule)
                if isinstance(exc, OverloadedError):
                    delay = max(delay, exc.retry_after_s)
                self._retries.inc()
                await asyncio.sleep(delay)

    async def query_envelope(
        self,
        spec: QuerySpec,
        *,
        dataset: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        idem: Optional[str] = None,
    ) -> Tuple[QueryResult, Optional[int]]:
        """``(envelope, session_version)`` — never raises for data errors.

        *deadline_ms* (or the client default) rides the request frame and
        is enforced at every server checkpoint.  Mutations get *idem* (or
        a generated key) so automatic retries apply **exactly once**;
        reads auto-retry only when the spec is deterministic
        (``cacheable`` and not ``mutates``) — a replay is then
        indistinguishable from the first attempt.
        """
        payload: Dict[str, Any] = {
            "op": "query",
            "spec": REGISTRY.spec_to_dict(spec),
            "dataset": dataset or self.dataset,
        }
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        if budget is not None:
            payload["deadline_ms"] = budget
        mutates = bool(getattr(spec, "mutates", False))
        if mutates:
            payload["idem"] = idem if idem is not None else uuid.uuid4().hex
        retryable = mutates or (
            bool(getattr(spec, "cacheable", False)) and not mutates
        )
        response = await self._request_with_retry(
            payload, retryable=retryable
        )
        envelope = QueryResult.from_dict(response["result"])
        return envelope, response.get("session_version")

    async def query(
        self,
        spec: QuerySpec,
        *,
        dataset: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        idem: Optional[str] = None,
    ) -> QueryResult:
        """Execute one spec remotely; raise on failure (like ``Client``)."""
        envelope, _version = await self.query_envelope(
            spec, dataset=dataset, deadline_ms=deadline_ms, idem=idem
        )
        if not envelope.ok:
            error = envelope.error
            raise RemoteQueryError(error.code, error.type, error.message)
        return envelope

    # ------------------------------------------------------------------
    # service ops
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def datasets(self) -> List[str]:
        return (await self.ping())["datasets"]

    async def stats(self) -> Dict[str, Any]:
        """The server's stats payload (SLO quantiles, cache, admission)."""
        return await self.request({"op": "stats"})

    # ------------------------------------------------------------------
    def batch(self) -> "RemoteBatchBuilder":
        """Start a fluent batch; finish with ``.run()`` or ``.stream()``."""
        return RemoteBatchBuilder(self)

    def __repr__(self) -> str:
        return (
            f"<RemoteClient dataset={self.dataset!r} "
            f"session_version={self.session_version}>"
        )


class RemoteBatchBuilder(SpecBatch):
    """The fluent batch builder, streamed over one ``batch`` frame.

    ``stream()`` yields one :class:`QueryResult` per spec in input order
    as the server produces them; per-spec *data* errors arrive as failed
    envelopes (exactly the local ``BatchBuilder`` contract).  A per-spec
    admission rejection — possible only under overload — raises
    :class:`OverloadedError` mid-stream; retry the batch (or its tail)
    after the hint.
    """

    async def stream(self) -> AsyncIterator[QueryResult]:
        client = self._client
        request_id = next(client._ids)
        queue: "asyncio.Queue" = asyncio.Queue()
        client._pending[request_id] = queue
        frame: Dict[str, Any] = {
            "id": request_id,
            "op": "batch",
            "specs": [REGISTRY.spec_to_dict(s) for s in self._specs],
            "dataset": client.dataset,
        }
        if client.deadline_ms is not None:
            frame["deadline_ms"] = client.deadline_ms
        try:
            await client._send(frame)
            while True:
                response = await queue.get()
                if response is None:
                    raise client._fatal or RemoteProtocolError(
                        "connection closed mid-batch"
                    )
                client._note_version(response)
                if response.get("done"):
                    return
                if "result" in response:
                    yield QueryResult.from_dict(response["result"])
                else:
                    client._raise_request_error(response)
        finally:
            client._pending.pop(request_id, None)

    async def run(self) -> List[QueryResult]:
        return [envelope async for envelope in self.stream()]
