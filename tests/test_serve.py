"""The serve subsystem: protocol, admission, writer, transports, client.

Three layers of coverage, cheapest first:

* unit tests against :class:`AdmissionController` / :class:`SingleWriter`
  / :class:`RequestHandler` driven with plain dicts (no sockets);
* end-to-end over real sockets: one :class:`ReproServer` on an ephemeral
  port, :class:`RemoteClient` multiplexing concurrent requests, the HTTP
  front end exercised with hand-written requests;
* overload injection: the admission slot is held from the test (the
  server shares our event loop), so rejection is deterministic — every
  shed request must come back as a structured ``overloaded`` envelope
  with a ``retry_after_s`` hint on a connection that stays usable.

Plus the thread-safety hammer for the shared LRU cache and the CLI
``batch`` graceful-shutdown path (SIGINT / broken pipe).
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.api.remote import RemoteClient
from repro.engine.cache import LRUCache
from repro.engine.session import Session
from repro.engine.spec import CausalitySpec, PRSQSpec, UpdateSpec
from repro.exceptions import (
    OverloadedError,
    RemoteQueryError,
    UnknownDatasetError,
)
from repro.serve import (
    AdmissionController,
    ReproServer,
    RequestHandler,
    ServeConfig,
    DatasetService,
)
from repro.uncertain import UncertainDataset, UncertainObject
from repro.uncertain.delta import DatasetDelta

Q = (5.0, 5.0)


def _dataset(n=24, seed=11):
    rng = np.random.default_rng(seed)
    return UncertainDataset(
        [
            UncertainObject(
                f"o{i}", rng.uniform(0.0, 10.0, size=(3, 2))
            )
            for i in range(n)
        ]
    )


def _config(**overrides):
    base = dict(port=0, threads=2, cache_size=256)
    base.update(overrides)
    return ServeConfig(**base)


# ---------------------------------------------------------------------------
# admission controller
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_fast_path_and_release(self):
        async def main():
            ctl = AdmissionController(max_inflight=2, max_queue=4)
            await ctl.acquire()
            await ctl.acquire()
            assert ctl.inflight == 2
            ctl.release(0.01)
            assert ctl.inflight == 1
            ctl.release(0.01)
            assert ctl.inflight == 0

        asyncio.run(main())

    def test_rejects_when_queue_full_with_hint(self):
        async def main():
            ctl = AdmissionController(max_inflight=1, max_queue=0)
            await ctl.acquire()
            with pytest.raises(OverloadedError) as err:
                await ctl.acquire()
            assert err.value.retry_after_s >= 0.05
            assert err.value.code == "overloaded"
            ctl.release()
            await ctl.acquire()  # usable again

        asyncio.run(main())

    def test_fifo_handoff(self):
        async def main():
            ctl = AdmissionController(max_inflight=1, max_queue=4)
            await ctl.acquire()
            order = []

            async def waiter(tag):
                await ctl.acquire()
                order.append(tag)
                ctl.release()

            tasks = [asyncio.ensure_future(waiter(i)) for i in range(3)]
            await asyncio.sleep(0)  # enqueue in order
            ctl.release()
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]
            assert ctl.inflight == 0 and ctl.queue_depth == 0

        asyncio.run(main())

    def test_cancelled_waiter_does_not_leak_slot(self):
        async def main():
            ctl = AdmissionController(max_inflight=1, max_queue=4)
            await ctl.acquire()
            task = asyncio.ensure_future(ctl.acquire())
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            ctl.release()
            assert ctl.inflight == 0
            await ctl.acquire()  # slot is still grantable
            ctl.release()

        asyncio.run(main())


# ---------------------------------------------------------------------------
# handler-level protocol semantics (no sockets)
# ---------------------------------------------------------------------------
async def _one(handler, request):
    frames = [frame async for frame in handler.handle(request)]
    assert len(frames) == 1
    return frames[0]


class TestHandler:
    def run_service(self, coro_fn, **config_overrides):
        async def main():
            async with DatasetService(
                {"default": _dataset()}, _config(**config_overrides)
            ) as service:
                await coro_fn(RequestHandler(service), service)

        asyncio.run(main())

    def test_ping_and_stats(self):
        async def body(handler, service):
            pong = await _one(handler, {"id": 7, "op": "ping"})
            assert pong == {
                "id": 7, "ok": True, "pong": True, "datasets": ["default"],
                "status": {"default": "ok"}, "degraded": [],
            }
            stats = await _one(handler, {"id": 8, "op": "stats"})
            assert stats["ok"] and "slo" in stats and "metrics" in stats
            assert stats["datasets"]["default"]["version"] == 0

        self.run_service(body)

    def test_query_carries_envelope_and_version(self):
        async def body(handler, service):
            frame = await _one(handler, {
                "id": 1, "op": "query",
                "spec": {"kind": "prsq", "q": list(Q), "alpha": 0.4},
            })
            assert frame["ok"] is True
            assert frame["session_version"] == 0
            result = frame["result"]
            assert result["kind"] == "prsq" and result["ok"] is True
            assert result["spec"]["alpha"] == 0.4  # spec echo, verbatim v2

        self.run_service(body)

    def test_query_data_error_is_an_envelope_not_a_drop(self):
        async def body(handler, service):
            frame = await _one(handler, {
                "id": 2, "op": "query",
                "spec": {
                    "kind": "causality", "an": "nope",
                    "q": list(Q), "alpha": 0.4,
                },
            })
            assert frame["ok"] is False and "result" in frame
            assert frame["result"]["error"]["code"] == "unknown_object"

        self.run_service(body)

    def test_request_level_errors_are_coded(self):
        async def body(handler, service):
            bad_op = await _one(handler, {"id": 3, "op": "mystery"})
            assert bad_op["error"]["code"] == "invalid_request"
            bad_kind = await _one(handler, {
                "id": 4, "op": "query", "spec": {"kind": "nope"},
            })
            assert bad_kind["error"]["code"] == "unknown_query_kind"
            bad_ds = await _one(handler, {
                "id": 5, "op": "query", "dataset": "ghost",
                "spec": {"kind": "prsq", "q": list(Q), "alpha": 0.4},
            })
            assert bad_ds["error"]["code"] == "unknown_dataset"
            no_spec = await _one(handler, {"id": 6, "op": "query"})
            assert no_spec["error"]["code"] == "invalid_request"
            not_dict = await _one(handler, [1, 2, 3])
            assert not_dict["error"]["code"] == "invalid_request"

        self.run_service(body)

    def test_batch_streams_seq_frames_then_summary(self):
        async def body(handler, service):
            frames = [
                frame async for frame in handler.handle({
                    "id": 9, "op": "batch",
                    "specs": [
                        {"kind": "prsq", "q": list(Q), "alpha": 0.3},
                        {"kind": "causality", "an": "nope",
                         "q": list(Q), "alpha": 0.3},
                    ],
                })
            ]
            assert [f.get("seq") for f in frames[:-1]] == [0, 1]
            assert frames[0]["ok"] is True
            assert frames[1]["ok"] is False
            done = frames[-1]
            assert done["done"] and done["count"] == 2 and done["failures"] == 1

        self.run_service(body)

    def test_mutation_bumps_version_and_is_visible(self):
        async def body(handler, service):
            spec = UpdateSpec(
                inserts=(UncertainObject("fresh", [[1.0, 1.0]], [1.0]),)
            )
            from repro.api.registry import REGISTRY

            frame = await _one(handler, {
                "id": 10, "op": "query", "spec": REGISTRY.spec_to_dict(spec),
            })
            assert frame["ok"] and frame["session_version"] == 1
            # subsequent reads see the new object at the new version
            probe = await _one(handler, {
                "id": 11, "op": "query",
                "spec": {"kind": "prsq", "q": list(Q), "alpha": 0.01,
                         "want": "probabilities"},
            })
            assert probe["session_version"] == 1
            values = probe["result"]["value"]["probabilities"]
            assert any(key.endswith("fresh") or key == "fresh"
                       for key in values)

        self.run_service(body)

    def test_failed_mutation_leaves_version_alone(self):
        async def body(handler, service):
            from repro.api.registry import REGISTRY

            spec = UpdateSpec(deletes=("ghost",))
            frame = await _one(handler, {
                "id": 12, "op": "query", "spec": REGISTRY.spec_to_dict(spec),
            })
            assert frame["ok"] is False
            assert frame["session_version"] == 0
            assert frame["result"]["error"]["code"] == "unknown_object"
            assert service.state("default").published.version == 0

        self.run_service(body)


# ---------------------------------------------------------------------------
# snapshot isolation at the service level
# ---------------------------------------------------------------------------
def test_inflight_reader_keeps_old_snapshot():
    """A reader that grabbed the published snapshot before a write keeps
    serving the old frozen arrays even while the write lands."""

    async def main():
        async with DatasetService(
            {"default": _dataset()}, _config()
        ) as service:
            state = service.state("default")
            old = state.published
            old_ids = set(old.dataset.ids())
            # write lands...
            spec = UpdateSpec(
                inserts=(UncertainObject("late", [[9.0, 9.0]], [1.0]),)
            )
            envelope, version = await service.execute(spec)
            assert envelope.ok and version == 1
            # ...but the pre-write snapshot is untouched
            assert set(old.dataset.ids()) == old_ids
            assert state.published is not old
            assert "late" in set(state.published.dataset.ids())

    asyncio.run(main())


def test_idempotency_window_records_stamps_not_snapshots():
    """A recorded write keeps its version and fingerprint, not the
    snapshot it published: the window holds the last 1024 writes."""

    async def main():
        async with DatasetService(
            {"default": _dataset()}, _config()
        ) as service:
            state = service.state("default")
            update = UpdateSpec(
                inserts=(UncertainObject("late", [[9.0, 9.0]], [1.0]),)
            )
            envelope, version = await service.execute(update, idem="k1")
            assert envelope.ok and version == 1
            _sequence, (_outcome, stamp) = state.writer._idem_done["k1"]
            assert not isinstance(stamp, Session)
            assert stamp == (1, state.published.fingerprint)
            # the retried write answers from the record, unapplied again
            again, version = await service.execute(update, idem="k1")
            assert again.ok and version == 1
            assert state.published.version == 1

    asyncio.run(main())


# ---------------------------------------------------------------------------
# sockets end to end
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_concurrent_multiplexed_queries_and_update(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                client = await RemoteClient.connect(port=srv.port)
                async with client:
                    results = await asyncio.gather(*[
                        client.prsq((float(i % 7), 5.0), alpha=0.4)
                        for i in range(16)
                    ])
                    assert all(r.ok for r in results)
                    up = await client.insert(
                        "wired", samples=[[2.0, 2.0]], probabilities=[1.0]
                    )
                    assert up.ok and client.session_version == 1
                    envelopes = await (
                        client.batch()
                        .prsq(Q, alpha=0.2)
                        .prsq(Q, alpha=0.8)
                        .run()
                    )
                    assert [e.ok for e in envelopes] == [True, True]
                    stats = await client.stats()
                    assert stats["datasets"]["default"]["version"] == 1
                    assert (
                        stats["service"]["admission"]["rejected"] == 0
                    )

        asyncio.run(main())

    def test_single_query_raises_typed_remote_errors(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                async with await RemoteClient.connect(port=srv.port) as client:
                    with pytest.raises(RemoteQueryError) as err:
                        await client.causality("ghost", Q, alpha=0.4)
                    assert err.value.code == "unknown_object"
                    with pytest.raises(UnknownDatasetError):
                        await client.prsq(Q, alpha=0.4, )  # warm-up ok
                        await client.query(
                            PRSQSpec(q=Q, alpha=0.4), dataset="ghost"
                        )

        asyncio.run(main())

    def test_overload_yields_structured_envelopes_not_drops(self):
        """Fill the only admission slot from the test (the server shares
        our loop), so every read is shed deterministically — as coded
        ``overloaded`` frames with retry hints on a live connection."""

        async def main():
            config = _config(max_inflight=1, max_queue=0)
            async with ReproServer({"default": _dataset()}, config) as srv:
                async with await RemoteClient.connect(port=srv.port) as client:
                    await srv.service.admission.acquire()  # hold the slot
                    shed = 0
                    for _ in range(5):
                        try:
                            await client.prsq(Q, alpha=0.4)
                        except OverloadedError as exc:
                            shed += 1
                            assert exc.retry_after_s >= 0.05
                    assert shed == 5
                    srv.service.admission.release()
                    # the connection survived the shedding
                    result = await client.prsq(Q, alpha=0.4)
                    assert result.ok
                    stats = await client.stats()
                    assert stats["service"]["admission"]["rejected"] >= 5

        asyncio.run(main())

    def test_per_connection_cap_sheds_excess_frames(self):
        async def main():
            config = _config(per_connection=1, max_inflight=1)
            async with ReproServer({"default": _dataset()}, config) as srv:
                # hold the admission slot so the first request parks and
                # the second must exceed the per-connection cap
                await srv.service.admission.acquire()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                spec = {"kind": "prsq", "q": list(Q), "alpha": 0.4}
                for rid in (1, 2):
                    writer.write(json.dumps(
                        {"id": rid, "op": "query", "spec": spec}
                    ).encode() + b"\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                assert first["error"]["code"] == "overloaded"
                assert first["id"] == 2  # frame 1 is parked, frame 2 shed
                srv.service.admission.release()
                second = json.loads(await reader.readline())
                assert second["id"] == 1 and second["ok"]
                writer.close()

        asyncio.run(main())

    def test_write_queue_overflow_is_overloaded(self):
        async def main():
            async with DatasetService(
                {"default": _dataset()}, _config(write_queue=1)
            ) as service:
                state = service.state("default")
                blocker = threading.Event()
                original = state._apply_write

                def slow_apply(spec):
                    blocker.wait(timeout=5.0)
                    return original(spec)

                state._apply_write = state.writer._apply = slow_apply
                try:
                    def update_spec(tag):
                        return UpdateSpec(inserts=(
                            UncertainObject(tag, [[1.0, 1.0]], [1.0]),
                        ))

                    first = asyncio.ensure_future(
                        service.execute(update_spec("w0"))
                    )
                    await asyncio.sleep(0.05)  # w0 occupies the drain
                    second = asyncio.ensure_future(
                        service.execute(update_spec("w1"))
                    )
                    await asyncio.sleep(0.05)  # w1 fills the queue
                    with pytest.raises(OverloadedError):
                        await service.execute(update_spec("w2"))
                finally:
                    blocker.set()
                env0, v0 = await first
                env1, v1 = await second
                assert env0.ok and env1.ok and (v0, v1) == (1, 2)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
async def _http(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


class TestHttp:
    def test_healthz_query_and_routes(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                status, _, body = await _http(
                    srv.port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                assert status == 200 and json.loads(body)["pong"]

                payload = json.dumps(
                    {"kind": "prsq", "q": list(Q), "alpha": 0.4}
                ).encode()
                status, headers, body = await _http(
                    srv.port,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(payload)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + payload,
                )
                assert status == 200
                frame = json.loads(body)
                assert frame["ok"] and frame["result"]["kind"] == "prsq"

                status, _, body = await _http(
                    srv.port,
                    b"GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                assert status == 400
                assert json.loads(body)["error"]["code"] == "invalid_request"

        asyncio.run(main())

    def test_dataset_query_parameter_routes_named_dataset(self):
        async def main():
            async with ReproServer({"mart": _dataset()}, _config()) as srv:
                payload = json.dumps(
                    {"kind": "prsq", "q": list(Q), "alpha": 0.4}
                ).encode()

                # default dataset is not hosted -> unknown_dataset / 404
                status, _, body = await _http(
                    srv.port,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(payload)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + payload,
                )
                assert status == 404
                assert json.loads(body)["error"]["code"] == "unknown_dataset"

                # ?dataset= picks the hosted one without touching the body
                status, _, body = await _http(
                    srv.port,
                    b"POST /query?dataset=mart HTTP/1.1\r\nContent-Length: "
                    + str(len(payload)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + payload,
                )
                assert status == 200
                frame = json.loads(body)
                assert frame["ok"] and frame["result"]["kind"] == "prsq"

        asyncio.run(main())

    def test_batch_returns_ndjson_body(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                specs = json.dumps([
                    {"kind": "prsq", "q": list(Q), "alpha": 0.3},
                    {"kind": "prsq", "q": list(Q), "alpha": 0.9},
                ]).encode()
                status, headers, body = await _http(
                    srv.port,
                    b"POST /batch HTTP/1.1\r\nContent-Length: "
                    + str(len(specs)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + specs,
                )
                assert status == 200
                assert headers["content-type"] == "application/x-ndjson"
                frames = [json.loads(line) for line in body.splitlines()]
                assert len(frames) == 3 and frames[-1]["done"]

        asyncio.run(main())

    def test_overload_maps_to_429_with_retry_after(self):
        async def main():
            config = _config(max_inflight=1, max_queue=0)
            async with ReproServer({"default": _dataset()}, config) as srv:
                await srv.service.admission.acquire()
                payload = json.dumps(
                    {"kind": "prsq", "q": list(Q), "alpha": 0.4}
                ).encode()
                status, headers, body = await _http(
                    srv.port,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(payload)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + payload,
                )
                srv.service.admission.release()
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert json.loads(body)["error"]["code"] == "overloaded"

        asyncio.run(main())


# ---------------------------------------------------------------------------
# LRU thread-safety hammer (satellite: shared cache under concurrency)
# ---------------------------------------------------------------------------
def test_lru_cache_is_thread_safe_under_hammering():
    cache = LRUCache(maxsize=32)
    errors = []
    barrier = threading.Barrier(8)

    def worker(worker_id):
        try:
            barrier.wait()
            for i in range(400):
                key = ("k", (worker_id + i) % 48)
                value, _hit = cache.get_or_compute(key, lambda k=key: k[1] * 2)
                assert value == key[1] * 2
                if i % 7 == 0:
                    cache.put(key, key[1] * 2)
                len(cache)
                key in cache
        except Exception as exc:  # pragma: no cover - only on races
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(cache) <= 32
    stats = cache.stats
    assert stats.hits + stats.misses == 8 * 400
    # evictions seen and accounted (48 keys through a 32-slot cache)
    assert stats.evictions > 0


# ---------------------------------------------------------------------------
# CLI batch graceful shutdown (satellite: SIGINT / broken pipe)
# ---------------------------------------------------------------------------
class TestCliBatchShutdown:
    def _run(self, tmp_path, monkeypatch, capsys, exc):
        from repro.api.client import BatchBuilder
        from repro.io import cli
        from repro.io.csvio import save_uncertain_csv

        data = tmp_path / "d.csv"
        save_uncertain_csv(_dataset(n=8), data)
        queries = tmp_path / "q.json"
        queries.write_text(json.dumps([
            {"kind": "prsq", "q": list(Q), "alpha": 0.4},
            {"kind": "prsq", "q": list(Q), "alpha": 0.6},
        ]))

        original = BatchBuilder.stream

        def interrupted_stream(self, *args, **kwargs):
            iterator = original(self, *args, **kwargs)
            yield next(iterator)  # one full envelope gets out...
            raise exc  # ...then the consumer/user goes away

        monkeypatch.setattr(BatchBuilder, "stream", interrupted_stream)
        code = cli.main([
            "batch", "--data", str(data), "--queries", str(queries),
            "--stream",
        ])
        return code, capsys.readouterr()

    def test_keyboard_interrupt_flushes_and_exits_130(
        self, tmp_path, monkeypatch, capsys
    ):
        code, captured = self._run(
            tmp_path, monkeypatch, capsys, KeyboardInterrupt()
        )
        assert code == 130
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["ok"] is True  # intact NDJSON line
        assert "stopped early" in captured.err

    def test_broken_pipe_exits_nonzero_with_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        code, captured = self._run(
            tmp_path, monkeypatch, capsys, BrokenPipeError()
        )
        assert code == 1
        assert "stopped early: output pipe closed" in captured.err

    def test_tracer_sink_is_closed_on_interrupt(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.api.client import BatchBuilder
        from repro.io import cli
        from repro.io.csvio import save_uncertain_csv

        data = tmp_path / "d.csv"
        save_uncertain_csv(_dataset(n=8), data)
        queries = tmp_path / "q.json"
        queries.write_text(json.dumps([
            {"kind": "prsq", "q": list(Q), "alpha": 0.4},
            {"kind": "prsq", "q": list(Q), "alpha": 0.6},
        ]))
        trace = tmp_path / "t.ndjson"

        original = BatchBuilder.stream

        def interrupted_stream(self, *args, **kwargs):
            iterator = original(self, *args, **kwargs)
            yield next(iterator)
            raise KeyboardInterrupt()

        monkeypatch.setattr(BatchBuilder, "stream", interrupted_stream)
        code = cli.main([
            "batch", "--data", str(data), "--queries", str(queries),
            "--stream", "--trace", str(trace),
        ])
        assert code == 130
        # the owned sink was flushed+closed on the shutdown path: the one
        # completed query's span tree is on disk, valid NDJSON
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
