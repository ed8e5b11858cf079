"""Resilience layers over repro.serve: deadlines, idempotency, degraded
mode, client retries, graceful drain, and the CLI failure contract.

Everything here is deterministic: faults come from explicit
:class:`FaultPlan` rules (never timing races), retry jitter is seeded,
and overload is created by holding the server's only admission slot from
the test's own event loop.
"""

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.api.remote import RemoteClient
from repro.api.retry import RetryPolicy
from repro.engine.spec import PRSQSpec, UpdateSpec
from repro.exceptions import (
    DatasetDegradedError,
    DeadlineExceededError,
    InvalidSpecError,
    OverloadedError,
)
from repro.faults import FaultPlan, FaultRule
from repro.serve import DatasetService, ReproServer, ServeConfig
from repro.uncertain import UncertainDataset, UncertainObject

Q = (5.0, 5.0)


def _dataset(n=24, seed=11):
    rng = np.random.default_rng(seed)
    return UncertainDataset(
        [
            UncertainObject(f"o{i}", rng.uniform(0.0, 10.0, size=(3, 2)))
            for i in range(n)
        ]
    )


def _config(**overrides):
    base = dict(port=0, threads=2, cache_size=256)
    base.update(overrides)
    return ServeConfig(**base)


def _insert_spec(oid):
    return UpdateSpec(inserts=(
        UncertainObject(oid, [[1.0, 2.0], [2.0, 1.0]]),
    ))


async def _http(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.decode().split("\r\n")[0].split()[1])
    return status, body


# ----------------------------------------------------------------------
# deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_is_typed_end_to_end(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                async with await RemoteClient.connect(port=srv.port) as client:
                    with pytest.raises(DeadlineExceededError):
                        await client.query_envelope(
                            PRSQSpec(q=Q, alpha=0.4), deadline_ms=0.001
                        )
                    # The connection stays usable afterwards.
                    envelope, _ = await client.query_envelope(
                        PRSQSpec(q=Q, alpha=0.4)
                    )
                    assert envelope.ok

        asyncio.run(main())

    def test_expired_deadline_in_write_queue(self):
        async def main():
            async with DatasetService({"default": _dataset()}, _config()) as svc:
                with pytest.raises(DeadlineExceededError):
                    await svc.execute(
                        _insert_spec("late"),
                        deadline=time.monotonic() - 1.0,
                    )
                # The expired write must never have been applied.
                envelope, _ = await svc.execute(PRSQSpec(q=Q, alpha=0.4))
                assert envelope.ok
                assert svc.state("default").published.version == 0

        asyncio.run(main())

    def test_http_maps_deadline_to_504(self):
        async def main():
            async with ReproServer({"default": _dataset()}, _config()) as srv:
                body = json.dumps({
                    "spec": {"kind": "prsq", "q": list(Q), "alpha": 0.4},
                    "deadline_ms": 0.001,
                }).encode()
                status, payload = await _http(
                    srv.port,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + body,
                )
                assert status == 504
                assert json.loads(payload)["error"]["code"] == "deadline_exceeded"

        asyncio.run(main())

    def test_deadline_counter_increments_once(self):
        async def main():
            counter = obs.registry().counter("serve.deadline_exceeded")
            before = counter.value
            async with DatasetService({"default": _dataset()}, _config()) as svc:
                with pytest.raises(DeadlineExceededError):
                    await svc.execute(
                        PRSQSpec(q=Q, alpha=0.4),
                        deadline=time.monotonic() - 1.0,
                    )
            assert counter.value == before + 1

        asyncio.run(main())


# ----------------------------------------------------------------------
# idempotency
# ----------------------------------------------------------------------
class TestIdempotency:
    def test_same_key_applies_exactly_once(self):
        async def main():
            async with DatasetService({"default": _dataset()}, _config()) as svc:
                first, v1 = await svc.execute(
                    _insert_spec("dup"), idem="k1"
                )
                second, v2 = await svc.execute(
                    _insert_spec("dup"), idem="k1"
                )
                assert first.ok and second.ok
                assert v1 == v2 == 1
                assert len(svc.state("default").published.dataset) == 25
                hits = obs.registry().counter("retry.idempotent_hits")
                assert hits.value >= 1

        asyncio.run(main())

    def test_concurrent_duplicates_share_one_apply(self):
        async def main():
            async with DatasetService({"default": _dataset()}, _config()) as svc:
                results = await asyncio.gather(*[
                    svc.execute(_insert_spec("dup"), idem="k2")
                    for _ in range(4)
                ])
                versions = {version for _, version in results}
                assert versions == {1}
                assert len(svc.state("default").published.dataset) == 25

        asyncio.run(main())

    def test_recorded_result_survives_writer_death(self):
        async def main():
            plan = FaultPlan(seed=0, rules=(
                FaultRule(seam="writer.apply", hit=2, action="error"),
            ))
            with faults.installed(plan):
                async with DatasetService(
                    {"default": _dataset()}, _config()
                ) as svc:
                    first, v1 = await svc.execute(
                        _insert_spec("pre"), idem="seen"
                    )
                    assert first.ok
                    with pytest.raises(DatasetDegradedError):
                        await svc.execute(_insert_spec("boom"), idem="doomed")
                    # The applied-but-maybe-lost retry still resolves.
                    replay, v2 = await svc.execute(
                        _insert_spec("pre"), idem="seen"
                    )
                    assert replay.ok and v2 == v1
                    # A *new* mutation is refused, typed.
                    with pytest.raises(DatasetDegradedError):
                        await svc.execute(_insert_spec("post"), idem="fresh")

        asyncio.run(main())


# ----------------------------------------------------------------------
# degraded mode
# ----------------------------------------------------------------------
class TestDegradedMode:
    def test_writer_death_flips_read_only_degraded(self):
        async def main():
            plan = FaultPlan(seed=0, rules=(
                FaultRule(seam="writer.apply", hit=1, action="error"),
            ))
            config = _config(fault_plan=plan)
            deaths = obs.registry().counter("fault.writer_deaths")
            before = deaths.value
            async with ReproServer({"default": _dataset()}, config) as srv:
                async with await RemoteClient.connect(port=srv.port) as client:
                    with pytest.raises(DatasetDegradedError):
                        await client.insert(
                            "kill", samples=[[1.0, 1.0]], probabilities=[1.0]
                        )
                    # Reads keep answering from the published snapshot.
                    envelope = await client.prsq(Q, alpha=0.4)
                    assert envelope.ok
                    ping = await client.ping()
                    assert ping["degraded"] == ["default"]
                    assert ping["status"]["default"] == "degraded"
                    stats = await client.stats()
                    assert stats["service"]["degraded"] == ["default"]
                    info = stats["datasets"]["default"]
                    assert info["status"] == "degraded"
                    assert "degraded_reason" in info
                # HTTP surfaces the same contract as 503.
                from repro.api.registry import REGISTRY

                body = json.dumps(
                    {"spec": REGISTRY.spec_to_dict(_insert_spec("x"))}
                ).encode()
                status, payload = await _http(
                    srv.port,
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + body,
                )
                assert status == 503
                assert json.loads(payload)["error"]["code"] == "degraded"
            assert deaths.value == before + 1

        asyncio.run(main())


# ----------------------------------------------------------------------
# client retries
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_policy_validates_and_jitters_deterministically(self):
        with pytest.raises(InvalidSpecError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidSpecError):
            RetryPolicy(base_s=0.5, cap_s=0.1)
        a = RetryPolicy(seed=9).schedule()
        b = RetryPolicy(seed=9).schedule()
        draws = [next(a) for _ in range(6)]
        assert draws == [next(b) for _ in range(6)]
        assert all(
            RetryPolicy().base_s <= d <= RetryPolicy().cap_s for d in draws
        )

    def test_overloaded_read_retries_to_success(self):
        async def main():
            config = _config(max_inflight=1, max_queue=0)
            async with ReproServer({"default": _dataset()}, config) as srv:
                policy = RetryPolicy(
                    max_attempts=6, base_s=0.05, cap_s=0.1, seed=1
                )
                async with await RemoteClient.connect(
                    port=srv.port, retry=policy
                ) as client:
                    await srv.service.admission.acquire()
                    retries = obs.registry().counter("retry.attempts")
                    before = retries.value

                    async def release_soon():
                        await asyncio.sleep(0.15)
                        srv.service.admission.release()

                    release = asyncio.ensure_future(release_soon())
                    envelope, _ = await client.query_envelope(
                        PRSQSpec(q=Q, alpha=0.4)
                    )
                    await release
                    assert envelope.ok
                    assert retries.value > before

        asyncio.run(main())

    def test_reconnects_after_injected_connection_drop(self):
        async def main():
            plan = FaultPlan(seed=0, rules=(
                FaultRule(seam="socket.read", hit=2, action="drop"),
            ))
            config = _config(fault_plan=plan)
            async with ReproServer({"default": _dataset()}, config) as srv:
                reconnects = obs.registry().counter("retry.reconnects")
                before = reconnects.value
                async with await RemoteClient.connect(
                    port=srv.port,
                    retry=RetryPolicy(base_s=0.01, cap_s=0.05, seed=2),
                ) as client:
                    first = await client.prsq(Q, alpha=0.4)
                    second = await client.prsq(Q, alpha=0.4)  # dropped, retried
                    assert first.value == second.value
                assert reconnects.value == before + 1

        asyncio.run(main())

    def test_pending_map_never_leaks(self):
        """Regression: a request cancelled mid-wait (or failed) must not
        leave its response queue in ``_pending`` forever."""

        async def main():
            async def black_hole(reader, writer):
                try:
                    await reader.read()  # swallow everything, answer nothing
                finally:
                    # a writer left open is collected after the loop has
                    # closed and warns from a later test
                    writer.close()

            server = await asyncio.start_server(
                black_hole, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                client = await RemoteClient.connect(port=port)
                task = asyncio.ensure_future(client.request({"op": "ping"}))
                await asyncio.sleep(0.05)
                assert len(client._pending) == 1
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert client._pending == {}
                await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_stop_flushes_in_flight_streamed_batch(self):
        """SIGTERM (server.stop) mid-batch: the tail of the stream is
        flushed within drain_timeout_s and the socket closes cleanly —
        no reset, no truncated NDJSON line."""

        async def main():
            config = _config(drain_timeout_s=5.0)
            async with ReproServer({"default": _dataset()}, config) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                specs = [
                    {"kind": "prsq", "q": [4.0 + 0.2 * i, 5.0], "alpha": 0.4}
                    for i in range(6)
                ]
                writer.write((json.dumps({
                    "id": 1, "op": "batch", "specs": specs,
                }) + "\n").encode())
                await writer.drain()
                first = json.loads(await reader.readline())
                assert first["seq"] == 0
                # Drain starts while five frames are still owed.
                stopper = asyncio.ensure_future(srv.stop())
                frames = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), 5.0)
                    if not line:
                        break
                    frames.append(json.loads(line))
                await stopper
                writer.close()
                done = [f for f in frames if f.get("done")]
                seqs = [f["seq"] for f in frames if "seq" in f]
                assert seqs == list(range(1, 6))
                assert len(done) == 1 and done[0]["count"] == 6

        asyncio.run(main())


# ----------------------------------------------------------------------
# CLI failure contract
# ----------------------------------------------------------------------
class TestServeCli:
    def test_bind_failure_exits_2(self, tmp_path, capsys):
        from repro.io.cli import main as cli_main
        from repro.io import save_uncertain_csv

        path = tmp_path / "ds.csv"
        save_uncertain_csv(_dataset(n=6), path)
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = cli_main([
                "serve", "--data", str(path), "--port", str(port),
            ])
        finally:
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind")
        assert "Traceback" not in err

    def test_fault_plan_flag_parses(self, tmp_path):
        # An unparsable plan is a usage error before any socket work.
        from repro.io.cli import main as cli_main
        from repro.io import save_uncertain_csv

        path = tmp_path / "ds.csv"
        save_uncertain_csv(_dataset(n=6), path)
        code = cli_main([
            "serve", "--data", str(path), "--fault-plan", "not-a-plan",
        ])
        assert code == 1
