"""The four workloads: seeded inputs, set-up, closed loops, output checks.

Every workload generates its inputs (CSV datasets, query streams,
selected non-answers, write streams) before any clock starts, hands the
program only those generated files, and then:

1. sets up ``SETUP_REPEATS`` times (``setup_s`` is their median);
2. runs a closed loop for the run's seconds (a traced run splits them:
   the first half untraced, the second half traced, plus a fixed-size
   count pass whose counters must repeat exactly for one seed);
3. checks answers against a fresh session.

The datasets and the non-answer pairs come from fixed generator seeds,
as in the paper benchmarks under ``benchmarks/``; ``--seed`` draws what
a run queries and writes.  A dataset drawn per seed would move the
per-query cost by several percent from seed to seed, and one pair whose
refinement examines ~10^4 subsets moves CP throughput tenfold, which
would drown the regression bounds in input noise.

``prsq-cold`` and ``why-not`` drive ``repro.api.connect`` in-process
from one thread; ``serve-hot`` and ``serve-churn`` drive a real
``python -m repro serve --threads 2`` child over two NDJSON
``RemoteClient`` connections from one asyncio loop.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import common
import layers
from common import Metrics, canon, latency_summary

SETUP_REPEATS = 3
ALPHAS = (0.2, 0.4, 0.6, 0.8)
WANTS = ("answers", "non_answers", "probabilities")
#: Generator seeds of the datasets (those of ``benchmarks/conftest.py``).
DATA_SEED, CERTAIN_SEED = 17, 19
#: The domain every synthetic generator in the program draws from.
DOMAIN = 10_000.0
#: The serve-churn writer's schedule: about a third of what one closed-loop
#: writer reaches beside the reader (~320/s on 2 CPUs).
WRITES_PER_S = 100.0

Span = Tuple[float, float]  # (sent, answered), perf_counter seconds


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Metrics = field(default_factory=Metrics)
    layers: Metrics = field(default_factory=Metrics)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    checked: int = 0
    record: Dict[str, Any] = field(default_factory=dict)
    shape: Dict[str, Any] = field(default_factory=dict)

    def count(self, loop: "Loop") -> None:
        self.attempted += loop.ops + loop.shed
        self.failed += loop.errors + loop.shed


@dataclass
class Loop:
    """Request spans of one closed-loop phase."""

    began: float = 0.0
    wall_s: float = 0.0
    reads: List[Span] = field(default_factory=list)
    writes: List[Span] = field(default_factory=list)
    errors: int = 0
    shed: int = 0
    cached_reads: int = 0

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def latencies(self, spans: Sequence[Span]) -> List[float]:
        return [done - sent for sent, done in spans]

    def mean_op_ms(self) -> float:
        return statistics.fmean(self.latencies(self.reads + self.writes)) * 1e3

    def summary(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "reads": latency_summary(self.latencies(self.reads)),
            "writes": latency_summary(self.latencies(self.writes)),
            "errors": self.errors,
            "shed": self.shed,
            "cached_reads": self.cached_reads,
        }


def _pool_specs(points: np.ndarray) -> list:
    """Every point x alpha x want combination."""
    from repro.engine.spec import PRSQSpec

    return [
        PRSQSpec(q=tuple(float(v) for v in point), alpha=alpha, want=want)
        for alpha in ALPHAS
        for want in WANTS
        for point in points
    ]


def _query_points(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    return rng.uniform(0.35 * DOMAIN, 0.65 * DOMAIN, size=(count, dims))


def _uncertain_csv(path: Path, n: int, dims: int) -> Dict[str, Any]:
    from repro.datasets.synthetic_uncertain import generate_named
    from repro.io.csvio import save_uncertain_csv

    dataset = generate_named(
        "lUrU", n, dims, radius_range=(0, 75), seed=DATA_SEED
    )
    save_uncertain_csv(dataset, path)
    return {
        "n": n, "d": dims, "shards": 1,
        "s_max": max(obj.num_samples for obj in dataset),
    }


def _end_to_end(outcome: Outcome, loop: Loop, setup: List[float], rss: float) -> None:
    ops = loop.reads + loop.writes
    put = outcome.metrics.put
    put("setup_s", statistics.median(setup), "s", len(setup))
    put("read_rps", common.slice_rate(loop.reads, loop.began, loop.wall_s),
        "1/s", len(loop.reads))
    put("read_p50_ms", statistics.median(loop.latencies(loop.reads)) * 1e3,
        "ms", len(loop.reads))
    put("op_rps", common.slice_rate(ops, loop.began, loop.wall_s), "1/s",
        len(ops))
    put("op_p50_ms", statistics.median(loop.latencies(ops)) * 1e3, "ms",
        len(ops))
    put("peak_rss_mb", rss, "MiB", 1)
    outcome.record["setup_samples_s"] = setup
    outcome.record["loops"] = {"timed": loop.summary()}
    if loop.writes:
        outcome.record["write_rps"] = common.slice_rate(
            loop.writes, loop.began, loop.wall_s
        )


def _per_layer(
    outcome: Outcome,
    untraced: Loop,
    traced: Loop,
    delta: Dict[str, Any],
    counts: Dict[str, Any],
    installed: Sequence[str],
    absent: Sequence[str],
) -> None:
    """Self time per request, counts per request, remainder and overhead."""
    put = outcome.layers.put
    ops = max(traced.ops, 1)
    attributed = 0.0
    for name in dict.fromkeys(name for name, _m, _p in layers.LAYERS):
        per_op_ms = delta["self_s"].get(name, 0.0) / ops * 1e3
        attributed += per_op_ms
        put(name, per_op_ms, "ms", delta["calls"].get(name, 0))
    requests = counts["requests"]
    kernel_calls = sum(counts["calls"].get(name, 0) for name in layers.KERNEL_METRICS)
    for name, total in (
        ("index.node_accesses", counts["node_accesses"]),
        ("prsq.kernel_calls", kernel_calls),
        ("prsq.oracle_evaluations", counts["oracle_evaluations"]),
        ("core.subsets_examined", counts["subsets_examined"]),
    ):
        put(name, total / requests, "count", requests)
    put("engine.cache_hit_ratio", traced.cached_reads / max(len(traced.reads), 1),
        "ratio", len(traced.reads))
    put("serve.shed", delta["shed"] / ops, "count", traced.ops)
    traced_ms = traced.mean_op_ms()
    put("other_ms", traced_ms - attributed, "ms", traced.ops)
    put("trace_overhead_ms", traced_ms - untraced.mean_op_ms(), "ms",
        untraced.ops + traced.ops)
    outcome.record["loops"] = {
        "untraced": untraced.summary(), "traced": traced.summary(),
    }
    outcome.record["trace"] = {
        "installed": list(installed),
        "absent": list(absent),
        "count_pass": {k: v for k, v in counts.items() if k != "calls"},
    }


def _check(outcome: Outcome, observed: Any, reference: Any) -> None:
    outcome.checked += 1
    if canon(observed) != canon(reference):
        outcome.mismatches += 1


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------
def _node_accesses() -> int:
    from repro import obs

    return obs.registry().snapshot()["counters"].get("index.node_accesses", 0)


def _local_loop(
    execute: Callable[[Any], Any],
    specs: Sequence[Any],
    seconds: float,
    start: int,
    on_answer: Callable[[int, Any, Any], None],
) -> Tuple[Loop, int]:
    """One thread, one request at a time, for *seconds*; returns (loop, next)."""
    loop = Loop(began=time.perf_counter())
    index = start
    while time.perf_counter() - loop.began < seconds:
        spec = specs[index % len(specs)]
        sent = time.perf_counter()
        envelope = execute(spec)
        loop.reads.append((sent, time.perf_counter()))
        loop.cached_reads += envelope.run.cached
        loop.errors += not envelope.ok
        on_answer(index, spec, envelope)
        index += 1
    loop.wall_s = time.perf_counter() - loop.began
    return loop, index


def _count_pass(
    acc: layers.Accumulator, execute: Callable[[Any], Any], specs: Sequence[Any]
) -> Dict[str, Any]:
    """Counters over a fixed request list on fresh sessions: exact per seed."""
    nodes_before = _node_accesses()
    before = acc.snapshot()
    oracle = subsets = 0
    for spec in specs:
        stats = getattr(execute(spec).value, "stats", None)
        if stats is not None:
            oracle += stats.oracle_evaluations
            subsets += stats.subsets_examined
    return {
        "requests": len(specs),
        "node_accesses": _node_accesses() - nodes_before,
        "oracle_evaluations": oracle,
        "subsets_examined": subsets,
        "calls": layers.diff(acc.snapshot(), before)["calls"],
    }


def _run_local(
    outcome: Outcome,
    args: Any,
    open_session: Callable[[], Callable[[Any], Any]],
    setup_specs: Sequence[Any],
    specs: Sequence[Any],
    count_specs: Sequence[Any],
    on_answer: Callable[[int, Any, Any], None],
) -> None:
    """Set-up, timed loop(s) and (traced) count pass of an in-process workload."""
    setup: List[float] = []
    execute = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        execute = None  # drop the previous sessions before timing the next
        began = time.perf_counter()
        execute = open_session()
        for spec in setup_specs:
            execute(spec)
        setup.append(time.perf_counter() - began)
    if not args.trace:
        loop, _next = _local_loop(execute, specs, args.seconds, 0, on_answer)
        _end_to_end(outcome, loop, setup, common.peak_rss_mb_self())
        outcome.count(loop)
        return
    half = args.seconds / 2.0
    untraced, index = _local_loop(execute, specs, half, 0, on_answer)
    acc = layers.Accumulator()
    installed, absent = layers.install(acc)
    before = acc.snapshot()
    traced, _next = _local_loop(execute, specs, half, index, on_answer)
    delta = layers.diff(acc.snapshot(), before)
    counts = _count_pass(acc, open_session(), count_specs)
    outcome.count(untraced)
    outcome.count(traced)
    outcome.attempted += len(count_specs)
    _per_layer(outcome, untraced, traced, delta, counts, installed, absent)


def prsq_cold(args: Any, work: Path) -> Outcome:
    from repro.api import connect
    from repro.engine.spec import PRSQSpec

    outcome = Outcome()
    csv = work / "objects.csv"
    outcome.shape = _uncertain_csv(csv, 150 if args.smoke else 1000, 2)
    # Far more distinct points than any run can use: nothing ever repeats.
    points = _query_points(np.random.default_rng(args.seed), 8193, 2)
    specs = [
        PRSQSpec(
            q=tuple(float(v) for v in point),
            alpha=ALPHAS[i % len(ALPHAS)],
            want=WANTS[i % len(WANTS)],
        )
        for i, point in enumerate(points)
    ]
    setup_specs, specs = specs[:1], specs[1:]

    answers: Dict[int, Any] = {}

    def keep(index: int, spec: Any, envelope: Any) -> None:
        if envelope.ok:
            answers[index] = envelope.value

    def open_session():
        return connect(csv).query

    _run_local(outcome, args, open_session, setup_specs, specs, specs[:2], keep)

    # Re-execute a seeded sample on a fresh session without a cache.
    picks = sorted(
        np.random.default_rng(args.seed + 1).choice(
            sorted(answers), size=min(2, len(answers)), replace=False
        ).tolist()
    )
    if args.corrupt and picks:
        answers[picks[0]] = common.corrupt(answers[picks[0]])
    fresh = connect(csv, cache_size=0)
    for index in picks:
        _check(outcome, answers[index], fresh.query(specs[index]).value)
    outcome.record["inputs"] = {
        "dataset": "lUrU", "radius": [0, 75], "distinct_points": len(specs),
        "mix": {"alphas": ALPHAS, "wants": WANTS},
    }
    return outcome


def why_not(args: Any, work: Path) -> Outcome:
    from repro.api import connect
    from repro.bench.workloads import (
        random_query,
        select_prsq_non_answers,
        select_rsq_non_answers,
    )
    from repro.datasets.synthetic_certain import generate_certain_dataset
    from repro.engine.spec import CausalityCertainSpec, CausalitySpec
    from repro.io.csvio import load_certain_csv, load_uncertain_csv, save_certain_csv

    outcome = Outcome()
    cp_n, cr_n = (300, 1000) if args.smoke else (2000, 8000)
    cp_csv, cr_csv = work / "cp.csv", work / "cr.csv"
    outcome.shape = _uncertain_csv(cp_csv, cp_n, 3)
    save_certain_csv(
        generate_certain_dataset(cr_n, 2, distribution="independent",
                                 seed=CERTAIN_SEED),
        cr_csv,
    )
    # Non-answers are selected on the loaded CSVs, so their ids are the
    # program's own (string) ids.
    cp_q = tuple(random_query(3, seed=DATA_SEED))
    cr_q = tuple(random_query(2, seed=CERTAIN_SEED))
    cp_picks = select_prsq_non_answers(
        load_uncertain_csv(cp_csv), cp_q, alpha=0.6, count=16,
        max_candidates=14, seed=DATA_SEED, max_probes=4000,
    )
    cr_picks = select_rsq_non_answers(
        load_certain_csv(cr_csv), cr_q, count=8, max_candidates=14,
        seed=CERTAIN_SEED, max_probes=4000,
    )
    rng = np.random.default_rng(args.seed)
    cp_specs = [CausalitySpec(an=cp_picks[i], q=cp_q, alpha=0.6)
                for i in rng.permutation(len(cp_picks))]
    cr_specs = [CausalityCertainSpec(an=cr_picks[i], q=cr_q)
                for i in rng.permutation(len(cr_picks))]
    # Three CP requests for every CR request, both lists replayed cyclically.
    specs = []
    for i in range(48):
        specs.extend(cp_specs[(3 * i + k) % 16] for k in range(3))
        specs.append(cr_specs[i % 8])

    def open_session():
        cp = connect(cp_csv, cache_size=0)
        cr = connect(cr_csv, dataset_kind="certain", cache_size=0)
        return lambda spec: (cr if spec.dataset_kind == "certain" else cp).query(spec)

    first: Dict[Any, Any] = {}

    def keep(index: int, spec: Any, envelope: Any) -> None:
        if not envelope.ok:
            return
        seen = first.setdefault(spec, envelope.value)
        # Every replay of one pair must give the first answer's causes.
        if seen is not envelope.value and seen.causes != envelope.value.causes:
            outcome.mismatches += 1

    # Set-up answers one CP and one CR request.
    _run_local(outcome, args, open_session, specs[:4:3], specs, specs[:8], keep)

    # Re-execute every distinct pair on fresh sessions.
    fresh = open_session()
    for position, spec in enumerate(sorted(first, key=repr)):
        observed = first[spec]
        if args.corrupt and position == 0:
            observed = common.corrupt(observed)
        _check(outcome, observed, fresh(spec).value)
    outcome.record["inputs"] = {
        "cp": {"dataset": "lUrU", "n": cp_n, "d": 3, "alpha": 0.6, "pairs": 16},
        "cr": {"dataset": "independent", "n": cr_n, "d": 2, "pairs": 8},
        "max_candidates": 14, "mix": "3 CP : 1 CR",
    }
    return outcome


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------
async def _spawn_ready(csv: Path, work: Path, tag: str, traced: bool = False):
    server = common.ServerProcess(csv, work / f"serve-{tag}.log", traced=traced)
    try:
        client = await server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, client


async def _serve_setup(csv: Path, work: Path, repeats: int):
    """Spawn-to-first-pong, *repeats* times; the last server stays up."""
    setup: List[float] = []
    server = client = None
    for k in range(repeats):
        if server is not None:
            await client.close()
            server.stop()
        server, client = await _spawn_ready(csv, work, f"setup{k}")
        setup.append(server.setup_s)
    return server, client, setup


async def _remote_reads(
    client: Any, specs: Sequence[Any], start: int, until: float, loop: Loop,
    on_answer: Callable[[Any, Any, Optional[int]], None],
) -> None:
    from repro.exceptions import OverloadedError

    index = start
    while time.perf_counter() < until:
        spec = specs[index % len(specs)]
        index += 1
        sent = time.perf_counter()
        try:
            envelope, version = await client.query_envelope(spec)
        except OverloadedError:
            loop.shed += 1
            continue
        loop.reads.append((sent, time.perf_counter()))
        loop.cached_reads += envelope.run.cached
        loop.errors += not envelope.ok
        on_answer(spec, envelope, version)


async def _stats(client: Any) -> Dict[str, Any]:
    payload = await client.stats()
    return {
        "perfbench": payload["perfbench"],
        "node_accesses": payload["metrics"]["counters"].get(
            "index.node_accesses", 0
        ),
    }


def _serve_counts(after: Dict[str, Any], before: Dict[str, Any],
                  requests: int) -> Dict[str, Any]:
    return {
        "requests": requests,
        "node_accesses": after["node_accesses"] - before["node_accesses"],
        "oracle_evaluations": 0,
        "subsets_examined": 0,
        "calls": layers.diff(after["perfbench"], before["perfbench"])["calls"],
    }


def _local_answers(csv: Path, specs: Sequence[Any]) -> Dict[Any, tuple]:
    """Reference answers at version 0, from a fresh local session."""
    from repro.api import connect

    client = connect(csv)
    return {spec: canon(client.query(spec).value) for spec in specs}


def serve_hot(args: Any, work: Path) -> Outcome:
    outcome = Outcome()
    csv = work / "objects.csv"
    outcome.shape = _uncertain_csv(csv, 200 if args.smoke else 1000, 2)
    rng = np.random.default_rng(args.seed)
    specs = _pool_specs(_query_points(rng, 8, 2))
    asyncio.run(_serve_hot(args, work, csv, specs, outcome))
    outcome.record["inputs"] = {
        "dataset": "lUrU", "radius": [0, 75],
        "pool": "8 points x 4 alphas x 3 wants",
    }
    return outcome


async def _serve_hot(
    args: Any, work: Path, csv: Path, specs: list, outcome: Outcome
) -> None:
    first: Dict[Any, Any] = {}

    def compare(spec: Any, envelope: Any, version: Optional[int]) -> None:
        if not envelope.ok:
            return
        outcome.checked += 1
        if version != 0 or envelope.value != first[spec]:
            outcome.mismatches += 1

    async def warm(clients: Sequence[Any]) -> Dict[Any, Any]:
        values: Dict[Any, Any] = {}

        async def one(client: Any, part: Sequence[Any]) -> None:
            for spec in part:
                envelope, _version = await client.query_envelope(spec)
                values[spec] = envelope.value

        # Each connection warms whole points, so no probability map is
        # computed twice by racing misses.
        by_point = sorted(specs, key=lambda spec: spec.q)
        half = len(by_point) // 2
        await asyncio.gather(one(clients[0], by_point[:half]),
                             one(clients[1], by_point[half:]))
        return values

    async def timed(clients: Sequence[Any], seconds: float) -> Loop:
        loop = Loop(began=time.perf_counter())
        until = loop.began + seconds
        await asyncio.gather(*(
            _remote_reads(client, specs, k * len(specs) // 2, until, loop, compare)
            for k, client in enumerate(clients)
        ))
        loop.wall_s = time.perf_counter() - loop.began
        return loop

    server, client, setup = await _serve_setup(
        csv, work, 1 if args.trace else SETUP_REPEATS
    )
    clients = [client]
    try:
        clients.append(await server.connect())
        began = time.perf_counter()
        reference = asyncio.get_running_loop().run_in_executor(
            None, _local_answers, csv, specs
        )
        first.update(await warm(clients))
        references = await reference
        outcome.record["warmup_s"] = time.perf_counter() - began
        outcome.attempted += len(specs)
        if args.corrupt:
            first[specs[0]] = common.corrupt(first[specs[0]])
        for spec in specs:
            outcome.checked += 1
            if first[spec] is None or canon(first[spec]) != references[spec]:
                outcome.mismatches += 1
        if not args.trace:
            loop = await timed(clients, args.seconds)
            outcome.count(loop)
        else:
            untraced = await timed(clients, args.seconds / 2.0)
            for item in clients:
                await item.close()
            server.stop()
            server, client = await _spawn_ready(csv, work, "traced", traced=True)
            clients = [client, await server.connect()]
            warmed = await warm(clients)
            outcome.checked += 1
            if warmed != first and not args.corrupt:
                outcome.mismatches += 1
            before = await _stats(client)
            traced = await timed(clients, args.seconds / 2.0)
            after = await _stats(client)
            # Count pass: every read is a hit, so the engine counters stay 0.
            for spec in specs[:12]:
                compare(spec, *(await client.query_envelope(spec)))
            counts = _serve_counts(await _stats(client), after, 12)
            outcome.count(untraced)
            outcome.count(traced)
            outcome.attempted += len(specs) + 12
            _per_layer(outcome, untraced, traced,
                       layers.diff(after["perfbench"], before["perfbench"]),
                       counts, after["perfbench"]["installed"],
                       after["perfbench"]["absent"])
    finally:
        for item in clients:
            await item.close()
        server.stop()
    if not args.trace:
        _end_to_end(outcome, loop, setup, common.peak_rss_mb_children())


class _History:
    """One server's acknowledged writes and a seeded sample of its reads."""

    SAMPLE = 12

    def __init__(self, seed: int):
        self.acked: Dict[int, Any] = {}
        self.sample: List[Tuple[int, Any, Any]] = []
        self.reads = 0
        self._rng = np.random.default_rng(seed)

    def read(self, spec: Any, envelope: Any, version: Optional[int]) -> None:
        if not envelope.ok:
            return
        # Reservoir sampling: which reads are kept depends only on the seed
        # and the read count, never on their timing.
        item = (version, spec, envelope.value)
        if self.reads < self.SAMPLE:
            self.sample.append(item)
        else:
            slot = int(self._rng.integers(0, self.reads + 1))
            if slot < self.SAMPLE:
                self.sample[slot] = item
        self.reads += 1


def _write_stream(rng: np.random.Generator, cycles: int, dims: int) -> list:
    """insert -> update -> delete cycles over private ids.

    Cycle k inserts ``bench-k``, updates ``bench-(k-1)`` and deletes
    ``bench-(k-2)``, so n stays within two of its start while no dataset
    content, and so no fingerprint, ever comes back.  Deleting the id a
    cycle inserted would restore the start content every third write and
    let reads hit probability maps cached at version 0.
    """
    from repro.uncertain.delta import DatasetDelta
    from repro.uncertain.object import UncertainObject

    def obj(k: int) -> UncertainObject:
        center = rng.uniform(0.0, DOMAIN, size=dims)
        samples = center + rng.uniform(-75, 75, size=(2, dims))
        return UncertainObject(f"bench-{k}", np.clip(samples, 0, DOMAIN))

    deltas = []
    for k in range(cycles):
        deltas.append(DatasetDelta.insertion(obj(k)))
        if k >= 1:
            deltas.append(DatasetDelta.replacement(obj(k - 1)))
        if k >= 2:
            deltas.append(DatasetDelta.deletion(f"bench-{k - 2}"))
    return deltas


def _verify_history(outcome: Outcome, csv: Path, history: _History,
                    corrupt: bool) -> None:
    """Writes acked as versions 1..W; sampled reads replay bit-for-bit."""
    from repro.engine import Session
    from repro.io.csvio import load_uncertain_csv

    outcome.checked += 1
    if sorted(history.acked) != list(range(1, len(history.acked) + 1)):
        outcome.mismatches += 1
    session = Session(load_uncertain_csv(csv))
    sample = sorted(history.sample, key=lambda item: (item[0], repr(item[1])))
    for position, (version, spec, value) in enumerate(sample):
        while session.version < version:
            delta = history.acked.get(session.version + 1)
            if delta is None:
                outcome.mismatches += 1
                return
            session.apply(delta)
        if corrupt and position == 0:
            value = common.corrupt(value)
        _check(outcome, value, session.query(spec).value)


def serve_churn(args: Any, work: Path) -> Outcome:
    outcome = Outcome()
    csv = work / "objects.csv"
    outcome.shape = _uncertain_csv(csv, 120 if args.smoke else 300, 2)
    rng = np.random.default_rng(args.seed)
    # Every read misses here, so a wider pool than serve-hot's costs no
    # hits; it averages the per-point PRSQ cost that made an 8-point
    # pool's median read latency swing by a quarter between seeds.
    specs = _pool_specs(_query_points(rng, 32, 2))
    # ~12,000 writes: two minutes of the writer's schedule.
    deltas = _write_stream(rng, 4096, 2)
    asyncio.run(_serve_churn(args, work, csv, specs, deltas, outcome))
    outcome.record["inputs"] = {
        "dataset": "lUrU", "radius": [0, 75],
        "reads": "32 points x 4 alphas x 3 wants",
        "writes": f"insert k, update k-1, delete k-2 at {WRITES_PER_S:g}/s",
    }
    return outcome


async def _serve_churn(
    args: Any, work: Path, csv: Path, specs: list, deltas: list, outcome: Outcome
) -> None:
    from repro.engine.spec import UpdateSpec
    from repro.exceptions import OverloadedError

    async def write(client: Any, delta: Any, loop: Loop, history: _History,
                    due: Optional[float] = None) -> None:
        """One acknowledged write, timed from when it was *due* to be sent."""
        while True:
            sent = time.perf_counter() if due is None else due
            try:
                envelope, version = await client.query_envelope(
                    UpdateSpec.from_delta(delta)
                )
            except OverloadedError as exc:
                loop.shed += 1
                await asyncio.sleep(exc.retry_after_s)
                continue
            loop.writes.append((sent, time.perf_counter()))
            if envelope.ok:
                history.acked[version] = delta
            else:
                loop.errors += 1
            return

    async def writer(client: Any, start: int, until: float, loop: Loop,
                     history: _History) -> None:
        # Paced: a closed-loop writer fights the reader for the server's
        # GIL with a feedback loop that moved read throughput by 20 % from
        # run to run.  A write that falls behind its schedule is sent at
        # once and timed from when it was due, so a stall still shows.
        index = start
        due = loop.began
        while due < until and index < len(deltas):
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await write(client, deltas[index], loop, history, due)
            index += 1
            due += 1.0 / WRITES_PER_S

    async def timed(clients: Sequence[Any], seconds: float, start: int,
                    history: _History) -> Loop:
        loop = Loop(began=time.perf_counter())
        until = loop.began + seconds
        await asyncio.gather(
            writer(clients[0], start, until, loop, history),
            _remote_reads(clients[1], specs, 0, until, loop, history.read),
        )
        loop.wall_s = time.perf_counter() - loop.began
        return loop

    server, client, setup = await _serve_setup(
        csv, work, 1 if args.trace else SETUP_REPEATS
    )
    clients = [client]
    histories = [_History(args.seed)]
    try:
        clients.append(await server.connect())
        if not args.trace:
            loop = await timed(clients, args.seconds, 0, histories[0])
            outcome.count(loop)
        else:
            untraced = await timed(clients, args.seconds / 2.0, 0, histories[0])
            for item in clients:
                await item.close()
            server.stop()
            server, client = await _spawn_ready(csv, work, "traced", traced=True)
            clients = [client, await server.connect()]
            histories.append(_History(args.seed))
            # The count pass runs first, on the fresh server, one request
            # at a time: two full write cycles, each write followed by a read.
            start = await _stats(client)
            count_loop = Loop()
            for k in range(6):
                await write(client, deltas[k], count_loop, histories[1])
                envelope, version = await client.query_envelope(specs[k])
                histories[1].read(specs[k], envelope, version)
                count_loop.errors += not envelope.ok
            before = await _stats(client)
            traced = await timed(clients, args.seconds / 2.0, 6, histories[1])
            after = await _stats(client)
            outcome.count(untraced)
            outcome.count(traced)
            outcome.count(count_loop)
            outcome.attempted += 6
            _per_layer(outcome, untraced, traced,
                       layers.diff(after["perfbench"], before["perfbench"]),
                       _serve_counts(before, start, 12),
                       after["perfbench"]["installed"],
                       after["perfbench"]["absent"])
    finally:
        for item in clients:
            await item.close()
        server.stop()
    if not args.trace:
        _end_to_end(outcome, loop, setup, common.peak_rss_mb_children())
    for position, history in enumerate(histories):
        _verify_history(outcome, csv, history, args.corrupt and position == 0)
    outcome.record["acked_writes"] = [len(h.acked) for h in histories]


WORKLOADS = {
    "prsq-cold": prsq_cold,
    "why-not": why_not,
    "serve-hot": serve_hot,
    "serve-churn": serve_churn,
}
