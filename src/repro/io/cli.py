"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro generate --kind uncertain --n 500 --dims 2 --out data.csv
    python -m repro prsq     --data data.csv --q 5000 5000 --alpha 0.5
    python -m repro explain  --data data.csv --q 5000 5000 --alpha 0.5 --an 42
    python -m repro explain-certain --data cars.csv --q 11580 49000 --an an-7510-10180
    python -m repro batch    --data data.csv --queries queries.json --workers 4
    python -m repro batch    --data data.csv --queries queries.json --stream
    python -m repro batch    --data data.csv --queries queries.json --trace t.ndjson
    python -m repro stats    --data data.csv --queries queries.json
    python -m repro update   --data data.csv --ops ops.ndjsonl --out new.csv
    python -m repro serve    --data data.csv --port 7733 --threads 4
    python -m repro lint     src tests --json

``generate`` writes a synthetic dataset; ``prsq`` lists answers and
non-answers with probabilities; ``explain`` runs algorithm CP on one
non-answer (``explain-certain`` runs CR on certain data).  These three are
one-shot calls of the :func:`repro.api.connect` client's family methods,
so ``--q`` and ``--alpha`` are checked as specs are: a NaN or infinite
coordinate, or an alpha outside (0, 1], is an ``error:`` exit 1.
``batch`` runs a JSON file of query specs through the :mod:`repro.api`
client with optional multiprocess fan-out and result caching.  All JSON
emission goes through the typed :class:`~repro.api.results.QueryResult`
envelopes: ``--json`` prints one JSON array of envelopes, ``--stream``
prints NDJSON — one envelope per line, flushed as each result lands, so
a consumer can pipe the output while long batches are still running.

``update`` drives one **live session**: each NDJSON input line is either a
shorthand op (``{"op": "insert"|"update"|"delete", "id": ..., "samples":
[[...]], ...}``) or any registered query-spec dict (``{"kind": ...}``),
executed strictly in order against a single session whose dataset is
patched incrementally — queries interleaved with updates see exactly the
contents written before them.  One envelope per line is emitted as NDJSON,
and ``--out`` saves the final dataset as CSV.

``serve`` hosts one or more live datasets behind the :mod:`repro.serve`
asyncio server (NDJSON protocol + HTTP POST on one port) until
SIGINT/SIGTERM; ``batch`` and ``serve`` share the same shutdown
discipline — flush what was already produced, close the tracer sink,
exit with a distinct status — so Ctrl-C never truncates an NDJSON line
or loses buffered spans.

``lint`` runs the :mod:`repro.analysis` AST invariant linter over the
given paths (determinism, concurrency, cache-discipline, and hygiene
contracts; see the README rule table).  Exit codes are stable: 0 clean,
1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.api import Client, connect
from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.exceptions import ReproError
from repro.io.csvio import (
    load_certain_csv,
    load_uncertain_csv,
    save_certain_csv,
    save_uncertain_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Causality & responsibility for probabilistic reverse skyline "
            "query non-answers (Gao et al., TKDE 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("--kind", choices=["uncertain", "certain"], default="uncertain")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--dims", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--distribution",
        default=None,
        help="certain: independent/correlated/anticorrelated/clustered; "
        "uncertain: uniform/skew center distribution",
    )
    gen.add_argument("--radius", type=float, default=75.0,
                     help="uncertain only: maximum region radius")
    gen.add_argument("--out", required=True)

    prsq = sub.add_parser("prsq", help="run the probabilistic reverse skyline query")
    prsq.add_argument("--data", required=True, help="uncertain CSV (long format)")
    prsq.add_argument("--q", type=float, nargs="+", required=True)
    prsq.add_argument("--alpha", type=float, default=0.5)

    explain = sub.add_parser("explain", help="algorithm CP on one non-answer")
    explain.add_argument("--data", required=True, help="uncertain CSV (long format)")
    explain.add_argument("--q", type=float, nargs="+", required=True)
    explain.add_argument("--alpha", type=float, default=0.5)
    explain.add_argument("--an", required=True, help="non-answer object id")
    explain.add_argument("--json", action="store_true")

    explain_c = sub.add_parser(
        "explain-certain", help="algorithm CR on one certain-data non-answer"
    )
    explain_c.add_argument("--data", required=True, help="certain CSV (wide format)")
    explain_c.add_argument("--q", type=float, nargs="+", required=True)
    explain_c.add_argument("--an", required=True, help="non-answer object id")
    explain_c.add_argument("--json", action="store_true")

    batch = sub.add_parser(
        "batch",
        help="run a batch of engine query specs (JSON) over one dataset",
        description=(
            "Execute a JSON array of query specs against a repro.engine "
            "session: the R-tree is built once, results are cached in an "
            "LRU keyed by dataset fingerprint, and --workers fans the "
            "batch out over worker processes with deterministic ordering. "
            'Spec example: [{"kind": "prsq", "q": [5000, 5000], '
            '"alpha": 0.5, "want": "non_answers"}, {"kind": "causality", '
            '"an": "42", "q": [5000, 5000], "alpha": 0.5}]'
        ),
    )
    batch.add_argument("--data", required=True, help="dataset CSV")
    batch.add_argument(
        "--dataset-kind",
        choices=["uncertain", "certain"],
        default="uncertain",
        help="CSV flavour of --data (default: uncertain, long format)",
    )
    batch.add_argument(
        "--queries", required=True, help="JSON file: array of query specs"
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial, default)",
    )
    batch.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="LRU result-cache capacity (default 4096; 0 disables caching)",
    )
    batch.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write one NDJSON span tree per query to FILE and add a "
        "run.phases breakdown to every envelope",
    )
    out_fmt = batch.add_mutually_exclusive_group()
    out_fmt.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of typed result envelopes",
    )
    out_fmt.add_argument(
        "--stream",
        action="store_true",
        help="emit NDJSON: one envelope per line, flushed incrementally",
    )

    stats = sub.add_parser(
        "stats",
        help="run a batch and print the metrics-registry snapshot",
        description=(
            "Execute the same JSON query-spec batch the batch subcommand "
            "takes, then print the process-global repro.obs metrics "
            "snapshot (per-family query counts and latency histograms, "
            "result-cache hit/miss counters, R-tree node accesses) as one "
            "JSON object instead of the per-query envelopes."
        ),
    )
    stats.add_argument("--data", required=True, help="dataset CSV")
    stats.add_argument(
        "--dataset-kind",
        choices=["uncertain", "certain"],
        default="uncertain",
        help="CSV flavour of --data (default: uncertain, long format)",
    )
    stats.add_argument(
        "--queries", required=True, help="JSON file: array of query specs"
    )
    stats.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial, default)",
    )
    stats.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="LRU result-cache capacity (default 4096; 0 disables caching)",
    )

    update = sub.add_parser(
        "update",
        help="apply an NDJSON stream of live updates (and interleaved queries)",
        description=(
            "Run a live session over --data: every line of --ops is one op "
            '(shorthand {"op": "insert", "id": "x", "samples": [[1, 2]]} / '
            '{"op": "delete", "id": "x"}) or one query-spec dict '
            '({"kind": "prsq", ...}), executed in order with incremental '
            "dataset patching (no per-op O(n) rebuild).  Emits one NDJSON "
            "envelope per line; --out writes the final dataset."
        ),
    )
    update.add_argument("--data", required=True, help="dataset CSV")
    update.add_argument(
        "--dataset-kind",
        choices=["uncertain", "certain"],
        default="uncertain",
        help="CSV flavour of --data (default: uncertain, long format)",
    )
    update.add_argument(
        "--ops",
        required=True,
        help="NDJSON file: one op or query spec per line ('-' for stdin)",
    )
    update.add_argument(
        "--out", default=None, help="write the final dataset to this CSV"
    )
    update.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="LRU result-cache capacity (default 4096; 0 disables caching)",
    )

    serve = sub.add_parser(
        "serve",
        help="host live dataset(s) over the NDJSON/HTTP query server",
        description=(
            "Run the repro.serve asyncio server: named live sessions with "
            "snapshot-isolated concurrent reads, a single-writer update "
            "queue per dataset, a shared LRU result cache, and bounded "
            "admission (overload answers a structured 'overloaded' "
            "envelope with retry_after_s, never a dropped connection). "
            "NDJSON protocol and HTTP/1.1 POST share one port. "
            "Stops gracefully on SIGINT/SIGTERM."
        ),
    )
    serve.add_argument(
        "--data",
        action="append",
        required=True,
        metavar="[NAME=]CSV",
        help="dataset to host (repeatable); bare paths get name 'default'",
    )
    serve.add_argument(
        "--dataset-kind",
        choices=["uncertain", "certain"],
        default="uncertain",
        help="CSV flavour of every --data (default: uncertain, long format)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7733,
                       help="TCP port (0 binds a free one; default 7733)")
    serve.add_argument("--threads", type=int, default=4,
                       help="query worker threads (default 4)")
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="shared LRU result-cache capacity (default 4096; 0 disables)",
    )
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrently executing queries (default 8)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission queue depth before shedding (default 64)")
    serve.add_argument("--write-queue", type=int, default=128,
                       help="pending mutations per dataset (default 128)")
    serve.add_argument("--per-connection", type=int, default=32,
                       help="in-flight requests per connection (default 32)")
    serve.add_argument(
        "--fault-plan",
        metavar="SEED|JSON|FILE",
        help="install a deterministic fault-injection plan (chaos testing "
        "only): an integer seed generates one, inline JSON or a JSON file "
        "spells one out; REPRO_FAULT_PLAN is the env equivalent",
    )

    from repro.analysis.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis AST invariant linter",
        description=(
            "Statically check the codebase's determinism, concurrency, "
            "cache-discipline, and API-hygiene contracts (rules RPR001-"
            "RPR303; '# repro: ignore[RPRxxx]' suppresses one line and "
            "errors when unused).  Exit codes: 0 clean, 1 findings, "
            "2 usage/config error."
        ),
    )
    add_lint_arguments(lint)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "certain":
        dataset = generate_certain_dataset(
            args.n,
            args.dims,
            distribution=args.distribution or "independent",
            seed=args.seed,
        )
        save_certain_csv(dataset, args.out)
    else:
        dataset = generate_uncertain_dataset(
            args.n,
            args.dims,
            center_distribution=args.distribution or "uniform",
            radius_range=(0.0, args.radius),
            seed=args.seed,
        )
        save_uncertain_csv(dataset, args.out)
    print(f"wrote {args.kind} dataset: n={args.n} dims={args.dims} -> {args.out}")
    return 0


def _cmd_prsq(args: argparse.Namespace) -> int:
    probabilities = connect(args.data, cache_size=0).prsq(
        args.q, alpha=args.alpha, want="probabilities"
    ).value.probabilities
    answers = 0
    for oid, pr in probabilities.items():
        tag = "answer" if pr >= args.alpha else "non-answer"
        answers += tag == "answer"
        print(f"{oid}\t{pr:.6f}\t{tag}")
    print(
        f"# {answers} answers / {len(probabilities) - answers} non-answers "
        f"at alpha={args.alpha}",
        file=sys.stderr,
    )
    return 0


def _print_cause_lines(answer) -> None:
    """Ranked cause lines for a CausalityAnswer envelope payload."""
    kinds = {record.id: record.kind for record in answer.causes}
    for oid, resp in answer.ranked():
        print(f"  {oid}\tresponsibility={resp:.6f}\t{kinds[oid]}")


def _print_answer(answer, as_json: bool) -> None:
    """A CausalityAnswer as text, or as its JSON dict with ``--json``."""
    if as_json:
        print(json.dumps(answer.to_dict(), indent=2))
        return
    print(f"causes for non-answer {answer.an!r}:")
    _print_cause_lines(answer)
    print(
        f"# {answer.stats.node_accesses} node accesses, "
        f"{answer.stats.cpu_time_s * 1e3:.2f} ms",
        file=sys.stderr,
    )


def _cmd_explain(args: argparse.Namespace) -> int:
    client = connect(args.data, cache_size=0)
    answer = client.causality(args.an, args.q, alpha=args.alpha).value
    _print_answer(answer, args.json)
    return 0


def _cmd_explain_certain(args: argparse.Namespace) -> int:
    client = connect(args.data, dataset_kind="certain", cache_size=0)
    _print_answer(client.causality_certain(args.an, args.q).value, args.json)
    return 0


def _load_dataset(path: str, kind: str):
    """The CSV at *path* in the ``--dataset-kind`` flavour *kind*."""
    if kind == "certain":
        return load_certain_csv(path)
    return load_uncertain_csv(path)


def _read_specs(path: str) -> list:
    """The query specs of a ``--queries`` JSON array file."""
    from repro.engine import spec_from_dict

    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of query specs")
    return [spec_from_dict(item) for item in payload]


def _print_envelope_text(envelope) -> None:
    """Human-readable rendering of one typed result envelope."""
    from repro.api.results import (
        CausalityAnswer,
        PRSQResult,
        ReverseKSkybandResult,
        ReverseSkylineResult,
        ReverseTopKResult,
    )

    if envelope.error is not None:
        error = envelope.error
        print(f"[error] {envelope.spec.describe()}")
        print(f"  {error.type}: {error.message} [code={error.code}]")
        return
    tag = "cached" if envelope.run.cached else "computed"
    print(f"[{tag}] {envelope.spec.describe()}")
    value = envelope.value
    if isinstance(value, CausalityAnswer):
        _print_cause_lines(value)
    elif isinstance(value, PRSQResult) and value.probabilities is not None:
        for oid in sorted(value.probabilities, key=repr):
            print(f"  {oid}\t{value.probabilities[oid]:.6f}")
    elif isinstance(
        value, (PRSQResult, ReverseSkylineResult, ReverseKSkybandResult)
    ):
        print(f"  {len(value.ids)} object(s): {', '.join(map(str, value.ids))}")
    elif isinstance(value, ReverseTopKResult):
        print(
            f"  {len(value.user_ids)} user(s): "
            f"{', '.join(map(str, value.user_ids))}"
        )
    else:  # runtime-registered family: fall back to its dict form
        print(f"  {json.dumps(value.to_dict())}")


def _mute_stdout() -> None:
    """Point stdout at /dev/null after a broken pipe.

    The consumer is gone; anything further written to the real fd would
    raise again (including the interpreter's implicit flush at exit), so
    swap the fd out once and let the remaining prints go nowhere.
    """
    import os

    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError:
        pass


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine import ParallelExecutor, Session

    dataset = _load_dataset(args.data, args.dataset_kind)
    specs = _read_specs(args.queries)

    executor = (
        ParallelExecutor(workers=args.workers, cache_size=args.cache_size)
        if args.workers > 1
        else None
    )
    tracer = (
        obs.Tracer.to_path(args.trace) if args.trace is not None else None
    )
    # With a parallel executor the workers build their own sessions (and
    # indexes); the parent session only validates specs, so skip its eager
    # index build — the R-tree is still built lazily if a serial fallback runs.
    client = Client(
        Session(
            dataset,
            cache_size=args.cache_size,
            build_index=executor is None,
            tracer=tracer,
        )
    )
    batch = client.batch().extend(specs)

    started = time.perf_counter()
    total = hits = failures = 0
    stopped: Optional[str] = None
    try:
        if args.stream:
            # NDJSON: one envelope per line, flushed as each result lands;
            # only counters are retained, so memory stays flat on long
            # batches.
            for envelope in batch.stream(
                workers=args.workers, executor=executor
            ):
                print(json.dumps(envelope.to_dict()), flush=True)
                total += 1
                hits += envelope.run.cached
                failures += not envelope.ok
        else:
            envelopes = batch.run(workers=args.workers, executor=executor)
            total = len(envelopes)
            hits = sum(e.run.cached for e in envelopes)
            failures = sum(not e.ok for e in envelopes)
            if args.json:
                print(json.dumps([e.to_dict() for e in envelopes], indent=2))
            else:
                for envelope in envelopes:
                    _print_envelope_text(envelope)
    except KeyboardInterrupt:
        # Same discipline as the server's SIGINT path: every envelope
        # already printed stays valid NDJSON (each line was flushed
        # whole), nothing half-written is emitted after this point.
        stopped = "interrupted (SIGINT)"
    except BrokenPipeError:
        stopped = "output pipe closed"
        _mute_stdout()
    finally:
        # The one shutdown path, normal or not: flush-and-close the
        # tracer's owned NDJSON sink so buffered spans hit disk.
        client.close()
        try:
            sys.stdout.flush()
        except (BrokenPipeError, ValueError, OSError):
            _mute_stdout()
    elapsed = max(time.perf_counter() - started, 1e-9)

    if executor is None:
        stats = client.cache_stats()
        cache_note = f"cache hits={stats['hits']} misses={stats['misses']}"
    else:
        # Merged per-worker deltas: cold-cache regressions stay visible
        # even though each worker holds a private cache.
        merged = executor.last_cache_stats
        cache_note = (
            "worker caches (merged) "
            f"hits={merged.hits} misses={merged.misses} "
            f"evictions={merged.evictions}"
            if merged is not None
            else f"worker-local caches, {hits} cached outcome(s)"
        )
    failure_note = f", {failures} failed" if failures else ""
    trace_note = f", trace -> {args.trace}" if args.trace is not None else ""
    stop_note = f", stopped early: {stopped}" if stopped else ""
    print(
        f"# {total} queries in {elapsed:.3f}s "
        f"({total / elapsed:.1f} q/s), workers={args.workers}, "
        f"{cache_note}{failure_note}{trace_note}{stop_note}",
        file=sys.stderr,
    )
    if stopped is not None:
        return 130 if "SIGINT" in stopped else 1
    return 1 if failures else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine import ParallelExecutor, Session

    dataset = _load_dataset(args.data, args.dataset_kind)
    specs = _read_specs(args.queries)

    executor = (
        ParallelExecutor(workers=args.workers, cache_size=args.cache_size)
        if args.workers > 1
        else None
    )
    client = Client(
        Session(
            dataset,
            cache_size=max(args.cache_size, 0),
            build_index=executor is None,
        )
    )
    # Reset first so the snapshot reflects exactly this batch (parallel
    # worker deltas merge back into the same registry).
    obs.registry().reset()
    started = time.perf_counter()
    envelopes = (
        client.batch()
        .extend(specs)
        .run(workers=args.workers, executor=executor)
    )
    elapsed = max(time.perf_counter() - started, 1e-9)
    failures = sum(not e.ok for e in envelopes)

    print(json.dumps(obs.registry().snapshot(), indent=2, sort_keys=True))
    print(
        f"# {len(envelopes)} queries in {elapsed:.3f}s, "
        f"workers={args.workers}"
        f"{f', {failures} failed' if failures else ''}",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _op_line_spec(item: dict):
    """One NDJSON line -> an executable spec (shorthand op or spec dict)."""
    from repro.api import decode_value
    from repro.engine import UpdateSpec, spec_from_dict

    if not isinstance(item, dict):
        raise ValueError(f"each ops line must be a JSON object, got {item!r}")
    if "kind" in item:
        return spec_from_dict(item)
    op = item.get("op")
    if op == "delete":
        return UpdateSpec(deletes=(decode_value(item["id"]),))
    if op in ("insert", "update"):
        entry = (
            decode_value(item["id"]),
            item["samples"],
            item.get("probabilities"),
            item.get("name"),
        )
        if op == "insert":
            return UpdateSpec(inserts=(entry,))
        return UpdateSpec(updates=(entry,))
    raise ValueError(
        f"ops line needs 'kind' or 'op' in insert|update|delete, got {item!r}"
    )


def _cmd_update(args: argparse.Namespace) -> int:
    from repro.api.results import QueryResult
    from repro.engine import Session
    from repro.engine.executor import _execute_captured

    session = Session(
        _load_dataset(args.data, args.dataset_kind),
        cache_size=max(args.cache_size, 0),
    )

    def parse(lineno: int, line: str):
        try:
            return _op_line_spec(json.loads(line))
        except (ReproError, KeyError, ValueError) as exc:
            raise ValueError(f"{args.ops}:{lineno}: {exc}") from exc

    if args.ops == "-":
        # stdin streams: specs parse lazily, one per incoming line
        specs = (
            (lineno, parse(lineno, line))
            for lineno, line in enumerate(sys.stdin, start=1)
            if line.strip()
        )
    else:
        # file input is fully in memory: prevalidate every line up front,
        # so a malformed line 50 fails before op 1 is applied (same
        # fail-the-batch-first contract as the batch subcommand)
        specs = [
            (lineno, parse(lineno, line))
            for lineno, line in enumerate(
                Path(args.ops).read_text().splitlines(), start=1
            )
            if line.strip()
        ]

    started = time.perf_counter()
    total = updates = failures = 0
    abort: Optional[ValueError] = None
    try:
        for _lineno, spec in specs:
            outcome = _execute_captured(session, spec)
            envelope = QueryResult.from_outcome(
                outcome, fingerprint=session.fingerprint
            )
            print(json.dumps(envelope.to_dict()), flush=True)
            total += 1
            updates += envelope.ok and getattr(spec, "mutates", False)
            failures += not envelope.ok
    except ValueError as exc:
        # a malformed stdin line mid-stream: stop reading, but fall
        # through so already-acknowledged writes still reach --out
        abort = exc
    elapsed = max(time.perf_counter() - started, 1e-9)

    if args.out is not None:
        if args.dataset_kind == "certain":
            save_certain_csv(session.dataset, args.out)
        else:
            save_uncertain_csv(session.dataset, args.out)

    stats = session.cache_stats()
    print(
        f"# {total} op(s) ({updates} update(s)) in {elapsed:.3f}s, "
        f"dataset version={session.version} n={len(session.dataset)}, "
        f"cache hits={stats['hits']} misses={stats['misses']}"
        f"{f', {failures} failed' if failures else ''}"
        f"{f', wrote {args.out}' if args.out else ''}",
        file=sys.stderr,
    )
    if abort is not None:
        print(f"error: {abort}", file=sys.stderr)
        return 1
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.server import run as serve_run

    datasets = {}
    for item in args.data:
        name, sep, path = item.partition("=")
        if not sep:
            name, path = "default", item
        if not name:
            raise ValueError(f"--data {item!r}: empty dataset name")
        if name in datasets:
            raise ValueError(f"--data: duplicate dataset name {name!r}")
        datasets[name] = _load_dataset(path, args.dataset_kind)

    fault_plan = None
    plan_text = args.fault_plan or os.environ.get("REPRO_FAULT_PLAN")
    if plan_text:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.parse(plan_text)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        threads=args.threads,
        cache_size=max(args.cache_size, 0),
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        write_queue=args.write_queue,
        per_connection=args.per_connection,
        fault_plan=fault_plan,
    )

    def announce(server) -> None:
        names = ", ".join(
            f"{name} (n={len(ds)})" for name, ds in datasets.items()
        )
        print(
            f"# serving {names} on {config.host}:{server.port} "
            f"[threads={config.threads} max_inflight={config.max_inflight} "
            f"max_queue={config.max_queue}] — "
            "NDJSON + HTTP, Ctrl-C stops",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(serve_run(datasets, config, on_start=announce))
    except KeyboardInterrupt:
        # signal handlers normally absorb SIGINT for a graceful drain;
        # this is the fallback (e.g. non-main-thread loops)
        return 130
    except OSError as exc:
        # Bind failures (port in use, privileged port, bad host) are an
        # operator error, not a crash: one line, exit 2, no traceback.
        print(
            f"error: cannot bind {config.host}:{config.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    print("# server stopped", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "prsq": _cmd_prsq,
    "explain": _cmd_explain,
    "explain-certain": _cmd_explain_certain,
    "batch": _cmd_batch,
    "stats": _cmd_stats,
    "update": _cmd_update,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        # Lint owns its exit-code contract (0 clean / 1 findings / 2
        # usage-or-config error); the broad catcher below would fold a
        # config error into 1.
        return _cmd_lint(args)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
