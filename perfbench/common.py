"""Shared pieces of the benchmark: sampling, answer canon, the server process.

Everything a workload needs that is not the workload itself: latency
summaries that only report a tail percentile with at least ten samples
beyond it, the bit-exact canonical form answers are compared in, and the
``python -m repro serve`` child process with its set-up clock.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

#: The checkout the benchmark runs in; the program is imported from src/.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs and run records (git-ignored).
WORK = ROOT / ".perfbench_work"

_ANNOUNCE = re.compile(r"on [0-9.]+:(\d+) ")


# ---------------------------------------------------------------------------
# latency and metric bookkeeping
# ---------------------------------------------------------------------------
def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, Any]:
    """Median plus every tail percentile with at least ten samples beyond."""
    ordered = sorted(latencies_s)
    summary: Dict[str, Any] = {"samples": len(ordered)}
    if not ordered:
        return summary
    summary["p50_ms"] = statistics.median(ordered) * 1e3
    summary["mean_ms"] = statistics.fmean(ordered) * 1e3
    for label, q in (("p90_ms", 0.90), ("p99_ms", 0.99)):
        if len(ordered) * (1.0 - q) >= 10:
            summary[label] = percentile(ordered, q) * 1e3
    return summary


def slice_rate(
    spans: Sequence[Tuple[float, float]], began: float, wall_s: float,
    slices: int = 10,
) -> float:
    """Completions per second: the median over equal slices of the run.

    Each request counts as one completion spread over the slices its
    ``(sent, answered)`` span overlaps, in proportion to the overlap, so a
    slice shorter than one request still gets a fractional rate.  The
    median ignores a disturbance that lasts less than half the run.
    """
    width = wall_s / slices
    totals = [0.0] * slices
    for sent, done in spans:
        duration = max(done - sent, 1e-12)
        first = max(int((sent - began) / width), 0)
        last = min(int((done - began) / width), slices - 1)
        for k in range(first, last + 1):
            low = max(sent, began + k * width)
            high = min(done, began + (k + 1) * width)
            if high > low:
                totals[k] += (high - low) / duration
    return statistics.median(total / width for total in totals)


class Metrics:
    """Named metrics with unit and sample count, in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.values[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_children() -> float:
    """The largest peak RSS among the child processes already waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# answers: canonical bit-exact form, and deliberate corruption
# ---------------------------------------------------------------------------
def canon(value: Any) -> tuple:
    """A comparable form of an answer payload with every float as hex."""
    from repro.api.results import CausalityAnswer, PRSQResult

    if isinstance(value, PRSQResult):
        if value.probabilities is not None:
            body = tuple(sorted(
                (repr(oid), float(p).hex())
                for oid, p in value.probabilities.items()
            ))
        else:
            body = tuple(sorted(repr(oid) for oid in value.ids))
        return ("prsq", value.want, float(value.alpha).hex(), body)
    if isinstance(value, CausalityAnswer):
        stats = value.stats
        return (
            "causality",
            repr(value.an),
            tuple(
                (
                    repr(c.id), float(c.responsibility).hex(), c.kind,
                    tuple(repr(x) for x in c.contingency_set),
                )
                for c in value.causes
            ),
            stats.candidates, stats.oracle_evaluations,
            stats.subsets_examined, stats.node_accesses,
        )
    raise TypeError(f"no canonical form for {type(value).__name__}")


def corrupt(value: Any) -> Any:
    """The same answer with one float nudged by one ulp (or one id added)."""
    from repro.api.results import CausalityAnswer, PRSQResult

    if isinstance(value, PRSQResult):
        if value.probabilities:
            probs = dict(value.probabilities)
            oid = sorted(probs, key=repr)[0]
            probs[oid] = math.nextafter(probs[oid], 2.0)
            return dataclasses.replace(value, probabilities=probs)
        return dataclasses.replace(
            value, ids=tuple(value.ids or ()) + ("corrupted",)
        )
    if isinstance(value, CausalityAnswer) and value.causes:
        first = value.causes[0]
        nudged = dataclasses.replace(
            first, responsibility=math.nextafter(first.responsibility, 2.0)
        )
        return dataclasses.replace(value, causes=(nudged,) + value.causes[1:])
    return dataclasses.replace(value, an=("corrupted", value.an))


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` child: spawn, announce, ping, stop."""

    def __init__(self, csv: Path, log: Path, traced: bool = False):
        entry = (
            [str(Path(__file__).resolve().parent / "serve_traced.py")]
            if traced
            else ["-m", "repro", "serve"]
        )
        self.log = log
        self._log_handle = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, *entry, "--data", str(csv), "--port", "0",
                "--threads", "2",
            ],
            cwd=str(ROOT),
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log_handle,
        )
        self.port: Optional[int] = None

    async def wait_ready(self, timeout_s: float = 120.0):
        """Poll the log for the bound port, then answer one ``ping``.

        Returns the connected client; :attr:`setup_s` is spawn-to-pong.
        """
        from repro.api.remote import RemoteClient

        deadline = time.monotonic() + timeout_s
        while self.port is None:
            match = _ANNOUNCE.search(self.log.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"server did not announce: {self.log.read_text()[-800:]}"
                )
            await asyncio.sleep(0.002)
        client = await RemoteClient.connect(port=self.port)
        await client.ping()
        self.setup_s = time.perf_counter() - self.started
        return client

    async def connect(self):
        from repro.api.remote import RemoteClient

        return await RemoteClient.connect(port=self.port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log_handle.close()
