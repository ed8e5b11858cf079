"""Self-test of the benchmark on small datasets with short runs.

    python3 perfbench/selftest.py                  # every workload
    python3 perfbench/selftest.py serve-hot        # one workload

For each workload it checks that

1. an untraced run passes its output check and prints every end-to-end
   metric of BENCHMARK.json, each with its unit;
2. two traced runs with one seed print every per-layer metric with its
   unit, and their count metrics agree exactly;
3. a run that nudges one observed answer by one ulp fails its output
   check: ``correct`` is false and the exit code is not 0.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "index.node_accesses",
    "prsq.kernel_calls",
    "prsq.oracle_evaluations",
    "core.subsets_examined",
)


def run(workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--smoke", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} {extra}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def expect_metrics(result: dict, declared: list, label: str) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            raise AssertionError(f"{label}: {metric['name']} missing or "
                                 f"without unit {metric['unit']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        raise AssertionError(f"{label}: undeclared metrics {sorted(extra)}")


def check(workload: str) -> None:
    code, result = run(workload, "--trace", "0")
    if code != 0 or not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload}: untraced run failed: {result}")
    expect_metrics(result, SPEC["end_to_end"], f"{workload} trace 0")

    traced = [run(workload, "--trace", "1") for _ in range(2)]
    for code, result in traced:
        if code != 0 or not result["correct"]:
            raise AssertionError(f"{workload}: traced run failed: {result}")
        expect_metrics(result, SPEC["per_layer"], f"{workload} trace 1")
    for name in COUNTS:
        first, second = (r["metrics"][name]["value"] for _c, r in traced)
        if first != second:
            raise AssertionError(
                f"{workload}: {name} differs across same-seed runs: "
                f"{first} != {second}"
            )

    code, result = run(workload, "--trace", "0", "--corrupt")
    if code == 0 or result["correct"] or not result["failed"]:
        raise AssertionError(f"{workload}: corrupted answer not caught: {result}")


def main(argv: list) -> int:
    names = argv or [w["name"] for w in SPEC["workloads"]]
    for name in names:
        check(name)
        print(f"ok {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
