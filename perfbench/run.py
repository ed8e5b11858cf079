"""Run one benchmark workload; print its metrics, then one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload prsq-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the full run record (provenance, workload shape, every sample count,
tails, warm-up, checks) is written under ``.perfbench_work/records/``.
The exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (benchmark-local modules, path set above)
import workloads  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every dataset (self-test only)")
    parser.add_argument("--corrupt", action="store_true",
                        help="nudge one observed answer before the output "
                        "check, which must then fail (self-test only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    from repro.bench.reporting import provenance, workload_shape

    work = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = outcome.failed + outcome.mismatches
    correct = failed == 0 and outcome.checked > 0
    metrics = outcome.layers if args.trace else outcome.metrics
    # Keep git from searching above the checkout for a repository.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(common.ROOT.parent))
    prov = provenance()
    prov["workload"] = workload_shape(**outcome.shape)
    prov["nproc"] = len(os.sched_getaffinity(0))
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in declared["workloads"]
                    if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "failed_frac": failed / max(outcome.attempted, 1),
        "checks": {"checked": outcome.checked, "mismatches": outcome.mismatches},
        "metrics": metrics.values,
        **outcome.record,
    }
    records = common.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    for name, metric in metrics.values.items():
        print(f"{name:28s} {metric['value']:14.4f} {metric['unit']:6s} "
              f"(samples {metric['samples']})")
    print(f"checked {outcome.checked} answers, {outcome.mismatches} mismatched; "
          f"failed_frac {record['failed_frac']:.6f}; record {path.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
