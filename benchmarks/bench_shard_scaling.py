"""Filter-phase scaling of the STR-sharded index across shard counts.

Sweeps n in {10^4, 10^5} certain objects by k in {1, 2, 4, 8} STR shards
and times the batched many-window filter call
(:meth:`~repro.index.sharded.ShardedIndex.range_search_many`), the one
:func:`~repro.skyline.bichromatic.bichromatic_reverse_skyline` answers
all its customers' windows with.  Two window families bracket the
workload space:

* **local** — small boxes (~2% of the domain) centred on sampled data
  points: the spatially local shape where per-shard root-MBR pruning
  shrinks the packed broadcast from ~``n x W`` to ~``sum_s n_s x W_s``
  and multi-shard execution wins outright (this is the asserted bar);
* **dominance** — Lemma-2 ``dominance_rectangle`` windows around a
  central query point: wide rectangles crossing many shards, the
  conservative shape where sharding must merely stay close to par.

Three properties are asserted (single-process, one core — the speedup is
*algorithmic* pruning, not parallelism):

* **multi-shard speedup** — local windows at the largest n must run at
  least ``--min-speedup`` (default 2x) faster at k=8 than at k=1;
* **k=1 overhead** — a 1-sharded dataset must stay within
  ``--max-overhead`` (default 10%) of the plain unsharded index on every
  workload (the facade must be free when it degenerates);
* **bit parity** — per-window hit sets identical to the unsharded index
  for every (n, k, family) cell.

Emits a machine-readable ``BENCH_shard_scaling.json`` (``--json``) so CI
records the scaling trajectory.  Runs standalone:

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --quick
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.bench.reporting import format_table, write_json_report
from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.geometry.dominance import dominance_rectangle
from repro.geometry.rectangle import Rect
from repro.uncertain import shard_dataset

DOMAIN = 10_000.0
SHARD_COUNTS = (1, 2, 4, 8)


def _local_windows(points: np.ndarray, count: int, rng) -> List[Rect]:
    """Small boxes (~2% of the domain) centred on sampled data points."""
    extent = 0.02 * DOMAIN
    picks = rng.choice(len(points), size=count, replace=False)
    out = []
    for center in points[picks]:
        lo = center - 0.5 * extent
        out.append(Rect(lo, lo + extent))
    return out


def _dominance_windows(points: np.ndarray, count: int, rng) -> List[Rect]:
    """Lemma-2 dominance rectangles of sampled points w.r.t. one query."""
    q = np.full(points.shape[1], 0.5 * DOMAIN)
    picks = rng.choice(len(points), size=count, replace=False)
    return [dominance_rectangle(points[i], q) for i in picks]


def _hit_ids(per_window: Sequence[Sequence]) -> List[List]:
    return [sorted(hits, key=repr) for hits in per_window]


def _paired_overhead(
    plain, facade, windows: List[Rect], pairs: int = 8
) -> float:
    """Median of back-to-back ``facade/plain`` timing ratios.

    The asserted k=1 overhead compares two structurally identical trees,
    so the true ratio is ~1 and single-call jitter on a shared box
    (+-15%) dwarfs it.  Timing the two sides adjacently and taking the
    per-pair ratio cancels slow machine-load drift; the median discards
    the outlier pairs a preempted call produces.
    """
    ratios = []
    for _ in range(pairs):
        started = time.perf_counter()
        plain.range_search_many(windows)
        plain_s = time.perf_counter() - started
        started = time.perf_counter()
        facade.range_search_many(windows)
        ratios.append((time.perf_counter() - started) / max(plain_s, 1e-12))
    ratios.sort()
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


def _timed_round_robin(
    indexes: Dict, windows: List[Rect], repeats: int
) -> Dict:
    """Best-of-*repeats* per index, interleaved round-robin.

    Interleaving (plain, k=1, k=2, ... per sweep instead of all repeats
    of one config back to back) keeps slow machine-load drift from
    landing entirely on one config and skewing the overhead ratios.
    """
    out = {
        key: {"seconds": float("inf"), "hits": None} for key in indexes
    }
    for _ in range(repeats):
        for key, index in indexes.items():
            started = time.perf_counter()
            hits = index.range_search_many(windows)
            elapsed = time.perf_counter() - started
            if elapsed < out[key]["seconds"]:
                out[key]["seconds"] = elapsed
            out[key]["hits"] = _hit_ids(hits)
    return out


def bench(
    sizes: Sequence[int] = (10_000, 100_000),
    windows: int = 512,
    repeats: int = 3,
    min_speedup: float = 2.0,
    max_overhead: float = 0.10,
    seed: int = 23,
    json_path: str = "",
) -> List[Dict]:
    """One full sweep; raises AssertionError on any violated bar.

    When *json_path* is set the rows are recorded **before** the bars are
    checked, so a regressing run still leaves its numbers behind.
    """
    rng = np.random.default_rng(seed)
    rows: List[Dict] = []
    overhead: Dict[str, float] = {}
    families = {"local": _local_windows, "dominance": _dominance_windows}

    for n in sizes:
        dataset = generate_certain_dataset(n, 2, seed=seed)
        w = {
            name: build(dataset.points, windows, rng)
            for name, build in families.items()
        }
        indexes = {"plain": dataset.packed}
        for k in SHARD_COUNTS:
            sharded = shard_dataset(
                generate_certain_dataset(n, 2, seed=seed), k
            )
            indexes[k] = sharded.spatial_index()
        for family, window_list in w.items():
            timed = _timed_round_robin(indexes, window_list, repeats)
            plain_s = timed["plain"]["seconds"]
            k1_s = timed[1]["seconds"]
            for k in SHARD_COUNTS:
                assert timed[k]["hits"] == timed["plain"]["hits"], (
                    f"hit sets diverge from the unsharded index at "
                    f"n={n} k={k} family={family}"
                )
                seconds = timed[k]["seconds"]
                rows.append(
                    {
                        "objects": n,
                        "shards": k,
                        "family": family,
                        "windows": len(window_list),
                        "filter_ms": round(seconds * 1e3, 3),
                        "vs_plain": round(seconds / max(plain_s, 1e-12), 3),
                        "vs_k1": round(seconds / max(k1_s, 1e-12), 3),
                    }
                )
        if n == max(sizes):
            # dedicated drift-cancelling measurement for the overhead bar
            # (the sweep's vs_plain column stays informational)
            overhead = {
                family: round(
                    _paired_overhead(
                        indexes["plain"],
                        indexes[1],
                        window_list[: max(1, windows // 2)],
                        pairs=7,
                    ),
                    3,
                )
                for family, window_list in w.items()
            }

    if json_path:
        write_json_report(
            json_path,
            "shard_scaling",
            rows=rows,
            meta={
                "seed": seed,
                "repeats": repeats,
                "min_speedup": min_speedup,
                "max_overhead": max_overhead,
                "k1_overhead": overhead,
                "workload": "sharded-many-window-filter",
            },
            workload={
                "n": max(sizes),
                "d": 2,
                "s_max": 1,
                "shards": max(SHARD_COUNTS),
            },
        )

    big = max(sizes)
    best = next(
        r for r in rows
        if r["objects"] == big and r["shards"] == 8 and r["family"] == "local"
    )
    speedup = 1.0 / best["vs_k1"]
    assert speedup >= min_speedup, (
        f"k=8 local filter only {speedup:.2f}x faster than k=1 at n={big} "
        f"(bar: {min_speedup:.1f}x)"
    )
    for family, ratio in overhead.items():
        assert ratio <= 1.0 + max_overhead, (
            f"k=1 sharded facade {ratio:.2f}x the plain index at n={big} "
            f"family={family} (bar: {1.0 + max_overhead:.2f}x, paired median)"
        )
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep (10^3/10^4) without the speedup bar",
    )
    parser.add_argument("--windows", type=int, default=512)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--max-overhead", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--json",
        default="BENCH_shard_scaling.json",
        help="machine-readable report path ('' disables)",
    )
    args = parser.parse_args(argv)
    rows = bench(
        sizes=(1_000, 10_000) if args.quick else (10_000, 100_000),
        windows=args.windows,
        repeats=args.repeats,
        # quick mode is a smoke run: keep the parity asserts, drop the
        # timing bars (sub-ms cells are noise-dominated)
        min_speedup=0.0 if args.quick else args.min_speedup,
        max_overhead=10.0 if args.quick else args.max_overhead,
        seed=args.seed,
        json_path=args.json,
    )
    print(format_table(rows))
    print("bench_shard_scaling: bit-identical hit sets across all cells")


if __name__ == "__main__":
    main()
