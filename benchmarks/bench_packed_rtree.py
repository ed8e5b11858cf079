"""Packed R-tree traversal vs. the pointer reference, and the index build.

Times the Lemma-2-shaped workload every index-guided algorithm funnels
through: for a batch of target objects, collect all dataset objects whose
MBR crosses any of the target's per-sample dominance rectangles.  The
pointer side is the node-by-node reference traversal of
:mod:`tests.reference.rtree`, one ``range_search_any`` per target over
the same STR tree; the packed side (:class:`repro.index.packed.PackedRTree`)
answers the whole batch with one grouped level-frontier ``group_hits``
pass.  Asserted:

* **speedup** — the packed kernel must beat the pointer loop by at least
  ``--min-speedup`` (default 5x, the acceptance bar on the 1,000-object
  2-d workload);
* **bit parity** — identical hit sets and *identical* ``AccessStats``
  node / leaf / query counts;
* **churn** — after a ``DatasetDelta`` insert/update/delete mix the
  rebuilt index equals a fresh build over the same contents, array for
  array, and parity still holds;
* **build** — ``PackedRTree.build`` packs 100,000 2-d boxes in at most
  ``MAX_BUILD_S`` seconds.

Emits a machine-readable ``BENCH_packed_rtree.json`` (``--json``) so CI
records the perf trajectory.  Runs standalone from the repository root,
which must be importable for the reference:

    PYTHONPATH=src:. python benchmarks/bench_packed_rtree.py
    PYTHONPATH=src:. python benchmarks/bench_packed_rtree.py --objects 300
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.bench.reporting import write_json_report
from repro.core.candidates import filter_rectangles
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.index.packed import PackedRTree, pack_window_groups
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject

#: Boxes (2-d) packed by the build-time check, and its bound in seconds.
BUILD_OBJECTS = 100_000
MAX_BUILD_S = 1.0


def _build(objects: int, dims: int, seed: int):
    return generate_uncertain_dataset(
        objects,
        dims,
        radius_range=(0, 150),
        samples_range=(6, 12),
        seed=seed,
    )


def _window_groups(dataset, targets: List, q: np.ndarray) -> List[List]:
    return [filter_rectangles(dataset.get(oid), q) for oid in targets]


def _timed_pointer(dataset, groups) -> Dict:
    """One reference ``range_search_any`` per group over the same STR tree."""
    from tests.reference import rtree as reference_rtree

    tree = reference_rtree.dataset_tree(dataset)  # built outside the timing
    with tree.stats.measure() as snapshot:
        started = time.perf_counter()
        hits = [reference_rtree.range_search_any(tree, g) for g in groups]
        seconds = time.perf_counter() - started
    return {"hits": hits, "seconds": seconds, "stats": snapshot}


def _timed_packed(dataset, groups) -> Dict:
    packed = dataset.packed  # built outside the timed region
    with dataset.access_stats.measure() as snapshot:
        started = time.perf_counter()
        hit_groups, rows = packed.group_hits(
            *pack_window_groups(groups, dataset.dims)
        )
        seconds = time.perf_counter() - started
    hits = [
        np.unique(rows[hit_groups == g]).tolist() for g in range(len(groups))
    ]
    return {"hits": hits, "seconds": seconds, "stats": snapshot}


def _assert_parity(pointer: Dict, packed: Dict, label: str) -> None:
    assert pointer["hits"] == packed["hits"], (
        f"{label}: packed hit sets diverge from the pointer tree"
    )
    a, b = pointer["stats"], packed["stats"]
    observed = (b.node_accesses, b.leaf_accesses, b.queries)
    expected = (a.node_accesses, a.leaf_accesses, a.queries)
    assert observed == expected, (
        f"{label}: access accounting diverges "
        f"(pointer {expected}, packed {observed})"
    )


def _assert_fresh_build(dataset) -> None:
    """The index rebuilt after writes equals a fresh dataset's, bit for bit."""
    from tests.reference import rtree as reference_rtree

    fresh = UncertainDataset(dataset.objects(), page_size=dataset.page_size)
    assert reference_rtree.same_layout(
        reference_rtree.layout(dataset.packed),
        reference_rtree.layout(fresh.packed),
    ), "after DatasetDelta churn: the index differs from a fresh build"


def _timed_build(seed: int) -> float:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 10_000.0, size=(BUILD_OBJECTS, 2))
    hi = lo + rng.uniform(0.0, 150.0, size=(BUILD_OBJECTS, 2))
    started = time.perf_counter()
    PackedRTree.build(lo, hi)
    return time.perf_counter() - started


def _churn(dataset, seed: int) -> None:
    """Apply a delete/update/insert mix through the incremental path."""
    rng = np.random.default_rng(seed)
    ids = dataset.ids()
    doomed = [ids[i] for i in rng.choice(len(ids), size=10, replace=False)]
    survivors = [oid for oid in ids if oid not in set(doomed)]
    updates = []
    for oid in survivors[:10]:
        obj = dataset.get(oid)
        updates.append(
            UncertainObject(
                oid,
                obj.samples + rng.uniform(-5, 5, size=obj.samples.shape),
                obj.probabilities,
            )
        )
    inserts = [
        UncertainObject.certain(
            f"churn-{i}", rng.uniform(0, 10_000, size=dataset.dims)
        )
        for i in range(10)
    ]
    dataset.apply_delta(
        DatasetDelta(deletes=doomed, updates=updates, inserts=inserts)
    )


def bench(
    objects: int = 1_000,
    dims: int = 2,
    batch: int = 64,
    min_speedup: float = 5.0,
    seed: int = 23,
    json_path: str = "",
) -> Dict:
    """One full comparison run; raises AssertionError on any violated bar.

    When *json_path* is set the measured row is recorded **before** the
    speedup bar is checked, so a regressing run still leaves its numbers
    behind for diagnosis.
    """
    dataset = _build(objects, dims, seed)
    rng = np.random.default_rng(seed)
    q = rng.uniform(2_000, 8_000, size=dims)
    targets = list(dataset.ids())[:batch]
    groups = _window_groups(dataset, targets, q)
    n_windows = sum(len(g) for g in groups)

    pointer = _timed_pointer(dataset, groups)
    packed = _timed_packed(dataset, groups)
    _assert_parity(pointer, packed, "fresh dataset")

    speedup = pointer["seconds"] / max(packed["seconds"], 1e-12)
    build_s = _timed_build(seed)
    row = {
        "objects": objects,
        "dims": dims,
        "batch": batch,
        "windows": n_windows,
        "node_accesses": pointer["stats"].node_accesses,
        "pointer_s": pointer["seconds"],
        "packed_s": packed["seconds"],
        "speedup": speedup,
        "build_objects": BUILD_OBJECTS,
        "build_s": build_s,
    }
    if json_path:
        write_json_report(
            json_path,
            "packed_rtree",
            rows=[row],
            meta={
                "seed": seed,
                "min_speedup": min_speedup,
                "workload": "lemma2-multi-window-filter",
            },
            workload={
                "n": objects,
                "d": dims,
                "s_max": dataset.max_samples(),
                "shards": 1,
            },
        )
    assert speedup >= min_speedup, (
        f"packed traversal only {speedup:.1f}x faster than the pointer "
        f"loop (bar: {min_speedup:.1f}x)"
    )
    assert build_s <= MAX_BUILD_S, (
        f"PackedRTree.build over {BUILD_OBJECTS} boxes took {build_s:.2f} s "
        f"(bar: {MAX_BUILD_S:.1f} s)"
    )

    # Every write drops the index; the next access packs it afresh from
    # the patched tensor, exactly as a fresh dataset would.
    _churn(dataset, seed)
    assert dataset._packed is None, "churn must invalidate the index"
    _assert_fresh_build(dataset)
    survivors = [oid for oid in targets if oid in dataset]
    churn_groups = _window_groups(dataset, survivors, q)
    _assert_parity(
        _timed_pointer(dataset, churn_groups),
        _timed_packed(dataset, churn_groups),
        "after DatasetDelta churn",
    )

    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=1_000)
    parser.add_argument("--dims", type=int, default=2)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--json",
        default="BENCH_packed_rtree.json",
        help="machine-readable report path ('' disables)",
    )
    args = parser.parse_args(argv)
    row = bench(
        objects=args.objects,
        dims=args.dims,
        batch=args.batch,
        min_speedup=args.min_speedup,
        seed=args.seed,
        json_path=args.json,
    )
    print(
        "bench_packed_rtree: "
        f"n={row['objects']} d={row['dims']} batch={row['batch']} "
        f"windows={row['windows']} | "
        f"pointer {row['pointer_s'] * 1e3:8.1f} ms | "
        f"packed {row['packed_s'] * 1e3:8.1f} ms | "
        f"speedup {row['speedup']:6.1f}x | "
        f"build n={row['build_objects']} {row['build_s'] * 1e3:.1f} ms "
        "(identical hits and node accesses, churn equals fresh build)"
    )


if __name__ == "__main__":
    main()
