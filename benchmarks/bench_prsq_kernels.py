"""Tensorized vs. scalar exact-PRSQ probability (Eqs. (2)/(3)).

Times a batch of Eq. (2) evaluations over one uncertain dataset with the
tensor kernel (:func:`repro.engine.kernels.eq2_segmented`) against the
scalar reference
``probability_from_matrix(center, dominance_probability_matrix(...))``
over the same objects, and verifies three properties the engine depends
on:

* **speedup** — the tensor kernels must beat the scalar reference loop
  by at least ``--min-speedup`` (default 5x, the acceptance bar for a
  1,000-object 2-d batch);
* **bit parity** — both return identical float bits per object;
* **determinism** — repeating the tensor batch (with a freshly built
  dataset and R-tree) reproduces the exact bits, pinning the sorted
  Eq. (2) product order.

It then checks the whole-dataset map (:func:`prsq_probability_map`, whose
Lemma-4 pre-pass proves most objects ``+0.0`` before the filter):

* **map time** — at each of ``MAP_POINTS`` seeded query points, the map
  over ``lUrU`` with 10^4 objects (seed 17, radius (0, 75)) takes at most
  ``MAP_SECONDS``;
* **map parity** — over 2,000 objects, its bits equal the per-object
  :func:`reverse_skyline_probability` on every object with ``Pr > 0``
  and on 200 seeded others.

Runs standalone (the CI smoke job) or under pytest:

    PYTHONPATH=src python benchmarks/bench_prsq_kernels.py
    PYTHONPATH=src python benchmarks/bench_prsq_kernels.py --objects 300 --batch 8
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.datasets.synthetic_uncertain import (
    generate_named,
    generate_uncertain_dataset,
)
from repro.engine.kernels import eq2_segmented
from repro.prsq.probability import (
    dominance_probability_matrix,
    probability_from_matrix,
    relevant_indices,
    reverse_skyline_probability,
)
from repro.prsq.query import prsq_probability_map

#: The map check: query points, the time bar per map at 10^4 objects, and
#: how many zero-probability objects the parity check samples.
MAP_POINTS = 4
MAP_SECONDS = 1.0
MAP_ZERO_SAMPLE = 200


def _build(objects: int, dims: int, seed: int):
    return generate_uncertain_dataset(
        objects, dims, radius_range=(0, 150), seed=seed
    )


def tensor_probability(dataset, oid, q: np.ndarray, use_index: bool) -> float:
    """Eq. (2) for *oid* with the tensor kernel.

    Pruned, the library path :func:`reverse_skyline_probability`;
    unpruned, the kernel over the center's row and one segment of every
    other row.
    """
    if use_index:
        return reverse_skyline_probability(dataset, oid, q)
    center = dataset.index_of(oid)
    others = np.delete(np.arange(len(dataset)), center)
    samples, probabilities, mask = dataset.tensor.rows(
        [center] + others.tolist()
    )
    value = eq2_segmented(
        samples, probabilities, mask,
        [0], [0, len(others)], np.arange(1, len(others) + 1), q,
    )
    return float(value[0])


def scalar_probability(dataset, oid, q: np.ndarray, use_index: bool) -> float:
    """Eq. (2) for *oid* with the scalar reference, over the objects
    :func:`relevant_indices` keeps (pruned) or every other object."""
    center = dataset.get(oid)
    if use_index:
        objects = dataset.objects()
        pool = [objects[i] for i in relevant_indices(dataset, oid, q)]
    else:
        pool = dataset.others(oid)
    matrix = dominance_probability_matrix(center, pool, q)
    return probability_from_matrix(center, matrix)


def run_batch(dataset, targets: List, q: np.ndarray, use_index: bool) -> Dict:
    """Evaluate the batch with the tensor kernels; values and wall time."""
    started = time.perf_counter()
    values = [tensor_probability(dataset, oid, q, use_index) for oid in targets]
    return {"values": values, "seconds": time.perf_counter() - started}


def run_reference(
    dataset, targets: List, q: np.ndarray, use_index: bool
) -> Dict:
    """Evaluate the batch with the scalar reference over the same objects."""
    started = time.perf_counter()
    values = [scalar_probability(dataset, oid, q, use_index) for oid in targets]
    return {"values": values, "seconds": time.perf_counter() - started}


def bench(
    objects: int = 1_000,
    dims: int = 2,
    batch: int = 32,
    min_speedup: float = 5.0,
    use_index: bool = False,
    seed: int = 13,
) -> Dict:
    """One full comparison run; raises AssertionError on any violated bar.

    ``use_index=False`` times the raw Eq. (2)/(3) evaluation over all
    ``n - 1`` dominators per target — the paper's headline cost, and the
    fair kernel-vs-loop comparison (the R-tree prune would shrink both
    sides equally; pass ``--use-index`` to measure that configuration).
    """
    dataset = _build(objects, dims, seed)
    rng = np.random.default_rng(seed)
    q = rng.uniform(2_000, 8_000, size=dims)
    targets = list(dataset.ids())[:batch]

    dataset.tensor  # build the session tensor outside the timed region
    tensor = run_batch(dataset, targets, q, use_index=use_index)
    scalar = run_reference(dataset, targets, q, use_index=use_index)

    mismatches = [
        oid
        for oid, a, b in zip(targets, tensor["values"], scalar["values"])
        if a.hex() != b.hex()
    ]
    assert not mismatches, f"tensor/scalar bits diverge for {mismatches!r}"

    # Determinism: a fresh dataset (fresh R-tree, fresh tensor) must
    # reproduce the exact bits of the library's pruned path.
    replay_ds = _build(objects, dims, seed)
    replay = run_batch(replay_ds, targets, q, use_index=True)
    baseline = run_batch(dataset, targets, q, use_index=True)
    drifted = [
        oid
        for oid, a, b in zip(targets, baseline["values"], replay["values"])
        if a.hex() != b.hex()
    ]
    assert not drifted, f"bits drift across runs for {drifted!r}"

    speedup = scalar["seconds"] / max(tensor["seconds"], 1e-12)
    assert speedup >= min_speedup, (
        f"tensor kernels only {speedup:.1f}x faster than the scalar "
        "reference "
        f"(bar: {min_speedup:.1f}x)"
    )
    return {
        "objects": objects,
        "dims": dims,
        "batch": batch,
        "scalar_s": scalar["seconds"],
        "tensor_s": tensor["seconds"],
        "speedup": speedup,
    }


def map_check(seed: int = 17) -> Dict:
    """Time the map at 10^4 objects and check its bits at 2,000.

    Raises AssertionError on a map slower than ``MAP_SECONDS`` or on any
    bit that differs from the per-object path.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(3_500, 6_500, size=(MAP_POINTS, 2))
    large = generate_named("lUrU", 10_000, 2, radius_range=(0, 75), seed=seed)
    prsq_probability_map(large, points[0])  # tensor, boxes, index
    seconds = []
    for q in points:
        started = time.perf_counter()
        prsq_probability_map(large, q)
        seconds.append(time.perf_counter() - started)
    assert max(seconds) <= MAP_SECONDS, (
        f"prsq_probability_map took {max(seconds):.2f} s at n=10^4 "
        f"(bar: {MAP_SECONDS:.1f} s)"
    )

    dataset = generate_named("lUrU", 2_000, 2, radius_range=(0, 75), seed=seed)
    ids = dataset.ids()
    checked = 0
    for q in points:
        probabilities = prsq_probability_map(dataset, q)
        values = np.array([value for _oid, value in probabilities.items()])
        zero = np.flatnonzero(values == 0.0)
        picks = np.union1d(
            np.flatnonzero(values > 0.0),
            rng.choice(zero, size=min(MAP_ZERO_SAMPLE, zero.size), replace=False),
        )
        diverged = [
            ids[i] for i in picks.tolist()
            if np.float64(reverse_skyline_probability(dataset, ids[i], q)).view(
                np.int64
            ) != values[i].view(np.int64)
        ]
        assert not diverged, f"map/per-object bits diverge for {diverged!r}"
        checked += picks.size
    return {"map_max_s": max(seconds), "map_checked": checked}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=1_000)
    parser.add_argument("--dims", type=int, default=2)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument(
        "--use-index", action="store_true",
        help="time the R-tree-pruned configuration instead of the full scan",
    )
    args = parser.parse_args(argv)
    row = bench(
        objects=args.objects,
        dims=args.dims,
        batch=args.batch,
        min_speedup=args.min_speedup,
        use_index=args.use_index,
    )
    print(
        "bench_prsq_kernels: "
        f"n={row['objects']} d={row['dims']} batch={row['batch']} | "
        f"scalar {row['scalar_s'] * 1e3:8.1f} ms | "
        f"tensor {row['tensor_s'] * 1e3:8.1f} ms | "
        f"speedup {row['speedup']:6.1f}x (bit-identical, deterministic)"
    )
    row = map_check()
    print(
        f"bench_prsq_kernels: map n=10^4 slowest of {MAP_POINTS} points "
        f"{row['map_max_s'] * 1e3:.1f} ms (bar {MAP_SECONDS * 1e3:.0f} ms) | "
        f"n=2000 {row['map_checked']} objects bit-identical to the "
        "per-object path"
    )


if __name__ == "__main__":
    main()
