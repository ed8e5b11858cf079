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

Runs standalone (the CI smoke job) or under pytest:

    PYTHONPATH=src python benchmarks/bench_prsq_kernels.py
    PYTHONPATH=src python benchmarks/bench_prsq_kernels.py --objects 300 --batch 8
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine.kernels import eq2_segmented
from repro.prsq.probability import (
    dominance_probability_matrix,
    probability_from_matrix,
    relevant_indices,
    reverse_skyline_probability,
)


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


if __name__ == "__main__":
    main()
