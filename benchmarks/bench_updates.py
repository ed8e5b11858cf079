"""Incremental ``Session.apply`` vs. ``replace_dataset`` full rebuild.

Replays the same churn workload — single-object inserts, updates and
deletes against a 1,000-object 2-d dataset — down both update paths:

* **incremental** — ``Session.apply(delta)`` patches the cached tensor
  and the content digest in O(changed) work, and the R-tree is packed
  afresh from the patched tensor's boxes;
* **full rebuild** — the pre-delta behavior: build a brand-new dataset
  and ``replace_dataset`` it, paying the tensor rebuild, the STR pack and
  the fingerprint pass for every single-object change.

After each op both paths force the same derived state (fingerprint,
R-tree, tensor) so neither side can hide lazy work.  Asserts:

* **speedup** — incremental must beat the rebuild by at least
  ``--min-speedup`` (default 5x, the acceptance bar);
* **parity** — after the whole churn both sessions hold bit-identical
  state: equal fingerprints and bit-identical PRSQ probabilities.

Runs standalone (the CI smoke job):

    PYTHONPATH=src python benchmarks/bench_updates.py
    PYTHONPATH=src python benchmarks/bench_updates.py --objects 300 --churn 20
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine import DatasetDelta, PRSQSpec, Session
from repro.uncertain import UncertainDataset, UncertainObject


def _new_object(oid, rng) -> UncertainObject:
    samples = rng.uniform(1_000, 9_000, size=(int(rng.integers(1, 5)), 2))
    return UncertainObject(oid, samples)


def build_workload(objects: int, churn: int, seed: int):
    """(dataset objects, op list) — ops cycle insert -> update -> delete."""
    dataset = generate_uncertain_dataset(
        objects, 2, radius_range=(0, 150), seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    ids = list(dataset.ids())
    ops = []
    for i in range(churn):
        kind = ("insert", "update", "delete")[i % 3]
        if kind == "insert":
            oid = f"new-{i}"
            ops.append(("insert", _new_object(oid, rng)))
            ids.append(oid)
        elif kind == "update":
            oid = ids[int(rng.integers(len(ids)))]
            ops.append(("update", _new_object(oid, rng)))
        else:
            victim = ids.pop(int(rng.integers(len(ids))))
            ops.append(("delete", victim))
    return dataset, ops


def _force_derived(session: Session) -> None:
    """Touch everything a query would need: fingerprint, index, tensor."""
    session.fingerprint
    session.dataset.packed
    session.dataset.tensor


def run_incremental(dataset_objects: List, ops, page_size: int) -> Dict:
    session = Session(UncertainDataset(list(dataset_objects), page_size=page_size))
    _force_derived(session)  # warm start outside the timed region
    started = time.perf_counter()
    for kind, payload in ops:
        if kind == "insert":
            session.apply(DatasetDelta.insertion(payload))
        elif kind == "update":
            session.apply(DatasetDelta.replacement(payload))
        else:
            session.apply(DatasetDelta.deletion(payload))
        _force_derived(session)
    return {"session": session, "seconds": time.perf_counter() - started}


def _clone(obj: UncertainObject) -> UncertainObject:
    return UncertainObject(
        obj.oid, obj.samples.copy(), obj.probabilities.copy(), name=obj.name
    )


def run_full_rebuild(dataset_objects: List, ops, page_size: int) -> Dict:
    session = Session(UncertainDataset(list(dataset_objects), page_size=page_size))
    _force_derived(session)
    contents = list(dataset_objects)
    index_of = {obj.oid: i for i, obj in enumerate(contents)}

    def reindex():
        index_of.clear()
        index_of.update({obj.oid: i for i, obj in enumerate(contents)})

    started = time.perf_counter()
    for kind, payload in ops:
        if kind == "insert":
            contents.append(payload)
            index_of[payload.oid] = len(contents) - 1
        elif kind == "update":
            contents[index_of[payload.oid]] = payload
        else:
            del contents[index_of[payload]]
            reindex()
        # The pre-delta path: reconstruct every object (as any reload from
        # the source of truth does) and replace wholesale — the full O(n)
        # re-validate + re-fingerprint + tensor rebuild + STR pack.
        session.replace_dataset(
            UncertainDataset(
                [_clone(obj) for obj in contents], page_size=page_size
            )
        )
        _force_derived(session)
    return {"session": session, "seconds": time.perf_counter() - started}


def bench(
    objects: int = 1_000,
    churn: int = 30,
    min_speedup: float = 5.0,
    seed: int = 11,
) -> Dict:
    """One full comparison run; raises AssertionError on any violated bar."""
    dataset, ops = build_workload(objects, churn, seed)
    base_objects = dataset.objects()

    incremental = run_incremental(base_objects, ops, dataset.page_size)
    rebuild = run_full_rebuild(base_objects, ops, dataset.page_size)

    live: Session = incremental["session"]
    reference: Session = rebuild["session"]
    assert live.fingerprint == reference.fingerprint, (
        "incremental churn diverged from the full-rebuild contents"
    )
    spec = PRSQSpec(q=(5_000.0, 5_000.0), alpha=0.5, want="probabilities")
    live_probabilities = live.query(spec).value.probabilities
    reference_probabilities = reference.query(spec).value.probabilities
    mismatches = [
        oid
        for oid in reference_probabilities
        if live_probabilities[oid].hex() != reference_probabilities[oid].hex()
    ]
    assert not mismatches, f"probability bits diverge for {mismatches!r}"

    speedup = rebuild["seconds"] / max(incremental["seconds"], 1e-12)
    assert speedup >= min_speedup, (
        f"incremental apply only {speedup:.1f}x faster than the full "
        f"rebuild (bar: {min_speedup:.1f}x)"
    )
    return {
        "objects": objects,
        "churn": churn,
        "rebuild_s": rebuild["seconds"],
        "incremental_s": incremental["seconds"],
        "speedup": speedup,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=1_000)
    parser.add_argument("--churn", type=int, default=30)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    row = bench(
        objects=args.objects,
        churn=args.churn,
        min_speedup=args.min_speedup,
        seed=args.seed,
    )
    per_op_rebuild = row["rebuild_s"] / row["churn"] * 1e3
    per_op_incremental = row["incremental_s"] / row["churn"] * 1e3
    print(
        "bench_updates: "
        f"n={row['objects']} churn={row['churn']} | "
        f"rebuild {per_op_rebuild:8.2f} ms/op | "
        f"incremental {per_op_incremental:8.2f} ms/op | "
        f"speedup {row['speedup']:6.1f}x (bit-identical final state)"
    )


if __name__ == "__main__":
    main()
