"""Packed R-tree snapshot: traversal parity, accounting, and the handoff.

The engine's kernel switch may route any filter-phase traversal through
either the pointer :class:`~repro.index.rtree.RTree` or the packed
:class:`~repro.index.packed.PackedRTree` snapshot, so the two must be
indistinguishable: identical hit sets (identical *lists* for the
canonically ordered ``range_search_any`` family) and identical
``AccessStats`` counts — i.e. the packed level frontier visits exactly as
many nodes per query as the pointer traversal, across random trees,
windows, and update interleavings.  Hypothesis drives the parity suite
with a tiny fanout so multi-level frontiers are the norm, not the
exception.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.reporting import write_json_report
from repro.engine.executor import _dataset_payload, _restore_dataset
from repro.engine.session import Session
from repro.engine.spec import PRSQSpec
from repro.geometry.rectangle import Rect
from repro.index.bulk import bulk_load
from repro.index.packed import PackedRTree
from repro.index.rtree import RTree
from repro.index.stats import AccessStats
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject

from tests.conftest import make_uncertain_dataset

# 2 corners * 2 dims * 8 bytes + 8-byte pointer = 40 bytes/entry -> fanout 4
TINY_PAGE = 160


def _rect(rng, extent=10.0):
    lo = rng.uniform(0.0, 100.0, size=2)
    return Rect(lo, lo + rng.uniform(0.0, extent, size=2))


def _windows(rng, count):
    return [_rect(rng, extent=40.0) for _ in range(count)]


def _measured(index, call):
    stats = index.stats
    with stats.measure() as snapshot:
        result = call(index)
    return result, (
        snapshot.node_accesses,
        snapshot.leaf_accesses,
        snapshot.queries,
    )


def assert_query_parity(tree: RTree, packed: PackedRTree, rng) -> None:
    """Every kernel agrees with its pointer reference, hits and counts."""
    window = _rect(rng, extent=40.0)
    p_hits, p_stats = _measured(tree, lambda t: t.range_search(window))
    k_hits, k_stats = _measured(packed, lambda p: p.range_search(window))
    assert sorted(p_hits, key=repr) == sorted(k_hits, key=repr)
    assert p_stats == k_stats

    for count in (0, 1, 4):
        windows = _windows(rng, count)
        p_hits, p_stats = _measured(tree, lambda t: t.range_search_any(windows))
        k_hits, k_stats = _measured(
            packed, lambda p: p.range_search_any(windows)
        )
        assert p_hits == k_hits  # canonical order is part of the contract
        assert p_stats == k_stats

    windows = _windows(rng, 5)
    p_res, p_stats = _measured(tree, lambda t: t.range_search_many(windows))
    k_res, k_stats = _measured(packed, lambda p: p.range_search_many(windows))
    assert [sorted(x, key=repr) for x in p_res] == [
        sorted(x, key=repr) for x in k_res
    ]
    assert p_stats == k_stats

    # Empty groups interleaved AND trailing: a trailing empty group once
    # truncated the final non-empty group's reduceat segment (regression).
    groups = [_windows(rng, 3), [], _windows(rng, 1), _windows(rng, 6), []]
    p_res, p_stats = _measured(
        tree, lambda t: [t.range_search_any(group) for group in groups]
    )
    k_res, k_stats = _measured(
        packed, lambda p: p.range_search_any_grouped(groups)
    )
    assert p_res == k_res
    assert p_stats == k_stats


class TestTraversalParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=0, max_value=60),
        bulk=st.booleans(),
    )
    def test_parity_on_random_trees(self, seed, n, bulk):
        rng = np.random.default_rng(seed)
        items = [(_rect(rng), i) for i in range(n)]
        if bulk:
            tree = bulk_load(items, dims=2, page_size=TINY_PAGE)
        else:
            tree = RTree(dims=2, page_size=TINY_PAGE)
            for rect, payload in items:
                tree.insert(rect, payload)
        packed = tree.freeze(stats=AccessStats())
        assert len(packed) == len(tree)
        assert_query_parity(tree, packed, rng)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        op_kinds=st.lists(
            st.sampled_from(["insert", "delete", "insert"]), max_size=20
        ),
    )
    def test_parity_across_update_interleavings(self, seed, op_kinds):
        """Re-freezing after every churn step keeps counts identical."""
        rng = np.random.default_rng(seed)
        live = [(_rect(rng), i) for i in range(12)]
        tree = bulk_load(list(live), dims=2, page_size=TINY_PAGE)
        next_payload = len(live)
        for kind in op_kinds:
            if kind == "insert" or not live:
                entry = (_rect(rng), next_payload)
                next_payload += 1
                tree.insert(*entry)
                live.append(entry)
            else:
                victim = live.pop(int(rng.integers(len(live))))
                assert tree.delete(*victim)
            packed = tree.freeze(stats=AccessStats())
            assert_query_parity(tree, packed, rng)

    def test_snapshot_is_immutable_and_picklable(self, rng):
        import pickle

        tree = bulk_load(
            [(_rect(rng), i) for i in range(30)], dims=2, page_size=TINY_PAGE
        )
        packed = tree.freeze()
        with pytest.raises(ValueError):
            packed.node_lo[0, 0] = 1.0
        clone = pickle.loads(pickle.dumps(packed))
        assert clone.stats is not packed.stats  # counters never shipped
        # the worker's copy keeps the read-only contract: unpickling
        # must re-freeze what pickle restores writable
        with pytest.raises(ValueError):
            clone.node_lo[0, 0] = 1.0
        with pytest.raises(ValueError):
            clone.entry_lo[0, 0] = 1.0
        window = _rect(rng, extent=40.0)
        assert clone.range_search(window) == packed.range_search(window)

    def test_freeze_shares_the_tree_stats_by_default(self, rng):
        tree = bulk_load(
            [(_rect(rng), i) for i in range(10)], dims=2, page_size=TINY_PAGE
        )
        packed = tree.freeze()
        before = tree.stats.node_accesses
        packed.range_search(_rect(rng))
        assert tree.stats.node_accesses > before


class TestCanonicalRangeSearchAny:
    def test_unique_repr_sorted_payloads(self, rng):
        tree = RTree(dims=2, page_size=TINY_PAGE)
        rects = [_rect(rng) for _ in range(25)]
        for rect in rects:
            tree.insert(rect, f"p{rects.index(rect)}")
        everything = [Rect([0.0, 0.0], [200.0, 200.0])] * 3
        got = tree.range_search_any(everything)
        assert got == sorted(set(got), key=repr)
        assert len(got) == 25


class TestDatasetIntegration:
    def test_spatial_index_selection_and_shared_stats(self, rng):
        dataset = make_uncertain_dataset(rng, n=40)
        assert dataset.rtree.stats is dataset.access_stats
        assert dataset.packed.stats is dataset.access_stats

    def test_delta_invalidates_and_refreezes(self, rng):
        dataset = make_uncertain_dataset(rng, n=25)
        first = dataset.packed
        dataset.apply_delta(
            DatasetDelta.insertion(
                UncertainObject.certain("fresh", [5.0, 5.0])
            )
        )
        assert dataset._packed is None
        second = dataset.packed
        assert second is not first
        assert len(second) == len(dataset)
        window = Rect([0.0, 0.0], [10.0, 10.0])
        assert sorted(second.range_search(window), key=repr) == sorted(
            dataset.rtree.range_search(window), key=repr
        )

    def test_adopt_packed_rejects_mismatched_snapshot(self, rng):
        dataset = make_uncertain_dataset(rng, n=10)
        other = make_uncertain_dataset(rng, n=7)
        with pytest.raises(ValueError, match="does not match"):
            dataset.adopt_packed(other.rtree.freeze())


class TestWorkerHandoff:
    def test_payload_ships_packed_and_restore_skips_rebuild(self, rng):
        import pickle

        dataset = make_uncertain_dataset(rng, n=30)
        dataset.packed  # freeze parent-side
        payload = pickle.loads(pickle.dumps(_dataset_payload(dataset)))
        restored = _restore_dataset(payload)
        assert restored._packed is not None
        assert restored._rtree is None  # zero-rebuild: arrays adopted as-is
        assert restored._packed.stats is restored.access_stats
        window = Rect([0.0, 0.0], [6.0, 6.0])
        assert restored._packed.range_search_any([window]) == (
            dataset.packed.range_search_any([window])
        )

    def test_lazy_parent_ships_no_snapshot(self, rng):
        dataset = make_uncertain_dataset(rng, n=12)
        assert _dataset_payload(dataset)["packed"] is None

    def test_initargs_inherit_session_switches(self, rng):
        from repro.engine.executor import ParallelExecutor

        dataset = make_uncertain_dataset(rng, n=15)
        lazy = Session(dataset, build_index=False)
        assert dataset._rtree is None and dataset._packed is None
        payload, _pdf, kwargs, traced, plan = ParallelExecutor(
            workers=2
        )._initargs(lazy)
        assert kwargs["build_index"] is False
        assert traced is False
        assert plan is None  # no fault plan installed
        assert payload["packed"] is None  # laziness inherited end to end
        assert dataset._rtree is None  # _initargs itself stayed lazy

        eager = Session(make_uncertain_dataset(rng, n=15))
        payload, _pdf, kwargs, _traced, _plan = ParallelExecutor(
            workers=2
        )._initargs(eager)
        assert kwargs == {"build_index": True, "cache_size": 4096}
        assert payload["packed"] is not None

    def test_numpy_session_on_adopted_snapshot_never_builds_pointer(self, rng):
        dataset = make_uncertain_dataset(rng, n=20)
        parent = Session(dataset)
        restored = _restore_dataset(_dataset_payload(dataset))
        worker = Session(restored, build_index=True)
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        theirs = worker.query(spec).value.probabilities
        ours = parent.query(spec).value.probabilities
        assert {k: v.hex() for k, v in theirs.items()} == {
            k: v.hex() for k, v in ours.items()
        }
        assert restored._rtree is None  # the whole query ran off the arrays


class TestInsertManyBulkLoad:
    def test_empty_tree_takes_the_str_path(self, rng):
        items = [(_rect(rng), i) for i in range(200)]
        tree = RTree(dims=2, page_size=TINY_PAGE)
        tree.insert_many(items)
        tree.validate(allow_underfull=True)
        assert len(tree) == 200
        reference = bulk_load(items, dims=2, page_size=TINY_PAGE)
        # STR is deterministic: same packing as the bulk_load entry point.
        assert tree.height() == reference.height()
        window = _rect(rng, extent=40.0)
        assert sorted(tree.range_search(window)) == sorted(
            reference.range_search(window)
        )

    def test_non_empty_tree_keeps_incremental_path(self, rng):
        tree = RTree(dims=2, page_size=TINY_PAGE)
        tree.insert(_rect(rng), "seed")
        tree.insert_many([(_rect(rng), i) for i in range(50)])
        tree.validate()  # insertion-built trees satisfy strict min-fill
        assert len(tree) == 51

    def test_empty_batch_is_a_no_op(self):
        tree = RTree(dims=2, page_size=TINY_PAGE)
        tree.insert_many([])
        assert len(tree) == 0


class TestJsonReport:
    def test_write_json_report_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        rows = [{"speedup": 7.5, "objects": 100}]
        payload = write_json_report(path, "demo", rows, meta={"seed": 1})
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == "repro-bench-report/v1"
        assert on_disk["benchmark"] == "demo"
        assert on_disk["rows"] == rows
        assert on_disk["meta"] == {"seed": 1}
