"""The dataset R-tree: STR layout, traversal parity, accounting, churn.

:meth:`~repro.index.packed.PackedRTree.build` packs box arrays with a
vectorized STR; :mod:`tests.reference.rtree` packs the same boxes with
the classic recursive loop into pointer nodes.  The two must agree on
every array bit (node MBRs, child and entry ranges, entry order), and
every query must agree with the reference's node-by-node traversal on
hits *and* ``AccessStats`` counts — the paper's node-access metric.
Hypothesis drives both with page size 160 (fanout 4 at d=2) so
multi-level trees are the norm, not the exception.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.reporting import write_json_report
from repro.engine.executor import ParallelExecutor
from repro.engine.session import Session
from repro.geometry.rectangle import Rect
from repro.index.packed import PackedRTree, fanout_for_page, pack_window_groups
from repro.index.stats import AccessStats
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject

from tests.conftest import make_uncertain_dataset
from tests.reference import rtree as reference_rtree

# 2 corners * 2 dims * 8 bytes + 8-byte pointer = 40 bytes/entry -> fanout 4
TINY_PAGE = 160


def _boxes(rng, n, dims=2, extent=10.0):
    """Random boxes; a third are points, some coordinates on a coarse grid."""
    lo = rng.uniform(0.0, 100.0, size=(n, dims))
    lo[: n // 4] = np.round(lo[: n // 4] / 25.0) * 25.0  # tied centers
    size = rng.uniform(0.0, extent, size=(n, dims))
    size[rng.random(n) < 1 / 3] = 0.0
    return lo, lo + size


def _reference(lo, hi, page_size=TINY_PAGE):
    items = [(Rect(lo[i], hi[i]), i) for i in range(lo.shape[0])]
    return reference_rtree.bulk_load(items, lo.shape[1], page_size=page_size)


def _rect(rng, extent=40.0):
    lo = rng.uniform(0.0, 100.0, size=2)
    return Rect(lo, lo + rng.uniform(0.0, extent, size=2))


def _windows(rng, count):
    return [_rect(rng) for _ in range(count)]


def _counts(snapshot):
    return (snapshot.node_accesses, snapshot.leaf_accesses, snapshot.queries)


def assert_query_parity(packed, tree, rng) -> None:
    """Every kernel agrees with the reference traversal, hits and counts."""
    window = _rect(rng)
    with packed.stats.measure() as got:
        hits = packed.range_search(window)
    with tree.stats.measure() as want:
        expected = reference_rtree.range_search(tree, window)
    assert sorted(hits.tolist()) == expected
    assert _counts(got) == _counts(want)

    windows = _windows(rng, 5)
    with packed.stats.measure() as got:
        per_window = packed.range_search_many(windows)
    with tree.stats.measure() as want:
        expected = reference_rtree.range_search_many(tree, windows)
    assert [sorted(part.tolist()) for part in per_window] == expected
    assert _counts(got) == _counts(want)

    # Empty groups interleaved AND trailing, and groups of 0..6 windows.
    groups = [_windows(rng, 3), [], _windows(rng, 1), _windows(rng, 6), []]
    lo, hi = pack_window_groups(groups, 2)
    with packed.stats.measure() as got:
        hit_groups, rows = packed.group_hits(lo, hi)
    with tree.stats.measure() as want:
        expected = [
            reference_rtree.range_search_any(tree, group) for group in groups
        ]
    assert [
        sorted(rows[hit_groups == g].tolist()) for g in range(len(groups))
    ] == expected
    # sorted by group, then by entry
    order = np.lexsort((np.argsort(packed.rows)[rows], hit_groups))
    assert np.array_equal(order, np.arange(rows.size))
    assert _counts(got) == _counts(want)


class TestBuild:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=0, max_value=200),
        dims=st.integers(min_value=1, max_value=3),
    )
    def test_arrays_equal_the_reference_str_tree(self, seed, n, dims):
        lo, hi = _boxes(np.random.default_rng(seed), n, dims)
        built = PackedRTree.build(lo, hi, page_size=TINY_PAGE)
        frozen = reference_rtree.freeze(_reference(lo, hi))
        assert reference_rtree.same_layout(
            reference_rtree.layout(built), frozen
        )
        assert len(built) == n and built.dims == dims

    def test_default_page_builds_the_reference_tree(self, rng):
        lo, hi = _boxes(rng, 3000)
        built = PackedRTree.build(lo, hi)
        assert built.height == 2  # fanout 102: 30 leaves under one root
        frozen = reference_rtree.freeze(_reference(lo, hi, page_size=4096))
        assert reference_rtree.same_layout(
            reference_rtree.layout(built), frozen
        )

    def test_index_is_immutable(self, rng):
        packed = PackedRTree.build(*_boxes(rng, 30), page_size=TINY_PAGE)
        for name in ("node_lo", "entry_lo", "rows", "child_start"):
            with pytest.raises(ValueError):
                getattr(packed, name)[0] = 1

    def test_empty_index_answers_nothing(self):
        empty = np.empty((0, 2))
        packed = PackedRTree.build(empty, empty, page_size=TINY_PAGE)
        assert packed.height == 1 and packed.node_count == 1
        with packed.stats.measure() as snapshot:
            hits = packed.range_search(Rect([0.0, 0.0], [1e9, 1e9]))
        assert hits.size == 0
        assert _counts(snapshot) == (1, 1, 1)  # the root leaf is read


class TestFanout:
    def test_page_size_determines_capacity(self):
        assert fanout_for_page(4096, 2) == 4096 // (2 * 2 * 8 + 8)

    def test_minimum_capacity(self):
        assert fanout_for_page(64, 10) == 4


class TestTraversalParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=0, max_value=120),
    )
    def test_parity_on_random_trees(self, seed, n):
        rng = np.random.default_rng(seed)
        lo, hi = _boxes(rng, n)
        packed = PackedRTree.build(lo, hi, page_size=TINY_PAGE)
        assert_query_parity(packed, _reference(lo, hi), rng)

    def test_stats_are_shared_or_private(self, rng):
        lo, hi = _boxes(rng, 40)
        shared = AccessStats()
        packed = PackedRTree.build(lo, hi, TINY_PAGE, stats=shared)
        assert packed.stats is shared
        view = packed.with_stats()
        view.range_search(Rect([0.0, 0.0], [100.0, 100.0]))
        assert shared.node_accesses == 0 and view.stats.node_accesses > 0
        assert view.rows is packed.rows  # arrays shared, not copied


def _churn_ops():
    return st.lists(
        st.sampled_from(["insert", "delete", "update", "insert"]), max_size=25
    )


def _fresh(dataset):
    return UncertainDataset(dataset.objects(), page_size=dataset.page_size)


def _object(oid, rng):
    rows = int(rng.integers(1, 4))
    return UncertainObject(oid, rng.uniform(0.0, 100.0, size=(rows, 2)))


class TestDatasetIntegration:
    def test_spatial_index_selection_and_shared_stats(self, rng):
        dataset = make_uncertain_dataset(rng, n=40)
        assert dataset.packed.stats is dataset.access_stats
        lo, hi, _sums_to_one = dataset.tensor.boxes()
        rows = dataset.packed.rows
        assert np.array_equal(dataset.packed.entry_lo, lo[rows])
        assert np.array_equal(dataset.packed.entry_hi, hi[rows])

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
        assert second is not first and len(second) == len(dataset)
        assert reference_rtree.same_layout(
            reference_rtree.layout(second),
            reference_rtree.layout(_fresh(dataset).packed),
        )
        hits = second.range_search(Rect([4.0, 4.0], [6.0, 6.0]))
        assert dataset.index_of("fresh") in hits.tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_initial=st.integers(min_value=1, max_value=25),
        op_kinds=_churn_ops(),
    )
    def test_churn_index_equals_fresh_build(self, seed, n_initial, op_kinds):
        """Any insert/update/delete interleaving through ``apply_delta``.

        After every step the index equals a fresh dataset's over the same
        objects, array for array, and a range query equals brute force
        over the object MBRs.
        """
        rng = np.random.default_rng(seed)
        dataset = UncertainDataset(
            [_object(f"o{i}", rng) for i in range(n_initial)],
            page_size=TINY_PAGE,
        )
        dataset.packed
        for step, kind in enumerate(op_kinds):
            ids = dataset.ids()
            victim = ids[int(rng.integers(len(ids)))]
            if kind == "insert":
                delta = DatasetDelta.insertion(_object(f"n{step}", rng))
            elif kind == "update":
                delta = DatasetDelta.replacement(_object(victim, rng))
            elif len(ids) > 1:
                delta = DatasetDelta.deletion(victim)
            else:
                continue
            dataset.apply_delta(delta)
            assert reference_rtree.same_layout(
                reference_rtree.layout(dataset.packed),
                reference_rtree.layout(_fresh(dataset).packed),
            )
            window = _rect(rng)
            expected = [
                row for row, obj in enumerate(dataset)
                if window.intersects(obj.mbr)
            ]
            got = dataset.packed.range_search(window)
            assert sorted(got.tolist()) == expected


class TestWorkerHandoff:
    def test_initargs_inherit_session_switches(self, rng):
        dataset = make_uncertain_dataset(rng, n=15)
        lazy = Session(dataset, build_index=False)
        assert dataset._packed is None
        payload, _pdf, kwargs, traced, plan = ParallelExecutor(
            workers=2
        )._initargs(lazy)
        assert kwargs["build_index"] is False
        assert traced is False
        assert plan is None  # no fault plan installed
        assert dataset._packed is None  # _initargs itself stayed lazy

        eager = Session(make_uncertain_dataset(rng, n=15))
        payload, _pdf, kwargs, _traced, _plan = ParallelExecutor(
            workers=2
        )._initargs(eager)
        assert kwargs == {"build_index": True, "cache_size": 4096}
        assert "packed" not in payload  # workers build their own index


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
