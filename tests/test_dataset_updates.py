"""Live dataset updates: incremental mutation of every derived structure.

The invariant under test everywhere: a dataset mutated in place must be
indistinguishable — fingerprint, R-tree arrays, tensor bits, ``points``
matrix — from a fresh dataset built over the same final contents.
"""

import numpy as np
import pytest

from repro.engine import (
    DatasetDelta,
    LRUCache,
    ParallelExecutor,
    PRSQSpec,
    ReverseSkylineSpec,
    SerialExecutor,
    Session,
    UpdateSpec,
    dataset_fingerprint,
)
from repro.exceptions import EmptyDatasetError, UnknownObjectError
from repro.geometry.rectangle import Rect
from repro.uncertain import CertainDataset, UncertainDataset, UncertainObject
from repro.uncertain.pdf import UniformBoxObject
from repro.uncertain.tensor import DatasetTensor

from tests.reference import rtree as reference_rtree


def obj(oid, rows, probabilities=None, name=None):
    return UncertainObject(oid, rows, probabilities, name=name)


def small_dataset():
    return UncertainDataset(
        [
            obj("a", [[1.0, 1.0], [2.0, 2.0]]),
            obj("b", [[3.0, 3.0]]),
            obj("c", [[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]]),
        ]
    )


def assert_tensor_equivalent(dataset):
    """The (possibly patched) tensor matches a fresh build, bit for bit.

    The patched tensor may keep a wider ``S_max`` than strictly needed
    after deletions; the extra slots must be fully masked out.
    """
    fresh = DatasetTensor(dataset.objects())
    patched = dataset.tensor
    assert patched.ids == fresh.ids
    assert patched.index_of == fresh.index_of
    w = fresh.max_samples
    assert patched.max_samples >= w
    assert np.array_equal(patched.samples[:, :w], fresh.samples)
    assert np.array_equal(patched.probabilities[:, :w], fresh.probabilities)
    assert np.array_equal(patched.mask[:, :w], fresh.mask)
    assert not patched.mask[:, w:].any()
    assert not patched.probabilities[:, w:].any()


def assert_matches_fresh(dataset):
    if isinstance(dataset, CertainDataset):
        rebuilt = CertainDataset(
            dataset.points.copy(),
            ids=dataset.ids(),
            names=[o.name for o in dataset],
            page_size=dataset.page_size,
        )
    else:
        rebuilt = UncertainDataset(
            [
                UncertainObject(
                    o.oid, o.samples.copy(), o.probabilities.copy(), name=o.name
                )
                for o in dataset.objects()
            ],
            page_size=dataset.page_size,
        )
    assert dataset.content_digest() == rebuilt.content_digest()
    assert_tensor_equivalent(dataset)
    assert_index_matches_fresh(dataset, rebuilt)


def assert_index_matches_fresh(dataset, rebuilt):
    """The index equals a fresh build's, and the reference tree's hits."""
    assert reference_rtree.same_layout(
        reference_rtree.layout(dataset.packed),
        reference_rtree.layout(rebuilt.packed),
    )
    tree = reference_rtree.dataset_tree(dataset)
    windows = (Rect([0.0, 0.0], [4.0, 4.0]), Rect([5.0, 0.0], [20.0, 20.0]))
    for window in windows:
        with dataset.access_stats.measure() as got:
            hits = dataset.packed.range_search(window)
        with tree.stats.measure() as want:
            expected = reference_rtree.range_search(tree, window)
        assert sorted(hits.tolist()) == expected
        assert got.node_accesses == want.node_accesses


class TestUncertainMutations:
    def test_insert_patches_everything(self):
        ds = small_dataset()
        ds.packed, ds.tensor  # force both caches: patched or rebuilt
        ds.insert_object(obj("d", [[9.0, 9.0]]))
        assert ds.ids() == ["a", "b", "c", "d"]
        assert ds.index_of("d") == 3 and "d" in ds
        assert_matches_fresh(ds)

    def test_insert_growing_s_max_repads(self):
        ds = small_dataset()
        ds.tensor
        wide = obj("w", [[i * 1.0, i * 1.0] for i in range(5)])
        ds.insert_object(wide)
        assert ds.tensor.max_samples == 5
        assert_matches_fresh(ds)

    def test_delete_patches_everything(self):
        ds = small_dataset()
        ds.packed, ds.tensor
        removed = ds.delete_object("b")
        assert removed.oid == "b" and "b" not in ds
        assert ds.ids() == ["a", "c"]
        assert ds.index_of("c") == 1  # tail positions reindexed
        with pytest.raises(UnknownObjectError):
            ds.index_of("b")
        assert_matches_fresh(ds)

    def test_update_keeps_position(self):
        ds = small_dataset()
        ds.packed, ds.tensor
        old = ds.update_object(obj("b", [[8.0, 8.0], [8.5, 8.5]]))
        assert old.samples[0, 0] == 3.0
        assert ds.ids() == ["a", "b", "c"]  # order unchanged
        assert ds.get("b").num_samples == 2
        assert_matches_fresh(ds)

    def test_lazy_caches_stay_lazy(self):
        ds = small_dataset()
        ds.insert_object(obj("d", [[9.0, 9.0]]))
        ds.delete_object("a")
        assert ds._packed is None and ds._tensor is None
        assert_matches_fresh(ds)

    def test_mutation_errors(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="duplicate"):
            ds.insert_object(obj("a", [[0.0, 0.0]]))
        with pytest.raises(ValueError, match="dims"):
            ds.insert_object(obj("z", [[1.0, 2.0, 3.0]]))
        with pytest.raises(UnknownObjectError):
            ds.delete_object("zzz")
        with pytest.raises(UnknownObjectError):
            ds.update_object(obj("zzz", [[1.0, 1.0]]))
        ds.delete_object("a")
        ds.delete_object("b")
        with pytest.raises(EmptyDatasetError):
            ds.delete_object("c")

    def test_tensor_repacks_after_transiently_wide_object(self):
        ds = small_dataset()  # widest object has 3 samples
        ds.tensor
        wide = obj("w", [[float(i), float(i)] for i in range(12)])
        ds.insert_object(wide)
        assert ds.tensor.max_samples == 12
        ds.delete_object("w")
        # 12 > 2 * 3: the shrink heuristic must re-pack the padding away
        assert ds.tensor.max_samples == 3
        assert_matches_fresh(ds)
        # narrowing via update triggers the same re-pack
        ds.insert_object(obj("w2", [[float(i), float(i)] for i in range(12)]))
        ds.update_object(obj("w2", [[1.0, 1.0]]))
        assert ds.tensor.max_samples == 3
        assert_matches_fresh(ds)

    def test_incremental_digest_equals_fresh(self):
        ds = small_dataset()
        first = ds.content_digest()
        ds.insert_object(obj("d", [[9.0, 9.0]]))
        ds.update_object(obj("a", [[0.5, 0.5]]))
        ds.delete_object("c")
        assert ds.content_digest() != first
        assert_matches_fresh(ds)
        assert dataset_fingerprint(ds) == ds.content_digest()


class TestDatasetDelta:
    def test_apply_order_and_result(self):
        ds = small_dataset()
        delta = DatasetDelta(
            deletes=("b",),
            updates=(obj("a", [[4.0, 4.0]]),),
            inserts=(obj("d", [[9.0, 9.0]]),),
        )
        assert len(delta) == 3
        ds.apply_delta(delta)
        assert ds.ids() == ["a", "c", "d"]
        assert ds.get("a").samples[0, 0] == 4.0
        assert_matches_fresh(ds)

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="empty delta"):
            DatasetDelta()
        with pytest.raises(ValueError, match="more than one"):
            DatasetDelta(deletes=("x",), inserts=(obj("x", [[1.0, 1.0]]),))
        with pytest.raises(TypeError):
            DatasetDelta(inserts=("not-an-object",))
        # a bare string must not explode into per-character delete ops
        with pytest.raises(TypeError, match="bare string"):
            DatasetDelta(deletes="hot-1")

    def test_multi_op_delta_batches_each_group(self):
        ds = UncertainDataset(
            [obj(f"o{i}", [[float(i), float(i)]]) for i in range(8)]
        )
        ds.packed, ds.tensor
        ds.apply_delta(
            DatasetDelta(
                deletes=("o1", "o4", "o6"),
                updates=(
                    obj("o0", [[10.0, 10.0], [11.0, 11.0]]),
                    obj("o7", [[12.0, 12.0]]),
                ),
                inserts=(obj("n1", [[13.0, 13.0]]), obj("n2", [[14.0, 14.0]])),
            )
        )
        assert ds.ids() == ["o0", "o2", "o3", "o5", "o7", "n1", "n2"]
        assert_matches_fresh(ds)

    def test_bad_delta_is_atomic(self):
        ds = small_dataset()
        before = ds.content_digest()
        with pytest.raises(UnknownObjectError):
            ds.apply_delta(
                DatasetDelta(
                    deletes=("zzz",), inserts=(obj("d", [[9.0, 9.0]]),)
                )
            )
        with pytest.raises(ValueError, match="duplicate"):
            ds.apply_delta(DatasetDelta(inserts=(obj("a", [[1.0, 1.0]]),)))
        with pytest.raises(EmptyDatasetError):
            ds.apply_delta(
                DatasetDelta(
                    deletes=("a", "b", "c"), inserts=(obj("d", [[1.0, 1.0]]),)
                )
            )
        assert ds.content_digest() == before
        assert ds.ids() == ["a", "b", "c"]

    def test_single_op_constructors(self):
        assert DatasetDelta.insertion(obj("x", [[1.0, 1.0]])).inserts
        assert DatasetDelta.deletion("x").deletes == ("x",)
        assert DatasetDelta.replacement(obj("x", [[1.0, 1.0]])).updates


class TestCertainMutations:
    def _ds(self):
        return CertainDataset(
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            ids=["x", "y", "z"],
            names=["X", "Y", "Z"],
        )

    def test_points_matrix_kept_in_sync(self):
        ds = self._ds()
        ds.packed, ds.tensor
        ds.insert_object(UncertainObject.certain("w", [7.0, 8.0]))
        ds.delete_object("y")
        ds.update_object(UncertainObject.certain("z", [5.5, 6.5]))
        assert np.array_equal(
            ds.points, np.array([[1.0, 2.0], [5.5, 6.5], [7.0, 8.0]])
        )
        assert [obj.oid for obj in ds] == ["x", "z", "w"]
        assert_matches_fresh(ds)

    def test_points_matrix_is_frozen(self):
        # snapshots and worker handoffs share .points by reference; an
        # in-place write would corrupt every reader, so both constructors
        # hand out read-only matrices
        ds = self._ds()
        with pytest.raises(ValueError):
            ds.points[0, 0] = 99.0
        shared = CertainDataset.from_objects(list(ds))
        with pytest.raises(ValueError):
            shared.points[0, 0] = 99.0
        ds.insert_object(UncertainObject.certain("w", [7.0, 8.0]))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 99.0  # still frozen after a rebuild

    def test_multi_sample_insert_rejected(self):
        ds = self._ds()
        with pytest.raises(ValueError, match="single-sample"):
            ds.insert_object(obj("u", [[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ValueError, match="single-sample"):
            ds.update_object(obj("x", [[1.0, 1.0], [2.0, 2.0]]))

    def test_without_shares_objects_and_page_size(self):
        ds = CertainDataset(
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            ids=["x", "y", "z"],
            page_size=512,
        )
        ds.tensor
        reduced = ds.without(["y"])
        assert isinstance(reduced, CertainDataset)
        assert reduced.page_size == 512
        assert reduced.get("x") is ds.get("x")  # shared, not copied
        assert reduced._tensor is not None  # seeded by row deletion
        assert_tensor_equivalent(reduced)
        assert np.array_equal(reduced.points, np.array([[1.0, 2.0], [5.0, 6.0]]))

    def test_uncertain_without_shares_and_seeds(self):
        ds = small_dataset()
        ds.tensor
        reduced = ds.without(["b", "nonexistent"])
        assert reduced.page_size == ds.page_size
        assert reduced.get("a") is ds.get("a")
        assert reduced._tensor is not None
        assert_tensor_equivalent(reduced)


class TestSessionApply:
    def test_apply_bumps_version_and_fingerprint(self):
        session = Session(small_dataset())
        fp0 = session.fingerprint
        assert session.version == 0
        summary = session.apply(DatasetDelta.insertion(obj("d", [[9.0, 9.0]])))
        assert summary["version"] == session.version == 1
        assert summary["previous_fingerprint"] == fp0
        assert summary["fingerprint"] == session.fingerprint != fp0
        assert summary["inserted"] == 1 and summary["n_objects"] == 4

    def test_apply_invalidates_cached_results(self):
        session = Session(small_dataset(), cache=LRUCache(maxsize=64))
        spec = PRSQSpec(q=(4.0, 4.0), alpha=0.5, want="probabilities")
        before = session.query(spec).value.probabilities
        session.apply(DatasetDelta.deletion("b"))
        outcome = session.query(spec)
        assert not outcome.run.cached  # old fingerprint keys never hit
        assert set(outcome.value.probabilities) == {"a", "c"}
        fresh = Session(UncertainDataset(session.dataset.objects()))
        ref = fresh.query(spec).value.probabilities
        assert {k: v.hex() for k, v in outcome.value.probabilities.items()} == {
            k: v.hex() for k, v in ref.items()
        }
        assert before != outcome.value.probabilities

    def test_apply_honors_lazy_index(self):
        session = Session(small_dataset(), build_index=False)
        session.apply(DatasetDelta.insertion(obj("d", [[9.0, 9.0]])))
        assert session.dataset._packed is None  # still lazy
        assert_matches_fresh(session.dataset)

    def test_apply_rejects_pdf_sessions(self):
        session = Session.from_pdf_objects(
            [
                UniformBoxObject("a", Rect([0.0, 0.0], [1.0, 1.0])),
                UniformBoxObject("b", Rect([2.0, 2.0], [3.0, 3.0])),
            ]
        )
        with pytest.raises(ValueError, match="pdf"):
            session.apply(DatasetDelta.deletion("a"))
        # the pdf side survives the refused apply
        assert session.has_pdf_objects

    def test_update_spec_roundtrip_through_session(self):
        session = Session(small_dataset())
        env = session.query(UpdateSpec(deletes=("b",)))
        assert env.ok and env.value.deleted == 1
        assert not env.run.cached
        # identical spec again: never served from cache, fails for real
        with pytest.raises(UnknownObjectError):
            session.query(UpdateSpec(deletes=("b",)))


class TestReplaceDataset:
    def test_pdf_session_requires_pdf_objects(self):
        boxes = [
            UniformBoxObject("a", Rect([0.0, 0.0], [1.0, 1.0])),
            UniformBoxObject("b", Rect([2.0, 2.0], [3.0, 3.0])),
        ]
        session = Session.from_pdf_objects(boxes)
        with pytest.raises(ValueError, match="pdf_objects"):
            session.replace_dataset(small_dataset())
        # the failed call must not have wiped the pdf side
        assert session.has_pdf_objects
        session.pdf_object("a")

        # explicit pdf_objects: the pdf side is swapped coherently
        new_boxes = [
            UniformBoxObject("c", Rect([5.0, 5.0], [6.0, 6.0])),
            UniformBoxObject("d", Rect([7.0, 7.0], [8.0, 8.0])),
        ]
        rng = np.random.default_rng(0)
        session.replace_dataset(
            UncertainDataset([b.discretize(16, rng) for b in new_boxes]),
            pdf_objects=new_boxes,
        )
        session.pdf_object("c")
        with pytest.raises(UnknownObjectError):
            session.pdf_object("a")

        # explicit empty sequence drops pdf support deliberately
        session.replace_dataset(small_dataset(), pdf_objects=())
        assert not session.has_pdf_objects

    def test_honors_build_index_setting(self):
        lazy = Session(small_dataset(), build_index=False)
        replacement = small_dataset()
        lazy.replace_dataset(replacement)
        assert replacement._packed is None  # no eager index build
        eager = Session(small_dataset(), build_index=True)
        replacement2 = small_dataset()
        eager.replace_dataset(replacement2)
        assert replacement2._packed is not None

    def test_bumps_version(self):
        session = Session(small_dataset())
        session.replace_dataset(small_dataset())
        assert session.version == 1


class TestExecutorsAndUpdates:
    def test_parallel_executor_rejects_mutations(self):
        session = Session(small_dataset())
        specs = [PRSQSpec(q=(4.0, 4.0), alpha=0.5), UpdateSpec(deletes=("b",))]
        for workers in (1, 2):  # the serial fallback must reject too
            with pytest.raises(ValueError, match="mutating"):
                ParallelExecutor(workers=workers).map(session, specs)
        assert "b" in session.dataset  # nothing was applied

    def test_serial_batch_interleaves_updates_and_queries(self):
        session = Session(small_dataset())
        specs = [
            PRSQSpec(q=(4.0, 4.0), alpha=0.5, want="probabilities"),
            UpdateSpec(deletes=("b",)),
            PRSQSpec(q=(4.0, 4.0), alpha=0.5, want="probabilities"),
        ]
        outcomes = SerialExecutor().map(session, specs)
        assert [o.ok for o in outcomes] == [True, True, True]
        assert set(outcomes[0].value) == {"a", "b", "c"}
        assert set(outcomes[2].value) == {"a", "c"}

    def test_serial_executor_reports_cache_stats(self):
        session = Session(small_dataset())
        executor = SerialExecutor()
        spec = PRSQSpec(q=(4.0, 4.0), alpha=0.5)
        executor.map(session, [spec, spec])
        stats = executor.last_cache_stats
        assert stats is not None and stats.hits >= 1 and stats.misses >= 1

    def test_parallel_executor_merges_worker_cache_stats(self):
        session = Session(small_dataset())
        executor = ParallelExecutor(workers=2, chunk_size=1)
        spec_a = PRSQSpec(q=(4.0, 4.0), alpha=0.5)
        spec_b = PRSQSpec(q=(4.5, 4.5), alpha=0.5)
        executor.map(session, [spec_a, spec_b, spec_a, spec_b])
        stats = executor.last_cache_stats
        assert stats is not None
        # outer result + inner probability map miss once per cold evaluation
        assert stats.misses >= 2
        assert stats.lookups == stats.hits + stats.misses


class TestUpdateSpecValidation:
    def test_structural_errors(self):
        with pytest.raises(ValueError, match="empty update"):
            UpdateSpec()
        with pytest.raises(ValueError, match="bare string"):
            UpdateSpec(deletes="hot-1")
        with pytest.raises(ValueError, match="more than one"):
            UpdateSpec(deletes=("x",), inserts=((("x"), ((1.0, 1.0),), None, None),))
        with pytest.raises(ValueError, match="hashable"):
            UpdateSpec(deletes=([1, 2],))
        with pytest.raises(ValueError, match="4-tuples"):
            UpdateSpec(inserts=(("just-an-id",),))
        with pytest.raises(ValueError, match="no samples"):
            UpdateSpec(inserts=(("x", (), None, None),))

    def test_accepts_objects_and_normalizes(self):
        spec = UpdateSpec(inserts=(obj("x", [[1, 2]], name="n"),))
        assert spec.inserts == (("x", ((1.0, 2.0),), (1.0,), "n"),)
        delta = spec.to_delta()
        assert delta.inserts[0] == obj("x", [[1.0, 2.0]], name="n")
        assert UpdateSpec.from_delta(delta) == spec

    def test_bad_probabilities_fail_at_execution_not_parse(self):
        spec = UpdateSpec(inserts=(("x", ((1.0, 2.0),), (0.25,), None),))
        with pytest.raises(Exception):
            spec.to_delta()

    def test_client_rejects_object_plus_overrides(self):
        from repro.api import connect

        client = connect(small_dataset())
        replacement = obj("a", [[9.0, 9.0]])
        with pytest.raises(ValueError, match="cannot combine"):
            client.update(replacement, samples=[[1.0, 1.0]])
        # the loud error prevents the silent-drop misuse; the two
        # supported spellings still work
        assert client.update(replacement).ok
        assert client.update("a", samples=[[2.0, 2.0]]).ok
