"""The batched PRSQ path: CSR relevance sets and segmented Eq. (3)/(2).

Every object's Lemma-2 relevance set comes out of one grouped traversal as
CSR ``(offsets, positions)``, and Eq. (3)/(2) for every center runs as one
segmented kernel over it.  Both must equal the per-object reference to the
last bit: the same ascending positions and node accesses as one
reference-tree ``range_search_any`` per object, and the same probability
bits as one
``reverse_skyline_probability`` per object — with tiny chunk budgets
forcing many blocks, and with segments long enough for any reordering
reduction to show.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.results import PRSQResult
from repro.engine import kernels
from repro.engine.session import Session
from repro.engine.spec import PRSQSpec
from repro.geometry.dominance import dominance_bounds, dominance_rectangle
from repro.index import packed as packed_module
from repro.index.packed import pack_window_groups
from repro.prsq.probability import (
    dominance_probability_matrix,
    probability_from_matrix,
    relevant_indices,
    reverse_skyline_probability,
)
from repro.prsq.query import NonAnswerIds, ProbabilityMap, prsq_probability_map
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject

from tests import reference
from tests.conftest import make_uncertain_dataset
from tests.reference import rtree as reference_rtree

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

coordinate = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _windows_per_object(dataset, q):
    return [
        [dominance_rectangle(obj.samples[i], q) for i in range(obj.num_samples)]
        for obj in dataset
    ]


def _tensor_windows(dataset, q):
    tensor = dataset.tensor
    lo = np.full(tensor.samples.shape, np.nan)
    hi = np.full(tensor.samples.shape, np.nan)
    lo[tensor.mask], hi[tensor.mask] = dominance_bounds(
        tensor.samples[tensor.mask], q
    )
    return lo, hi


class TestDominanceBounds:
    @SLOW
    @given(
        samples=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                         max_size=12),
        q=st.tuples(coordinate, coordinate),
    )
    def test_rows_match_dominance_rectangle(self, samples, q):
        matrix = np.array(samples)
        lo, hi = dominance_bounds(matrix, q)
        for row, sample in enumerate(matrix):
            rect = dominance_rectangle(sample, q)
            assert lo[row].tobytes() == rect.lo.tobytes()
            assert hi[row].tobytes() == rect.hi.tobytes()

    def test_ulp_widening_matches_single_rectangle(self):
        # s=1, q=2.22e-16 is the rounding case the widening exists for
        matrix = np.array([[1.0, 1.0], [3.0, 4.0], [1.0, 2.220446049250313e-16]])
        q = [2.220446049250313e-16, 1.0]
        lo, hi = dominance_bounds(matrix, q)
        for row in range(3):
            rect = dominance_rectangle(matrix[row], q)
            assert lo[row].tobytes() == rect.lo.tobytes()
            assert hi[row].tobytes() == rect.hi.tobytes()

    def test_overflowing_row_keeps_naive_bounds_alone(self):
        # row 1's extent overflows to inf: only that row skips the widening
        matrix = np.array([[1.0, 1.0], [1e308, 2.0]])
        q = [-1e308, 2.220446049250313e-16]
        with np.errstate(over="ignore"):
            lo, hi = dominance_bounds(matrix, q)
            for row in range(2):
                rect = dominance_rectangle(matrix[row], q)
                assert lo[row].tobytes() == rect.lo.tobytes()
                assert hi[row].tobytes() == rect.hi.tobytes()
        assert np.isinf(hi[1, 0]) and np.isfinite(lo[0]).all()


class TestRelevanceSets:
    @pytest.mark.parametrize("seed", range(4))
    def test_csr_matches_per_object_search(self, seed):
        rng = np.random.default_rng(seed)
        dataset = make_uncertain_dataset(rng, 40, max_samples=4)
        q = rng.uniform(0.0, 10.0, size=2)
        lo, hi = _tensor_windows(dataset, q)
        centers = np.arange(len(dataset))
        offsets, positions = dataset.relevance_sets(lo, hi, exclude=centers)
        assert offsets.shape == (len(dataset) + 1,) and offsets[0] == 0
        tree = reference_rtree.dataset_tree(dataset)
        for center, windows in enumerate(_windows_per_object(dataset, q)):
            hits = reference_rtree.range_search_any(tree, windows)
            expected = [p for p in hits if p != center]
            got = positions[offsets[center]:offsets[center + 1]].tolist()
            assert got == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_node_accesses_match_one_scan_per_object(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        dataset = UncertainDataset(
            make_uncertain_dataset(rng, 60, max_samples=4).objects(),
            page_size=160,  # fanout 4: several levels
        )
        q = rng.uniform(0.0, 10.0, size=2)
        lo, hi = _tensor_windows(dataset, q)
        # tiny blocks: groups split across many traversal blocks
        monkeypatch.setattr(packed_module, "GROUP_WINDOW_CHUNK", 8)
        with dataset.access_stats.measure() as batched:
            dataset.relevance_sets(lo, hi)
        tree = reference_rtree.dataset_tree(dataset)
        with tree.stats.measure() as looped:
            for windows in _windows_per_object(dataset, q):
                reference_rtree.range_search_any(tree, windows)
        assert batched.node_accesses == looped.node_accesses
        assert batched.leaf_accesses == looped.leaf_accesses
        assert batched.queries == looped.queries

    def test_nan_padding_adds_no_hit_or_visit(self, rng):
        dataset = make_uncertain_dataset(rng, 30)
        windows = _windows_per_object(dataset, [5.0, 5.0])[:3]
        lo, hi = pack_window_groups(windows, 2)
        wide_lo = np.concatenate([lo, np.full((3, 5, 2), np.nan)], axis=1)
        wide_hi = np.concatenate([hi, np.full((3, 5, 2), np.nan)], axis=1)
        with dataset.access_stats.measure() as narrow:
            expected = dataset.packed.group_hits(lo, hi)
        with dataset.access_stats.measure() as wide:
            got = dataset.packed.group_hits(wide_lo, wide_hi)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert wide.node_accesses == narrow.node_accesses

    @pytest.mark.parametrize("exclude_center", [True, False])
    def test_window_positions_excludes_and_sorts(self, rng, exclude_center):
        dataset = make_uncertain_dataset(rng, 30)
        windows = _windows_per_object(dataset, [5.0, 5.0])[4]
        exclude = 4 if exclude_center else None
        got = dataset.window_positions(windows, exclude=exclude)
        tree = reference_rtree.dataset_tree(dataset)
        hits = reference_rtree.range_search_any(tree, windows)
        assert got.tolist() == [row for row in hits if row != exclude]
        # Each window is centred on one of object 4's samples, so object 4
        # always crosses them: only ``exclude`` keeps it out.
        assert (4 in got.tolist()) is not exclude_center


class TestSegmentedEq2:
    @staticmethod
    def _reference(dataset, q):
        """Per-center scalar reference: Eq. (3) loops, Eq. (2) row product."""
        out = []
        objects = dataset.objects()
        for center in objects:
            others = [o for o in objects if o.oid != center.oid]
            matrix = dominance_probability_matrix(center, others, q)
            out.append(probability_from_matrix(center, matrix))
        return out

    @SLOW
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 30))
    def test_all_pairs_bitwise_equal_to_scalar_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        dataset = make_uncertain_dataset(rng, n, max_samples=4)
        q = rng.uniform(0.0, 10.0, size=2)
        tensor = dataset.tensor
        # every other object is "relevant": segments of length n - 1
        rows = [r for c in range(n) for r in range(n) if r != c]
        offsets = np.arange(n + 1) * (n - 1)
        got = kernels.eq2_segmented(
            tensor.samples, tensor.probabilities, tensor.mask,
            np.arange(n), offsets, rows, q,
        )
        reference = self._reference(dataset, q)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in reference]

    def test_long_segments_multiply_in_order(self):
        # 200 relevant objects per center: a reordering (pairwise or SIMD)
        # product would change bits somewhere in these segments
        rng = np.random.default_rng(7)
        objects = [
            UncertainObject(i, rng.uniform(0.0, 1.0, size=(3, 2)),
                            rng.dirichlet(np.ones(3)))
            for i in range(201)
        ]
        dataset = UncertainDataset(objects)
        q = np.array([0.5, 0.5])
        centers = np.arange(0, 201, 50)
        rows = np.concatenate([np.delete(np.arange(201), c) for c in centers])
        offsets = np.arange(centers.size + 1) * 200
        tensor = dataset.tensor
        got = kernels.eq2_segmented(
            tensor.samples, tensor.probabilities, tensor.mask,
            centers, offsets, rows, q,
        )
        for value, center in zip(got.tolist(), centers.tolist()):
            expected = reference.prsq_probability(dataset, center, q)
            assert value.hex() == expected.hex()

    def test_blocking_and_empty_segments(self, rng, monkeypatch):
        dataset = make_uncertain_dataset(rng, 25, max_samples=4)
        q = rng.uniform(0.0, 10.0, size=2)
        lo, hi = _tensor_windows(dataset, q)
        centers = np.arange(len(dataset))
        offsets, rows = dataset.relevance_sets(lo, hi, exclude=centers)
        # drop a few segments entirely: empty segments survive as Pr = sum(p)
        keep = np.ones(rows.size, dtype=bool)
        for center in (0, 7, 24):
            keep[offsets[center]:offsets[center + 1]] = False
        lengths = np.diff(offsets)
        lengths[[0, 7, 24]] = 0
        trimmed = np.concatenate([[0], np.cumsum(lengths)])
        tensor = dataset.tensor
        args = (tensor.samples, tensor.probabilities, tensor.mask, centers,
                trimmed, rows[keep], q)
        whole = kernels.eq2_segmented(*args)
        monkeypatch.setattr(kernels, "_PAIR_BLOCK_ELEMENTS", 16)
        blocked = kernels.eq2_segmented(*args)
        assert whole.tobytes() == blocked.tobytes()
        for center in (0, 7, 24):
            p = dataset.objects()[center].probabilities
            assert whole[center] == kernels.ordered_dot(p, np.ones(p.size))

    def test_one_object_path_matches_whole_tensor(self, rng):
        # reverse_skyline_probability gathers the center and its relevant
        # rows first; the bits must equal the kernel over the whole tensor,
        # on the relevant rows and on every other row, and the scalar scan
        dataset = make_uncertain_dataset(rng, 30, max_samples=4)
        q = rng.uniform(0.0, 10.0, size=2)
        tensor = dataset.tensor
        excluded = dataset.ids()[3:6]
        for oid in dataset.ids():
            got = reverse_skyline_probability(dataset, oid, q, exclude=excluded)
            relevant = relevant_indices(dataset, oid, q, exclude=excluded)
            every = [
                i for i, other in enumerate(dataset.ids())
                if other != oid and other not in excluded
            ]
            for rows in (relevant, every):
                whole = kernels.eq2_segmented(
                    tensor.samples, tensor.probabilities, tensor.mask,
                    [dataset.index_of(oid)], [0, len(rows)], rows, q,
                )
                assert got.hex() == float(whole[0]).hex()
            scalar = reference.prsq_probability(dataset, oid, q, excluded)
            assert got.hex() == scalar.hex()


class TestBatchedPRSQ:
    @pytest.mark.parametrize("seed", range(3))
    def test_map_bitwise_equals_per_object_loop(self, seed):
        rng = np.random.default_rng(seed)
        dataset = make_uncertain_dataset(rng, 45, max_samples=4)
        q = rng.uniform(0.0, 10.0, size=2)
        batched = prsq_probability_map(dataset, q)
        looped = {
            oid: reverse_skyline_probability(dataset, oid, q).hex()
            for oid in dataset.ids()
        }
        scalar = {
            oid: reference.prsq_probability(dataset, oid, q).hex()
            for oid in dataset.ids()
        }
        assert {k: v.hex() for k, v in batched.items()} == looped == scalar
        assert list(batched) == dataset.ids()


class TestProbabilityMap:
    def _map(self):
        return ProbabilityMap(["a", "b", ("c", 1)], np.array([0.25, 0.5, 1.0]))

    def test_mapping_semantics(self):
        probs = self._map()
        assert probs == {"a": 0.25, "b": 0.5, ("c", 1): 1.0}
        assert {"a": 0.25, "b": 0.5, ("c", 1): 1.0} == probs
        assert list(probs) == ["a", "b", ("c", 1)]
        assert list(probs.items()) == [("a", 0.25), ("b", 0.5), (("c", 1), 1.0)]
        assert list(probs.values()) == [0.25, 0.5, 1.0]
        assert len(probs) == len(probs.items()) == 3
        assert probs[("c", 1)] == 1.0 and type(probs["a"]) is float
        assert "b" in probs and "z" not in probs
        with pytest.raises(KeyError):
            probs["z"]
        assert probs.get("z", -1.0) == -1.0
        assert dict(probs.items()) == dict(probs)

    def test_read_only(self):
        probs = self._map()
        with pytest.raises(TypeError):
            probs["a"] = 0.0  # type: ignore[index]
        with pytest.raises(ValueError):
            probs._values[0] = 0.0

    def test_pickle_and_repr(self):
        probs = self._map()
        clone = pickle.loads(pickle.dumps(probs))
        assert clone == probs and list(clone) == list(probs)
        assert repr(probs).startswith("ProbabilityMap({")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityMap(["a"], np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            ProbabilityMap.from_rows(["a", "b"], [0, 1], [0.1])

    def _compact(self):
        # rows 1 and 3 computed (one of them -0.0); 0 and 2 pruned
        return ProbabilityMap.from_rows(
            ["a", "b", ("c", 1), "d"], np.array([1, 3]), np.array([0.5, -0.0])
        )

    def test_compact_rows(self):
        probs = self._compact()
        expected = {"a": 0.0, "b": 0.5, ("c", 1): 0.0, "d": -0.0}
        assert probs == expected and expected == probs
        assert list(probs) == ["a", "b", ("c", 1), "d"]
        items = list(probs.items())
        assert items == list(expected.items())
        assert [np.float64(v).view(np.int64) for _k, v in items] == [
            np.float64(v).view(np.int64) for v in expected.values()
        ]
        assert probs["a"] == 0.0 and type(probs["a"]) is float
        assert np.signbit(probs["d"]) and not np.signbit(probs["a"])
        with pytest.raises(KeyError):
            probs["z"]
        with pytest.raises(ValueError):
            probs._rows[0] = 0
        with pytest.raises(ValueError):
            probs._values[0] = 0.0
        clone = pickle.loads(pickle.dumps(probs))
        assert clone == probs and list(clone) == list(probs)
        assert np.signbit(clone["d"])

    def test_dense_constructor_keeps_rows_not_positive_zero(self):
        probs = ProbabilityMap(["a", "b", "c"], np.array([0.0, -0.0, 0.3]))
        assert probs._rows.tolist() == [1, 2]
        assert np.signbit(probs["b"]) and probs["c"] == 0.3
        assert dict(probs.items()) == {"a": 0.0, "b": -0.0, "c": 0.3}

    def test_thresholds(self):
        probs = ProbabilityMap(
            ["a", "b", "c", "d"], np.array([0.25, 0.0, 0.75, 0.5])
        )
        assert probs.answers(0.5) == ["c", "d"]
        assert probs.non_answers(0.5) == ["a", "b"]
        assert probs.answers(1.0) == [] and probs.non_answers(1.0) == list(probs)
        for alpha in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                probs.answers(alpha)
            with pytest.raises(ValueError):
                probs.non_answers(alpha)

    def test_prsq_result_round_trip(self, rng):
        session = Session(make_uncertain_dataset(rng, 20))
        envelope = session.query(
            PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        )
        value = envelope.value
        assert isinstance(value.probabilities, ProbabilityMap)
        decoded = PRSQResult.from_dict(value.to_dict())
        assert decoded == value
        assert value.to_raw() == dict(value.probabilities.items())
        # the cached map is handed out as-is: it is read-only
        again = session.query(
            PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        )
        assert again.run.cached
        assert again.value.probabilities is value.probabilities


class TestNonAnswerIds:
    IDS = ["a", "b", ("c", 1), "d", "e"]

    def test_sequence_semantics(self):
        view = NonAnswerIds(self.IDS, [1, 3])
        kept = ("a", ("c", 1), "e")
        assert len(view) == 3 and tuple(view) == kept and list(view) == list(kept)
        assert [view[i] for i in range(3)] == list(kept)
        assert view[-1] == "e" and view[-3] == "a"
        assert view[1:] == kept[1:] and view[::-1] == kept[::-1]
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(IndexError):
            view[-4]
        assert ("c", 1) in view and "b" not in view and "z" not in view
        assert view.index("e") == 2 and view.count("a") == 1
        assert tuple(NonAnswerIds(self.IDS, [])) == tuple(self.IDS)
        assert tuple(NonAnswerIds(self.IDS, [0, 4])) == ("b", ("c", 1), "d")
        assert repr(view) == f"NonAnswerIds({kept!r})"

    def test_equal_to_and_hashing_like_tuple_and_list(self):
        view = NonAnswerIds(self.IDS, [1, 3])
        kept = ("a", ("c", 1), "e")
        assert view == kept and kept == view
        assert view == list(kept) and list(kept) == view
        assert hash(view) == hash(kept)
        assert view == NonAnswerIds(list(kept), [])
        assert view != kept[:2] and view != list(kept) + ["f"]
        assert view != ("a", ("c", 1), "f") and view != set(kept)
        assert {kept: 1}[view] == 1

    def test_pickle_is_the_same_view(self):
        view = NonAnswerIds(self.IDS, [1, 3])
        clone = pickle.loads(pickle.dumps(view))
        assert type(clone) is NonAnswerIds and clone == view

    def test_prsq_result_keeps_the_view(self, rng):
        from repro.api.results import QueryResult

        session = Session(make_uncertain_dataset(rng, 30))
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.3, want="non_answers")
        envelope = session.query(spec)
        value = envelope.value
        assert isinstance(value.ids, NonAnswerIds)
        raw = value.to_raw()
        assert type(raw) is list and raw == list(value.ids)
        decoded = PRSQResult.from_dict(value.to_dict())
        assert type(decoded.ids) is tuple
        assert decoded == value and value == decoded
        assert hash(decoded) == hash(value)
        assert PRSQResult.from_dict(decoded.to_dict()) == decoded
        assert QueryResult.from_dict(envelope.to_dict()) == envelope
        # the wire bytes are those of the tuple the view stands for
        as_tuple = PRSQResult(want=value.want, alpha=value.alpha,
                              ids=tuple(value.ids))
        assert json.dumps(value.to_dict()) == json.dumps(as_tuple.to_dict())
        assert json.dumps(envelope.to_dict()) == json.dumps(
            dataclasses.replace(envelope, value=as_tuple).to_dict()
        )


def test_prsq_results_retain_little_memory():
    """600 distinct-point PRSQs in ``prsq-cold``'s want mix, values kept.

    Each map stores only the rows the pre-pass left open, and a
    non-answer set is a view over the map's ids, so a query's cached map,
    cached result and kept value stay a few hundred bytes, not one
    reference and one float per object.
    """
    from repro.api import connect
    from repro.datasets.synthetic_uncertain import generate_named

    dataset = generate_named("lUrU", 1000, 2, radius_range=(0, 75), seed=17)
    client = connect(dataset)
    points = np.random.default_rng(3).uniform(3500.0, 6500.0, size=(601, 2))
    alphas = (0.2, 0.4, 0.6, 0.8)
    wants = ("answers", "non_answers", "probabilities")
    specs = [
        PRSQSpec(q=tuple(point.tolist()), alpha=alphas[i % 4], want=wants[i % 3])
        for i, point in enumerate(points)
    ]
    client.query(specs[0])  # tensor, boxes and index are built once
    kept = {}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, spec in enumerate(specs[1:]):
            kept[i] = client.query(spec).value
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 600
    assert retained / 600 < 3 * 1024, f"{retained / 600:.0f} bytes a query"
