"""Bit-compatibility of the tensorized Eq. (2)/(3) kernels.

The tensor kernels must agree with the scalar reference to the last bit —
on the Eq. (3) matrix entries (vs. ``sample_dominance_probability``), on
the Eq. (2) reduction (vs. ``probability_from_matrix``), on ragged sample
counts (exercising the padding mask), and on the restricted
``exclude``/``keep`` evaluations CP and CR lean on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import can_influence
from repro.engine import kernels
from repro.prsq.probability import (
    dominance_probability_matrix,
    dominance_probability_vector,
    probability_from_matrix,
    relevant_indices,
    reverse_skyline_probability,
    sample_dominance_probability,
)
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from repro.uncertain.tensor import DatasetTensor

from tests import reference

coordinate = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coordinate, coordinate)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _weighted_object(oid, rows):
    """An object with non-uniform probabilities derived from its size."""
    weights = np.arange(1.0, len(rows) + 1.0)
    return UncertainObject(oid, np.array(rows), weights / weights.sum())


def ragged_dataset_strategy(max_objects=6, max_samples=4):
    object_strategy = st.lists(point2d, min_size=1, max_size=max_samples)
    return st.lists(object_strategy, min_size=2, max_size=max_objects).map(
        lambda rows: UncertainDataset(
            [_weighted_object(i, samples) for i, samples in enumerate(rows)]
        )
    )


class TestDatasetTensor:
    def test_layout_and_mask(self):
        ds = UncertainDataset(
            [
                UncertainObject("a", [[1.0, 2.0]]),
                UncertainObject("b", [[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
            ]
        )
        t = ds.tensor
        assert t.samples.shape == (2, 3, 2)
        assert t.mask.tolist() == [[True, False, False], [True, True, True]]
        assert t.probabilities[0].tolist() == [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(t.samples[1], ds.get("b").samples)
        assert t.index_of == {"a": 0, "b": 1}
        assert ds.tensor is t  # cached
        assert not t.samples.flags.writeable

    def test_rows_preserve_order(self):
        ds = UncertainDataset(
            [UncertainObject(i, [[float(i), 0.0]]) for i in range(5)]
        )
        samples, probs, mask = ds.tensor.rows([3, 1, 4])
        assert [row[0][0] for row in samples] == [3.0, 1.0, 4.0]
        assert probs.shape == (3, 1) and mask.all()

    def test_pickle_round_trip_stays_frozen(self):
        import pickle

        ds = UncertainDataset(
            [
                UncertainObject("a", [[1.0, 2.0]]),
                UncertainObject("b", [[3.0, 4.0], [5.0, 6.0]]),
            ]
        )
        clone = pickle.loads(pickle.dumps(ds.tensor))
        np.testing.assert_array_equal(clone.samples, ds.tensor.samples)
        assert clone.index_of == ds.tensor.index_of
        # a worker's unpickled copy keeps the read-only contract
        for array in (clone.samples, clone.probabilities, clone.mask):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            clone.samples[0, 0, 0] = 9.0

    def test_standalone_construction_matches_dataset(self):
        objects = [UncertainObject(i, [[float(i), 1.0]]) for i in range(3)]
        ds = UncertainDataset(objects)
        standalone = DatasetTensor(objects)
        np.testing.assert_array_equal(standalone.samples, ds.tensor.samples)


class TestEq3Parity:
    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d)
    def test_matrix_entries_bitwise_equal_scalar(self, ds, q):
        tensor = ds.tensor
        for center in ds:
            others = [i for i, obj in enumerate(ds) if obj.oid != center.oid]
            samples, probs, mask = tensor.rows(others)
            fast = kernels.eq3_dominance_tensor(
                center.samples, samples, probs, mask, q
            )
            objects = ds.objects()
            for j, i in enumerate(others):
                reference = dominance_probability_vector(objects[i], center, q)
                assert fast[j].tobytes() == reference.tobytes()

    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d)
    def test_entry_matches_sample_dominance_probability(self, ds, q):
        tensor = ds.tensor
        center = ds.objects()[0]
        others = list(range(1, len(ds)))
        samples, probs, mask = tensor.rows(others)
        eq3 = kernels.eq3_dominance_tensor(
            center.samples, samples, probs, mask, q
        )
        objects = ds.objects()
        for j, i in enumerate(others):
            for s in range(center.num_samples):
                reference = sample_dominance_probability(
                    objects[i], center.samples[s], q
                )
                assert eq3[j, s].hex() == float(reference).hex()

    def test_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(3)
        ds = UncertainDataset(
            [
                UncertainObject(i, rng.uniform(0, 10, size=(4, 2)))
                for i in range(40)
            ]
        )
        tensor = ds.tensor
        center = ds.objects()[0]
        samples, probs, mask = tensor.rows(list(range(1, 40)))
        whole = kernels.eq3_dominance_tensor(
            center.samples, samples, probs, mask, [5.0, 5.0]
        )
        monkeypatch.setattr(kernels, "_EQ3_SCRATCH_ELEMENTS", 64)
        chunked = kernels.eq3_dominance_tensor(
            center.samples, samples, probs, mask, [5.0, 5.0]
        )
        np.testing.assert_array_equal(whole, chunked)


class TestEq2Parity:
    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d)
    def test_full_probability_bitwise_equal(self, ds, q):
        for oid in ds.ids():
            fast = reverse_skyline_probability(ds, oid, q)
            assert fast.hex() == reference.prsq_probability(ds, oid, q).hex()

    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d, data=st.data())
    def test_exclude_path_bitwise_equal(self, ds, q, data):
        oid = ds.ids()[0]
        removable = [o for o in ds.ids() if o != oid]
        excluded = data.draw(st.sets(st.sampled_from(removable)))
        fast = reverse_skyline_probability(ds, oid, q, exclude=excluded)
        slow = reference.prsq_probability(ds, oid, q, exclude=excluded)
        assert fast.hex() == slow.hex()

    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d, data=st.data())
    def test_keep_path_matches_probability_from_matrix(self, ds, q, data):
        center = ds.objects()[0]
        others = list(range(1, len(ds)))
        matrix = dominance_probability_matrix(
            center, (ds.objects()[i] for i in others), q
        )
        tensor = ds.tensor
        keep = sorted(data.draw(st.sets(st.sampled_from(others))))
        expected = probability_from_matrix(
            center, matrix, keep=[tensor.ids[i] for i in keep]
        )
        got = kernels.eq2_segmented(
            tensor.samples, tensor.probabilities, tensor.mask,
            [0], [0, len(keep)], keep, q,
        )
        assert float(got[0]).hex() == expected.hex()


class TestInfluenceMaskParity:
    @SLOW
    @given(ds=ragged_dataset_strategy(), q=point2d)
    def test_numpy_matches_python(self, ds, q):
        tensor = ds.tensor
        center = ds.objects()[0]
        others = list(range(1, len(ds)))
        samples, _, mask = tensor.rows(others)
        fast = kernels.influence_mask(center.samples, samples, mask, q)
        objects = ds.objects()
        assert fast.tolist() == [
            can_influence(objects[i], center, q) for i in others
        ]
        # Non-zero Eq. (3) vector <=> influencing (Lemma 1).
        eq3 = kernels.eq3_dominance_tensor(
            center.samples, samples, tensor.rows(others)[1], mask, q
        )
        np.testing.assert_array_equal(fast, eq3.any(axis=1))


class TestRelevantIndices:
    def test_sorted_and_excludes(self):
        rng = np.random.default_rng(11)
        ds = UncertainDataset(
            [
                UncertainObject(i, rng.uniform(0, 10, size=(2, 2)))
                for i in range(20)
            ]
        )
        q = [5.0, 5.0]
        indices = relevant_indices(ds, 3, q)
        assert indices == sorted(indices)
        assert 3 not in indices
        pruned = set(indices)
        full = set(np.delete(np.arange(len(ds)), 3).tolist())
        assert pruned <= full
        without = relevant_indices(ds, 3, q, exclude=[0, 7])
        assert pruned - {0, 7} == set(without)


class TestMonteCarloKernelParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_world_mask_matches_scalar_loop(self, seed):
        from repro.prsq.montecarlo import sample_reverse_skyline_probability
        from tests.conftest import make_uncertain_dataset

        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=8, dims=2)
        q = rng.uniform(0, 10, size=2)
        oid = ds.ids()[0]
        fast = sample_reverse_skyline_probability(
            ds, oid, q, worlds=400, seed=seed
        )
        slow = reference.monte_carlo_probability(
            ds, oid, q, worlds=400, seed=seed
        )
        assert fast.value == slow.value
        assert fast.worlds == slow.worlds
