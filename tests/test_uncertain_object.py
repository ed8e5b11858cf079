"""Unit tests for the uncertain object / dataset model."""

import numpy as np
import pytest

from repro.exceptions import EmptyDatasetError, InvalidProbabilityError
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject


class TestUncertainObject:
    def test_equal_probabilities_default(self):
        obj = UncertainObject("u", [[0, 0], [1, 1], [2, 2]])
        assert obj.probabilities.tolist() == pytest.approx([1 / 3] * 3)

    def test_explicit_probabilities(self):
        obj = UncertainObject("u", [[0, 0], [1, 1]], [0.25, 0.75])
        assert obj.probabilities.tolist() == [0.25, 0.75]

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidProbabilityError):
            UncertainObject("u", [[0, 0], [1, 1]], [0.5, 0.6])

    def test_zero_probability_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            UncertainObject("u", [[0, 0], [1, 1]], [0.0, 1.0])

    def test_count_mismatch_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            UncertainObject("u", [[0, 0], [1, 1]], [1.0])

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            UncertainObject("u", np.empty((0, 2)))

    def test_certain_constructor(self):
        obj = UncertainObject.certain("c", [3.0, 4.0])
        assert obj.is_certain
        assert obj.num_samples == 1
        assert obj.probabilities.tolist() == [1.0]

    def test_mbr_bounds_samples(self):
        obj = UncertainObject("u", [[0, 5], [2, 1]])
        assert obj.mbr.lo.tolist() == [0.0, 1.0]
        assert obj.mbr.hi.tolist() == [2.0, 5.0]

    def test_expected_position(self):
        obj = UncertainObject("u", [[0.0, 0.0], [4.0, 8.0]], [0.75, 0.25])
        assert obj.expected_position().tolist() == [1.0, 2.0]

    def test_samples_immutable(self):
        obj = UncertainObject("u", [[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            obj.samples[0, 0] = 9.0

    def test_equality_by_content(self):
        a = UncertainObject("u", [[0, 0]])
        b = UncertainObject("u", [[0, 0]])
        c = UncertainObject("u", [[1, 0]])
        assert a == b
        assert a != c

    def test_repr_includes_name(self):
        obj = UncertainObject("u", [[0, 0]], name="Larry Bird")
        assert "Larry Bird" in repr(obj)


class TestUncertainDataset:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            UncertainDataset([])

    def test_duplicate_ids_rejected(self):
        objs = [UncertainObject("x", [[0, 0]]), UncertainObject("x", [[1, 1]])]
        with pytest.raises(ValueError):
            UncertainDataset(objs)

    def test_dim_mismatch_rejected(self):
        objs = [UncertainObject("x", [[0, 0]]), UncertainObject("y", [[1, 1, 1]])]
        with pytest.raises(ValueError):
            UncertainDataset(objs)

    def test_lookup_and_contains(self, tiny_uncertain):
        oid = tiny_uncertain.ids()[0]
        assert oid in tiny_uncertain
        assert tiny_uncertain.get(oid).oid == oid
        assert "nope" not in tiny_uncertain

    def test_others_excludes_target(self, tiny_uncertain):
        oid = tiny_uncertain.ids()[2]
        others = tiny_uncertain.others(oid)
        assert len(others) == len(tiny_uncertain) - 1
        assert all(obj.oid != oid for obj in others)

    def test_without(self, tiny_uncertain):
        removed = set(tiny_uncertain.ids()[:2])
        reduced = tiny_uncertain.without(removed)
        assert len(reduced) == len(tiny_uncertain) - 2
        assert not removed & set(reduced.ids())

    def test_rtree_lazily_built_and_complete(self, tiny_uncertain):
        assert tiny_uncertain._packed is None
        tree = tiny_uncertain.packed
        assert sorted(tree.rows.tolist()) == list(range(len(tiny_uncertain)))
        assert tiny_uncertain.packed is tree  # cached

    def test_max_samples(self):
        ds = UncertainDataset(
            [
                UncertainObject("a", [[0, 0]]),
                UncertainObject("b", [[0, 0], [1, 1], [2, 2]]),
            ]
        )
        assert ds.max_samples() == 3


class TestCertainDataset:
    def test_points_become_single_sample_objects(self):
        ds = CertainDataset([[1.0, 2.0], [3.0, 4.0]])
        assert all(obj.is_certain for obj in ds)

    def test_default_ids_are_positional(self):
        ds = CertainDataset([[1.0, 2.0], [3.0, 4.0]])
        assert ds.ids() == [0, 1]

    def test_custom_ids(self):
        ds = CertainDataset([[1.0, 2.0]], ids=["car"])
        assert ds.point_of("car").tolist() == [1.0, 2.0]

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CertainDataset([[1.0, 2.0]], ids=["a", "b"])

    def test_names_attached(self):
        ds = CertainDataset([[1.0, 2.0]], ids=["x"], names=["Car X"])
        assert ds.get("x").name == "Car X"
