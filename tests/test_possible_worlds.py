"""Unit tests for possible-world semantics and their use as ground truth."""

import numpy as np
import pytest

from repro.prsq.probability import reverse_skyline_probability
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from repro.uncertain.possible_worlds import (
    is_reverse_skyline_in_world,
    iter_worlds,
    reverse_skyline_probability_bruteforce,
    world_count,
    world_points,
)
from tests import reference
from tests.conftest import make_uncertain_dataset


class TestWorldEnumeration:
    def test_world_count(self):
        ds = UncertainDataset(
            [
                UncertainObject("a", [[0, 0], [1, 1]]),
                UncertainObject("b", [[2, 2], [3, 3], [4, 4]]),
            ]
        )
        assert world_count(ds) == 6
        assert len(list(iter_worlds(ds))) == 6

    def test_world_probabilities_sum_to_one(self, tiny_uncertain):
        total = sum(prob for _w, prob in iter_worlds(tiny_uncertain))
        assert total == pytest.approx(1.0)

    def test_world_probability_is_product(self):
        ds = UncertainDataset(
            [
                UncertainObject("a", [[0, 0], [1, 1]], [0.3, 0.7]),
                UncertainObject("b", [[2, 2], [3, 3]], [0.6, 0.4]),
            ]
        )
        probs = {world: p for world, p in iter_worlds(ds)}
        assert probs[(0, 0)] == pytest.approx(0.18)
        assert probs[(1, 1)] == pytest.approx(0.28)

    def test_world_points_instantiation(self):
        ds = UncertainDataset(
            [
                UncertainObject("a", [[0, 0], [1, 1]]),
                UncertainObject("b", [[2, 2]]),
            ]
        )
        pts = world_points(ds, (1, 0))
        assert pts["a"].tolist() == [1.0, 1.0]
        assert pts["b"].tolist() == [2.0, 2.0]

    def test_enumeration_cap(self):
        objs = [
            UncertainObject(i, [[float(i), 0.0], [float(i), 1.0]])
            for i in range(25)
        ]
        ds = UncertainDataset(objs)
        with pytest.raises(ValueError):
            list(iter_worlds(ds))


class TestWorldMembership:
    def test_certain_world_reverse_skyline(self):
        # b sits between a and q: a's view of q is blocked by b.
        ds = UncertainDataset(
            [
                UncertainObject("a", [[0.0, 0.0]]),
                UncertainObject("b", [[1.0, 1.0]]),
            ]
        )
        q = [2.0, 2.0]
        assert not is_reverse_skyline_in_world(ds, (0, 0), "a", q)
        assert is_reverse_skyline_in_world(ds, (0, 0), "b", q)


class TestEquationTwoAgainstWorlds:
    """Eq. (2) (analytic) must equal exhaustive possible-world summation."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_datasets(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_uncertain_dataset(rng, n=5, dims=2, max_samples=3)
        q = rng.uniform(0, 10, size=2)
        for obj in ds:
            analytic = reverse_skyline_probability(ds, obj.oid, q)
            brute = reverse_skyline_probability_bruteforce(ds, obj.oid, q)
            assert analytic == pytest.approx(brute, abs=1e-12)

    def test_indexed_equals_unindexed(self, rng):
        ds = make_uncertain_dataset(rng, n=12, dims=2)
        q = rng.uniform(0, 10, size=2)
        for obj in ds:
            a = reverse_skyline_probability(ds, obj.oid, q)
            b = reference.prsq_probability(ds, obj.oid, q)
            assert a == pytest.approx(b, abs=1e-12)

    def test_unequal_sample_probabilities(self):
        ds = UncertainDataset(
            [
                UncertainObject("u", [[2.0, 2.0]]),
                UncertainObject("v", [[2.5, 2.5], [9.0, 9.0]], [0.9, 0.1]),
            ]
        )
        q = [3.0, 3.0]
        analytic = reverse_skyline_probability(ds, "u", q)
        brute = reverse_skyline_probability_bruteforce(ds, "u", q)
        assert analytic == pytest.approx(brute)
        # v dominates q w.r.t. u only from its first sample (p = 0.9).
        assert analytic == pytest.approx(0.1)
