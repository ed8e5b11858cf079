"""The Lemma-4 pre-pass of the batched PRSQ probability map.

``prsq_probability_map`` marks an object ``+0.0`` without filtering or
evaluating it when each of its real samples has a certain dominator: an
eligible object (probabilities summing to exactly ``1.0`` in slot order)
whose whole box dominates ``q`` w.r.t. that sample.  Every case compares
the map's int64 bits with a per-object ``reverse_skyline_probability``
loop and with the scalar reference, which never prune, and checks that
the pre-pass resolved (or left alone) the objects the case is about.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernels import certainly_dominated
from repro.engine.session import Session
from repro.engine.spec import PRSQSpec
from repro.prsq.probability import reverse_skyline_probability
from repro.prsq.query import prsq_probability_map
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject

from tests import reference
from tests.conftest import make_uncertain_dataset

#: Ordered sums: 0.33 + 0.56 + 0.11 is 1.0000000000000002, ten 0.1s are
#: 0.9999999999999999; neither object is eligible as a certain dominator.
OVER_ONE = [0.33, 0.56, 0.11]
UNDER_ONE = [0.1] * 10


def _bits(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.float64).view(np.int64)


def _resolved(dataset, q) -> list:
    """Ids the pre-pass proves ``+0.0`` (every real sample blocked)."""
    tensor = dataset.tensor
    lo, hi, sums_to_one = tensor.boxes()
    owners, slots = np.nonzero(tensor.mask)
    blocked = np.ones(tensor.mask.shape, dtype=bool)
    blocked[owners, slots] = certainly_dominated(
        lo, hi, sums_to_one, tensor.samples[owners, slots], owners, q
    )
    return [tensor.ids[i] for i in np.flatnonzero(blocked.all(axis=1))]


def assert_parity(dataset, q):
    """The map's bits equal the per-object loop's and the reference's."""
    mapped = prsq_probability_map(dataset, q)
    ids = dataset.ids()
    assert list(mapped) == ids
    got = _bits(value for _oid, value in mapped.items())
    looped = _bits(reverse_skyline_probability(dataset, oid, q) for oid in ids)
    scalar = _bits(reference.prsq_probability(dataset, oid, q) for oid in ids)
    np.testing.assert_array_equal(got, looped)
    np.testing.assert_array_equal(got, scalar)
    return dict(mapped.items())


def _dataset(*objects) -> UncertainDataset:
    return UncertainDataset([UncertainObject(*spec) for spec in objects])


class TestBoundaries:
    def test_candidate_on_box_boundary_in_one_dimension(self):
        # w.r.t. u's sample (4, 4) with q at the origin, v reaches exactly
        # 8 = 4 + |0 - 4| in x (a tie) and stays strictly inside in y
        dataset = _dataset(
            ("u", [[4.0, 4.0]]),
            ("v", [[6.0, 2.0], [8.0, 3.0]]),
            ("far", [[50.0, 50.0]]),
        )
        assert "u" in _resolved(dataset, (0.0, 0.0))
        probabilities = assert_parity(dataset, (0.0, 0.0))
        assert _bits([probabilities["u"]]) == _bits([0.0])

    def test_candidate_on_box_boundary_in_every_dimension(self):
        # (8, 8) ties q's distance in both dimensions: it does not
        # dominate, so v's box passes nowhere strictly and u stays open
        dataset = _dataset(
            ("u", [[4.0, 4.0]]),
            ("v", [[6.0, 6.0], [8.0, 8.0]]),
            ("far", [[50.0, 50.0]]),
        )
        assert "u" not in _resolved(dataset, (0.0, 0.0))
        probabilities = assert_parity(dataset, (0.0, 0.0))
        assert probabilities["u"] == 0.5

    def test_q_equal_to_a_sample_coordinate(self):
        # u's first sample shares q's x: its reach is 0 there, so no box
        # can be strictly closer and the pre-pass must leave u open
        dataset = _dataset(
            ("u", [[5.0, 9.0], [7.0, 9.0]]),
            ("v", [[6.0, 6.0]]),
            ("w", [[5.0, 1.0]]),
            ("x", [[9.0, 5.0], [8.0, 7.0]]),
        )
        q = (5.0, 5.0)
        assert "u" not in _resolved(dataset, q)
        assert_parity(dataset, q)

    def test_q_outside_the_bounding_box(self, rng):
        dataset = make_uncertain_dataset(rng, 40, max_samples=4)
        q = (-5.0, 20.0)
        assert _resolved(dataset, q)
        assert_parity(dataset, q)


class TestBlockers:
    def test_twin_as_the_only_blocker(self):
        # each twin blocks the other; a lone object never blocks itself
        dataset = _dataset(
            ("u", [[4.0, 4.0], [4.5, 3.5]]),
            ("twin", [[4.0, 4.0], [4.5, 3.5]]),
            ("lone", [[-4.0, 4.0]]),
            ("far", [[60.0, -60.0]]),
        )
        q = (0.0, 0.0)
        resolved = _resolved(dataset, q)
        assert {"u", "twin"} <= set(resolved) and "lone" not in resolved
        probabilities = assert_parity(dataset, q)
        assert probabilities["lone"] == 1.0

    def test_blocker_beside_a_negative_factor(self):
        # w sums to 1.0000000000000002 and dominates wholly: its factor
        # is -2.2e-16; v's is +0.0, so u's product is a signed zero and
        # Eq. (2)'s +0.0 total absorbs it
        dataset = _dataset(
            ("u", [[4.0, 4.0]]),
            ("w", [[2.0, 2.0], [2.5, 2.0], [2.0, 2.5]], OVER_ONE),
            ("v", [[3.0, 3.0]]),
            ("neg", [[-4.5, -4.5]]),
            ("w2", [[-2.0, -2.0], [-2.5, -2.0], [-2.0, -2.5]], OVER_ONE),
        )
        q = (0.0, 0.0)
        assert "u" in _resolved(dataset, q)
        probabilities = assert_parity(dataset, q)
        assert _bits([probabilities["u"]]) == _bits([0.0])
        # "neg" has only the ineligible w2 over it: Pr is negative
        assert probabilities["neg"] < 0.0

    def test_nothing_eligible(self, rng):
        objects = [
            UncertainObject(i, rng.uniform(0.0, 10.0, size=(10, 2)), UNDER_ONE)
            for i in range(12)
        ]
        dataset = UncertainDataset(objects)
        q = (5.0, 5.0)
        assert not dataset.tensor.boxes()[2].any()
        assert _resolved(dataset, q) == []
        assert_parity(dataset, q)

    def test_two_objects(self):
        dataset = _dataset(("a", [[1.0, 1.0]]), ("b", [[2.0, 2.0]]))
        assert _resolved(dataset, (0.0, 0.0)) == ["b"]
        assert assert_parity(dataset, (0.0, 0.0)) == {"a": 1.0, "b": 0.0}


class TestRandomData:
    @pytest.mark.parametrize("seed", range(4))
    def test_three_dimensions(self, seed):
        rng = np.random.default_rng(seed)
        dataset = make_uncertain_dataset(rng, 60, dims=3, max_samples=4)
        q = rng.uniform(3.0, 7.0, size=3)
        assert _resolved(dataset, q)
        assert_parity(dataset, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_dimensions(self, seed):
        rng = np.random.default_rng(100 + seed)
        dataset = make_uncertain_dataset(rng, 80, max_samples=4)
        q = rng.uniform(2.0, 8.0, size=2)
        assert_parity(dataset, q)


class TestLiveUpdates:
    def test_apply_moves_the_blocker(self):
        # the regression for stale boxes: every version's map must use
        # that version's boxes, never a box from an earlier tensor
        session = Session(
            _dataset(
                ("u", [[4.0, 4.0]]),
                ("v", [[3.0, 3.0]]),
                ("far", [[50.0, 50.0]]),
            )
        )
        q = (0.0, 0.0)

        def pr_u():
            value = session.query(
                PRSQSpec(q=q, alpha=0.5, want="probabilities")
            ).value.probabilities["u"]
            fresh = UncertainDataset(list(session.dataset.objects()))
            assert _bits([value]) == _bits(
                [reference.prsq_probability(fresh, "u", q)]
            )
            assert_parity(session.dataset, q)
            return value

        assert pr_u() == 0.0
        session.apply(
            DatasetDelta(updates=(UncertainObject("v", [[9.0, 9.0]]),))
        )
        assert pr_u() == 1.0
        session.apply(
            DatasetDelta(inserts=(UncertainObject("new", [[1.0, 2.0]]),))
        )
        assert pr_u() == 0.0
        session.apply(DatasetDelta(deletes=("new",)))
        assert pr_u() == 1.0
