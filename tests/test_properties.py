"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.cp import CPConfig, compute_causality
from repro.core.naive import brute_force_causality
from repro.geometry.dominance import (
    dominance_rectangle,
    dominates,
    dynamically_dominates,
)
from repro.geometry.rectangle import Rect
from repro.index.packed import PackedRTree, fanout_for_page
from repro.prsq.oracle import MembershipOracle
from repro.prsq.probability import reverse_skyline_probability
from repro.skyline.classic import skyline_indices
from repro.uncertain.dataset import UncertainDataset
from repro.uncertain.object import UncertainObject
from repro.uncertain.possible_worlds import (
    reverse_skyline_probability_bruteforce,
)

coordinate = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coordinate, coordinate)

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def uncertain_dataset_strategy(max_objects=5, max_samples=3):
    object_strategy = st.lists(point2d, min_size=1, max_size=max_samples)
    return st.lists(object_strategy, min_size=2, max_size=max_objects).map(
        lambda rows: UncertainDataset(
            [UncertainObject(i, np.array(samples)) for i, samples in enumerate(rows)]
        )
    )


class TestDominanceProperties:
    @given(a=point2d, b=point2d)
    def test_classic_antisymmetry(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(a=point2d, b=point2d, c=point2d)
    def test_classic_transitivity(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(p1=point2d, p2=point2d, center=point2d)
    def test_dynamic_antisymmetry(self, p1, p2, center):
        assert not (
            dynamically_dominates(p1, p2, center)
            and dynamically_dominates(p2, p1, center)
        )

    @given(p1=point2d, p2=point2d, p3=point2d, center=point2d)
    def test_dynamic_transitivity(self, p1, p2, p3, center):
        if dynamically_dominates(p1, p2, center) and dynamically_dominates(
            p2, p3, center
        ):
            assert dynamically_dominates(p1, p3, center)

    @given(p=point2d, s=point2d, q=point2d)
    def test_dominance_rectangle_complete(self, p, s, q):
        if dynamically_dominates(p, q, s):
            assert dominance_rectangle(s, q).contains_point(p)


class TestSkylineProperties:
    @given(
        st.lists(point2d, min_size=1, max_size=25).map(np.array)
    )
    def test_skyline_members_not_dominated(self, points):
        sky = skyline_indices(points)
        assert sky  # a non-empty set always has a skyline
        for i in sky:
            assert not any(
                dominates(points[j], points[i]) for j in range(len(points)) if j != i
            )

    @given(
        st.lists(point2d, min_size=1, max_size=25).map(np.array)
    )
    def test_non_members_dominated(self, points):
        sky = set(skyline_indices(points))
        for i in set(range(len(points))) - sky:
            assert any(dominates(points[j], points[i]) for j in range(len(points)))


def _point_index(points):
    """The index over degenerate point boxes at fanout 4 (page 160, d=2)."""
    matrix = np.array(points, dtype=float).reshape(-1, 2)
    return PackedRTree.build(matrix, matrix, page_size=160)


class TestRTreeProperties:
    @SLOW
    @given(
        st.lists(point2d, min_size=1, max_size=60),
        st.tuples(point2d, point2d),
    )
    def test_range_query_equals_linear_scan(self, points, window_corners):
        (x1, y1), (x2, y2) = window_corners
        window = Rect([min(x1, x2), min(y1, y2)], [max(x1, x2), max(y1, y2)])
        tree = _point_index(points)
        expected = sorted(
            i for i, p in enumerate(points) if window.contains_point(np.array(p))
        )
        assert sorted(tree.range_search(window).tolist()) == expected

    @SLOW
    @given(st.lists(point2d, min_size=1, max_size=60))
    def test_bulk_load_valid_structure(self, points):
        tree = _point_index(points)
        n, capacity = len(points), fanout_for_page(160, 2)
        assert capacity == 4
        # every input row is one leaf entry
        assert sorted(tree.rows.tolist()) == list(range(n))
        # children tile nodes 1.. in BFS order, leaf entries tile 0..n-1,
        # and every page holds 1..capacity children or entries
        internal = np.arange(tree.leaf_start)
        leaves = np.arange(tree.leaf_start, tree.node_count)
        assert tree.child_start[internal].tolist() == (
            1 + np.cumsum(tree.child_count[internal])
            - tree.child_count[internal]
        ).tolist()
        assert int(tree.child_count[internal].sum()) == tree.node_count - 1
        assert tree.entry_start[leaves].tolist() == (
            np.cumsum(tree.entry_count[leaves]) - tree.entry_count[leaves]
        ).tolist()
        assert int(tree.entry_count[leaves].sum()) == n
        fill = np.where(
            np.arange(tree.node_count) < tree.leaf_start,
            tree.child_count, tree.entry_count,
        )
        assert ((fill >= 1) & (fill <= capacity)).all()
        # leaves are one level: every child of the last internal level is
        # a leaf, and no leaf has children
        assert (tree.child_count[leaves] == 0).all()
        # each node's MBR covers its children's and its entries' boxes
        for node in internal.tolist():
            kids = slice(
                tree.child_start[node],
                tree.child_start[node] + tree.child_count[node],
            )
            assert (tree.node_lo[node] <= tree.node_lo[kids]).all()
            assert (tree.node_hi[kids] <= tree.node_hi[node]).all()
        for leaf in leaves.tolist():
            entries = slice(
                tree.entry_start[leaf],
                tree.entry_start[leaf] + tree.entry_count[leaf],
            )
            assert (tree.node_lo[leaf] <= tree.entry_lo[entries]).all()
            assert (tree.entry_hi[entries] <= tree.node_hi[leaf]).all()


class TestProbabilityProperties:
    @SLOW
    @given(uncertain_dataset_strategy(), point2d)
    def test_eq2_matches_possible_worlds(self, dataset, q):
        q = np.array(q)
        for obj in dataset:
            analytic = reverse_skyline_probability(dataset, obj.oid, q)
            brute = reverse_skyline_probability_bruteforce(dataset, obj.oid, q)
            assert analytic == pytest.approx(brute, abs=1e-9)

    @SLOW
    @given(uncertain_dataset_strategy(max_objects=5), point2d)
    def test_removal_monotone(self, dataset, q):
        q = np.array(q)
        target = dataset.ids()[0]
        oracle = MembershipOracle(dataset, target, q, alpha=0.5)
        others = [oid for oid in dataset.ids() if oid != target]
        previous = oracle.probability()
        removed = set()
        for oid in others:
            removed.add(oid)
            current = oracle.probability(frozenset(removed))
            assert current >= previous - 1e-12
            previous = current


class TestCausalityProperties:
    @SLOW
    @given(
        uncertain_dataset_strategy(max_objects=5, max_samples=2),
        point2d,
        st.sampled_from([0.4, 0.7, 1.0]),
    )
    def test_cp_equals_brute_force(self, dataset, q, alpha):
        q = np.array(q)
        target = dataset.ids()[0]
        pr = reverse_skyline_probability(dataset, target, q)
        assume(pr < alpha)
        cp = compute_causality(dataset, target, q, alpha)
        bf = brute_force_causality(dataset, target, q, alpha)
        assert cp.same_causality(bf)

    @SLOW
    @given(
        uncertain_dataset_strategy(max_objects=5, max_samples=2),
        point2d,
    )
    def test_responsibilities_in_unit_interval(self, dataset, q):
        q = np.array(q)
        target = dataset.ids()[0]
        pr = reverse_skyline_probability(dataset, target, q)
        assume(pr < 0.5)
        result = compute_causality(dataset, target, q, 0.5)
        for cause in result.causes.values():
            assert 0.0 < cause.responsibility <= 1.0
            assert target not in cause.contingency_set
            assert cause.oid not in cause.contingency_set

    @SLOW
    @given(
        uncertain_dataset_strategy(max_objects=5, max_samples=2),
        point2d,
    )
    def test_counterfactuals_have_responsibility_one(self, dataset, q):
        q = np.array(q)
        target = dataset.ids()[0]
        oracle = MembershipOracle(dataset, target, q, alpha=0.5)
        assume(oracle.is_non_answer())
        result = compute_causality(dataset, target, q, 0.5)
        for oid in result.cause_ids():
            if oracle.is_answer({oid}):
                assert result.responsibility(oid) == 1.0
