"""Parity tests: vectorized engine kernels vs. scalar references.

Each kernel must be *bit-identical* to its scalar reference — identical
boolean masks and counts, not merely approximately equal sets.
"""

import numpy as np
import pytest

from repro.engine import kernels
from repro.geometry.dominance import dynamically_dominates
from repro.geometry.rectangle import Rect
from repro.skyline.reverse import (
    is_reverse_skyline,
    reverse_skyline,
    reverse_skyline_bruteforce,
)
from repro.skyline.skyband import is_reverse_k_skyband, reverse_k_skyband
from repro.uncertain.dataset import CertainDataset

from tests import reference


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_points(rng, n, d, scale=10.0):
    return rng.uniform(0.0, scale, size=(n, d))


class TestDominanceMask:
    @pytest.mark.parametrize("n,d", [(1, 2), (17, 2), (40, 3), (25, 4)])
    def test_numpy_matches_python(self, rng, n, d):
        for trial in range(5):
            points = random_points(rng, n, d)
            target = rng.uniform(0, 10, size=d)
            center = rng.uniform(0, 10, size=d)
            fast = kernels.dominance_mask(points, target, center)
            slow = [
                dynamically_dominates(point, target, center) for point in points
            ]
            assert fast.tolist() == slow

    def test_matches_scalar_predicate(self, rng):
        points = random_points(rng, 30, 2)
        target = np.array([5.0, 5.0])
        center = np.array([4.0, 6.0])
        mask = kernels.dominance_mask(points, target, center)
        for k in range(points.shape[0]):
            assert mask[k] == dynamically_dominates(points[k], target, center)

    def test_boundary_ties_identical(self):
        # Mirror points tie q's distance exactly: never dominating, and the
        # kernel must agree with the scalar predicate on the exact comparison.
        center = np.array([4.0, 4.0])
        target = np.array([5.0, 5.0])
        points = np.array([[3.0, 3.0], [3.0, 4.5], [5.0, 3.0], [4.0, 4.0]])
        fast = kernels.dominance_mask(points, target, center)
        assert fast.tolist() == [
            dynamically_dominates(point, target, center) for point in points
        ]
        assert fast.tolist() == [False, True, False, True]


class TestDominatorCounts:
    @pytest.mark.parametrize("n,d", [(2, 2), (50, 2), (200, 3)])
    def test_numpy_matches_python(self, rng, n, d):
        points = random_points(rng, n, d)
        q = rng.uniform(0, 10, size=d)
        fast = kernels.dominator_counts(points, q)
        np.testing.assert_array_equal(fast, reference.dominator_counts(points, q))

    def test_chunking_invariant(self, rng, monkeypatch):
        points = random_points(rng, 150, 2)
        q = rng.uniform(0, 10, size=2)
        whole = kernels.dominator_counts(points, q)
        # budgets of exactly 1 and 7 centers' (n, d) distance rows
        for centers in (1, 7):
            monkeypatch.setattr(
                kernels, "_COUNT_SCRATCH_ELEMENTS", centers * points.size
            )
            chunked = kernels.dominator_counts(points, q)
            np.testing.assert_array_equal(whole, chunked)

    def test_duplicate_points_dominate_each_other(self):
        points = np.array([[4.0, 4.0], [4.0, 4.0], [9.0, 9.0]])
        q = np.array([5.0, 5.0])
        counts = kernels.dominator_counts(points, q)
        # Each twin sits at distance zero from the other: both blocked.
        assert counts.tolist()[:2] == [1, 1]


class TestReverseSkylineParity:
    @pytest.mark.parametrize("n,d", [(30, 2), (120, 2), (60, 3)])
    def test_kernel_matches_index_path_and_bruteforce(self, rng, n, d):
        points = random_points(rng, n, d, scale=100.0)
        dataset = CertainDataset(points)
        q = rng.uniform(0, 100, size=d)
        members = reverse_skyline(dataset, q)
        assert members == reverse_skyline_bruteforce(dataset, q)
        # the per-object window query + confirm step agrees
        assert members == [
            oid for oid in dataset.ids() if is_reverse_skyline(dataset, oid, q)
        ]

    def test_python_fallback_identical(self, rng):
        points = random_points(rng, 40, 2)
        dataset = CertainDataset(points)
        q = rng.uniform(0, 10, size=2)
        counts = reference.dominator_counts(points, q)
        ids = dataset.ids()
        assert reverse_skyline(dataset, q) == [
            ids[i] for i in range(len(ids)) if counts[i] == 0
        ]


class TestKSkybandParity:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_kernel_matches_library(self, rng, k):
        points = random_points(rng, 80, 2, scale=100.0)
        dataset = CertainDataset(points)
        q = rng.uniform(0, 100, size=2)
        band = reverse_k_skyband(dataset, q, k)
        ids = dataset.ids()
        counts = reference.dominator_counts(points, q)
        assert band == [ids[i] for i in range(len(ids)) if counts[i] < k]
        assert band == [
            oid for oid in ids if is_reverse_k_skyband(dataset, oid, q, k)
        ]

    def test_k1_is_reverse_skyline(self, rng):
        points = random_points(rng, 50, 2)
        dataset = CertainDataset(points)
        q = rng.uniform(0, 10, size=2)
        assert reverse_k_skyband(dataset, q, 1) == reverse_skyline_bruteforce(
            dataset, q
        )

    def test_rejects_bad_k(self, rng):
        dataset = CertainDataset(random_points(rng, 5, 2))
        with pytest.raises(ValueError):
            reverse_k_skyband(dataset, [1.0, 1.0], 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid_ties_and_duplicates(self, rng, k):
        # integer coordinates: equal distances, twins and points at q
        points = rng.integers(0, 6, size=(60, 2)).astype(np.float64)
        dataset = CertainDataset(points)
        q = np.array([3.0, 2.0])
        band = reverse_k_skyband(dataset, q, k)
        ids = dataset.ids()
        counts = reference.dominator_counts(points, q)
        assert band == [ids[i] for i in range(len(ids)) if counts[i] < k]
        assert band == [
            oid for oid in ids if is_reverse_k_skyband(dataset, oid, q, k)
        ]


class TestWindowKernels:
    def test_points_in_any_window_parity(self, rng):
        points = random_points(rng, 100, 2)
        windows = [
            Rect(rng.uniform(0, 4, 2), rng.uniform(6, 10, 2)) for _ in range(5)
        ]
        fast = kernels.points_in_any_window(points, windows)
        for i in range(points.shape[0]):
            assert fast[i] == any(w.contains_point(points[i]) for w in windows)

    def test_empty_windows(self, rng):
        points = random_points(rng, 10, 2)
        assert not kernels.points_in_any_window(points, []).any()

    def test_window_chunking_invariant(self, rng, monkeypatch):
        """Chunking over windows must not change the containment mask.

        (The kernel once materialized one unchunked (n, m, d) broadcast; a
        center with many samples — many windows — could blow up scratch.)
        """
        points = random_points(rng, 60, 2)
        windows = [
            Rect(lo, lo + rng.uniform(0.5, 3.0, 2))
            for lo in rng.uniform(0, 8, size=(23, 2))
        ]
        whole = kernels.points_in_any_window(points, windows)
        monkeypatch.setattr(kernels, "_WINDOW_CHUNK", 4)
        chunked = kernels.points_in_any_window(points, windows)
        np.testing.assert_array_equal(whole, chunked)
