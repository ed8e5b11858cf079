"""Unit tests for reverse k-skyband queries and their causality."""

import numpy as np
import pytest

from repro.core.naive import brute_force_causality
from repro.exceptions import NotANonAnswerError
from repro.skyline.reverse import reverse_skyline
from repro.skyline.skyband import (
    compute_causality_k_skyband,
    dominators_of_query,
    is_reverse_k_skyband,
    reverse_k_skyband,
)
from repro.uncertain.dataset import CertainDataset
from tests import reference


@pytest.fixture
def band_dataset():
    """an has exactly three dominators toward q = (5, 5)."""
    return CertainDataset(
        [
            [4.0, 4.0],   # an
            [4.3, 4.3],
            [4.5, 4.2],
            [4.2, 4.6],
            [9.0, 0.5],   # unrelated
        ],
        ids=["an", "d1", "d2", "d3", "far"],
    )


class TestQueries:
    def test_k1_equals_reverse_skyline(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(25, 2)))
        q = rng.uniform(0, 10, size=2)
        assert reverse_k_skyband(ds, q, k=1) == reverse_skyline(ds, q)

    def test_membership_counts_dominators(self, band_dataset):
        q = [5.0, 5.0]
        assert dominators_of_query(band_dataset, "an", q) == ["d1", "d2", "d3"]
        assert not is_reverse_k_skyband(band_dataset, "an", q, k=3)
        assert is_reverse_k_skyband(band_dataset, "an", q, k=4)

    def test_band_grows_with_k(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(30, 2)))
        q = rng.uniform(0, 10, size=2)
        previous = set()
        for k in (1, 2, 3, 5):
            band = set(reverse_k_skyband(ds, q, k))
            assert previous <= band
            previous = band

    def test_indexed_dominators_match_scan(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(40, 2)))
        q = rng.uniform(0, 10, size=2)
        for oid in ds.ids()[:6]:
            assert dominators_of_query(ds, oid, q) == reference.dominators(
                ds, ds.point_of(oid), q, skip=[oid]
            )

    def test_dominators_match_scalar_scan_with_boundary_hits(self):
        # an = (4, 4), q = (5, 5): the window is [3, 5] x [3, 5].  Points
        # on its edges either dominate (one distance equal to q's, the
        # other smaller) or tie q exactly; a twin of an dominates too.
        points = [
            [4.0, 4.0],  # an
            [3.0, 4.5],  # edge, dominates
            [5.0, 4.0],  # edge, dominates
            [4.5, 5.0],  # edge, dominates
            [5.0, 3.0],  # corner, ties q
            [3.0, 5.0],  # corner, ties q
            [4.0, 4.0],  # twin of an, dominates
            [5.0, 5.0],  # at q, ties q
            [6.0, 4.0],  # outside the window
        ]
        ds = CertainDataset(points, ids=[f"p{i}" for i in range(len(points))])
        q = np.array([5.0, 5.0])
        for oid in ds.ids():
            assert dominators_of_query(ds, oid, q) == reference.dominators(
                ds, ds.point_of(oid), q, skip=[oid]
            )
        assert dominators_of_query(ds, "p0", q) == ["p1", "p2", "p3", "p6"]

    def test_invalid_k(self, band_dataset):
        with pytest.raises(ValueError):
            reverse_k_skyband(band_dataset, [5.0, 5.0], k=0)
        with pytest.raises(ValueError):
            is_reverse_k_skyband(band_dataset, "an", [5.0, 5.0], k=0)


class TestCausality:
    def test_closed_form(self, band_dataset):
        q = [5.0, 5.0]
        res = compute_causality_k_skyband(band_dataset, "an", q, k=2)
        # m = 3 dominators, k = 2 -> responsibility 1/(3-2+1) = 1/2.
        assert res.cause_ids() == ["d1", "d2", "d3"]
        for oid in res.cause_ids():
            assert res.responsibility(oid) == pytest.approx(0.5)
            assert len(res.causes[oid].contingency_set) == 1

    def test_k1_matches_cr(self, band_dataset):
        from repro.core.cr import compute_causality_certain

        q = [5.0, 5.0]
        a = compute_causality_k_skyband(band_dataset, "an", q, k=1)
        b = compute_causality_certain(band_dataset, "an", q)
        assert a.same_causality(b)

    def test_counterfactual_when_m_equals_k(self, band_dataset):
        q = [5.0, 5.0]
        res = compute_causality_k_skyband(band_dataset, "an", q, k=3)
        for cause in res.causes.values():
            assert cause.responsibility == 1.0
            assert not cause.contingency_set

    def test_member_rejected(self, band_dataset):
        with pytest.raises(NotANonAnswerError):
            compute_causality_k_skyband(band_dataset, "an", [5.0, 5.0], k=4)

    def test_witnesses_are_valid_contingency_sets(self, rng):
        """Direct Definition-1 check of the closed-form witnesses."""
        ds = CertainDataset(rng.uniform(0, 10, size=(14, 2)))
        q = rng.uniform(0, 10, size=2)
        for oid in ds.ids():
            dominators = dominators_of_query(ds, oid, q)
            for k in (1, 2):
                if len(dominators) < k:
                    continue
                res = compute_causality_k_skyband(ds, oid, q, k=k)
                for cause_id, cause in res.causes.items():
                    remaining = [
                        d
                        for d in dominators
                        if d not in cause.contingency_set and d != cause_id
                    ]
                    # (P - Γ) non-answer: still >= k dominators (incl. cause).
                    assert len(remaining) + 1 >= k
                    # (P - Γ - {cause}) answer: < k dominators left.
                    assert len(remaining) < k

    def test_k1_matches_brute_force(self, rng):
        ds = CertainDataset(rng.uniform(0, 10, size=(8, 2)))
        q = rng.uniform(0, 10, size=2)
        for oid in ds.ids():
            if dominators_of_query(ds, oid, q):
                res = compute_causality_k_skyband(ds, oid, q, k=1)
                bf = brute_force_causality(ds, oid, q, alpha=0.5)
                assert res.same_causality(bf)
                break
