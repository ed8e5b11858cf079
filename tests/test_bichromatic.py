"""Unit tests for bichromatic reverse skyline queries and their causality."""

import numpy as np
import pytest

from repro.exceptions import NotANonAnswerError
from repro.geometry.dominance import dynamically_dominates
from repro.skyline.bichromatic import (
    bichromatic_reverse_skyline,
    compute_causality_bichromatic,
    product_dominators,
)
from repro.skyline.reverse import reverse_skyline
from repro.uncertain.dataset import CertainDataset
from tests import reference


@pytest.fixture
def customers():
    return CertainDataset(
        [[4.0, 4.0], [6.5, 6.5], [1.0, 9.0]], ids=["cheap", "mid", "odd"]
    )


@pytest.fixture
def products():
    return CertainDataset(
        [[4.3, 4.3], [4.5, 4.1], [9.5, 9.5]], ids=["p1", "p2", "p3"]
    )


class TestQuery:
    def test_dominators_identified(self, customers, products):
        q = [5.0, 5.0]
        assert product_dominators(customers, products, "cheap", q) == ["p1", "p2"]
        assert product_dominators(customers, products, "odd", q) == []

    def test_membership(self, customers, products):
        q = [5.0, 5.0]
        members = bichromatic_reverse_skyline(customers, products, q)
        assert "cheap" not in members
        assert "odd" in members

    def test_dims_mismatch_rejected(self, customers):
        products_3d = CertainDataset([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            product_dominators(customers, products_3d, "cheap", [5.0, 5.0])

    def test_colocated_product_dominates_unless_at_q(self):
        # a product at the customer's own point is at distance 0 from it:
        # it dominates q unless q is that very point (then it ties)
        customers = CertainDataset([[4.0, 4.0]], ids=["c"])
        products = CertainDataset(
            [[4.0, 4.0], [9.0, 9.0]], ids=["same", "far"]
        )
        for q, expected in (([5.0, 5.0], ["same"]), ([4.0, 4.0], [])):
            assert product_dominators(customers, products, "c", q) == expected
            assert reference.dominators(products, [4.0, 4.0], q) == expected

    def test_index_matches_scan(self, rng):
        customers = CertainDataset(rng.uniform(0, 10, size=(10, 2)))
        products = CertainDataset(rng.uniform(0, 10, size=(30, 2)))
        q = rng.uniform(0, 10, size=2)
        for oid in customers.ids():
            assert product_dominators(
                customers, products, oid, q
            ) == reference.dominators(products, customers.point_of(oid), q)

    def test_reduces_to_monochromatic_when_products_equal_dataset(self, rng):
        """With A = B (minus self-domination pathologies), the bichromatic
        query agrees with the monochromatic one on distinct points."""
        points = rng.uniform(0, 10, size=(15, 2))
        ds = CertainDataset(points)
        q = rng.uniform(0, 10, size=2)
        mono = set(reverse_skyline(ds, q))
        for oid in ds.ids():
            dominators = [
                other.oid
                for other in ds
                if other.oid != oid
                and dynamically_dominates(
                    other.samples[0], np.asarray(q), ds.point_of(oid)
                )
            ]
            assert (oid in mono) == (not dominators)


class TestCausality:
    def test_equal_responsibility(self, customers, products):
        res = compute_causality_bichromatic(
            customers, products, "cheap", [5.0, 5.0]
        )
        assert res.cause_ids() == ["p1", "p2"]
        for oid in res.cause_ids():
            assert res.responsibility(oid) == pytest.approx(0.5)

    def test_counterfactual_single_product(self, customers):
        products = CertainDataset([[4.3, 4.3]], ids=["only"])
        res = compute_causality_bichromatic(
            customers, products, "cheap", [5.0, 5.0]
        )
        assert res.responsibility("only") == 1.0

    def test_member_rejected(self, customers, products):
        with pytest.raises(NotANonAnswerError):
            compute_causality_bichromatic(customers, products, "odd", [5.0, 5.0])

    def test_witnesses_valid(self, rng):
        # Distinct id namespaces: causes (products) must never collide with
        # the non-answer (a customer).
        customers = CertainDataset(
            rng.uniform(0, 10, size=(8, 2)), ids=[f"cust-{i}" for i in range(8)]
        )
        products = CertainDataset(
            rng.uniform(0, 10, size=(20, 2)), ids=[f"prod-{i}" for i in range(20)]
        )
        q = rng.uniform(0, 10, size=2)
        for oid in customers.ids():
            dominators = product_dominators(customers, products, oid, q)
            if not dominators:
                continue
            res = compute_causality_bichromatic(customers, products, oid, q)
            assert set(res.cause_ids()) == set(dominators)
            for cause in res.causes.values():
                # Removing Γ leaves exactly the cause -> still a non-answer;
                # removing the cause too flips membership.
                assert cause.contingency_set == frozenset(
                    d for d in dominators if d != cause.oid
                )

    def test_stats(self, customers, products):
        res = compute_causality_bichromatic(
            customers, products, "cheap", [5.0, 5.0]
        )
        assert res.stats.node_accesses > 0
        assert res.stats.candidates == 2
        assert res.cause_ids() == reference.dominators(
            products, customers.point_of("cheap"), [5.0, 5.0]
        )
