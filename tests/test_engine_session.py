"""Session behaviour: correctness vs. direct calls, caching, invalidation."""

import numpy as np
import pytest

from repro.core.cp import compute_causality, compute_causality_pdf
from repro.core.cr import compute_causality_certain
from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine import (
    CausalityCertainSpec,
    CausalitySpec,
    DatasetDelta,
    KSkybandCausalitySpec,
    LRUCache,
    PdfCausalitySpec,
    PRSQSpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    Session,
    dataset_fingerprint,
    spec_from_dict,
    spec_to_dict,
)
from repro.prsq.query import (
    probabilistic_reverse_skyline,
    prsq_non_answers,
    prsq_probabilities,
)
from repro.rtopk.query import WeightSet, reverse_top_k
from repro.skyline.reverse import reverse_skyline_bruteforce
from repro.skyline.skyband import (
    compute_causality_k_skyband,
    is_reverse_k_skyband,
)
from repro.uncertain.dataset import CertainDataset, UncertainDataset
from repro.uncertain.object import UncertainObject
from repro.uncertain.pdf import UniformBoxObject
from repro.geometry.rectangle import Rect

from tests import reference
from tests.conftest import make_uncertain_dataset

Q = (5000.0, 5000.0)
ALPHA = 0.5


@pytest.fixture(scope="module")
def uncertain_ds():
    return generate_uncertain_dataset(70, 2, seed=42)


@pytest.fixture(scope="module")
def certain_ds():
    return generate_certain_dataset(150, 2, seed=42)


class TestUncertainQueries:
    def test_prsq_matches_direct(self, uncertain_ds):
        session = Session(uncertain_ds)
        answers = session.query(PRSQSpec(q=Q, alpha=ALPHA)).to_raw()
        assert answers == probabilistic_reverse_skyline(uncertain_ds, Q, ALPHA)
        nas = session.query(PRSQSpec(q=Q, alpha=ALPHA, want="non_answers"))
        assert nas.to_raw() == prsq_non_answers(uncertain_ds, Q, ALPHA)
        probs = session.query(PRSQSpec(q=Q, alpha=ALPHA, want="probabilities"))
        assert probs.to_raw() == prsq_probabilities(uncertain_ds, Q)

    def test_causality_matches_direct(self, uncertain_ds):
        session = Session(uncertain_ds)
        an = session.query(PRSQSpec(q=Q, alpha=ALPHA, want="non_answers")).to_raw()[0]
        engine_result = session.query(
            CausalitySpec(an=an, q=Q, alpha=ALPHA)
        ).to_raw()
        direct = compute_causality(uncertain_ds, an, Q, ALPHA)
        assert engine_result.same_causality(direct)

    def test_certain_spec_rejected_on_uncertain_session(self, uncertain_ds):
        session = Session(uncertain_ds)
        with pytest.raises(TypeError):
            session.query(ReverseSkylineSpec(q=Q))


class TestCertainQueries:
    @staticmethod
    def _query_without_index(session, spec):
        stats = session.dataset.access_stats
        before = stats.node_accesses
        value = session.query(spec).to_raw()
        assert stats.node_accesses == before  # the count kernel reads no index
        return value

    def test_reverse_skyline_both_kernel_paths(self, certain_ds):
        expected = reverse_skyline_bruteforce(certain_ds, Q)
        session = Session(certain_ds)
        spec = ReverseSkylineSpec(q=Q)
        assert self._query_without_index(session, spec) == expected

    def test_k_skyband_both_kernel_paths(self, certain_ds):
        counts = reference.dominator_counts(certain_ds.points, Q)
        ids = certain_ds.ids()
        session = Session(certain_ds)
        for k in (1, 2, 3):
            expected = [ids[i] for i in range(len(ids)) if counts[i] < k]
            assert expected == [
                oid for oid in ids if is_reverse_k_skyband(certain_ds, oid, Q, k)
            ]
            spec = ReverseKSkybandSpec(q=Q, k=k)
            assert self._query_without_index(session, spec) == expected

    def test_cr_causality_matches_direct(self, certain_ds):
        session = Session(certain_ds)
        skyline = set(session.query(ReverseSkylineSpec(q=Q)).to_raw())
        an = next(oid for oid in certain_ds.ids() if oid not in skyline)
        engine_result = session.query(CausalityCertainSpec(an=an, q=Q)).to_raw()
        assert engine_result.same_causality(
            compute_causality_certain(certain_ds, an, Q)
        )
        skyband_result = session.query(
            KSkybandCausalitySpec(an=an, q=Q, k=1)
        ).to_raw()
        assert skyband_result.same_causality(
            compute_causality_k_skyband(certain_ds, an, Q, 1)
        )

    def test_reverse_top_k_matches_direct(self, certain_ds):
        weights = ((1.0, 0.3), (0.2, 1.0))
        session = Session(certain_ds)
        value = session.query(
            ReverseTopKSpec(q=(800.0, 900.0), k=5, weights=weights)
        ).to_raw()
        users = WeightSet([list(w) for w in weights])
        assert value == reverse_top_k(certain_ds, users, (800.0, 900.0), 5)


class TestPdfSession:
    def _objects(self):
        return [
            UniformBoxObject("a", Rect([4.0, 4.0], [4.6, 4.6])),
            UniformBoxObject("b", Rect([4.2, 4.2], [4.9, 4.9])),
            UniformBoxObject("c", Rect([6.0, 1.0], [7.0, 2.0])),
        ]

    def test_matches_compute_causality_pdf(self):
        q, alpha = (5.0, 5.0), 0.5
        session = Session.from_pdf_objects(
            self._objects(), samples_per_object=32, seed=0
        )
        direct, _dataset = compute_causality_pdf(
            self._objects(),
            "a",
            q,
            alpha,
            samples_per_object=32,
            rng=np.random.default_rng(0),
        )
        engine_result = session.query(
            PdfCausalitySpec(an="a", q=q, alpha=alpha)
        ).to_raw()
        assert engine_result.same_causality(direct)

    def test_pdf_spec_requires_pdf_session(self):
        session = Session(generate_uncertain_dataset(10, 2, seed=1))
        with pytest.raises(TypeError):
            session.query(PdfCausalitySpec(an="a", q=(5.0, 5.0), alpha=0.5))

    def test_unknown_pdf_object(self):
        session = Session.from_pdf_objects(self._objects())
        with pytest.raises(KeyError):
            session.query(PdfCausalitySpec(an="zzz", q=(5.0, 5.0), alpha=0.5))


class TestCaching:
    def test_hit_miss_accounting(self, uncertain_ds):
        session = Session(uncertain_ds)
        spec = PRSQSpec(q=Q, alpha=ALPHA)
        first = session.query(spec)
        second = session.query(spec)
        assert not first.run.cached and second.run.cached
        assert first.to_raw() == second.to_raw()
        stats = session.cache_stats()
        # Outer result + inner probability map on the miss; one outer hit.
        assert stats["misses"] == 2
        assert stats["hits"] == 1

    def test_probability_map_shared_across_alphas(self, uncertain_ds):
        session = Session(uncertain_ds)
        session.query(PRSQSpec(q=Q, alpha=0.4))
        before = session.cache_stats()["hits"]
        session.query(PRSQSpec(q=Q, alpha=0.8))
        after = session.cache_stats()
        # Different alpha: outer result misses but the alpha-independent
        # probability map hits.
        assert after["hits"] == before + 1

    def test_no_cache_session(self, uncertain_ds):
        for session in (
            Session(uncertain_ds, cache=None),
            Session(uncertain_ds, cache_size=0),  # same convention as the CLI
        ):
            spec = PRSQSpec(q=Q, alpha=ALPHA)
            assert not session.query(spec).run.cached
            assert not session.query(spec).run.cached
            assert session.cache_stats()["hits"] == 0

    def test_fingerprint_is_lazy(self):
        dataset = generate_uncertain_dataset(20, 2, seed=7)
        session = Session(dataset, build_index=False)
        assert dataset._content_digest is None  # not hashed until needed
        first = session.fingerprint
        assert dataset._content_digest == first == session.fingerprint

    def test_fingerprint_tracks_direct_dataset_mutation(self):
        # The dataset's mutation API is public: a session must never keep
        # serving results under the pre-mutation fingerprint, even when
        # the mutation bypassed Session.apply.
        dataset = generate_uncertain_dataset(12, 2, seed=9)
        session = Session(dataset)
        spec = PRSQSpec(q=Q, alpha=ALPHA, want="probabilities")
        session.query(spec)
        victim = dataset.ids()[0]
        dataset.delete_object(victim)
        outcome = session.query(spec)
        assert not outcome.run.cached
        assert victim not in outcome.value.probabilities

    def test_caller_mutation_cannot_poison_cache(self, uncertain_ds):
        session = Session(uncertain_ds)
        spec = PRSQSpec(q=Q, alpha=ALPHA)
        first = session.query(spec).to_raw()
        first.clear()
        assert session.query(spec).to_raw()  # still the cached answer set
        probs = session.prsq_probabilities(Q)
        probs.clear()
        assert session.prsq_probabilities(Q)

    def test_mismatch_error_is_repro_and_type_error(self, uncertain_ds):
        from repro.exceptions import ReproError, SpecMismatchError

        session = Session(uncertain_ds)
        with pytest.raises(SpecMismatchError) as excinfo:
            session.query(ReverseSkylineSpec(q=Q))
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, TypeError)

    def test_lru_eviction(self, uncertain_ds):
        session = Session(uncertain_ds, cache=LRUCache(maxsize=2))
        for i in range(4):
            session.query(PRSQSpec(q=(4000.0 + i, 5000.0), alpha=ALPHA))
        assert session.cache_stats()["evictions"] > 0
        assert len(session.cache) <= 2


class TestFingerprintInvalidation:
    def _tiny(self, shift=0.0):
        return UncertainDataset(
            [
                UncertainObject("u1", [[4.0 + shift, 4.0], [4.2, 4.1]]),
                UncertainObject("u2", [[4.5, 4.5]]),
                UncertainObject("u3", [[9.0, 1.0]]),
            ]
        )

    def test_fingerprint_sensitive_to_content(self):
        base = dataset_fingerprint(self._tiny())
        assert base == dataset_fingerprint(self._tiny())
        assert base != dataset_fingerprint(self._tiny(shift=1e-9))

    def test_fingerprint_field_boundaries_unambiguous(self):
        # Length-prefixed hashing: shifting bytes between adjacent fields
        # (name vs samples, sample count vs values) must change the hash.
        a = UncertainDataset([UncertainObject("u", [[1.0, 2.0]], name="ab")])
        b = UncertainDataset([UncertainObject("ua", [[1.0, 2.0]], name="b")])
        assert dataset_fingerprint(a) != dataset_fingerprint(b)
        one_of_two = UncertainDataset(
            [UncertainObject("u", [[1.0, 2.0], [1.0, 2.0]], [0.5, 0.5])]
        )
        assert dataset_fingerprint(a) != dataset_fingerprint(one_of_two)

    def test_shared_cache_across_sessions(self):
        cache = LRUCache(maxsize=64)
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5)
        first = Session(self._tiny(), cache=cache)
        first.query(spec)
        hits_after_first = cache.stats.hits

        # Same contents, new session object: the fingerprint matches, so the
        # shared cache serves the result.
        twin = Session(self._tiny(), cache=cache)
        assert twin.query(spec).run.cached
        assert cache.stats.hits == hits_after_first + 1

        # Modified contents: same spec must MISS — never a stale answer.
        changed = Session(self._tiny(shift=2.0), cache=cache)
        outcome = changed.query(spec)
        assert not outcome.run.cached

    def test_replace_dataset_invalidates(self):
        session = Session(self._tiny())
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        before = session.query(spec).to_raw()
        session.replace_dataset(self._tiny(shift=2.0))
        outcome = session.query(spec)
        assert not outcome.run.cached
        assert outcome.to_raw() != before


class TestSnapshotIsolation:
    def test_read_snapshot_isolated_from_writer(self, rng):
        session = Session(make_uncertain_dataset(rng, 20))
        spec = PRSQSpec(q=(5.0, 5.0), alpha=0.5, want="probabilities")
        snapshot = session.read_snapshot()
        before = snapshot.reader().query(spec).value.probabilities
        session.apply(
            DatasetDelta.insertion(UncertainObject("z", [[5.0, 5.1]]))
        )
        after = snapshot.reader().query(spec).value.probabilities
        assert {k: v.hex() for k, v in before.items()} == {
            k: v.hex() for k, v in after.items()
        }
        assert "z" in session.query(spec).value.probabilities


class TestSpecLayer:
    def test_roundtrip_all_kinds(self):
        specs = [
            PRSQSpec(q=Q, alpha=0.6, want="probabilities"),
            CausalitySpec(an="17", q=Q, alpha=0.4),
            CausalitySpec(an=("composite", 1), q=Q, alpha=0.4),
            PdfCausalitySpec(an="a", q=Q, alpha=0.3),
            CausalityCertainSpec(an="an-1", q=Q),
            KSkybandCausalitySpec(an="an-1", q=Q, k=2),
            ReverseSkylineSpec(q=Q),
            ReverseKSkybandSpec(q=Q, k=3),
            ReverseTopKSpec(
                q=Q, k=2, weights=((1.0, 2.0),), user_ids=("u0",)
            ),
        ]
        for spec in specs:
            assert spec_from_dict(spec_to_dict(spec)) == spec
            assert hash(spec.cache_key()) == hash(spec.cache_key())

    def test_unhashable_fields_rejected(self):
        # JSON happily supplies lists; cache keys need hashable values.
        with pytest.raises(ValueError, match="hashable"):
            CausalitySpec(an=[1, 2], q=Q, alpha=0.5)
        with pytest.raises(ValueError, match="hashable"):
            spec_from_dict(
                {"kind": "causality_certain", "an": {"id": 3}, "q": [1, 2]}
            )
        with pytest.raises(ValueError, match="hashable"):
            ReverseTopKSpec(
                q=Q, k=1, weights=((1.0, 1.0),), user_ids=([1],)
            )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PRSQSpec(q=Q, alpha=0.0)
        with pytest.raises(ValueError):
            PRSQSpec(q=Q, want="everything")
        with pytest.raises(ValueError):
            ReverseKSkybandSpec(q=Q, k=0)
        # Malformed JSON payload shapes must raise ValueError, not TypeError.
        with pytest.raises(ValueError, match="sequence of numbers"):
            PRSQSpec(q=5000)
        with pytest.raises(ValueError, match="number"):
            PRSQSpec(q=Q, alpha="0.5")
        with pytest.raises(ValueError, match="integer"):
            ReverseKSkybandSpec(q=Q, k="2")
        with pytest.raises(ValueError):
            ReverseTopKSpec(q=Q, k=1, weights=())
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "nope"})
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "prsq", "q": [1, 2], "bogus": 1})
        with pytest.raises(ValueError, match="config field"):
            spec_from_dict(
                {"kind": "causality", "an": "x", "q": [1, 2],
                 "config": {"use_lemma7": True}}
            )

    def test_plan_explain(self, uncertain_ds):
        session = Session(uncertain_ds)
        plan = session.plan(PRSQSpec(q=Q, alpha=ALPHA))
        text = plan.explain()
        assert "prsq" in text and "1." in text


class TestCertainDatasetFingerprint:
    def test_certain_and_uncertain_differ(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        certain = CertainDataset(points)
        uncertain = UncertainDataset(
            [UncertainObject(i, [points[i]], [1.0]) for i in range(2)]
        )
        assert dataset_fingerprint(certain) != dataset_fingerprint(uncertain)
