"""Executor parity: the parallel path must be indistinguishable from serial
(same values, same order), across query kinds and chunking choices."""

import pytest

from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine import (
    CausalityCertainSpec,
    CausalitySpec,
    ParallelExecutor,
    PRSQSpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    SerialExecutor,
    Session,
)
from repro.engine.executor import _dataset_payload, _restore_dataset

Q = (5000.0, 5000.0)
ALPHA = 0.5


def assert_same_outcomes(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.spec == b.spec
        if hasattr(a.value, "same_causality"):
            assert b.value.same_causality(a.value)
        else:
            assert a.value == b.value


@pytest.fixture(scope="module")
def uncertain_session():
    return Session(generate_uncertain_dataset(60, 2, seed=9))


@pytest.fixture(scope="module")
def certain_session():
    return Session(generate_certain_dataset(120, 2, seed=9))


class TestParallelParity:
    def test_prsq_batch(self, uncertain_session):
        specs = [
            PRSQSpec(q=(4800.0 + 40.0 * i, 5200.0 - 40.0 * i), alpha=ALPHA)
            for i in range(10)
        ] + [PRSQSpec(q=(4900.0, 5100.0), alpha=ALPHA, want="probabilities")]
        serial = uncertain_session.execute_batch(specs, SerialExecutor())
        parallel = uncertain_session.execute_batch(
            specs, ParallelExecutor(workers=2)
        )
        assert_same_outcomes(serial, parallel)
        # probabilities must match to the bit, not just compare equal
        assert {k: v.hex() for k, v in parallel[-1].value.items()} == {
            k: v.hex() for k, v in serial[-1].value.items()
        }

    def test_mixed_causality_batch(self, uncertain_session):
        non_answers = uncertain_session.query(
            PRSQSpec(q=Q, alpha=ALPHA, want="non_answers")
        ).to_raw()
        specs = [
            CausalitySpec(an=an, q=Q, alpha=ALPHA) for an in non_answers[:6]
        ] + [PRSQSpec(q=Q, alpha=ALPHA)]
        serial = uncertain_session.execute_batch(specs, SerialExecutor())
        parallel = uncertain_session.execute_batch(
            specs, ParallelExecutor(workers=3)
        )
        assert_same_outcomes(serial, parallel)

    def test_certain_batch(self, certain_session):
        skyline = certain_session.query(ReverseSkylineSpec(q=Q)).to_raw()
        an = next(
            oid
            for oid in certain_session.dataset.ids()
            if oid not in set(skyline)
        )
        specs = [
            ReverseSkylineSpec(q=Q),
            ReverseKSkybandSpec(q=Q, k=2),
            CausalityCertainSpec(an=an, q=Q),
        ]
        serial = certain_session.execute_batch(specs, SerialExecutor())
        parallel = certain_session.execute_batch(
            specs, ParallelExecutor(workers=2, chunk_size=1)
        )
        assert_same_outcomes(serial, parallel)

    def test_chunk_size_one_preserves_order(self, uncertain_session):
        specs = [
            PRSQSpec(q=(4700.0 + 60.0 * i, 5000.0), alpha=ALPHA)
            for i in range(7)
        ]
        parallel = uncertain_session.execute_batch(
            specs, ParallelExecutor(workers=2, chunk_size=1)
        )
        assert [outcome.spec for outcome in parallel] == specs

    def test_no_worker_cache(self, uncertain_session):
        specs = [PRSQSpec(q=Q, alpha=ALPHA)] * 4
        parallel = uncertain_session.execute_batch(
            specs, ParallelExecutor(workers=2, cache_size=0)
        )
        serial = uncertain_session.execute_batch(specs, SerialExecutor())
        assert_same_outcomes(serial, parallel)


class TestExecutorEdgeCases:
    def test_empty_batch(self, uncertain_session):
        assert uncertain_session.execute_batch([], ParallelExecutor(2)) == []

    def test_single_spec_runs_inline(self, uncertain_session):
        outcomes = uncertain_session.execute_batch(
            [PRSQSpec(q=Q, alpha=ALPHA)], ParallelExecutor(workers=4)
        )
        assert len(outcomes) == 1

    def test_workers_one_is_serial(self, uncertain_session):
        specs = [PRSQSpec(q=Q, alpha=a) for a in (0.3, 0.6)]
        outcomes = uncertain_session.execute_batch(
            specs, ParallelExecutor(workers=1)
        )
        assert_same_outcomes(
            uncertain_session.execute_batch(specs, SerialExecutor()), outcomes
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)

    def test_bad_spec_fails_fast_in_parent(self, uncertain_session):
        with pytest.raises(TypeError):
            uncertain_session.execute_batch(
                [ReverseSkylineSpec(q=Q)], ParallelExecutor(workers=2)
            )
        with pytest.raises(TypeError):
            uncertain_session.execute_batch(
                [ReverseSkylineSpec(q=Q)], SerialExecutor()
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_data_error_captured_not_fatal(self, uncertain_session, workers):
        specs = [
            PRSQSpec(q=Q, alpha=ALPHA),
            CausalitySpec(an="no-such-object", q=Q, alpha=ALPHA),
            PRSQSpec(q=Q, alpha=0.25),
        ]
        executor = (
            ParallelExecutor(workers=workers) if workers > 1 else SerialExecutor()
        )
        outcomes = uncertain_session.execute_batch(specs, executor)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert outcomes[1].value is None
        assert "no-such-object" in outcomes[1].error
        # The good queries still produced their answers.
        assert outcomes[0].value and outcomes[2].value


class TestDatasetHydration:
    def test_uncertain_roundtrip(self, uncertain_session):
        restored = _restore_dataset(
            _dataset_payload(uncertain_session.dataset)
        )
        assert restored.ids() == uncertain_session.dataset.ids()
        from repro.engine import dataset_fingerprint

        assert dataset_fingerprint(restored) == uncertain_session.fingerprint

    def test_certain_roundtrip(self, certain_session):
        restored = _restore_dataset(_dataset_payload(certain_session.dataset))
        from repro.engine import dataset_fingerprint

        assert dataset_fingerprint(restored) == certain_session.fingerprint
        assert type(restored).__name__ == "CertainDataset"
