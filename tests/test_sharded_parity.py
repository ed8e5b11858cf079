"""Sharded parity suite: every query family bit-identical to k=1.

The sharding tentpole's soundness contract, property-tested the same way
``test_updates_stateful.py`` proves update soundness: Hypothesis draws a
shard count k in {2, 3, 8} and (for the churn tests) an arbitrary
interleaving of ``DatasetDelta`` mutations and queries, then
asserts that a sharded session returns **bit-identical results** to an
unsharded session over the same contents — probabilities compared via
``float.hex``, id lists and causes dicts compared exactly.

Parity is defined over *results*, never ``node_accesses``: k shard trees
have k roots and different heights, so the I/O counts legitimately
differ while every answer bit must not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CausalityCertainSpec,
    CausalitySpec,
    DatasetDelta,
    KSkybandCausalitySpec,
    PRSQSpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    Session,
)
from repro.uncertain import CertainDataset, UncertainDataset, UncertainObject

Q = (5.0, 5.0)
ALPHA = 0.5
SHARD_COUNTS = st.sampled_from([2, 3, 8])

OPS = st.lists(
    st.sampled_from(["insert", "delete", "update", "query"]),
    max_size=10,
)


def _uncertain_object(oid, rng):
    return UncertainObject(
        oid, rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 4)), 2))
    )


def _certain_object(oid, rng):
    return UncertainObject.certain(oid, rng.uniform(0.0, 10.0, size=2))


def _uncertain_dataset(rng, n=10):
    return UncertainDataset([_uncertain_object(f"o{i}", rng) for i in range(n)])


def _certain_dataset(rng, n=12):
    return CertainDataset(
        rng.uniform(0.0, 10.0, size=(n, 2)), ids=[f"c{i}" for i in range(n)]
    )


def _bits(probabilities):
    return {oid: value.hex() for oid, value in probabilities.items()}


def _churn(sessions, op_kinds, seed, make_object, min_objects=3):
    """Apply one drawn interleaving to every session in *sessions*.

    Each session gets its own identically-seeded rng so random choices
    (which id to delete, the replacement samples) match bit-for-bit —
    the sessions stay element-wise identical while their partitions (and
    rebalance histories) diverge freely.
    """
    for session in sessions:
        rng = np.random.default_rng(seed)
        next_id = 1000
        for kind in op_kinds:
            ids = session.dataset.ids()
            if kind == "insert":
                session.apply(
                    DatasetDelta.insertion(make_object(f"n{next_id}", rng))
                )
                next_id += 1
            elif kind == "delete":
                if len(ids) <= min_objects:
                    continue
                oid = ids[int(rng.integers(len(ids)))]
                session.apply(DatasetDelta.deletion(oid))
            elif kind == "update":
                oid = ids[int(rng.integers(len(ids)))]
                session.apply(DatasetDelta.replacement(make_object(oid, rng)))
            else:  # query: populate the cache under the current fingerprint
                session.query(PRSQSpec(q=Q, alpha=ALPHA, want="probabilities"))


def _assert_uncertain_parity(plain, sharded):
    spec = PRSQSpec(q=Q, alpha=ALPHA, want="probabilities")
    ref = plain.query(spec).value.probabilities
    assert _bits(sharded.query(spec).value.probabilities) == _bits(ref)
    for want in ("answers", "non_answers"):
        want_spec = PRSQSpec(q=Q, alpha=ALPHA, want=want)
        assert (
            sharded.query(want_spec).value.ids == plain.query(want_spec).value.ids
        )
    non_answers = [oid for oid, pr in ref.items() if pr < ALPHA]
    if non_answers:
        causality = CausalitySpec(an=non_answers[0], q=Q, alpha=ALPHA)
        assert (
            sharded.query(causality).value.causes
            == plain.query(causality).value.causes
        )


def _assert_certain_parity(plain, sharded):
    skyline_spec = ReverseSkylineSpec(q=Q)
    skyline = plain.query(skyline_spec).value.ids
    assert sharded.query(skyline_spec).value.ids == skyline
    band_spec = ReverseKSkybandSpec(q=Q, k=2)
    assert (
        sharded.query(band_spec).value.ids == plain.query(band_spec).value.ids
    )
    topk_spec = ReverseTopKSpec(
        q=(4.0, 4.5), k=3, weights=((1.0, 0.3), (0.2, 1.0), (0.7, 0.7))
    )
    assert (
        sharded.query(topk_spec).value.user_ids
        == plain.query(topk_spec).value.user_ids
    )
    non_answers = [oid for oid in plain.dataset.ids() if oid not in skyline]
    if non_answers:
        an = non_answers[0]
        cr = CausalityCertainSpec(an=an, q=Q)
        assert sharded.query(cr).value.causes == plain.query(cr).value.causes
        band_cr = KSkybandCausalitySpec(an=an, q=Q, k=1)
        assert (
            sharded.query(band_cr).value.causes
            == plain.query(band_cr).value.causes
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=SHARD_COUNTS,
)
def test_uncertain_families_bit_identical(seed, shards):
    rng = np.random.default_rng(seed)
    dataset = _uncertain_dataset(rng)
    plain = Session(UncertainDataset(dataset.objects()))
    sharded = Session(UncertainDataset(dataset.objects()), shards=shards)
    assert sharded.fingerprint == plain.fingerprint
    _assert_uncertain_parity(plain, sharded)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=SHARD_COUNTS,
)
def test_certain_families_bit_identical(seed, shards):
    rng = np.random.default_rng(seed)
    dataset = _certain_dataset(rng)
    plain = Session(CertainDataset(dataset.points.copy(), ids=dataset.ids()))
    sharded = Session(
        CertainDataset(dataset.points.copy(), ids=dataset.ids()),
        shards=shards,
    )
    assert sharded.fingerprint == plain.fingerprint
    _assert_certain_parity(plain, sharded)


@settings(max_examples=20, deadline=None)
@given(
    op_kinds=OPS,
    seed=st.integers(min_value=0, max_value=2**16),
    shards=SHARD_COUNTS,
)
def test_uncertain_parity_survives_churn(op_kinds, seed, shards):
    rng = np.random.default_rng(seed)
    dataset = _uncertain_dataset(rng, n=6)
    plain = Session(UncertainDataset(dataset.objects()))
    sharded = Session(UncertainDataset(dataset.objects()), shards=shards)
    _churn([plain, sharded], op_kinds, seed, _uncertain_object)
    # routed deltas + rebalances preserved contents and the incremental
    # fingerprint (shard digests roll up to the same content digest)
    assert sharded.fingerprint == plain.fingerprint
    assert sorted(sharded.dataset.ids(), key=repr) == sorted(
        plain.dataset.ids(), key=repr
    )
    _assert_uncertain_parity(plain, sharded)


@settings(max_examples=20, deadline=None)
@given(
    op_kinds=OPS,
    seed=st.integers(min_value=0, max_value=2**16),
    shards=SHARD_COUNTS,
)
def test_certain_parity_survives_churn(op_kinds, seed, shards):
    rng = np.random.default_rng(seed)
    dataset = _certain_dataset(rng, n=8)
    plain = Session(CertainDataset(dataset.points.copy(), ids=dataset.ids()))
    sharded = Session(
        CertainDataset(dataset.points.copy(), ids=dataset.ids()),
        shards=shards,
    )

    def churn_certain(session):
        rng2 = np.random.default_rng(seed)
        next_id = 1000
        for kind in op_kinds:
            ids = session.dataset.ids()
            if kind == "insert":
                session.apply(
                    DatasetDelta.insertion(
                        _certain_object(f"n{next_id}", rng2)
                    )
                )
                next_id += 1
            elif kind == "delete":
                if len(ids) <= 3:
                    continue
                session.apply(
                    DatasetDelta.deletion(ids[int(rng2.integers(len(ids)))])
                )
            elif kind == "update":
                oid = ids[int(rng2.integers(len(ids)))]
                session.apply(
                    DatasetDelta.replacement(_certain_object(oid, rng2))
                )
            else:
                session.query(ReverseSkylineSpec(q=Q))

    churn_certain(plain)
    churn_certain(sharded)
    assert sharded.fingerprint == plain.fingerprint
    _assert_certain_parity(plain, sharded)
