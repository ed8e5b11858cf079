"""Stateful update-parity suite (the tentpole's soundness proof).

Hypothesis drives a random interleaving of live updates and queries
against one long-lived session, then checks that **every query family
returns bit-identical results to a fresh session built over the final
contents** — across ``build_index`` on/off (index lifecycle), with the
no-index evaluation and the scalar Eq. (3)/(2) reference as additional
pruning-free references for PRSQ.

Queries are interleaved *during* the churn on purpose: they populate the
result cache under old fingerprints, so any unsound cache keying or
partially patched derived structure (R-tree, tensor, ``points``) shows up
as a bit difference at the end.

The datasets use 160-byte pages (fanout 4), so their R-trees have several
levels, and causality answers must match in ``stats.node_accesses`` too:
the index is rebuilt from the contents after every write, so the paper's
I/O count cannot depend on the order in which those contents arrived.
"""

import numpy as np
import pytest
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

from tests import reference

Q = (5.0, 5.0)
ALPHA = 0.5
PAGE = 160  # fanout 4 at d=2: multi-level trees

OPS = st.lists(
    st.sampled_from(["insert", "delete", "update", "query"]),
    max_size=10,
)


def _uncertain_object(oid, rng):
    return UncertainObject(
        oid, rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 4)), 2))
    )


def _rebuild_uncertain(dataset):
    """Fresh objects (new arrays, cold digests) over the final contents."""
    return UncertainDataset(
        [
            UncertainObject(
                o.oid, o.samples.copy(), o.probabilities.copy(), name=o.name
            )
            for o in dataset.objects()
        ],
        page_size=dataset.page_size,
    )


def _bits(probabilities):
    return {oid: value.hex() for oid, value in probabilities.items()}


def _churn(session, op_kinds, rng, make_object, min_objects=3):
    """Apply the drawn interleaving; returns the number of applied updates."""
    next_id = 1000
    applied = 0
    for kind in op_kinds:
        ids = session.dataset.ids()
        if kind == "insert":
            session.apply(
                DatasetDelta.insertion(make_object(f"n{next_id}", rng))
            )
            next_id += 1
            applied += 1
        elif kind == "delete":
            if len(ids) <= min_objects:
                continue
            oid = ids[int(rng.integers(len(ids)))]
            session.apply(DatasetDelta.deletion(oid))
            applied += 1
        elif kind == "update":
            oid = ids[int(rng.integers(len(ids)))]
            session.apply(DatasetDelta.replacement(make_object(oid, rng)))
            applied += 1
        else:  # query: warm caches under the current fingerprint
            session.query(PRSQSpec(q=Q, alpha=ALPHA, want="probabilities"))
    return applied


@settings(max_examples=20, deadline=None)
@given(
    op_kinds=OPS,
    seed=st.integers(min_value=0, max_value=2**16),
    build_index=st.booleans(),
)
def test_uncertain_session_parity_after_churn(
    op_kinds, seed, build_index
):
    rng = np.random.default_rng(seed)
    dataset = UncertainDataset(
        [_uncertain_object(f"o{i}", rng) for i in range(6)], page_size=PAGE
    )
    session = Session(dataset, build_index=build_index)
    _churn(session, op_kinds, rng, _uncertain_object)

    rebuilt = _rebuild_uncertain(session.dataset)
    fresh = Session(rebuilt, build_index=build_index)

    # incremental fingerprint == full recompute over the final contents
    assert session.fingerprint == fresh.fingerprint

    spec = PRSQSpec(q=Q, alpha=ALPHA, want="probabilities")
    live = session.query(spec).value.probabilities
    ref = fresh.query(spec).value.probabilities
    assert _bits(live) == _bits(ref)

    # pruning-free reference: the R-tree maintained through churn must
    # not have changed a single bit
    scalar = {oid: reference.prsq_probability(rebuilt, oid, Q) for oid in live}
    assert _bits(live) == _bits(scalar)

    for want in ("answers", "non_answers"):
        live_ids = session.query(PRSQSpec(q=Q, alpha=ALPHA, want=want)).value
        fresh_ids = fresh.query(PRSQSpec(q=Q, alpha=ALPHA, want=want)).value
        assert live_ids.ids == fresh_ids.ids

    non_answers = [oid for oid, pr in ref.items() if pr < ALPHA]
    if non_answers:
        an = non_answers[0]
        causality_spec = CausalitySpec(an=an, q=Q, alpha=ALPHA)
        assert_same_causality(session, fresh, causality_spec)


def assert_same_causality(session, fresh, spec):
    """Equal causes and equal node accesses on both sessions."""
    live, ref = session.query(spec).value, fresh.query(spec).value
    assert live.causes == ref.causes
    assert live.stats.node_accesses == ref.stats.node_accesses


def _certain_object(oid, rng):
    return UncertainObject.certain(oid, rng.uniform(0.0, 10.0, size=2))


@settings(max_examples=20, deadline=None)
@given(
    op_kinds=OPS,
    seed=st.integers(min_value=0, max_value=2**16),
    build_index=st.booleans(),
)
def test_certain_session_parity_after_churn(
    op_kinds, seed, build_index
):
    rng = np.random.default_rng(seed)
    dataset = CertainDataset(
        rng.uniform(0.0, 10.0, size=(8, 2)),
        ids=[f"c{i}" for i in range(8)],
        page_size=PAGE,
    )
    session = Session(dataset, build_index=build_index)

    def query(s):
        return s.query(ReverseSkylineSpec(q=Q)).value.ids

    next_id = 1000
    for kind in op_kinds:
        ids = session.dataset.ids()
        if kind == "insert":
            session.apply(
                DatasetDelta.insertion(_certain_object(f"n{next_id}", rng))
            )
            next_id += 1
        elif kind == "delete":
            if len(ids) <= 3:
                continue
            session.apply(DatasetDelta.deletion(ids[int(rng.integers(len(ids)))]))
        elif kind == "update":
            oid = ids[int(rng.integers(len(ids)))]
            session.apply(DatasetDelta.replacement(_certain_object(oid, rng)))
        else:
            query(session)

    rebuilt = _rebuild_certain(session.dataset)
    fresh = Session(rebuilt, build_index=build_index)
    assert session.fingerprint == fresh.fingerprint

    skyline = query(session)
    assert skyline == query(fresh)
    band_spec = ReverseKSkybandSpec(q=Q, k=2)
    assert session.query(band_spec).value.ids == fresh.query(band_spec).value.ids

    weights = ((1.0, 0.3), (0.2, 1.0), (0.7, 0.7))
    topk_spec = ReverseTopKSpec(q=(4.0, 4.5), k=3, weights=weights)
    assert (
        session.query(topk_spec).value.user_ids
        == fresh.query(topk_spec).value.user_ids
    )

    non_answers = [oid for oid in session.dataset.ids() if oid not in skyline]
    if non_answers:
        an = non_answers[0]
        assert_same_causality(session, fresh, CausalityCertainSpec(an=an, q=Q))
        assert_same_causality(
            session, fresh, KSkybandCausalitySpec(an=an, q=Q, k=1)
        )


def _rebuild_certain(dataset):
    return CertainDataset(
        dataset.points.copy(),
        ids=dataset.ids(),
        names=[o.name for o in dataset],
        page_size=dataset.page_size,
    )


def test_certain_node_accesses_after_writes_match_a_fresh_session():
    """40 points, 160-byte pages, 8 insert+delete pairs on a live session.

    Every CR non-answer reads as many nodes as on a fresh session over the
    same contents.  An index patched write by write instead of rebuilt
    keeps a structure that depends on the write order, and reads other
    node counts here.
    """
    rng = np.random.default_rng(0)
    session = Session(
        CertainDataset(
            rng.uniform(0.0, 10.0, size=(40, 2)),
            ids=[f"c{i}" for i in range(40)],
            page_size=PAGE,
        )
    )
    for step in range(8):
        session.apply(DatasetDelta.insertion(_certain_object(f"n{step}", rng)))
        ids = session.dataset.ids()
        session.apply(DatasetDelta.deletion(ids[int(rng.integers(len(ids)))]))
    fresh = Session(_rebuild_certain(session.dataset))

    skyline = set(session.query(ReverseSkylineSpec(q=Q)).value.ids)
    non_answers = [oid for oid in session.dataset.ids() if oid not in skyline]
    assert len(non_answers) > 30
    for an in non_answers:
        assert_same_causality(session, fresh, CausalityCertainSpec(an=an, q=Q))


@settings(max_examples=10, deadline=None)
@given(
    op_kinds=OPS,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_shared_cache_across_kernel_paths_stays_sound(op_kinds, seed):
    """One shared cache, two sessions, churn on one side.

    A fresh session over the final contents may consume entries the
    churned session wrote — but only under the *matching* fingerprint,
    and what it is served must equal the scalar Eq. (3)/(2) reference.
    """
    from repro.engine import LRUCache

    rng = np.random.default_rng(seed)
    dataset = UncertainDataset(
        [_uncertain_object(f"o{i}", rng) for i in range(5)]
    )
    cache = LRUCache(maxsize=256)
    live = Session(dataset, cache=cache)
    _churn(live, op_kinds, rng, _uncertain_object)

    rebuilt = _rebuild_uncertain(live.dataset)
    fresh = Session(rebuilt, cache=cache)
    spec = PRSQSpec(q=Q, alpha=ALPHA, want="probabilities")
    ours = live.query(spec).value.probabilities
    theirs = fresh.query(spec)
    assert theirs.run.cached  # same contents, same fingerprint: a hit
    scalar = {oid: reference.prsq_probability(rebuilt, oid, Q) for oid in ours}
    assert _bits(ours) == _bits(theirs.value.probabilities) == _bits(scalar)
