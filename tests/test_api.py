"""The v2 public API: registry dispatch, client facade, envelopes, shims."""

import asyncio
import json
import warnings
from dataclasses import dataclass
from typing import ClassVar, Tuple

import pytest

from repro.api import (
    Client,
    QueryResult,
    REGISTRY,
    RemoteClient,
    connect,
    connect_pdf,
)
from repro.api.results import CausalityAnswer, PRSQResult
from repro.core.cp import CPConfig
from repro.datasets.synthetic_certain import generate_certain_dataset
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine import ParallelExecutor, PRSQSpec, Session
from repro.engine.plan import QueryPlan
from repro.engine.spec import (
    CausalityCertainSpec,
    CausalitySpec,
    KSkybandCausalitySpec,
    PdfCausalitySpec,
    QuerySpec,
    ReverseKSkybandSpec,
    ReverseSkylineSpec,
    ReverseTopKSpec,
    UpdateSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.exceptions import InvalidRequestError, UnknownObjectError
from repro.geometry.rectangle import Rect
from repro.uncertain.delta import DatasetDelta
from repro.uncertain.object import UncertainObject
from repro.uncertain.pdf import UniformBoxObject

Q = (5000.0, 5000.0)


@pytest.fixture(scope="module")
def uncertain_ds():
    return generate_uncertain_dataset(60, 2, seed=7)


@pytest.fixture(scope="module")
def certain_ds():
    return generate_certain_dataset(120, 2, seed=7)


class TestClientFacade:
    def test_prsq_envelope(self, uncertain_ds):
        client = connect(uncertain_ds)
        env = client.prsq(Q, alpha=0.5, want="non_answers")
        assert env.ok and env.schema_version == 2
        assert env.kind == "prsq"
        assert env.fingerprint == client.fingerprint
        assert isinstance(env.value, PRSQResult)
        assert env.value.ids  # this draw has non-answers
        assert env.to_raw() == list(env.value.ids)

    def test_causality_envelope_has_node_accesses(self, uncertain_ds):
        client = connect(uncertain_ds)
        an = client.prsq(Q, alpha=0.5, want="non_answers").value.ids[0]
        env = client.causality(an=an, q=Q, alpha=0.5)
        assert isinstance(env.value, CausalityAnswer)
        assert env.run.node_accesses == env.value.stats.node_accesses
        # the raw shim shape is the legacy CausalityResult
        assert env.to_raw().an_oid == an

    def test_every_certain_family_returns_typed_envelope(self, certain_ds):
        client = connect(certain_ds)
        sky = client.reverse_skyline(Q)
        band = client.reverse_k_skyband(Q, k=2)
        topk = client.reverse_top_k(
            (800.0, 900.0), k=5, weights=((1.0, 0.3), (0.2, 1.0))
        )
        assert sky.ok and band.ok and topk.ok
        an = next(
            oid for oid in certain_ds.ids() if oid not in set(sky.value.ids)
        )
        cr = client.causality_certain(an=an, q=Q)
        skyband_cr = client.k_skyband_causality(an=an, q=Q, k=1)
        for env in (sky, band, topk, cr, skyband_cr):
            back = QueryResult.from_dict(json.loads(json.dumps(env.to_dict())))
            assert back == env

    def test_connect_pdf(self):
        objects = [
            UniformBoxObject("a", Rect([4.0, 4.0], [4.6, 4.6])),
            UniformBoxObject("b", Rect([4.2, 4.2], [4.9, 4.9])),
        ]
        client = connect_pdf(objects, samples_per_object=16, seed=0)
        env = client.pdf_causality(an="a", q=(5.0, 5.0), alpha=0.5)
        assert env.ok and isinstance(env.value, CausalityAnswer)

    def test_connect_from_csv_path(self, tmp_path, uncertain_ds):
        from repro.io.csvio import save_uncertain_csv

        path = tmp_path / "data.csv"
        save_uncertain_csv(uncertain_ds, path)
        client = connect(path)
        assert client.prsq(Q, alpha=0.5).ok
        with pytest.raises(ValueError, match="dataset_kind"):
            connect(path, dataset_kind="mystery")

    def test_single_query_errors_raise(self, uncertain_ds):
        client = connect(uncertain_ds)
        with pytest.raises(UnknownObjectError):
            client.causality(an="no-such-id", q=Q, alpha=0.5)


class TestBatchBuilder:
    def test_fluent_batch_preserves_order(self, uncertain_ds):
        client = connect(uncertain_ds)
        batch = (
            client.batch()
            .prsq(Q, alpha=0.3)
            .prsq(Q, alpha=0.5, want="non_answers")
            .prsq(Q, alpha=0.7, want="probabilities")
        )
        assert len(batch) == 3
        envelopes = batch.run()
        assert [e.spec.alpha for e in envelopes] == [0.3, 0.5, 0.7]
        assert all(e.ok for e in envelopes)

    def test_stream_is_incremental_and_ordered(self, uncertain_ds):
        client = connect(uncertain_ds)
        batch = client.batch().extend(
            PRSQSpec(q=(4800.0 + 40 * i, 5100.0), alpha=0.5) for i in range(5)
        )
        seen = []
        stream = batch.stream()
        first = next(stream)  # arrives before the rest have run
        seen.append(first)
        seen.extend(stream)
        assert [e.spec for e in seen] == batch.specs
        assert [e.value for e in seen] == [e.value for e in batch.run()]

    def test_parallel_stream_matches_serial(self, uncertain_ds):
        client = connect(uncertain_ds)
        batch = client.batch().extend(
            PRSQSpec(q=(4800.0 + 40 * i, 5100.0), alpha=0.5) for i in range(6)
        )
        serial = [e.value for e in batch.stream()]
        parallel = [
            e.value
            for e in batch.stream(executor=ParallelExecutor(workers=2))
        ]
        assert serial == parallel

    def test_batch_error_envelope_is_machine_actionable(self, uncertain_ds):
        client = connect(uncertain_ds)
        envelopes = (
            client.batch()
            .prsq(Q, alpha=0.5)
            .causality(an="no-such-id", q=Q, alpha=0.5)
            .run()
        )
        good, bad = envelopes
        assert good.ok and not bad.ok
        assert bad.value is None
        assert bad.error.code == "unknown_object"
        assert bad.error.type == "UnknownObjectError"
        assert "no-such-id" in bad.error.message
        with pytest.raises(RuntimeError, match="unknown_object"):
            bad.to_raw()
        # failed envelopes survive the JSON round trip too
        back = QueryResult.from_dict(json.loads(json.dumps(bad.to_dict())))
        assert back == bad


# ---------------------------------------------------------------------------
# one method table: every facade builds the same spec from the same call
# ---------------------------------------------------------------------------
HOT = UncertainObject("hot", [[1.0, 2.0]], [1.0])
DELTA = DatasetDelta(deletes=("a",), inserts=(HOT,))
NO_LEMMA6 = CPConfig(use_lemma6=False)

METHOD_CASES = {
    "prsq": (
        "prsq", (list(Q),), {"alpha": 0.3, "want": "probabilities"},
        PRSQSpec(q=Q, alpha=0.3, want="probabilities"),
    ),
    "causality": (
        "causality", ("a", Q), {"alpha": 0.4},
        CausalitySpec(an="a", q=Q, alpha=0.4),
    ),
    "causality-config": (
        "causality", ("a", Q), {"config": NO_LEMMA6},
        CausalitySpec(an="a", q=Q, config=NO_LEMMA6),
    ),
    "pdf_causality": (
        "pdf_causality", ("a", Q), {"alpha": 0.2, "config": NO_LEMMA6},
        PdfCausalitySpec(an="a", q=Q, alpha=0.2, config=NO_LEMMA6),
    ),
    "causality_certain": (
        "causality_certain", ("a", Q), {},
        CausalityCertainSpec(an="a", q=Q),
    ),
    "k_skyband_causality": (
        "k_skyband_causality", ("a", Q), {"k": 2},
        KSkybandCausalitySpec(an="a", q=Q, k=2),
    ),
    "reverse_skyline": (
        "reverse_skyline", (Q,), {}, ReverseSkylineSpec(q=Q),
    ),
    "reverse_k_skyband": (
        "reverse_k_skyband", (Q,), {"k": 3}, ReverseKSkybandSpec(q=Q, k=3),
    ),
    "reverse_top_k": (
        "reverse_top_k", (Q, 2, [[1.0, 0.5]]), {"user_ids": ["u"]},
        ReverseTopKSpec(q=Q, k=2, weights=((1.0, 0.5),), user_ids=("u",)),
    ),
    "insert-object": ("insert", (HOT,), {}, UpdateSpec(inserts=(HOT,))),
    "insert-samples": (
        "insert", ("hot",), {"samples": [[1.0, 2.0]], "probabilities": [1.0]},
        UpdateSpec(inserts=(HOT,)),
    ),
    "delete": ("delete", ("a",), {}, UpdateSpec(deletes=("a",))),
    "update-samples": (
        "update", ("hot",), {"samples": [[1.0, 2.0]]},
        UpdateSpec(updates=(HOT,)),
    ),
    "apply": ("apply", (DELTA,), {}, UpdateSpec.from_delta(DELTA)),
}


class _RecordingSession:
    """Stands in for a Client's session: keeps every spec it is handed."""

    def __init__(self):
        self.taken = []

    def query(self, spec):
        self.taken.append(spec)
        return spec


class _RecordingSocket:
    """Stands in for a RemoteClient's socket: keeps the spec of every
    query frame written to it and answers the frame with an error."""

    def __init__(self):
        self.reader = asyncio.StreamReader()
        self.taken = []

    def write(self, frame):
        payload = json.loads(frame)
        self.taken.append(REGISTRY.spec_from_dict(payload["spec"]))
        reply = {
            "id": payload["id"],
            "ok": False,
            "error": {"code": "invalid_request", "message": "recorded"},
        }
        self.reader.feed_data(json.dumps(reply).encode() + b"\n")

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _specs_taken(facade, method, args, kwargs):
    """The specs one method call hands to *facade*'s ``query`` or ``add``."""
    if facade == "Client":
        session = _RecordingSession()
        returned = getattr(Client(session), method)(*args, **kwargs)
        assert session.taken == [returned]
        return session.taken
    if facade == "BatchBuilder":
        batch = Client(_RecordingSession()).batch()
        assert getattr(batch, method)(*args, **kwargs) is batch
        return batch.specs

    async def remote():
        socket = _RecordingSocket()
        client = RemoteClient(socket.reader, socket)
        try:
            if facade == "RemoteClient":
                with pytest.raises(InvalidRequestError, match="recorded"):
                    await getattr(client, method)(*args, **kwargs)
                return socket.taken
            batch = client.batch()
            assert getattr(batch, method)(*args, **kwargs) is batch
            return batch.specs
        finally:
            await client.close()

    return asyncio.run(remote())


class TestMethodTable:
    @pytest.mark.parametrize(
        "facade",
        ["Client", "BatchBuilder", "RemoteClient", "RemoteBatchBuilder"],
    )
    @pytest.mark.parametrize(
        "case", list(METHOD_CASES.values()), ids=list(METHOD_CASES)
    )
    def test_every_facade_builds_the_same_spec(self, facade, case):
        method, args, kwargs, expected = case
        assert _specs_taken(facade, method, args, kwargs) == [expected]

    def test_remote_spec_error_raises_before_any_frame(self):
        async def remote():
            socket = _RecordingSocket()
            client = RemoteClient(socket.reader, socket)
            try:
                with pytest.raises(ValueError, match="finite"):
                    client.prsq((float("nan"), 5000.0))
            finally:
                await client.close()
            return socket.taken

        assert asyncio.run(remote()) == []


# ---------------------------------------------------------------------------
# the extensibility contract: a new family needs zero engine edits
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CountInWindowSpec(QuerySpec):
    """Toy family: how many objects fall in a Chebyshev window around q."""

    q: Tuple[float, ...] = ()
    radius: float = 100.0

    kind: ClassVar[str] = "count_in_window"
    dataset_kind: ClassVar[str] = "uncertain"
    cacheable: ClassVar[bool] = True
    mutates: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class CountResult:
    count: int

    @classmethod
    def from_raw(cls, value, spec=None):
        return cls(count=int(value))

    def to_raw(self):
        return self.count

    def to_dict(self):
        return {"count": self.count}

    @classmethod
    def from_dict(cls, payload):
        return cls(count=payload["count"])


def plan_count_in_window(spec: CountInWindowSpec) -> QueryPlan:
    def run(session):
        count = 0
        for obj in session.dataset:
            center = obj.samples.mean(axis=0)
            if all(
                abs(center[d] - spec.q[d]) <= spec.radius
                for d in range(len(spec.q))
            ):
                count += 1
        return count

    return QueryPlan(
        spec=spec,
        steps=(f"chebyshev-window-count radius={spec.radius}",),
        runner=run,
    )


class TestRegistryExtension:
    @pytest.fixture(autouse=True)
    def _registered(self):
        REGISTRY.register(
            CountInWindowSpec,
            planner=plan_count_in_window,
            result_cls=CountResult,
        )
        yield
        REGISTRY.unregister("count_in_window")

    def test_register_plan_execute_serialize_without_engine_edits(
        self, uncertain_ds, tmp_path, capsys
    ):
        # parse: the registry now understands the new kind from JSON
        spec = spec_from_dict(
            {"kind": "count_in_window", "q": [5000, 5000], "radius": 2000}
        )
        assert spec == CountInWindowSpec(q=Q, radius=2000.0)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

        # plan + execute through the untouched engine
        client = Client(Session(uncertain_ds))
        env = client.query(spec)
        assert env.ok and isinstance(env.value, CountResult)
        assert env.value.count >= 0

        # serialize: uniform envelope, byte-identical JSON round trip
        wire = json.dumps(env.to_dict())
        back = QueryResult.from_dict(json.loads(wire))
        assert back == env
        assert json.dumps(back.to_dict()) == wire

        # and the stock CLI batch path runs the new family end to end
        from repro.io.cli import main as cli_main
        from repro.io.csvio import save_uncertain_csv

        data = tmp_path / "data.csv"
        save_uncertain_csv(uncertain_ds, data)
        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps(
                [{"kind": "count_in_window", "q": [5000, 5000], "radius": 2000}]
            )
        )
        rc = cli_main(
            ["batch", "--data", str(data), "--queries", str(queries), "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "count_in_window"
        assert payload[0]["value"]["count"] == env.value.count

    def test_custom_family_with_own_config_dataclass(self, uncertain_ds):
        # The registry must serialize nested config dataclasses generically,
        # not just the engine's CPConfig.
        @dataclass(frozen=True)
        class WindowConfig:
            use_mean: bool = True
            norm: str = "chebyshev"

        @dataclass(frozen=True)
        class ConfiguredCountSpec(QuerySpec):
            q: Tuple[float, ...] = ()
            config: WindowConfig = WindowConfig()

            kind: ClassVar[str] = "configured_count"
            dataset_kind: ClassVar[str] = "uncertain"
            cacheable: ClassVar[bool] = True
            mutates: ClassVar[bool] = False

            def __post_init__(self):
                object.__setattr__(self, "q", tuple(float(v) for v in self.q))

        def plan_configured(spec):
            return QueryPlan(
                spec=spec, steps=("count",), runner=lambda s: len(s.dataset)
            )

        REGISTRY.register(
            ConfiguredCountSpec, planner=plan_configured, result_cls=CountResult
        )
        try:
            spec = ConfiguredCountSpec(q=Q, config=WindowConfig(norm="l2"))
            wire = json.dumps(spec_to_dict(spec))
            assert json.loads(wire)["config"] == {
                "use_mean": True,
                "norm": "l2",
            }
            assert spec_from_dict(json.loads(wire)) == spec
            with pytest.raises(ValueError, match="config field"):
                spec_from_dict(
                    {"kind": "configured_count", "q": [1, 2],
                     "config": {"bogus": 1}}
                )
            env = Client(Session(uncertain_ds)).query(spec)
            assert env.ok and env.value.count == len(uncertain_ds)
            assert QueryResult.from_dict(json.loads(json.dumps(env.to_dict()))) == env
        finally:
            REGISTRY.unregister("configured_count")

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(
                CountInWindowSpec,
                planner=plan_count_in_window,
                result_cls=CountResult,
            )
        REGISTRY.register(  # explicit replace is allowed
            CountInWindowSpec,
            planner=plan_count_in_window,
            result_cls=CountResult,
            replace=True,
        )


class TestLegacyShims:
    def test_query_does_not_warn(self, uncertain_ds):
        session = Session(uncertain_ds)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.query(PRSQSpec(q=Q, alpha=0.5))


class TestValidatorConsistency:
    def test_alpha_rejects_bool_like_k_does(self):
        with pytest.raises(ValueError, match="number"):
            PRSQSpec(q=Q, alpha=True)
        with pytest.raises(ValueError, match="number"):
            PRSQSpec(q=Q, alpha=False)
        # plain ints in range stay accepted
        assert PRSQSpec(q=Q, alpha=1).alpha == 1
