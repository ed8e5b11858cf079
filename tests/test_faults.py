"""repro.faults: plans, the injector, and worker-crash recovery.

Covers the deterministic schedule layer (validation, JSON round-trip,
seeded generation, parsing), the process-global injector (1-based hit
counting, fire-once, install/uninstall lifecycle), and the
:class:`ParallelExecutor` recovery contract under SIGKILLed pool workers:
respawn once and return bit-identical answers, or — when the kill rule is
sticky and fires again — fail with a typed :class:`WorkerCrashError`
instead of hanging.
"""

import json

import pytest

from repro import faults, obs
from repro.datasets.synthetic_uncertain import generate_uncertain_dataset
from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.session import Session
from repro.engine.spec import PRSQSpec
from repro.exceptions import InvalidSpecError, WorkerCrashError
from repro.faults import SEAM_ACTIONS, SEAMS, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# FaultRule / FaultPlan
# ----------------------------------------------------------------------
class TestPlan:
    def test_rule_validation(self):
        with pytest.raises(InvalidSpecError):
            FaultRule(seam="nope", hit=1, action="drop")
        with pytest.raises(InvalidSpecError):
            FaultRule(seam="socket.read", hit=0, action="drop")
        with pytest.raises(InvalidSpecError):
            FaultRule(seam="socket.read", hit=1, action="kill")

    def test_every_seam_has_legal_actions(self):
        for seam, actions in SEAM_ACTIONS.items():
            for action in actions:
                rule = FaultRule(seam=seam, hit=2, action=action)
                assert rule.seam == seam

    def test_json_round_trip(self):
        plan = FaultPlan.generate(7)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert json.loads(plan.to_json())["seed"] == 7

    def test_generate_is_deterministic(self):
        assert FaultPlan.generate(123) == FaultPlan.generate(123)
        assert FaultPlan.generate(123) != FaultPlan.generate(124)

    def test_generate_spans_all_seams_across_seeds(self):
        seen = set()
        for seed in range(200):
            seen.update(FaultPlan.generate(seed).seams())
        assert seen == set(SEAMS)

    def test_drop_keeps_sticky_rules(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="worker.chunk", hit=1, action="kill"),
            FaultRule(seam="worker.chunk", hit=2, action="kill", sticky=True),
            FaultRule(seam="socket.read", hit=1, action="drop"),
        ))
        dropped = plan.drop("worker.chunk")
        assert [r.seam for r in dropped.rules] == [
            "worker.chunk", "socket.read"
        ]
        assert dropped.rules[0].sticky

    def test_parse_seed_json_and_file(self, tmp_path):
        assert FaultPlan.parse("41") == FaultPlan.generate(41)
        plan = FaultPlan.generate(5)
        assert FaultPlan.parse(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.parse(str(path)) == plan
        with pytest.raises(InvalidSpecError):
            FaultPlan.parse(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
class TestInjector:
    def test_hits_are_one_based_and_fire_once(self):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="socket.read", hit=2, action="stall", delay_s=0.01),
        ))
        injector = faults.FaultInjector(plan)
        assert injector.check("socket.read") is None          # hit 1
        rule = injector.check("socket.read")                  # hit 2 fires
        assert rule is not None and rule.action == "stall"
        assert injector.check("socket.read") is None          # never again
        assert injector.exhausted()
        events = injector.events()
        assert len(events) == 1 and events[0]["hit"] == 2

    def test_module_level_install_lifecycle(self):
        assert faults.active() is None
        assert faults.check("socket.read") is None  # inactive: no-op
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="writer.apply", hit=1, action="error"),
        ))
        with faults.installed(plan):
            assert faults.active() is not None
            rule = faults.check("writer.apply", dataset="d")
            assert rule is not None and rule.action == "error"
        assert faults.active() is None

    def test_install_empty_plan_clears(self):
        faults.install(FaultPlan.generate(3))
        assert faults.active() is not None
        faults.install(None)
        assert faults.active() is None

    def test_fired_events_feed_metrics(self):
        before = obs.registry().counter("fault.injected").value
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="socket.write", hit=1, action="drop"),
        ))
        with faults.installed(plan):
            faults.check("socket.write")
        assert obs.registry().counter("fault.injected").value == before + 1


# ----------------------------------------------------------------------
# ParallelExecutor worker-crash recovery
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def crash_session():
    return Session(generate_uncertain_dataset(48, 2, seed=13))


SPECS = [
    PRSQSpec(q=(4800.0 + 60.0 * i, 5100.0 - 60.0 * i), alpha=0.4)
    for i in range(8)
]


class TestWorkerCrashRecovery:
    def test_killed_worker_respawns_and_matches_serial(self, crash_session):
        serial = crash_session.execute_batch(SPECS, SerialExecutor())
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="worker.chunk", hit=1, action="kill"),
        ))
        respawns = obs.registry().counter("fault.worker_respawns")
        before = respawns.value
        with faults.installed(plan):
            parallel = crash_session.execute_batch(
                SPECS, ParallelExecutor(workers=2, chunk_size=2)
            )
        assert respawns.value == before + 1
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            assert a.error is None and b.error is None
            assert a.value == b.value

    def test_sticky_kill_gives_up_with_typed_error(self, crash_session):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="worker.chunk", hit=1, action="kill", sticky=True),
        ))
        with faults.installed(plan):
            with pytest.raises(WorkerCrashError, match="twice"):
                crash_session.execute_batch(
                    SPECS, ParallelExecutor(workers=2, chunk_size=2)
                )

    def test_worker_dying_during_submission_recovers(
        self, crash_session, monkeypatch
    ):
        # The killed worker breaks the pool before the second chunk is
        # submitted, so submit() itself raises BrokenProcessPool.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        import repro.engine.executor as executor_module

        held = []

        class SubmitAfterCrash(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                if not held:
                    held.append(future)
                    broken = future.exception(timeout=30)
                    assert isinstance(broken, BrokenProcessPool)
                return future

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", SubmitAfterCrash
        )
        serial = crash_session.execute_batch(SPECS, SerialExecutor())
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="worker.chunk", hit=1, action="kill"),
        ))
        with faults.installed(plan):
            parallel = crash_session.execute_batch(
                SPECS, ParallelExecutor(workers=2, chunk_size=2)
            )
        assert len(held) == 1
        assert [o.value for o in parallel] == [o.value for o in serial]

    def test_stream_recovers_in_order(self, crash_session):
        serial = crash_session.execute_batch(SPECS, SerialExecutor())
        plan = FaultPlan(seed=0, rules=(
            FaultRule(seam="worker.chunk", hit=2, action="kill"),
        ))
        with faults.installed(plan):
            executor = ParallelExecutor(workers=2, chunk_size=2)
            streamed = list(executor.stream(crash_session, SPECS))
        assert [s.value for s in streamed] == [s.value for s in serial]
