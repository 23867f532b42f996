"""Deterministic fault injection: plan semantics, worker churn, and
corrupt-snapshot tolerance.

The load-bearing invariant throughout: every *masked* fault kind
(``MASKED_FAULT_KINDS``) changes only latency, never results.
``worker_departure`` is the deliberate exception.
"""

import pytest

from repro.core.nonprivate import UCESolver
from repro.datasets.synthetic import NormalGenerator
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError, InjectedFault
from repro.faults import (
    FAULT_KINDS,
    MASKED_FAULT_KINDS,
    FaultPlan,
    active_fault_plan,
    fault_injection,
    plan_from_env,
    set_fault_plan,
    smoke_plan,
)
from repro.spatial.geometry import Point
from repro.stream.arrivals import PoissonProcess, StreamWorkload
from repro.stream.cache import FlushSolverCache
from repro.stream.events import TaskArrival, WorkerArrival, WorkerDeparture
from repro.stream.simulator import DispatchSimulator, StreamConfig
from tests.conftest import line_instance


class TestFaultPlan:
    def test_resolve_accepts_every_spec_form(self):
        plan = FaultPlan(seed=7, rates={"queue_stall": 0.5})
        assert FaultPlan.resolve(None) is None
        assert FaultPlan.resolve(plan) is plan
        assert FaultPlan.resolve(plan.to_dict()) == plan
        assert FaultPlan.resolve("smoke") == smoke_plan()
        for off in ("", "off", "none", "  off  "):
            assert FaultPlan.resolve(off) is None
        assert FaultPlan.resolve('{"seed": 7, "rates": {"queue_stall": 0.5}}') == plan

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.resolve("chaos-monkey")
        with pytest.raises(ConfigurationError):
            FaultPlan.resolve("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.resolve(42)
        with pytest.raises(ConfigurationError):
            FaultPlan.resolve({"seed": 1, "turbo": True})

    def test_rates_validate(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(rates={"meteor_strike": 0.1})
        with pytest.raises(ConfigurationError):
            FaultPlan(rates={"queue_stall": 1.5})
        with pytest.raises(ConfigurationError):
            FaultPlan().should_fire("meteor_strike")

    def test_firing_is_deterministic(self):
        plan = FaultPlan(seed=3, rates={"queue_stall": 0.5})
        twin = FaultPlan(seed=3, rates={"queue_stall": 0.5})
        draws = [
            plan.should_fire("queue_stall", key=(k,), site="service.consume")
            for k in range(64)
        ]
        assert draws == [
            plan.should_fire("queue_stall", key=(k,), site="service.consume")
            for k in range(64)
        ]
        assert draws == [
            twin.should_fire("queue_stall", key=(k,), site="service.consume")
            for k in range(64)
        ]
        # ~0.5 rate actually fires sometimes and spares sometimes.
        assert any(draws) and not all(draws)
        # A different seed sees a different schedule.
        other = FaultPlan(seed=4, rates={"queue_stall": 0.5})
        assert draws != [
            other.should_fire("queue_stall", key=(k,), site="service.consume")
            for k in range(64)
        ]

    def test_sites_and_kinds_are_independent_draws(self):
        plan = FaultPlan(seed=0, rates={"queue_stall": 0.5, "snapshot_corrupt": 0.5})
        consume = [plan.should_fire("queue_stall", (k,), "service.consume") for k in range(64)]
        apply = [plan.should_fire("queue_stall", (k,), "service.apply") for k in range(64)]
        other_kind = [
            plan.should_fire("snapshot_corrupt", (k,), "service.consume") for k in range(64)
        ]
        assert consume != apply
        assert consume != other_kind

    def test_rate_endpoints(self):
        never = FaultPlan(seed=0, rates={"queue_stall": 0.0})
        always = FaultPlan(seed=0, rates={"queue_stall": 1.0})
        assert not any(never.should_fire("queue_stall", (k,)) for k in range(32))
        assert all(always.should_fire("queue_stall", (k,)) for k in range(32))
        # Unrated kinds never fire.
        assert not always.should_fire("snapshot_corrupt", (0,))

    def test_fire_raises_typed_fault(self):
        plan = FaultPlan(rates={"snapshot_corrupt": 1.0})
        with pytest.raises(InjectedFault) as err:
            plan.fire("snapshot_corrupt", key=(1, 2), site="cache.load")
        assert err.value.kind == "snapshot_corrupt"
        assert err.value.site == "cache.load"
        plan.fire("queue_stall")  # unrated: no-op

    def test_env_and_explicit_activation(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        set_fault_plan(None)
        assert active_fault_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "smoke")
        assert plan_from_env() == smoke_plan()
        assert active_fault_plan() == smoke_plan()
        # Explicit activation wins over the environment...
        explicit = FaultPlan(seed=9, rates={"queue_stall": 1.0})
        with fault_injection(explicit) as scoped:
            assert scoped is explicit
            assert active_fault_plan() is explicit
        # ...and the context manager restores what was there before.
        assert active_fault_plan() == smoke_plan()
        set_fault_plan({"seed": 5, "rates": {}})
        assert active_fault_plan() == FaultPlan(seed=5)
        set_fault_plan(None)
        assert active_fault_plan() == smoke_plan()  # env visible again

    def test_smoke_plan_is_masked_kinds_only(self):
        assert set(smoke_plan().rates) <= set(MASKED_FAULT_KINDS)
        assert "worker_departure" in FAULT_KINDS
        assert "worker_departure" not in MASKED_FAULT_KINDS


def churn_stream_config(**overrides):
    defaults = dict(max_batch_size=8, max_wait=0.05)
    defaults.update(overrides)
    return StreamConfig(**defaults)


class TestWorkerChurn:
    def worker(self, wid, x=0.0):
        return Worker(id=wid, location=Point(x, 0.0), radius=5.0)

    def task(self, tid, x=0.0):
        return Task(id=tid, location=Point(x, 0.0), value=4.5)

    def test_idle_departure_leaves_the_pool(self):
        sim = DispatchSimulator(
            UCESolver(), config=churn_stream_config(), record_assignments=True
        )
        events = [
            WorkerArrival(time=0.0, worker=self.worker(1)),
            WorkerArrival(time=0.0, worker=self.worker(2, x=0.5)),
            WorkerDeparture(time=0.01, worker_id=2),
            TaskArrival(time=0.02, task=self.task(0), deadline=1.0),
        ]
        stats = sim.run(events)
        assert stats.departed_workers == 1
        assert stats.assigned == 1
        assert sim.assignment_log[0].worker_id == 1

    def test_unknown_or_repeated_departure_is_a_no_op(self):
        sim = DispatchSimulator(UCESolver(), config=churn_stream_config())
        events = [
            WorkerArrival(time=0.0, worker=self.worker(1)),
            WorkerDeparture(time=0.01, worker_id=999),
            WorkerDeparture(time=0.02, worker_id=1),
            WorkerDeparture(time=0.03, worker_id=1),
            TaskArrival(time=0.04, task=self.task(0), deadline=0.2),
        ]
        stats = sim.run(events)
        assert stats.departed_workers == 1
        assert stats.expired == 1  # nobody left to serve the task

    def test_busy_departure_keeps_assignment_but_never_rejoins(self):
        sim = DispatchSimulator(
            UCESolver(),
            config=churn_stream_config(min_service=0.5),
            record_assignments=True,
        )
        events = [
            WorkerArrival(time=0.0, worker=self.worker(1)),
            TaskArrival(time=0.01, task=self.task(0), deadline=1.0),
            # Busy serving task 0 by now; the committed match survives.
            WorkerDeparture(time=0.2, worker_id=1),
            TaskArrival(time=0.3, task=self.task(1), deadline=0.55),
        ]
        stats = sim.run(events)
        assert stats.assigned == 1
        assert stats.departed_workers == 1
        assert stats.expired == 1  # the departed worker never came back

    def test_departure_time_validates(self):
        with pytest.raises(ConfigurationError):
            WorkerDeparture(time=-1.0, worker_id=0)

    def test_injected_departure_fault_changes_results_deterministically(self):
        def run(faults):
            sim = DispatchSimulator(
                UCESolver(),
                config=churn_stream_config(faults=faults),
                record_assignments=True,
            )
            events = [
                WorkerArrival(time=0.0, worker=self.worker(w, x=0.4 * w))
                for w in range(1, 5)
            ] + [
                TaskArrival(time=0.1 * (1 + t), task=self.task(t, x=0.3 * t), deadline=2.0)
                for t in range(6)
            ]
            stats = sim.run(events)
            return stats, list(sim.assignment_log)

        plan = FaultPlan(seed=5, rates={"worker_departure": 1.0})
        faulty_stats, faulty_log = run(plan)
        again_stats, again_log = run(plan)
        clean_stats, clean_log = run(None)
        assert faulty_stats.departed_workers > 0
        assert clean_stats.departed_workers == 0
        # The one unmasked kind: results change, but reproducibly.
        assert faulty_log == again_log
        assert faulty_stats.assigned == again_stats.assigned
        assert faulty_log != clean_log


class TestDeparturesKnob:
    def workload(self, departures):
        return StreamWorkload(
            task_process=PoissonProcess(rate=10.0, horizon=1.0),
            worker_process=PoissonProcess(rate=6.0, horizon=1.0),
            spatial=NormalGenerator(num_tasks=40, num_workers=60, seed=4),
            initial_workers=8,
            task_deadline=0.6,
            seed=4,
            departures=departures,
        )

    def test_zero_departures_is_the_historical_stream(self):
        base = list(self.workload(0.0).events(seed=9))
        assert not any(isinstance(e, WorkerDeparture) for e in base)
        # The departures RNG is spawned after the historical four, so
        # enabling churn changes nothing about arrivals themselves.
        churned = list(self.workload(0.5).events(seed=9))
        assert [e for e in churned if not isinstance(e, WorkerDeparture)] == base

    def test_departures_are_deterministic_and_ordered(self):
        churned = list(self.workload(0.5).events(seed=9))
        assert churned == list(self.workload(0.5).events(seed=9))
        leaves = [e for e in churned if isinstance(e, WorkerDeparture)]
        assert leaves
        arrivals = {
            e.worker.id: e.time for e in churned if isinstance(e, WorkerArrival)
        }
        for leave in leaves:
            assert leave.time >= arrivals[leave.worker_id]
        assert [e.time for e in churned] == sorted(e.time for e in churned)

    def test_departures_validate(self):
        with pytest.raises(ConfigurationError):
            self.workload(1.5)


class TestSnapshotCorruption:
    def snapshot(self, tmp_path):
        instance = line_instance(num_tasks=2, num_workers=3, seed=0)
        cache = FlushSolverCache()
        cache.store("fp", UCESolver().solve(instance, seed=0), 1)
        path = tmp_path / "cache.json"
        cache.save(path)
        return path

    def test_bit_flipped_snapshot_starts_cold_with_a_warning(self, tmp_path):
        path = self.snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.warns(UserWarning, match="starting cold"):
            cache = FlushSolverCache.load(path, max_entries=7)
        assert len(cache) == 0
        assert cache.max_entries == 7

    def test_strict_load_still_raises(self, tmp_path):
        path = self.snapshot(tmp_path)
        path.write_text("{broken")
        with pytest.raises(Exception):
            FlushSolverCache.load(path, strict=True)

    def test_missing_snapshot_is_not_demoted(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FlushSolverCache.load(tmp_path / "nope.json")

    def test_injected_snapshot_corrupt_fault(self, tmp_path):
        path = self.snapshot(tmp_path)
        plan = FaultPlan(seed=0, rates={"snapshot_corrupt": 1.0})
        with fault_injection(plan):
            with pytest.warns(UserWarning, match="starting cold"):
                cache = FlushSolverCache.load(path)
            assert len(cache) == 0
            with pytest.raises(InjectedFault):
                FlushSolverCache.load(path, strict=True)
        # Plan gone: the same snapshot loads fine.
        assert len(FlushSolverCache.load(path)) == 1
