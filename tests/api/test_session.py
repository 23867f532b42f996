"""`DispatchSession`: the request-by-request service facade."""

import math

import pytest

from repro.api.options import SolveOptions
from repro.api.session import DispatchSession, SessionConfig
from repro.datasets.synthetic import NormalGenerator
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError
from repro.spatial.geometry import Point
from repro.stream.arrivals import PoissonProcess, StreamWorkload
from repro.stream.events import Assignment
from repro.stream.runner import StreamRunner
from repro.stream.simulator import StreamConfig


def fleet(session, n=4, at=0.0):
    for j in range(n):
        session.submit_worker(
            Worker(id=100 + j, location=Point(float(j), 0.0), radius=3.0), at=at
        )


class TestLifecycle:
    def test_submit_advance_drain(self):
        with DispatchSession("UCE", options=SolveOptions(seed=7, max_wait=0.1)) as s:
            fleet(s)
            s.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.05)
            s.advance(to_time=0.3)
            events = s.drain()
            assert len(events) == 1
            event = events[0]
            assert isinstance(event, Assignment)
            assert event.task_id == 0
            assert event.worker_id in (100, 101, 102, 103)
            assert event.method == "UCE"
            assert event.latency >= 0.0
            assert event.flush_index == 0
            # Drain is a cursor, not a replay.
            assert s.drain() == ()

    def test_clock_and_pending(self):
        session = DispatchSession("UCE", options=SolveOptions(max_wait=10.0))
        fleet(session)
        session.submit_task(Task(id=0, location=Point(0.0, 0.0), value=4.5), at=1.0)
        assert session.clock == 0.0
        session.advance(2.0)
        assert session.clock == 2.0
        assert session.pending_tasks == 1  # wait trigger not reached yet
        session.close()

    def test_method_reports_the_table_ix_name(self):
        assert DispatchSession("PDCE(ppcf=off)").method == "PDCE-nppcf"

    def test_past_arrivals_are_refused(self):
        session = DispatchSession("UCE")
        session.advance(5.0)
        with pytest.raises(ConfigurationError, match="in the past"):
            session.submit_task(Task(id=0, location=Point(0, 0), value=1.0), at=1.0)

    def test_finish_is_terminal(self):
        session = DispatchSession("UCE")
        fleet(session)
        stats = session.finish()
        assert stats.method == "UCE"
        with pytest.raises(ConfigurationError, match="finalized"):
            session.advance(1.0)
        with pytest.raises(ConfigurationError, match="finalized"):
            session.submit_worker(Worker(id=1, location=Point(0, 0), radius=1.0))

    def test_default_deadline_expires_ignored_tasks(self):
        # No workers ever arrive: the task must expire after the default
        # patience, not linger forever.
        session = DispatchSession("UCE", SessionConfig(default_deadline=0.5))
        session.submit_task(Task(id=0, location=Point(0, 0), value=1.0), at=0.0)
        session.advance(2.0)
        stats = session.finish()
        assert stats.expired == 1

    def test_bad_default_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="default_deadline"):
            DispatchSession("UCE", SessionConfig(default_deadline=0.0))

    def test_advance_expires_even_without_a_due_timer(self):
        # The only armed timer is the flush at max_wait=0.25; overdue
        # tasks must still be expired up to the advanced clock.
        session = DispatchSession("GRD", options=SolveOptions(max_wait=0.25))
        session.submit_task(
            Task(id=0, location=Point(0, 0), value=1.0), at=0.0, deadline=0.1
        )
        session.advance(0.2)
        assert session.stats.expired == 1
        assert session.pending_tasks == 0
        session.close()

    def test_explicit_deadline_is_absolute(self):
        session = DispatchSession("UCE", options=SolveOptions(max_wait=0.2))
        session.submit_task(
            Task(id=0, location=Point(0, 0), value=1.0), at=1.0, deadline=9.0
        )
        session.advance(8.0)
        assert session.stats.expired == 0
        session.advance(9.5)
        assert session.stats.expired == 1
        session.close()


class TestResourceLifecycle:
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_run_surfaces_solver_errors_in_process(self):
        """A raising solver fails the run in the caller's own process,
        even under the deprecated pooled-execution options."""
        import multiprocessing

        class ExplodingSolver:
            name = "BOOM"
            is_private = False

            def solve(self, instance, seed=None, options=None):
                raise RuntimeError("solver exploded")

        session = DispatchSession(
            ExplodingSolver(),
            options=SolveOptions(shards=2, parallel="process", max_wait=0.05),
        )
        fleet(session)
        session.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.01)
        with pytest.raises(RuntimeError, match="exploded"):
            session.run([])
        assert multiprocessing.active_children() == []

    def test_drain_releases_consumed_events(self):
        session = DispatchSession("UCE", options=SolveOptions(max_wait=0.05))
        fleet(session)
        session.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.01)
        session.advance(0.2)
        assert len(session.drain()) == 1
        # A long-lived session keeps only the undrained backlog.
        assert session._simulator.assignment_log == []
        session.submit_task(Task(id=1, location=Point(1.5, 0.0), value=4.5), at=0.3)
        session.advance(0.5)
        (event,) = session.drain()
        assert event.task_id == 1
        session.close()


class TestReplayEquivalence:
    def test_session_run_matches_stream_runner(self):
        workload = StreamWorkload(
            task_process=PoissonProcess(rate=25.0, horizon=1.0),
            worker_process=PoissonProcess(rate=8.0, horizon=1.0),
            spatial=NormalGenerator(num_tasks=100, num_workers=200, seed=3),
            initial_workers=30,
            seed=5,
        )
        config = StreamConfig(max_batch_size=15, max_wait=0.15)
        expected = StreamRunner(["PUCE"], config=config).run_workload(
            workload, seed=11
        )["PUCE"]
        session = DispatchSession("PUCE", SessionConfig(stream=config, seed=11))
        actual = session.run(workload.events(seed=11))
        assert actual.latencies == expected.latencies
        assert actual.privacy_timeline == expected.privacy_timeline
        assert actual.assigned == expected.assigned
        assert actual.total_utility == expected.total_utility

    def test_assignment_log_matches_stats(self):
        workload = StreamWorkload(
            task_process=PoissonProcess(rate=20.0, horizon=0.8),
            worker_process=PoissonProcess(rate=5.0, horizon=0.8),
            spatial=NormalGenerator(num_tasks=80, num_workers=160, seed=2),
            initial_workers=25,
            seed=4,
        )
        session = DispatchSession("UCE", options=SolveOptions(seed=9, max_wait=0.1))
        stats = session.run(workload.events(seed=9))
        log = session.drain()
        assert len(log) == stats.assigned
        assert sorted(e.latency for e in log) == sorted(stats.latencies)
        assert [e.flush_index for e in log] == sorted(e.flush_index for e in log)
        assert math.isclose(sum(e.utility for e in log), stats.total_utility)


class TestSessionConfig:
    def test_defaults_validate(self):
        config = SessionConfig()
        assert config.default_deadline == 1.0
        assert config.record_assignments is True
        assert config.seed is None

    def test_bad_options_type(self):
        with pytest.raises(ConfigurationError, match="options"):
            SessionConfig(options={"seed": 3})

    def test_bad_deadline(self):
        with pytest.raises(ConfigurationError, match="default_deadline"):
            SessionConfig(default_deadline=-1.0)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            SessionConfig(seed=seed)

    def test_from_mapping_round_trip(self):
        config = SessionConfig(
            options=SolveOptions(seed=3, max_wait=0.1),
            seed=7,
            default_deadline=0.5,
            record_assignments=False,
        )
        assert SessionConfig.from_mapping(config.to_dict()) == config

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="typo"):
            SessionConfig.from_mapping({"typo": 1})

    def test_from_mapping_refuses_process_local_fields(self):
        with pytest.raises(ConfigurationError, match="process-local"):
            SessionConfig.from_mapping({"cache": {"max_entries": 4}})

    def test_replace_revalidates(self):
        config = SessionConfig()
        with pytest.raises(ConfigurationError, match="default_deadline"):
            config.replace(default_deadline=0.0)

    def test_session_and_options_together_refused(self):
        with pytest.raises(ConfigurationError, match="not both"):
            DispatchSession(
                "UCE", SessionConfig(), options=SolveOptions(seed=1)
            )

    def test_unknown_kwarg_refused(self):
        with pytest.raises(ConfigurationError, match="tracer"):
            DispatchSession("UCE", tracer=object())


class TestLegacyKwargShims:
    """The pre-SessionConfig keywords: warn, but drift by not one bit."""

    def small_events(self, seed=3):
        workload = StreamWorkload(
            task_process=PoissonProcess(rate=20.0, horizon=0.8),
            worker_process=PoissonProcess(rate=6.0, horizon=0.8),
            spatial=NormalGenerator(num_tasks=80, num_workers=160, seed=2),
            initial_workers=20,
            seed=seed,
        )
        return list(workload.events(seed=seed))

    def test_legacy_kwargs_warn(self):
        with pytest.warns(DeprecationWarning, match="SessionConfig"):
            session = DispatchSession("UCE", default_deadline=0.5)
        session.close()

    def test_legacy_kwargs_with_config_refused(self):
        with pytest.raises(ConfigurationError, match="alongside"):
            DispatchSession("UCE", SessionConfig(), seed=3)

    def test_legacy_run_is_bit_identical(self):
        events = self.small_events()
        config = StreamConfig(max_batch_size=12, max_wait=0.15)
        with pytest.warns(DeprecationWarning):
            legacy = DispatchSession(
                "PUCE", config=config, seed=11, record_assignments=False
            )
        old = legacy.run(events)
        modern = DispatchSession(
            "PUCE",
            SessionConfig(stream=config, seed=11, record_assignments=False),
        )
        new = modern.run(events)
        assert old.latencies == new.latencies
        assert old.privacy_timeline == new.privacy_timeline
        assert old.total_utility == new.total_utility
        assert old.assigned == new.assigned

    def test_legacy_cache_kwarg_shares_the_cache(self):
        from repro.stream.cache import FlushSolverCache

        shared = FlushSolverCache()
        events = self.small_events()
        with pytest.warns(DeprecationWarning):
            session = DispatchSession("UCE", cache=shared, seed=5)
        session.run(events)
        assert len(shared) > 0


class TestApplyWireRecords:
    def test_apply_drives_a_full_session(self):
        from repro.api.wire import (
            Advance,
            Drain,
            Finish,
            SubmitTask,
            SubmitWorker,
        )

        session = DispatchSession("UCE", options=SolveOptions(max_wait=0.1))
        session.apply(
            SubmitWorker(worker_id=1, x=0.0, y=0.0, radius=5.0)
        )
        session.apply(
            SubmitTask(task_id=1, x=0.1, y=0.1, value=1.0)
        )
        session.apply(Advance(to_time=1.0))
        events = session.apply(Drain())
        assert len(events) == 1
        stats = session.apply(Finish())
        assert stats.assigned == 1

    def test_apply_refuses_reply_records(self):
        from repro.api.wire import AckReply

        session = DispatchSession("UCE")
        with pytest.raises(ConfigurationError, match="AckReply"):
            session.apply(AckReply())
        session.close()

    def test_apply_default_deadline_applies(self):
        from repro.api.wire import Advance, Finish, SubmitTask

        session = DispatchSession("UCE", SessionConfig(default_deadline=0.25))
        session.apply(SubmitTask(task_id=0, x=0.0, y=0.0, value=1.0))
        session.apply(Advance(to_time=2.0))
        stats = session.apply(Finish())
        assert stats.expired == 1


class TestBudgetStatus:
    def test_global_session_reports_lifetime_totals(self):
        with DispatchSession("PUCE", options=SolveOptions(seed=3, max_wait=0.1)) as s:
            for j in range(3):
                s.submit_worker(
                    Worker(id=j, location=Point(float(j), 0.0), radius=3.0),
                    budget=40.0,
                )
            s.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.05)
            s.advance(to_time=0.5)
            reply = s.budget_status()
            assert reply.worker_id is None
            assert reply.window_seconds is None
            assert reply.remaining is None  # no tenant cap at session level
            assert reply.spend == pytest.approx(s.budget_spend())
            assert reply.lifetime_spend == pytest.approx(reply.spend)
            assert reply.spend > 0.0

    def test_worker_level_reading_maps_infinite_remaining_to_none(self):
        with DispatchSession("UCE", options=SolveOptions(max_wait=0.1)) as s:
            s.submit_worker(Worker(id=7, location=Point(0.0, 0.0), radius=3.0))
            reply = s.budget_status(worker_id=7)
            assert reply.worker_id == 7
            assert reply.spend == 0.0
            assert reply.remaining is None  # inf capacity: null on the wire

    def test_worker_level_reading_under_a_capped_budget(self):
        with DispatchSession("PUCE", options=SolveOptions(seed=3, max_wait=0.1)) as s:
            s.submit_worker(
                Worker(id=0, location=Point(0.0, 0.0), radius=3.0), budget=40.0
            )
            s.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.05)
            s.advance(to_time=0.5)
            reply = s.budget_status(worker_id=0)
            assert reply.spend > 0.0
            assert reply.remaining == pytest.approx(40.0 - reply.spend)

    def test_windowed_session_spend_falls_as_releases_age_out(self):
        options = SolveOptions(
            seed=3, max_wait=0.1, window_seconds=2.0, window_budget=40.0
        )
        with DispatchSession("PUCE", options=options) as s:
            s.submit_worker(
                Worker(id=0, location=Point(0.0, 0.0), radius=3.0), budget=40.0
            )
            s.submit_task(Task(id=0, location=Point(0.5, 0.0), value=4.5), at=0.05)
            s.advance(to_time=0.5)
            live = s.budget_status()
            assert live.window_seconds == 2.0
            assert live.spend > 0.0
            assert s.budget_spend() == pytest.approx(live.spend)
            # Two window-widths later the release has aged out: the
            # tenant-level spend regenerates, the lifetime audit doesn't.
            s.advance(to_time=5.0)
            later = s.budget_status()
            assert later.spend == 0.0
            assert later.lifetime_spend == pytest.approx(live.lifetime_spend)
            assert s.budget_spend() == 0.0
