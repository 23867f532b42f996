"""Unit tests for the flush cut, its in-process solve and its stream wiring."""

import pytest

from repro.api.options import SolveOptions
from repro.core.registry import make_solver
from repro.datasets.synthetic import NormalGenerator
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError, InvalidInstanceError
from repro.simulation.instance import ProblemInstance
from repro.spatial.geometry import Point
from repro.stream import (
    PoissonProcess,
    StreamConfig,
    StreamRunner,
    StreamWorkload,
)
from repro.stream.shards import (
    ShardSeedSchedule,
    build_shard_instance,
    cut_flush,
    merge_shard_results,
    solve_flush,
)


def two_cluster_instance(gap=100.0):
    """Two spatially separated clusters -> exactly two components."""
    tasks = [
        Task(id=0, location=Point(0.0, 0.0), value=4.5),
        Task(id=1, location=Point(1.0, 0.0), value=4.5),
        Task(id=2, location=Point(gap, 0.0), value=4.5),
        Task(id=3, location=Point(gap + 1.0, 0.0), value=4.5),
    ]
    workers = [
        Worker(id=10, location=Point(0.5, 0.0), radius=2.0),
        Worker(id=11, location=Point(gap + 0.5, 0.0), radius=2.0),
    ]
    return ProblemInstance.build(tasks, workers, seed=0)


class TestCut:
    def test_two_clusters_two_components(self):
        instance = two_cluster_instance()
        cut = cut_flush(instance, min_shard_pairs=0)
        assert cut.num_components == 2
        assert cut.components[0].workers == (0,)
        assert cut.components[1].workers == (1,)
        assert cut.components[0].tasks == (0, 1)
        assert cut.components[1].tasks == (2, 3)
        assert cut.orphan_tasks == ()
        assert cut.orphan_workers == ()

    def test_coalescing_folds_dust_into_one_unit(self):
        instance = two_cluster_instance()
        cut = cut_flush(instance)  # default threshold far above 4 pairs
        assert cut.num_components == 1
        only = cut.components[0]
        assert only.tasks == (0, 1, 2, 3)
        assert only.workers == (0, 1)
        assert only.pair_count == instance.num_feasible_pairs

    def test_at_threshold_component_stands_alone(self):
        """Dust never merges into a component that meets the threshold."""
        tasks = [
            Task(id=0, location=Point(0.0, 0.0), value=4.5),
            Task(id=1, location=Point(1.0, 0.0), value=4.5),
            Task(id=2, location=Point(200.0, 0.0), value=4.5),
            Task(id=3, location=Point(201.0, 0.0), value=4.5),
        ]
        workers = [
            Worker(id=10, location=Point(0.5, 0.0), radius=2.0),  # 2 pairs: dust
            Worker(id=11, location=Point(200.3, 0.0), radius=2.0),
            Worker(id=12, location=Point(200.7, 0.0), radius=2.0),
        ]
        instance = ProblemInstance.build(tasks, workers, seed=0)
        cut = cut_flush(instance, min_shard_pairs=3)
        # Cluster B (workers 1+2, 4 pairs) meets the threshold alone; the
        # leading dust (worker 0, 2 pairs) forms its own unit.
        assert [c.workers for c in cut.components] == [(0,), (1, 2)]
        assert [c.pair_count for c in cut.components] == [2, 4]

    def test_component_key_is_min_global_worker_index(self):
        instance = two_cluster_instance()
        cut = cut_flush(instance, min_shard_pairs=0)
        assert [c.key for c in cut.components] == [0, 1]

    def test_orphans_belong_to_no_shard(self):
        tasks = [
            Task(id=0, location=Point(0.0, 0.0), value=4.5),
            Task(id=1, location=Point(500.0, 0.0), value=4.5),  # unreachable
        ]
        workers = [
            Worker(id=0, location=Point(0.2, 0.0), radius=1.0),
            Worker(id=1, location=Point(900.0, 0.0), radius=1.0),  # reaches nothing
        ]
        instance = ProblemInstance.build(tasks, workers, seed=0)
        cut = cut_flush(instance, min_shard_pairs=0)
        assert cut.orphan_tasks == (1,)
        assert cut.orphan_workers == (1,)
        assert cut.num_components == 1

    def test_empty_instance_has_no_components(self):
        instance = ProblemInstance.build([], [], seed=0)
        cut = cut_flush(instance)
        assert cut.num_components == 0


class TestSubInstances:
    def test_sub_instance_keeps_global_ids(self):
        instance = two_cluster_instance()
        cut = cut_flush(instance, min_shard_pairs=0)
        sub = build_shard_instance(instance, cut.components[1])
        assert [t.id for t in sub.tasks] == [2, 3]
        assert [w.id for w in sub.workers] == [11]
        assert sub.num_feasible_pairs == cut.components[1].pair_count

    def test_subset_rejects_unclosed_worker_selection(self):
        instance = two_cluster_instance()
        with pytest.raises(InvalidInstanceError, match="not task-closed"):
            # Worker 0 reaches tasks 0/1, but only task 0 is selected.
            instance.pairs.subset([0], [0])


class TestExecutor:
    """:func:`solve_flush`: one flush's cut, solved unit by unit in-process."""

    def test_empty_flush_solves_to_empty_result(self):
        instance = ProblemInstance.build([], [], seed=0)
        result, cut, mode = solve_flush(make_solver("PUCE"), instance, ShardSeedSchedule((0,)))
        assert cut.num_components == 0
        assert mode == "seq"
        assert result.matched_count == 0
        assert result.publishes == 0
        assert result.total_privacy_spend == 0.0

    def test_merged_result_aggregates_counters(self):
        instance = two_cluster_instance()
        solver = make_solver("PUCE")
        merged, cut, mode = solve_flush(
            solver, instance, ShardSeedSchedule((0,)), min_shard_pairs=0
        )
        assert cut.num_components == 2
        assert mode == "seq"
        parts = [
            solver.solve(
                build_shard_instance(instance, component),
                seed=ShardSeedSchedule((0,)).generator(component.key),
            )
            for component in cut.components
        ]
        assert merged.publishes == sum(p.publishes for p in parts)
        assert merged.rounds == max(p.rounds for p in parts)
        assert dict(merged.matching) == {t: w for p in parts for t, w in p.matching}

    def test_merge_orders_ledger_by_component_key(self):
        instance = two_cluster_instance()
        solver = make_solver("PUCE")
        schedule = ShardSeedSchedule((0,))
        merged, cut, _ = solve_flush(solver, instance, schedule, min_shard_pairs=0)
        keyed = [
            (
                component.key,
                solver.solve(
                    build_shard_instance(instance, component),
                    seed=schedule.generator(component.key),
                ),
            )
            for component in cut.components
        ]
        rebuilt = merge_shard_results(instance, solver.name, keyed[::-1], 0.0)
        assert list(rebuilt.ledger.events()) == list(merged.ledger.events())

    @pytest.mark.parametrize("method", ["PUCE", "PDCE", "UCE", "DCE"])
    def test_single_unit_fast_path_matches_sub_instance_solve(self, method):
        """The fast path (full instance, orphans and all) is bit-identical
        to solving the unit's sub-instance — the engine draws noise per
        pair in CSR order, so orphan tasks/workers cannot shift it."""
        instance = NormalGenerator(num_tasks=30, num_workers=60, seed=4).instance(
            task_value=4.5, worker_range=1.4
        )
        solver = make_solver(method)
        schedule = ShardSeedSchedule((4, 1))
        merged, cut, mode = solve_flush(solver, instance, schedule)
        assert cut.num_components == 1
        assert mode == "uns"
        assert cut.orphan_workers  # the interesting case: orphans present
        component = cut.components[0]
        slow = solver.solve(
            build_shard_instance(instance, component),
            seed=schedule.generator(component.key),
        )
        assert dict(merged.matching) == dict(slow.matching)
        assert list(merged.ledger.events()) == list(slow.ledger.events())
        assert merged.publishes == slow.publishes
        assert set(merged.release_board) == set(slow.release_board)

    def test_matched_pairs_evaluate_on_the_full_instance(self):
        instance = two_cluster_instance()
        merged, _, _ = solve_flush(
            make_solver("UCE"), instance, ShardSeedSchedule((0,)), min_shard_pairs=0
        )
        full = make_solver("UCE").solve(instance, seed=0)
        assert {
            (p.task_id, p.worker_id, p.distance, p.utility) for p in merged.matched_pairs()
        } == {(p.task_id, p.worker_id, p.distance, p.utility) for p in full.matched_pairs()}


class TestStreamWiring:
    def _workload(self, seed=0):
        return StreamWorkload(
            task_process=PoissonProcess(rate=60.0, horizon=1.5),
            worker_process=PoissonProcess(rate=20.0, horizon=1.5),
            spatial=NormalGenerator(num_tasks=200, num_workers=400, seed=seed),
            initial_workers=40,
            task_deadline=1.0,
            worker_budget=40.0,
            seed=seed,
        )

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_stream_stats_identical_across_shard_counts(self):
        """The deprecated ``shards`` option has no effect on a stream."""
        events = self._workload().events(seed=0)
        outcomes = []
        for shards in ("auto", 1, 2, 8):
            options = SolveOptions(max_batch_size=25, max_wait=0.2, shards=shards)
            stats = StreamRunner(["PUCE"], options=options).run(events, seed=0)["PUCE"]
            outcomes.append(
                (
                    stats.assigned,
                    stats.expired,
                    tuple(stats.latencies),
                    stats.total_privacy_spend,
                    tuple(sorted(stats.per_worker_spend.items())),
                    tuple(f.shards for f in stats.flushes),
                )
            )
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_flush_records_report_shards_and_batch_limit(self):
        workload = self._workload()
        config = StreamConfig(max_batch_size=25, max_wait=0.2)
        report = StreamRunner(["UCE"], config=config).run(workload.events(seed=0), seed=0)
        records = report["UCE"].flushes
        assert any(f.pairs == 0 for f in records)
        assert all((f.shards == 0) == (f.pairs == 0) for f in records)
        assert all(f.batch_limit == 25 for f in records)

    def test_flush_records_carry_the_solve_mode(self):
        workload = self._workload()
        config = StreamConfig(max_batch_size=25, max_wait=0.2)
        stats = StreamRunner(["PUCE"], config=config).run(workload.events(seed=0), seed=0)[
            "PUCE"
        ]
        assert {f.planned_mode for f in stats.flushes} <= {"uns", "seq"}
        assert all((f.planned_mode == "uns") == (f.shards == 1) for f in stats.flushes)
        assert all(f.degraded is None for f in stats.flushes)
        assert stats.plan_summary != "-"

    def test_parallel_requires_shards(self):
        # The deprecated keys are still validated exactly as before they
        # went inert: only a forced-unsharded config rejects a parallel mode.
        with pytest.raises(ConfigurationError, match="requires shards"):
            SolveOptions(shards=0, parallel="thread")
        with pytest.raises(ConfigurationError, match="parallel mode"):
            SolveOptions(shards=2, parallel="bogus")
        with pytest.warns(DeprecationWarning):
            SolveOptions(parallel="thread")

    def test_adaptive_shrinks_to_floor_under_impossible_target(self):
        """A target no flush can meet walks the limit down to the floor."""
        workload = self._workload()
        config = StreamConfig(
            max_batch_size=25,
            max_wait=0.2,
            adaptive=True,
            target_flush_seconds=1e-9,
            adaptive_min_batch=4,
        )
        report = StreamRunner(["UCE"], config=config).run(workload.events(seed=0), seed=0)
        records = report["UCE"].flushes
        limits = [f.batch_limit for f in records]
        assert limits[0] == 25
        assert all(a >= b for a, b in zip(limits, limits[1:]))
        assert limits[-1] == 4

    def test_adaptive_off_keeps_limit_fixed(self):
        workload = self._workload()
        config = StreamConfig(max_batch_size=25, max_wait=0.2)
        report = StreamRunner(["UCE"], config=config).run(workload.events(seed=0), seed=0)
        assert {f.batch_limit for f in report["UCE"].flushes} == {25}
