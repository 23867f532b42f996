"""The flush-fingerprint solver cache in the streaming stack."""

import pytest

from repro.api.options import SolveOptions
from repro.api.scenario import ScenarioSpec
from repro.core.nonprivate import UCESolver
from repro.errors import ConfigurationError
from repro.stream.cache import FlushSolverCache, cache_profile, flush_fingerprint
from repro.stream.runner import StreamRunner
from tests.conftest import line_instance


class TestFlushSolverCache:
    def test_lru_eviction_keeps_the_most_recent(self):
        cache = FlushSolverCache(max_entries=2)
        instance = line_instance(num_tasks=2, num_workers=3, seed=0)
        result = UCESolver().solve(instance, seed=0)
        cache.store("a", result, 1)
        cache.store("b", result, 1)
        assert cache.lookup("a", instance) is not None  # refreshes "a"
        cache.store("c", result, 1)  # evicts "b", the LRU entry
        assert cache.lookup("b", instance) is None
        assert cache.lookup("a", instance) is not None
        assert cache.lookup("c", instance) is not None
        assert len(cache) == 2

    def test_counters_and_hit_rate(self):
        cache = FlushSolverCache()
        instance = line_instance(num_tasks=2, num_workers=3, seed=0)
        assert cache.hit_rate == 0.0
        assert cache.lookup("a", instance) is None
        cache.store("a", UCESolver().solve(instance, seed=0), 1)
        assert cache.lookup("a", instance) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_hits_rebind_to_the_fresh_instance_when_given(self):
        cache = FlushSolverCache()
        instance = line_instance(num_tasks=2, num_workers=3, seed=0)
        twin = line_instance(num_tasks=2, num_workers=3, seed=0)
        cache.store("a", UCESolver().solve(instance, seed=0), 3)
        hit, shards = cache.lookup("a", twin)
        assert hit.instance is twin
        assert shards == 3
        assert hit.elapsed_seconds == 0.0
        # The zero-rebuild path looks up before any instance exists.
        bare, _ = cache.lookup("a")
        assert bare.instance is instance
        assert bare.elapsed_seconds == 0.0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            FlushSolverCache(max_entries=0)

    def test_clear_drops_entries_not_counters(self):
        cache = FlushSolverCache()
        instance = line_instance(num_tasks=2, num_workers=3, seed=0)
        cache.store("a", UCESolver().solve(instance, seed=0), 1)
        cache.lookup("a", instance)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestFingerprintContent:
    def test_public_ids_are_part_of_the_key(self):
        instance = line_instance(num_tasks=3, num_workers=4, seed=1)
        relabeled = type(instance)(
            tasks=[
                type(t)(id=t.id + 100, location=t.location, value=t.value)
                for t in instance.tasks
            ],
            workers=instance.workers,
            model=instance.model,
            reachable=instance.reachable,
            pairs=instance.pairs,
        )
        profile = cache_profile(UCESolver())
        assert flush_fingerprint(instance, profile) != flush_fingerprint(
            relabeled, profile
        )

    def test_method_configuration_is_part_of_the_key(self):
        instance = line_instance(num_tasks=3, num_workers=4, seed=1)
        a = flush_fingerprint(instance, cache_profile(UCESolver()))
        b = flush_fingerprint(instance, cache_profile(UCESolver(max_rounds=7)))
        c = flush_fingerprint(
            instance, cache_profile(UCESolver(), shard_key="cut(min_pairs=192)")
        )
        assert len({a, b, c}) == 3


class TestPlannedCutInTheKey:
    def test_simulator_cache_key_carries_the_cut_config(self):
        """Two streams differing only in the cut's coalescing floor must
        never alias: the simulator bakes ``cut(min_pairs=N)`` into the
        cache profile.  The string is part of persisted snapshot keys, so
        it must not change while the floor does not."""
        from repro.stream.simulator import DispatchSimulator, StreamConfig

        simulator = DispatchSimulator(
            UCESolver(),
            config=StreamConfig(cache=True),
        )
        assert "cut(min_pairs=192)" in simulator._cache_profile.method_key
        a = cache_profile(UCESolver(), shard_key="cut(min_pairs=192)")
        b = cache_profile(UCESolver(), shard_key="cut(min_pairs=64)")
        assert a.method_key != b.method_key


class TestDutyCycleScenario:
    """The checked-in duty-cycle artifact must exercise the cache."""

    def test_duty_cycle_scenario_hits_the_cache(self):
        spec = ScenarioSpec.from_file("examples/scenario_duty_cycle.json")
        assert spec.options.cache is True
        report = spec.run()
        uce = report["UCE"]
        # The smoke assertion CI relies on: a duty-cycle fleet re-flushes
        # recurring loser sets, so the pure methods must hit (>0%).
        assert uce.cache_hits > 0
        assert uce.cache_hit_rate > 0.0
        assert uce.cache_hits + uce.cache_misses == len(uce.flushes)
        hit_flags = [f.cache_hit for f in uce.flushes]
        assert all(flag in (True, False) for flag in hit_flags)
        assert sum(hit_flags) == uce.cache_hits
        # Private methods key on the per-flush noise schedule: inside a
        # single stream their fingerprints can provably never repeat, so
        # the per-stream cache skips the machinery entirely (no hits, no
        # misses, no stored entries — and no fingerprint overhead).
        puce = report["PUCE"]
        assert puce.cache_hits == 0
        assert puce.cache_misses == 0
        assert all(f.cache_hit is None for f in puce.flushes)

    def test_cache_served_flushes_are_labelled_cache(self):
        # duty_cycle ships with cache=true and UCE is cache-eligible.
        stats = ScenarioSpec.from_file("examples/scenario_duty_cycle.json").run()["UCE"]
        assert stats.cache_hits > 0
        served = [f for f in stats.flushes if f.planned_mode == "cache"]
        assert len(served) == stats.cache_hits
        assert all(f.cache_hit for f in served)
        assert "cache" in stats.plan_summary

    def test_rush_hour_scenario_enables_the_cache(self):
        spec = ScenarioSpec.from_file("examples/scenario_rush_hour.json")
        assert spec.options.cache is True


class TestCacheOffByDefault:
    def test_default_stream_runs_leave_cache_fields_untouched(self):
        from repro.datasets.synthetic import NormalGenerator
        from repro.stream.arrivals import PoissonProcess, StreamWorkload

        workload = StreamWorkload(
            task_process=PoissonProcess(rate=15.0, horizon=0.5),
            worker_process=PoissonProcess(rate=5.0, horizon=0.5),
            spatial=NormalGenerator(num_tasks=40, num_workers=80, seed=2),
            initial_workers=10,
            seed=2,
        )
        stats = StreamRunner(
            ["UCE"], options=SolveOptions(max_batch_size=8, max_wait=0.1)
        ).run_workload(workload, seed=2)["UCE"]
        assert stats.cache_hits == stats.cache_misses == 0
        assert all(f.cache_hit is None for f in stats.flushes)
