"""Bit-identity of the flush hot path: the flush-fingerprint solver cache.

Two guarantees pin it:

* **Cache on == cache off.**  A stream run with the flush-fingerprint
  solver cache enabled is bit-identical (stats, flush records, privacy
  timeline, per-worker ledgers) to the same run without it, for private
  and non-private methods alike, under hypothesis-chosen workloads.
* **Budget carry is part of the key.**  Two flushes that share pair
  arrays but differ only in the workers' *remaining* shift budgets must
  be a cache miss (the regression the naive content-hash would get
  wrong).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.options import SolveOptions
from repro.datasets.synthetic import NormalGenerator
from repro.stream.arrivals import PoissonProcess, StreamWorkload
from repro.stream.cache import (
    FlushSolverCache,
    cache_profile,
    flush_fingerprint,
    flush_inputs_fingerprint,
)
from repro.stream.runner import StreamRunner

STREAM_METHODS = ("PUCE", "UCE", "PDCE", "GRD", "PGT")


def generated_instance(seed, num_tasks=18, num_workers=36):
    return NormalGenerator(
        num_tasks=num_tasks, num_workers=num_workers, seed=seed
    ).instance(task_value=4.5, worker_range=1.4)


def small_workload(workload_seed):
    return StreamWorkload(
        task_process=PoissonProcess(rate=24.0, horizon=1.0),
        worker_process=PoissonProcess(rate=6.0, horizon=1.0),
        spatial=NormalGenerator(num_tasks=80, num_workers=160, seed=workload_seed),
        initial_workers=12,
        task_deadline=0.8,
        worker_budget=18.0,
        seed=workload_seed,
    )


def assert_streams_identical(actual, expected):
    """Full-stats equality, wall-clock timing and cache counters excluded."""
    assert actual.arrived_tasks == expected.arrived_tasks
    assert actual.assigned == expected.assigned
    assert actual.expired == expected.expired
    assert actual.leftover == expected.leftover
    assert actual.total_utility == expected.total_utility
    assert actual.total_distance == expected.total_distance
    assert actual.latencies == expected.latencies
    assert actual.privacy_timeline == expected.privacy_timeline
    assert actual.per_worker_spend == expected.per_worker_spend
    assert len(actual.flushes) == len(expected.flushes)
    for mine, theirs in zip(actual.flushes, expected.flushes):
        assert (mine.index, mine.time, mine.pending_tasks, mine.idle_workers) == (
            theirs.index,
            theirs.time,
            theirs.pending_tasks,
            theirs.idle_workers,
        )
        assert (mine.matched, mine.cumulative_privacy_spend, mine.shards) == (
            theirs.matched,
            theirs.cumulative_privacy_spend,
            theirs.shards,
        )


class TestCacheOnOffEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        workload_seed=st.integers(0, 2**20),
        run_seed=st.integers(0, 2**20),
        method=st.sampled_from(STREAM_METHODS),
    )
    def test_cached_stream_is_bit_identical(self, workload_seed, run_seed, method):
        workload = small_workload(workload_seed)
        events = workload.events(seed=run_seed)
        reports = {}
        for cache in (False, True):
            options = SolveOptions(
                seed=run_seed, max_batch_size=10, max_wait=0.12, cache=cache
            )
            reports[cache] = StreamRunner([method], options=options).run(
                events, seed=run_seed
            )[method]
        assert_streams_identical(reports[True], reports[False])
        # The cache-off run must carry no counters.  Cache-on: pure
        # methods classify every flush; content-sensitive ones provably
        # cannot hit a per-stream cache, so the machinery is skipped.
        assert reports[False].cache_hits == reports[False].cache_misses == 0
        total = reports[True].cache_hits + reports[True].cache_misses
        if method in ("UCE", "GRD"):
            assert total == len(reports[True].flushes)
        else:
            assert total == 0

    @settings(max_examples=4, deadline=None)
    @given(
        workload_seed=st.integers(0, 2**20),
        run_seed=st.integers(0, 2**20),
    )
    def test_cached_sharded_stream_is_bit_identical(self, workload_seed, run_seed):
        workload = small_workload(workload_seed)
        events = workload.events(seed=run_seed)
        reports = {}
        for cache in (False, True):
            options = SolveOptions(
                seed=run_seed,
                max_batch_size=10,
                max_wait=0.12,
                cache=cache,
            )
            reports[cache] = StreamRunner(["PUCE"], options=options).run(
                events, seed=run_seed
            )["PUCE"]
        assert_streams_identical(reports[True], reports[False])

    def test_shared_cache_across_identical_runs_hits_for_private_methods(self):
        # Private fingerprints include the per-flush noise key, so hits
        # require the whole (seed, flush, method) context to recur —
        # exactly what a repeated run through one shared cache does.
        workload = small_workload(3)
        events = workload.events(seed=5)
        options = SolveOptions(seed=5, max_batch_size=10, max_wait=0.12)
        shared = FlushSolverCache()
        from repro.api.session import DispatchSession, SessionConfig

        stats = []
        for _ in range(2):
            session = DispatchSession(
                "PUCE",
                SessionConfig(
                    options=options, record_assignments=False, cache=shared
                ),
            )
            stats.append(session.run(events))
        assert stats[1].cache_hits == len(stats[1].flushes)
        assert_streams_identical(stats[1], stats[0])


class TestBudgetCarryFingerprint:
    def test_same_arrays_different_remaining_budgets_must_miss(self):
        """The regression the issue pins: budget carry keys the cache."""
        instance = generated_instance(9, 8, 12)
        from repro.core.puce import PUCESolver

        profile = cache_profile(PUCESolver())
        noise_key = (0, 1, 2)
        base = flush_fingerprint(
            instance, profile, noise_key=noise_key,
            remaining_budgets=(10.0, 10.0, 4.0),
        )
        same = flush_fingerprint(
            instance, profile, noise_key=noise_key,
            remaining_budgets=(10.0, 10.0, 4.0),
        )
        drained = flush_fingerprint(
            instance, profile, noise_key=noise_key,
            remaining_budgets=(10.0, 10.0, 3.5),
        )
        assert base == same
        assert base != drained

    def test_input_fingerprint_keys_on_remaining_budgets_too(self):
        """Same regression at the pre-build (zero-rebuild) layer: the
        simulator fingerprints flush inputs before any instance exists,
        and budget carry must still force a miss."""
        from repro.core.budgets import BudgetSampler
        from repro.core.puce import PUCESolver
        from repro.core.utility import UtilityModel

        instance = generated_instance(9, 8, 12)
        profile = cache_profile(PUCESolver())
        model, sampler = UtilityModel(), BudgetSampler()
        common = dict(
            build_key=(0, 1, 0x5EED),
            noise_key=(0, 1, 2),
        )
        base = flush_inputs_fingerprint(
            instance.tasks, instance.workers, model, sampler, profile,
            remaining_budgets=(10.0,) * 12, **common,
        )
        same = flush_inputs_fingerprint(
            instance.tasks, instance.workers, model, sampler, profile,
            remaining_budgets=(10.0,) * 12, **common,
        )
        drained = flush_inputs_fingerprint(
            instance.tasks, instance.workers, model, sampler, profile,
            remaining_budgets=(10.0,) * 11 + (9.5,), **common,
        )
        assert base == same
        assert base != drained
        # Pure profiles ignore budgets, seeds and noise entirely.
        pure = cache_profile(
            __import__("repro.core.nonprivate", fromlist=["UCESolver"]).UCESolver()
        )
        a = flush_inputs_fingerprint(
            instance.tasks, instance.workers, model, sampler, pure,
            build_key=(0, 1, 0x5EED), noise_key=(0, 1, 2),
        )
        b = flush_inputs_fingerprint(
            instance.tasks, instance.workers, model, sampler, pure,
            build_key=(0, 99, 0x5EED), noise_key=(9, 9, 9),
            remaining_budgets=(1.0,),
        )
        assert a == b

    def test_noise_key_is_part_of_private_fingerprints(self):
        instance = generated_instance(9, 8, 12)
        from repro.core.puce import PUCESolver

        profile = cache_profile(PUCESolver())
        budgets = (10.0,) * instance.num_workers
        a = flush_fingerprint(
            instance, profile, noise_key=(0, 1, 2), remaining_budgets=budgets
        )
        b = flush_fingerprint(
            instance, profile, noise_key=(0, 2, 2), remaining_budgets=budgets
        )
        assert a != b

    def test_pure_solvers_ignore_noise_and_budget_state(self):
        from repro.core.nonprivate import UCESolver

        instance = generated_instance(9, 8, 12)
        profile = cache_profile(UCESolver())
        assert not profile.content_sensitive
        a = flush_fingerprint(instance, profile, noise_key=(0, 1, 2))
        b = flush_fingerprint(
            instance, profile, noise_key=(9, 9, 9), remaining_budgets=(1.0,)
        )
        assert a == b

    def test_unknown_solver_classes_are_conservative(self):
        class MysterySolver:
            name = "???"
            is_private = False

            def solve(self, instance, seed=None, options=None):
                raise NotImplementedError

        assert cache_profile(MysterySolver()).content_sensitive
