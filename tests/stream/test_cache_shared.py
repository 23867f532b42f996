"""The shared cache under service duty: bounds and threads."""

import threading

import pytest

from repro.core.nonprivate import UCESolver
from repro.errors import ConfigurationError
from repro.stream.cache import FlushSolverCache
from tests.conftest import line_instance


def solved(seed=0, num_tasks=2, num_workers=3):
    instance = line_instance(
        num_tasks=num_tasks, num_workers=num_workers, seed=seed
    )
    return instance, UCESolver().solve(instance, seed=seed)


class TestEvictionBounds:
    def test_entry_bound_holds_under_overfill(self):
        cache = FlushSolverCache(max_entries=3)
        _, result = solved()
        for i in range(10):
            cache.store(f"k{i}", result, 1)
        assert len(cache) == 3
        assert cache.evictions == 7
        # The survivors are the three most recently stored.
        assert cache.lookup("k9") is not None
        assert cache.lookup("k0") is None

    def test_byte_bound_evicts_oldest_first(self):
        _, result = solved()
        cache = FlushSolverCache(max_entries=100, max_bytes=1)
        cache.store("a", result, 1)
        # The newest entry always survives, even over the byte bound:
        # an empty cache defeats its purpose.
        assert len(cache) == 1
        cache.store("b", result, 1)
        assert len(cache) == 1
        assert cache.lookup("b") is not None
        assert cache.lookup("a") is None

    def test_total_bytes_tracks_entries(self):
        _, result = solved()
        cache = FlushSolverCache(max_entries=2)
        assert cache.total_bytes == 0
        cache.store("a", result, 1)
        one = cache.total_bytes
        assert one > 0
        cache.store("b", result, 1)
        assert cache.total_bytes == 2 * one
        cache.store("c", result, 1)  # evicts "a" and its bytes
        assert cache.total_bytes == 2 * one

    def test_restore_does_not_double_count(self):
        _, result = solved()
        cache = FlushSolverCache()
        cache.store("a", result, 1)
        one = cache.total_bytes
        cache.store("a", result, 2)  # same key: replaces, not accumulates
        assert cache.total_bytes == one

    def test_bad_byte_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            FlushSolverCache(max_bytes=0)


class TestThreadSafety:
    def test_interleaved_get_store_under_threads(self):
        """Many sessions hammering one cache: no lost updates, no tears.

        The dict invariants (len <= bound, bytes consistent) must hold
        after arbitrary interleavings of store/lookup.
        """
        _, result = solved()
        cache = FlushSolverCache(max_entries=8)
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    key = f"t{tid}-{i % 12}"
                    cache.store(key, result, 1)
                    hit = cache.lookup(key)
                    if hit is not None:
                        got, shards = hit
                        assert shards == 1
                        assert got.matched_count == result.matched_count
                    cache.lookup(f"t{(tid + 1) % 4}-{i % 12}")
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8
        recount = sum(
            entry.nbytes for entry in cache._entries.values()
        )
        assert cache.total_bytes == recount

    def test_concurrent_sessions_share_hits(self):
        """Two identical session workloads through one shared cache: the
        second wave of flushes must hit what the first stored."""
        from repro.api.options import SolveOptions
        from repro.api.session import DispatchSession, SessionConfig
        from repro.datasets.synthetic import NormalGenerator
        from repro.stream.arrivals import PoissonProcess, StreamWorkload

        workload = StreamWorkload(
            task_process=PoissonProcess(rate=20.0, horizon=0.6),
            worker_process=PoissonProcess(rate=6.0, horizon=0.6),
            spatial=NormalGenerator(num_tasks=60, num_workers=120, seed=3),
            initial_workers=15,
            seed=3,
        )
        events = list(workload.events(seed=3))
        shared = FlushSolverCache()
        options = SolveOptions(max_batch_size=10, max_wait=0.12)
        runs = []
        for _ in range(2):
            session = DispatchSession(
                "UCE",
                SessionConfig(
                    options=options, record_assignments=False, cache=shared
                ),
            )
            runs.append(session.run(events))
        assert runs[1].cache_hits == len(runs[1].flushes)
        assert runs[0].total_utility == runs[1].total_utility
        assert runs[0].latencies == runs[1].latencies
