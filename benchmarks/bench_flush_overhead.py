"""Per-flush fixed-cost benchmark: the zero-rebuild hot path's receipts.

Steady-state streaming solves thousands of micro-flushes whose cost is
dominated by *fixed* per-flush work — instance construction, dict views,
engine buffer setup — not by protocol rounds.  This bench measures that
fixed cost under two regimes and records the ratio later PRs must hold:

* **rebuild** — the pre-overhaul flush path, reconstructed faithfully:
  grid-index reachability, per-worker budget sampling,
  ``PairArrays.from_rows`` row packing, eagerly materialised
  ``candidates`` / pair-index views, and a solve with fresh per-run
  buffers;
* **reuse** — the live hot path: brute-force micro reachability with a
  single batched budget draw and direct array assembly, lazy views, and
  the engine's solve.

It also runs the checked-in duty-cycle scenario with the
flush-fingerprint solver cache off and on (``examples/
scenario_duty_cycle.json``), recording median wall time over
``REPRO_BENCH_RUNS`` runs (default 7) and the cache hit rate — the
recurring-loser-flush regime the cache was built for.  Same-container
caveats as every bench here: medians over 7+ runs on a shared 1-core
container still wobble ±30%; the perf gate compares with a 3x floor.

``REPRO_BENCH_SMOKE=1`` keeps the run error-only and leaves the tracked
``BENCH_flush.json`` untouched (``REPRO_BENCH_JSON_DIR`` collects the
fresh JSON elsewhere — the CI perf gate does exactly that).
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import emit_table
from repro.api.scenario import ScenarioSpec
from repro.core.budgets import BudgetSampler
from repro.core.nonprivate import UCESolver
from repro.core.puce import PUCESolver
from repro.datasets.synthetic import NormalGenerator
from repro.simulation.instance import ProblemInstance
from repro.simulation.pairs import PairArrays
from repro.spatial.geometry import euclidean
from repro.spatial.index import GridIndex

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_flush.json"

#: Micro-flush shape: the duty-cycle regime the streaming layer lives in.
FLUSH_TASKS = 8
FLUSH_WORKERS = 16


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "3" if _smoke() else "7"))


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_FLUSH_REPS", "50" if _smoke() else "400"))


def _json_target() -> Path | None:
    out = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out:
        return Path(out) / "BENCH_flush.json"
    return None if _smoke() else BENCH_JSON


def _median_us(fn, reps: int, runs: int) -> float:
    """Median across runs of the mean per-call µs inside one run."""
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - started) / reps * 1e6)
    return statistics.median(samples)


# -- the rebuild-era flush, reconstructed ----------------------------------


def legacy_flush_instance(tasks, workers, model, seed) -> ProblemInstance:
    """The pre-overhaul per-flush instance path, step for step.

    Grid-index reachability, per-worker ``sample_matrix`` calls,
    ``from_rows`` packing, and the then-eager ``candidates`` /
    pair-index tables.  Kept in the bench (not the library) as the
    measured reference for the zero-rebuild claim.
    """
    rng = np.random.default_rng(seed)
    sampler = BudgetSampler()
    index = GridIndex([t.location for t in tasks]) if tasks else None
    reachable, distance_rows, budget_rows = [], [], []
    for worker in workers:
        in_range = (
            tuple(index.query_circle(worker.location, worker.radius))
            if index
            else ()
        )
        reachable.append(in_range)
        distance_rows.append(
            [euclidean(worker.location, tasks[i].location) for i in in_range]
        )
        budget_rows.append(sampler.sample_matrix(rng, len(in_range)))
    pairs = PairArrays.from_rows(
        reachable, distance_rows, budget_rows, [t.value for t in tasks]
    )
    instance = ProblemInstance.from_arrays(
        tasks=tasks, workers=workers, model=model, reachable=reachable, pairs=pairs
    )
    instance.candidates
    instance._pair_table()
    return instance


@pytest.fixture(scope="module")
def flush_rows():
    base = NormalGenerator(
        num_tasks=FLUSH_TASKS, num_workers=FLUSH_WORKERS, seed=1
    ).instance(task_value=4.5, worker_range=1.4)
    tasks, workers, model = base.tasks, base.workers, base.model
    reps, runs = _reps(), _runs()
    rows = []

    # 1. Pure fixed overhead: instance preparation, rebuild vs reuse.
    rebuild_us = _median_us(
        lambda: legacy_flush_instance(tasks, workers, model, 0), reps, runs
    )
    reuse_us = _median_us(
        lambda: ProblemInstance.build(
            tasks, workers, seed=np.random.default_rng(0)
        ),
        reps,
        runs,
    )
    rows.append(
        {
            "metric": "flush_prep",
            "tasks": FLUSH_TASKS,
            "workers": FLUSH_WORKERS,
            "pairs": base.num_feasible_pairs,
            "rebuild_us": rebuild_us,
            "reuse_us": reuse_us,
            "speedup": rebuild_us / reuse_us,
        }
    )

    # 2. End-to-end micro-flush (prep + solve), rebuild vs reuse.
    for name, solver in (("UCE", UCESolver()), ("PUCE", PUCESolver())):
        total_rebuild = _median_us(
            lambda s=solver: s.solve(
                legacy_flush_instance(tasks, workers, model, 0), seed=0
            ),
            reps,
            runs,
        )
        total_reuse = _median_us(
            lambda s=solver: s.solve(
                ProblemInstance.build(tasks, workers, seed=np.random.default_rng(0)),
                seed=0,
            ),
            reps,
            runs,
        )
        rows.append(
            {
                "metric": "flush_total",
                "method": name,
                "rebuild_us": total_rebuild,
                "reuse_us": total_reuse,
                "speedup": total_rebuild / total_reuse,
            }
        )

    # 3. The duty-cycle cache regime: median whole-run wall, hit rates.
    # UCE only: it is the method whose recurring flushes actually hit
    # (and the only row the perf gate reads).  A private method's
    # per-stream cache provably self-disables (see repro.stream.cache),
    # so benching PUCE cache-on would time a configuration identical by
    # construction to cache-off.  The stream bench's duty rows carry the
    # cross-PR throughput comparison; this one records the hit rate and
    # the wall medians the flush-overhead story quotes.
    spec = ScenarioSpec.from_file(
        Path(__file__).resolve().parent.parent
        / "examples"
        / "scenario_duty_cycle.json"
    )
    if _smoke():
        spec = dataclasses.replace(spec, horizon=1.0)
    for method in ("UCE",):
        for cache in (False, True):
            variant = dataclasses.replace(
                spec,
                methods=(method,),
                options=spec.options.replace(cache=cache),
            )
            walls, report = [], None
            for _ in range(runs):
                started = time.perf_counter()
                report = variant.run()
                walls.append(time.perf_counter() - started)
            stats = report[method]
            rows.append(
                {
                    "metric": "cache",
                    "method": method,
                    "cache": cache,
                    "wall_seconds": statistics.median(walls),
                    "flushes": len(stats.flushes),
                    "cache_hits": stats.cache_hits,
                    "cache_hit_rate": stats.cache_hit_rate,
                    "solver_seconds": stats.solver_seconds,
                }
            )

    return {"runs": runs, "reps": reps, "rows": rows}


def test_flush_overhead_baseline(flush_rows):
    """Record the per-flush fixed-cost numbers and their invariants."""
    rows = flush_rows["rows"]
    lines = ["metric       method  rebuild_us  reuse_us  speedup  cache_hit_rate"]
    for row in rows:
        if row["metric"] in ("flush_prep", "flush_total"):
            lines.append(
                f"{row['metric']:<12} {row.get('method', '-'):<7} "
                f"{row['rebuild_us']:>10.1f} {row['reuse_us']:>9.1f} "
                f"{row['speedup']:>8.2f}  {'-':>14}"
            )
        else:
            label = f"{row['method']}{'+cache' if row['cache'] else ''}"
            lines.append(
                f"{row['metric']:<12} {label:<13} {'-':>4} "
                f"{row['wall_seconds']:>9.3f}s {'-':>8}  "
                f"{row['cache_hit_rate']:>13.0%}"
            )
    if not _smoke():
        emit_table("flush_overhead", "\n".join(lines))

    target = _json_target()
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(flush_rows, indent=2) + "\n")

    prep = next(r for r in rows if r["metric"] == "flush_prep")
    assert prep["reuse_us"] > 0
    cached = {
        (r["method"], r["cache"]): r for r in rows if r["metric"] == "cache"
    }
    # The duty-cycle scenario must exercise the cache: its recurring
    # loser flushes hit for the pure (non-private) method.
    assert cached[("UCE", True)]["cache_hit_rate"] > 0.0
    assert cached[("UCE", False)]["cache_hits"] == 0
    if not _smoke():
        # The zero-rebuild acceptance: fixed per-flush overhead at least
        # halved vs the rebuild-era path (generous vs the measured ~4x to
        # absorb shared-container noise).
        assert prep["speedup"] >= 2.0, prep
        for method in ("UCE", "PUCE"):
            total = next(
                r
                for r in rows
                if r["metric"] == "flush_total" and r["method"] == method
            )
            assert total["speedup"] >= 1.0, total
