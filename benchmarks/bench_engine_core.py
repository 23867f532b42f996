"""Solver-core throughput: the vectorized engine vs the scalar reference.

The conflict-elimination engine is the hot path of every method in the
paper and of every micro-batch flush in the streaming layer.  This bench
pins its throughput trajectory across PRs: each engine solves the
``bench_scaling``-sized instances on its vectorized runtime path and on
the agent-at-a-time reference sweep (``tests/reference/``, the paper's
per-proposal model), and the measured series — wall time,
feasible-pairs-per-second, and the vectorized/scalar speedup — is
written to ``BENCH_core.json`` at the repository root.

Scale knobs: ``REPRO_BENCH_CORE_SIZES`` (comma-separated task counts,
default ``100,200,400``) and ``REPRO_BENCH_SMOKE=1``, which also skips
the speedup-threshold assertion so CI can smoke-run the bench on a tiny
instance and fail only on errors, not timing.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from benchmarks.conftest import bench_seed, emit_table, min_time
from repro.core.registry import make_solver
from repro.experiments.sweeps import make_generator
from tests.reference.scalar_sweep import ScalarSweepSolver

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_core.json"

ENGINES = ("PUCE", "PDCE", "UCE", "DCE")


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_CORE_SIZES", "100,200,400")
    return tuple(int(s) for s in raw.split(",") if s.strip())


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _json_target() -> Path | None:
    """Where to write the fresh JSON; ``None`` = nowhere (plain smoke).

    ``REPRO_BENCH_JSON_DIR`` redirects the fresh measurement off the
    tracked baseline — the CI perf gate runs the bench in smoke mode
    with this set and compares the two files.
    """
    out = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out:
        return Path(out) / "BENCH_core.json"
    return None if _smoke() else BENCH_JSON


@pytest.fixture(scope="module")
def core_rows():
    rows = []
    for size in _sizes():
        generator = make_generator("normal", size, 2 * size, bench_seed())
        instance = generator.instance()
        for method in ENGINES:
            solver = make_solver(method)
            vectorized = min_time(solver, instance)
            scalar = min_time(ScalarSweepSolver.like(solver), instance)
            rows.append(
                {
                    "method": method,
                    "tasks": size,
                    "pairs": instance.num_feasible_pairs,
                    "scalar_seconds": scalar,
                    "vectorized_seconds": vectorized,
                    "scalar_pairs_per_sec": instance.num_feasible_pairs / scalar,
                    "vectorized_pairs_per_sec": instance.num_feasible_pairs
                    / vectorized,
                    "speedup": scalar / vectorized,
                }
            )
    return rows


def test_engine_core_throughput(core_rows):
    """Record the sweep throughput baseline; gate on the 3x speedup."""
    for r in core_rows:
        assert r["vectorized_seconds"] > 0 and r["scalar_seconds"] > 0

    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in core_rows) / len(core_rows)
    )
    target = _json_target()
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(
                {
                    "seed": bench_seed(),
                    "sizes": list(_sizes()),
                    "geomean_speedup": geomean,
                    "rows": core_rows,
                },
                indent=2,
            )
            + "\n"
        )
    if _smoke():
        # Smoke mode exists to catch errors on a tiny instance in CI; it
        # must neither overwrite the tracked baseline artifacts nor gate
        # on timings (the fresh JSON, if requested above, is compared by
        # benchmarks/check_perf_regression.py with a generous floor).
        return

    lines = ["method  tasks   pairs  scalar_ms  vector_ms  speedup"]
    for r in core_rows:
        lines.append(
            f"{r['method']:<6} {r['tasks']:>6} {r['pairs']:>7} "
            f"{1000 * r['scalar_seconds']:>10.1f} "
            f"{1000 * r['vectorized_seconds']:>10.1f} {r['speedup']:>8.2f}"
        )
    emit_table("engine_core", "\n".join(lines))

    # The refactor's acceptance bar: the vectorized sweeps must deliver
    # >= 3x solver throughput over the scalar reference engine across the
    # bench_scaling-sized instances (geometric mean over methods/sizes).
    assert geomean >= 3.0, [round(r["speedup"], 2) for r in core_rows]
