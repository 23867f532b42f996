"""Observability overhead benchmark: tracing must be free when off.

The obs PR threads tracer calls through the whole flush path —
simulator, shard cut, engine rounds, cache — every one
of them defaulting to :data:`repro.obs.tracer.NULL_TRACER`.  This bench
records the two numbers that keep that honest:

* **null-tracer cost** — nanoseconds per instrumented point with
  tracing off (an attribute lookup plus an empty ``with`` block), the
  microscopic receipt behind "off is within noise";
* **end-to-end overhead ratio** — median duty-cycle scenario wall time
  with ``trace=True`` over ``trace=False``, per method
  (``examples/scenario_duty_cycle.json``, the same artifact the flush
  bench times).  The ratio is dimensionless, so it transfers across
  hardware; the perf gate holds it with the usual 3x noise floor.

The *absolute* obs-off wall clock is gated transitively: the stream and
flush benches run with tracing off against baselines committed before
the instrumentation landed, so a non-free off switch trips those gates.

``REPRO_BENCH_SMOKE=1`` keeps the run error-only and leaves the tracked
``BENCH_obs.json`` untouched (``REPRO_BENCH_JSON_DIR`` collects the
fresh JSON elsewhere — the CI perf gate does exactly that).
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit_table
from repro.api.scenario import ScenarioSpec
from repro.obs import NULL_TRACER, Tracer

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

SCENARIO = (
    Path(__file__).resolve().parent.parent / "examples" / "scenario_duty_cycle.json"
)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "3" if _smoke() else "7"))


def _span_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_SPAN_REPS", "20000" if _smoke() else "200000"))


def _json_target() -> Path | None:
    out = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out:
        return Path(out) / "BENCH_obs.json"
    return None if _smoke() else BENCH_JSON


def _ns_per_call(fn, reps: int, runs: int) -> float:
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - started) / reps * 1e9)
    return statistics.median(samples)


@pytest.fixture(scope="module")
def obs_rows():
    runs, reps = _runs(), _span_reps()
    rows = []

    # 1. Per-instrumentation-point cost, off vs on.
    def null_point():
        with NULL_TRACER.span("flush.solve"):
            pass

    def live_point(tracer=Tracer()):
        with tracer.span("flush.solve"):
            pass
        if len(tracer.spans) > 10000:
            tracer.spans.clear()

    null_ns = _ns_per_call(null_point, reps, runs)
    live_ns = _ns_per_call(live_point, reps, runs)
    rows.append(
        {
            "metric": "span_point",
            "null_ns": null_ns,
            "live_ns": live_ns,
            "on_off_ratio": live_ns / null_ns,
        }
    )

    # 2. End-to-end duty-cycle wall, trace off vs on, per method.
    spec = ScenarioSpec.from_file(SCENARIO)
    if _smoke():
        spec = dataclasses.replace(spec, horizon=1.0)
    for method in spec.methods:
        walls = {}
        reports = {}
        for trace in (False, True):
            variant = dataclasses.replace(
                spec,
                methods=(method,),
                options=spec.options.replace(trace=trace),
            )
            samples = []
            for _ in range(runs):
                started = time.perf_counter()
                reports[trace] = variant.run()
                samples.append(time.perf_counter() - started)
            walls[trace] = statistics.median(samples)
        stats_on = reports[True][method]
        rows.append(
            {
                "metric": "obs_overhead",
                "method": method,
                "wall_off_seconds": walls[False],
                "wall_on_seconds": walls[True],
                "overhead_ratio": walls[True] / walls[False],
                "flushes": len(stats_on.flushes),
                "spans": len(stats_on.spans),
                "phase_coverage": (
                    sum(sum(r.phase_seconds.values()) for r in stats_on.flushes)
                    / sum(r.flush_seconds for r in stats_on.flushes)
                ),
            }
        )

    return {"runs": runs, "span_reps": reps, "rows": rows}


def test_obs_overhead_baseline(obs_rows):
    """Record the obs overhead numbers and their invariants."""
    rows = obs_rows["rows"]
    lines = ["metric        method  off          on           ratio"]
    for row in rows:
        if row["metric"] == "span_point":
            lines.append(
                f"span_point    -       {row['null_ns']:>8.1f}ns   "
                f"{row['live_ns']:>8.1f}ns   {row['on_off_ratio']:>5.2f}x"
            )
        else:
            lines.append(
                f"obs_overhead  {row['method']:<6}  {row['wall_off_seconds']:>8.3f}s"
                f"    {row['wall_on_seconds']:>8.3f}s    "
                f"{row['overhead_ratio']:>5.2f}x  "
                f"({row['spans']} spans, {row['phase_coverage']:.0%} phase coverage)"
            )
    if not _smoke():
        emit_table("obs_overhead", "\n".join(lines))

    target = _json_target()
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(obs_rows, indent=2) + "\n")

    point = next(r for r in rows if r["metric"] == "span_point")
    assert point["null_ns"] > 0
    overhead = [r for r in rows if r["metric"] == "obs_overhead"]
    assert overhead, "no end-to-end overhead rows measured"
    for row in overhead:
        assert row["spans"] > 0, row
        assert 0.5 <= row["phase_coverage"] <= 1.05, row
        if not _smoke():
            # Tracing on may cost real time (it records every span), but
            # the duty-cycle regime must stay within the same order.
            assert row["overhead_ratio"] < 3.0, row
