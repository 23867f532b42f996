"""Perf-regression gate: fresh bench JSONs vs the committed baselines.

CI runs ``bench_engine_core.py``, ``bench_stream_throughput.py``,
``bench_flush_overhead.py``, ``bench_obs_overhead.py``,
``bench_service.py``, ``bench_horizon.py`` and ``bench_faults.py`` in
smoke mode with ``REPRO_BENCH_JSON_DIR`` pointing at a fresh
directory, then invokes this script to compare the fresh measurements
against the *committed* ``BENCH_core.json`` / ``BENCH_stream.json`` /
``BENCH_flush.json`` / ``BENCH_obs.json`` / ``BENCH_service.json`` /
``BENCH_horizon.json`` / ``BENCH_faults.json`` at the repository root.

The comparison is deliberately generous — a ``--floor`` of 3.0 means a
fresh number may be up to 3x slower than the committed baseline before
the gate trips.  CI runners are noisy, share cores, and run the benches
at reduced scale, so this is a catch-the-cliff gate (an accidental
O(n^2), a scalar fallback on the hot path), not a micro-regression
detector.  Throughput-style metrics (pairs/sec, tasks/sec) are compared
because they are roughly scale-independent, unlike wall times.

Usage::

    python benchmarks/check_perf_regression.py --fresh <dir> [--floor 3.0]

Exits non-zero on any regression, printing one line per check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load(path: Path) -> dict:
    if not path.is_file():
        sys.exit(f"missing benchmark JSON: {path}")
    return json.loads(path.read_text())


def check_core(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Vectorized solver throughput, geomean over (method, size) rows."""
    base = geomean([r["vectorized_pairs_per_sec"] for r in committed["rows"]])
    now = geomean([r["vectorized_pairs_per_sec"] for r in fresh["rows"]])
    ok = now >= base / floor
    lines.append(
        f"core   vectorized pairs/s geomean: fresh {now:>12,.0f}  "
        f"committed {base:>12,.0f}  floor {base / floor:>12,.0f}  "
        f"{'ok' if ok else 'REGRESSION'}"
    )
    return ok


def check_stream(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Per-(method, mode) streaming throughput in assigned tasks/sec."""
    def key(row: dict) -> tuple[str, str]:
        return (row["method"], row.get("mode", "sequential"))

    baseline = {key(row): row["tasks_per_sec"] for row in committed["rows"]}
    all_ok = True
    compared = 0
    for row in fresh["rows"]:
        k = key(row)
        if k not in baseline:
            continue
        compared += 1
        ok = row["tasks_per_sec"] >= baseline[k] / floor
        all_ok &= ok
        lines.append(
            f"stream {k[0]:<6} {k[1]:<11} tasks/s: fresh {row['tasks_per_sec']:>12,.0f}  "
            f"committed {baseline[k]:>12,.0f}  floor {baseline[k] / floor:>12,.0f}  "
            f"{'ok' if ok else 'REGRESSION'}"
        )
    if compared == 0:
        lines.append("stream: no comparable (method, mode) rows — REGRESSION")
        return False
    return all_ok


def check_flush(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Flush fixed-overhead speedups and the duty-cycle cache hit rate.

    Speedups (rebuild/reuse ratios) are dimensionless, so they transfer
    across hardware far better than absolute µs; the hit rate is a
    functional property of the scenario and must simply stay above zero.
    """
    def speedups(data: dict) -> dict[tuple[str, str], float]:
        return {
            (row["metric"], row.get("method", "-")): row["speedup"]
            for row in data["rows"]
            if "speedup" in row
        }

    baseline = speedups(committed)
    all_ok = True
    compared = 0
    for key, fresh_speedup in speedups(fresh).items():
        if key not in baseline:
            continue
        compared += 1
        ok = fresh_speedup >= baseline[key] / floor
        all_ok &= ok
        lines.append(
            f"flush  {key[0]:<12} {key[1]:<6} speedup: fresh {fresh_speedup:>6.2f}x  "
            f"committed {baseline[key]:>6.2f}x  floor {baseline[key] / floor:>6.2f}x  "
            f"{'ok' if ok else 'REGRESSION'}"
        )
    hit_rows = [
        row
        for row in fresh["rows"]
        if row.get("metric") == "cache" and row.get("cache") and row["method"] == "UCE"
    ]
    hit_ok = bool(hit_rows) and all(r["cache_hit_rate"] > 0.0 for r in hit_rows)
    all_ok &= hit_ok
    lines.append(
        f"flush  cache        UCE    duty-cycle hit rate: "
        f"{hit_rows[0]['cache_hit_rate'] if hit_rows else 0.0:>6.1%}  "
        f"{'ok' if hit_ok else 'REGRESSION (must stay > 0)'}"
    )
    if compared == 0:
        lines.append("flush: no comparable speedup rows — REGRESSION")
        return False
    return all_ok


def check_obs(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Observability overhead: the on/off ratios must not drift upward.

    Both compared numbers are dimensionless ratios (traced over untraced
    wall, live-span over null-span nanoseconds), so they transfer across
    hardware; the *absolute* obs-off wall clock is covered transitively
    by the stream and flush gates, whose baselines predate the
    instrumentation.  Phase coverage is a functional property of the
    span tree and must stay near complete.
    """
    baseline = {
        row["method"]: row["overhead_ratio"]
        for row in committed["rows"]
        if row["metric"] == "obs_overhead"
    }
    all_ok = True
    compared = 0
    for row in fresh["rows"]:
        if row["metric"] != "obs_overhead" or row["method"] not in baseline:
            continue
        compared += 1
        base = baseline[row["method"]]
        ok = row["overhead_ratio"] <= base * floor
        coverage_ok = row["phase_coverage"] >= 0.5
        all_ok &= ok and coverage_ok
        lines.append(
            f"obs    overhead     {row['method']:<6} trace on/off: "
            f"fresh {row['overhead_ratio']:>6.2f}x  committed {base:>6.2f}x  "
            f"ceiling {base * floor:>6.2f}x  coverage {row['phase_coverage']:>4.0%}  "
            f"{'ok' if ok and coverage_ok else 'REGRESSION'}"
        )
    if compared == 0:
        lines.append("obs: no comparable overhead rows — REGRESSION")
        return False
    return all_ok


def check_service(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Multi-tenant service throughput, plus its functional smoke bits.

    Assigned tasks/sec through the asyncio frontend is roughly
    scale-independent (both runs divide by their own wall), so it gates
    like the stream numbers.  Shedding and shared-cache hits are
    functional properties of the bench's burst/recurrence cohorts and
    must simply stay alive.
    """
    base_row = committed["rows"][0]
    all_ok = True
    for row in fresh["rows"]:
        if row.get("metric") != "service":
            continue
        ok = row["tasks_per_sec"] >= base_row["tasks_per_sec"] / floor
        shed_ok = row["shed"] > 0
        cache_ok = row["shared_cache"]["hits"] > 0
        all_ok &= ok and shed_ok and cache_ok
        lines.append(
            f"service tenants={row['tenants']:<5} tasks/s: fresh "
            f"{row['tasks_per_sec']:>12,.0f}  committed "
            f"{base_row['tasks_per_sec']:>12,.0f}  floor "
            f"{base_row['tasks_per_sec'] / floor:>12,.0f}  "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        lines.append(
            f"service shedding exercised: {row['shed']:>5} requests  "
            f"shared-cache hits: {row['shared_cache']['hits']:>6}  "
            f"{'ok' if shed_ok and cache_ok else 'REGRESSION (must stay > 0)'}"
        )
        return all_ok
    lines.append("service: no service rows — REGRESSION")
    return False


def check_horizon(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Sliding-window accountant cost and long-horizon liveliness.

    The accountant op ratio (windowed over global ns per record+query)
    is dimensionless and — because the tree is O(log n) — nearly flat in
    the event count, so smoke-scale fresh numbers compare against the
    full-scale committed baseline.  The liveliness ratio (window-run
    assigned tasks over the starved global run) gates the same way,
    plus its functional bits: the in-window cap invariant must hold and
    the final stream hour must still see matches under the window.
    """
    ops_base = next(
        r for r in committed["rows"] if r["metric"] == "accountant_ops"
    )
    live_base = next(
        r for r in committed["rows"] if r["metric"] == "long_horizon"
    )
    all_ok = True
    compared = 0
    for row in fresh["rows"]:
        if row.get("metric") == "accountant_ops":
            compared += 1
            base = ops_base["window_over_global_ratio"]
            ok = row["window_over_global_ratio"] <= base * floor
            all_ok &= ok
            lines.append(
                f"horizon accountant  window/global ns: fresh "
                f"{row['window_over_global_ratio']:>6.1f}x  committed "
                f"{base:>6.1f}x  ceiling {base * floor:>6.1f}x  "
                f"{'ok' if ok else 'REGRESSION'}"
            )
        elif row.get("metric") == "long_horizon":
            compared += 1
            base = live_base["assigned_ratio"]
            ok = row["assigned_ratio"] >= base / floor
            alive_ok = (
                row["window_invariant_ok"]
                and row["late_window"] > 0
                and row["assigned_window"] > row["assigned_global"]
            )
            all_ok &= ok and alive_ok
            lines.append(
                f"horizon liveliness  window/global assigned: fresh "
                f"{row['assigned_ratio']:>6.2f}x  committed {base:>6.2f}x  "
                f"floor {base / floor:>6.2f}x  final-hour matches "
                f"{row['late_window']:>2}  "
                f"{'ok' if ok and alive_ok else 'REGRESSION'}"
            )
    if compared == 0:
        lines.append("horizon: no comparable rows — REGRESSION")
        return False
    return all_ok


def check_faults(committed: dict, fresh: dict, floor: float, lines: list[str]) -> bool:
    """Journal overhead and recovery liveness.

    The journal overhead ratio carries its own **absolute** limit
    (``overhead_limit``, 1.25x per the acceptance criteria) — crash
    safety is a standing tax on every journaled request, so it does not
    get the noise floor the other walls do.
    """
    journal_base = next(r for r in committed["rows"] if r["metric"] == "journal")
    all_ok = True
    compared = 0
    for row in fresh["rows"]:
        if row.get("metric") == "journal":
            compared += 1
            limit = float(row.get("overhead_limit", journal_base["overhead_limit"]))
            ok = row["overhead_ratio"] <= limit
            all_ok &= ok
            lines.append(
                f"faults journal      overhead: fresh "
                f"{row['overhead_ratio']:>5.2f}x  hard limit {limit:>5.2f}x  "
                f"(fsync_every={row['fsync_every']})  "
                f"{'ok' if ok else 'REGRESSION'}"
            )
        elif row.get("metric") == "recovery":
            compared += 1
            ok = row["finished_after_recovery"] and row["entries_replayed"] > 0
            all_ok &= ok
            lines.append(
                f"faults recovery     replayed {row['entries_replayed']:>4} "
                f"entries in {row['replay_seconds']:.3f}s  "
                f"{'ok' if ok else 'REGRESSION (recovery must finish)'}"
            )
    if compared == 0:
        lines.append("faults: no comparable rows — REGRESSION")
        return False
    return all_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        required=True,
        type=Path,
        help="directory holding the freshly measured BENCH_*.json files",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=3.0,
        help="allowed slowdown factor vs the committed baseline (default 3.0)",
    )
    args = parser.parse_args(argv)

    lines: list[str] = []
    ok = check_core(
        load(ROOT / "BENCH_core.json"),
        load(args.fresh / "BENCH_core.json"),
        args.floor,
        lines,
    )
    ok &= check_stream(
        load(ROOT / "BENCH_stream.json"),
        load(args.fresh / "BENCH_stream.json"),
        args.floor,
        lines,
    )
    ok &= check_flush(
        load(ROOT / "BENCH_flush.json"),
        load(args.fresh / "BENCH_flush.json"),
        args.floor,
        lines,
    )
    ok &= check_obs(
        load(ROOT / "BENCH_obs.json"),
        load(args.fresh / "BENCH_obs.json"),
        args.floor,
        lines,
    )
    ok &= check_service(
        load(ROOT / "BENCH_service.json"),
        load(args.fresh / "BENCH_service.json"),
        args.floor,
        lines,
    )
    ok &= check_horizon(
        load(ROOT / "BENCH_horizon.json"),
        load(args.fresh / "BENCH_horizon.json"),
        args.floor,
        lines,
    )
    ok &= check_faults(
        load(ROOT / "BENCH_faults.json"),
        load(args.fresh / "BENCH_faults.json"),
        args.floor,
        lines,
    )
    print("\n".join(lines))
    if not ok:
        print(f"perf regression beyond the {args.floor}x floor", file=sys.stderr)
        return 1
    print(f"all benchmarks within the {args.floor}x floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
