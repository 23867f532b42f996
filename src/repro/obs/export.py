"""Exporters: JSONL trace dumps, Prometheus metrics, profile summaries.

Three ways out of the process for what the tracer and the online
indicators collected during a streaming run:

* :func:`write_trace_jsonl` — every span of every method as one JSON
  line (``--trace-out``); loads into any trace tooling that eats JSONL.
* :func:`registry_from_report` / :func:`write_metrics_prometheus` — the
  run's counters, gauges and per-flush histograms as a
  :class:`~repro.obs.metrics.MetricsRegistry`, rendered as Prometheus
  text exposition (``--metrics-out``).
* :func:`format_profile` — a flame-style per-phase terminal summary
  (the ``profile`` CLI subcommand): spans aggregated by tree path with
  counts, totals and shares of the traced wall clock.

This module deliberately duck-types the report (``methods()`` /
``report[m]`` with :class:`~repro.stream.metrics.StreamStats`-shaped
values) so :mod:`repro.obs` never imports the stream layer — the obs
package stays importable from every layer below it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.stream.runner import StreamReport

__all__ = [
    "write_trace_jsonl",
    "registry_from_report",
    "write_metrics_prometheus",
    "format_profile",
]


def write_trace_jsonl(report: "StreamReport", path: "str | Path") -> int:
    """Dump every recorded span as JSON lines; returns the line count.

    Each line is a span dict plus a ``method`` label, in per-method
    recording order.  Runs without tracing enabled write an empty file
    (a valid, zero-span trace) rather than failing late.
    """
    lines = 0
    with Path(path).open("w") as handle:
        for method in report.methods():
            for span in report[method].spans:
                row = span.to_dict()
                row["method"] = method
                handle.write(json.dumps(row) + "\n")
                lines += 1
    return lines


def registry_from_report(report: "StreamReport") -> MetricsRegistry:
    """The run's aggregate measures as a labelled metrics registry.

    Counters for the stream totals, gauges for the online indicators'
    final readings, histograms over per-flush solver seconds, and
    per-phase time counters when tracing was on.
    """
    registry = MetricsRegistry()
    for method in report.methods():
        stats = report[method]
        labels = {"method": method}
        registry.counter(
            "repro_tasks_arrived_total", "tasks released into the stream", **labels
        ).inc(stats.arrived_tasks)
        registry.counter(
            "repro_tasks_assigned_total", "tasks assigned before expiry", **labels
        ).inc(stats.assigned)
        registry.counter(
            "repro_tasks_expired_total", "tasks whose deadline passed", **labels
        ).inc(stats.expired)
        registry.counter(
            "repro_flushes_total", "micro-batch flushes run", **labels
        ).inc(len(stats.flushes))
        registry.counter(
            "repro_cache_hits_total", "flush-fingerprint cache hits", **labels
        ).inc(stats.cache_hits)
        registry.counter(
            "repro_cache_misses_total", "flush-fingerprint cache misses", **labels
        ).inc(stats.cache_misses)
        registry.counter(
            "repro_privacy_spend_total", "cumulative published budget", **labels
        ).inc(stats.total_privacy_spend)
        registry.counter(
            "repro_solver_seconds_total", "wall seconds of solver work", **labels
        ).inc(stats.solver_seconds)

        online = stats.online
        gauges = (
            ("repro_latency_p50_online", "rolling-window p50 latency", online.latency_p50),
            ("repro_latency_p95_online", "rolling-window p95 latency", online.latency_p95),
            (
                "repro_throughput_ewma",
                "EWMA assigned tasks per solver second",
                online.throughput_ewma,
            ),
            ("repro_expiry_zscore", "expiry rate z-score vs warmup", online.expiry_zscore),
            (
                "repro_budget_drawdown_ewma",
                "EWMA per-worker budget drawdown per flush",
                online.budget_drawdown,
            ),
            ("repro_cache_hit_ewma", "EWMA flush-cache hit rate", online.cache_hit_ewma),
        )
        for name, help_text, value in gauges:
            if value == value:  # NaN (pre-warmup quantiles) has no gauge
                registry.gauge(name, help_text, **labels).set(value)

        histogram = registry.histogram(
            "repro_flush_solver_seconds", "per-flush solver wall seconds", **labels
        )
        for record in stats.flushes:
            histogram.observe(record.solver_seconds)
        phase_totals = stats.phase_totals
        for phase in sorted(phase_totals):
            registry.counter(
                "repro_flush_phase_seconds_total",
                "per-phase flush time from the tracer",
                method=method,
                phase=phase,
            ).inc(phase_totals[phase])
    return registry


def write_metrics_prometheus(report: "StreamReport", path: "str | Path") -> None:
    """Render :func:`registry_from_report` to ``path`` as Prometheus text."""
    Path(path).write_text(registry_from_report(report).render_prometheus())


def format_profile(report: "StreamReport", title: str = "profile") -> str:
    """A flame-style per-phase summary of one traced run, per method.

    Spans aggregate by tree path (a span's identity is its name chain
    from the root), printed depth-indented with count, total seconds,
    share of the method's root total, and mean milliseconds — the
    terminal cousin of a flame graph.  Zero-duration point events (cache
    hits, fault injections) report counts only.
    """
    blocks: list[str] = []
    for method in report.methods():
        stats = report[method]
        spans = stats.spans
        if not spans:
            blocks.append(f"{title} method={method}: no spans (tracing was off)")
            continue
        paths: dict[int, tuple[str, ...]] = {}
        totals: dict[tuple[str, ...], list[float]] = {}
        order: list[tuple[str, ...]] = []
        root_seconds = 0.0
        for span in spans:
            parent_path = paths.get(span.parent, ())
            path = parent_path + (span.name,)
            paths[span.index] = path
            bucket = totals.get(path)
            if bucket is None:
                totals[path] = [span.seconds, 1.0]
                order.append(path)
            else:
                bucket[0] += span.seconds
                bucket[1] += 1.0
            if span.parent == -1:
                root_seconds += span.seconds
        header = (
            f"{title} method={method} flushes={len(stats.flushes)} "
            f"traced_seconds={root_seconds:.3f}"
        )
        columns = f"  {'span':<32} {'count':>7} {'total_s':>9} {'share':>7} {'mean_ms':>8}"
        lines = [header, columns, "  " + "-" * (len(columns) - 2)]
        for path in sorted(order):
            seconds, count = totals[path]
            name = "  " * (len(path) - 1) + path[-1]
            share = seconds / root_seconds if root_seconds > 0 else 0.0
            mean_ms = seconds / count * 1e3
            lines.append(
                f"  {name:<32} {int(count):>7} {seconds:>9.4f} {share:>6.1%} "
                f"{mean_ms:>8.3f}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
