"""Streaming experiment assembly and reporting.

Builds :class:`~repro.stream.arrivals.StreamWorkload` scenarios by name
(``poisson`` / ``rushhour`` / ``bursty`` / ``trace``) over the paper's
datasets and formats the streaming measures as a terminal table.  The
public entry point for running scenarios is the declarative
:class:`repro.api.ScenarioSpec` (whose :meth:`~repro.api.ScenarioSpec.run`
backs both the ``stream`` and ``scenario`` CLI subcommands).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.scenario import ARRIVAL_KINDS
from repro.datasets.chengdu import ChengduLikeGenerator
from repro.errors import ConfigurationError
from repro.experiments.sweeps import make_generator
from repro.stream.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    PoissonProcess,
    RushHourProcess,
    StreamWorkload,
    TraceProcess,
)
from repro.stream.runner import StreamReport

__all__ = [
    "ARRIVAL_KINDS",
    "StreamScenario",
    "build_workload",
    "format_stream_report",
]

@dataclass(frozen=True)
class StreamScenario:
    """One named streaming scenario at a reproducible scale.

    ``task_rate`` / ``worker_rate`` are arrivals per time unit (hours for
    ``rushhour`` and ``trace``).  ``trace`` ignores ``task_rate`` and
    replays a chengdu-like day of ``trace_orders`` release times instead,
    clipped to ``horizon`` hours of the day.  ``departures`` is the
    probability each worker leaves mid-stream (the ROADMAP worker-churn
    family; see :attr:`~repro.stream.arrivals.StreamWorkload.departures`).
    """

    arrivals: str = "poisson"
    dataset: str = "normal"
    horizon: float = 3.0
    task_rate: float = 40.0
    worker_rate: float = 15.0
    initial_workers: int = 60
    trace_orders: int = 300
    task_deadline: float = 1.0
    worker_budget: float = 40.0
    task_value: float = 4.5
    worker_range: float = 1.4
    departures: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrivals not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrivals {self.arrivals!r}; choose from {ARRIVAL_KINDS}"
            )


def _task_process(scenario: StreamScenario) -> ArrivalProcess:
    if scenario.arrivals == "poisson":
        return PoissonProcess(scenario.task_rate, scenario.horizon)
    if scenario.arrivals == "rushhour":
        # Peaks scale off the base rate; horizon < 24 clips to the morning.
        return RushHourProcess(
            base_rate=0.4 * scenario.task_rate,
            peak_rate=1.2 * scenario.task_rate,
            horizon=scenario.horizon,
            peaks=tuple(p for p in (8.5, 18.0) if p < scenario.horizon)
            or (scenario.horizon / 2.0,),
        )
    if scenario.arrivals == "bursty":
        return BurstyProcess(
            burst_rate=scenario.task_rate / 8.0,
            mean_burst_size=8.0,
            horizon=scenario.horizon,
        )
    generator = ChengduLikeGenerator(
        num_tasks=scenario.trace_orders,
        num_workers=max(2 * scenario.trace_orders, 1),
        seed=scenario.seed,
    )
    return TraceProcess.from_chengdu(
        generator,
        seed=scenario.seed,
        task_value=scenario.task_value,
        horizon=scenario.horizon,
    )


def build_workload(scenario: StreamScenario) -> StreamWorkload:
    """Materialise one scenario into a runnable workload."""
    task_process = _task_process(scenario)
    horizon = task_process.horizon
    spatial = make_generator(
        scenario.dataset,
        max(scenario.trace_orders, 200),
        max(2 * scenario.trace_orders, 400),
        scenario.seed,
    )
    return StreamWorkload(
        task_process=task_process,
        worker_process=PoissonProcess(scenario.worker_rate, horizon),
        spatial=spatial,
        initial_workers=scenario.initial_workers,
        task_value=scenario.task_value,
        worker_range=scenario.worker_range,
        task_deadline=scenario.task_deadline,
        worker_budget=scenario.worker_budget,
        departures=scenario.departures,
        seed=scenario.seed,
    )


def format_stream_report(report: StreamReport, scenario: StreamScenario) -> str:
    """A terminal table of the streaming measures, one row per method.

    ``top_phase`` is the costliest tracer phase of the method's run
    (``"-"`` when tracing was off); the full breakdown lives in the
    ``profile`` subcommand (:func:`repro.obs.format_profile`).  ``plan``
    counts flushes by how they were solved — ``uns`` / ``seq`` /
    ``cache`` (:attr:`~repro.stream.metrics.StreamStats.plan_summary`).
    """
    header = (
        f"stream[{scenario.arrivals}/{scenario.dataset}] "
        f"horizon={scenario.horizon:g} deadline={scenario.task_deadline:g} "
        f"budget={scenario.worker_budget:g} seed={scenario.seed}"
    )
    columns = (
        f"{'method':<12} {'arrived':>7} {'assigned':>8} {'expired':>7} "
        f"{'left':>5} {'flushes':>7} {'p50_lat':>8} {'p95_lat':>8} "
        f"{'tasks/s':>9} {'eps_spent':>9} {'U_avg':>7} {'cache':>6} "
        f"{'plan':>12} {'top_phase':>11}"
    )
    lines = [header, columns, "-" * len(columns)]
    for method in report.methods():
        stats = report[method]
        cache = (
            f"{stats.cache_hit_rate:>5.0%}"
            if stats.cache_hits or stats.cache_misses
            else f"{'off':>5}"
        )
        lines.append(
            f"{method:<12} {stats.arrived_tasks:>7} {stats.assigned:>8} "
            f"{stats.expired:>7} {stats.leftover:>5} {len(stats.flushes):>7} "
            f"{stats.latency_p50:>8.3f} {stats.latency_p95:>8.3f} "
            f"{stats.throughput_tasks_per_sec:>9.0f} "
            f"{stats.total_privacy_spend:>9.1f} {stats.average_utility:>7.2f} "
            f"{cache} {stats.plan_summary:>12} {stats.top_phase:>11}"
        )
    return "\n".join(lines)
