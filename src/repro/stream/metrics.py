"""Streaming measures: latency, expiry, throughput, privacy over time.

The offline measures (:mod:`repro.simulation.metrics`) average utility and
distance over a fixed batch sequence.  Online dispatch adds the dimensions
the paper's Section VII protocol holds constant:

* **assignment latency** — clock time from a task's release to the flush
  that assigned it (p50 / p95 / mean);
* **expiry rate** — the fraction of released tasks whose deadline passed
  unassigned;
* **throughput** — assigned tasks per wall-clock second of solver work;
* **privacy over time** — the cumulative published budget after every
  micro-batch, per worker and in total (the streaming analogue of the
  Theorem V.2 audit trail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.options import validate_timeline_limit
from repro.errors import ConfigurationError
from repro.obs.indicators import Ewma, RollingQuantile, WarmupZScore
from repro.stream.events import Assignment

__all__ = ["FlushRecord", "OnlineIndicators", "StreamStats"]


@dataclass(frozen=True, slots=True)
class FlushRecord:
    """One micro-batch: what was flushed, solved and spent.

    ``shards`` is how many conflict-free units the flush was cut into
    (0 when it had no feasible pair); ``batch_limit`` is the
    ``max_batch_size`` in force when the flush fired (it moves under
    adaptive micro-batching; 0 means "not recorded").  ``cache_hit``
    says whether the flush-fingerprint solver cache served the result
    (``None`` when the cache is disabled).  ``flush_seconds`` is the
    whole flush handler's wall clock (cache + build + solve + commit;
    ``solver_seconds`` remains solve-only, the adaptive controller's
    signal); ``phase_seconds`` is the tracer-derived per-phase breakdown
    (``None`` when tracing is off).

    ``pairs`` is the flush instance's feasible-pair count;
    ``planned_mode`` says how the flush was solved: ``"uns"`` for the
    single-unit direct solve, ``"seq"`` for units sliced, solved in key
    order and merged, ``"cache"`` for cache-served flushes.

    ``window_spend`` is the fleet's total *in-window* spend right after
    the flush under a sliding-window accountant
    (:mod:`repro.privacy.horizon`); ``None`` on global-accountant
    streams.  Unlike ``cumulative_privacy_spend`` it is not monotone —
    it falls as old releases age out, which is the point.

    ``degraded`` is always ``None``: flushes solve in-process and have
    no degraded mode.  The field stays for readers of older records.
    """

    index: int
    time: float
    pending_tasks: int
    idle_workers: int
    matched: int
    solver_seconds: float
    cumulative_privacy_spend: float
    shards: int = 1
    batch_limit: int = 0
    cache_hit: bool | None = None
    flush_seconds: float = 0.0
    phase_seconds: dict[str, float] | None = None
    pairs: int = 0
    planned_mode: str = ""
    window_spend: float | None = None
    degraded: str | None = None

    @property
    def top_phase(self) -> str:
        """The costliest traced phase, e.g. ``"solve 71%"`` ("-" untraced)."""
        if not self.phase_seconds:
            return "-"
        phase = max(self.phase_seconds, key=lambda p: (self.phase_seconds[p], p))
        total = sum(self.phase_seconds.values())
        share = self.phase_seconds[phase] / total if total > 0 else 0.0
        return f"{phase} {share:.0%}"


class OnlineIndicators:
    """The streaming run's live dashboard, updated as events happen.

    Composes the :mod:`repro.obs.indicators` primitives into the
    indicator set of the streaming protocol — each updated *during* the
    run by :meth:`StreamStats.update`, never recomputed post hoc:

    * ``latency`` — rolling-window p50/p95 assignment latency;
    * ``throughput`` — EWMA of per-flush assigned tasks per solver
      second (cache-served flushes are skipped: their near-zero solve
      time is a cache property, not solver throughput);
    * ``expiry`` — z-score of the running expiry rate against its frozen
      warmup baseline (a spike says the fleet stopped keeping up);
    * ``drawdown`` — EWMA of per-flush privacy spend per idle worker
      (the budget burn rate the accountant will see);
    * ``cache`` — EWMA of the flush-cache hit indicator;
    * ``window`` — EWMA of the fleet's in-window privacy spend (stays at
      0.0 on global-accountant streams, which never report one).
    """

    __slots__ = (
        "latency",
        "throughput",
        "expiry",
        "drawdown",
        "cache",
        "window",
        "_last_spend",
    )

    #: Rolling latency window (events) — large enough for a stable p95,
    #: small enough to track drift within a scenario phase.
    LATENCY_WINDOW = 512
    #: Flushes whose expiry rates define the frozen z-score baseline.
    EXPIRY_WARMUP = 30

    def __init__(self) -> None:
        self.latency = RollingQuantile(window=self.LATENCY_WINDOW, warmup=1)
        self.throughput = Ewma(alpha=0.2, warmup=5)
        self.expiry = WarmupZScore(warmup=self.EXPIRY_WARMUP)
        self.drawdown = Ewma(alpha=0.2, warmup=5)
        self.cache = Ewma(alpha=0.2, warmup=1)
        self.window = Ewma(alpha=0.2, warmup=1)
        self._last_spend = 0.0

    # -- update paths (called by StreamStats during the run) ---------------

    def observe_latency(self, latency: float) -> None:
        self.latency.update(latency)

    def observe_flush(self, record: FlushRecord, expiry_rate: float) -> None:
        if record.solver_seconds > 0.0 and not record.cache_hit:
            self.throughput.update(record.matched / record.solver_seconds)
        self.expiry.update(expiry_rate)
        spent = record.cumulative_privacy_spend - self._last_spend
        self._last_spend = record.cumulative_privacy_spend
        if record.idle_workers > 0:
            self.drawdown.update(spent / record.idle_workers)
        if record.cache_hit is not None:
            self.cache.update(1.0 if record.cache_hit else 0.0)
        if record.window_spend is not None:
            self.window.update(record.window_spend)

    # -- readings (what the exporters and the report table publish) --------

    @property
    def latency_p50(self) -> float:
        """Rolling-window median latency (nan before any assignment)."""
        return self.latency.p50

    @property
    def latency_p95(self) -> float:
        """Rolling-window p95 latency (nan before any assignment)."""
        return self.latency.p95

    @property
    def throughput_ewma(self) -> float:
        """EWMA assigned tasks per solver second."""
        return self.throughput.value

    @property
    def expiry_zscore(self) -> float:
        """Expiry-rate z-score vs the warmup baseline (0.0 during warmup)."""
        return self.expiry.value

    @property
    def budget_drawdown(self) -> float:
        """EWMA per-flush privacy spend per idle worker."""
        return self.drawdown.value

    @property
    def cache_hit_ewma(self) -> float:
        """EWMA flush-cache hit rate (0.0 with the cache off)."""
        return self.cache.value

    @property
    def window_spend_ewma(self) -> float:
        """EWMA fleet in-window privacy spend (0.0 without a window)."""
        return self.window.value


@dataclass
class StreamStats:
    """Aggregate of one method over one event stream."""

    method: str
    arrived_tasks: int = 0
    arrived_workers: int = 0
    #: Mid-stream worker removals (the churn workload family): departed
    #: idle workers leave the fleet; busy ones keep their in-flight task.
    departed_workers: int = 0
    assigned: int = 0
    expired: int = 0
    leftover: int = 0
    total_utility: float = 0.0
    total_distance: float = 0.0
    solver_seconds: float = 0.0
    sim_duration: float = 0.0
    latencies: list[float] = field(default_factory=list)
    flushes: list[FlushRecord] = field(default_factory=list)
    #: ``(time, cumulative total spend)`` after every flush — monotone.
    privacy_timeline: list[tuple[float, float]] = field(default_factory=list)
    per_worker_spend: dict[int, float] = field(default_factory=dict)
    #: Flush-fingerprint solver-cache counters (both 0 when disabled).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Live streaming indicators, updated event-by-event during the run.
    online: OnlineIndicators = field(default_factory=OnlineIndicators)
    #: The run's recorded spans (the simulator aliases its tracer's list
    #: here when tracing is on; empty otherwise).
    spans: list = field(default_factory=list)
    #: Cap on the timelines above (``None`` = unbounded).  Once a
    #: timeline grows past it, every other *interior* point is dropped —
    #: endpoints survive, so ``total_privacy_spend`` and the monotone
    #: check keep reading the exact latest value, and a 24h replay holds
    #: O(limit) points instead of one per flush.
    timeline_limit: int | None = None
    #: ``(time, fleet in-window spend)`` after every windowed flush —
    #: *not* monotone (spends age out); empty on global streams.
    window_timeline: list[tuple[float, float]] = field(default_factory=list)
    #: Live invariant: no worker's in-window spend ever exceeded their
    #: per-window cap (trivially True on global streams).
    window_invariant_ok: bool = True

    def __post_init__(self) -> None:
        # One validation path: shared with SolveOptions (repro.api.options).
        validate_timeline_limit(self.timeline_limit)

    # -- derived measures --------------------------------------------------

    @property
    def resolved(self) -> int:
        """Tasks with a final outcome (assigned or expired)."""
        return self.assigned + self.expired

    @property
    def assignment_rate(self) -> float:
        """Assigned fraction of all released tasks."""
        return self.assigned / self.arrived_tasks if self.arrived_tasks else 0.0

    @property
    def expiry_rate(self) -> float:
        """Expired fraction of all released tasks."""
        return self.expired / self.arrived_tasks if self.arrived_tasks else 0.0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of latency over *matched* tasks only.

        Expired tasks have no assignment latency, so they are excluded —
        this is a conditional statistic ("how fast were the tasks we did
        serve"), and under high expiry it says nothing about the tasks
        that never got served.  For an SLO-style reading that charges
        expiries, use :meth:`expiry_adjusted_percentile`.  Returns 0.0
        when nothing matched.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, q))

    def expiry_adjusted_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile charging expiries as ``inf``.

        The matched-only percentile silently deflates under high expiry:
        a stream that expires 60% of its tasks can still report a tiny
        "p95" over the lucky 40%.  This variant ranks every *resolved*
        task — expired ones with infinite latency — so once ``q`` reaches
        into the expired mass the answer is ``inf`` (the task a ``q``-th
        caller would observe never completed).  Equivalent to
        ``np.percentile(latencies + [inf] * expired, q)`` with linear
        interpolation, computed directly to avoid nan from inf-inf
        interpolation.  Returns 0.0 when nothing resolved.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        total = len(self.latencies) + self.expired
        if total == 0:
            return 0.0
        matched = sorted(self.latencies)
        position = q / 100.0 * (total - 1)
        lower = math.floor(position)
        fraction = position - lower
        if lower >= len(matched):
            return math.inf
        if fraction == 0.0:
            return matched[lower]
        if lower + 1 >= len(matched):
            return math.inf
        return matched[lower] * (1.0 - fraction) + matched[lower + 1] * fraction

    @property
    def latency_p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def latency_p95(self) -> float:
        return self.latency_percentile(95)

    @property
    def phase_totals(self) -> dict[str, float]:
        """Per-phase seconds summed over every traced flush (empty untraced)."""
        totals: dict[str, float] = {}
        for record in self.flushes:
            if record.phase_seconds:
                for phase, seconds in record.phase_seconds.items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    @property
    def top_phase(self) -> str:
        """The costliest phase across the whole run (``"-"`` untraced)."""
        totals = self.phase_totals
        if not totals:
            return "-"
        phase = max(totals, key=lambda p: (totals[p], p))
        grand = sum(totals.values())
        share = totals[phase] / grand if grand > 0 else 0.0
        return f"{phase} {share:.0%}"

    @property
    def plan_summary(self) -> str:
        """How the run's flushes were solved, e.g. ``"uns:41 seq:3"``.

        Counts flushes by their :attr:`FlushRecord.planned_mode` label in
        first-seen order; ``"-"`` when no flush recorded one (hand-built
        records).
        """
        counts: dict[str, int] = {}
        for record in self.flushes:
            if record.planned_mode:
                counts[record.planned_mode] = counts.get(record.planned_mode, 0) + 1
        if not counts:
            return "-"
        return " ".join(f"{mode}:{count}" for mode, count in counts.items())

    @property
    def throughput_tasks_per_sec(self) -> float:
        """Assigned tasks per wall-clock second of solver compute."""
        if self.solver_seconds <= 0.0:
            return 0.0
        return self.assigned / self.solver_seconds

    @property
    def total_privacy_spend(self) -> float:
        """Cumulative published budget at the end of the stream."""
        return self.privacy_timeline[-1][1] if self.privacy_timeline else 0.0

    @property
    def current_window_spend(self) -> float:
        """Fleet in-window spend after the latest windowed flush (0.0 on
        global-accountant streams, which record no window series)."""
        return self.window_timeline[-1][1] if self.window_timeline else 0.0

    @property
    def window_peak_spend(self) -> float:
        """The highest fleet in-window spend any flush observed."""
        return max((s for _, s in self.window_timeline), default=0.0)

    @property
    def cache_hit_rate(self) -> float:
        """Solver-cache hits over solved flushes (0.0 with the cache off)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def average_utility(self) -> float:
        return self.total_utility / self.assigned if self.assigned else 0.0

    @property
    def average_distance(self) -> float:
        return self.total_distance / self.assigned if self.assigned else 0.0

    # -- recording ---------------------------------------------------------

    def update(self, event: "FlushRecord | Assignment") -> None:
        """Fold one stream event in, online indicators included.

        The single entry point of the during-the-run protocol: a
        :class:`FlushRecord` goes through :meth:`record_flush`, an
        :class:`~repro.stream.events.Assignment` through
        :meth:`record_latency`.  Indicators only ever see events in
        stream order — the no-lookahead property the obs tests pin.
        """
        if isinstance(event, FlushRecord):
            self.record_flush(event)
        elif isinstance(event, Assignment):
            self.record_latency(event.latency)
        else:
            raise ConfigurationError(f"unknown stream stats event {event!r}")

    def record_latency(self, latency: float) -> None:
        """Record one assignment's latency (post-hoc list + online window)."""
        self.latencies.append(latency)
        self.online.observe_latency(latency)

    def record_flush(self, record: FlushRecord) -> None:
        """Append one flush, enforcing the monotone-spend invariant."""
        if self.privacy_timeline:
            last = self.privacy_timeline[-1][1]
            if record.cumulative_privacy_spend < last - 1e-9:
                raise ConfigurationError(
                    f"privacy spend went backwards: {last} -> "
                    f"{record.cumulative_privacy_spend} at flush {record.index}"
                )
        self.flushes.append(record)
        self.privacy_timeline.append(
            (record.time, record.cumulative_privacy_spend)
        )
        self._cap_timeline(self.privacy_timeline)
        if record.window_spend is not None:
            self.window_timeline.append((record.time, record.window_spend))
            self._cap_timeline(self.window_timeline)
        self.solver_seconds += record.solver_seconds
        if record.cache_hit is not None:
            if record.cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        self.online.observe_flush(record, expiry_rate=self.expiry_rate)

    def _cap_timeline(self, timeline: list[tuple[float, float]]) -> None:
        """Thin a timeline past :attr:`timeline_limit` by dropping every
        other interior point (both endpoints always survive)."""
        if self.timeline_limit is not None and len(timeline) > self.timeline_limit:
            del timeline[1:-1:2]
