"""Event-driven dispatch simulation over a continuous timeline.

:class:`DispatchSimulator` advances a clock through a merged arrival
stream and three kinds of internal timers:

* **task arrival** — the task enters the micro-batch buffer; a flush
  timer is armed ``max_wait`` ahead;
* **worker arrival / rejoin** — the worker (re)joins the idle pool;
* **flush** — if the buffer is full or its oldest task is overdue, the
  pending tasks and the idle, non-retired workers become one
  budget-capped :class:`ProblemInstance`, the configured solver runs on
  it, and winners go on a service leg.

Duty cycles: a worker who wins task ``t_i`` travels ``d_ij`` at
``config.speed`` plus ``config.min_service`` overhead, is busy for that
duration, then rejoins the idle pool *at the task's location* — fleet
geography drifts with demand, as in real dispatch.

Expiry is enforced at every flush: tasks whose deadline has passed are
removed *before* instance construction, so an expired task can never be
assigned.  Workers whose remaining shift budget is exhausted are retired
from private solve pools (their vectors would be empty anyway; retiring
them keeps instances small).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.api.options import validate_service, validate_timeline_limit
from repro.core.budgets import BudgetSampler
from repro.core.utility import UtilityModel
from repro.datasets.workload import Worker
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.obs.tracer import NULL_TRACER, Tracer, aggregate_phases, stopwatch
from repro.privacy.horizon import HorizonPolicy, WindowAccountant
from repro.stream.batcher import (
    AdaptiveBatchController,
    MicroBatcher,
    WorkerBudgetTracker,
)
from repro.stream.cache import (
    FlushSolverCache,
    cache_profile,
    flush_inputs_fingerprint,
)
from repro.stream.events import (
    ActiveWorker,
    Assignment,
    OpenTask,
    StreamEvent,
    TaskArrival,
    WorkerArrival,
    WorkerDeparture,
)
from repro.stream.metrics import FlushRecord, StreamStats
from repro.stream.shards import ShardSeedSchedule, solve_flush
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # runtime import is deferred to break the package cycle
    from repro.core.registry import Solver

__all__ = ["StreamConfig", "DispatchSimulator"]

# Heap tie-break priorities: pool updates land before flush decisions at
# equal timestamps, so a flush sees every worker who is back by then.
# Departures slot between rejoins and tasks: a worker back *and gone* at
# the same instant never serves, and the pre-departure relative order of
# the original kinds is unchanged (existing streams replay bit-identically).
_PRIO_WORKER = 0
_PRIO_REJOIN = 1
_PRIO_DEPART = 2
_PRIO_TASK = 3
_PRIO_FLUSH = 4


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the online layer (micro-batching + duty cycles).

    Parameters
    ----------
    max_batch_size, max_wait:
        Flush triggers (see :class:`MicroBatcher`).
    speed:
        Worker travel speed in distance units per time unit; the service
        leg for a win at distance ``d`` lasts ``min_service + d / speed``.
    min_service:
        Fixed per-assignment service overhead (pickup, handover).
    relocate_workers:
        Whether a worker rejoins at the served task's location (default)
        or at their original position.
    budget_sampler, model:
        Per-flush instance parameters (Table X defaults when omitted).
    adaptive:
        Enable the :class:`~repro.stream.batcher.AdaptiveBatchController`:
        ``max_batch_size`` becomes the initial flush limit and tracks
        observed flush service times thereafter.
    target_flush_seconds:
        The controller's per-flush solver-time target.
    adaptive_min_batch, adaptive_max_batch:
        Hard bounds on the adapted flush limit.
    cache:
        Enable the flush-fingerprint solver cache
        (:mod:`repro.stream.cache`): flushes whose fingerprint has been
        solved before reuse the stored result instead of running the
        solver.  Bit-identical to ``cache=False`` by construction.
    trace:
        Record a :class:`repro.obs.Tracer` span tree of every flush
        (cache / build / cut / solve / merge / commit phases plus engine
        round and cache point events); ``FlushRecord.
        phase_seconds`` and the ``--trace-out`` / ``profile`` CLI
        artifacts come from it.  Off by default: the no-op tracer keeps
        the hot path within noise of the un-instrumented one (the
        ``bench_obs_overhead`` gate).
    horizon:
        Optional :class:`~repro.privacy.horizon.HorizonPolicy`: budgets
        become per-window — spends age out and exhausted workers regain
        eligibility as the window slides (the infinite-horizon regime).
        ``None`` (the default) keeps the global fixed-budget accountant,
        bit-identical to every pre-horizon stream.
    timeline_limit:
        Cap on the stats timelines (privacy/window spend over time);
        past it, every other interior point is dropped.  ``None`` =
        unbounded (the historical behaviour).
    faults:
        Optional :class:`~repro.faults.FaultPlan`: deterministic fault
        injection for the simulator's own ``worker_departure`` hook.
        ``None`` (the default) injects nothing.

    Every flush is cut into conflict-free units, each solved in-process
    with its own noise stream (:func:`repro.stream.shards.solve_flush`).
    """

    max_batch_size: int = 200
    max_wait: float = 0.25
    speed: float = 20.0
    min_service: float = 0.05
    relocate_workers: bool = True
    budget_sampler: BudgetSampler | None = None
    model: UtilityModel | None = None
    adaptive: bool = False
    target_flush_seconds: float = 0.02
    adaptive_min_batch: int = 8
    adaptive_max_batch: int = 2000
    cache: bool = False
    trace: bool = False
    horizon: HorizonPolicy | None = None
    timeline_limit: int | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        # One validation path: shared with SolveOptions (repro.api.options).
        validate_service(self.speed, self.min_service)
        validate_timeline_limit(self.timeline_limit)
        if self.horizon is not None and not isinstance(self.horizon, HorizonPolicy):
            raise ConfigurationError(
                f"horizon must be a HorizonPolicy or None, "
                f"got {type(self.horizon).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan or None, "
                f"got {type(self.faults).__name__} "
                f"(resolve specs via FaultPlan.resolve)"
            )

    def service_duration(self, distance: float) -> float:
        """How long a worker is busy after winning at ``distance``."""
        return self.min_service + distance / self.speed


class DispatchSimulator:
    """Run one solver over one event stream; collect :class:`StreamStats`.

    Two driving modes share one loop:

    * **replay** — :meth:`run` consumes a whole pre-materialised timeline
      (the :class:`~repro.stream.runner.StreamRunner` path);
    * **incremental** — :meth:`push_event` / :meth:`advance` /
      :meth:`finalize` let a caller (the
      :class:`~repro.api.session.DispatchSession` facade) feed arrivals
      request-by-request and move the clock explicitly.

    :meth:`run` is literally push-all / advance-to-infinity / finalize,
    so the two modes are bit-identical on the same arrivals (the
    ``tests/properties/test_prop_session.py`` property).

    With ``record_assignments=True`` every dispatch decision is also
    appended to :attr:`assignment_log` as a typed
    :class:`~repro.stream.events.Assignment` event (the session's drain
    queue); replay runs leave it off to keep long streams lean.
    """

    def __init__(
        self,
        solver: "Solver",
        config: StreamConfig | None = None,
        seed: int = 0,
        record_assignments: bool = False,
        cache: FlushSolverCache | None = None,
    ):
        self.solver = solver
        self.config = config or StreamConfig()
        self.seed = seed
        # The accountant decides the budget regime: global (fixed shift
        # budgets, the bit-identical default) or sliding-window.
        self.tracker = WorkerBudgetTracker(
            accountant=WindowAccountant(self.config.horizon)
            if self.config.horizon is not None
            else None
        )
        controller = (
            AdaptiveBatchController(
                target_seconds=self.config.target_flush_seconds,
                min_size=self.config.adaptive_min_batch,
                max_size=self.config.adaptive_max_batch,
            )
            if self.config.adaptive
            else None
        )
        self.batcher = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            max_wait=self.config.max_wait,
            budget_sampler=self.config.budget_sampler,
            model=self.config.model,
            controller=controller,
        )
        #: The stream's span recorder (one timeline per run); the no-op
        #: singleton unless ``config.trace`` asked for real spans.
        self.tracer = Tracer() if self.config.trace else NULL_TRACER
        # Flush-fingerprint solver cache: an injected instance wins (so
        # repeated runs can share one), else config.cache owns a fresh one.
        self._cache = (
            cache
            if cache is not None
            else (FlushSolverCache() if self.config.cache else None)
        )
        self._cache_profile = (
            cache_profile(solver) if self._cache is not None else None
        )
        # A content-sensitive fingerprint contains this stream's strictly
        # increasing flush index (via the noise/build keys), so inside one
        # private-method stream it can never repeat: with a cache nobody
        # else shares, every lookup would provably miss.  Skip the
        # fingerprint/store machinery outright in that case — it only
        # costs time and memory.  An *injected* (shared) cache keeps it:
        # repeated runs of the same scenario do recur.
        self._cache_active = self._cache is not None and (
            cache is not None or not self._cache_profile.content_sensitive
        )
        self._workers: dict[int, ActiveWorker] = {}
        self._flush_index = 0
        self.stats = StreamStats(
            method=solver.name, timeline_limit=self.config.timeline_limit
        )
        if self.tracer.enabled:
            # Alias, not copy: the stats expose the live span list, so
            # exporters read a finished run without a handoff step.
            self.stats.spans = self.tracer.spans
        self.record_assignments = record_assignments
        #: Typed dispatch decisions, in decision order (session drain queue).
        self.assignment_log: list[Assignment] = []
        self._counter = itertools.count()
        self._heap: list[tuple[float, int, int, object]] = []
        self._last_time = 0.0
        self._advanced_to = 0.0
        self._finalized = False

    # -- public API --------------------------------------------------------

    def run(self, events: Iterable[StreamEvent]) -> StreamStats:
        """Drive the solver through ``events``; return streaming stats."""
        for event in events:
            self.push_event(event)
        self.advance(math.inf)
        return self.finalize()

    def push_event(self, event: StreamEvent) -> None:
        """Feed one arrival into the timeline (not yet processed).

        Arrivals may land at any time at or after the clock's high-water
        mark (:meth:`advance`); earlier ones would rewrite history.
        """
        if self._finalized:
            raise ConfigurationError("simulator already finalized")
        if isinstance(event, TaskArrival):
            priority = _PRIO_TASK
        elif isinstance(event, WorkerArrival):
            priority = _PRIO_WORKER
        elif isinstance(event, WorkerDeparture):
            priority = _PRIO_DEPART
        else:
            raise ConfigurationError(f"unknown stream event {event!r}")
        if event.time < self._advanced_to - 1e-12:
            raise ConfigurationError(
                f"event at {event.time} is in the past; clock already "
                f"advanced to {self._advanced_to}"
            )
        heapq.heappush(self._heap, (event.time, priority, next(self._counter), event))
        self._last_time = max(self._last_time, event.time)

    def advance(self, to_time: float) -> None:
        """Process every queued event and timer due at or before ``to_time``."""
        if self._finalized:
            raise ConfigurationError("simulator already finalized")
        heap = self._heap
        while heap and heap[0][0] <= to_time:
            now, priority, _, payload = heapq.heappop(heap)
            self._last_time = max(self._last_time, now)
            self._expire_pending(now)
            if priority == _PRIO_WORKER:
                self._on_worker(payload)
                # A returning fleet can unblock an overdue buffer.
                if self.batcher.should_flush(now):
                    self._flush(now)
            elif priority == _PRIO_REJOIN:
                self._on_rejoin(now, payload)
                if self.batcher.should_flush(now):
                    self._flush(now)
            elif priority == _PRIO_DEPART:
                self._on_departure(payload)
            elif priority == _PRIO_TASK:
                self._on_task(now, payload)
            elif priority == _PRIO_FLUSH:
                if self.batcher.should_flush(now):
                    self._flush(now)
        horizon = to_time if math.isfinite(to_time) else self._last_time
        # Expire up to the advanced clock even when no timer was due in
        # the window, so session introspection (stats.expired,
        # pending_tasks) never lags it.  Harmless on the replay path:
        # expiry is monotone and every flush re-checks it.
        self._expire_pending(horizon)
        self._advanced_to = max(self._advanced_to, horizon)

    def finalize(self) -> StreamStats:
        """Close the timeline and return the stats.

        Anything still pending either expired inside the horizon or is
        left unresolved (deadline beyond it).  Idempotent.
        """
        if not self._finalized:
            self._finalized = True
            self._expire_pending(self._last_time)
            self._advanced_to = max(self._advanced_to, self._last_time)
            self.stats.leftover = len(self.batcher)
            self.stats.sim_duration = self._last_time
        return self.stats

    @property
    def clock(self) -> float:
        """The high-water mark the timeline has advanced to."""
        return self._advanced_to

    # -- event handlers ----------------------------------------------------

    def _arm_timer(self, due: float, priority: int, payload: object) -> None:
        heapq.heappush(self._heap, (due, priority, next(self._counter), payload))

    def _on_task(self, now, arrival: TaskArrival) -> None:
        self.stats.arrived_tasks += 1
        self.batcher.add(
            OpenTask(task=arrival.task, arrival_time=now, deadline=arrival.deadline)
        )
        if len(self.batcher) >= self.batcher.max_batch_size:
            self._flush(now)
        else:
            self._arm_timer(now + self.config.max_wait, _PRIO_FLUSH, None)

    def _on_worker(self, arrival: WorkerArrival) -> None:
        self.stats.arrived_workers += 1
        worker = arrival.worker
        if worker.id in self._workers:
            raise ConfigurationError(f"worker id {worker.id} arrived twice")
        self._workers[worker.id] = ActiveWorker(worker=worker)
        if arrival.budget_capacity != float("inf"):
            self.tracker.register(worker.id, arrival.budget_capacity)

    def _on_rejoin(self, now: float, worker_id: int) -> None:
        active = self._workers.get(worker_id)
        if active is not None and active.busy_until is not None:
            if active.busy_until <= now + 1e-12:
                active.busy_until = None

    def _on_departure(self, departure: WorkerDeparture) -> None:
        """Remove one worker from the fleet (idempotent; churn family).

        A busy worker keeps its in-flight assignment — the match was
        already committed and published — but never rejoins: removal
        here drops it from every future idle pool, and the pending
        rejoin timer tolerates the missing id.  An unknown or repeated
        id is a no-op (departures race arrivals in real fleets).
        """
        if self._workers.pop(departure.worker_id, None) is not None:
            self.stats.departed_workers += 1

    def _expire_pending(self, now: float) -> None:
        expired = self.batcher.expire(now)
        self.stats.expired += len(expired)

    # -- flushing ----------------------------------------------------------

    def _idle_workers(self) -> list[Worker]:
        """Idle, non-retired workers eligible for the next micro-batch.

        A worker whose whole shift budget is spent can never publish again
        under a private solver, so they are retired from the pool (for
        non-private solvers spend stays zero and nobody retires).  Under
        a windowed accountant retirement is per-flush, not permanent:
        ``exhausted`` recomputes against the window at the observed flush
        time, so a worker re-enters the pool once their old releases age
        out.
        """
        pool = []
        for active in self._workers.values():
            if not active.idle:
                continue
            if self.solver.is_private and self.tracker.exhausted(active.worker.id):
                continue
            pool.append(active.worker)
        pool.sort(key=lambda w: w.id)
        return pool

    def _flush(self, now: float) -> None:
        self._expire_pending(now)
        # Window accounting needs the flush time before any eligibility
        # check: releases older than `now - window` age out, which is how
        # a retired worker regains their budget (no-op for the global
        # accountant).
        self.tracker.observe(now)
        if not len(self.batcher):
            return
        workers = self._idle_workers()
        faults = self.config.faults
        if (
            faults is not None
            and workers
            and faults.should_fire(
                "worker_departure",
                key=(self.seed, self._flush_index),
                site="sim.flush",
            )
        ):
            # The one fault kind that legitimately changes results: a
            # deterministically chosen idle worker walks off mid-stream.
            # Excluded from the smoke plan for exactly that reason.
            pick = np.random.default_rng(
                (faults.seed, self.seed, self._flush_index)
            ).integers(len(workers))
            victim = workers[int(pick)]
            self._on_departure(WorkerDeparture(time=now, worker_id=victim.id))
            self.tracer.event("fault.worker_departure")
            workers = [w for w in workers if w.id != victim.id]
        if not workers:
            # Tasks wait for the fleet; arm a sweep at the next deadline so
            # expiry is recorded even if no other event advances the clock.
            next_deadline = min(t.deadline for t in self.batcher.pending)
            self._arm_timer(next_deadline + 1e-9, _PRIO_FLUSH, None)
            return
        batch_limit = self.batcher.max_batch_size
        open_tasks = self.batcher.take_batch()
        build_key = (self.seed, self._flush_index, 0x5EED)
        noise_key = (self.seed, self._flush_index, stable_hash(self.solver.name))
        fingerprint = None
        cache_hit = None
        hit = None
        tracer = self.tracer
        mark = tracer.mark()
        flush_watch = stopwatch()
        with flush_watch, tracer.span("flush"):
            if self._cache_active:
                # The zero-rebuild path: fingerprint the flush *inputs*
                # before any instance exists, so a hit skips construction
                # and solve alike.  Budget carry is part of the key: two
                # flushes may share every input yet differ in the workers'
                # remaining shift budgets, and those must never alias (see
                # repro.stream.cache).
                with tracer.span("flush.cache"):
                    remaining = (
                        tuple(self.tracker.remaining(w.id) for w in workers)
                        if self._cache_profile.content_sensitive
                        else None
                    )
                    fingerprint = flush_inputs_fingerprint(
                        [t.task for t in open_tasks],
                        workers,
                        self.batcher.model,
                        self.batcher.budget_sampler,
                        self._cache_profile,
                        build_key=build_key,
                        noise_key=noise_key,
                        remaining_budgets=remaining,
                    )
                    hit = self._cache.lookup(fingerprint)
                    cache_hit = hit is not None
                    tracer.event("cache.hit" if cache_hit else "cache.miss")
            mode = "cache"
            if hit is not None:
                with stopwatch() as solve_watch:
                    result, shards = hit
                # The cached result's instance shares the flush's
                # fingerprint, so its pair count is the flush's own.
                pairs_count = result.instance.num_feasible_pairs
            else:
                # Instance construction stays outside the solve window:
                # ``solver_seconds`` has always measured solve work only
                # (it drives the adaptive controller and the throughput
                # metric).
                with tracer.span("flush.build"):
                    instance = self.batcher.build_instance(
                        open_tasks,
                        workers,
                        # The cap binds only methods that publish;
                        # non-private baselines never spend, and capping
                        # them would misprice the comparison.
                        tracker=self.tracker if self.solver.is_private else None,
                        seed=np.random.default_rng(build_key),
                    )
                pairs_count = instance.num_feasible_pairs
                with stopwatch() as solve_watch:
                    # solve_flush records its own flush.cut / build /
                    # solve / merge phases at this depth.
                    result, cut, mode = solve_flush(
                        self.solver,
                        instance,
                        ShardSeedSchedule(noise_key),
                        tracer=tracer,
                    )
                    shards = cut.num_components
            solver_seconds = solve_watch.seconds
            if fingerprint is not None and hit is None:
                with tracer.span("flush.cache"):
                    self._cache.store(fingerprint, result, shards)
                    tracer.event("cache.store")

            with tracer.span("flush.commit"):
                self.batcher.observe_flush(solver_seconds, len(open_tasks))
                self.tracker.charge(result.ledger)
                window_spend = None
                if self.tracker.windowed:
                    # The live window invariant: no worker's in-window
                    # spend may exceed their per-window cap.  charge()
                    # audits the flush's own publishers; this re-checks
                    # the whole pool so the stats carry the proof.
                    window_spend = self.tracker.accountant.total_in_window()
                    if any(
                        self.tracker.remaining(w.id) < -1e-9 for w in workers
                    ):
                        self.stats.window_invariant_ok = False

                by_id = {t.task.id: t for t in open_tasks}
                unassigned = dict(by_id)
                for pair in result.matched_pairs():
                    open_task = by_id[pair.task_id]
                    del unassigned[pair.task_id]
                    self.stats.assigned += 1
                    self.stats.record_latency(now - open_task.arrival_time)
                    self.stats.total_utility += pair.utility
                    self.stats.total_distance += pair.distance
                    if self.record_assignments:
                        self.assignment_log.append(
                            Assignment(
                                time=now,
                                flush_index=self._flush_index,
                                task_id=pair.task_id,
                                worker_id=pair.worker_id,
                                distance=pair.distance,
                                utility=pair.utility,
                                latency=now - open_task.arrival_time,
                                method=self.solver.name,
                            )
                        )
                    self._start_service(now, pair.worker_id, open_task, pair.distance)
                # Losers return to the buffer and wait for the next flush.
                self.batcher.restore(list(unassigned.values()), now)
                if unassigned:
                    self._arm_timer(now + self.config.max_wait, _PRIO_FLUSH, None)
                for worker_id in (w.id for w in workers):
                    spend = self.tracker.spent(worker_id)
                    if spend:
                        self.stats.per_worker_spend[worker_id] = spend

        # The flush span is closed: derive the record's timing fields from
        # it (every elapsed_seconds-style field is trace- or stopwatch-
        # derived now; no ad-hoc perf_counter pairs remain on this path).
        phase_seconds = (
            aggregate_phases(tracer.since(mark)) if tracer.enabled else None
        )
        self.stats.update(
            FlushRecord(
                index=self._flush_index,
                time=now,
                pending_tasks=len(open_tasks),
                idle_workers=len(workers),
                matched=result.matched_count,
                solver_seconds=solver_seconds,
                cumulative_privacy_spend=self.tracker.total_spend(),
                shards=shards,
                batch_limit=batch_limit,
                cache_hit=cache_hit,
                flush_seconds=flush_watch.seconds,
                phase_seconds=phase_seconds,
                pairs=pairs_count,
                planned_mode=mode,
                window_spend=window_spend,
            )
        )
        self._flush_index += 1

    def _start_service(
        self, now: float, worker_id: int, open_task: OpenTask, distance: float
    ) -> None:
        active = self._workers[worker_id]
        rejoin_at = now + self.config.service_duration(distance)
        active.busy_until = rejoin_at
        if self.config.relocate_workers:
            active.worker = Worker(
                id=active.worker.id,
                location=open_task.task.location,
                radius=active.worker.radius,
            )
        self._arm_timer(rejoin_at, _PRIO_REJOIN, worker_id)
