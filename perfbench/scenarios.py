"""Scenario workloads: ``duty_cycle`` and ``dense_city``.

Each run draws ``DAYS`` typical days (sub-seeds) from ``--seed`` and
materialises them from the spec under ``specs/``.  A replay feeds
the day to one :class:`~repro.api.session.DispatchSession` per method the
way an online platform would: every group of arrivals that share a
timestamp is one request (submit the group, ``advance`` to its time,
``drain`` the decisions).  After the last arrival the platform's clock
keeps ticking, one ``advance`` and ``drain`` every ``max_wait``, until
every task's deadline has passed; ``finish`` is the last request.
Without the ticks, ``finish`` alone would run the rest of the day up to
the last deadline and be ten times slower than any other request.

Output check: before anything is timed, every timed day is replayed once
through the plain reference path (``DispatchSession.run``; flush cache
off, unsharded, sequential).  Every measured replay must reproduce the
reference's per-method digest of (arrived, assigned, expired, leftover,
utility, privacy spend, per-flush matched counts, assignment log); a
mismatch is a failed operation, not a crash.

The quality metrics cover ``QUALITY_DAYS`` days, because a day's
assignments vary far more from seed to seed than its timings do.  The
first ``DAYS`` of them are the timed days, whose outcomes come from the
reference; the rest are replayed once, untimed, in the workload's own
configuration (cheaper than the plain path on ``duty_cycle``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    LAYER_ORDER,
    CallMeter,
    CodecMeter,
    FlushLayers,
    HostSpeed,
    Result,
    clock,
    digest,
    fastest,
    median,
    peak_rss_mb,
    percentile,
    repeat,
    sample_lines,
    scaled,
    tail,
)
from repro.api.scenario import ScenarioSpec
from repro.api.session import DispatchSession, SessionConfig
from repro.api.wire import AssignmentRecord, FinishedReply
from repro.obs.export import registry_from_report
from repro.stream.events import TaskArrival, WorkerArrival
from repro.stream.runner import StreamReport

SPECS = Path(__file__).resolve().parent / "specs"

#: Scenario days (sub-seeds) replayed per round.
DAYS = {"duty_cycle": 6, "dense_city": 1}
#: Days the quality metrics cover; the first ``DAYS`` of them are timed.
QUALITY_DAYS = {"duty_cycle": 10, "dense_city": 1}
#: Rounds over the days per run.
ROUNDS = {"duty_cycle": 5, "dense_city": 7}
#: Set-ups timed per day and round; the last one is replayed.
SETUPS = 4
#: Days in the fixed sample that sets a spec's typical reachable count.
REACH_SAMPLE = 16


def reachable_tasks(events) -> int:
    """Tasks released within the radius of a worker already on duty, at
    that worker's starting position."""
    tasks = [e for e in events if isinstance(e, TaskArrival)]
    workers = [e for e in events if isinstance(e, WorkerArrival)]
    task_xy = np.array([(e.task.location.x, e.task.location.y) for e in tasks])
    worker_xy = np.array([(e.worker.location.x, e.worker.location.y) for e in workers])
    radius = np.array([e.worker.radius for e in workers])
    joined = np.array([e.time for e in workers])
    released = np.array([e.time for e in tasks])
    on_duty = joined[None, :] <= released[:, None]
    near = np.hypot(*(task_xy[:, None, :] - worker_xy[None, :, :]).transpose(2, 0, 1)) <= radius
    return int((near & on_duty).any(axis=1).sum())


def typical_days(spec_text: str, seed: int, count: int) -> list[int]:
    """``count`` day seeds drawn from ``seed``, keeping only days whose
    task count, worker arrivals and reachable tasks sit near their
    typical values, so every run replays comparable days: a day's flush
    count (hence its wall time) follows its task count, and its
    assignments follow how many tasks the fleet can reach."""
    spec = ScenarioSpec.from_json(spec_text)
    tasks = spec.task_rate * spec.horizon
    workers = spec.worker_rate * spec.horizon

    def candidates(rng):
        while True:
            day = rng.randrange(2**31)
            events = spec.with_seed(day).to_workload().events(seed=day)
            arrived = sum(isinstance(e, TaskArrival) for e in events)
            joined = sum(isinstance(e, WorkerArrival) for e in events) - spec.initial_workers
            typical_size = abs(arrived - tasks) <= 0.04 * tasks
            typical_fleet = abs(joined - workers) <= max(1, 0.1 * workers)
            if typical_size and typical_fleet:
                yield day, reachable_tasks(events)

    # The typical reachable count: the median over a fixed sample.
    calibration = itertools.islice(candidates(random.Random(0)), REACH_SAMPLE)
    reach = float(np.median([reachable for _, reachable in calibration]))
    days = []
    for day, reachable in candidates(random.Random(seed)):
        if abs(reachable - reach) <= 0.05 * reach:
            days.append(day)
            if len(days) == count:
                return days


def reference_options(options):
    """The plain path every measured configuration must reproduce."""
    return options.replace(cache=False, shards=1, parallel="off", max_shard_workers=None)


def method_digest(stats, log) -> str:
    return digest(
        [
            stats.method,
            stats.arrived_tasks,
            stats.assigned,
            stats.expired,
            stats.leftover,
            stats.total_utility,
            stats.total_privacy_spend,
            [flush.matched for flush in stats.flushes],
            [[a.flush_index, a.task_id, a.worker_id] for a in log],
        ]
    )


def replay_once(spec_text: str, sub_seed: int, plain: bool) -> tuple[dict[str, str], list]:
    """One day replayed once, on the plain path unless ``plain`` is off:
    per-method digests, and per-method (arrived, assigned, utility,
    privacy spend)."""
    spec = ScenarioSpec.from_json(spec_text).with_seed(sub_seed)
    events = spec.to_workload().events(seed=sub_seed)
    options = reference_options(spec.options) if plain else spec.options
    digests, outcomes = {}, []
    for method in spec.methods:
        session = DispatchSession(method, SessionConfig(options=options))
        stats = session.run(events)
        digests[stats.method] = method_digest(stats, session.drain())
        outcomes.append(
            (stats.arrived_tasks, stats.assigned, stats.total_utility, stats.total_privacy_spend)
        )
    return digests, outcomes


@dataclass
class Day:
    """One materialised scenario day, ready to replay."""

    groups: list
    #: Clock times to advance to after the last arrival.
    ticks: list
    sessions: list
    build_s: float
    setup_s: float


def prepare(spec_text: str, sub_seed: int, trace: bool) -> Day:
    """Spec load, workload materialisation and session construction."""
    started = clock()
    spec = ScenarioSpec.from_json(spec_text).with_seed(sub_seed)
    events = spec.to_workload().events(seed=sub_seed)
    groups = [(time, list(batch)) for time, batch in itertools.groupby(events, lambda e: e.time)]
    step = spec.options.max_wait
    last = groups[-1][0]
    ticks = [last + step * k for k in range(1, math.ceil(spec.task_deadline / step) + 2)]
    built = clock()
    options = spec.options.replace(trace=True) if trace else spec.options
    sessions = [DispatchSession(method, SessionConfig(options=options)) for method in spec.methods]
    return Day(groups, ticks, sessions, built - started, clock() - started)


def drive(session, day: Day, latencies: list, groups=None) -> tuple:
    """Replay one day (or only ``groups`` of its arrivals, and no ticks)
    through one session; returns (stats, log, wall)."""
    log = []
    started = clock()
    requests = day.groups if groups is None else groups
    ticks = [(time, ()) for time in day.ticks] if groups is None else []
    for time, batch in requests + ticks:
        sent = clock()
        for event in batch:
            session.submit(event)
        session.advance(time)
        log.extend(session.drain())
        latencies.append(clock() - sent)
    sent = clock()
    stats = session.finish()
    log.extend(session.drain())
    done = clock()
    latencies.append(done - sent)
    session.close()
    return stats, log, done - started


class Checker:
    """Counts replays and output-check failures; can corrupt one result
    on purpose (smoke mode) to prove the check trips."""

    def __init__(self, perturb: bool = False):
        self.attempted = 0
        self.failed = 0
        self._perturb = perturb

    def check(self, expected: dict, stats, log) -> None:
        self.attempted += 1
        if self._perturb:
            self._perturb = False
            stats.total_utility += 1e-9
        if method_digest(stats, log) != expected.get(stats.method):
            self.failed += 1


@dataclass
class Round:
    """One pass over every day.  The sample lists are in a fixed order
    (day, method, request or flush), so rounds align item by item."""

    setup: list = field(default_factory=list)
    #: Per replay, scaled to the reference host speed.
    walls: list = field(default_factory=list)
    #: Per request, sent back to back within a replay.
    latencies: list = field(default_factory=list)
    flush_walls: list = field(default_factory=list)
    #: The method of each item in ``latencies`` and in ``flush_walls``.
    latency_methods: list = field(default_factory=list)
    flush_methods: list = field(default_factory=list)

    @classmethod
    def fastest(cls, rounds: list) -> "Round":
        """Each identical unit of work at its fastest over the rounds."""
        return cls(
            setup=fastest([r.setup for r in rounds]),
            latencies=fastest([r.latencies for r in rounds]),
            flush_walls=fastest([r.flush_walls for r in rounds]),
            latency_methods=rounds[0].latency_methods,
            flush_methods=rounds[0].flush_methods,
        )


def method_median(methods, values) -> float:
    """The median of each method's values, averaged over methods.

    Both methods replay the same arrivals, so they make about as many
    requests and flushes each; when one method's are much cheaper than
    the other's, the pooled median sits in the gap between the two and
    crosses it when either count shifts by a few.
    """
    groups = {}
    for method, value in zip(methods, values, strict=True):
        groups.setdefault(method, []).append(value)
    return sum(percentile(group, 50) for group in groups.values()) / len(groups)


class Layers:
    """Per-layer readings of one traced round."""

    def __init__(self):
        self.flush = FlushLayers()
        self.accountant = CallMeter()
        self.codec = CodecMeter()
        self.days = 0
        self.build_s = 0.0
        self.series = 0
        self.render_s = []

    def fold(self, day: Day, outcomes) -> None:
        self.days += 1
        self.build_s += day.build_s
        report = StreamReport()
        for stats, log, wall in outcomes:
            report.stats[stats.method] = stats
            self.flush.table.add("replay", wall, self.flush.fold(stats))
            # The day's result in the wire form a tenant would receive.
            self.codec.roundtrip(
                FinishedReply.from_stats(
                    stats, tuple(AssignmentRecord.from_assignment(a) for a in log)
                )
            )
        started = clock()
        text = registry_from_report(report).render_prometheus()
        self.render_s.append(clock() - started)
        self.series = max(self.series, sample_lines(text))

    def put(self, result: Result) -> None:
        scale = 1.0 / self.days
        self.flush.table.add("accountant", self.accountant.seconds, calls=self.accountant.calls)
        self.flush.put(result, "replay", scale)
        result.put("scenario.build_s", self.build_s * scale, "s")
        result.put("accountant.calls", self.accountant.calls * scale, "count")
        result.put("accountant.s", self.accountant.seconds * scale, "s")
        self.codec.put(result)
        result.put("metrics.series", self.series, "count")
        result.put("metrics.render_s", median(self.render_s), "s")
        # The service layers are bypassed by scenario replays.
        for name, unit in (
            ("service_cache.hit_rate", "ratio"),
            ("service_cache.evictions", "count"),
            ("journal.fsync_calls", "count"),
            ("journal.fsync_s", "s"),
            ("service.open_us_p50", "us"),
            ("service.open_growth", "ratio"),
            ("service.retained_kb_per_tenant", "KiB"),
            ("admission.shed_queue_full", "count"),
            ("admission.shed_budget", "count"),
        ):
            result.put(name, 0.0, unit)
        result.notes.extend(self.flush.table.format(LAYER_ORDER))


def replay_round(spec_text, seeds, refs, checker, *, layers=None, speed=None, setups=1) -> Round:
    """Replay every day once, after timing ``setups`` set-ups of it; with
    ``speed``, each set-up group and replay is scaled by its own host
    speed factor; with ``layers``, traced and folded in."""
    rnd = Round()

    def factor() -> float:
        return speed.factor() if speed is not None else 1.0

    for sub_seed in seeds:
        setup = []
        for _ in range(setups - 1):
            spare = prepare(spec_text, sub_seed, trace=False)
            setup.append(spare.setup_s)
            for session in spare.sessions:
                session.close()
        day = prepare(spec_text, sub_seed, trace=layers is not None)
        if layers is not None:
            for session in day.sessions:
                layers.accountant.wrap(session.accountant)
        setup.append(day.setup_s)
        rnd.setup.extend(scaled(setup, factor()))
        outcomes = []
        for session in day.sessions:
            latencies = []
            stats, log, wall = drive(session, day, latencies)
            at_speed = factor()
            rnd.latencies.extend(scaled(latencies, at_speed))
            rnd.latency_methods.extend([stats.method] * len(latencies))
            checker.check(refs[sub_seed], stats, log)
            rnd.flush_walls.extend(scaled((f.flush_seconds for f in stats.flushes), at_speed))
            rnd.flush_methods.extend([stats.method] * len(stats.flushes))
            rnd.walls.append(wall * at_speed)
            outcomes.append((stats, log, wall))
        if layers is not None:
            layers.fold(day, outcomes)
    return rnd


def warm_up(spec_text: str, sub_seed: int) -> None:
    """Spawns the shard pool and finishes lazy imports, which users pay
    once per process, not once per day: a quarter of one day, unchecked."""
    day = prepare(spec_text, sub_seed, trace=False)
    for session in day.sessions:
        drive(session, day, [], groups=day.groups[: len(day.groups) // 4])


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    days=None,
    quality_days=None,
    rounds=None,
    perturb=False,
):
    spec_text = (SPECS / f"{workload}.json").read_text()
    timed = days or DAYS[workload]
    every = typical_days(spec_text, seed, max(timed, quality_days or QUALITY_DAYS[workload]))
    seeds = every[:timed]
    checker = Checker(perturb)
    refs, outcomes = {}, []
    for sub_seed in every:
        digests, day_outcomes = replay_once(spec_text, sub_seed, plain=sub_seed in seeds)
        if sub_seed in seeds:
            refs[sub_seed] = digests
        outcomes.extend(day_outcomes)
    warm_up(spec_text, seeds[0])

    speed = HostSpeed()
    repeats = repeat(
        lambda: replay_round(spec_text, seeds, refs, checker, speed=speed, setups=SETUPS),
        rounds or ROUNDS[workload],
        seconds,
    )
    best = Round.fastest(repeats)
    # A replay is its requests back to back, so its wall is estimated as
    # the sum of each request at its fastest round.
    wall = sum(best.latencies) / len(seeds)

    result = Result(workload, seed)
    q, flush_tail = tail(best.flush_walls)
    result.notes.append(
        f"{len(seeds)} days x {len(repeats)} rounds, quality over {len(every)} days; "
        f"{len(best.flush_walls)} flushes, {len(best.latencies)} requests and "
        f"{len(best.setup)} set-ups per round, each at its fastest round; "
        f"flush_tail_ms is p{q:g}"
    )
    result.notes.append(speed.summary())
    if trace:
        layers = Layers()
        traced = replay_round(spec_text, seeds, refs, checker, layers=layers, speed=speed)
        wall_traced = sum(traced.walls) / len(seeds)
        layers.put(result)
        untraced = median([sum(r.walls) for r in repeats]) / len(seeds)
        result.put("trace.overhead_frac", wall_traced / untraced - 1.0, "ratio")
    else:
        result.put("setup_s", median(best.setup), "s")
        result.put("wall_s", wall, "s")
        result.put("flush_p50_ms", 1e3 * method_median(best.flush_methods, best.flush_walls), "ms")
        result.put("flush_tail_ms", 1e3 * flush_tail, "ms")
        arrived, assigned, utility, spend = (sum(column) for column in zip(*outcomes))
        result.put("assigned_frac", assigned / arrived, "ratio")
        result.put("utility", utility / len(every), "utility")
        result.put("privacy_spend", spend / len(every), "eps")
        result.put("requests_per_s", len(best.latencies) / sum(best.latencies), "1/s")
        result.put(
            "request_p50_ms", 1e3 * method_median(best.latency_methods, best.latencies), "ms"
        )
        result.put("request_p99_ms", 1e3 * percentile(best.latencies, 99), "ms")
        # Scenario replays pass no admission control: nothing is shed.
        result.put("admitted_frac", 1.0, "ratio")
        result.put("success_frac", 1.0 - checker.failed / checker.attempted, "ratio")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.attempted = checker.attempted
    result.failed = checker.failed
    return result
