"""``tenant_churn``: thousands of short tenant lifecycles through the service.

One pass opens a fresh :class:`~repro.service.DispatchService` (shared
flush cache, write-ahead journals in a scratch directory inside the
checkout with ``journal_fsync_every=8``, a per-tenant privacy budget)
and runs ``TENANTS`` tenants through it from ``CLIENTS`` closed-loop
client coroutines on one event loop, so at most ``CLIENTS`` tenants are
in flight.  Every tenant runs the same short script: open, three
workers, six tasks, advance, drain, finish.  One tenant in ten instead
fires 24 tasks concurrently and is partly shed; one in four runs PUCE
under a sliding window, so admission reads the windowed accountant.
Every request and reply crosses the wire as JSON text
(``encode_record`` / ``json.dumps`` / ``json.loads`` / ``decode_record``).

The tenants' positions and task values come from ``--seed`` (``SHAPES``
distinct shapes, cycled).  Output check: a tenant whose every request was
admitted must return the reference result for its shape, computed once
per shape by applying the same records to a plain ``DispatchSession``
(digest of the ``FinishedReply`` minus its cache hit rate, plus every
drained assignment).
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import shutil
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    LAYER_ORDER,
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
from repro.api.options import SolveOptions
from repro.api.session import DispatchSession, SessionConfig
from repro.api.wire import (
    Advance,
    AssignmentRecord,
    AssignmentsReply,
    Drain,
    ErrorReply,
    Finish,
    FinishedReply,
    OpenSession,
    ShedReply,
    SubmitTask,
    SubmitWorker,
    encode_record,
)
from repro.datasets.workload import Task, Worker
from repro.service import DispatchService, ServiceConfig
from repro.spatial.geometry import Point

TENANTS = 500
CLIENTS = 32
SHAPES = 32
WORKERS = 3
TASKS = 6
BURST_EVERY = 10
BURST_TASKS = 24
PRIVATE_EVERY = 4
#: Tenants in the traced run's allocation-tracking pass.
MEMORY_TENANTS = 300
#: Passes per run.
PASSES = 16
#: Set-ups timed per pass; the last one serves the pass.
SETUPS = 8
#: Replies per slice of a pass; a pass's wall is the sum of its slices.
SLICE = 100

SCRATCH = Path.cwd() / ".perfbench_tmp"


def service_config(journal_dir: str) -> ServiceConfig:
    return ServiceConfig(
        queue_limit=8,
        backpressure_ratio=None,  # shed on queue caps and budget only
        tenant_budget=25.0,
        cache_entries=4096,
        journal_dir=journal_dir,
        journal_fsync_every=8,
    )


@dataclass(frozen=True)
class Script:
    """One tenant's requests, in order; ``tasks`` go out concurrently
    when ``burst`` is set."""

    open: OpenSession
    workers: tuple
    tasks: tuple
    burst: bool

    def requests(self):
        return (*self.workers, *self.tasks, Advance(to_time=1.0), Drain())


def scripts(seed: int, trace: bool = False) -> dict[tuple, Script]:
    """Every tenant script, keyed ``(shape, private, burst)``."""
    rng = random.Random(seed)
    shapes = [
        (
            [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)) for _ in range(WORKERS)],
            [
                (rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(3.5, 5.5))
                for _ in range(BURST_TASKS)
            ],
        )
        for _ in range(SHAPES)
    ]
    out = {}
    for shape, (workers, tasks) in enumerate(shapes):
        for private in (False, True):
            options = {"cache": True, "max_wait": 0.2, "trace": trace}
            if private:
                options.update(window_seconds=1.0, window_budget=10.0)
            for burst in (False, True):
                count = BURST_TASKS if burst else TASKS
                out[shape, private, burst] = Script(
                    open=OpenSession(method="PUCE" if private else "UCE", options=options),
                    workers=tuple(
                        SubmitWorker.from_worker(
                            Worker(id=100 + j, location=Point(x, y), radius=4.0), budget=40.0
                        )
                        for j, (x, y) in enumerate(workers)
                    ),
                    tasks=tuple(
                        SubmitTask.from_task(
                            Task(id=i, location=Point(x, y), value=value),
                            at=0.1 if burst else 0.05 * (i + 1),
                        )
                        for i, (x, y, value) in enumerate(tasks[:count])
                    ),
                    burst=burst,
                )
    return out


def plan(tenants: int) -> list[tuple]:
    return [
        (t % SHAPES, t % PRIVATE_EVERY == 2, t % BURST_EVERY == 0) for t in range(tenants)
    ]


def tenant_digest(finished: FinishedReply, drained) -> str:
    summary = encode_record(finished)
    del summary["cache_hit_rate"]  # depends on what other tenants cached
    return digest([summary, [encode_record(a) for a in drained]])


def reference(script: Script) -> str:
    """The script applied to a plain session: what the tenant must get."""
    session = DispatchSession(
        script.open.method,
        SessionConfig(
            options=SolveOptions.from_mapping(script.open.options),
            default_deadline=script.open.default_deadline,
        ),
    )
    drained = ()
    for record in script.requests():
        outcome = session.apply(record)
        if isinstance(record, Drain):
            drained = tuple(AssignmentRecord.from_assignment(a) for a in outcome)
    stats = session.apply(Finish())
    leftovers = tuple(AssignmentRecord.from_assignment(a) for a in session.drain())
    return tenant_digest(FinishedReply.from_stats(stats, leftovers), drained)


@dataclass
class Pass:
    """One pass over every tenant: samples and totals."""

    service: DispatchService | None
    scripts: dict
    refs: dict
    codec: CodecMeter
    layers: FlushLayers | None = None
    perturb: bool = False
    latencies: list = field(default_factory=list)
    #: When each reply came back, in seconds since the pass started.
    done: list = field(default_factory=list)
    opens: dict = field(default_factory=dict)
    flush_walls: list = field(default_factory=list)
    requests: int = 0
    offered: int = 0
    shed: dict = field(default_factory=dict)
    errors: int = 0
    checked: int = 0
    mismatched: int = 0
    arrived: int = 0
    assigned: int = 0
    utility: float = 0.0
    spend: float = 0.0
    build: float = 0.0
    setup: list = field(default_factory=list)
    started: float = 0.0
    wall: float = 0.0
    metrics_text: str = ""
    render_s: float = 0.0
    #: The shared cache's (hits, misses, evictions) at the end.
    cache: tuple = ()

    async def send(self, tenant: str, record):
        started = clock()
        reply = self.codec.roundtrip(
            await self.service.submit(tenant, self.codec.roundtrip(record))
        )
        replied = clock()
        self.latencies.append(replied - started)
        self.done.append(replied - self.started)
        self.requests += 1
        if isinstance(reply, ShedReply):
            self.shed[reply.reason] = self.shed.get(reply.reason, 0) + 1
        elif isinstance(reply, ErrorReply):
            self.errors += 1
        return reply

    async def tenant(self, index: int, key: tuple) -> None:
        name = f"tenant-{index}"
        script = self.scripts[key]
        started = clock()
        await self.send(name, script.open)
        self.opens[index] = clock() - started
        # The live stats object outlives the session's close.
        stats = self.service.tenant_stats(name)
        replies = [await self.send(name, record) for record in script.workers]
        if script.burst:
            replies += await asyncio.gather(*(self.send(name, r) for r in script.tasks))
        else:
            replies += [await self.send(name, record) for record in script.tasks]
        self.offered += len(script.tasks)
        replies.append(await self.send(name, Advance(to_time=1.0)))
        drained = await self.send(name, Drain())
        finished = await self.send(name, Finish())
        replies += [drained, finished]
        if isinstance(finished, FinishedReply):
            self.arrived += finished.arrived_tasks
            self.assigned += finished.assigned
            self.utility += finished.total_utility
            self.spend += finished.privacy_spend
        if not any(isinstance(r, (ShedReply, ErrorReply)) for r in replies):
            self.checked += 1
            ok = isinstance(drained, AssignmentsReply) and isinstance(finished, FinishedReply)
            if ok and self.perturb:
                self.perturb = False
                finished = dataclasses.replace(finished, assigned=finished.assigned + 1)
            if not ok or tenant_digest(finished, drained.assignments) != self.refs[key]:
                self.mismatched += 1
        self.flush_walls.extend(flush.flush_seconds for flush in stats.flushes)
        if self.layers is not None:
            self.layers.fold(stats)

    async def client(self, tenants) -> None:
        for index, key in tenants:
            await self.tenant(index, key)

    async def run(self, keys: list) -> None:
        tenants = iter(enumerate(keys))
        self.started = clock()
        await asyncio.gather(*(self.client(tenants) for _ in range(CLIENTS)))
        self.wall = clock() - self.started

    def slices(self) -> list[float]:
        """The pass's wall cut at every ``SLICE``-th reply.  One event loop
        and no timers make the reply order the same on every pass, so
        slice ``i`` is the same work on each."""
        ends = self.done[SLICE - 1 :: SLICE]
        if ends[-1] != self.done[-1]:
            ends.append(self.done[-1])
        return [end - start for start, end in zip([0.0, *ends], ends)]


class FsyncMeter:
    """Counts and times ``os.fsync`` while installed (``with`` block)."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._real = os.fsync

    def __enter__(self):
        real = self._real

        def fsync(fd):
            started = clock()
            try:
                return real(fd)
            finally:
                self.seconds += clock() - started
                self.calls += 1

        os.fsync = fsync
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._real


def set_up(seed: int, tenants: int, trace: bool, journal_dir: str):
    """Workload materialisation and service construction; returns the
    scripts, the tenant plan, the service, and both timings."""
    started = clock()
    keyed = scripts(seed, trace)
    keys = plan(tenants)
    built = clock()
    service = DispatchService(service_config(journal_dir))
    return keyed, keys, service, built - started, clock() - started


async def one_pass(seed, tenants, refs, *, layers=None, perturb=False, after=None, setups=1):
    """Time ``setups`` set-ups of a service, run every tenant through the
    last one, close it."""
    setup = []
    for _ in range(setups - 1):
        spare_dir = tempfile.mkdtemp(dir=SCRATCH)
        setup.append(set_up(seed, tenants, False, spare_dir)[-1])
        shutil.rmtree(spare_dir, ignore_errors=True)
    journal_dir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        keyed, keys, service, build, last = set_up(seed, tenants, layers is not None, journal_dir)
        setup.append(last)
        run = Pass(service, keyed, refs, CodecMeter(), layers, perturb, build=build, setup=setup)
        if after is not None:
            after("start")
        await run.run(keys)
        if after is not None:
            after("end")
        rendered = clock()
        run.metrics_text = service.render_metrics()
        run.render_s = clock() - rendered
        await service.close()
        cache = service.cache
        run.cache = (cache.hits, cache.misses, cache.evictions)
        run.service = None  # a finished pass must not pin its tenants
        return run
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)


def run(
    seed: int, seconds: float, trace: bool, *, tenants=TENANTS, passes=PASSES, perturb=False
) -> Result:
    SCRATCH.mkdir(exist_ok=True)
    try:
        return measure(seed, seconds, trace, tenants, passes, perturb)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def measure(seed, seconds, trace, tenants, count, perturb) -> Result:
    refs = {key: reference(script) for key, script in scripts(seed).items()}
    # Warm-up pass: lazy imports and first-use allocations.
    asyncio.run(one_pass(seed, max(tenants // 10, 1), refs))

    perturbs = iter([perturb])  # only the first pass is ever corrupted
    speed = HostSpeed()

    def measured_pass():
        done = asyncio.run(
            one_pass(seed, tenants, refs, perturb=next(perturbs, False), setups=SETUPS)
        )
        return done, speed.factor()

    passes, factors = zip(*repeat(measured_pass, count, seconds))
    passes = list(passes)

    def at_speed(samples):
        """Each item at its fastest pass, scaled to the reference speed."""
        return fastest([scaled(s, f) for s, f in zip(samples, factors, strict=True)])

    latencies = at_speed(p.latencies for p in passes)
    flush_walls = at_speed(p.flush_walls for p in passes)
    wall = sum(at_speed(p.slices() for p in passes))
    first = passes[0]
    q, flush_tail = tail(flush_walls)
    result = Result("tenant_churn", seed)
    result.notes.append(
        f"{tenants} tenants x {len(passes)} passes, {CLIENTS} in flight; "
        f"{first.requests} requests, {first.checked} tenants checked and "
        f"{len(flush_walls)} flushes, {SETUPS} set-ups and {len(first.slices())} slices of "
        f"{SLICE} replies per pass, each at its fastest pass; flush_tail_ms is p{q:g}"
    )
    result.notes.append(speed.summary())
    if trace:
        untraced = median([p.wall * f for p, f in zip(passes, factors, strict=True)])
        passes.append(traced(result, seed, tenants, refs, untraced, speed))
    else:
        result.put("setup_s", median(at_speed(p.setup for p in passes)), "s")
        result.put("wall_s", wall, "s")
        result.put("flush_p50_ms", 1e3 * percentile(flush_walls, 50), "ms")
        result.put("flush_tail_ms", 1e3 * flush_tail, "ms")
        result.put("assigned_frac", first.assigned / first.arrived, "ratio")
        result.put("utility", first.utility, "utility")
        result.put("privacy_spend", first.spend, "eps")
        result.put("requests_per_s", first.requests / wall, "1/s")
        result.put("request_p50_ms", 1e3 * percentile(latencies, 50), "ms")
        result.put("request_p99_ms", 1e3 * percentile(latencies, 99), "ms")
        result.put("admitted_frac", 1.0 - sum(first.shed.values()) / first.offered, "ratio")
        failed = sum(p.errors + p.mismatched for p in passes)
        result.put("success_frac", 1.0 - failed / sum(p.requests for p in passes), "ratio")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
    result.attempted = sum(p.requests for p in passes)
    result.failed = sum(p.errors + p.mismatched for p in passes)
    return result


def traced(result: Result, seed: int, tenants: int, refs: dict, wall: float, speed) -> Pass:
    """One traced pass for the per-layer metrics, then one pass under
    allocation tracking for the memory a finished tenant leaves behind.
    Returns the traced pass, whose output checks count like any other."""
    layers = FlushLayers()
    with FsyncMeter() as fsync:
        run = asyncio.run(one_pass(seed, tenants, refs, layers=layers))
    at_speed = speed.factor()
    codec = run.codec
    table = layers.table
    table.add("wire.encode", codec.encode_s, calls=codec.calls)
    table.add("wire.decode", codec.decode_s, calls=codec.calls)
    table.add("journal.fsync", fsync.seconds, calls=fsync.calls)
    table.add(
        "pass",
        run.wall,
        table.total("flush") + codec.encode_s + codec.decode_s + fsync.seconds,
    )
    layers.put(result, "pass", 1.0)
    result.put("scenario.build_s", run.build, "s")
    result.put("accountant.calls", 0.0, "count")
    result.put("accountant.s", 0.0, "s")
    hits, misses, evictions = run.cache
    result.put("service_cache.hit_rate", hits / max(hits + misses, 1), "ratio")
    result.put("service_cache.evictions", evictions, "count")
    codec.put(result)
    result.put("journal.fsync_calls", fsync.calls, "count")
    result.put("journal.fsync_s", fsync.seconds, "s")
    opens = [run.opens[i] for i in sorted(run.opens)]
    tenth = max(len(opens) // 10, 1)
    result.put("service.open_us_p50", 1e6 * percentile(opens, 50), "us")
    # Medians, not means: one collector pause moves a tenth's mean by half.
    result.put("service.open_growth", median(opens[-tenth:]) / median(opens[:tenth]), "ratio")
    result.put("admission.shed_queue_full", run.shed.get("queue_full", 0), "count")
    result.put("admission.shed_budget", run.shed.get("budget", 0), "count")
    result.put("metrics.series", sample_lines(run.metrics_text), "count")
    result.put("metrics.render_s", run.render_s, "s")
    result.put("trace.overhead_frac", run.wall * at_speed / wall - 1.0, "ratio")

    memory = {}

    def snapshot(when: str) -> None:
        memory[when] = tracemalloc.get_traced_memory()[0]

    count = min(MEMORY_TENANTS, tenants)
    tracemalloc.start()
    try:
        asyncio.run(one_pass(seed, count, refs, after=snapshot))
    finally:
        tracemalloc.stop()
    result.put(
        "service.retained_kb_per_tenant", (memory["end"] - memory["start"]) / count / 1024, "KiB"
    )
    result.notes.extend(table.format(LAYER_ORDER))
    return run
