"""Shared pieces of the end-to-end benchmark: statistics, output digests,
layer tables built from span trees, and the result line.

Everything here runs outside the program under test: it reads what the
program already exposes (``FlushRecord`` fields, ``StreamStats.spans``
under ``SolveOptions(trace=True)``) and times the benchmark's own calls
into the public API.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

clock = time.perf_counter

#: A seed kept out of every tuning run, for later performance claims.
HELD_OUT_SEED = 9001

#: Percentiles tried, highest first, for a timing's tail.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A run whose repeats take longer than this many times ``--seconds``
#: fails rather than report figures from a host that slow.
OVERRUN = 5.0

#: Largest share of traced ``wall_s`` that flush phases plus the
#: simulator loop may leave unaccounted before the coverage check fails.
COVERAGE_TOLERANCE = 0.10

#: Rows of a traced report's layer table, outermost first; a workload
#: prints the rows it has.
LAYER_ORDER = (
    "replay",
    "pass",
    "flush",
    "flush.cache",
    "batcher.build",
    "flush.cut",
    "flush.plan",
    "shards.build",
    "flush.solve",
    "solve.build",
    "solve.sweep",
    "solve.resolve",
    "flush.merge",
    "flush.commit",
    "accountant",
    "wire.encode",
    "wire.decode",
    "journal.fsync",
)


#: A fixed scale close to :func:`probe` on the reference host (2-core
#: VM, Python 3.11) when calm; timings are scaled to that host speed.
PROBE_REFERENCE_S = 250e-6
#: Loops per :func:`probe`.
PROBE_REPS = 60


def probe() -> float:
    """Median of ``PROBE_REPS`` runs of a fixed pure-Python loop: how fast
    the shared host runs right now.  It runs no code of the program."""
    times = []
    for _ in range(PROBE_REPS):
        started = clock()
        total, table = 0, {}
        for i in range(3000):
            total += i * i
            table[i & 63] = total
        times.append(clock() - started)
    return statistics.median(times)


class HostSpeed:
    """Scales timings to the reference host's speed.

    Each :meth:`factor` call probes the host and returns
    ``PROBE_REFERENCE_S`` over the mean of this probe and the previous
    one: the factor for the work done between the two.  Multiplying a
    timing by it cancels a slowdown of the shared host that lasts longer
    than the repeats, which taking each item's fastest cannot filter.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._last = probe()

    def factor(self) -> float:
        now = probe()
        factor = 2.0 * PROBE_REFERENCE_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor

    def summary(self) -> str:
        ordered = sorted(self.factors)
        return (
            f"host speed factor over {len(ordered)} probes: min {ordered[0]:.3f}, "
            f"median {median(ordered):.3f}, max {ordered[-1]:.3f}"
        )


def scaled(values, factor: float) -> list[float]:
    return [value * factor for value in values]


def repeat(step, count: int, seconds: float) -> list:
    """``count`` calls of ``step()``, always ``count``.

    Every timing is an item's fastest over these repeats, so the count is
    fixed: a faster program or a calmer host must not buy more filtering.
    ``seconds`` only caps the run, which fails loudly past ``OVERRUN``
    times it.
    """
    started = clock()
    results = []
    for _ in range(count):
        results.append(step())
        elapsed = clock() - started
        if elapsed > OVERRUN * seconds:
            raise RuntimeError(
                f"{len(results)} of {count} repeats took {elapsed:.1f} s, over "
                f"{OVERRUN:g} x --seconds {seconds:g}: the host is too slow to measure"
            )
    return results


def fastest(samples) -> list[float]:
    """Each item at its fastest over aligned sample lists, one per repeat.

    Repeats do identical work in an identical order, so item ``i`` of
    every list is the same unit of work; its minimum filters the host's
    bursts of contention.
    """
    return [min(values) for values in zip(*samples, strict=True)]


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q / 100.0 * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def tail(values) -> tuple[float, float]:
    """``(q, value)``: the highest ladder percentile with at least ten
    samples beyond it."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def digest(payload) -> str:
    """A stable hash of a JSON-able payload (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class CallMeter:
    """Counts and times the outermost calls to an object's public methods.

    :meth:`wrap` replaces each public method *on the instance*, so the
    program's own references to the object see the wrapper; calls made
    from inside a wrapped call are not double-booked.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._depth = 0

    def wrap(self, obj) -> None:
        for name in dir(type(obj)):
            if name.startswith("_"):
                continue
            attr = getattr(type(obj), name)
            if isinstance(attr, property) or not callable(attr):
                continue
            setattr(obj, name, self._timed(getattr(obj, name)))

    def _timed(self, method):
        def timed(*args, **kwargs):
            if self._depth:
                return method(*args, **kwargs)
            self._depth += 1
            started = clock()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds += clock() - started
                self.calls += 1
                self._depth -= 1

        return timed


@dataclass
class LayerTable:
    """Per-layer total and self time (span minus child spans) and calls."""

    rows: dict[str, list] = field(default_factory=dict)

    def add(self, name: str, total: float, children: float = 0.0, calls: int = 1):
        row = self.rows.setdefault(name, [0.0, 0.0, 0])
        row[0] += total
        row[1] += total - children
        row[2] += calls

    def add_spans(self, spans) -> float:
        """Fold one tracer's flat span list in; returns its root seconds.

        The simulator and the shard executor both name their instance
        construction ``flush.build``; the one before ``flush.cut`` inside
        a flush is the batcher's, the one after is the shard rebuild.
        """
        children = [0.0] * len(spans)
        cut_seen = set()
        roots = 0.0
        for span in spans:
            if span.parent >= 0:
                children[span.parent] += span.seconds
            else:
                roots += span.seconds
        for span in spans:
            name = span.name
            if name == "flush.cut":
                cut_seen.add(span.parent)
            elif name == "flush.build":
                name = "shards.build" if span.parent in cut_seen else "batcher.build"
            self.add(name, span.seconds, children[span.index])
        return roots

    def total(self, name: str) -> float:
        return self.rows.get(name, [0.0])[0]

    def format(self, order) -> list[str]:
        lines = [f"{'layer':<22}{'total_s':>12}{'self_s':>12}{'calls':>10}"]
        for name in order:
            if name in self.rows:
                total, own, calls = self.rows[name]
                lines.append(f"{name:<22}{total:>12.6f}{own:>12.6f}{calls:>10}")
        return lines


class FlushLayers:
    """Flush-path layer readings folded from traced ``StreamStats``."""

    def __init__(self) -> None:
        self.table = LayerTable()
        self.flush_s = 0.0
        self.phase_s = 0.0
        self.flushes = 0
        self.empty = 0
        self.built_pairs = 0
        self.lookups = 0
        self.hits = 0
        self.executor_flushes = 0
        self.components = 0
        self.proc = 0
        self.degraded = 0
        self.solved_pairs = 0

    def fold(self, stats) -> float:
        """Fold one traced session's stats; returns its summed flush seconds."""
        flush_total = self.table.add_spans(stats.spans)
        for flush in stats.flushes:
            self.flushes += 1
            self.flush_s += flush.flush_seconds
            self.phase_s += sum((flush.phase_seconds or {}).values())
            self.empty += flush.pairs == 0
            if flush.cache_hit is not None:
                self.lookups += 1
                self.hits += bool(flush.cache_hit)
            if not flush.cache_hit:
                self.built_pairs += flush.pairs
            if flush.planned_mode != "cache":
                self.executor_flushes += 1
                self.components += flush.shards
                self.proc += flush.planned_mode.startswith("proc")
                self.solved_pairs += flush.pairs
            self.degraded += flush.degraded is not None
        return flush_total

    def put(self, result: "Result", root: str, scale: float) -> None:
        """Report the flush-path metrics per ``scale`` units of work.

        ``root`` is the table row holding the traced wall.  The simulator
        loop is that wall minus the summed ``FlushRecord.flush_seconds``;
        the coverage line reconciles the summed ``phase_seconds`` plus the
        loop against the wall and flags a residual (flush time no phase
        accounts for) over ``COVERAGE_TOLERANCE``; ``--smoke`` fails on it.
        """
        t = self.table
        solve = t.total("flush.solve")
        build = t.total("batcher.build")
        wall = t.total(root)
        loop = wall - self.flush_s
        residual = wall - (self.phase_s + loop)
        covered = abs(residual) <= COVERAGE_TOLERANCE * wall
        executed = max(self.executor_flushes, 1)
        result.put("simulator.loop_s", loop * scale, "s")
        result.put("simulator.flushes", self.flushes * scale, "count")
        result.put("simulator.empty_flush_frac", self.empty / max(self.flushes, 1), "ratio")
        result.put("batcher.build_s", build * scale, "s")
        result.put("batcher.pairs", self.built_pairs * scale, "count")
        result.put("batcher.build_us_per_pair", 1e6 * build / max(self.built_pairs, 1), "us")
        result.put("cache.s", t.total("flush.cache") * scale, "s")
        result.put("cache.lookups", self.lookups * scale, "count")
        result.put("cache.hit_rate", self.hits / max(self.lookups, 1), "ratio")
        result.put("shards.plan_s", t.total("flush.plan") * scale, "s")
        result.put("shards.cut_s", t.total("flush.cut") * scale, "s")
        result.put("shards.merge_s", t.total("flush.merge") * scale, "s")
        result.put("shards.components_mean", self.components / executed, "count")
        result.put("shards.proc_frac", self.proc / executed, "ratio")
        result.put("shards.degraded", self.degraded, "count")
        result.put("engine.solve_s", solve * scale, "s")
        result.put("engine.pairs_per_s", self.solved_pairs / solve if solve else 0.0, "1/s")
        result.put("commit.s", t.total("flush.commit") * scale, "s")
        result.put("trace.coverage", (self.phase_s + loop) / wall, "ratio")
        result.notes.append(
            f"coverage: phase_seconds {self.phase_s * scale:.6f} s + simulator.loop_s "
            f"{loop * scale:.6f} s vs traced wall_s {wall * scale:.6f} s; residual "
            f"{residual * scale:.6f} s ({residual / wall:.1%}), tolerance "
            f"{COVERAGE_TOLERANCE:.0%}: {'ok' if covered else 'OVER TOLERANCE'}"
        )


class CodecMeter:
    """Times the wire codec: record -> JSON text, JSON text -> record."""

    def __init__(self) -> None:
        self.calls = 0
        self.encode_s = 0.0
        self.decode_s = 0.0

    def roundtrip(self, record):
        """``record`` as the other side of the wire decodes it."""
        from repro.api.wire import decode_record, encode_record

        started = clock()
        text = json.dumps(encode_record(record))
        encoded = clock()
        decoded = decode_record(json.loads(text))
        self.encode_s += encoded - started
        self.decode_s += clock() - encoded
        self.calls += 1
        return decoded

    def put(self, result: "Result") -> None:
        result.put("wire.decode_us", 1e6 * self.decode_s / max(self.calls, 1), "us")
        result.put("wire.encode_us", 1e6 * self.encode_s / max(self.calls, 1), "us")


def sample_lines(text: str) -> int:
    """Sample lines (not comments) of a Prometheus text exposition."""
    return sum(1 for line in text.splitlines() if line and not line.startswith("#"))


@dataclass
class Result:
    """What one benchmark run reports."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def emit(self) -> None:
        print(f"# workload {self.workload}  seed {self.seed}  "
              f"held-out seed {HELD_OUT_SEED}")
        print(f"# host {json.dumps(host_fingerprint(), sort_keys=True)}")
        for line in self.notes:
            print(f"# {line}")
        for name, (value, unit) in self.metrics.items():
            print(f"{name:<34}{value:>18.6f} {unit}")
        line = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        print(json.dumps(line))
