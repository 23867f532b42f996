"""Online dispatch: continuous-time arrivals, micro-batching, streaming.

The scenario-diversity layer over the offline Section VII-B protocol:
tasks and workers arrive over continuous time
(:mod:`repro.stream.arrivals`), an event-driven simulator enforces task
deadlines and worker duty cycles (:mod:`repro.stream.simulator`), a
micro-batcher converts the pending buffer into budget-capped
:class:`~repro.simulation.instance.ProblemInstance` flushes
(:mod:`repro.stream.batcher`), and :class:`StreamRunner` replays the same
timeline through every method (:mod:`repro.stream.runner`), collecting
latency / expiry / throughput / privacy-over-time measures
(:mod:`repro.stream.metrics`).

Flush path: every flush is cut into conflict-free units, each solved
in-process with its own noise stream (:mod:`repro.stream.shards`), the
flush size can *adapt* to observed flush service times
(:class:`~repro.stream.batcher.AdaptiveBatchController`), and recurring
flushes can skip instance construction and solve entirely through the
flush-fingerprint solver cache (:mod:`repro.stream.cache`).
"""

from repro.stream.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    PoissonProcess,
    RushHourProcess,
    StreamWorkload,
    TraceProcess,
)
from repro.stream.batcher import (
    AdaptiveBatchController,
    MicroBatcher,
    WorkerBudgetTracker,
)
from repro.stream.events import (
    ActiveWorker,
    Assignment,
    OpenTask,
    StreamEvent,
    TaskArrival,
    WorkerArrival,
    WorkerDeparture,
    merge_events,
)
from repro.stream.cache import FlushSolverCache, cache_profile, flush_fingerprint
from repro.stream.metrics import FlushRecord, StreamStats
from repro.stream.runner import StreamReport, StreamRunner
from repro.stream.shards import (
    ShardComponent,
    ShardCut,
    ShardSeedSchedule,
    build_shard_instance,
    cut_flush,
    merge_shard_results,
    solve_flush,
)
from repro.stream.simulator import DispatchSimulator, StreamConfig

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "RushHourProcess",
    "BurstyProcess",
    "TraceProcess",
    "StreamWorkload",
    "TaskArrival",
    "WorkerArrival",
    "WorkerDeparture",
    "StreamEvent",
    "Assignment",
    "OpenTask",
    "ActiveWorker",
    "merge_events",
    "MicroBatcher",
    "AdaptiveBatchController",
    "WorkerBudgetTracker",
    "ShardComponent",
    "ShardCut",
    "ShardSeedSchedule",
    "cut_flush",
    "build_shard_instance",
    "merge_shard_results",
    "solve_flush",
    "FlushSolverCache",
    "cache_profile",
    "flush_fingerprint",
    "StreamConfig",
    "DispatchSimulator",
    "StreamRunner",
    "StreamReport",
    "StreamStats",
    "FlushRecord",
]
