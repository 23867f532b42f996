"""Fault-tolerance benchmark: journal overhead and recovery replay.

Crash safety adds moving parts that could each tax the happy path;
this bench records the numbers that keep them honest:

* **journal overhead ratio** — wall clock of one wire-driven tenant run
  with the write-ahead journal on (group-commit ``fsync_every=8``) over
  the same run with journaling off.  The hard acceptance gate: the
  ratio must stay at or under **1.25x** — crash safety is not allowed
  to cost more than a quarter of the clean wall.
* **recovery replay ratio** — seconds for :meth:`DispatchService.
  recover` to rebuild the tenant from checkpoint + journal over the
  original run's wall.  Replay re-applies the accepted records (flushes
  re-execute), so the ratio should hover near the journaled fraction of
  the run, not above it.

``REPRO_BENCH_SMOKE=1`` keeps the run error-only and leaves the tracked
``BENCH_faults.json`` untouched (``REPRO_BENCH_JSON_DIR`` collects the
fresh JSON elsewhere — the CI perf gate does exactly that).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import emit_table
from repro.api.options import SolveOptions
from repro.api.wire import (
    Advance,
    Drain,
    Finish,
    FinishedReply,
    OpenSession,
    SubmitTask,
    SubmitWorker,
)
from repro.datasets.synthetic import NormalGenerator
from repro.service import DispatchService, ServiceConfig, TenantJournal
from repro.stream.arrivals import PoissonProcess, StreamWorkload, TaskArrival

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: The gate the ISSUE pins: crash safety may cost at most a quarter of
#: the clean wall on the wire-driven tenant run.
JOURNAL_OVERHEAD_LIMIT = 1.25

#: Group-commit cadence for the journaled run (recorded in the JSON).
FSYNC_EVERY = 8


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "3" if _smoke() else "5"))


def _task_rate() -> float:
    return float(os.environ.get("REPRO_BENCH_FAULT_RATE", "40" if _smoke() else "120"))


def _json_target() -> Path | None:
    out = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out:
        return Path(out) / "BENCH_faults.json"
    return None if _smoke() else BENCH_JSON


def build_script(task_rate: float, seed: int = 7) -> list:
    """One tenant's full request sequence as wire records."""
    workload = StreamWorkload(
        task_process=PoissonProcess(rate=task_rate, horizon=1.0),
        worker_process=PoissonProcess(rate=task_rate / 4.0, horizon=1.0),
        spatial=NormalGenerator(
            num_tasks=max(int(task_rate * 2), 50),
            num_workers=max(int(task_rate * 2), 50),
            seed=seed,
        ),
        initial_workers=max(int(task_rate / 3), 8),
        task_deadline=0.8,
        worker_budget=30.0,
        seed=seed,
    )
    options = SolveOptions(seed=seed, max_batch_size=24, max_wait=0.1)
    script: list = [OpenSession(method="PUCE", options=options.to_dict())]
    for event in workload.events(seed=seed):
        if isinstance(event, TaskArrival):
            script.append(
                SubmitTask.from_task(
                    event.task, at=event.time, deadline=event.deadline
                )
            )
        else:
            budget = event.budget_capacity
            script.append(
                SubmitWorker.from_worker(
                    event.worker,
                    at=event.time,
                    budget=budget if budget is not None else math.inf,
                )
            )
    for cut in (0.25, 0.5, 0.75, 1.0):
        script.append(Advance(to_time=cut))
        script.append(Drain())
    script.append(Finish())
    return script


async def _drive(service, script, tenant, start_seq=1, stop_after=None):
    final = None
    for index, record in enumerate(script):
        if stop_after is not None and index >= stop_after:
            break
        reply = await service.submit(tenant, record, seq=start_seq + index)
        if isinstance(reply, FinishedReply):
            final = reply
    return final


def timed_wire_run(script, config) -> tuple[float, FinishedReply]:
    async def run():
        service = DispatchService(config)
        started = time.perf_counter()
        final = await _drive(service, script, "bench")
        wall = time.perf_counter() - started
        await service.close()
        return wall, final

    return asyncio.run(run())


@pytest.fixture(scope="module")
def fault_rows():
    runs = _runs()
    script = build_script(_task_rate())
    rows = []

    # 1. Journal overhead: the same wire run, journal off vs on.
    with tempfile.TemporaryDirectory() as scratch:
        clean_walls, journal_walls = [], []
        for attempt in range(runs):
            clean_walls.append(timed_wire_run(script, ServiceConfig())[0])
            journal_walls.append(
                timed_wire_run(
                    script,
                    ServiceConfig(
                        journal_dir=str(Path(scratch) / f"j{attempt}"),
                        journal_fsync_every=FSYNC_EVERY,
                    ),
                )[0]
            )
        clean_wall = statistics.median(clean_walls)
        journal_wall = statistics.median(journal_walls)
    rows.append(
        {
            "metric": "journal",
            "requests": len(script),
            "fsync_every": FSYNC_EVERY,
            "clean_wall_seconds": clean_wall,
            "journal_wall_seconds": journal_wall,
            "overhead_ratio": journal_wall / clean_wall,
            "overhead_limit": JOURNAL_OVERHEAD_LIMIT,
        }
    )

    # 2. Recovery replay: graceful stop mid-run, rebuild, finish.
    stop_after = len(script) // 2
    with tempfile.TemporaryDirectory() as scratch:
        config = ServiceConfig(
            journal_dir=scratch,
            journal_fsync_every=FSYNC_EVERY,
            journal_checkpoint_every=64,
        )

        async def crash_and_recover():
            service = DispatchService(config)
            await _drive(service, script, "bench", stop_after=stop_after)
            await service.close()  # checkpoint + close; files survive
            entries = len(TenantJournal(scratch, "bench").entries())
            fresh = DispatchService(config)
            started = time.perf_counter()
            recovered = await fresh.recover()
            replay = time.perf_counter() - started
            assert recovered == ["bench"]
            final = await _drive(
                fresh, script[stop_after:], "bench", start_seq=stop_after + 1
            )
            await fresh.close()
            return entries, replay, final

        entries, replay_seconds, final = asyncio.run(crash_and_recover())
    rows.append(
        {
            "metric": "recovery",
            "entries_replayed": entries,
            "replay_seconds": replay_seconds,
            "replay_ratio": replay_seconds / journal_wall,
            "finished_after_recovery": isinstance(final, FinishedReply),
        }
    )

    return {"runs": runs, "rows": rows}


def test_faults_baseline(fault_rows):
    """Record the fault-tolerance numbers and their hard gates."""
    rows = fault_rows["rows"]
    journal = next(r for r in rows if r["metric"] == "journal")
    recovery = next(r for r in rows if r["metric"] == "recovery")
    lines = [
        "metric     clean        faulted      ratio",
        f"journal    {journal['clean_wall_seconds']:>8.3f}s    "
        f"{journal['journal_wall_seconds']:>8.3f}s    "
        f"{journal['overhead_ratio']:>5.2f}x  "
        f"(limit {journal['overhead_limit']}x, "
        f"fsync_every={journal['fsync_every']})",
        f"recovery   {recovery['replay_seconds']:>8.3f}s replay of "
        f"{recovery['entries_replayed']} entries  "
        f"({recovery['replay_ratio']:>5.2f}x of the journaled wall)",
    ]
    if not _smoke():
        emit_table("faults", "\n".join(lines))

    target = _json_target()
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(fault_rows, indent=2) + "\n")

    # The acceptance gates, enforced at measurement time too.
    assert journal["overhead_ratio"] <= JOURNAL_OVERHEAD_LIMIT, journal
    assert recovery["finished_after_recovery"], recovery
    assert recovery["entries_replayed"] > 0, recovery
