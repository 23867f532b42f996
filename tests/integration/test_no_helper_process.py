"""A dispatch run starts no helper process and leaves none behind.

Flushes solve in-process, so a session configured like the big-flush
``dense_city`` workload (including its legacy ``parallel="process"``
request) must finish without a pool worker and without the
multiprocessing resource tracker, which only shared-memory segments or
process pools would start.  The run happens in a fresh interpreter so
nothing the test suite itself started can mask or fake the result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import json, multiprocessing, warnings
from multiprocessing import resource_tracker

from repro.api.options import SolveOptions
from repro.api.scenario import ScenarioSpec
from repro.api.session import DispatchSession, SessionConfig

warnings.simplefilter("ignore", DeprecationWarning)
options = SolveOptions(
    seed=7, max_batch_size=300, max_wait=0.1, shards="auto", parallel="process",
    max_shard_workers=2, cache=True, window_seconds=1.0, window_budget=10.0,
)
spec = ScenarioSpec(
    arrivals="poisson", dataset="normal", horizon=0.75, task_rate=400.0,
    worker_rate=20.0, initial_workers=600, task_deadline=1.0, worker_range=2.5,
    methods=("PUCE",), options=options,
)
session = DispatchSession("PUCE", SessionConfig(options=options))
stats = session.run(spec.to_workload().events(seed=7))
print(json.dumps({
    "arrived": stats.arrived_tasks,
    "multi_unit_flushes": sum(flush.shards > 1 for flush in stats.flushes),
    "children": len(multiprocessing.active_children()),
    "tracker_fd": resource_tracker._resource_tracker._fd,
}))
"""


def test_dense_session_runs_without_helper_processes():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["arrived"] >= 200
    assert report["multi_unit_flushes"] > 0
    assert report["children"] == 0
    assert report["tracker_fd"] is None
