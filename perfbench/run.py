"""End-to-end benchmark of the dispatch system: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload duty_cycle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload tenant_churn --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a traced run's
per-layer metrics and layer table.  Human-readable report lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
every workload briefly, checks that each metric named in
``BENCHMARK.json`` is emitted and finite, and that a deliberately
corrupted result trips the output check.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

from common import COVERAGE_TOLERANCE

ROOT = Path.cwd()
#: Temporary files of the program under test; churn's journals live
#: beside it under the same ignored directory.
TEMP = ROOT / ".perfbench_tmp" / "tmp"
WORKLOADS = ("duty_cycle", "dense_city", "tenant_churn")
#: The smoke runs' cap on repeat time (see ``common.repeat``).
SMOKE_SECONDS = 30.0


def _import_program() -> None:
    """Put the source tree of the checkout on the path, or exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no program source at {ROOT / 'src'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))


def _keep_temp_files_in_checkout() -> None:
    """Point the program's temporary files (the shard transport's segment
    manifests) at a directory of the checkout, removed in ``_stop_helpers``."""
    TEMP.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(TEMP)


def _stop_helpers() -> None:
    """Stop every process the run started and wait for each to end.

    The warm shard pools join their workers.  The multiprocessing
    resource tracker (started by the program's shared-memory probe) would
    otherwise outlive this process until it notices the closed pipe, so
    it is stopped and reaped here.
    """
    from repro.stream.shards import shutdown_warm_pools

    try:
        shutdown_warm_pools()
    finally:
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(TEMP, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, **smoke):
    if name == "tenant_churn":
        import churn

        return churn.run(seed, seconds, trace, **smoke)
    import scenarios

    return scenarios.run(name, seed, seconds, trace, **smoke)


def smoke() -> int:
    """Brief runs of every workload; returns the number of problems."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    sizes = {
        "duty_cycle": {"days": 1, "quality_days": 1, "rounds": 2},
        "dense_city": {"days": 1, "quality_days": 1, "rounds": 2},
        "tenant_churn": {"tenants": 60, "passes": 2},
    }
    problems = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, SMOKE_SECONDS, trace, **sizes[name])
            missing = [m for m in expected[trace] if m not in result.metrics]
            bad = [m for m, (value, _) in result.metrics.items() if not math.isfinite(value)]
            coverage = result.metrics.get("trace.coverage", (1.0, ""))[0]
            uncovered = 1.0 - coverage > COVERAGE_TOLERANCE
            ok = not missing and not bad and not uncovered and result.failed == 0
            problems += not ok
            print(
                f"smoke {name} trace={int(trace)}: "
                + (
                    "ok"
                    if ok
                    else f"missing {missing} non-finite {bad} coverage {coverage:.3f} "
                    f"failed {result.failed}"
                )
            )
        corrupted = run_workload(name, 1, SMOKE_SECONDS, False, perturb=True, **sizes[name])
        tripped = corrupted.failed >= 1 and corrupted.metrics["success_frac"][0] < 1.0
        problems += not tripped
        print(f"smoke {name} perturbed: {'check tripped' if tripped else 'CHECK DID NOT TRIP'}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload briefly")
    args = parser.parse_args()
    _import_program()
    _keep_temp_files_in_checkout()
    try:
        if args.smoke:
            return 1 if smoke() else 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result.emit()
        return 0
    finally:
        _stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
