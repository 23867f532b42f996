"""The Section V time-cost claim: PUCE is O(m . n . Z).

The paper's complexity analysis bounds PUCE by the total number of budget
elements.  This bench measures wall-clock against batch size at fixed
density and worker ratio (so ``m . n`` grows quadratically in the scale
factor while per-circle work stays constant), and checks the growth stays
polynomial of the predicted order — i.e. time per (m x n) pair does not
blow up.
"""

import pytest

from benchmarks.conftest import bench_seed, emit_table, min_time
from repro.core.pgt import PGTSolver
from repro.core.puce import PUCESolver
from repro.experiments.sweeps import make_generator
from tests.reference.scalar_sweep import ScalarSweepSolver

SIZES = (100, 200, 400, 800)


@pytest.fixture(scope="module")
def scaling_rows():
    rows = []
    for size in SIZES:
        generator = make_generator("normal", size, 2 * size, bench_seed())
        instance = generator.instance()
        rows.append(
            {
                "tasks": size,
                "pairs": instance.num_feasible_pairs,
                # The complexity claim is about the paper's per-proposal
                # implementation model — the scalar reference sweep; the
                # vectorized engine is reported alongside.
                "puce": min_time(ScalarSweepSolver.like(PUCESolver()), instance),
                "puce_vec": min_time(PUCESolver(), instance),
                "pgt": min_time(PGTSolver(), instance),
            }
        )
    lines = ["tasks   pairs   PUCE_ms  PUCEvec_ms   PGT_ms   PUCE_us/pair"]
    for r in rows:
        per_pair = 1e6 * r["puce"] / max(r["pairs"], 1)
        lines.append(
            f"{r['tasks']:5d}  {r['pairs']:6d}  {1000 * r['puce']:8.1f}  "
            f"{1000 * r['puce_vec']:10.1f}  "
            f"{1000 * r['pgt']:7.1f}  {per_pair:12.2f}"
        )
    emit_table("scaling", "\n".join(lines))
    return rows


def test_scaling_is_near_linear_in_pairs(benchmark, scaling_rows):
    generator = make_generator("normal", 200, 400, bench_seed())
    instance = generator.instance()
    benchmark.pedantic(
        lambda: PUCESolver().solve(instance, seed=1), rounds=3, iterations=1
    )

    # Feasible pairs grow with the population product at fixed density.
    pairs = [r["pairs"] for r in scaling_rows]
    assert pairs == sorted(pairs)

    # O(m n Z): time per feasible pair stays bounded — the largest scale
    # may cost at most ~4x the per-pair time of the smallest (cache
    # effects and round counts wiggle; super-linear blow-up would show up
    # as far more).
    first = scaling_rows[0]["puce"] / max(scaling_rows[0]["pairs"], 1)
    last = scaling_rows[-1]["puce"] / max(scaling_rows[-1]["pairs"], 1)
    assert last < 4.0 * first, (first, last)

    # PGT stays cheaper than PUCE at every scale (Figure 4's ordering,
    # against the scalar reference implementation).
    for row in scaling_rows:
        assert row["pgt"] < row["puce"], row

    # The vectorized sweep must never lose to the scalar reference at
    # these scales.
    for row in scaling_rows:
        assert row["puce_vec"] < row["puce"], row
