"""Non-private baselines of Table IX: UCE, DCE and GRD.

Each private solution's non-private counterpart "eliminates the privacy
budget cost in the utility function and replaces obfuscated distance with
real distance" (Section VII-B): same protocol, exact inputs.  GRD is the
global greedy that repeatedly takes the highest-utility remaining pair.
(GT, the non-private game baseline, lives in :mod:`repro.core.pgt` next to
PGT.)
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ConflictEliminationSolver, EliminationPolicy
from repro.core.result import AssignmentResult
from repro.matching.bipartite import Matching
from repro.matching.greedy import greedy_max_weight
from repro.obs.tracer import stopwatch
from repro.privacy.accountant import PrivacyLedger
from repro.simulation.instance import ProblemInstance

__all__ = ["UCESolver", "DCESolver", "GreedySolver"]


class UCESolver(ConflictEliminationSolver):
    """UCE: PUCE with real distances and zero privacy cost."""

    def __init__(self, max_rounds: int = 100_000):
        super().__init__(
            EliminationPolicy(name="UCE", objective="utility", private=False),
            max_rounds=max_rounds,
        )


class DCESolver(ConflictEliminationSolver):
    """DCE: PDCE with real distances (pure distance minimisation)."""

    def __init__(self, max_rounds: int = 100_000):
        super().__init__(
            EliminationPolicy(name="DCE", objective="distance", private=False),
            max_rounds=max_rounds,
        )


class GreedySolver:
    """GRD: greedily take the globally best remaining worker-task pair.

    Pairs are ranked by non-private utility ``v_i - f_d(d_ij)``; pairs with
    non-positive utility are never formed.
    """

    name = "GRD"
    is_private = False

    def solve(
        self,
        instance: ProblemInstance,
        seed: int | np.random.Generator | None = None,
        options=None,
    ) -> AssignmentResult:
        with stopwatch() as watch:
            weights = {
                (i, j): instance.base_utility(i, j)
                for (i, j) in instance.feasible_pairs()
            }
            index_match = greedy_max_weight(weights)
            pairs = {
                instance.tasks[i].id: instance.workers[j].id
                for i, j in index_match.items()
            }
        return AssignmentResult(
            method=self.name,
            instance=instance,
            matching=Matching(pairs),
            ledger=PrivacyLedger(),
            rounds=1,
            publishes=0,
            elapsed_seconds=watch.seconds,
        )
