"""PUCE — Private Utility Conflict-Elimination (Section V).

A thin, named configuration of the shared round-based engine
(:mod:`repro.core.engine`): utility objective, private releases, PPCF
gates.  ``use_ppcf=False`` yields the PUCE-nppcf ablation of Table IX
(every real-distance PPCF gate replaced by the PCF-only check), used by
the Figure 17/25 experiments.
"""

from __future__ import annotations

from repro.core.engine import ConflictEliminationSolver, EliminationPolicy

__all__ = ["PUCESolver"]


class PUCESolver(ConflictEliminationSolver):
    """Private Utility Conflict-Elimination (Algorithms 1-3)."""

    def __init__(self, use_ppcf: bool = True, max_rounds: int = 100_000):
        name = "PUCE" if use_ppcf else "PUCE-nppcf"
        super().__init__(
            EliminationPolicy(
                name=name, objective="utility", private=True, use_ppcf=use_ppcf
            ),
            max_rounds=max_rounds,
        )
