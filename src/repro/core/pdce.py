"""PDCE — Private Distance Conflict-Elimination (the Section VII baseline).

The paper's main competitor: Wang et al.'s distance-based allocation,
altered exactly as Section VII-B describes — workers propose only inside
their service areas and the real-distance gate uses PPCF.  Its objective is
to minimise total travel distance, so its decisions ignore task values and
privacy costs entirely (which is precisely why PUCE beats it on utility).

``use_ppcf=False`` gives the PDCE-nppcf ablation of Table IX.
"""

from __future__ import annotations

from repro.core.engine import ConflictEliminationSolver, EliminationPolicy

__all__ = ["PDCESolver"]


class PDCESolver(ConflictEliminationSolver):
    """Private Distance Conflict-Elimination."""

    def __init__(self, use_ppcf: bool = True, max_rounds: int = 100_000):
        name = "PDCE" if use_ppcf else "PDCE-nppcf"
        super().__init__(
            EliminationPolicy(
                name=name, objective="distance", private=True, use_ppcf=use_ppcf
            ),
            max_rounds=max_rounds,
        )
