"""Batch experiment runner.

Runs a set of methods over a sequence of batch instances (the Section
VII-B protocol) and aggregates the Section VII-C measures.  All methods
see the *same* instances; noise streams are derived per (method, batch)
from one base seed so a whole experiment is reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.instance import ProblemInstance
from repro.simulation.metrics import (
    MethodStats,
    relative_distance_deviation,
    relative_utility_deviation,
)
from repro.utils.rng import stable_hash

if TYPE_CHECKING:  # runtime import is deferred to break the package cycle
    from repro.core.registry import Solver

__all__ = ["BatchRunner", "RunReport"]


@dataclass
class RunReport:
    """Aggregated outcome of one multi-method, multi-batch run."""

    stats: dict[str, MethodStats] = field(default_factory=dict)

    def methods(self) -> tuple[str, ...]:
        return tuple(self.stats)

    def __getitem__(self, method: str) -> MethodStats:
        try:
            return self.stats[method]
        except KeyError:
            raise ConfigurationError(
                f"method {method!r} not in report; have {sorted(self.stats)}"
            ) from None

    def utility_deviation(self, method: str) -> float:
        """``U_RD`` of a private method vs its non-private counterpart.

        Requires the counterpart to be part of the same run.
        """
        counterpart = self._counterpart(method)
        return relative_utility_deviation(self[counterpart], self[method])

    def distance_deviation(self, method: str) -> float:
        """``D_RD`` of a private method vs its non-private counterpart."""
        counterpart = self._counterpart(method)
        return relative_distance_deviation(self[counterpart], self[method])

    def _counterpart(self, method: str) -> str:
        from repro.core.registry import NON_PRIVATE_COUNTERPART

        if method not in NON_PRIVATE_COUNTERPART:
            raise ConfigurationError(
                f"{method!r} has no non-private counterpart (is it private?)"
            )
        return NON_PRIVATE_COUNTERPART[method]


class BatchRunner:
    """Run several methods over the same batches and aggregate.

    Parameters
    ----------
    methods:
        Method names (Table IX), method-spec strings
        (``"PDCE(ppcf=off)"``), or ready solver objects.
    options:
        Optional :class:`~repro.api.options.SolveOptions` applied to
        named-method construction and used as the default run seed.
    """

    def __init__(self, methods: Sequence["str | Solver"], options=None):
        from repro.core.registry import make_solver

        if not methods:
            raise ConfigurationError("need at least one method")
        self.options = options
        self.solvers: list["Solver"] = [
            make_solver(m, options) if isinstance(m, str) else m for m in methods
        ]
        names = [s.name for s in self.solvers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate method names in {names}")

    def run(
        self, instances: Iterable[ProblemInstance], seed: int | None = None
    ) -> RunReport:
        """Solve every instance with every method; return the aggregate.

        ``seed`` defaults to ``options.seed`` (0 without options) — the
        facade's uniform convention.
        """
        if seed is None:
            seed = self.options.seed if self.options is not None else 0
        report = RunReport(
            stats={s.name: MethodStats(method=s.name) for s in self.solvers}
        )
        for batch_index, instance in enumerate(instances):
            for solver in self.solvers:
                # Independent but reproducible noise per (method, batch).
                stream = np.random.default_rng(
                    (seed, batch_index, stable_hash(solver.name))
                )
                report.stats[solver.name].add(solver.solve(instance, seed=stream))
        return report
