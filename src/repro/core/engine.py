"""The round-based conflict-elimination engine (Algorithms 1-3).

PUCE, PDCE and their non-private counterparts UCE/DCE share one batch
protocol; only the *objective* (utility vs distance), the *privacy mode*
(obfuscated releases vs exact values) and the PPCF ablation flag differ.
:class:`ConflictEliminationSolver` implements the protocol once, driven by
an :class:`EliminationPolicy`:

Round structure (Algorithm 3):

1. **WorkerProposal** (Algorithm 1): every not-winning worker scans the
   tasks in his service area.  For each he checks, in order: remaining
   budget (private), positive utility (utility objective), and — when the
   task has a winner — that he beats that winner: a PPCF gate on his *real*
   distance and a PCF gate on his would-be new effective distance, both
   against the winner's Eq.-4-adjusted effective distance.  Passing all
   gates he *publishes* a fresh (obfuscated distance, budget) release and
   becomes a candidate.
2. **WinnerChosen** (Algorithm 2): per task, candidates plus the incumbent
   winner are sorted by comparison key (ascending key = descending
   utility / ascending distance); top-choice conflicts are resolved by the
   single-round CEA rule; only conflict-surviving top entries take tasks,
   losing tasks keep their previous winner, displaced winners rejoin the
   not-winning pool.
3. Halt when a round produces no proposal.

Fidelity notes (see DESIGN.md §3): utilities are evaluated against the
worker's round-start spend plus the tentative budget (matching Table IV);
candidates' comparison keys are frozen at proposal time; CEA losers are
not auto-assigned (Example 2).

Every round runs on the pair arrays.  WorkerProposal evaluates its gates
as boolean masks over the instance's CSR pair arrays
(:mod:`repro.core.sweep`) and hands WinnerChosen one flat
:class:`~repro.core.sweep.ProposalBatch`; only the release-set operations
(weighted medians, PCF, publishes) and the handful of decided assignments
run per pair.  The agent-at-a-time sweep that the paper's pseudocode
describes lives in ``tests/reference/`` as the oracle this path is pinned
bit-identical against.

The private sweep draws its Laplace noise through one seam,
:meth:`ConflictEliminationSolver._obfuscated_distances`; replay harnesses
override it to pin the paper's Table IV draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Literal

import numpy as np

from repro.core.cea import resolve_top_conflicts_dense
from repro.core.result import AssignmentResult
from repro.core.sweep import ProposalBatch, VectorSweep
from repro.core.transform import comparison_key, public_value
from repro.errors import ConfigurationError, ConvergenceError
from repro.obs.tracer import NULL_TRACER, stopwatch
from repro.simulation.instance import ProblemInstance
from repro.simulation.server import Server
from repro.utils.rng import ensure_rng

__all__ = ["EliminationPolicy", "ConflictEliminationSolver", "RoundRecord"]

Objective = Literal["utility", "distance"]


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Observability snapshot of one protocol round."""

    round_index: int
    proposals: int
    new_winners: tuple[int, ...]
    displaced: tuple[int, ...]
    assigned_tasks: int


@dataclass(frozen=True, slots=True)
class EliminationPolicy:
    """What flavour of conflict elimination to run.

    Parameters
    ----------
    name:
        Reported method name (``PUCE``, ``PDCE``, ``UCE``, ``DCE``, ...).
    objective:
        ``"utility"`` maximises Eq. 2 utilities (PUCE/UCE); ``"distance"``
        minimises travel distance, ignoring task value and privacy cost in
        its decisions (PDCE/DCE).
    private:
        Whether distances are published through the Laplace mechanism.
    use_ppcf:
        Private mode only: keep the real-distance PPCF gate of Algorithm 1
        line 12.  ``False`` gives the ``-nppcf`` ablations of Table IX.
    """

    name: str
    objective: Objective
    private: bool
    use_ppcf: bool = True

    def __post_init__(self) -> None:
        if self.objective not in ("utility", "distance"):
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if not self.private and not self.use_ppcf:
            raise ConfigurationError("use_ppcf only applies to private policies")


class ConflictEliminationSolver:
    """Round-based solver parameterised by an :class:`EliminationPolicy`."""

    def __init__(self, policy: EliminationPolicy, max_rounds: int = 100_000):
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.policy = policy
        self.max_rounds = max_rounds

    @property
    def name(self) -> str:
        return self.policy.name

    @property
    def is_private(self) -> bool:
        return self.policy.private

    def solve(
        self,
        instance: ProblemInstance,
        seed: int | np.random.Generator | None = None,
        options=None,
        tracer=NULL_TRACER,
    ) -> AssignmentResult:
        """Run the batch protocol to quiescence on ``instance``.

        ``options`` (a :class:`~repro.api.options.SolveOptions`) supplies
        the seed when ``seed`` is omitted — the facade's uniform calling
        convention.  ``tracer`` (a :class:`repro.obs.Tracer`) records
        ``solve.build`` / ``solve.sweep`` / ``solve.resolve`` spans under
        the caller's current span; the no-op default costs nothing.
        """
        if seed is None and options is not None:
            seed = options.seed
        result, _ = self.solve_with_trace(instance, seed, tracer=tracer)
        return result

    def solve_with_trace(
        self,
        instance: ProblemInstance,
        seed: int | np.random.Generator | None = None,
        tracer=NULL_TRACER,
    ) -> tuple[AssignmentResult, list[RoundRecord]]:
        """As :meth:`solve`, also returning a per-round observability trace."""
        watch = stopwatch()
        with watch:
            rng = ensure_rng(seed)
            server = Server(instance)
            with tracer.span("solve.build"):
                state = VectorSweep(
                    instance,
                    server,
                    objective=self.policy.objective,
                    use_ppcf=self.policy.use_ppcf,
                    obfuscate=partial(self._obfuscated_distances, instance, rng)
                    if self.policy.private
                    else None,
                )
            trace: list[RoundRecord] = []

            rounds = 0
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise ConvergenceError(
                        f"{self.name} exceeded max_rounds={self.max_rounds} "
                        f"on a {instance.num_tasks}x{instance.num_workers} instance"
                    )
                with tracer.span("solve.sweep"):
                    batch = state.proposal_round()
                if not batch:
                    trace.append(RoundRecord(rounds, 0, (), (), server.assigned_count))
                    break
                with tracer.span("solve.resolve"):
                    new_winners, new_losers = self._winner_chosen(instance, server, state, batch)
                    # Incremental pool bookkeeping: scatter the round's
                    # churn into the worker mask instead of re-deriving /
                    # re-sorting the pool (mask order is worker order).
                    if new_winners:
                        state.not_winning[list(new_winners)] = False
                    if new_losers:
                        state.not_winning[list(new_losers)] = True
                trace.append(
                    RoundRecord(
                        rounds,
                        len(batch),
                        tuple(sorted(new_winners)),
                        tuple(sorted(new_losers)),
                        server.assigned_count,
                    )
                )
                if not self.policy.private and not new_winners and not new_losers:
                    # Non-private rounds are deterministic functions of
                    # (pool, allocation): an unchanged round is a fixed point
                    # and would repeat forever.  (Private rounds always make
                    # progress — every proposal consumes budget.)
                    break

        result = AssignmentResult(
            method=self.name,
            instance=instance,
            matching=server.matching(),
            ledger=server.ledger,
            rounds=rounds,
            publishes=server.publish_count,
            elapsed_seconds=watch.seconds,
            release_board=server.board(),
        )
        return result, trace

    def _obfuscated_distances(
        self,
        instance: ProblemInstance,
        rng: np.random.Generator,
        pair: np.ndarray,
        budget_index: np.ndarray,
    ) -> np.ndarray:
        """The would-be released distances of fresh ``(pair, budget index)`` rows.

        The private sweep's noise seam: it asks once per (pair, budget
        index), in flat CSR order, and memoizes the answer until the pair
        publishes.  The default adds one Laplace draw of scale ``1 / eps``
        to each real distance, so the noise stream is a pure function of
        the seed.  Replay harnesses override it to pin recorded draws.
        """
        pairs = instance.pairs
        epsilon = pairs.budget_matrix[pair, budget_index]
        return pairs.distance[pair] + rng.laplace(loc=0.0, scale=1.0 / epsilon)

    # -- Algorithm 2: WinnerChosen ------------------------------------------

    def _winner_chosen(
        self,
        instance: ProblemInstance,
        server: Server,
        state: VectorSweep,
        batch: ProposalBatch,
    ) -> tuple[set[int], set[int]]:
        """Assign one round's winners; returns (new winners, displaced losers).

        Per task, the candidate rows plus the incumbent winner form the
        competing table, ranked ascending by ``(key, worker)``.  Sorting
        ``(key, worker, pair)`` tuples gives that order: a worker appears
        at most once per task, so the pair column never decides.  The
        single-round CEA rule (:func:`~repro.core.cea.
        resolve_top_conflicts_dense`) decides on each table's top and
        runner-up keys, and decisions apply in first-appearance (publish)
        order.
        """
        model = instance.model
        pairs = instance.pairs
        groups: dict[int, list[tuple[float, int, int]]] = {}
        for i, w, k, p in zip(
            batch.task.tolist(),
            batch.worker.tolist(),
            batch.key.tolist(),
            batch.pair.tolist(),
        ):
            rows = groups.get(i)
            if rows is None:
                groups[i] = [(k, w, p)]
            else:
                rows.append((k, w, p))
        winner_pair = state.winner_pair
        utility_objective = self.policy.objective == "utility"
        for i, rows in groups.items():
            wp = int(winner_pair[i])
            if wp >= 0:
                winner = int(pairs.worker[wp])
                if self.policy.private:
                    key = self._private_incumbent_key(instance, server, i, winner)
                elif utility_objective:
                    key = comparison_key(
                        float(pairs.distance[wp]), instance.tasks[i].value, model
                    )
                else:
                    key = float(pairs.distance[wp])
                rows.append((key, winner, wp))
            if len(rows) > 1:
                rows.sort()

        group_task_list = list(groups)
        tables = list(groups.values())
        decisions = resolve_top_conflicts_dense(
            group_task_list,
            [rows[0][1] for rows in tables],
            [rows[0][0] for rows in tables],
            [rows[1][0] if len(rows) > 1 else math.inf for rows in tables],
        )

        new_winners: set[int] = set()
        new_losers: set[int] = set()
        for g in decisions:
            i = group_task_list[g]
            _, winner, pair_pos = tables[g][0]
            if winner == server.winner(i):
                continue  # incumbent held the top: nothing changes
            vacated = server.task_of(winner)
            displaced = server.assign(i, winner)
            state.note_assign_pair(i, pair_pos, vacated)
            new_winners.add(winner)
            if displaced is not None:
                new_losers.add(displaced)
        # A displaced worker that immediately won elsewhere is not a loser.
        new_losers -= new_winners
        return new_winners, new_losers

    def _private_incumbent_key(
        self, instance: ProblemInstance, server: Server, i: int, winner: int
    ) -> float:
        """The current winner's comparison key, read off the release board."""
        pair = server.effective_pair(i, winner)
        if self.policy.objective == "utility":
            model = instance.model
            value = public_value(
                instance.tasks[i].value,
                server.release_set(i, winner).total_spend(),
                model,
            )
            return comparison_key(pair.distance, value, model)
        return pair.distance
