"""The agent-at-a-time reference sweep of the conflict-elimination engine.

Algorithms 1-3 as the paper's pseudocode reads them: each not-winning
worker, in index order, walks his service area through a
:class:`~repro.core.agents.WorkerAgent`, and WinnerChosen ranks per-task
:class:`~repro.core.cea.Candidate` lists.  The runtime engine solves on
pair arrays instead; the equivalence properties pin the two bit-identical,
and the benches that time the paper's per-proposal model time this class.
"""

from __future__ import annotations

import numpy as np

from repro.core.agents import WorkerAgent, build_agents
from repro.core.cea import Candidate, resolve_top_conflicts
from repro.core.compare import pcf, ppcf
from repro.core.engine import ConflictEliminationSolver, RoundRecord
from repro.core.result import AssignmentResult
from repro.core.transform import adjusted_rival_distance, comparison_key, public_value
from repro.errors import ConvergenceError
from repro.obs.tracer import NULL_TRACER, stopwatch
from repro.simulation.instance import ProblemInstance
from repro.simulation.server import Server
from repro.utils.rng import ensure_rng

__all__ = ["ScalarSweepSolver"]


class ScalarSweepSolver(ConflictEliminationSolver):
    """The engine's protocol on the agent-at-a-time reference sweep."""

    @classmethod
    def like(cls, solver: ConflictEliminationSolver) -> "ScalarSweepSolver":
        """The reference twin of a runtime engine solver."""
        return cls(solver.policy, max_rounds=solver.max_rounds)

    def solve_with_trace(
        self,
        instance: ProblemInstance,
        seed: int | np.random.Generator | None = None,
        tracer=NULL_TRACER,
    ) -> tuple[AssignmentResult, list[RoundRecord]]:
        watch = stopwatch()
        with watch:
            rng = ensure_rng(seed)
            server = Server(instance)
            agents = self._build_agents(instance, rng) if self.policy.private else None
            not_winning = set(range(instance.num_workers))
            trace: list[RoundRecord] = []

            rounds = 0
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise ConvergenceError(
                        f"{self.name} exceeded max_rounds={self.max_rounds} "
                        f"on a {instance.num_tasks}x{instance.num_workers} instance"
                    )
                candidates = self._worker_proposal(instance, server, agents, not_winning)
                if not candidates:
                    trace.append(RoundRecord(rounds, 0, (), (), server.assigned_count))
                    break
                proposal_count = sum(len(entries) for entries in candidates.values())
                new_winners, new_losers = self._winner_chosen(instance, server, candidates)
                not_winning -= new_winners
                not_winning |= new_losers
                trace.append(
                    RoundRecord(
                        rounds,
                        proposal_count,
                        tuple(sorted(new_winners)),
                        tuple(sorted(new_losers)),
                        server.assigned_count,
                    )
                )
                if not self.policy.private and not new_winners and not new_losers:
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

    def _build_agents(
        self, instance: ProblemInstance, rng: np.random.Generator
    ) -> list[WorkerAgent]:
        """Agent construction hook (overridden by replay harnesses)."""
        return build_agents(instance, rng)

    # -- Algorithm 1: WorkerProposal ----------------------------------------

    def _worker_proposal(
        self,
        instance: ProblemInstance,
        server: Server,
        agents: list[WorkerAgent] | None,
        not_winning: set[int],
    ) -> dict[int, list[Candidate]]:
        """One proposal sweep; publishes private releases as a side effect."""
        proposals: dict[int, list[Candidate]] = {}
        for j in sorted(not_winning):
            agent = agents[j] if agents is not None else None
            for i in instance.reachable[j]:
                candidate = self._evaluate_pair(instance, server, agent, i, j)
                if candidate is not None:
                    proposals.setdefault(i, []).append(candidate)
        return proposals

    def _evaluate_pair(
        self,
        instance: ProblemInstance,
        server: Server,
        agent: WorkerAgent | None,
        i: int,
        j: int,
    ) -> Candidate | None:
        """Gates of Algorithm 1 for one (task, worker) pair.

        The utility privacy cost is the *pair's* cumulative published
        budget plus the tentative new element (the paper's Eq. 2 semantics
        as pinned by the Table IV worked values; DESIGN.md §3.1).
        """
        model = instance.model
        task = instance.tasks[i]
        d_real = instance.distance(i, j)
        private = agent is not None

        if private:
            if not agent.can_propose(i):
                return None
            tentative = agent.peek_proposal(i, server)
            pair_spend = agent.pair_budget(i).spent + tentative.epsilon
        else:
            tentative = None
            pair_spend = 0.0

        if self.policy.objective == "utility":
            utility = model.utility(task.value, d_real, pair_spend)
            if utility <= 0.0:
                return None
            own_value = public_value(task.value, pair_spend, model)
        else:
            own_value = 0.0  # distance objective: keys are raw distances

        winner = server.winner(i)
        if winner is not None:
            if private:
                if not self._beats_winner_private(
                    instance, server, i, winner, d_real, tentative, own_value
                ):
                    return None
            else:
                # Gate on the *same* key computation the competing table
                # sorts by: gating on raw distances while sorting on
                # shifted keys can disagree after floating-point
                # absorption, livelocking the round loop.
                challenger_key = (
                    comparison_key(d_real, task.value, model)
                    if self.policy.objective == "utility"
                    else d_real
                )
                if not challenger_key < self._incumbent_entry(instance, server, i, winner).key:
                    return None

        if private:
            agent.publish(tentative, server)
            effective = server.release_set(i, j).effective_pair()
            key = (
                comparison_key(effective.distance, own_value, model)
                if self.policy.objective == "utility"
                else effective.distance
            )
        else:
            key = (
                comparison_key(d_real, task.value, model)
                if self.policy.objective == "utility"
                else d_real
            )
        return Candidate(worker=j, key=key)

    def _beats_winner_private(
        self,
        instance: ProblemInstance,
        server: Server,
        i: int,
        winner: int,
        d_real: float,
        tentative,
        own_value: float,
    ) -> bool:
        """Lines 9-15 of Algorithm 1: PPCF then PCF against the winner."""
        model = instance.model
        win_pair = server.effective_pair(i, winner)
        if self.policy.objective == "utility":
            winner_value = public_value(
                instance.tasks[i].value,
                server.release_set(i, winner).total_spend(),
                model,
            )
            rival = adjusted_rival_distance(win_pair.distance, own_value, winner_value, model)
        else:
            rival = win_pair.distance
        if self.policy.use_ppcf and ppcf(d_real, rival, win_pair.epsilon) <= 0.5:
            return False
        if (
            pcf(
                tentative.effective.distance,
                rival,
                tentative.effective.epsilon,
                win_pair.epsilon,
            )
            <= 0.5
        ):
            return False
        return True

    # -- Algorithm 2: WinnerChosen ------------------------------------------

    def _winner_chosen(
        self,
        instance: ProblemInstance,
        server: Server,
        candidates: dict[int, list[Candidate]],
    ) -> tuple[set[int], set[int]]:
        """Assign round winners; returns (new winners, displaced losers)."""
        competing: dict[int, list[Candidate]] = {}
        for i, entries in candidates.items():
            table = list(entries)
            incumbent = server.winner(i)
            if incumbent is not None:
                table.append(self._incumbent_entry(instance, server, i, incumbent))
            table.sort(key=lambda c: (c.key, c.worker))
            competing[i] = table

        decisions = resolve_top_conflicts(competing)

        new_winners: set[int] = set()
        new_losers: set[int] = set()
        for i, entry in decisions.items():
            if entry.worker == server.winner(i):
                continue  # incumbent held the top: nothing changes
            displaced = server.assign(i, entry.worker)
            new_winners.add(entry.worker)
            if displaced is not None:
                new_losers.add(displaced)
        # A displaced worker that immediately won elsewhere is not a loser.
        new_losers -= new_winners
        return new_winners, new_losers

    def _incumbent_entry(
        self, instance: ProblemInstance, server: Server, i: int, winner: int
    ) -> Candidate:
        """The current winner's row in the competing table."""
        model = instance.model
        if self.policy.private:
            pair = server.effective_pair(i, winner)
            if self.policy.objective == "utility":
                value = public_value(
                    instance.tasks[i].value,
                    server.release_set(i, winner).total_spend(),
                    model,
                )
                key = comparison_key(pair.distance, value, model)
            else:
                key = pair.distance
        else:
            # Read straight from the pair arrays: the dict view would be
            # materialised (O(P)) just to serve a handful of incumbents.
            d_real = float(instance.pairs.distance[instance.pair_index(i, winner)])
            key = (
                comparison_key(d_real, instance.tasks[i].value, model)
                if self.policy.objective == "utility"
                else d_real
            )
        return Candidate(worker=winner, key=key)
