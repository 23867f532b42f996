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

Two sweep implementations share this protocol.  The vectorized sweep
(``sweep="vectorized"``) evaluates the WorkerProposal gates as boolean
masks over the instance's CSR pair arrays (:mod:`repro.core.sweep`) and
hands WinnerChosen a flat :class:`~repro.core.sweep.ProposalBatch` that
the array-form CEA resolution consumes — per-pair ``Candidate`` objects
and per-task Python sorts exist only on the scalar path now; only the
release-set operations (weighted medians, PCF, publishes) remain scalar.
``sweep="scalar"`` is the original agent-at-a-time reference.  The
default, ``sweep="auto"``, picks per instance: vectorized, except for
non-private policies on instances below the configured
``sweep_auto_threshold`` feasible pairs (streaming micro-batches), which
run scalar.  Both produce bit-identical results (the property tests
assert it), and solvers that override any scalar proposal hook
(``_build_agents`` — the Table IV-VIII replay harnesses that preload
noise draws — ``_worker_proposal``, ``_evaluate_pair``,
``_beats_winner_private``, ``_incumbent_entry``) automatically use the
scalar path.

Repeated solves (streaming micro-flushes, batch sweeps) can thread an
:class:`~repro.core.workspace.EngineWorkspace` through ``solve`` /
``solve_shards``: the sweep state's buffers then come from one reusable
arena instead of fresh allocations, with results unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.api.options import validate_sweep, validate_sweep_threshold
from repro.core.agents import WorkerAgent, build_agents
from repro.core.cea import (
    Candidate,
    resolve_top_conflicts,
    resolve_top_conflicts_dense,
)
from repro.core.compare import pcf, ppcf
from repro.core.result import AssignmentResult
from repro.core.sweep import ProposalBatch, VectorSweep
from repro.core.transform import adjusted_rival_distance, comparison_key, public_value
from repro.core.workspace import EngineWorkspace
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
    """Round-based solver parameterised by an :class:`EliminationPolicy`.

    ``sweep`` selects the WorkerProposal implementation: ``"vectorized"``
    (mask-gated array sweep + array WinnerChosen), ``"scalar"`` (the
    per-agent reference path, kept for replay harnesses and as the
    equivalence / throughput baseline), or ``"auto"`` (default):
    vectorized, except for *non-private* policies on instances too small
    to amortise the fixed array-op cost per round — where the plain-float
    scalar path is faster.  (Private policies stay vectorized at every
    size: their scalar path carries per-pair agent machinery that loses
    even on tiny instances.)  Both sweeps are bit-identical, so the
    switch is purely a performance decision.

    ``sweep_auto_threshold`` is the crossover: below this many feasible
    pairs ``sweep="auto"`` picks the scalar path for non-private
    policies.  ``None`` keeps :attr:`VECTOR_MIN_PAIRS` (recalibrated for
    the array WinnerChosen path by ``benchmarks/bench_flush_overhead.py``
    — the vectorized sweep now profits far earlier than the PR-2 era
    value of 48).
    """

    #: Default ``sweep="auto"`` crossover (feasible pairs) below which
    #: non-private policies run scalar.  Exposed as the validated
    #: ``sweep_auto_threshold`` knob on :class:`~repro.api.options.
    #: SolveOptions`.  Recalibrated by ``benchmarks/bench_flush_overhead
    #: .py`` after the array WinnerChosen + small-round form landed
    #: (measured crossover ~25-30 pairs; the PR-2 era value was 48).
    VECTOR_MIN_PAIRS = 28

    def __init__(
        self,
        policy: EliminationPolicy,
        max_rounds: int = 100_000,
        sweep: Literal["auto", "vectorized", "scalar"] = "auto",
        sweep_auto_threshold: int | None = None,
    ):
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        validate_sweep(sweep)
        validate_sweep_threshold(sweep_auto_threshold)
        self.policy = policy
        self.max_rounds = max_rounds
        self.sweep = sweep
        self.sweep_auto_threshold = (
            self.VECTOR_MIN_PAIRS if sweep_auto_threshold is None else sweep_auto_threshold
        )

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
        workspace: EngineWorkspace | None = None,
        tracer=NULL_TRACER,
    ) -> AssignmentResult:
        """Run the batch protocol to quiescence on ``instance``.

        ``options`` (a :class:`~repro.api.options.SolveOptions`) supplies
        the seed when ``seed`` is omitted — the facade's uniform calling
        convention.  ``workspace`` lends the solve a reusable buffer
        arena (results are unchanged; repeated solves skip per-run
        allocations).  ``tracer`` (a :class:`repro.obs.Tracer`) records
        ``solve.build`` / ``solve.sweep`` / ``solve.resolve`` spans under
        the caller's current span; the no-op default costs nothing.
        """
        if seed is None and options is not None:
            seed = options.seed
        result, _ = self.solve_with_trace(
            instance, seed, workspace=workspace, tracer=tracer
        )
        return result

    def solve_shards(
        self,
        instances: "Sequence[ProblemInstance]",
        seeds: "Sequence[int | np.random.Generator | None]",
        workspace: EngineWorkspace | None = None,
        tracer=NULL_TRACER,
    ) -> list[AssignmentResult]:
        """Run the batch protocol on precut shard instances, one run each.

        The engine-side entry point of the flush path
        (:func:`repro.stream.shards.solve_flush`): each instance is an
        independent, conflict-free shard of a larger flush — no worker or
        task appears in two of them — and is solved as its own protocol
        episode with its own seed.  Results come back in input order; merging them is
        the caller's job (the shards layer owns the deterministic merge
        ordering).  The shards run sequentially here, so one
        ``workspace`` arena serves them all.
        """
        if len(instances) != len(seeds):
            raise ConfigurationError(
                f"{len(instances)} shard instances but {len(seeds)} seeds"
            )
        return [
            self.solve(instance, seed=seed, workspace=workspace, tracer=tracer)
            for instance, seed in zip(instances, seeds)
        ]

    def solve_with_trace(
        self,
        instance: ProblemInstance,
        seed: int | np.random.Generator | None = None,
        workspace: EngineWorkspace | None = None,
        tracer=NULL_TRACER,
    ) -> tuple[AssignmentResult, list[RoundRecord]]:
        """As :meth:`solve`, also returning a per-round observability trace."""
        watch = stopwatch()
        with watch:
            rng = ensure_rng(seed)
            server = Server(instance)
            # A busy arena (nested / cross-thread use) leases as None and the
            # sweep simply allocates fresh buffers — never two solves aliasing
            # one arena.
            arena = workspace.lease() if workspace is not None else None
            try:
                with tracer.span("solve.build"):
                    state = self._make_sweep_state(instance, server, rng, arena)
                    if state is not None:
                        agents = None
                        not_winning: set[int] | None = None
                    else:
                        agents = (
                            self._build_agents(instance, rng)
                            if self.policy.private
                            else None
                        )
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
                    with tracer.span("solve.sweep"):
                        if state is not None:
                            candidates = state.proposal_round()
                        else:
                            candidates = self._worker_proposal(
                                instance, server, agents, not_winning
                            )
                    if not candidates:
                        trace.append(
                            RoundRecord(rounds, 0, (), (), server.assigned_count)
                        )
                        break
                    with tracer.span("solve.resolve"):
                        if state is not None:
                            proposal_count = len(candidates)
                            new_winners, new_losers = self._winner_chosen_batch(
                                instance, server, state, candidates
                            )
                            # Incremental pool bookkeeping: scatter the round's
                            # churn into the worker mask instead of re-deriving /
                            # re-sorting the pool (mask order is worker order).
                            if new_winners:
                                state.not_winning[list(new_winners)] = False
                            if new_losers:
                                state.not_winning[list(new_losers)] = True
                        else:
                            proposal_count = sum(
                                len(entries) for entries in candidates.values()
                            )
                            new_winners, new_losers = self._winner_chosen(
                                instance, server, candidates
                            )
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
                        # Non-private rounds are deterministic functions of
                        # (pool, allocation): an unchanged round is a fixed point
                        # and would repeat forever.  (Private rounds always make
                        # progress — every proposal consumes budget.)
                        break
            finally:
                if arena is not None:
                    arena.unlease()

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
        """Agent construction hook (overridden by replay/trace tests)."""
        return build_agents(instance, rng)

    def _make_sweep_state(
        self,
        instance: ProblemInstance,
        server: Server,
        rng: np.random.Generator,
        workspace: EngineWorkspace | None = None,
    ) -> VectorSweep | None:
        """The array sweep state, or ``None`` for the scalar path.

        Subclasses customise the proposal side through the scalar hooks —
        ``_build_agents`` (replay harnesses pinning noise draws),
        ``_worker_proposal``, ``_evaluate_pair``,
        ``_beats_winner_private``, ``_incumbent_entry``.  The vectorized
        sweep would silently bypass any of them, so an override on any of
        those hooks routes the run through the scalar path.
        """
        if self.sweep == "scalar":
            return None
        if (
            self.sweep == "auto"
            and not self.policy.private
            and instance.num_feasible_pairs < self.sweep_auto_threshold
        ):
            return None
        cls = type(self)
        base = ConflictEliminationSolver
        for hook in (
            "_build_agents",
            "_worker_proposal",
            "_evaluate_pair",
            "_beats_winner_private",
            "_incumbent_entry",
        ):
            if getattr(cls, hook) is not getattr(base, hook):
                return None
        return VectorSweep(
            instance,
            server,
            objective=self.policy.objective,
            use_ppcf=self.policy.use_ppcf,
            private=self.policy.private,
            rng=rng if self.policy.private else None,
            workspace=workspace,
        )

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
                if not challenger_key < self._incumbent_entry(
                    instance, server, i, winner
                ).key:
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
            rival = adjusted_rival_distance(
                win_pair.distance, own_value, winner_value, model
            )
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
        """Assign round winners; returns (new winners, displaced losers).

        The scalar (mapping) form; array-sweep rounds go through
        :meth:`_winner_chosen_batch` instead.
        """
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

    def _winner_chosen_batch(
        self,
        instance: ProblemInstance,
        server: Server,
        state: VectorSweep,
        batch: ProposalBatch,
    ) -> tuple[set[int], set[int]]:
        """Array-form Algorithm 2 over a :class:`ProposalBatch`.

        Bit-identical to :meth:`_winner_chosen` on the equivalent mapping:
        per-task tables are the candidate rows plus the incumbent, ranked
        by ``(key, worker)`` through one ``np.lexsort``; the single-round
        CEA rule runs on the group-level top/runner-up facts
        (:func:`~repro.core.cea.resolve_top_conflicts_dense`, sharing the
        scalar tie-break machinery); decisions apply in the mapping
        path's first-appearance order.  Only the handful of decided
        assignments touch Python objects — candidate ranking and winner
        propagation never leave the arrays.

        Rounds with only a handful of candidates take a plain-list form
        of the same computation (:meth:`_winner_chosen_small`): at
        micro-flush sizes the numpy group machinery costs more than the
        work it batches, and the small form is what lets ``sweep="auto"``
        profit from vectorization far below the PR-2 era threshold.
        """
        if len(batch) < self.SMALL_ROUND_CANDIDATES:
            return self._winner_chosen_small(instance, server, state, batch)
        pairs = instance.pairs
        # Task groups in first-appearance (publish) order — the order the
        # mapping form's dict insertion encodes.
        uniq, first_idx, inverse = np.unique(
            batch.task, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first_idx, kind="stable")
        rank_of_uniq = np.empty(uniq.shape[0], dtype=np.int64)
        rank_of_uniq[appearance] = np.arange(uniq.shape[0], dtype=np.int64)
        rank = rank_of_uniq[inverse]
        group_tasks = uniq[appearance]

        # Incumbent rows for contested groups.  Private keys need the
        # release board (weighted medians) and stay scalar per incumbent;
        # non-private keys are the same floats `_incumbent_entry` computes,
        # read straight off the pair arrays.
        inc_pair = state.winner_pair[group_tasks]
        contested = np.flatnonzero(inc_pair >= 0)
        if contested.size:
            inc_rank = contested.astype(np.int64)
            inc_pair = inc_pair[contested]
            inc_worker = pairs.worker[inc_pair]
            if self.policy.private:
                inc_key = np.asarray(
                    [
                        self._incumbent_entry(instance, server, int(i), int(w)).key
                        for i, w in zip(
                            group_tasks[contested].tolist(), inc_worker.tolist()
                        )
                    ],
                    dtype=np.float64,
                )
            elif self.policy.objective == "utility":
                model = instance.model
                inc_key = np.asarray(
                    [
                        comparison_key(d, instance.tasks[i].value, model)
                        for i, d in zip(
                            group_tasks[contested].tolist(),
                            pairs.distance[inc_pair].tolist(),
                        )
                    ],
                    dtype=np.float64,
                )
            else:
                inc_key = pairs.distance[inc_pair].astype(np.float64)
            all_rank = np.concatenate([rank, inc_rank])
            all_worker = np.concatenate([batch.worker, inc_worker])
            all_key = np.concatenate([batch.key, inc_key])
            all_pair = np.concatenate([batch.pair, inc_pair])
        else:
            all_rank, all_worker = rank, batch.worker
            all_key, all_pair = batch.key, batch.pair

        # One ranking pass for every per-task table: groups by rank, each
        # sorted ascending (key, worker) — the scalar `table.sort` order.
        order = np.lexsort((all_worker, all_key, all_rank))
        sorted_worker = all_worker[order]
        sorted_key = all_key[order]
        sorted_pair = all_pair[order]
        counts = np.bincount(all_rank, minlength=group_tasks.shape[0])
        starts = np.zeros(group_tasks.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])

        runner_pos = np.minimum(starts + 1, sorted_key.shape[0] - 1)
        runner_key = np.where(counts > 1, sorted_key[runner_pos], np.inf)
        group_task_list = group_tasks.tolist()
        top_workers = sorted_worker[starts].tolist()
        decisions = resolve_top_conflicts_dense(
            group_task_list,
            top_workers,
            sorted_key[starts].tolist(),
            runner_key.tolist(),
        )

        top_pairs = sorted_pair[starts]
        return self._apply_decisions(
            server,
            state,
            [
                (group_task_list[g], top_workers[g], int(top_pairs[g]))
                for g in decisions
            ],
        )

    #: Candidate-count bound below which :meth:`_winner_chosen_batch`
    #: runs its plain-list form (numpy group setup costs more than the
    #: work it batches on micro rounds).
    SMALL_ROUND_CANDIDATES = 96

    def _winner_chosen_small(
        self,
        instance: ProblemInstance,
        server: Server,
        state: VectorSweep,
        batch: ProposalBatch,
    ) -> tuple[set[int], set[int]]:
        """Plain-list form of :meth:`_winner_chosen_batch` (small rounds).

        Same tables, same ranking, same single-round CEA rule and
        tie-breaks — built from Python lists because a micro round's
        candidate count is far below the numpy group machinery's
        break-even.  Sorting ``(key, worker, pair)`` tuples equals the
        ``(key, worker)`` order: a worker appears at most once per task,
        so the pair column never decides.
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
                    key = self._incumbent_entry(instance, server, i, winner).key
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
        return self._apply_decisions(
            server,
            state,
            [
                (group_task_list[g], tables[g][0][1], tables[g][0][2])
                for g in decisions
            ],
        )

    def _apply_decisions(
        self,
        server: Server,
        state: VectorSweep,
        decisions: list[tuple[int, int, int]],
    ) -> tuple[set[int], set[int]]:
        """Commit ``(task, worker, pair)`` round decisions in order."""
        new_winners: set[int] = set()
        new_losers: set[int] = set()
        for i, winner, pair_pos in decisions:
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
            d_real = float(
                instance.pairs.distance[instance.pair_index(i, winner)]
            )
            key = (
                comparison_key(d_real, instance.tasks[i].value, model)
                if self.policy.objective == "utility"
                else d_real
            )
        return Candidate(worker=winner, key=key)
