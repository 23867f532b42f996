"""End-to-end reproduction of the paper's worked examples.

* Table II / Section IV: the CEA review example.
* Example 2 (Tables III-VI): the full PUCE trace.
* Example 3 (Tables VII-VIII): the PGT competition timeline.

These are the strongest fidelity oracles available: the paper publishes
every intermediate value, so the tests pin proposal decisions, conflict
resolutions, UT values, and final allocations.
"""

import numpy as np
import pytest

from repro.core.agents import build_agents
from repro.core.pgt import BestResponseStats, PGTSolver
from repro.core.puce import PUCESolver
from repro.simulation.server import Server
from tests.conftest import build_instance
from tests.reference.scalar_sweep import ScalarSweepSolver

# --- The Example 2/3 world (Tables III and IV) --------------------------

# Worker locations are not given by the paper, only distances; we place
# tasks/workers so Euclidean distances reproduce Table III exactly by
# putting every entity on a line... impossible; instead we bypass geometry
# and inject the distance matrix directly through collinear placement per
# worker: each worker sits at the origin of his own axis.  Simpler: build
# the instance from synthetic coordinates whose pairwise distances match
# Table III.  Easiest faithful route: tasks on a plane, workers placed by
# trilateration is overkill — the algorithms only consume the distance
# dict, so we construct the instance and then overwrite the distances.

TABLE_III = {  # (task, worker) -> distance
    (0, 0): 12.2, (1, 0): 3.61, (2, 0): 17.12,
    (0, 1): 5.0, (1, 1): 10.44, (2, 1): 12.21,
    (0, 2): 9.43, (1, 2): 18.25, (2, 2): 7.28,
}
TASK_VALUES = (12.4, 11.0, 13.0)
WORKER_RANGES = (15.0, 15.0, 10.0)

# Table IV: per-pair budget vectors and the raw released distances.
BUDGETS = {
    (0, 0): (0.1, 0.3, 0.4),
    (0, 1): (4.6, 4.65, 4.8),
    (0, 2): (0.1, 0.4, 0.4),
    (1, 0): (6.99, 7.1, 7.2),
    (1, 1): (0.1, 0.2, 0.5),
    (2, 1): (0.1, 0.3, 0.4),
    (2, 2): (5.4, 5.5, 5.6),
}
DRAWS = {
    (0, 0): (12.7, 12.4, 12.3),
    (0, 1): (5.5, 5.3, 5.1),
    (0, 2): (9.93, 9.63, 9.53),
    (1, 0): (4.11, 4.01, 3.81),
    (1, 1): (10.94, 10.64, 10.54),
    (2, 1): (12.71, 12.51, 12.31),
    (2, 2): (7.78, 7.58, 7.38),
}


def example_instance():
    """The 3x3 instance of Example 2/3 with Table III distances.

    Feasible pairs follow the service ranges: (t2,w3) and (t3,w1) are out
    of range and absent.
    """
    from repro.core.budgets import BudgetVector
    from repro.simulation.instance import ProblemInstance

    base = build_instance(
        task_specs=[(0.0, 0.0, v) for v in TASK_VALUES],
        worker_specs=[(0.0, 0.0, r) for r in WORKER_RANGES],
    )
    reachable = ((0, 1), (0, 1, 2), (0, 2))  # per worker, per Table III
    distances = {
        (i, j): TABLE_III[(i, j)]
        for j, tasks in enumerate(reachable)
        for i in tasks
    }
    budgets = {pair: BudgetVector(BUDGETS[pair]) for pair in distances}
    return ProblemInstance(
        tasks=base.tasks,
        workers=base.workers,
        model=base.model,
        reachable=reachable,
        distances=distances,
        budgets=budgets,
    )


def preload_all(agents):
    for (i, j), draws in DRAWS.items():
        for u, value in enumerate(draws):
            agents[j].preload_draw(i, u, value)


class ReplayPUCE(PUCESolver):
    """PUCE with the Table IV noise draws pinned through the noise seam."""

    def _obfuscated_distances(self, instance, rng, pair, budget_index):
        pairs = instance.pairs
        return np.array(
            [
                DRAWS[(int(pairs.task[p]), int(pairs.worker[p]))][u]
                for p, u in zip(pair.tolist(), budget_index.tolist())
            ]
        )


class ReplayReferencePUCE(ScalarSweepSolver):
    """PUCE on the reference sweep, Table IV draws preloaded per agent."""

    def __init__(self):
        super().__init__(PUCESolver().policy)

    def _build_agents(self, instance, rng):
        agents = build_agents(instance, rng)
        preload_all(agents)
        return agents


class ReplayPGT(PGTSolver):
    def _build_agents(self, instance, rng):
        agents = build_agents(instance, rng)
        preload_all(agents)
        return agents


class TestTable2CEA:
    def test_rank_matrix_and_conflict(self):
        # Covered in depth by tests/core/test_cea.py; assert the headline:
        # w3's conflict between t2 and t3 resolves to t3.
        from repro.core.cea import conflict_eliminate, rank_candidates

        table_ii = {
            ("t1", "w1"): 9.06, ("t1", "w2"): 9.85, ("t1", "w3"): 12.04,
            ("t2", "w3"): 2.09, ("t2", "w1"): 10.44, ("t2", "w2"): 12.59,
            ("t3", "w3"): 2.00, ("t3", "w2"): 11.28, ("t3", "w1"): 18.87,
        }
        assignment = conflict_eliminate(rank_candidates(table_ii))
        assert assignment["t3"] == "w3"


class TestExample2PUCE:
    @pytest.fixture
    def result(self):
        return ReplayPUCE().solve(example_instance(), seed=0)

    def test_final_matching(self, result):
        # "t1 is allocated to w3 ... t3 is allocated to w2 ... there is no
        # worker proposing to any tasks ... the process is end."
        assert dict(result.matching.pairs) == {0: 2, 2: 1}

    def test_t2_stays_unmatched(self, result):
        assert 1 not in result.matching.pairs

    def test_round_one_publishes_table_v(self, result):
        # Table V: w1 proposes to t1,t2; w2 to t1,t2,t3; w3 to t1,t3 —
        # seven first-round proposals, and nothing after (round 2's
        # utilities are all non-positive).
        assert result.publishes == 7
        for (i, j) in DRAWS:
            spend = result.ledger.pair_spend(j, i)
            assert spend.proposals == 1, f"pair {(i, j)} should have 1 release"
            assert spend.epsilons == (BUDGETS[(i, j)][0],)

    def test_matched_utilities(self, result):
        # U(t1,w3) = 12.4 - 9.43 - 0.1 = 2.87;  U(t3,w2) = 13 - 12.21 - 0.1.
        utilities = {p.task_index: p.utility for p in result.matched_pairs()}
        assert utilities[0] == pytest.approx(2.87)
        assert utilities[2] == pytest.approx(0.69)

    def test_two_rounds_plus_quiescent_round(self, result):
        # Round 1 proposes, round 2 has no proposals -> loop exits.
        assert result.rounds == 2

    def test_ldp_accounting(self, result):
        # w2 published 0.1+4.6+0.1 across three tasks; bound = spend * 15.
        assert result.ledger.worker_spend(1) == pytest.approx(4.8)
        assert result.worker_ldp_bound(1) == pytest.approx(4.8 * 15.0)


class TestExample2PUCEReference(TestExample2PUCE):
    """The same trace on the agent-at-a-time reference sweep."""

    @pytest.fixture
    def result(self):
        return ReplayReferencePUCE().solve(example_instance(), seed=0)


class TestExample3PGT:
    def setup_state_k(self):
        """Publish every pair's first release; allocate per Table VII col k."""
        instance = example_instance()
        server = Server(instance)
        agents = build_agents(instance, np.random.default_rng(0))
        preload_all(agents)
        for (i, j) in sorted(DRAWS):
            agents[j].publish(agents[j].peek_proposal(i, server), server)
        server.assign(0, 0)  # t1 -> w1
        server.assign(1, 1)  # t2 -> w2
        server.assign(2, 2)  # t3 -> w3
        return instance, server, agents

    def test_state_k_effective_pairs(self):
        instance, server, _ = self.setup_state_k()
        assert server.effective_pair(0, 0).distance == 12.7
        assert server.effective_pair(1, 1).distance == 10.94
        assert server.effective_pair(2, 2).distance == 7.78

    def test_timeline_to_convergence(self):
        instance, server, agents = self.setup_state_k()
        solver = ReplayPGT()
        stats = BestResponseStats()
        solver.run_loop(instance, server, agents, stats)

        # Moves: w1 takes t2 (UT=0.13), then w2 takes t1 (UT=2.45); w3's
        # only option scores -9.95 and is declined.
        assert stats.moves == 2
        assert stats.move_gains[0] == pytest.approx(0.13)
        assert stats.move_gains[1] == pytest.approx(2.45)

        # Final allocation (Table VII, k+2 .. k+6): t1->w2, t2->w1, t3->w3.
        assert server.allocation() == (1, 0, 2)

    def test_published_budgets_match_table_viii(self):
        instance, server, agents = self.setup_state_k()
        solver = ReplayPGT()
        solver.run_loop(instance, server, agents, BestResponseStats())
        # w1 published a second release toward t2 (eps 7.1), w2 toward t1
        # (eps 4.65); w3 published nothing beyond the first round.
        assert server.release_set(1, 0).releases[-1].epsilon == 7.1
        assert server.release_set(0, 1).releases[-1].epsilon == 4.65
        assert len(server.release_set(0, 2)) == 1

    def test_effective_pairs_after_competition(self):
        instance, server, agents = self.setup_state_k()
        ReplayPGT().run_loop(instance, server, agents, BestResponseStats())
        # Table VIII's final effective pairs for the re-published pairs.
        assert server.effective_pair(1, 0).distance == pytest.approx(4.01)
        assert server.effective_pair(0, 1).distance == pytest.approx(5.3)

    def test_full_solve_from_scratch_converges(self):
        # From the empty allocation, the example's (deliberately large)
        # budget vectors make most moves unprofitable: only w2 takes t1
        # (UT = 12.4 - 5.5 - 4.6 = 2.3 > 0), everything else is declined —
        # and declined evaluations publish nothing.
        result = ReplayPGT().solve(example_instance(), seed=0)
        assert dict(result.matching.pairs) == {0: 1}
        assert result.publishes == 1
        assert result.ledger.pair_spend(1, 0).epsilons == (4.6,)
