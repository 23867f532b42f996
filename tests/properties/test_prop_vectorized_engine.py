"""Equivalence properties of the array-backed core (the refactor's pin).

Two families of guarantees:

* the runtime engine (vectorized sweep + plain-list WinnerChosen) is
  *pair-identical* to the agent-at-a-time reference sweep in
  ``tests/reference/`` — same matching, same round trace, same publish
  timeline, same ledger events — for every conflict-elimination method,
  seed for seed (they share one noise stream, so this is exact equality,
  not approximate);
* the CSR pair arrays and their dict-shaped **compatibility views**
  (``distances``, ``budgets``, ``distance()``, ``budget_vector()``,
  ``feasible_pairs()`` order) describe the same instance whichever
  constructor produced it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ConflictEliminationSolver, EliminationPolicy
from repro.core.registry import available_methods, make_solver
from repro.core.utility import PowerValue, UtilityModel
from repro.datasets.synthetic import NormalGenerator, UniformGenerator
from repro.simulation.instance import ProblemInstance
from tests.conftest import build_instance, line_instance
from tests.reference.scalar_sweep import ScalarSweepSolver

CE_POLICIES = (
    EliminationPolicy("PUCE", "utility", private=True),
    EliminationPolicy("PUCE-nppcf", "utility", private=True, use_ppcf=False),
    EliminationPolicy("PDCE", "distance", private=True),
    EliminationPolicy("PDCE-nppcf", "distance", private=True, use_ppcf=False),
    EliminationPolicy("UCE", "utility", private=False),
    EliminationPolicy("DCE", "distance", private=False),
)


def random_instances():
    """A seeded mix of generated and hand-shaped instances."""
    yield line_instance(num_tasks=4, num_workers=6, seed=3)
    yield build_instance(
        task_specs=[(0.0, 0.0, 3.0), (1.5, 0.5, 6.0), (2.5, -0.5, 4.0)],
        worker_specs=[(0.2, 0.1, 4.0), (1.0, 0.0, 4.0), (2.0, 0.3, 4.0), (2.6, 0.0, 4.0)],
        seed=11,
    )
    for seed in (0, 1, 2):
        yield NormalGenerator(num_tasks=25, num_workers=50, seed=seed).instance(
            task_value=4.5, worker_range=1.4
        )
    yield UniformGenerator(num_tasks=20, num_workers=30, seed=7).instance()
    # Non-linear f_d: its array application falls back to per-element
    # scalar calls (numpy's array ``**`` is not bit-identical to scalar
    # ``**``), so the equivalence guarantee must cover it too.
    yield build_instance(
        task_specs=[(0.0, 0.0, 6.0), (1.2, 0.4, 5.0), (2.2, -0.3, 7.0)],
        worker_specs=[(0.3, 0.1, 4.0), (1.1, 0.2, 4.0), (1.9, 0.2, 4.0), (2.4, -0.1, 4.0)],
        model=UtilityModel(f_d=PowerValue(exponent=2.0)),
        seed=13,
    )


def assert_results_identical(a, b, method):
    """Exact (not approximate) equality of two assignment results."""
    assert a.matching.pairs == b.matching.pairs, method
    assert a.rounds == b.rounds, method
    assert a.publishes == b.publishes, method
    assert list(a.ledger.events()) == list(b.ledger.events()), method
    assert set(a.release_board or {}) == set(b.release_board or {}), method
    for key, releases in (a.release_board or {}).items():
        assert releases.releases == b.release_board[key].releases, (method, key)


class TestVectorizedScalarEquivalence:
    @pytest.mark.parametrize("policy", CE_POLICIES, ids=lambda p: p.name)
    def test_pair_identical_results_and_traces(self, policy):
        for case, instance in enumerate(random_instances()):
            for seed in (0, 17):
                vec = ConflictEliminationSolver(policy)
                scl = ScalarSweepSolver(policy)
                a, trace_a = vec.solve_with_trace(instance, seed=seed)
                b, trace_b = scl.solve_with_trace(instance, seed=seed)
                assert_results_identical(a, b, (policy.name, case, seed))
                assert trace_a == trace_b, (policy.name, case, seed)

    def test_all_registry_methods_equivalent_across_constructors(self):
        """Dict-built and array-built instances solve identically.

        The registry methods (including PGT/GT/GRD/OPT, which do not use
        the engine's sweeps) must be insensitive to which constructor
        produced the instance — the dict views and the arrays are the
        same data.
        """
        for instance in random_instances():
            twin = ProblemInstance(
                tasks=instance.tasks,
                workers=instance.workers,
                model=instance.model,
                reachable=instance.reachable,
                distances=instance.distances,
                budgets=instance.budgets,
            )
            for name in available_methods():
                a = make_solver(name).solve(instance, seed=5)
                b = make_solver(name).solve(twin, seed=5)
                assert a.matching.pairs == b.matching.pairs, name
                assert a.publishes == b.publishes, name
                assert list(a.ledger.events()) == list(b.ledger.events()), name

    @settings(max_examples=14, deadline=None)
    @given(
        instance_seed=st.integers(0, 2**20),
        noise_seed=st.integers(0, 2**20),
        num_tasks=st.integers(2, 30),
        worker_factor=st.integers(1, 3),
        policy_index=st.integers(0, len(CE_POLICIES) - 1),
    )
    def test_hypothesis_workloads_pin_the_array_winner_chosen(
        self, instance_seed, noise_seed, num_tasks, worker_factor, policy_index
    ):
        """Runtime engine == reference sweep on hypothesis-chosen
        instance shapes, from a handful of candidates per round to
        hundreds."""
        policy = CE_POLICIES[policy_index]
        instance = NormalGenerator(
            num_tasks=num_tasks,
            num_workers=num_tasks * worker_factor,
            seed=instance_seed,
        ).instance(task_value=4.5, worker_range=1.4)
        vec = ConflictEliminationSolver(policy)
        scl = ScalarSweepSolver(policy)
        a, trace_a = vec.solve_with_trace(instance, seed=noise_seed)
        b, trace_b = scl.solve_with_trace(instance, seed=noise_seed)
        assert_results_identical(a, b, (policy.name, instance_seed, noise_seed))
        assert trace_a == trace_b


class TestCSRViews:
    def test_views_match_arrays(self):
        for instance in random_instances():
            pairs = instance.pairs
            order = list(instance.feasible_pairs())
            # CSR order is worker-major, reachable order.
            expected = [
                (i, j)
                for j, tasks_in_range in enumerate(instance.reachable)
                for i in tasks_in_range
            ]
            assert order == expected
            assert instance.num_feasible_pairs == len(expected)
            assert list(instance.distances) == expected
            assert list(instance.budgets) == expected
            for p, (i, j) in enumerate(order):
                assert int(pairs.task[p]) == i and int(pairs.worker[p]) == j
                assert instance.distance(i, j) == float(pairs.distance[p])
                assert instance.distances[(i, j)] == instance.distance(i, j)
                vector = instance.budget_vector(i, j)
                assert instance.budgets[(i, j)] == vector
                length = int(pairs.budget_len[p])
                assert vector.epsilons == tuple(
                    pairs.budget_matrix[p, :length].tolist()
                )
                # Prefix sums replicate Python's left-to-right summation.
                assert float(pairs.budget_prefix[p, length]) == sum(
                    vector.epsilons
                )

    def test_dict_constructor_round_trips(self):
        instance = line_instance(num_tasks=3, num_workers=5, seed=9)
        twin = ProblemInstance(
            tasks=instance.tasks,
            workers=instance.workers,
            model=instance.model,
            reachable=instance.reachable,
            distances=instance.distances,
            budgets=instance.budgets,
        )
        assert twin == instance
        assert list(twin.feasible_pairs()) == list(instance.feasible_pairs())
        assert np.array_equal(twin.pairs.offsets, instance.pairs.offsets)
        assert twin.candidates == instance.candidates

    def test_worker_slices_cover_reachable(self):
        instance = NormalGenerator(num_tasks=15, num_workers=30, seed=4).instance()
        for j in range(instance.num_workers):
            sl = instance.pairs.worker_slice(j)
            assert tuple(instance.pairs.task[sl].tolist()) == instance.reachable[j]
            assert all(int(w) == j for w in instance.pairs.worker[sl])
