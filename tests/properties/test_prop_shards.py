"""Shard-cut correctness properties (the flush path's pin).

Three families of guarantees:

* the **cut** is a true conflict-free partition — every feasible pair
  lands in exactly one unit, and no worker or task spans two units —
  whatever the coalescing threshold;
* the **flush result** is exact: for non-private methods it equals the
  full-instance engine run bit for bit (no noise, component-local
  dynamics), and for every method it is the key-ordered merge of each
  unit solved alone with its scheduled noise stream (the per-unit seed
  schedule is the only noise source);
* **cross-flush accounting** is a function of the merged ledger alone:
  charging it into a :class:`WorkerBudgetTracker` leaves the same
  per-worker carry as charging every unit's ledger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_solver
from repro.datasets.synthetic import NormalGenerator, UniformGenerator
from repro.stream.batcher import WorkerBudgetTracker
from repro.stream.shards import (
    ShardSeedSchedule,
    build_shard_instance,
    cut_flush,
    merge_shard_results,
    solve_flush,
)

METHODS = ("PUCE", "PDCE", "UCE", "DCE")


def generated_instance(generator_seed, uniform, num_tasks, worker_range):
    cls = UniformGenerator if uniform else NormalGenerator
    return cls(
        num_tasks=num_tasks, num_workers=2 * num_tasks, seed=generator_seed
    ).instance(task_value=4.5, worker_range=worker_range)


instance_params = {
    "generator_seed": st.integers(0, 50),
    "uniform": st.booleans(),
    "num_tasks": st.integers(10, 45),
    "worker_range": st.sampled_from([0.3, 0.6, 1.0, 1.4]),
}


def assert_results_identical(a, b, context):
    assert dict(a.matching) == dict(b.matching), context
    assert list(a.ledger.events()) == list(b.ledger.events()), context
    assert a.publishes == b.publishes, context
    assert set(a.release_board) == set(b.release_board), context
    for key, releases in a.release_board.items():
        assert releases.releases == b.release_board[key].releases, (context, key)


@given(min_shard_pairs=st.sampled_from([0, 8, 64, 192]), **instance_params)
@settings(max_examples=30, deadline=None)
def test_cut_is_a_conflict_free_partition(
    min_shard_pairs, generator_seed, uniform, num_tasks, worker_range
):
    """Every feasible pair in exactly one shard; closure on both sides."""
    instance = generated_instance(generator_seed, uniform, num_tasks, worker_range)
    cut = cut_flush(instance, min_shard_pairs=min_shard_pairs)

    seen_pairs: set[tuple[int, int]] = set()
    seen_tasks: set[int] = set()
    seen_workers: set[int] = set()
    for component in cut.components:
        assert not seen_tasks & set(component.tasks)
        assert not seen_workers & set(component.workers)
        seen_tasks |= set(component.tasks)
        seen_workers |= set(component.workers)
        sub = build_shard_instance(instance, component)
        assert sub.num_feasible_pairs == component.pair_count
        for i, j in sub.feasible_pairs():
            pair = (component.tasks[i], component.workers[j])
            assert pair not in seen_pairs
            seen_pairs.add(pair)
        # Sliced pair data is the parent's, value for value.
        for i, j in sub.feasible_pairs():
            gi, gj = component.tasks[i], component.workers[j]
            assert sub.distance(i, j) == instance.distance(gi, gj)
            assert sub.budget_vector(i, j) == instance.budget_vector(gi, gj)
    assert seen_pairs == set(instance.feasible_pairs())
    # Orphans are exactly the leftovers, and orphan tasks have no pairs.
    assert seen_tasks | set(cut.orphan_tasks) == set(range(instance.num_tasks))
    assert seen_workers | set(cut.orphan_workers) == set(range(instance.num_workers))


@given(method=st.sampled_from(["UCE", "DCE"]), **instance_params)
@settings(max_examples=20, deadline=None)
def test_non_private_sharded_equals_full_engine(
    method, generator_seed, uniform, num_tasks, worker_range
):
    """Without noise, the merged flush result IS the full-engine result."""
    instance = generated_instance(generator_seed, uniform, num_tasks, worker_range)
    solver = make_solver(method)
    full = solver.solve(instance, seed=0)
    for min_shard_pairs in (0, 192):
        merged, _, _ = solve_flush(
            solver, instance, ShardSeedSchedule((0,)), min_shard_pairs=min_shard_pairs
        )
        assert dict(merged.matching) == dict(full.matching), (method, min_shard_pairs)


def unit_solves(solver, instance, schedule, cut):
    """Every unit of ``cut`` solved alone with its scheduled noise stream."""
    return [
        (
            component.key,
            solver.solve(
                build_shard_instance(instance, component),
                seed=schedule.generator(component.key),
            ),
        )
        for component in cut.components
    ]


@given(method=st.sampled_from(METHODS), **instance_params)
@settings(max_examples=15, deadline=None)
def test_flush_result_is_the_merge_of_unit_solves(
    method, generator_seed, uniform, num_tasks, worker_range
):
    """The cut is the noise schedule: solving the flush equals solving
    each unit alone with its own generator, merged in key order."""
    instance = generated_instance(generator_seed, uniform, num_tasks, worker_range)
    solver = make_solver(method)
    schedule = ShardSeedSchedule((generator_seed, 7))
    merged, cut, _ = solve_flush(solver, instance, schedule)
    reference = merge_shard_results(
        instance, solver.name, unit_solves(solver, instance, schedule, cut), 0.0
    )
    assert_results_identical(merged, reference, method)


@given(**instance_params)
@settings(max_examples=10, deadline=None)
def test_budget_carry_matches_unit_ledgers(generator_seed, uniform, num_tasks, worker_range):
    """WorkerBudgetTracker carry is a pure function of the merged ledger."""
    instance = generated_instance(generator_seed, uniform, num_tasks, worker_range)
    solver = make_solver("PUCE")
    schedule = ShardSeedSchedule((generator_seed, 11))
    merged, cut, _ = solve_flush(solver, instance, schedule)
    units = unit_solves(solver, instance, schedule, cut)

    def carry(ledgers):
        tracker = WorkerBudgetTracker()
        for worker in instance.workers:
            tracker.register(worker.id, 1e9)
        for ledger in ledgers:
            tracker.charge(ledger)
        return {worker.id: tracker.spent(worker.id) for worker in instance.workers}

    assert carry([merged.ledger]) == carry([result.ledger for _, result in units])


@given(min_shard_pairs=st.integers(2, 400), **instance_params)
@settings(max_examples=25, deadline=None)
def test_micro_shortcut_cut_matches_full_route(
    min_shard_pairs, generator_seed, uniform, num_tasks, worker_range
):
    """The micro-flush cut shortcut is invisible: identical ShardCut.

    Checked both at the drawn threshold (shortcut may or may not fire)
    and at a threshold >= the flush's pair count (shortcut always fires,
    the case its O(pairs) derivation must match union-find on).
    """
    instance = generated_instance(generator_seed, uniform, num_tasks, worker_range)
    for threshold in (min_shard_pairs, max(2, instance.num_feasible_pairs)):
        fast = cut_flush(instance, min_shard_pairs=threshold, micro_shortcut=True)
        full = cut_flush(instance, min_shard_pairs=threshold, micro_shortcut=False)
        assert fast == full, threshold
