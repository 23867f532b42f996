"""Sharded flush solving: the conflict-free cut is the noise schedule.

A flush's :class:`~repro.simulation.instance.ProblemInstance` is a CSR
pair graph, and the round-based protocol never couples two pairs that
share neither a worker nor a task.  Every flush is therefore *cut* into
independent units along grid-cell boundaries (:func:`cut_flush`), each
unit becomes its own sub-instance (:func:`build_shard_instance` — plain
CSR slices via :meth:`~repro.simulation.pairs.PairArrays.subset`), the
engine solves the units one after another in ascending key order
(:func:`solve_flush`), and the per-unit results merge back
deterministically (:func:`merge_shard_results`).  Everything runs in the
calling process.

The **shard-cut invariant**: no worker and no task spans two units.  The
cut is the connected-component structure of the bipartite feasibility
graph, coarsened by the grid cells of the task locations (points sharing
a cell stay together; a worker glues every cell it reaches).  An
oversized component simply *is* one unit — there is no way to split it
without cutting a worker in half, so it falls back to a single engine
run.

**The cut is the noise schedule.**  Each unit draws its Laplace noise
from its own generator, ``default_rng((*noise_key, unit_key))``
(:class:`ShardSeedSchedule`), keyed by the smallest global worker index
it contains.  Solving a multi-unit flush as one engine run would draw
the same pairs' noise from one stream instead and change the results,
so the cut cannot be dropped: it is part of what a flush computes, not
an execution strategy.  The cut is a pure function of the instance and
the coalescing floor, and the merge runs in key order, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.engine import ConflictEliminationSolver
from repro.core.result import AssignmentResult
from repro.obs.tracer import NULL_TRACER, stopwatch
from repro.matching.bipartite import Matching
from repro.privacy.accountant import PrivacyLedger
from repro.simulation.instance import ProblemInstance
from repro.spatial.index import grid_cell_labels

if TYPE_CHECKING:  # runtime import is deferred to break the package cycle
    from repro.core.registry import Solver

__all__ = [
    "MIN_SHARD_PAIRS",
    "ShardComponent",
    "ShardCut",
    "ShardSeedSchedule",
    "cut_flush",
    "build_shard_instance",
    "merge_shard_results",
    "solve_flush",
    "shutdown_warm_pools",
]


@dataclass(frozen=True, slots=True)
class ShardComponent:
    """One conflict-free unit of a flush.

    ``key`` is the component's canonical identity — the smallest global
    worker index it contains — and is what the RNG schedule and the merge
    order key on, so it must not depend on the order units are solved in.
    ``tasks`` / ``workers`` are sorted global indices into the parent
    instance.
    """

    key: int
    tasks: tuple[int, ...]
    workers: tuple[int, ...]
    pair_count: int


@dataclass(frozen=True, slots=True)
class ShardCut:
    """The conflict-free partition of one flush instance.

    ``components`` are sorted by key.  ``orphan_tasks`` (no feasible
    worker) and ``orphan_workers`` (no reachable task) belong to no shard:
    they cannot take part in any assignment, so solving them would be a
    no-op.
    """

    components: tuple[ShardComponent, ...]
    orphan_tasks: tuple[int, ...]
    orphan_workers: tuple[int, ...]

    @property
    def num_components(self) -> int:
        return len(self.components)


def _cut_cell_size(points: np.ndarray) -> float:
    """Cell size for the shard cut: ~0.5 tasks per cell.

    Finer than :class:`~repro.spatial.index.GridIndex`'s query-optimised
    heuristic (~2 points per cell) on purpose — cells only *glue* tasks
    together, the workers' reach does the real connecting, so coarse
    cells just forfeit cut opportunities.  With ~2 cells per task the
    cell partition approaches the exact bipartite-component cut while
    the union-find stays small.
    """
    width = float(points[:, 0].max() - points[:, 0].min())
    height = float(points[:, 1].max() - points[:, 1].min())
    span = max(width, height)
    cell = span / max(1.0, math.sqrt(2.0 * points.shape[0]))
    # A denormal span can underflow the quotient to exactly 0.0; one
    # all-enclosing cell is the right degenerate answer either way.
    return cell if cell > 0.0 else 1.0


class _UnionFind:
    """Path-halving union-find over ``n`` dense labels."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:  # smaller root wins: keeps labels deterministic
                ra, rb = rb, ra
            self.parent[rb] = ra


#: Default coalescing floor (pairs per shard): components smaller than
#: this merge, in key order, into one execution unit.  Dust components
#: are plentiful in spatial workloads and each one pays a fixed engine +
#: sub-instance cost; coalescing keeps that overhead amortised.
MIN_SHARD_PAIRS = 192


def cut_flush(
    instance: ProblemInstance,
    min_shard_pairs: int = MIN_SHARD_PAIRS,
    micro_shortcut: bool = True,
) -> ShardCut:
    """Compute the conflict-free grid-cell cut of one flush instance.

    Tasks are binned into grid cells (:meth:`GridIndex.cell_labels` over
    the task locations); every worker unions the cells of its reachable
    tasks; the resulting cell components — equivalently, a coarsening of
    the bipartite feasibility graph's connected components — are the
    shards.  No worker or task can span two of them by construction.

    ``min_shard_pairs`` coalesces small components (ascending key order)
    into units of at least that many pairs; the trailing dust remainder
    folds into the last dust-formed unit, so at most one unit (an
    all-dust flush) sits below the threshold.  The rule is part of the
    *cut*: for a fixed threshold the units — and therefore every per-unit
    noise stream — are a pure function of the instance.  A component at
    or above the threshold (in particular any oversized one) stands alone
    as a single shard; dust never merges into it.

    ``micro_shortcut`` enables the micro-flush fast path: when the whole
    flush holds at most ``min_shard_pairs`` pairs (and the threshold is
    active), *every* component is dust, so coalescing provably collapses
    the cut to exactly one unit — all busy tasks and workers, keyed by
    the smallest busy worker index.  That unit is computed with a few
    array ops, skipping grid labels and union-find entirely; the
    property suite pins it identical to the full route.  The flag exists
    for that pin, not for callers.
    """
    pairs = instance.pairs
    all_tasks = np.arange(instance.num_tasks, dtype=np.int64)
    all_workers = np.arange(instance.num_workers, dtype=np.int64)
    if pairs.num_pairs == 0:
        return ShardCut(
            components=(),
            orphan_tasks=tuple(all_tasks.tolist()),
            orphan_workers=tuple(all_workers.tolist()),
        )

    offsets = pairs.offsets
    pair_task = pairs.task
    worker_pair_counts = (offsets[1:] - offsets[:-1]).astype(np.int64)

    if micro_shortcut and min_shard_pairs > 1 and pairs.num_pairs <= min_shard_pairs:
        busy_workers = np.flatnonzero(worker_pair_counts > 0)
        task_has_pair = np.zeros(instance.num_tasks, dtype=bool)
        task_has_pair[pair_task] = True
        component = ShardComponent(
            key=int(busy_workers[0]),
            tasks=tuple(np.flatnonzero(task_has_pair).tolist()),
            workers=tuple(busy_workers.tolist()),
            pair_count=int(pairs.num_pairs),
        )
        return ShardCut(
            components=(component,),
            orphan_tasks=tuple(np.flatnonzero(~task_has_pair).tolist()),
            orphan_workers=tuple(np.flatnonzero(worker_pair_counts == 0).tolist()),
        )

    points = np.asarray([t.location for t in instance.tasks], dtype=float)
    labels = grid_cell_labels(points, _cut_cell_size(points))
    busy_workers = np.flatnonzero(worker_pair_counts > 0)

    # Union every worker's cells through its *first* cell.  One edge per
    # (worker-first-cell, pair-cell) suffices for connectivity, and
    # deduplicating the edge list first keeps the union-find loop tiny.
    pair_cells = labels[pair_task]
    anchor_cells = np.repeat(
        pair_cells[offsets[busy_workers]], worker_pair_counts[busy_workers]
    )
    num_cells = int(labels.max()) + 1
    edge_keys = np.unique(anchor_cells * num_cells + pair_cells)
    uf = _UnionFind(num_cells)
    for key in edge_keys.tolist():
        a, b = divmod(key, num_cells)
        if a != b:
            uf.union(a, b)
    cell_root = np.fromiter(
        (uf.find(c) for c in range(len(uf.parent))), dtype=np.int64
    )

    # Group tasks and workers by their cell's root; both index arrays are
    # ascending, so a stable sort by root keeps them ascending per group
    # and the first worker of a group is its canonical key.
    task_has_pair = np.zeros(instance.num_tasks, dtype=bool)
    task_has_pair[pair_task] = True
    busy_tasks = np.flatnonzero(task_has_pair)
    task_roots = cell_root[labels[busy_tasks]]
    worker_roots = cell_root[pair_cells[offsets[busy_workers]]]

    components = []
    t_order = np.argsort(task_roots, kind="stable")
    w_order = np.argsort(worker_roots, kind="stable")
    t_groups, t_starts = np.unique(task_roots[t_order], return_index=True)
    w_groups, w_starts = np.unique(worker_roots[w_order], return_index=True)
    t_split = dict(zip(t_groups.tolist(), np.split(busy_tasks[t_order], t_starts[1:])))
    for root, group_workers in zip(
        w_groups.tolist(), np.split(busy_workers[w_order], w_starts[1:])
    ):
        components.append(
            ShardComponent(
                key=int(group_workers[0]),
                tasks=tuple(t_split[root].tolist()),
                workers=tuple(group_workers.tolist()),
                pair_count=int(worker_pair_counts[group_workers].sum()),
            )
        )
    components.sort(key=lambda c: c.key)
    return ShardCut(
        components=tuple(_coalesce(components, min_shard_pairs)),
        orphan_tasks=tuple(np.flatnonzero(~task_has_pair).tolist()),
        orphan_workers=tuple(np.flatnonzero(worker_pair_counts == 0).tolist()),
    )


def _coalesce(
    components: Sequence[ShardComponent], min_shard_pairs: int
) -> list[ShardComponent]:
    """Coalesce key-ordered dust components into >=threshold units.

    A component at or above the threshold stands alone — dust never
    rides along on it (that would re-key its noise stream).  Dust
    components accumulate, in key order, into merged units of at least
    ``min_shard_pairs``; the trailing remainder folds into the last
    dust-formed unit, so at most one unit (all-dust flushes) ends up
    below the threshold.  The union of conflict-free components is
    itself conflict-free, so every merged unit is still a valid shard;
    its key is the smallest worker index it contains — the first
    member's, since input is key-sorted.
    """
    if min_shard_pairs <= 1:
        return list(components)
    units: list[ShardComponent] = []
    bucket: list[ShardComponent] = []
    bucket_pairs = 0
    last_dust_unit: int | None = None
    for component in components:
        if component.pair_count >= min_shard_pairs:
            units.append(component)
            continue
        bucket.append(component)
        bucket_pairs += component.pair_count
        if bucket_pairs >= min_shard_pairs:
            units.append(_merge_components(bucket))
            last_dust_unit = len(units) - 1
            bucket, bucket_pairs = [], 0
    if bucket:
        if last_dust_unit is not None:
            units[last_dust_unit] = _merge_components(
                [units[last_dust_unit], *bucket]
            )
        else:
            units.append(_merge_components(bucket))
    units.sort(key=lambda c: c.key)
    return units


def _merge_components(members: Sequence[ShardComponent]) -> ShardComponent:
    if len(members) == 1:
        return members[0]
    tasks: list[int] = []
    workers: list[int] = []
    for member in members:
        tasks.extend(member.tasks)
        workers.extend(member.workers)
    return ShardComponent(
        key=min(m.key for m in members),
        tasks=tuple(sorted(tasks)),
        workers=tuple(sorted(workers)),
        pair_count=sum(m.pair_count for m in members),
    )


def build_shard_instance(
    instance: ProblemInstance, component: ShardComponent
) -> ProblemInstance:
    """One component's sub-instance: CSR slices, locally renumbered.

    Task and worker *records* (with their global public ids) are carried
    over verbatim, so per-shard matchings and ledgers are keyed by global
    ids and merge by plain union.
    """
    sub_pairs = instance.pairs.subset(component.workers, component.tasks)
    # One flat conversion + per-worker list slices beats per-worker numpy
    # fancy indexing by a wide margin on dust-sized components.
    pair_tasks = sub_pairs.task.tolist()
    bounds = sub_pairs.offsets.tolist()
    reachable = tuple(
        tuple(pair_tasks[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    )
    return ProblemInstance.from_arrays(
        tasks=[instance.tasks[i] for i in component.tasks],
        workers=[instance.workers[j] for j in component.workers],
        model=instance.model,
        reachable=reachable,
        pairs=sub_pairs,
    )


@dataclass(frozen=True, slots=True)
class ShardSeedSchedule:
    """Per-unit noise streams derived from one flush's base key.

    Unit ``key`` gets ``default_rng((*base, key))``, so each unit's noise
    depends only on the flush and the unit, never on the order the units
    are solved in.
    """

    base: tuple[int, ...]

    def generator(self, key: int) -> np.random.Generator:
        return np.random.default_rng((*self.base, int(key)))


def merge_shard_results(
    instance: ProblemInstance,
    method: str,
    keyed_results: Sequence[tuple[int, AssignmentResult]],
    elapsed_seconds: float,
) -> AssignmentResult:
    """Deterministic union of per-shard results (ascending key order).

    Shards are disjoint in workers and tasks, so matchings and release
    boards union without collisions; ledger events are re-recorded
    shard-by-shard in key order so the merged audit trail is reproducible.
    ``rounds`` is the max over shards (the protocol depth had the units
    run side by side); ``publishes`` is the total.
    """
    matching: dict[object, object] = {}
    ledger = PrivacyLedger()
    board: dict[tuple[object, object], object] = {}
    rounds = 0
    publishes = 0
    for _, result in sorted(keyed_results, key=lambda kr: kr[0]):
        for task_id, worker_id in result.matching:
            matching[task_id] = worker_id
        for worker_id, task_id, epsilon in result.ledger.events():
            ledger.record(worker_id, task_id, epsilon)
        board.update(result.release_board)
        rounds = max(rounds, result.rounds)
        publishes += result.publishes
    return AssignmentResult(
        method=method,
        instance=instance,
        matching=Matching(matching),
        ledger=ledger,
        rounds=rounds,
        publishes=publishes,
        elapsed_seconds=elapsed_seconds,
        release_board=board,
    )


def _solve_units(
    solver: "Solver",
    schedule: ShardSeedSchedule,
    units: list[tuple[int, ProblemInstance]],
    tracer=NULL_TRACER,
) -> list[tuple[int, AssignmentResult]]:
    """Solve keyed units in order, each with its scheduled noise stream.

    :class:`ConflictEliminationSolver` runs record their engine spans under
    ``tracer``; other solvers take no tracer.
    """
    traced = {"tracer": tracer} if isinstance(solver, ConflictEliminationSolver) else {}
    return [
        (key, solver.solve(sub, seed=schedule.generator(key), **traced))
        for key, sub in units
    ]


def solve_flush(
    solver: "Solver",
    instance: ProblemInstance,
    schedule: ShardSeedSchedule,
    *,
    min_shard_pairs: int = MIN_SHARD_PAIRS,
    tracer=NULL_TRACER,
) -> tuple[AssignmentResult, ShardCut, str]:
    """Cut one flush and solve its units in key order, in-process.

    Returns ``(result, cut, mode)``.  ``mode`` is ``"uns"`` when the
    single-unit fast path solved the flush instance directly and
    ``"seq"`` when the units were sliced, solved one by one and merged.
    ``tracer`` records the ``flush.cut`` / ``flush.build`` /
    ``flush.solve`` / ``flush.merge`` phases under the caller's current
    span.  ``min_shard_pairs`` is the coalescing floor forwarded to
    :func:`cut_flush`; it shapes the units, hence the noise streams.
    """
    watch = stopwatch()
    with watch:
        with tracer.span("flush.cut"):
            cut = cut_flush(instance, min_shard_pairs=min_shard_pairs)

        # Single-unit fast path (the common case once dust coalesces):
        # solve the flush instance directly with the unit's scheduled
        # seed — bit-identical results, none of the slice/rebuild/
        # re-record overhead.  Safe when the unit covers the whole
        # instance (the sub-instance would be a verbatim copy), and for
        # the engine family even with orphans: orphan tasks/workers own
        # no pairs, engine noise is drawn per *pair* in CSR order, and
        # results are keyed by public ids, so dropping orphans cannot
        # change anything (the shard tests pin fast == slow).  A solver
        # outside the engine family could consume randomness per worker,
        # so orphans disqualify it there.
        if len(cut.components) == 1:
            whole_cover = not cut.orphan_tasks and not cut.orphan_workers
            if whole_cover or isinstance(solver, ConflictEliminationSolver):
                with tracer.span("flush.solve"):
                    ((_, result),) = _solve_units(
                        solver,
                        schedule,
                        [(cut.components[0].key, instance)],
                        tracer,
                    )
                return result, cut, "uns"

        with tracer.span("flush.build"):
            units = [
                (component.key, build_shard_instance(instance, component))
                for component in cut.components
            ]
        with tracer.span("flush.solve"):
            keyed_results = _solve_units(solver, schedule, units, tracer)
        with tracer.span("flush.merge"):
            merged = merge_shard_results(
                instance, solver.name, keyed_results, elapsed_seconds=watch.elapsed
            )
    return merged, cut, "seq"


def shutdown_warm_pools() -> None:
    """Kept for callers of the retired process-pool tier: a no-op.

    Flushes solve in the calling process, so there are no pools to shut
    down.
    """
