"""Struct-of-arrays storage for the feasible pairs of an instance.

The round-based protocol (Algorithms 1-3) is a sweep over the feasible
``(task, worker)`` pairs; tuple-keyed dict lookups and one Python object
per pair are what used to dominate solver time.  :class:`PairArrays` is
the CSR-style array core that replaced them: pairs are stored worker-major
(``offsets[j]:offsets[j+1]`` is worker ``j``'s slice, in reachable order),
and every per-pair attribute is a flat numpy array aligned to that order.

Budget vectors are ragged (micro-batch truncation shortens them), so they
live in a zero-padded ``(P, Z_max)`` matrix plus a length column;
``budget_prefix[p, k]`` is the exact left-to-right partial sum of the
first ``k`` elements (``np.cumsum`` adds in the same order Python's
``sum`` does, so prefix spends are bit-identical to the scalar
bookkeeping they replaced).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from repro.core.budgets import BudgetVector
from repro.errors import InvalidInstanceError

__all__ = ["PairArrays"]


@dataclass(frozen=True, eq=False)
class PairArrays:
    """CSR-by-worker arrays describing every feasible pair.

    ``eq=False``: the auto-generated dataclass ``__eq__``/``__hash__``
    would raise on ndarray fields; compare via
    :meth:`ProblemInstance.__eq__`, which uses ``np.array_equal``.

    Attributes
    ----------
    offsets:
        ``(n + 1,)`` int64 — pair slice boundaries per worker.
    task, worker:
        ``(P,)`` int64 — task / worker index of each flat pair.
    distance:
        ``(P,)`` float64 — true distances (private inputs).
    budget_matrix:
        ``(P, Z_max)`` float64 — budget vectors, zero-padded.
    budget_len:
        ``(P,)`` int64 — live length of each budget vector.
    task_value:
        ``(m,)`` float64 — task values ``v_i``.
    """

    offsets: np.ndarray
    task: np.ndarray
    worker: np.ndarray
    distance: np.ndarray
    budget_matrix: np.ndarray
    budget_len: np.ndarray
    task_value: np.ndarray
    budget_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    prefix: InitVar["np.ndarray | None"] = None

    def __post_init__(self, prefix: "np.ndarray | None") -> None:
        if prefix is None:
            prefix = np.zeros(
                (self.budget_matrix.shape[0], self.budget_matrix.shape[1] + 1)
            )
            np.cumsum(self.budget_matrix, axis=1, out=prefix[:, 1:])
        object.__setattr__(self, "budget_prefix", prefix)

    @property
    def num_pairs(self) -> int:
        return int(self.task.shape[0])

    @property
    def num_workers(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def num_tasks(self) -> int:
        return int(self.task_value.shape[0])

    def worker_slice(self, worker_index: int) -> slice:
        """The flat-pair slice of one worker's reachable tasks."""
        return slice(
            int(self.offsets[worker_index]), int(self.offsets[worker_index + 1])
        )

    def budget_total(self, pair_index: int) -> float:
        """Exact total budget of one pair (left-to-right partial sum)."""
        return float(
            self.budget_prefix[pair_index, int(self.budget_len[pair_index])]
        )

    def budget_vector(self, pair_index: int) -> BudgetVector:
        """One pair's live budget vector, padding stripped.

        The single home of the matrix-row -> :class:`BudgetVector` slice
        semantics; the instance's dict view and the worker agents both
        build their vectors through it.
        """
        length = int(self.budget_len[pair_index])
        return BudgetVector(tuple(self.budget_matrix[pair_index, :length].tolist()))

    # -- slicing --------------------------------------------------------

    def subset(
        self,
        worker_indices: Sequence[int] | np.ndarray,
        task_indices: Sequence[int] | np.ndarray,
    ) -> "PairArrays":
        """CSR slice onto a (worker, task) subset, locally renumbered.

        The shard-cut fast path: picks the full pair rows of
        ``worker_indices`` (in the given order) and renumbers tasks to
        positions in ``task_indices``.  The subset must be *closed* — every
        selected worker's reachable tasks must appear in ``task_indices``
        — which is exactly the conflict-free shard invariant; a pair that
        escapes the task set raises :class:`InvalidInstanceError`.

        Budget rows are copied verbatim (narrowed to the subset's own
        ``Z_max``), so prefix sums — recomputed by ``__post_init__`` over
        the same values in the same order — stay bit-identical to the
        parent's.
        """
        w_sel = np.asarray(worker_indices, dtype=np.int64)
        t_sel = np.asarray(task_indices, dtype=np.int64)
        task_map = np.full(self.num_tasks, -1, dtype=np.int64)
        task_map[t_sel] = np.arange(t_sel.shape[0], dtype=np.int64)

        counts = self.offsets[w_sel + 1] - self.offsets[w_sel]
        new_offsets = np.zeros(w_sel.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=new_offsets[1:])
        total = int(new_offsets[-1])
        # Ragged range concatenation without a per-worker Python loop:
        # each selected worker's slice start, rebased onto the new CSR.
        sel = np.repeat(self.offsets[w_sel] - new_offsets[:-1], counts) + np.arange(
            total, dtype=np.int64
        )

        new_task = task_map[self.task[sel]]
        if np.any(new_task < 0):
            escaped = int(self.task[sel][np.argmax(new_task < 0)])
            raise InvalidInstanceError(
                f"subset is not task-closed: task {escaped} reachable from a "
                f"selected worker is outside the task subset"
            )
        new_len = self.budget_len[sel]
        z_max = int(new_len.max()) if new_len.size else 1
        # Advanced indexing always materialises owned copies, so nothing
        # below aliases the parent (or a shared-memory segment backing it).
        return PairArrays(
            offsets=new_offsets,
            task=new_task,
            worker=np.repeat(np.arange(w_sel.shape[0], dtype=np.int64), counts),
            distance=self.distance[sel],
            budget_matrix=self.budget_matrix[sel, :z_max],
            budget_len=new_len,
            task_value=self.task_value[t_sel],
            # The parent prefix rows are cumsums of the same values in the
            # same order, so slicing them is bit-identical to recomputing
            # over the narrowed matrix — and skips an O(P x Z) cumsum.
            prefix=self.budget_prefix[sel, : z_max + 1],
        )

    # -- construction --------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        reachable: Sequence[Sequence[int]],
        distance_rows: Sequence[Sequence[float]],
        budget_rows: Sequence[Sequence[Sequence[float]]],
        task_values: Sequence[float],
    ) -> "PairArrays":
        """Assemble arrays from per-worker rows (reachable order).

        ``distance_rows[j][k]`` / ``budget_rows[j][k]`` belong to pair
        ``(reachable[j][k], j)``.
        """
        counts = np.fromiter(
            (len(r) for r in reachable), dtype=np.int64, count=len(reachable)
        )
        offsets = np.zeros(len(reachable) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])

        task = np.empty(total, dtype=np.int64)
        worker = np.empty(total, dtype=np.int64)
        distance = np.empty(total, dtype=np.float64)
        z_max = 1
        for row in budget_rows:
            for vector in row:
                if len(vector) > z_max:
                    z_max = len(vector)
        budget_matrix = np.zeros((total, z_max), dtype=np.float64)
        budget_len = np.empty(total, dtype=np.int64)

        p = 0
        for j, tasks_in_range in enumerate(reachable):
            d_row = distance_rows[j]
            b_row = budget_rows[j]
            if len(d_row) != len(tasks_in_range) or len(b_row) != len(tasks_in_range):
                raise InvalidInstanceError(
                    f"worker {j}: rows of length {len(d_row)}/{len(b_row)} "
                    f"for {len(tasks_in_range)} reachable tasks"
                )
            for k, i in enumerate(tasks_in_range):
                task[p] = i
                worker[p] = j
                distance[p] = d_row[k]
                vector = b_row[k]
                budget_len[p] = len(vector)
                budget_matrix[p, : len(vector)] = vector
                p += 1
        return cls(
            offsets=offsets,
            task=task,
            worker=worker,
            distance=distance,
            budget_matrix=budget_matrix,
            budget_len=budget_len,
            task_value=np.asarray(task_values, dtype=np.float64),
        )
