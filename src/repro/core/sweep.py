"""Vectorized WorkerProposal sweep (Algorithm 1 over pair arrays).

:class:`VectorSweep` evaluates one proposal round for *every* not-winning
worker at once: the budget-remaining, positive-utility and beats-winner
gates of Algorithm 1 become boolean masks over the instance's CSR pair
arrays (:class:`~repro.simulation.pairs.PairArrays`), and only the pairs
that survive gating drop to the scalar per-pair path that actually
publishes a private release.

Exactness contract (what the equivalence property tests pin against the
agent-at-a-time reference sweep in ``tests/reference/``):

* **Identical floats.**  Every gate is computed with the same IEEE
  operations, in the same order, as the reference: utilities as ``(v -
  f_d(d)) - f_p(spend)``, spends as left-to-right prefix sums, PPCF
  through the same ``exp`` formula.
* **Identical noise stream.**  The reference draws a memoized Laplace
  noise for every pair that passes the budget gate — *before* the
  utility/winner gates — in (sorted worker, reachable-order) order.  The
  sweep asks its ``obfuscate`` seam for those draws in exactly that order
  (flat CSR order); numpy fills array draws element-by-element from the
  generator, so the stream, and therefore every published release and
  the Table VIII timeline, is unchanged.  Draws stay memoized per (pair,
  budget index).
* **Scalar-publish boundary.**  The tentative *effective* pair of a
  re-proposing pair is a weighted median over its release set; that, the
  PCF gate against the winner, and the publish itself run per-pair on the
  server model — the boundary where array code hands back to the
  worker-local scalar path.

Candidates leave the sweep as a :class:`ProposalBatch` — flat arrays in
publish (CSR) order, never materialised as per-pair ``Candidate`` objects
— which the engine's WinnerChosen consumes directly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.compare import pcf
from repro.core.effective import EffectivePair
from repro.privacy.laplace import laplace_cdf_array
from repro.simulation.instance import ProblemInstance
from repro.simulation.server import Server

__all__ = ["ProposalBatch", "VectorSweep", "apply_value_fn", "apply_value_fn_inverse"]

#: ``obfuscate(pair, budget_index)``: the would-be released distances of
#: fresh (pair, budget index) rows, in the order given.
Obfuscate = Callable[[np.ndarray, np.ndarray], np.ndarray]


def apply_value_fn(fn, xs: np.ndarray) -> np.ndarray:
    """Elementwise ``fn`` over an array, preferring a vectorized method.

    Falls back to per-element scalar calls for custom value functions, so
    any :class:`~repro.core.utility.ValueFunction` works unvectorized.
    """
    apply = getattr(fn, "apply", None)
    if apply is not None:
        return apply(xs)
    return np.fromiter((fn(float(x)) for x in xs), dtype=np.float64, count=len(xs))


def apply_value_fn_inverse(fn, vs: np.ndarray) -> np.ndarray:
    """Elementwise ``fn.inverse`` over an array (see :func:`apply_value_fn`)."""
    apply_inverse = getattr(fn, "apply_inverse", None)
    if apply_inverse is not None:
        return apply_inverse(vs)
    return np.fromiter(
        (fn.inverse(float(v)) for v in vs), dtype=np.float64, count=len(vs)
    )


class ProposalBatch:
    """One round's surviving candidates as flat arrays (publish order).

    The array-form counterpart of the reference sweep's
    ``{task: [Candidate, ...]}`` mapping: row ``r`` says worker
    ``worker[r]`` stands as a candidate for task ``task[r]`` with
    comparison key ``key[r]``, via flat CSR pair ``pair[r]``.  Rows are in
    publish order — flat CSR order after gating — which is exactly the
    first-appearance order the mapping's insertion order encodes, so the
    engine's WinnerChosen reproduces the reference decision order.
    """

    __slots__ = ("pair", "task", "worker", "key")

    def __init__(
        self, pair: np.ndarray, task: np.ndarray, worker: np.ndarray, key: np.ndarray
    ):
        self.pair = pair
        self.task = task
        self.worker = worker
        self.key = key

    def __len__(self) -> int:
        return int(self.task.shape[0])

    def __bool__(self) -> bool:
        return self.task.shape[0] > 0


class VectorSweep:
    """Mutable array state of one engine run's proposal sweeps.

    ``obfuscate`` turns fresh (pair, budget index) rows into would-be
    released distances (the engine's noise seam); ``None`` runs the exact,
    non-private sweep.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        server: Server,
        objective: str,
        use_ppcf: bool,
        obfuscate: Obfuscate | None,
    ):
        self.instance = instance
        self.server = server
        self.objective = objective
        self.use_ppcf = use_ppcf
        self.obfuscate = obfuscate
        self.private = obfuscate is not None
        pairs = instance.pairs
        num_pairs = pairs.num_pairs

        # Worker-pool and winner state, maintained incrementally instead
        # of re-sorted / re-scanned each round.
        self.not_winning = np.full(instance.num_workers, True)
        self.winner_pair = np.full(instance.num_tasks, -1, dtype=np.int64)

        # Per-pair consumption state (the array form of PairBudget).
        self.used = np.zeros(num_pairs, dtype=np.int64)
        # Memoized tentative draw for the pair's *current* budget index.
        self.draw_value = np.zeros(num_pairs)
        self.draw_index = np.full(num_pairs, -1, dtype=np.int64)
        # Release-board summary mirrored per pair (matches the server's
        # memoized ReleaseSet.effective_pair()).
        self.eff_distance = np.zeros(num_pairs)
        self.eff_epsilon = np.zeros(num_pairs)
        self.release_count = np.zeros(num_pairs, dtype=np.int64)

    # -- winner bookkeeping -------------------------------------------------

    def note_assign_pair(
        self, task_index: int, pair_pos: int, vacated: int | None
    ) -> None:
        """Mirror one ``server.assign`` into the winner-pair index.

        ``pair_pos`` is the winner's flat CSR pair — the sweeps carry it
        through :class:`ProposalBatch`, so no ``(task, worker) -> pair``
        table lookup (or its lazy O(P) construction) ever happens on the
        vectorized path.
        """
        if vacated is not None:
            self.winner_pair[vacated] = -1
        self.winner_pair[task_index] = pair_pos

    # -- one proposal round -------------------------------------------------

    def proposal_round(self) -> ProposalBatch:
        """All of Algorithm 1 for one round; returns the candidate batch."""
        pairs = self.instance.pairs
        active = self.not_winning[pairs.worker]
        if self.private:
            active &= self.used < pairs.budget_len
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return ProposalBatch(idx, idx, idx, idx.astype(np.float64))
        if self.private:
            return self._private_round(idx)
        return self._exact_round(idx)

    # -- non-private: fully array-evaluated ---------------------------------

    def _exact_round(self, idx: np.ndarray) -> ProposalBatch:
        pairs = self.instance.pairs
        model = self.instance.model
        task_i = pairs.task[idx]
        d_real = pairs.distance[idx]

        if self.objective == "utility":
            values = pairs.task_value[task_i]
            # model.utility(v, d, 0.0) evaluates (v - f_d(d)) - f_p(0.0).
            utility = (values - apply_value_fn(model.f_d, d_real)) - model.f_p(0.0)
            keep = utility > 0.0
            idx, task_i, d_real = idx[keep], task_i[keep], d_real[keep]
            values = values[keep]
            keys = d_real - apply_value_fn_inverse(model.f_d, values)
        else:
            keys = d_real

        contested = self.winner_pair[task_i] >= 0
        if np.any(contested):
            wp = self.winner_pair[task_i[contested]]
            win_d = pairs.distance[wp]
            if self.objective == "utility":
                win_keys = win_d - apply_value_fn_inverse(
                    model.f_d, pairs.task_value[task_i[contested]]
                )
            else:
                win_keys = win_d
            beats = np.ones(idx.shape[0], dtype=bool)
            beats[contested] = keys[contested] < win_keys
            idx, task_i, keys = idx[beats], task_i[beats], keys[beats]

        # Rows stay in flat CSR order — the same first-appearance order
        # the reference sweep's proposal dict encodes — and are *not*
        # sorted here: the engine's WinnerChosen sorts per task group
        # once, incumbents included.
        return ProposalBatch(idx, task_i, self.instance.pairs.worker[idx], keys)

    # -- private: array gates, scalar publishes -----------------------------

    def _private_round(self, idx: np.ndarray) -> ProposalBatch:
        pairs = self.instance.pairs
        model = self.instance.model
        used_now = self.used[idx]

        # Memoized tentative draws, batched in the reference sweep's order
        # (flat CSR order == sorted worker, reachable order).  The
        # reference draws for every budget-gate-passing pair before any
        # further gate, so the batch must too — that is what keeps the
        # shared noise stream identical.
        stale = self.draw_index[idx] != used_now
        fresh = idx[stale]
        if fresh.size:
            fresh_index = self.used[fresh]
            self.draw_value[fresh] = self.obfuscate(fresh, fresh_index)
            self.draw_index[fresh] = fresh_index

        next_eps = pairs.budget_matrix[idx, used_now]
        pair_spend = pairs.budget_prefix[idx, used_now] + next_eps
        task_i = pairs.task[idx]
        d_real = pairs.distance[idx]

        if self.objective == "utility":
            values = pairs.task_value[task_i]
            utility = (values - apply_value_fn(model.f_d, d_real)) - model.f_p.apply(
                pair_spend
            )
            keep = utility > 0.0
            idx, task_i, d_real = idx[keep], task_i[keep], d_real[keep]
            next_eps, pair_spend = next_eps[keep], pair_spend[keep]
            own_value = values[keep] - model.f_p.apply(pair_spend)
        else:
            own_value = np.zeros(idx.shape[0])

        contested = self.winner_pair[task_i] >= 0
        rival = np.zeros(idx.shape[0])
        if np.any(contested):
            wp = self.winner_pair[task_i[contested]]
            if self.objective == "utility":
                winner_value = pairs.task_value[
                    task_i[contested]
                ] - model.f_p.apply(pairs.budget_prefix[wp, self.used[wp]])
                rival[contested] = (
                    self.eff_distance[wp]
                    + apply_value_fn_inverse(model.f_d, own_value[contested])
                ) - apply_value_fn_inverse(model.f_d, winner_value)
            else:
                rival[contested] = self.eff_distance[wp]
            if self.use_ppcf:
                # Algorithm 1 line 12: fail when PPCF <= 1/2.
                ppcf_val = laplace_cdf_array(
                    rival[contested] - d_real[contested], self.eff_epsilon[wp]
                )
                survive = np.ones(idx.shape[0], dtype=bool)
                survive[contested] = ppcf_val > 0.5
                idx, task_i, contested = idx[survive], task_i[survive], contested[survive]
                next_eps, own_value = next_eps[survive], own_value[survive]
                rival = rival[survive]

        return self._publish_survivors(idx, task_i, contested, next_eps, own_value, rival)

    def _publish_survivors(
        self,
        idx: np.ndarray,
        task_i: np.ndarray,
        contested: np.ndarray,
        next_eps: np.ndarray,
        own_value: np.ndarray,
        rival: np.ndarray,
    ) -> ProposalBatch:
        """Scalar tail of the sweep: PCF gate, publish, candidate keys.

        Everything that must see a release set — the tentative effective
        pair of a re-proposing worker, the PCF comparison, and the publish
        itself — stays on the per-pair scalar path so the server-side
        weighted-median semantics (and their tie-breaks) are untouched.
        Published rows accumulate into a :class:`ProposalBatch` in publish
        order.
        """
        pairs = self.instance.pairs
        model = self.instance.model
        server = self.server
        utility_objective = self.objective == "utility"
        flat = idx.tolist()
        tasks = task_i.tolist()
        workers = pairs.worker[idx].tolist()
        epsilons = next_eps.tolist()
        draws = self.draw_value[idx].tolist()
        contested_flags = contested.tolist()
        rivals = rival.tolist()
        values = own_value.tolist()
        has_releases = (self.release_count[idx] > 0).tolist()
        out_pair: list[int] = []
        out_task: list[int] = []
        out_worker: list[int] = []
        out_key: list[float] = []
        for pos, p in enumerate(flat):
            i = tasks[pos]
            j = workers[pos]
            epsilon = epsilons[pos]
            draw = draws[pos]
            if has_releases[pos]:
                effective = server.release_set(i, j).effective_pair_with(draw, epsilon)
            else:
                effective = EffectivePair(draw, epsilon)
            if contested_flags[pos]:
                # Lines 13-15: PCF on the would-be new effective pair.
                if (
                    pcf(
                        effective.distance,
                        rivals[pos],
                        effective.epsilon,
                        float(self.eff_epsilon[self.winner_pair[i]]),
                    )
                    <= 0.5
                ):
                    continue
            server.publish(i, j, draw, epsilon)
            self.used[p] += 1
            # The release board's post-publish effective pair is the
            # weighted median over exactly the releases `effective` was
            # computed from, so no recomputation is needed.
            self.eff_distance[p] = effective.distance
            self.eff_epsilon[p] = effective.epsilon
            self.release_count[p] += 1
            if utility_objective:
                key = effective.distance - model.distance_equivalent(values[pos])
            else:
                key = effective.distance
            out_pair.append(p)
            out_task.append(i)
            out_worker.append(j)
            out_key.append(key)
        return ProposalBatch(
            np.asarray(out_pair, dtype=np.int64),
            np.asarray(out_task, dtype=np.int64),
            np.asarray(out_worker, dtype=np.int64),
            np.asarray(out_key, dtype=np.float64),
        )
