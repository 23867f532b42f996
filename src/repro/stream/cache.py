"""Flush-fingerprint solver cache: skip re-solving repeated flushes.

Dynamic workloads re-solve many *small, highly similar* instances: a
duty-cycle fleet serves the same neighbourhoods every few minutes, losers
of one micro-flush re-flush unchanged until a worker frees up, and
repeated experiment runs replay identical (instance, noise) pairs.  This
module caches :class:`~repro.core.result.AssignmentResult`s in one
in-memory LRU keyed by a **flush fingerprint** — a content hash of a
flush's *inputs*, taken before any instance is built — so a recurring
flush returns its result without building an instance or running the
engine at all.

What goes into the fingerprint (and why):

* the flush's **task records** (public id, location, value) and
  **worker records** (public id, location, radius) — the pair arrays are
  a deterministic function of them, and the matching, ledger and release
  board are keyed by public ids, so two flushes may only share a result
  when the ids line up too;
* the **utility model** and **budget sampler** (``repr``) and a
  **method key** (solver class, reported name, round caps);
* for solvers that consume randomness or read budget state — every
  *private* method, and any solver this module cannot prove pure — the
  **build key** (the budget-sampling seed), the **noise-seed key** of the
  flush, and the **per-worker remaining shift budgets** from the
  :class:`~repro.stream.batcher.WorkerBudgetTracker`.

The last item is the subtle one: budget *carry* makes naively-keyed
caching wrong.  The micro-batcher truncates each flush's budget vectors
against the workers' remaining shift budgets, and the cap invariant is
re-audited against the tracker when the (possibly cached) ledger is
charged — so two flushes that happen to share every record but differ in
remaining budgets must never alias.  Hashing the remainders makes the
cache transparent *by construction*: the fingerprint captures the full
budget state a private flush can observe.

Non-private conflict elimination (UCE/DCE), GRD, GT and OPT are pure
functions of the distance geometry: they never read the budget columns
and never draw noise.  Their fingerprints omit budgets and seeds, which
is what makes *cross-flush* hits real — the freshly sampled budget
vectors and the per-flush noise keys differ on every flush, but a
re-flushed loser set against an unchanged fleet hashes identically.
Private methods key on their noise schedule, so they hit only when the
whole (seed, flush, method) recurs — repeated runs sharing one cache.

Results are bit-identical either way (the cache property suite pins
cache-on == cache-off for every registry method): a hit returns exactly
what the skipped solve would have produced.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.engine import ConflictEliminationSolver
from repro.core.nonprivate import GreedySolver
from repro.core.optimal import OptimalSolver
from repro.core.pgt import _BestResponseSolver
from repro.core.result import AssignmentResult
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # runtime import is deferred to break the package cycle
    from repro.core.registry import Solver

__all__ = [
    "FlushCacheProfile",
    "FlushSolverCache",
    "cache_profile",
    "flush_inputs_fingerprint",
]


@dataclass(frozen=True, slots=True)
class FlushCacheProfile:
    """What a solver's fingerprint must capture to be replay-safe.

    ``method_key`` names the configured solver (class, reported name,
    caps).  ``content_sensitive`` says whether the solver can observe
    budget columns, noise draws, or tracker state — true for every
    private method and for any solver class this module does not
    recognise as pure (unknown solvers are assumed to read everything;
    conservatism costs hits, never correctness).
    """

    method_key: str
    content_sensitive: bool


def cache_profile(solver: "Solver") -> FlushCacheProfile:
    """Build the cache profile of one configured solver."""
    parts = [type(solver).__name__, str(solver.name)]
    max_rounds = getattr(solver, "max_rounds", None)
    if max_rounds is not None:
        parts.append(f"max_rounds={max_rounds}")
    max_passes = getattr(solver, "max_passes", None)
    if max_passes is not None:
        parts.append(f"max_passes={max_passes}")
    pure = isinstance(
        solver, (GreedySolver, OptimalSolver)
    ) or (
        isinstance(solver, (ConflictEliminationSolver, _BestResponseSolver))
        and not solver.is_private
    )
    return FlushCacheProfile(
        method_key="|".join(parts),
        content_sensitive=not pure,
    )


#: Small identity-keyed memo for stable ``repr`` keys (model, budget
#: sampler): every flush of a stream shares the same frozen objects, so
#: object identity captures them.  Entries hold strong references and are
#: verified with ``is`` — a recycled ``id()`` can never alias a different
#: object — and the memo stays tiny (a stream contributes two objects).
_REPR_KEY_MEMO: dict[int, tuple[object, bytes]] = {}


def _repr_key(obj) -> bytes:
    memo = _REPR_KEY_MEMO.get(id(obj))
    if memo is not None and memo[0] is obj:
        return memo[1]
    encoded = repr(obj).encode()
    if len(_REPR_KEY_MEMO) >= 16:
        _REPR_KEY_MEMO.clear()
    _REPR_KEY_MEMO[id(obj)] = (obj, encoded)
    return encoded


def flush_inputs_fingerprint(
    tasks,
    workers,
    model,
    budget_sampler,
    profile: FlushCacheProfile,
    build_key: tuple[int, ...] | None = None,
    noise_key: tuple[int, ...] | None = None,
    remaining_budgets: tuple[float, ...] | None = None,
) -> str:
    """The content hash of one flush's *inputs*, taken before any build.

    Hashes what the pair arrays are a deterministic function of — the
    task records (id, location, value), worker records (id, location,
    radius), model, and budget sampler — so a cache hit skips **instance
    construction** as well as the solve.  For content-sensitive profiles
    the ``build_key`` (the budget-sampling seed tuple), ``noise_key`` and
    per-worker remaining budgets join the digest: they pin the sampled
    budget columns, the truncation state and the noise stream, so a hit
    implies a bit-identical instance *and* solve.  Pure profiles omit all three —
    their solves never observe budgets or noise, which is what makes
    recurring flushes hit even though every flush samples fresh budgets.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(profile.method_key.encode())
    digest.update(_repr_key(model))
    digest.update(_repr_key(budget_sampler))
    digest.update(b"%d:%d" % (len(tasks), len(workers)))
    digest.update(
        np.fromiter((t.id for t in tasks), dtype=np.int64, count=len(tasks)).tobytes()
    )
    digest.update(
        np.fromiter(
            (v for t in tasks for v in (t.location[0], t.location[1], t.value)),
            dtype=np.float64,
            count=3 * len(tasks),
        ).tobytes()
    )
    digest.update(
        np.fromiter(
            (w.id for w in workers), dtype=np.int64, count=len(workers)
        ).tobytes()
    )
    digest.update(
        np.fromiter(
            (v for w in workers for v in (w.location[0], w.location[1], w.radius)),
            dtype=np.float64,
            count=3 * len(workers),
        ).tobytes()
    )
    if profile.content_sensitive:
        digest.update(repr(build_key).encode())
        digest.update(repr(noise_key).encode())
        digest.update(
            np.asarray(
                remaining_budgets if remaining_budgets is not None else (),
                dtype=np.float64,
            ).tobytes()
        )
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class _CachedFlush:
    """One stored flush outcome (result + the cut width it recorded)."""

    result: AssignmentResult
    shards: int
    nbytes: int


def _entry_nbytes(result: AssignmentResult) -> int:
    """Estimated resident size of one cached flush.

    The pair arrays dominate; populations, ledger events and release
    board are charged at flat per-item rates (Python-object overheads
    are approximate by nature — the bound is a budget, not an audit).
    """
    instance = result.instance
    pairs = instance.pairs
    total = 512
    for array in (
        pairs.offsets,
        pairs.task,
        pairs.worker,
        pairs.distance,
        pairs.budget_matrix,
        pairs.budget_len,
        pairs.task_value,
        pairs.budget_prefix,
    ):
        total += array.nbytes
    total += 128 * (len(instance.tasks) + len(instance.workers))
    total += 96 * len(result.ledger)
    total += 64 * len(result.matching)
    for releases in result.release_board.values():
        total += 64 + 48 * len(releases)
    return total


class FlushSolverCache:
    """Bounded LRU of solved flushes, keyed by fingerprint.

    One cache may back many flushes of one stream (the
    :class:`~repro.stream.simulator.DispatchSimulator` default) or be
    shared across sessions/runs — including *concurrently*: every
    operation holds an internal lock, entries are immutable, and a hit
    hands out a shallow copy, so many sessions (threads, asyncio tenant
    loops) may interleave lookups and stores safely.

    Two eviction bounds apply together, LRU order both times:
    ``max_entries`` caps the entry count, ``max_bytes`` (optional) caps
    the estimated resident size — the knob that matters when one shared
    cache backs thousands of tenant sessions.  ``evictions`` counts
    entries dropped by either bound.

    The cache lives in memory only: results hold workers' true locations
    and distances, and no entry leaves the process.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int | None = None):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, _CachedFlush]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def total_bytes(self) -> int:
        """Estimated resident size of all entries."""
        return self._total_bytes

    def lookup(self, fingerprint: str) -> tuple[AssignmentResult, int] | None:
        """The stored ``(result, shards)`` for a fingerprint.

        A hit returns the cached result with the wall-clock field zeroed
        (elapsed time measures the host, not the protocol, and a cache
        hit genuinely did no solver work).  The simulator looks up
        *before* any instance exists and consumes the cached result
        as-is — fingerprint-equal flushes agree on everything a result
        exposes (ids, distances, values, ledger).
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(fingerprint)
        return replace(entry.result, elapsed_seconds=0.0), entry.shards

    def store(self, fingerprint: str, result: AssignmentResult, shards: int) -> None:
        """Remember one solved flush (evicting LRU entries past a bound)."""
        entry = _CachedFlush(
            result=result, shards=shards, nbytes=_entry_nbytes(result)
        )
        with self._lock:
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._total_bytes -= old.nbytes
            self._entries[fingerprint] = entry
            self._total_bytes += entry.nbytes
            self._evict_locked()

    def _evict_locked(self) -> None:
        """Drop LRU entries until both bounds hold (lock already held).

        The byte bound never evicts the newest entry: a single flush
        larger than ``max_bytes`` stays resident until the next store
        displaces it (refusing it outright would silently disable the
        cache for big-flush workloads).
        """
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._total_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._total_bytes -= evicted.nbytes
            self.evictions += 1
