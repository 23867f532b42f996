"""`EngineWorkspace` — a reusable buffer arena for the flush hot path.

Steady-state streaming solves thousands of small, similar instances: every
micro-flush used to allocate a fresh set of numpy buffers (sweep masks,
noise-draw memos, winner state) just to throw them away a millisecond
later.  :class:`EngineWorkspace` is the arena that amortises those
allocations: a long-lived owner (:class:`~repro.stream.simulator.
DispatchSimulator`, :class:`~repro.simulation.runner.BatchRunner`)
creates one workspace and threads it through
:meth:`~repro.core.engine.ConflictEliminationSolver.solve`; each solve
*leases* the arena, draws named buffers from it, and releases the lease on
the way out.

Correctness contract:

* **Bit-identical reuse.**  :meth:`request` always returns a view filled
  with the caller's ``fill`` value, so a reused buffer is
  indistinguishable from a fresh ``np.full`` allocation.  The property
  suite pins workspace-on == workspace-off for every registry method.
* **Single lease.**  The arena backs exactly one solve at a time.  A
  nested or concurrent :meth:`lease` does not raise — it simply yields
  ``None`` and the inner solve falls back to fresh allocations — so
  sharing a workspace across threads degrades to the old behaviour
  instead of corrupting state.
* **Released means empty.**  :meth:`release` drops every buffer;
  lifecycle owners call it from their ``close()``, so a finished
  :class:`~repro.api.session.DispatchSession` holds no arena memory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracer import NULL_TRACER

__all__ = ["EngineWorkspace"]


class EngineWorkspace:
    """Named, growable numpy scratch buffers reused across solves.

    Buffers are keyed by name (re-allocated if the requested dtype ever
    changes) and grown geometrically, so after the first few flushes of a
    stream the steady state performs **zero** buffer allocations per
    solve.
    ``reuses`` / ``allocations`` count buffer requests served from the
    arena vs freshly allocated — the observability hook the flush-overhead
    benchmark reads.  ``tracer`` (settable by the stream owner) records a
    ``workspace.lease`` / ``workspace.contention`` point event per
    :meth:`lease` attempt; the no-op default costs one attribute call.
    """

    __slots__ = ("_buffers", "_leased", "reuses", "allocations", "leases", "tracer")

    def __init__(self, tracer=NULL_TRACER) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._leased = False
        self.reuses = 0
        self.allocations = 0
        self.leases = 0
        self.tracer = tracer

    # -- lease lifecycle ----------------------------------------------------

    def lease(self) -> "EngineWorkspace | None":
        """Claim the arena for one solve; ``None`` if already claimed.

        The engine calls this at the top of a solve and falls back to
        fresh per-solve allocations when the arena is busy, which makes
        accidental sharing across threads safe (just not faster).
        """
        if self._leased:
            self.tracer.event("workspace.contention")
            return None
        self._leased = True
        self.leases += 1
        self.tracer.event("workspace.lease")
        return self

    def unlease(self) -> None:
        """Return the arena (idempotent)."""
        self._leased = False

    def release(self) -> None:
        """Drop every buffer (idempotent).  The arena stays usable:
        later requests simply re-allocate."""
        self._buffers.clear()
        self._leased = False

    @property
    def held_bytes(self) -> int:
        """Total bytes currently held by the arena's buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())

    # -- buffer requests ----------------------------------------------------

    def request(self, name: str, size: int, dtype, fill) -> np.ndarray:
        """A length-``size`` 1-D view filled with ``fill``.

        The backing buffer persists across solves under ``(name, dtype)``
        and grows geometrically when ``size`` outruns it; the returned
        view is always freshly filled, so callers see exactly what
        ``np.full(size, fill, dtype)`` would have given them.
        """
        if size < 0:
            raise ConfigurationError(f"buffer size must be >= 0, got {size}")
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != dtype:
            capacity = max(size, 2 * buf.shape[0] if buf is not None else size, 1)
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self.allocations += 1
        else:
            self.reuses += 1
        view = buf[:size]
        view[...] = fill
        return view
