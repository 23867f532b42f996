"""`DispatchSession` — drive dispatch request-by-request.

The streaming layer's native interaction model is *replay*: materialise a
whole :class:`~repro.stream.arrivals.StreamWorkload` timeline, hand it to
:class:`~repro.stream.runner.StreamRunner`.  A platform, however, learns
about tasks and workers one request at a time.  :class:`DispatchSession`
is the long-lived stateful facade for that mode::

    from repro import DispatchSession, SolveOptions, Task, Worker, Point

    with DispatchSession("PUCE", options=SolveOptions(seed=7)) as session:
        session.submit_worker(Worker(id=0, location=Point(0, 0), radius=2.0))
        session.submit_task(Task(id=0, location=Point(1, 0), value=4.5),
                            at=0.1, deadline=1.1)
        session.advance(to_time=0.5)
        for event in session.drain():       # typed Assignment events
            print(event.task_id, "->", event.worker_id, event.latency)
        stats = session.finish()            # StreamStats, as a replay run

Session-level knobs beyond :class:`~repro.api.options.SolveOptions` —
stream-config override, seed override, default task patience, a shared
flush cache — live in one validated :class:`SessionConfig`::

    config = SessionConfig(options=SolveOptions(seed=7), default_deadline=0.6)
    session = DispatchSession("PUCE", config)

``submit_task`` / ``submit_worker`` build typed wire records
(:mod:`repro.api.wire`) and route them through :meth:`DispatchSession.
apply` — the same request path the multi-tenant service
(:mod:`repro.service`) drives, so the facade and the service share one
schema and one semantics (the wire-equivalence property test pins it).

The session is a thin veneer over
:class:`~repro.stream.simulator.DispatchSimulator`'s incremental mode
(``push_event`` / ``advance`` / ``finalize``), which is the *same* loop
the replay path runs — so a session fed a workload's events is
bit-identical to ``StreamRunner.run_workload`` on the same seed (the
``tests/properties/test_prop_session.py`` property).

Ordering contract: submit everything you know up to time ``t`` before
calling ``advance(t)`` — the simulator refuses arrivals earlier than the
clock's high-water mark.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.api.methods import MethodSpec
from repro.api.options import (
    SolveOptions,
    reject_unknown_keys,
    validate_default_deadline,
    validate_seed,
)
from repro.api.wire import (
    Advance,
    BudgetReply,
    BudgetStatus,
    Drain,
    Finish,
    SubmitTask,
    SubmitWorker,
    WireRecord,
)
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError
from repro.stream.cache import FlushSolverCache
from repro.stream.events import Assignment, StreamEvent, TaskArrival, WorkerArrival
from repro.stream.metrics import StreamStats
from repro.stream.simulator import DispatchSimulator, StreamConfig

if TYPE_CHECKING:
    from repro.core.registry import Solver

__all__ = ["SessionConfig", "DispatchSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Every session-level knob, validated once.

    Parameters
    ----------
    options:
        The unified dispatch knobs (seed, batching, caching, windows).
        The session's :class:`~repro.stream.simulator.StreamConfig` is
        derived from them unless ``stream`` overrides it wholesale.
    stream:
        Full control over the online layer (duty cycles, budget
        sampler); when given, it wins over the streaming fields of
        ``options``.
    seed:
        Override of ``options.seed`` for the session's noise streams (a
        non-negative int).
    default_deadline:
        Patience given to ``submit_task`` calls that omit ``deadline``.
    record_assignments:
        Keep per-assignment events for :meth:`DispatchSession.drain`
        (off for pure-stats replay runs).
    cache:
        A :class:`~repro.stream.cache.FlushSolverCache` to share across
        sessions (repeated runs of one scenario hit it even for private
        methods, whose per-flush noise keys recur run to run).  Omitted,
        ``options.cache`` decides whether the session owns a private
        one.  In-memory and process-local: it never serializes.
    """

    options: SolveOptions = SolveOptions()
    stream: StreamConfig | None = None
    seed: int | None = None
    default_deadline: float = 1.0
    record_assignments: bool = True
    cache: FlushSolverCache | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.options, SolveOptions):
            raise ConfigurationError(
                f"options must be a SolveOptions, got {type(self.options).__name__}"
            )
        if self.stream is not None and not isinstance(self.stream, StreamConfig):
            raise ConfigurationError(
                f"stream must be a StreamConfig or None, "
                f"got {type(self.stream).__name__}"
            )
        if self.seed is not None:
            validate_seed(self.seed)
        if self.cache is not None and not isinstance(self.cache, FlushSolverCache):
            raise ConfigurationError(
                f"cache must be a FlushSolverCache or None, "
                f"got {type(self.cache).__name__}"
            )
        validate_default_deadline(self.default_deadline)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SessionConfig":
        """Build from a plain dict (JSON), rejecting unknown keys.

        ``options`` may itself be a mapping (validated through
        :meth:`SolveOptions.from_mapping`).  The process-local fields
        (``stream``, ``cache``) have no JSON form and are refused.
        """
        data = reject_unknown_keys(cls, mapping, "session")
        for local in ("stream", "cache"):
            if data.get(local) is not None:
                raise ConfigurationError(
                    f"session key {local!r} is process-local and cannot be "
                    f"built from a mapping"
                )
        options = data.get("options")
        if isinstance(options, Mapping):
            data["options"] = SolveOptions.from_mapping(options)
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-able fields (``stream``/``cache`` stay process-local)."""
        return {
            "options": self.options.to_dict(),
            "seed": self.seed,
            "default_deadline": self.default_deadline,
            "record_assignments": self.record_assignments,
        }

    def replace(self, **changes: Any) -> "SessionConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


#: The pre-`SessionConfig` constructor keywords, kept as shims.
_LEGACY_SESSION_KEYS = frozenset(
    {"config", "seed", "default_deadline", "record_assignments", "cache"}
)


class DispatchSession:
    """A long-lived dispatch endpoint for one method.

    Parameters
    ----------
    method:
        A method name (``"PUCE"``), a spec string (``"PDCE(ppcf=off)"``),
        a :class:`~repro.api.methods.MethodSpec`, or a ready solver.
    session:
        The validated :class:`SessionConfig` of session-level knobs.
    options:
        Shorthand for ``SessionConfig(options=...)`` — the common case
        of a session that only sets dispatch knobs.  Mutually exclusive
        with ``session``.

    The historical keyword forms (``config=``, ``seed=``,
    ``default_deadline=``, ``record_assignments=``, ``cache=``) still
    work but emit :class:`DeprecationWarning`; they fold into a
    :class:`SessionConfig` with bit-identical semantics.
    """

    def __init__(
        self,
        method: "str | MethodSpec | Solver",
        session: SessionConfig | None = None,
        *,
        options: SolveOptions | None = None,
        **legacy: Any,
    ):
        if legacy:
            unknown = sorted(set(legacy) - _LEGACY_SESSION_KEYS)
            if unknown:
                raise ConfigurationError(
                    f"unknown DispatchSession argument(s) {unknown}; "
                    f"valid session knobs live on SessionConfig"
                )
            if session is not None:
                raise ConfigurationError(
                    "pass session-level knobs inside SessionConfig, not as "
                    "separate keywords alongside session="
                )
            warnings.warn(
                f"DispatchSession keyword(s) {sorted(legacy)} are deprecated; "
                f"fold them into a SessionConfig (bit-identical semantics)",
                DeprecationWarning,
                stacklevel=2,
            )
            session = SessionConfig(
                options=options if options is not None else SolveOptions(),
                stream=legacy.get("config"),
                seed=legacy.get("seed"),
                default_deadline=legacy.get("default_deadline", 1.0),
                record_assignments=legacy.get("record_assignments", True),
                cache=legacy.get("cache"),
            )
        elif session is None:
            session = SessionConfig(
                options=options if options is not None else SolveOptions()
            )
        elif not isinstance(session, SessionConfig):
            raise ConfigurationError(
                f"session must be a SessionConfig, got {type(session).__name__}"
            )
        elif options is not None:
            raise ConfigurationError(
                "pass either session= or options=, not both "
                "(SessionConfig already carries the options)"
            )
        self.session = session
        self.options = session.options
        self.default_deadline = session.default_deadline
        if isinstance(method, (str, MethodSpec)):
            solver = MethodSpec.parse(method).make(self.options)
        else:
            solver = method
        self._simulator = DispatchSimulator(
            solver,
            config=session.stream
            if session.stream is not None
            else self.options.stream_config(),
            seed=self.options.seed if session.seed is None else session.seed,
            record_assignments=session.record_assignments,
            cache=session.cache,
        )

    # -- introspection -----------------------------------------------------

    @property
    def method(self) -> str:
        """The configured method's reported (Table IX) name."""
        return self._simulator.solver.name

    @property
    def clock(self) -> float:
        """The time the session has advanced to."""
        return self._simulator.clock

    @property
    def stats(self) -> StreamStats:
        """Live streaming stats (final after :meth:`finish`)."""
        return self._simulator.stats

    @property
    def pending_tasks(self) -> int:
        """Tasks buffered and still waiting for a flush."""
        return len(self._simulator.batcher)

    @property
    def accountant(self):
        """The session's budget accountant (:mod:`repro.privacy.horizon`):
        global by default, windowed when the options set a window."""
        return self._simulator.tracker.accountant

    def budget_spend(self) -> float:
        """The spend that currently counts against the budget cap.

        Under the global accountant this is the lifetime total (equal to
        ``stats.total_privacy_spend`` — spend only moves at flushes);
        under a window accountant it is the fleet's in-window spend at
        the session clock, which *falls* as releases age out.  This is
        the number the service's per-tenant admission sheds against.
        """
        accountant = self.accountant
        if accountant.windowed:
            return accountant.total_in_window(max(self.clock, accountant.now))
        return accountant.total_spend()

    def budget_status(self, worker_id: int | None = None) -> BudgetReply:
        """One worker's (or the whole tenant's) live budget reading."""
        reply = self.apply(BudgetStatus(worker_id=worker_id))
        assert isinstance(reply, BudgetReply)
        return reply

    # -- intake ------------------------------------------------------------

    def submit(self, event: StreamEvent) -> None:
        """Feed one raw arrival event (the workload-replay primitive)."""
        self._simulator.push_event(event)

    def apply(
        self, record: WireRecord
    ) -> "None | tuple[Assignment, ...] | StreamStats | BudgetReply":
        """Apply one typed wire request; the service's single entry point.

        Returns the request's domain outcome: ``None`` for submits and
        advances, the drained :class:`~repro.stream.events.Assignment`
        events for :class:`~repro.api.wire.Drain`, the final
        :class:`~repro.stream.metrics.StreamStats` for
        :class:`~repro.api.wire.Finish`, a
        :class:`~repro.api.wire.BudgetReply` for
        :class:`~repro.api.wire.BudgetStatus`.  ``submit_task`` /
        ``submit_worker`` route through here too, so wire-driven and
        direct sessions share one request path.
        """
        if isinstance(record, SubmitTask):
            task = record.to_task()
            release = task.release_time if record.at is None else record.at
            self.submit(
                TaskArrival(
                    time=release,
                    task=task,
                    deadline=release + self.default_deadline
                    if record.deadline is None
                    else record.deadline,
                )
            )
            return None
        if isinstance(record, SubmitWorker):
            self.submit(
                WorkerArrival(
                    time=record.at,
                    worker=record.to_worker(),
                    budget_capacity=record.budget_capacity,
                )
            )
            return None
        if isinstance(record, Advance):
            self.advance(record.to_time)
            return None
        if isinstance(record, Drain):
            return self.drain()
        if isinstance(record, BudgetStatus):
            return self._budget_reply(record)
        if isinstance(record, Finish):
            return self.finish()
        raise ConfigurationError(
            f"cannot apply wire record {type(record).__name__} to a session"
        )

    def _budget_reply(self, record: BudgetStatus) -> BudgetReply:
        """The live accountant reading behind a ``BudgetStatus`` request.

        Windowed sessions answer at ``max(clock, last flush time)`` — the
        clock may have advanced past the last flush, and releases that
        aged out in between must not count.  Tenant-level ``remaining``
        is ``None`` here (the session knows no tenant cap); the service
        overlays its ``tenant_budget`` before replying.
        """
        accountant = self.accountant
        windowed = accountant.windowed
        window = accountant.policy.window_seconds if windowed else None
        when = max(self.clock, accountant.now) if windowed else None
        if record.worker_id is not None:
            remaining = accountant.remaining(record.worker_id, when)
            return BudgetReply(
                spend=accountant.spend_in_window(record.worker_id, when),
                lifetime_spend=accountant.lifetime_spend(record.worker_id),
                remaining=None if math.isinf(remaining) else remaining,
                window_seconds=window,
                worker_id=record.worker_id,
            )
        return BudgetReply(
            spend=(
                accountant.total_in_window(when)
                if windowed
                else accountant.total_spend()
            ),
            lifetime_spend=accountant.total_spend(),
            remaining=None,
            window_seconds=window,
        )

    def submit_task(
        self,
        task: Task,
        *,
        at: float | None = None,
        deadline: float | None = None,
    ) -> None:
        """Release ``task`` at ``at`` (default: its ``release_time``).

        ``deadline`` is absolute; omitted it defaults to the release time
        plus the session's ``default_deadline``.
        """
        self.apply(SubmitTask.from_task(task, at=at, deadline=deadline))

    def submit_worker(
        self,
        worker: Worker,
        *,
        at: float = 0.0,
        budget: float = math.inf,
    ) -> None:
        """Put ``worker`` on duty at ``at`` with a shift budget capacity."""
        self.apply(SubmitWorker.from_worker(worker, at=at, budget=budget))

    # -- driving -----------------------------------------------------------

    def advance(self, to_time: float) -> None:
        """Move the clock to ``to_time``: flushes fire, workers rejoin,
        overdue tasks expire — exactly as the replay loop would."""
        self._simulator.advance(to_time)

    def drain(self) -> tuple[Assignment, ...]:
        """Assignments decided since the last drain, in decision order.

        Drained events are released — a long-lived session that drains
        regularly holds only the undrained backlog, never the full
        history.
        """
        log = self._simulator.assignment_log
        events = tuple(log)
        log.clear()
        return events

    def run(self, events: Iterable[StreamEvent]) -> StreamStats:
        """Replay a whole timeline: the workload path as a thin loop."""
        for event in events:
            self.submit(event)
        return self.finish()

    def finish(self) -> StreamStats:
        """Process everything still queued and close the session."""
        self._simulator.advance(math.inf)
        return self._simulator.finalize()

    def close(self) -> None:
        """End the session without finalising stats.

        A session pools nothing, so this releases nothing; it keeps the
        context-manager protocol and the service's tenant lifecycle.
        """

    def __enter__(self) -> "DispatchSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
