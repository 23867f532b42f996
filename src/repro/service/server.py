"""`DispatchService` — many tenant sessions multiplexed on one process.

The first layer of the system that is a *server* rather than a
simulator.  Each tenant owns one :class:`~repro.api.session.
DispatchSession` behind an inbound :class:`asyncio.Queue`; a per-tenant
consumer task applies typed wire requests (:mod:`repro.api.wire`) to the
session strictly in order, so one tenant's requests never interleave —
the session's ordering contract — while thousands of tenants interleave
freely at the queue boundary.

What the service adds on top of the sessions it hosts:

* a **process-wide shared flush cache**
  (:class:`~repro.stream.cache.FlushSolverCache`): in memory, LRU +
  byte-bounded;
* **admission control**: ``SubmitTask`` requests are shed (a
  :class:`~repro.api.wire.ShedReply`, never an exception) when the
  tenant's queue is full, its privacy budget is exhausted, or its
  observed flush service time exceeds the adaptive target
  (``backpressure_ratio`` × ``target_flush_seconds``, fed by the same
  per-flush ``solver_seconds`` signal the PR 6/7 controllers consume).
  Control requests (advance/drain/finish) are never shed — they wait;
* **per-tenant accounting as metrics**: request/shed/assignment
  counters, per-tenant privacy spend and latency gauges, an aggregate
  flush-seconds histogram — all on a
  :class:`~repro.obs.metrics.MetricsRegistry` rendering Prometheus text;
* **crash safety** (``ServiceConfig.journal_dir``): accepted requests
  are journaled ahead of being applied
  (:class:`~repro.service.journal.TenantJournal`), request sequence
  numbers make client retries idempotent, and :meth:`DispatchService.
  recover` rebuilds every tenant session bit-identically after a kill
  by replaying its journal through the one request path.

Everything runs on one event loop; session work executes synchronously
inside the consumer tasks (the solvers are CPU-bound numpy — a thread
pool would add GIL contention, not parallelism).  Fairness comes from
the one-request-per-loop-step queue discipline.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.api.options import SolveOptions
from repro.api.session import DispatchSession, SessionConfig
from repro.api.wire import (
    AckReply,
    AssignmentRecord,
    AssignmentsReply,
    BudgetReply,
    BudgetStatus,
    Drain,
    ErrorReply,
    Finish,
    FinishedReply,
    OpenSession,
    ShedReply,
    SubmitTask,
    WireRecord,
    decode_record,
    encode_record,
)
from repro.errors import ConfigurationError, JournalError, ReproError
from repro.faults import active_fault_plan
from repro.obs.indicators import Ewma
from repro.obs.metrics import MetricsRegistry
from repro.service.config import ServiceConfig
from repro.service.journal import TenantJournal, journal_tenants
from repro.stream.cache import FlushSolverCache

__all__ = ["DispatchService", "serve_jsonl"]


@dataclass
class _Tenant:
    """One tenant session and its service-side bookkeeping."""

    name: str
    session: DispatchSession
    queue: asyncio.Queue
    target_flush_seconds: float
    #: EWMA of non-cached flush solve times — the backpressure signal.
    flush_signal: Ewma = field(default_factory=lambda: Ewma(alpha=0.3, warmup=3))
    #: Flush records already folded into the signal/metrics.
    flushes_seen: int = 0
    #: Crash-safe write-ahead journal (``None`` = journaling off).
    journal: TenantJournal | None = None
    #: Highest request sequence number accepted — the idempotency
    #: high-water mark; a retry at or below it is a duplicate no-op.
    last_seq: int = 0
    consumer: asyncio.Task | None = None
    closed: bool = False


class DispatchService:
    """A long-lived asyncio dispatch server for many tenant sessions.

    Use :meth:`open_session` / :meth:`submit` from coroutines on one
    event loop (the in-process :class:`~repro.service.ServiceClient`
    wraps them per tenant), and :meth:`close` to wind the service down —
    remaining consumers stop.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        cache: FlushSolverCache | None = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else FlushSolverCache(
                max_entries=self.config.cache_entries,
                max_bytes=self.config.cache_bytes,
            )
        )
        self._tenants: dict[str, _Tenant] = {}
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def open_sessions(self) -> int:
        """Tenant sessions currently open (not yet finished)."""
        return sum(1 for tenant in self._tenants.values() if not tenant.closed)

    def tenant_stats(self, tenant: str):
        """The live :class:`~repro.stream.metrics.StreamStats` of one tenant."""
        state = self._tenants.get(tenant)
        if state is None:
            raise ConfigurationError(f"tenant {tenant!r} has no session")
        return state.session.stats

    def render_metrics(self) -> str:
        """The service metrics as Prometheus text exposition."""
        self.metrics.gauge(
            "service_open_sessions", "tenant sessions currently open"
        ).set(self.open_sessions)
        self.metrics.gauge(
            "service_cache_entries", "entries in the shared flush cache"
        ).set(len(self.cache))
        self.metrics.gauge(
            "service_cache_bytes", "estimated bytes held by the shared flush cache"
        ).set(self.cache.total_bytes)
        self.metrics.gauge(
            "service_cache_evictions", "entries evicted from the shared flush cache"
        ).set(self.cache.evictions)
        return self.metrics.render_prometheus()

    # -- session lifecycle -------------------------------------------------

    async def open_session(
        self,
        tenant: str,
        record: OpenSession,
        *,
        _replay_journal: TenantJournal | None = None,
    ) -> WireRecord:
        """Open one tenant session; returns Ack, Shed, or Error.

        With journaling on, the ``OpenSession`` record is the journal's
        sequence-1 entry — the first thing :meth:`recover` replays.  A
        fresh open over stale journal files from an earlier incarnation
        truncates them: the client chose to start over rather than
        recover.  (``_replay_journal`` is :meth:`recover`'s private way
        to hand the already-read journal in without re-journaling.)
        """
        if self._closed:
            return ErrorReply(code="ConfigurationError", message="service is closed")
        existing = self._tenants.get(tenant)
        if existing is not None and not existing.closed:
            return ErrorReply(
                code="ConfigurationError",
                message=f"tenant {tenant!r} already has an open session",
            )
        if self.open_sessions >= self.config.max_sessions:
            self._count_shed(tenant, "max_sessions")
            return ShedReply(reason="max_sessions")
        try:
            options = (
                SolveOptions.from_mapping(record.options)
                if record.options is not None
                else self.config.default_options
            )
            session = DispatchSession(
                record.method,
                SessionConfig(
                    options=options,
                    default_deadline=record.default_deadline,
                    cache=self.cache,
                ),
            )
        except ReproError as exc:
            return ErrorReply(code=type(exc).__name__, message=str(exc))
        except Exception as exc:  # hostile wire values must not kill the loop
            return ErrorReply(code=type(exc).__name__, message=str(exc))
        journal = _replay_journal
        last_seq = journal.last_seq if journal is not None else 0
        if journal is None and self.config.journal_dir is not None:
            try:
                journal = TenantJournal(
                    self.config.journal_dir,
                    tenant,
                    fsync_every=self.config.journal_fsync_every,
                )
                journal.delete()  # stale files from an earlier incarnation
                journal.append(1, encode_record(record))
                last_seq = 1
            except (JournalError, OSError) as exc:
                session.close()
                return ErrorReply(code=type(exc).__name__, message=str(exc))
        state = _Tenant(
            name=tenant,
            session=session,
            queue=asyncio.Queue(maxsize=self.config.queue_limit),
            target_flush_seconds=options.target_flush_seconds,
            journal=journal,
            last_seq=last_seq,
        )
        state.consumer = asyncio.create_task(self._consume(state))
        self._tenants[tenant] = state
        self.metrics.counter(
            "service_sessions_opened_total", "tenant sessions opened"
        ).inc()
        return AckReply()

    async def submit(
        self, tenant: str, record: WireRecord, *, seq: int | None = None
    ) -> WireRecord:
        """Route one wire request to a tenant session and await its reply.

        ``SubmitTask`` requests pass admission control first and may come
        back as :class:`~repro.api.wire.ShedReply`; control requests
        (advance/drain/finish) always queue, waiting for room if needed.

        ``seq`` is the client's per-tenant request sequence number for
        at-least-once retries: a request at or below the tenant's
        accepted high-water mark is a duplicate and comes back as a
        plain :class:`~repro.api.wire.AckReply` without being applied —
        the retry of a journaled-but-unacknowledged request after a
        crash is a no-op.  Omitted, the service numbers the request
        itself (journaling still dedups on replay).
        """
        if seq is not None and (not isinstance(seq, int) or seq < 1):
            return ErrorReply(
                code="ConfigurationError",
                message=f"seq must be a positive integer, got {seq!r}",
            )
        state = self._tenants.get(tenant)
        if (
            seq is not None
            and state is not None
            and not state.closed
            and seq <= state.last_seq
        ):
            self.metrics.counter(
                "service_duplicates_total",
                "retried requests suppressed by sequence number",
                tenant=tenant,
            ).inc()
            return AckReply()
        if isinstance(record, OpenSession):
            return await self.open_session(tenant, record)
        if state is None or state.closed:
            return ErrorReply(
                code="ConfigurationError",
                message=f"tenant {tenant!r} has no open session",
            )
        if isinstance(record, SubmitTask):
            reason = self._admission(state)
            if reason is not None:
                self._count_shed(tenant, reason)
                return ShedReply(reason=reason)
        if seq is None:
            seq = state.last_seq + 1
        state.last_seq = max(state.last_seq, seq)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await state.queue.put((record, seq, future))
        return await future

    async def close(self) -> None:
        """Stop every consumer, close open sessions, checkpoint journals."""
        self._closed = True
        for state in list(self._tenants.values()):
            if state.consumer is not None and not state.consumer.done():
                await state.queue.join()
                state.consumer.cancel()
                try:
                    await state.consumer
                except asyncio.CancelledError:
                    pass
            if not state.closed:
                state.session.close()
                state.closed = True
                if state.journal is not None:
                    # Compact on clean shutdown; the files stay so the
                    # next incarnation can recover() the session.
                    state.journal.checkpoint()
                    state.journal.close()

    # -- crash recovery ----------------------------------------------------

    async def recover(self) -> list[str]:
        """Rebuild tenant sessions from the journals in ``journal_dir``.

        For every tenant with journal files, replays the journaled
        record sequence through the session's one request path
        (:meth:`~repro.api.session.DispatchSession.apply`) — sessions
        are deterministic functions of their accepted records, so the
        rebuilt session is bit-identical to the one the crash took
        (the wire-equivalence property).  Tenants whose journal ends in
        a ``Finish`` (the crash hit between the final apply and the
        journal cleanup) are finished again and their journals removed.
        Returns the recovered tenant names.

        Call this once, after construction and before serving; a tenant
        that already has a live session is skipped.
        """
        directory = self.config.journal_dir
        if directory is None:
            return []
        recovered: list[str] = []
        for tenant in journal_tenants(directory):
            existing = self._tenants.get(tenant)
            if existing is not None and not existing.closed:
                continue
            journal = TenantJournal(
                directory, tenant, fsync_every=self.config.journal_fsync_every
            )
            entries = journal.entries()
            if not entries:
                journal.delete()
                continue
            first = decode_record(entries[0][1])
            if not isinstance(first, OpenSession):
                journal.close()
                raise JournalError(
                    f"tenant {tenant!r} journal does not start with an "
                    f"open_session record"
                )
            reply = await self.open_session(
                tenant, first, _replay_journal=journal
            )
            if not isinstance(reply, AckReply):
                journal.close()
                raise JournalError(
                    f"cannot reopen tenant {tenant!r} from its journal: "
                    f"{encode_record(reply)}"
                )
            state = self._tenants[tenant]
            finished = False
            for _seq, payload in entries[1:]:
                replayed = decode_record(payload)
                try:
                    state.session.apply(replayed)
                except Exception:
                    # The live consumer answered this request with an
                    # ErrorReply and carried on; replay must reproduce
                    # the same deterministic (non-)mutation and move on.
                    pass
                if isinstance(replayed, Finish):
                    finished = True
            # Replayed flushes are history, not live signal — keep them
            # out of the backpressure EWMA and the service metrics.
            state.flushes_seen = len(state.session.stats.flushes)
            if finished:
                state.closed = True
                state.session.close()
                if state.consumer is not None:
                    state.consumer.cancel()
                    try:
                        await state.consumer
                    except asyncio.CancelledError:
                        pass
                journal.delete()
            recovered.append(tenant)
            self.metrics.counter(
                "service_sessions_recovered_total",
                "tenant sessions rebuilt from journals",
            ).inc()
        return recovered

    # -- admission control -------------------------------------------------

    def _admission(self, state: _Tenant) -> str | None:
        """Why a ``SubmitTask`` must be shed right now (``None`` = admit).

        The budget gate prices against :meth:`DispatchSession.
        budget_spend` — lifetime spend under the global accountant
        (exactly the old ``total_privacy_spend`` check), *in-window*
        spend under a sliding-window accountant: a tenant shed for
        budget is admitted again once its releases age out.
        """
        budget = self.config.tenant_budget
        if budget is not None and state.session.budget_spend() >= budget:
            return "budget"
        ratio = self.config.backpressure_ratio
        if (
            ratio is not None
            and state.flush_signal.ready
            and state.flush_signal.value > ratio * state.target_flush_seconds
        ):
            return "backpressure"
        if state.queue.full():
            return "queue_full"
        return None

    def _overlay_tenant_budget(self, reply: BudgetReply) -> BudgetReply:
        """Fold ``config.tenant_budget`` into a tenant-level budget reply."""
        budget = self.config.tenant_budget
        if budget is None:
            return reply
        remaining = max(0.0, budget - reply.spend)
        if reply.remaining is not None:
            remaining = min(remaining, reply.remaining)
        return BudgetReply(
            spend=reply.spend,
            lifetime_spend=reply.lifetime_spend,
            remaining=remaining,
            window_seconds=reply.window_seconds,
            worker_id=reply.worker_id,
        )

    def _count_shed(self, tenant: str, reason: str) -> None:
        self.metrics.counter(
            "service_shed_total",
            "requests refused at admission",
            tenant=tenant,
            reason=reason,
        ).inc()

    # -- the per-tenant consumer -------------------------------------------

    async def _consume(self, state: _Tenant) -> None:
        """Apply queued requests to the tenant's session, strictly in order.

        With journaling on, each request is journaled *before* it is
        applied (write-ahead): a crash after the journal write replays
        the request on recovery, and the client's retry of its
        unacknowledged request dedups by sequence number.  A request
        the journal cannot make durable is refused with an error — the
        session must never run ahead of its own recovery log.
        """
        while True:
            record, seq, future = await state.queue.get()
            plan = active_fault_plan()
            if plan is not None and plan.should_fire(
                "queue_stall", key=(seq,), site="service.consume"
            ):
                # A stalled consumer: yield the loop a few extra times
                # before applying.  Order within the tenant is
                # preserved, so results are unchanged — only latency.
                self.metrics.counter(
                    "service_faults_total",
                    "injected faults observed",
                    kind="queue_stall",
                ).inc()
                for _ in range(8):
                    await asyncio.sleep(0)
            if state.journal is not None:
                try:
                    state.journal.append(seq, encode_record(record))
                    checkpoint_every = self.config.journal_checkpoint_every
                    if state.journal.since_checkpoint >= checkpoint_every:
                        state.journal.checkpoint()
                except (JournalError, OSError) as exc:
                    reply = ErrorReply(
                        code=type(exc).__name__, message=str(exc)
                    )
                    if not future.done():
                        future.set_result(reply)
                    state.queue.task_done()
                    continue
            try:
                outcome = state.session.apply(record)
                if isinstance(record, Finish):
                    # The finishing flush lands after the last explicit
                    # Drain a tenant could send; ship its decisions home.
                    leftovers = tuple(
                        AssignmentRecord.from_assignment(event)
                        for event in state.session.drain()
                    )
                    reply: WireRecord = FinishedReply.from_stats(
                        outcome, leftovers
                    )
                elif isinstance(record, BudgetStatus) and record.worker_id is None:
                    # Tenant-level readings get the service's admission
                    # cap folded in — the reply's `remaining` is what
                    # admission actually sheds against.
                    reply = self._overlay_tenant_budget(outcome)
                else:
                    reply = _reply_for(record, outcome)
            except ReproError as exc:
                reply = ErrorReply(code=type(exc).__name__, message=str(exc))
            except Exception as exc:  # solver bugs must not kill the loop
                reply = ErrorReply(code=type(exc).__name__, message=str(exc))
            self._observe(state, record, reply)
            if not future.done():
                future.set_result(reply)
            state.queue.task_done()
            if isinstance(record, Finish) and not isinstance(reply, ErrorReply):
                state.closed = True
                state.session.close()
                if state.journal is not None:
                    # The session reached its natural end: there is
                    # nothing left to recover, so the journal goes too.
                    state.journal.delete()
                return

    def _observe(
        self, state: _Tenant, record: WireRecord, reply: WireRecord
    ) -> None:
        """Fold one applied request into metrics and the flush signal."""
        self.metrics.counter(
            "service_requests_total",
            "wire requests applied",
            tenant=state.name,
            kind=record.kind,
        ).inc()
        if isinstance(reply, AssignmentsReply) and reply.assignments:
            self.metrics.counter(
                "service_assignments_total",
                "assignments delivered to tenants",
                tenant=state.name,
            ).inc(len(reply.assignments))
        stats = state.session.stats
        flushes = stats.flushes
        if len(flushes) > state.flushes_seen:
            histogram = self.metrics.histogram(
                "service_flush_seconds", "per-flush wall clock across all tenants"
            )
            for flush in flushes[state.flushes_seen :]:
                histogram.observe(flush.flush_seconds or flush.solver_seconds)
                if not flush.cache_hit:
                    state.flush_signal.update(flush.solver_seconds)
            state.flushes_seen = len(flushes)
            self.metrics.gauge(
                "service_tenant_privacy_spend",
                "cumulative published privacy budget",
                tenant=state.name,
            ).set(stats.total_privacy_spend)
            if stats.window_timeline:
                self.metrics.gauge(
                    "service_tenant_window_spend",
                    "fleet in-window privacy spend",
                    tenant=state.name,
                ).set(stats.current_window_spend)
            if stats.latencies:
                self.metrics.gauge(
                    "service_tenant_latency_p95",
                    "rolling p95 assignment latency",
                    tenant=state.name,
                ).set(stats.online.latency_p95)


def _reply_for(record: WireRecord, outcome: Any) -> WireRecord:
    """The wire reply matching one applied request's domain outcome.

    ``Finish`` is handled inline by the consumer (its reply needs the
    post-finish drain), as are tenant-level ``BudgetStatus`` readings
    (their reply needs the service's tenant cap); everything else maps
    here.
    """
    if isinstance(record, Drain):
        return AssignmentsReply(
            assignments=tuple(
                AssignmentRecord.from_assignment(event) for event in outcome
            )
        )
    if isinstance(record, BudgetStatus):
        return outcome
    return AckReply()


async def serve_jsonl(
    service: DispatchService,
    lines: Iterable[str],
    write: Callable[[str], None],
) -> int:
    """Drive a service from JSONL envelopes; returns requests served.

    Each input line is ``{"tenant": <str>, "request": <wire dict>}``
    with an optional ``"seq"`` retry sequence number; each output line
    is ``{"tenant": <str>, "reply": <wire dict>}``.  Malformed lines
    come back as :class:`~repro.api.wire.ErrorReply` envelopes instead
    of killing the loop — a server must outlive its worst client.
    """
    served = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        tenant = None
        try:
            envelope = json.loads(line)
            tenant = envelope.get("tenant")
            if not isinstance(tenant, str):
                raise ConfigurationError(
                    f"envelope tenant must be a string, got {tenant!r}"
                )
            seq = envelope.get("seq")
            if seq is not None and (not isinstance(seq, int) or seq < 1):
                raise ConfigurationError(
                    f"envelope seq must be a positive integer, got {seq!r}"
                )
            record = decode_record(envelope["request"])
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            reply: WireRecord = ErrorReply(
                code=type(exc).__name__, message=str(exc)
            )
            write(json.dumps({"tenant": tenant, "reply": encode_record(reply)}))
            continue
        except ReproError as exc:
            reply = ErrorReply(code=type(exc).__name__, message=str(exc))
            write(json.dumps({"tenant": tenant, "reply": encode_record(reply)}))
            continue
        reply = await service.submit(tenant, record, seq=seq)
        write(json.dumps({"tenant": tenant, "reply": encode_record(reply)}))
        served += 1
    return served
