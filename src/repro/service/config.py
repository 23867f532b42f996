"""`ServiceConfig` — the multi-tenant dispatch service's knobs.

Validated once on construction (the same single-validation-path idiom as
:class:`~repro.api.options.SolveOptions`); every knob fails with a typed
:class:`~repro.errors.ConfigurationError` wherever it enters — the
constructor, :meth:`ServiceConfig.from_mapping`, or the ``serve`` CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.options import SolveOptions, check_field_types, reject_unknown_keys
from repro.errors import ConfigurationError

__all__ = ["ServiceConfig"]

#: ``(fields, kind, None allowed)`` for every numeric knob, checked
#: before the range checks (see :func:`~repro.api.options.check_field_types`).
_FIELD_TYPES = (
    (("max_sessions", "queue_limit", "cache_entries"), "int", False),
    (("journal_fsync_every", "journal_checkpoint_every"), "int", False),
    (("cache_bytes",), "int", True),
    (("backpressure_ratio", "tenant_budget"), "real", True),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Admission, backpressure, cache and accounting knobs of the service.

    Parameters
    ----------
    max_sessions:
        Open sessions the service will hold at once; an
        :class:`~repro.api.wire.OpenSession` past the cap is shed.
    queue_limit:
        Inbound-queue depth per tenant session.  A ``SubmitTask`` that
        would overflow it is shed; control requests (advance, drain,
        finish) instead wait for room — they must never be dropped, or
        the tenant could not wind its session down.
    backpressure_ratio:
        Shed ``SubmitTask`` requests while a tenant's observed flush
        solve time (EWMA over its non-cached flushes) exceeds this
        multiple of its ``target_flush_seconds`` — the same adaptive
        target the PR 6/7 batching controller steers toward.  ``None``
        disables backpressure shedding.
    tenant_budget:
        Per-tenant privacy-spend cap: once a session's charged spend
        reaches it, further ``SubmitTask`` requests are shed (workers on
        that session stop accruing spend for new work).  The charged
        spend is the session accountant's reading
        (:meth:`~repro.api.session.DispatchSession.budget_spend`):
        lifetime total under the default global accountant, *in-window*
        total when the session's options set ``window_seconds`` — a
        windowed tenant shed for budget is admitted again once its
        releases age out of the window.  ``None`` disables the cap.
    cache_entries, cache_bytes:
        Bounds of the process-wide shared flush-fingerprint cache
        (:class:`~repro.stream.cache.FlushSolverCache`): entry count and
        estimated resident bytes (``None`` = no byte bound).  The cache
        lives in memory only.
    journal_dir:
        Directory of per-tenant crash-safe journals
        (:class:`~repro.service.journal.TenantJournal`): every accepted
        request is written ahead of being applied, and
        :meth:`~repro.service.DispatchService.recover` rebuilds every
        tenant session bit-identically after a crash by replaying it.
        ``None`` (the default) disables journaling.
    journal_fsync_every:
        Fsync the journal every N appends.  1 (the default) makes every
        acknowledged request durable before its reply; larger values
        batch syncs and risk at most the last ``N - 1`` acknowledged
        entries on a crash.
    journal_checkpoint_every:
        Fold the write-ahead log into the checkpoint file after this
        many appended entries, bounding the loose frames a restart
        scans.
    default_options:
        :class:`~repro.api.options.SolveOptions` applied to sessions
        whose :class:`~repro.api.wire.OpenSession` carries no options.
    """

    max_sessions: int = 10_000
    queue_limit: int = 64
    backpressure_ratio: float | None = 4.0
    tenant_budget: float | None = None
    cache_entries: int = 1024
    cache_bytes: int | None = 256 * 2**20
    journal_dir: str | None = None
    journal_fsync_every: int = 1
    journal_checkpoint_every: int = 256
    default_options: SolveOptions = SolveOptions()

    def __post_init__(self) -> None:
        check_field_types(self, _FIELD_TYPES)
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.backpressure_ratio is not None and not self.backpressure_ratio > 0:
            raise ConfigurationError(
                f"backpressure_ratio must be positive or None, "
                f"got {self.backpressure_ratio}"
            )
        if self.tenant_budget is not None and not self.tenant_budget > 0:
            raise ConfigurationError(
                f"tenant_budget must be positive or None, got {self.tenant_budget}"
            )
        if self.cache_entries < 1:
            raise ConfigurationError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )
        if self.cache_bytes is not None and self.cache_bytes < 1:
            raise ConfigurationError(
                f"cache_bytes must be >= 1 or None, got {self.cache_bytes}"
            )
        if self.journal_fsync_every < 1:
            raise ConfigurationError(
                f"journal_fsync_every must be >= 1, "
                f"got {self.journal_fsync_every}"
            )
        if self.journal_checkpoint_every < 1:
            raise ConfigurationError(
                f"journal_checkpoint_every must be >= 1, "
                f"got {self.journal_checkpoint_every}"
            )
        if not isinstance(self.default_options, SolveOptions):
            raise ConfigurationError(
                f"default_options must be a SolveOptions, "
                f"got {type(self.default_options).__name__}"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ServiceConfig":
        """Build from a plain dict (JSON), rejecting unknown keys."""
        data = reject_unknown_keys(cls, mapping, "service")
        options = data.get("default_options")
        if isinstance(options, Mapping):
            data["default_options"] = SolveOptions.from_mapping(options)
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that :meth:`from_mapping` round-trips."""
        payload = dataclasses.asdict(self)
        payload["default_options"] = self.default_options.to_dict()
        return payload

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
