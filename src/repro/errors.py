"""Exception hierarchy for :mod:`repro`.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can guard any library call with a single ``except ReproError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An experiment or solver configuration value is invalid."""


class InvalidInstanceError(ReproError):
    """A problem instance violates a structural invariant.

    Examples: a task referenced by a budget vector does not exist, a worker
    has a negative service radius, or a distance matrix has the wrong shape.
    """


class FlushBudgetError(ConfigurationError):
    """A micro-batch flush violated a worker's shift-budget accounting.

    Raised by the streaming layer when the single-home flush-cap check of
    :meth:`repro.stream.batcher.MicroBatcher.build_instance` finds a
    worst-case flush spend above a worker's remaining shift budget, or
    when :meth:`repro.stream.batcher.WorkerBudgetTracker.charge` audits a
    ledger that pushed a worker past capacity.  Carries the offending
    worker and the numbers so a failing flush surfaces a diagnosable
    failure instead of a bare assertion.

    Subclasses :class:`ConfigurationError` so pre-existing guards keep
    catching it.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_id: object = None,
        spend: float | None = None,
        remaining: float | None = None,
    ):
        super().__init__(message)
        self.worker_id = worker_id
        self.spend = spend
        self.remaining = remaining


class BudgetExhaustedError(ReproError):
    """A worker attempted to spend a privacy budget element that is gone.

    Raised by :class:`repro.core.budgets.BudgetState` when a proposal would
    consume more than the configured ``Z`` budget elements for a pair.
    """


class MatchingError(ReproError):
    """A matching routine produced or received an inconsistent matching."""


class ConvergenceError(ReproError):
    """An iterative solver exceeded its round limit without converging."""


class DatasetError(ReproError):
    """A workload generator or loader received invalid parameters or data."""


class JournalError(ReproError):
    """A tenant journal is unusable (unwritable directory, bad header).

    Torn or corrupt *tails* are not errors — the journal self-truncates
    at the first damaged line on open — but a journal whose first entry
    is not a session open, or that cannot be written at all, raises.
    """


class ServiceError(ReproError):
    """A dispatch-service request failed on the server side.

    Raised by :class:`repro.service.ServiceClient` when a request comes
    back as an :class:`~repro.api.wire.ErrorReply`.  ``code`` is the
    server-side exception class name from the reply.
    """

    def __init__(self, message: str, *, code: str = ""):
        super().__init__(message)
        self.code = code
