"""The multi-tenant dispatch service.

:class:`DispatchService` multiplexes many concurrent tenant
:class:`~repro.api.session.DispatchSession`s on one asyncio loop — one
bounded inbound queue per tenant carrying the typed wire records of
:mod:`repro.api.wire`, a process-wide shared in-memory flush-fingerprint
cache with LRU/byte eviction, per-tenant privacy-budget accounting
surfaced as service metrics, and admission shedding driven by the
observed-vs-target flush-time signal.  With
``ServiceConfig.journal_dir`` set, accepted requests are written ahead
to per-tenant crash-safe journals (:class:`~repro.service.journal.
TenantJournal`) and :meth:`DispatchService.recover` rebuilds every
tenant session bit-identically after a kill.

Quickstart::

    from repro.service import DispatchService, ServiceClient, ServiceConfig

    service = DispatchService(ServiceConfig(queue_limit=32))
    client = ServiceClient(service, "tenant-0")
    await client.open("PUCE", options={"cache": True})
    await client.submit_worker(worker)
    await client.submit_task(task)
    await client.advance(1.0)
    events = await client.drain()
    final = await client.finish()
    await service.close()

Or from a shell: ``python -m repro.experiments serve`` reads JSONL
envelopes ``{"tenant": ..., "request": ...}`` on stdin and writes one
reply envelope per line.
"""

from repro.errors import JournalError, ServiceError
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.journal import TenantJournal, journal_tenants
from repro.service.server import DispatchService, serve_jsonl

__all__ = [
    "DispatchService",
    "JournalError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TenantJournal",
    "journal_tenants",
    "serve_jsonl",
]
