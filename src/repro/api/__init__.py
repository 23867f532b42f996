"""The unified dispatch API: one stable facade over every layer.

Four pieces (ICDE'23 reproduction grown into a dispatch service):

* :class:`~repro.api.options.SolveOptions` — every knob (seed, sweep,
  batching, method overrides) in one validated, frozen record,
  accepted by ``make_solver``, ``Solver.solve``, ``BatchRunner``,
  ``StreamRunner`` and the CLI;
* :class:`~repro.api.methods.MethodSpec` — parseable method identifiers
  (``"PUCE"``, ``"PDCE(ppcf=off)"``) naming configured variants
  uniformly across registry, CLI, benchmarks and reports;
* :class:`~repro.api.session.DispatchSession` — a long-lived stateful
  facade over the event-driven simulator: ``submit_task`` /
  ``submit_worker`` / ``advance(to_time)`` / ``drain()`` of typed
  :class:`~repro.stream.events.Assignment` events;
* :class:`~repro.api.scenario.ScenarioSpec` — declarative JSON scenarios
  (arrivals, spatial law, methods, options) with ``from_file`` /
  ``to_workload`` and the ``python -m repro.experiments scenario``
  subcommand;
* :mod:`repro.api.wire` — the versioned, JSON-round-trippable wire
  records (``SubmitTask``, ``Advance``, ``AssignmentsReply``, ...)
  spoken by :class:`~repro.api.session.DispatchSession.apply` and the
  multi-tenant :mod:`repro.service` frontend.

Layering rule: lower layers (core / stream / simulation) may import
:mod:`repro.api.options` — it depends only on :mod:`repro.errors`, and
this package initialiser is lazy (PEP 562), so nothing else is pulled
in.  Everything heavier lives behind attribute access.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "SolveOptions": "repro.api.options",
    "SWEEP_MODES": "repro.api.options",
    "PARALLEL_MODES": "repro.api.options",
    "MethodSpec": "repro.api.methods",
    "DispatchSession": "repro.api.session",
    "SessionConfig": "repro.api.session",
    "Assignment": "repro.stream.events",
    "ScenarioSpec": "repro.api.scenario",
    "run_scenario": "repro.api.scenario",
    "WIRE_VERSION": "repro.api.wire",
    "WireRecord": "repro.api.wire",
    "OpenSession": "repro.api.wire",
    "SubmitTask": "repro.api.wire",
    "SubmitWorker": "repro.api.wire",
    "Advance": "repro.api.wire",
    "Drain": "repro.api.wire",
    "Finish": "repro.api.wire",
    "BudgetStatus": "repro.api.wire",
    "AckReply": "repro.api.wire",
    "BudgetReply": "repro.api.wire",
    "AssignmentRecord": "repro.api.wire",
    "AssignmentsReply": "repro.api.wire",
    "FinishedReply": "repro.api.wire",
    "ErrorReply": "repro.api.wire",
    "ShedReply": "repro.api.wire",
    "encode_record": "repro.api.wire",
    "decode_record": "repro.api.wire",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # static importers see the real names
    from repro.api.methods import MethodSpec
    from repro.api.options import (
        PARALLEL_MODES,
        SWEEP_MODES,
        SolveOptions,
    )
    from repro.api.scenario import ScenarioSpec, run_scenario
    from repro.api.session import DispatchSession, SessionConfig
    from repro.api.wire import (
        WIRE_VERSION,
        AckReply,
        Advance,
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
        SubmitWorker,
        WireRecord,
        decode_record,
        encode_record,
    )
    from repro.stream.events import Assignment


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
