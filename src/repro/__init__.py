"""repro — Dynamic Private Task Assignment under Differential Privacy.

A from-scratch reproduction of Du et al., ICDE 2023 (arXiv:2302.09511):
spatial-crowdsourcing task assignment where workers publish only
Laplace-obfuscated distances and *dynamically* trade extra privacy budget
for better assignments.

Quickstart::

    from repro import NormalGenerator, PUCESolver

    gen = NormalGenerator(num_tasks=200, num_workers=400, seed=7)
    inst = gen.instance(task_value=4.5, worker_range=1.4)
    result = PUCESolver().solve(inst, seed=11)
    print(result.average_utility, result.matched_count)

Packages:

* :mod:`repro.core`       -- PPCF/PCF, effective distances, budgets,
  CEA, PUCE, PGT, PDCE and the Table IX baselines,
* :mod:`repro.privacy`    -- Laplace mechanism, LDP accounting, geo-I,
* :mod:`repro.spatial`    -- geometry and range queries,
* :mod:`repro.matching`   -- Hungarian / greedy matching,
* :mod:`repro.game`       -- potential games, best response, PoA/PoS,
* :mod:`repro.datasets`   -- workloads: uniform, normal, Chengdu-like,
* :mod:`repro.simulation` -- instances, untrusted server, batch runner,
* :mod:`repro.stream`     -- online dispatch: continuous-time arrivals
  (Poisson / rush-hour / bursty / trace-driven), deadlines and duty
  cycles, micro-batching with cross-flush budget carry, streaming runner,
* :mod:`repro.api`        -- the unified service facade: `SolveOptions`,
  `MethodSpec`, `DispatchSession`, `ScenarioSpec`,
* :mod:`repro.obs`        -- observability: flush span tracing, online
  windowed stream indicators, metrics registry + Prometheus/JSONL export,
* :mod:`repro.service`    -- the multi-tenant dispatch service: many
  concurrent sessions on one asyncio loop, typed wire records, a shared
  persistent flush cache, per-tenant budgets and admission shedding,
  crash-safe write-ahead tenant journals and recovery,
* :mod:`repro.faults`     -- deterministic fault injection: a seeded
  `FaultPlan` drives snapshot corruption, consumer stalls and worker
  departures,
* :mod:`repro.experiments`-- the per-figure reproduction harness and the
  ``stream`` / ``scenario`` / ``profile`` / ``serve`` CLIs.

Service quickstart (drive dispatch request-by-request)::

    from repro import DispatchSession, SolveOptions, Task, Worker, Point

    with DispatchSession("PUCE", options=SolveOptions(seed=7)) as session:
        session.submit_worker(Worker(id=0, location=Point(0, 0), radius=2.0))
        session.submit_task(Task(id=0, location=Point(1, 0), value=4.5), at=0.1)
        session.advance(to_time=0.5)
        for event in session.drain():
            print(event.task_id, "->", event.worker_id, event.latency)

Streaming quickstart (replay a materialised workload)::

    from repro import (
        NormalGenerator, PoissonProcess, StreamWorkload, StreamRunner,
    )

    workload = StreamWorkload(
        task_process=PoissonProcess(rate=40.0, horizon=3.0),
        worker_process=PoissonProcess(rate=15.0, horizon=3.0),
        spatial=NormalGenerator(num_tasks=200, num_workers=400, seed=3),
        initial_workers=60,
    )
    report = StreamRunner(["PUCE", "UCE"]).run_workload(workload, seed=7)
    print(report["PUCE"].latency_p95, report["PUCE"].expiry_rate)

Declarative scenarios (shareable experiment artifacts)::

    from repro import ScenarioSpec

    report = ScenarioSpec.from_file("examples/scenario_rush_hour.json").run()
"""

from repro.api import (
    WIRE_VERSION,
    AckReply,
    Advance,
    AssignmentRecord,
    AssignmentsReply,
    BudgetReply,
    BudgetStatus,
    DispatchSession,
    Drain,
    ErrorReply,
    Finish,
    FinishedReply,
    MethodSpec,
    OpenSession,
    ScenarioSpec,
    SessionConfig,
    ShedReply,
    SolveOptions,
    SubmitTask,
    SubmitWorker,
    decode_record,
    encode_record,
    run_scenario,
)
from repro.core import (
    NON_PRIVATE_COUNTERPART,
    AssignmentResult,
    BudgetSampler,
    BudgetVector,
    DCESolver,
    GreedySolver,
    GTSolver,
    LinearValue,
    OptimalSolver,
    PDCESolver,
    PGTSolver,
    PUCESolver,
    UCESolver,
    UtilityModel,
    available_methods,
    make_solver,
    pcf,
    ppcf,
)
from repro.datasets import (
    Batch,
    ChengduLikeGenerator,
    NormalGenerator,
    Task,
    UniformGenerator,
    Worker,
    WorkerGroupCycle,
    split_batches,
)
from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    ConvergenceError,
    DatasetError,
    FlushBudgetError,
    InjectedFault,
    InvalidInstanceError,
    JournalError,
    MatchingError,
    ReproError,
    ServiceError,
)
from repro.faults import (
    FAULT_KINDS,
    MASKED_FAULT_KINDS,
    FaultPlan,
    fault_injection,
    set_fault_plan,
    smoke_plan,
)
from repro.datasets import load_tasks, load_workers, save_tasks, save_workers
from repro.matching import Matching
from repro.obs import (
    Ewma,
    MetricsRegistry,
    NullTracer,
    RollingQuantile,
    Span,
    Stopwatch,
    Tracer,
    WarmupZScore,
    format_profile,
    write_metrics_prometheus,
    write_trace_jsonl,
)
from repro.privacy import (
    HorizonPolicy,
    PlanarLaplaceMechanism,
    PrivacyLedger,
    TrilaterationAttack,
    WindowAccountant,
    attack_assignment,
)
from repro.service import (
    DispatchService,
    ServiceClient,
    ServiceConfig,
    TenantJournal,
    journal_tenants,
)
from repro.simulation import BatchRunner, ProblemInstance, RunReport, Server
from repro.spatial import Point
from repro.stream import (
    AdaptiveBatchController,
    Assignment,
    BurstyProcess,
    DispatchSimulator,
    FlushSolverCache,
    MicroBatcher,
    PoissonProcess,
    RushHourProcess,
    ShardSeedSchedule,
    StreamConfig,
    StreamReport,
    StreamRunner,
    StreamStats,
    StreamWorkload,
    TaskArrival,
    TraceProcess,
    WorkerArrival,
    WorkerBudgetTracker,
    WorkerDeparture,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # workload
    "Task",
    "Worker",
    "Batch",
    "split_batches",
    "WorkerGroupCycle",
    "Point",
    "UniformGenerator",
    "NormalGenerator",
    "ChengduLikeGenerator",
    # problem + platform
    "ProblemInstance",
    "Server",
    "Matching",
    "UtilityModel",
    "LinearValue",
    "BudgetVector",
    "BudgetSampler",
    # methods
    "PUCESolver",
    "PDCESolver",
    "PGTSolver",
    "UCESolver",
    "DCESolver",
    "GTSolver",
    "GreedySolver",
    "OptimalSolver",
    "make_solver",
    "available_methods",
    "NON_PRIVATE_COUNTERPART",
    # primitives
    "pcf",
    "ppcf",
    "PrivacyLedger",
    "HorizonPolicy",
    "WindowAccountant",
    "PlanarLaplaceMechanism",
    "TrilaterationAttack",
    "attack_assignment",
    # workload persistence
    "save_tasks",
    "load_tasks",
    "save_workers",
    "load_workers",
    # running experiments
    "BatchRunner",
    "RunReport",
    "AssignmentResult",
    # service facade
    "SolveOptions",
    "MethodSpec",
    "DispatchSession",
    "SessionConfig",
    "ScenarioSpec",
    "run_scenario",
    "Assignment",
    # wire records
    "WIRE_VERSION",
    "OpenSession",
    "SubmitTask",
    "SubmitWorker",
    "Advance",
    "Drain",
    "Finish",
    "BudgetStatus",
    "AckReply",
    "BudgetReply",
    "AssignmentRecord",
    "AssignmentsReply",
    "FinishedReply",
    "ErrorReply",
    "ShedReply",
    "encode_record",
    "decode_record",
    # dispatch service
    "DispatchService",
    "ServiceClient",
    "ServiceConfig",
    # fault tolerance
    "FAULT_KINDS",
    "MASKED_FAULT_KINDS",
    "FaultPlan",
    "fault_injection",
    "set_fault_plan",
    "smoke_plan",
    "TenantJournal",
    "journal_tenants",
    # online dispatch
    "PoissonProcess",
    "RushHourProcess",
    "BurstyProcess",
    "TraceProcess",
    "StreamWorkload",
    "TaskArrival",
    "WorkerArrival",
    "WorkerDeparture",
    "MicroBatcher",
    "AdaptiveBatchController",
    "WorkerBudgetTracker",
    "ShardSeedSchedule",
    "StreamConfig",
    "DispatchSimulator",
    "StreamRunner",
    "StreamReport",
    "StreamStats",
    # flush hot path
    "FlushSolverCache",
    # observability
    "Tracer",
    "NullTracer",
    "Span",
    "Stopwatch",
    "RollingQuantile",
    "Ewma",
    "WarmupZScore",
    "MetricsRegistry",
    "format_profile",
    "write_trace_jsonl",
    "write_metrics_prometheus",
    # errors
    "ReproError",
    "ConfigurationError",
    "InvalidInstanceError",
    "FlushBudgetError",
    "InjectedFault",
    "JournalError",
    "BudgetExhaustedError",
    "MatchingError",
    "ConvergenceError",
    "DatasetError",
    "ServiceError",
]
