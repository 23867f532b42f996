"""Command-line entry point for regenerating paper figures.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig07 --tasks 200 --batches 2 --seed 0
    python -m repro.experiments run fig17 --datasets chengdu normal
    python -m repro.experiments stream --arrivals poisson --methods PUCE UCE
    python -m repro.experiments stream --methods "PDCE(ppcf=off)" UCE
    python -m repro.experiments stream --adaptive --target-flush-seconds 0.01
    python -m repro.experiments scenario examples/scenario_rush_hour.json
    python -m repro.experiments scenario spec.json --seed 11 --save-spec spec11.json
    python -m repro.experiments stream --trace --trace-out run.jsonl
    python -m repro.experiments scenario spec.json --metrics-out metrics.prom
    python -m repro.experiments profile examples/scenario_duty_cycle.json
    python -m repro.experiments serve --queue-limit 32 < requests.jsonl

The streaming subcommands are thin shells over the service facade:
``stream`` assembles a :class:`repro.api.ScenarioSpec` from flags,
``scenario`` loads one from a JSON artifact, ``profile`` loads one and
forces tracing on to print a per-phase flame-style summary
(:func:`repro.obs.format_profile`) — all run through
:meth:`~repro.api.ScenarioSpec.run`, so a flag-built run and its saved
spec reproduce each other exactly.  ``--trace-out`` dumps the span tree
as JSONL; ``--metrics-out`` writes Prometheus text exposition; both
imply ``--trace``.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.api.options import COMPOSITION_RULES, SolveOptions
from repro.api.scenario import ScenarioSpec
from repro.errors import ReproError
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_figure
from repro.experiments.streaming import ARRIVAL_KINDS, format_stream_report
from repro.obs import format_profile, write_metrics_prometheus, write_trace_jsonl


def _add_obs_flags(
    parser: argparse.ArgumentParser, with_trace_flag: bool = True
) -> None:
    """The shared observability flags of the streaming subcommands."""
    if with_trace_flag:
        parser.add_argument(
            "--trace",
            action="store_true",
            default=False,
            help="record per-flush span trees (phase breakdowns in the report)",
        )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="dump the recorded spans as JSONL (implies --trace)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics as Prometheus text exposition",
    )


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``serve`` subcommand: a JSONL dispatch service on stdio."""
    import asyncio
    import sys

    from repro.service import DispatchService, ServiceConfig, serve_jsonl

    try:
        config = ServiceConfig(
            max_sessions=args.max_sessions,
            queue_limit=args.queue_limit,
            backpressure_ratio=args.backpressure_ratio or None,
            tenant_budget=args.tenant_budget,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes or None,
            journal_dir=args.journal_dir,
        )
    except ReproError as exc:
        parser.error(str(exc))

    def emit(line: str) -> None:
        print(line, flush=True)

    async def run() -> int:
        service = DispatchService(config)
        try:
            if config.journal_dir is not None:
                recovered = await service.recover()
                if recovered:
                    print(
                        f"recovered {len(recovered)} tenant session(s) "
                        f"from {config.journal_dir}",
                        file=sys.stderr,
                    )
            served = await serve_jsonl(service, sys.stdin, emit)
        finally:
            await service.close()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(service.render_metrics())
            print(f"metrics: prometheus text -> {args.metrics_out}", file=sys.stderr)
        print(f"serve: {served} requests handled", file=sys.stderr)
        return 0

    return asyncio.run(run())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figure groups")

    run = sub.add_parser("run", help="regenerate one figure group")
    run.add_argument("figure", choices=sorted(FIGURES))
    run.add_argument("--tasks", type=int, default=200, help="tasks per batch (paper: 1000)")
    run.add_argument("--batches", type=int, default=2, help="batches per sweep point")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--datasets", nargs="+", default=None, help="restrict datasets")

    stream = sub.add_parser(
        "stream", help="run methods over a continuous-time arrival stream"
    )
    stream.add_argument("--arrivals", choices=ARRIVAL_KINDS, default="poisson")
    stream.add_argument("--dataset", default="normal", help="spatial law for locations")
    stream.add_argument(
        "--methods",
        nargs="+",
        default=["PUCE", "UCE"],
        help='Table IX names or method specs like "PDCE(ppcf=off)"',
    )
    stream.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="stream length in time units (default 3; trace: clips the 24h day, default 24)",
    )
    stream.add_argument(
        "--task-rate", type=float, default=40.0, help="task arrivals per time unit"
    )
    stream.add_argument(
        "--worker-rate", type=float, default=15.0, help="worker arrivals per time unit"
    )
    stream.add_argument("--initial-workers", type=int, default=60, help="fleet on duty at t=0")
    stream.add_argument("--trace-orders", type=int, default=300, help="orders per trace-driven day")
    stream.add_argument("--deadline", type=float, default=1.0, help="task patience before expiry")
    stream.add_argument(
        "--worker-budget", type=float, default=40.0, help="per-worker shift budget cap"
    )
    stream.add_argument(
        "--departures",
        type=float,
        default=0.0,
        help="probability each worker departs mid-stream (worker churn; "
        "idle leavers vanish, busy ones finish their task and never "
        "rejoin)",
    )
    stream.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        help="sliding-window privacy accounting: budget caps apply to the "
        "spend inside the trailing window instead of the whole run "
        "(default: lifetime global accounting)",
    )
    stream.add_argument(
        "--window-budget",
        type=float,
        default=None,
        help="per-worker epsilon cap inside each window (requires "
        "--window-seconds; default: the worker's own budget cap)",
    )
    stream.add_argument(
        "--window-composition",
        choices=COMPOSITION_RULES,
        default="sequential",
        help="window composition rule: 'sequential' sums in-window spends, "
        "'tree' charges the binary-mechanism level bound",
    )
    stream.add_argument(
        "--window-decay",
        type=float,
        default=None,
        help="down-weight releases as they age across the window: a spend "
        "counts eps * decay^(age/window) until it leaves (0 < decay < 1, "
        "sequential composition only)",
    )
    stream.add_argument(
        "--timeline-limit",
        type=int,
        default=None,
        help="cap StreamStats timeline growth: decimate to this many "
        "points once exceeded (endpoints kept; default: unbounded)",
    )
    stream.add_argument("--max-batch", type=int, default=50, help="micro-batch flush size")
    stream.add_argument("--max-wait", type=float, default=0.2, help="micro-batch flush wait")
    stream.add_argument(
        "--adaptive",
        action="store_true",
        help="adapt the flush size to observed flush service times",
    )
    stream.add_argument(
        "--target-flush-seconds",
        type=float,
        default=0.02,
        help="adaptive controller's per-flush solver-time target",
    )
    stream.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=False,
        help="enable the flush-fingerprint solver cache (bit-identical; "
        "recurring flushes skip the solve)",
    )
    stream.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable the flush-fingerprint solver cache (the default)",
    )
    stream.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection: 'smoke' for the built-in "
        'plan, or a JSON object like \'{"seed": 7, "rates": '
        '{"worker_departure": 0.1}}\'',
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--save-spec",
        metavar="PATH",
        default=None,
        help="also write the run as a reusable scenario JSON artifact",
    )
    _add_obs_flags(stream)

    scenario = sub.add_parser(
        "scenario", help="run a declarative scenario JSON artifact"
    )
    scenario.add_argument("spec", help="path to a ScenarioSpec JSON file")
    scenario.add_argument(
        "--seed", type=int, default=None, help="override the spec's options.seed"
    )
    scenario.add_argument(
        "--save-spec",
        metavar="PATH",
        default=None,
        help="write the (seed-resolved) spec back out as JSON",
    )
    _add_obs_flags(scenario)

    profile = sub.add_parser(
        "profile",
        help="run a scenario with tracing forced on and print the "
        "per-phase flame-style summary",
    )
    profile.add_argument("spec", help="path to a ScenarioSpec JSON file")
    profile.add_argument(
        "--seed", type=int, default=None, help="override the spec's options.seed"
    )
    _add_obs_flags(profile, with_trace_flag=False)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant dispatch service over stdin/stdout JSONL "
        '(one {"tenant": ..., "request": ...} envelope per line)',
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=10_000,
        help="open tenant sessions held at once before shedding opens",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="per-tenant inbound queue depth before task submits shed",
    )
    serve.add_argument(
        "--backpressure-ratio",
        type=float,
        default=4.0,
        help="shed task submits while observed flush time exceeds this "
        "multiple of the target (0 disables)",
    )
    serve.add_argument(
        "--tenant-budget",
        type=float,
        default=None,
        help="per-tenant cumulative privacy-spend cap (default: none)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="shared flush-cache entry bound",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=256 * 2**20,
        help="shared flush-cache byte bound (0 disables the byte bound)",
    )
    serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="crash-safe per-tenant journals: accepted requests are "
        "written ahead here, and open sessions are recovered from it "
        "on start",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the service metrics as Prometheus text on exit",
    )

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _run_serve(args, parser)
    if args.command == "list":
        for figure_id, spec in sorted(FIGURES.items()):
            papers = ", ".join(spec.paper_figures.values())
            print(f"{figure_id}: {spec.measure} vs {spec.parameter}  ({papers})")
        return 0

    if args.command in ("stream", "scenario", "profile"):
        if args.command == "stream":
            spec = ScenarioSpec(
                arrivals=args.arrivals,
                dataset=args.dataset,
                horizon=args.horizon,
                task_rate=args.task_rate,
                worker_rate=args.worker_rate,
                initial_workers=args.initial_workers,
                trace_orders=args.trace_orders,
                task_deadline=args.deadline,
                worker_budget=args.worker_budget,
                departures=args.departures,
                methods=tuple(args.methods),
                options=SolveOptions(
                    seed=args.seed,
                    max_batch_size=args.max_batch,
                    max_wait=args.max_wait,
                    adaptive=args.adaptive,
                    target_flush_seconds=args.target_flush_seconds,
                    cache=args.cache,
                    trace=args.trace,
                    window_seconds=args.window_seconds,
                    window_budget=args.window_budget,
                    window_composition=args.window_composition,
                    window_decay=args.window_decay,
                    timeline_limit=args.timeline_limit,
                    faults=args.faults,
                ),
            )
        else:
            try:
                spec = ScenarioSpec.from_file(args.spec)
            except (OSError, ValueError, ReproError) as exc:
                parser.error(f"cannot load scenario {args.spec!r}: {exc}")
            if args.seed is not None:
                spec = spec.with_seed(args.seed)
        want_trace = (
            args.command == "profile"
            or getattr(args, "trace", False)
            or args.trace_out is not None
        )
        if want_trace and not spec.options.trace:
            spec = dataclasses.replace(
                spec, options=spec.options.replace(trace=True)
            )
        if getattr(args, "save_spec", None):
            spec.to_file(args.save_spec)
        report = spec.run()
        if args.command == "profile":
            print(format_profile(report, title=f"profile[{spec.name}]"))
        else:
            print(format_stream_report(report, spec.to_scenario()))
        if args.trace_out:
            count = write_trace_jsonl(report, args.trace_out)
            print(f"trace: {count} spans -> {args.trace_out}")
        if args.metrics_out:
            write_metrics_prometheus(report, args.metrics_out)
            print(f"metrics: prometheus text -> {args.metrics_out}")
        return 0

    result = run_figure(
        args.figure,
        num_tasks=args.tasks,
        num_batches=args.batches,
        seed=args.seed,
        datasets=tuple(args.datasets) if args.datasets else None,
    )
    print(format_figure(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
