"""`SolveOptions` — the one place dispatch knobs are declared and checked.

Before the facade, configuration was scattered: ``use_ppcf`` lived in
solver constructors, batching/adaptive knobs in :class:`StreamConfig`,
seeds in ``solve(instance, seed)`` — each layer re-validating its own
slice.  :class:`SolveOptions` unifies them into one frozen record that every
entry point accepts (``make_solver``, ``Solver.solve``, ``BatchRunner``,
``StreamRunner``, :class:`~repro.api.session.DispatchSession`, the CLI),
and this module owns the *single* validation + normalization path: the
``validate_*`` functions below are called by ``SolveOptions`` itself and
by the lower layers (``StreamConfig``, ``MicroBatcher``), so an invalid
knob fails with the same typed
:class:`~repro.errors.ConfigurationError` no matter where it enters.

This module deliberately imports nothing above :mod:`repro.errors`, so
any layer may import it without cycles.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "SWEEP_MODES",
    "PARALLEL_MODES",
    "COMPOSITION_RULES",
    "SolveOptions",
    "reject_unknown_keys",
    "validate_sweep",
    "validate_sweep_threshold",
    "validate_sharding",
    "validate_batching",
    "validate_service",
    "validate_default_deadline",
    "validate_horizon",
    "validate_timeline_limit",
    "validate_faults",
]

#: Values the deprecated ``sweep`` option still accepts (inert: the engine
#: has one sweep path).
SWEEP_MODES = ("auto", "vectorized", "scalar")

#: Values the deprecated ``parallel`` option still accepts (inert: every
#: flush solves in-process).
PARALLEL_MODES = ("off", "thread", "process")

#: The deprecated, inert options and their defaults; any other value
#: warns (see :class:`SolveOptions`).
_INERT_DEFAULTS = {
    "sweep": "auto",
    "sweep_auto_threshold": None,
    "shards": "auto",
    "parallel": "off",
    "max_shard_workers": None,
    "workspace": True,
}

#: How in-window releases compose into one per-window guarantee
#: (see :mod:`repro.privacy.horizon`).
COMPOSITION_RULES = ("sequential", "tree")


# -- the single validation path -------------------------------------------


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bool(value: Any) -> bool:
    return isinstance(value, bool)


#: ``(fields, expected, check, None allowed)`` for every typed
#: :class:`SolveOptions` field whose own validator does not check its
#: type.  ``bool`` is never a number here.
_FIELD_TYPES = (
    (("adaptive", "cache", "trace", "workspace"), "a bool", _is_bool, False),
    (("ppcf",), "a bool or None", _is_bool, True),
    (("seed", "max_batch_size"), "an int", _is_int, False),
    (("max_rounds", "max_shard_workers"), "an int or None", _is_int, True),
    (("max_wait", "target_flush_seconds"), "a real number", _is_real, False),
    (
        ("window_seconds", "window_budget", "window_decay"),
        "a real number or None",
        _is_real,
        True,
    ),
)


def reject_unknown_keys(
    cls: type, mapping: Mapping[str, Any], kind: str
) -> dict[str, Any]:
    """Guard a JSON-shaped mapping against keys ``cls`` does not declare.

    Shared by every ``from_dict``-style constructor in the facade, so a
    typo fails with the same message shape wherever it enters.  Returns
    a mutable copy of ``mapping``.
    """
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(mapping) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} key(s) {unknown}; valid: {sorted(valid)}"
        )
    return dict(mapping)


def validate_sweep(sweep: str) -> str:
    """Check the deprecated sweep mode; returns it for chaining."""
    if sweep not in SWEEP_MODES:
        raise ConfigurationError(f"unknown sweep implementation {sweep!r}")
    return sweep


def validate_sweep_threshold(threshold: int | None) -> int | None:
    """Check the deprecated ``sweep="auto"`` crossover (pairs).

    ``None`` or a non-negative pair count.  Returns the value for chaining.
    """
    if threshold is not None and (not _is_int(threshold) or threshold < 0):
        raise ConfigurationError(
            f"sweep_auto_threshold must be a non-negative int or None, "
            f"got {threshold!r}"
        )
    return threshold


def validate_sharding(
    shards: int | str, parallel: str, max_shard_workers: int | None = None
) -> None:
    """Check the deprecated shard-count / parallel-mode / pool-size keys.

    The keys no longer change anything (every flush solves its cut
    in-process), but configurations that spell them are still checked
    exactly as before, so a value that used to be rejected still is:
    ``shards`` is an int ``>= 0`` or ``"auto"``, ``parallel`` one of
    :data:`PARALLEL_MODES` (and not on a ``shards=0`` config), and
    ``max_shard_workers`` ``None`` or ``>= 1``.
    """
    if not _is_int(shards):
        if shards != "auto":
            raise ConfigurationError(
                f"shards must be an int >= 0 or 'auto', got {shards!r}"
            )
    elif shards < 0:
        raise ConfigurationError(f"shards must be >= 0, got {shards}")
    if parallel not in PARALLEL_MODES:
        raise ConfigurationError(
            f"unknown parallel mode {parallel!r}; choose from {PARALLEL_MODES}"
        )
    if parallel != "off" and shards != "auto" and shards < 1:
        raise ConfigurationError(
            f"parallel={parallel!r} requires shards >= 1 or shards='auto'"
        )
    if max_shard_workers is not None and max_shard_workers < 1:
        raise ConfigurationError(
            f"max_shard_workers must be >= 1, got {max_shard_workers}"
        )


def validate_batching(max_batch_size: int, max_wait: float) -> None:
    """Check the micro-batch flush triggers."""
    if max_batch_size < 1:
        raise ConfigurationError(
            f"max_batch_size must be >= 1, got {max_batch_size}"
        )
    if not max_wait > 0:
        raise ConfigurationError(f"max_wait must be positive, got {max_wait}")


def validate_service(speed: float, min_service: float) -> None:
    """Check the duty-cycle timing parameters."""
    if not speed > 0:
        raise ConfigurationError(f"speed must be positive, got {speed}")
    if min_service < 0:
        raise ConfigurationError(f"min_service must be >= 0, got {min_service}")


def validate_default_deadline(default_deadline: float) -> float:
    """Check a session's default task patience; returns it for chaining."""
    numeric = isinstance(default_deadline, (int, float)) and not isinstance(
        default_deadline, bool
    )
    if not numeric or not default_deadline > 0:
        raise ConfigurationError(
            f"default_deadline must be positive, got {default_deadline!r}"
        )
    return float(default_deadline)


def validate_horizon(
    window_seconds: float | None,
    window_budget: float | None,
    composition: str,
    decay: float | None,
) -> None:
    """Check the sliding-window accounting knobs as one combination.

    ``window_seconds=None`` means global (fixed-budget) accounting, in
    which case the dependent knobs must stay at their defaults — a
    ``window_budget`` without a window is a configuration the accountant
    cannot honour, not a silent no-op.
    """
    if window_seconds is not None and not (
        window_seconds > 0 and math.isfinite(window_seconds)
    ):
        raise ConfigurationError(
            f"window_seconds must be positive and finite or None, "
            f"got {window_seconds}"
        )
    if composition not in COMPOSITION_RULES:
        raise ConfigurationError(
            f"unknown window composition {composition!r}; "
            f"choose from {COMPOSITION_RULES}"
        )
    if window_budget is not None:
        if not window_budget > 0:
            raise ConfigurationError(
                f"window_budget must be positive or None, got {window_budget}"
            )
        if window_seconds is None:
            raise ConfigurationError("window_budget requires window_seconds")
    if decay is not None:
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(
                f"window_decay must be in (0, 1) or None, got {decay}"
            )
        if window_seconds is None:
            raise ConfigurationError("window_decay requires window_seconds")
        if composition != "sequential":
            raise ConfigurationError(
                "window_decay composes only with the 'sequential' rule "
                "(the tree bound has no decayed form)"
            )


def validate_timeline_limit(timeline_limit: int | None) -> int | None:
    """Check a stats-timeline length cap; returns it for chaining.

    ``None`` keeps the timelines unbounded (the historical behaviour);
    otherwise at least 4 points, so downsampling always has interior
    points to thin while keeping both endpoints.
    """
    if timeline_limit is not None and (
        not isinstance(timeline_limit, int)
        or isinstance(timeline_limit, bool)
        or timeline_limit < 4
    ):
        raise ConfigurationError(
            f"timeline_limit must be an int >= 4 or None, got {timeline_limit!r}"
        )
    return timeline_limit


def validate_faults(faults: Any) -> Any:
    """Check a fault-injection spec; returns the *raw* spec for chaining.

    Accepts ``None``, a :class:`~repro.faults.FaultPlan`, a plan mapping,
    or a string (``"smoke"`` / ``"off"`` / JSON).  Resolution is lazy so
    this module keeps its no-imports-above-errors rule; an invalid spec
    still fails here, at construction time, with the usual
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.faults import FaultPlan

    FaultPlan.resolve(faults)
    return faults


@dataclass(frozen=True)
class SolveOptions:
    """Every dispatch knob, validated once, accepted everywhere.

    Parameters
    ----------
    seed:
        Base seed for noise streams and arrival draws.  Entry points that
        also take an explicit ``seed`` argument treat it as an override.
    ppcf:
        Method override: force the real-distance PPCF gate on (``True``)
        or off (``False``) for PUCE/PDCE.  ``None`` keeps each method's
        default (on).  Ignored by methods without the gate.
    max_rounds:
        Round cap for the conflict-elimination engine (``None`` = the
        engine default).
    max_batch_size, max_wait:
        Micro-batch flush triggers of the streaming layer.
    sweep, sweep_auto_threshold, shards, parallel, max_shard_workers, workspace:
        Deprecated and inert: every flush solves its conflict-free units
        in-process, in key order (see :mod:`repro.stream.shards`), on the
        engine's one vectorized sweep with fresh buffers.  They are still
        accepted so existing specs load, validated as before, and setting
        any of them off its default emits one :class:`DeprecationWarning`.
    adaptive, target_flush_seconds:
        Adaptive micro-batch sizing (see
        :class:`~repro.stream.batcher.AdaptiveBatchController`).
    cache:
        Enable the flush-fingerprint solver cache
        (:mod:`repro.stream.cache`): flushes whose fingerprint — pair
        arrays, method, noise schedule, per-worker remaining budgets —
        has been solved before skip the solve.  Results are bit-identical
        to ``cache=False`` (deterministic configs; adaptive batching is
        wall-clock-driven either way).
    trace:
        Record per-flush span trees (:mod:`repro.obs`): phase breakdowns
        in ``FlushRecord.phase_seconds`` and the ``--trace-out`` /
        ``profile`` artifacts.  Off by default (the no-op tracer keeps
        the hot path within noise); results are unchanged either way.
    window_seconds, window_budget, window_composition, window_decay:
        Sliding-window privacy accounting (:mod:`repro.privacy.horizon`).
        ``window_seconds=None`` (the default) keeps the global
        fixed-budget accountant — bit-identical to every pre-horizon
        run.  With a window set, each worker's guarantee is stated per
        window of that width: spends age out, exhausted workers regain
        eligibility, and ``window_budget`` (``None`` = only the
        registered shift capacities bind, reinterpreted per window) caps
        the in-window spend under the ``window_composition`` rule
        (``"sequential"`` sums in-window releases; ``"tree"`` applies
        the binary-mechanism bound ``max_eps * (floor(log2 n) + 1)``).
        ``window_decay`` (sequential only) discounts a release by
        ``decay ** (age / window_seconds)``.
    timeline_limit:
        Cap on the per-run stats timelines (privacy/window spend over
        time): once a timeline exceeds the cap it is thinned by dropping
        every other interior point.  ``None`` = unbounded (historical
        behaviour); long-horizon replays should set it.
    faults:
        Deterministic fault injection (:mod:`repro.faults`): ``None``
        (off), ``"smoke"`` (the low-rate CI plan), a
        :class:`~repro.faults.FaultPlan`, or its mapping/JSON form.
        Injected faults fire reproducibly from ``(seed, flush, site)``;
        all kinds except ``worker_departure`` are masked and never
        change results.
    """

    seed: int = 0
    sweep: str = "auto"
    sweep_auto_threshold: int | None = None
    ppcf: bool | None = None
    max_rounds: int | None = None
    max_batch_size: int = 200
    max_wait: float = 0.25
    shards: int | str = "auto"
    parallel: str = "off"
    max_shard_workers: int | None = None
    adaptive: bool = False
    target_flush_seconds: float = 0.02
    cache: bool = False
    workspace: bool = True
    trace: bool = False
    window_seconds: float | None = None
    window_budget: float | None = None
    window_composition: str = "sequential"
    window_decay: float | None = None
    timeline_limit: int | None = None
    faults: Any = None

    def __post_init__(self) -> None:
        # Types first: JSON from the wire arrives as-is, and an "off"
        # flag is truthy while a "0.1" float fails a range check as a
        # bare TypeError.
        for names, expected, check, nullable in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not (check(value) or (nullable and value is None)):
                    raise ConfigurationError(
                        f"{name} must be {expected}, got {value!r}"
                    )
        validate_sweep(self.sweep)
        validate_sweep_threshold(self.sweep_auto_threshold)
        validate_sharding(self.shards, self.parallel, self.max_shard_workers)
        legacy = sorted(
            name for name, default in _INERT_DEFAULTS.items() if getattr(self, name) != default
        )
        if legacy:
            warnings.warn(
                f"SolveOptions key(s) {legacy} are deprecated and have no effect: "
                f"every flush solves its cut in-process, on one engine path",
                DeprecationWarning,
                stacklevel=3,
            )
        validate_batching(self.max_batch_size, self.max_wait)
        validate_horizon(
            self.window_seconds,
            self.window_budget,
            self.window_composition,
            self.window_decay,
        )
        validate_timeline_limit(self.timeline_limit)
        validate_faults(self.faults)
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if not self.target_flush_seconds > 0:
            raise ConfigurationError(
                f"target_flush_seconds must be positive, "
                f"got {self.target_flush_seconds}"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SolveOptions":
        """Build from a plain dict (JSON), rejecting unknown keys."""
        return cls(**reject_unknown_keys(cls, mapping, "option"))

    def replace(self, **changes: Any) -> "SolveOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that :meth:`from_mapping` round-trips."""
        return dataclasses.asdict(self)

    # -- projection onto the lower layers ----------------------------------

    def horizon_policy(self):
        """The :class:`~repro.privacy.horizon.HorizonPolicy` these options
        describe, or ``None`` for global (fixed-budget) accounting."""
        if self.window_seconds is None:
            return None
        from repro.privacy.horizon import HorizonPolicy

        return HorizonPolicy(
            window_seconds=self.window_seconds,
            window_budget=self.window_budget,
            composition=self.window_composition,
            decay=self.window_decay,
        )

    def fault_plan(self):
        """The resolved :class:`~repro.faults.FaultPlan`, or ``None``."""
        from repro.faults import FaultPlan

        return FaultPlan.resolve(self.faults)

    def stream_config(self, **extra: Any):
        """The :class:`~repro.stream.simulator.StreamConfig` these options
        describe.  ``extra`` passes through knobs outside the unified set
        (``budget_sampler``, ``model``, ``speed``, ...)."""
        from repro.stream.simulator import StreamConfig

        return StreamConfig(
            max_batch_size=self.max_batch_size,
            max_wait=self.max_wait,
            adaptive=self.adaptive,
            target_flush_seconds=self.target_flush_seconds,
            cache=self.cache,
            trace=self.trace,
            horizon=self.horizon_policy(),
            timeline_limit=self.timeline_limit,
            faults=self.fault_plan(),
            **extra,
        )
