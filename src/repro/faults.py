"""Deterministic fault injection — failures as reproducible as results.

Every other stochastic choice in the library derives from a seed through
a stable key, so a run can be replayed bit-for-bit.  Faults get the same
treatment: a :class:`FaultPlan` decides whether a fault of some *kind*
fires at some *site* of some *flush* purely from
``(plan.seed, kind, site, key)`` — no global counters, no wall clock —
so a failure test replays exactly, down to which flush sees the fault.

The plan is threaded explicitly where possible (``StreamConfig.faults``);
the layer without a config path (the service consumer) consults the
process-wide :func:`active_fault_plan`, settable in code
(:func:`set_fault_plan`, the :func:`fault_injection` context manager) or
via the ``REPRO_FAULTS`` environment variable (``smoke`` enables the
low-rate CI plan; a JSON object spells an explicit plan).

Fault kinds and their injection sites:

==================  =======================================================
``queue_stall``     the service's per-tenant consumer — the request yields
                    the loop a few extra times before applying (observable
                    latency, never a changed result).
``worker_departure``
                    the simulator's flush path — one idle worker leaves
                    the fleet mid-stream (the churn workload family; the
                    one kind that intentionally changes results, so it is
                    **not** part of the smoke plan).
==================  =======================================================

``queue_stall`` is a *masked* failure: a stalled consumer costs time,
never results, so the run completes bit-identical to the fault-free run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import stable_hash

__all__ = [
    "FAULT_KINDS",
    "MASKED_FAULT_KINDS",
    "FaultPlan",
    "smoke_plan",
    "plan_from_env",
    "active_fault_plan",
    "set_fault_plan",
    "fault_injection",
]

#: Every fault kind a plan may rate.  The single source of truth — the
#: simulator and service sites both spell these strings.
FAULT_KINDS = (
    "queue_stall",
    "worker_departure",
)

#: Kinds whose injection is guaranteed result-preserving.
#: ``worker_departure`` is excluded: removing a worker legitimately
#: changes the dispatch outcome.
MASKED_FAULT_KINDS = ("queue_stall",)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of injected faults.

    ``rates`` maps fault kinds to firing probabilities in ``[0, 1]``;
    kinds absent from the mapping never fire.  Whether a given
    ``(kind, site, key)`` triple fires is a pure function of the plan —
    the uniform draw comes from ``default_rng`` seeded with
    ``(seed, hash(kind), hash(site), *key)`` — so retries, other sites
    and other flushes are independent, yet every run of the same plan
    sees the same faults in the same places.  ``seed`` is a non-negative
    int, checked here rather than at the first draw.
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Lazy: importing repro.api reaches the simulator, which imports
        # this module.
        from repro.api.options import validate_seed

        validate_seed(self.seed, "fault-plan seed")
        object.__setattr__(self, "rates", dict(self.rates))
        unknown = sorted(set(self.rates) - set(FAULT_KINDS))
        if unknown:
            raise ConfigurationError(
                f"unknown fault kind(s) {unknown}; valid: {sorted(FAULT_KINDS)}"
            )
        for kind, rate in self.rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate}"
                )

    # -- (de)serialisation --------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "FaultPlan":
        """Build from a plain dict (JSON), rejecting unknown keys."""
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan key(s) {unknown}; valid: {sorted(valid)}"
            )
        return cls(**dict(mapping))

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that :meth:`from_mapping` round-trips."""
        return {"seed": self.seed, "rates": dict(self.rates)}

    @classmethod
    def resolve(cls, spec: "FaultPlan | Mapping[str, Any] | str | None"):
        """Normalise a user-facing fault spec to a plan (or ``None``).

        Accepts a ready plan, a :meth:`to_dict` mapping, the string
        ``"smoke"`` (the CI plan), ``"off"``/``""`` (no injection), or a
        JSON object string.  This is the one place every config surface
        (options, CLI flags, the environment variable) converges.
        """
        if spec is None or isinstance(spec, cls):
            return spec
        if isinstance(spec, Mapping):
            return cls.from_mapping(spec)
        if isinstance(spec, str):
            text = spec.strip()
            if text in ("", "off", "none"):
                return None
            if text == "smoke":
                return smoke_plan()
            if text.startswith("{"):
                try:
                    return cls.from_mapping(json.loads(text))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise ConfigurationError(
                        f"fault plan JSON is invalid: {exc}"
                    ) from exc
            raise ConfigurationError(
                f"unknown fault spec {spec!r}; use 'smoke', 'off', "
                f"or a JSON object"
            )
        raise ConfigurationError(
            f"fault spec must be a FaultPlan, mapping, string or None, "
            f"got {type(spec).__name__}"
        )

    # -- firing -------------------------------------------------------------

    def should_fire(
        self, kind: str, key: tuple[int, ...] = (), site: str = ""
    ) -> bool:
        """Whether the fault fires at ``(kind, site, key)`` — deterministic."""
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; valid: {sorted(FAULT_KINDS)}"
            )
        rate = float(self.rates.get(kind, 0.0))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        entropy = (
            self.seed,
            stable_hash(kind),
            stable_hash(site),
            *(int(k) for k in key),
        )
        return float(np.random.default_rng(entropy).random()) < rate


def smoke_plan() -> FaultPlan:
    """The CI fault-injection plan (``REPRO_FAULTS=smoke``).

    Low-rate, *masked* kinds only: consumer stalls only add loop
    yields, so the whole tier-1 suite must still pass bit-identically
    underneath it.
    """
    return FaultPlan(seed=0xFA017, rates={"queue_stall": 0.02})


def plan_from_env() -> FaultPlan | None:
    """The plan named by ``REPRO_FAULTS`` (``None`` when unset/off)."""
    return FaultPlan.resolve(os.environ.get("REPRO_FAULTS"))


#: The explicitly-activated process-wide plan (overrides the environment).
_ACTIVE: FaultPlan | None = None
_ACTIVE_SET = False


def active_fault_plan() -> FaultPlan | None:
    """The process-wide plan: explicit activation first, then the env."""
    if _ACTIVE_SET:
        return _ACTIVE
    return plan_from_env()


def set_fault_plan(plan: "FaultPlan | Mapping[str, Any] | str | None") -> None:
    """Activate (or with ``None``, deactivate) the process-wide plan."""
    global _ACTIVE, _ACTIVE_SET
    resolved = FaultPlan.resolve(plan)
    _ACTIVE = resolved
    _ACTIVE_SET = resolved is not None


@contextlib.contextmanager
def fault_injection(
    plan: "FaultPlan | Mapping[str, Any] | str | None",
) -> Iterator[FaultPlan | None]:
    """Scope a process-wide plan to a ``with`` block (tests, benches)."""
    global _ACTIVE, _ACTIVE_SET
    previous = (_ACTIVE, _ACTIVE_SET)
    resolved = FaultPlan.resolve(plan)
    _ACTIVE = resolved
    _ACTIVE_SET = True
    try:
        yield resolved
    finally:
        _ACTIVE, _ACTIVE_SET = previous
