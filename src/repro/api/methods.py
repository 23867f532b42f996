"""`MethodSpec` — parseable, canonical names for configured method variants.

The registry's Table IX names (``"PUCE"``, ``"PDCE-nppcf"``) cover only
the variants someone thought to pre-register.  :class:`MethodSpec` makes
the *configuration* part of the name: ``"PDCE(ppcf=off)"`` or
``"UCE(max_rounds=500)"`` parse into a spec, format back canonically,
and build the corresponding solver — so the registry, CLI, benchmarks
and reports all name configured variants the same way.

Grammar::

    spec   := base | base "(" param ("," param)* ")"
    param  := key "=" value
    value  := "on" | "off" | "true" | "false" | integer

Legacy registry names (``"PUCE-nppcf"``) parse as their spec equivalents
(``MethodSpec("PUCE", ppcf=False)``), and a spec's
:meth:`~MethodSpec.registry_name` is always the name the built solver
reports — so nothing downstream of a solver ever sees a new name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.options import SolveOptions
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.registry import Solver

__all__ = ["MethodSpec"]

#: base name -> (takes ppcf, takes max_rounds, takes max_passes)
_BASES: dict[str, tuple[bool, bool, bool]] = {
    "PUCE": (True, True, False),
    "PDCE": (True, True, False),
    "UCE": (False, True, False),
    "DCE": (False, True, False),
    "PGT": (False, False, True),
    "GT": (False, False, True),
    "GRD": (False, False, False),
    "OPT": (False, False, False),
}

_PRIVATE_BASES = frozenset({"PUCE", "PDCE", "PGT"})

_SPEC_RE = re.compile(r"^\s*([A-Za-z]+(?:-nppcf)?)\s*(?:\((.*)\))?\s*$")


def _parse_value(key: str, raw: str) -> "bool | int":
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("on", "true"):
        return True
    if lowered in ("off", "false"):
        return False
    if re.fullmatch(r"-?\d+", raw):
        return int(raw)
    raise ConfigurationError(f"cannot parse value {raw!r} for {key!r}")


@dataclass(frozen=True)
class MethodSpec:
    """One method variant: a Table IX base plus its configuration.

    ``ppcf=None`` / ``max_rounds=None`` / ``max_passes=None`` mean "the
    method default" (PPCF on, round caps from
    :class:`~repro.api.options.SolveOptions` or the engine defaults).
    ``ppcf=True`` normalises to ``None`` so equal configurations compare
    and format equal.
    """

    base: str
    ppcf: bool | None = None
    max_rounds: int | None = None
    max_passes: int | None = None

    def __post_init__(self) -> None:
        caps = _BASES.get(self.base)
        if caps is None:
            raise ConfigurationError(
                f"unknown method {self.base!r}; "
                f"available: {', '.join(sorted(_BASES))}"
            )
        takes_ppcf, takes_rounds, takes_passes = caps
        if self.ppcf is not None and not takes_ppcf:
            raise ConfigurationError(
                f"{self.base} has no PPCF gate; ppcf= only applies to PUCE/PDCE"
            )
        if self.max_rounds is not None and not takes_rounds:
            raise ConfigurationError(
                f"{self.base} is not a conflict-elimination method; "
                f"max_rounds= does not apply"
            )
        if self.max_passes is not None and not takes_passes:
            raise ConfigurationError(
                f"max_passes= only applies to PGT/GT, not {self.base}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.max_passes is not None and self.max_passes < 1:
            raise ConfigurationError(
                f"max_passes must be >= 1, got {self.max_passes}"
            )
        if self.ppcf is True:  # "ppcf=on" is the default: normalise away
            object.__setattr__(self, "ppcf", None)

    # -- parsing / formatting ----------------------------------------------

    @classmethod
    def parse(cls, text: "str | MethodSpec") -> "MethodSpec":
        """Parse ``"PUCE"``, ``"PDCE(ppcf=off)"``, or a legacy name."""
        if isinstance(text, MethodSpec):
            return text
        match = _SPEC_RE.match(text)
        if match is None:
            raise ConfigurationError(f"cannot parse method spec {text!r}")
        base, arglist = match.group(1), match.group(2)
        params: dict[str, bool | int] = {}
        if base.endswith("-nppcf"):
            base = base[: -len("-nppcf")]
            params["ppcf"] = False
        if arglist is not None and arglist.strip():
            for item in arglist.split(","):
                if "=" not in item:
                    raise ConfigurationError(
                        f"method parameter {item.strip()!r} is not key=value"
                    )
                key, raw = item.split("=", 1)
                key = key.strip()
                if key not in ("ppcf", "max_rounds", "max_passes"):
                    raise ConfigurationError(
                        f"unknown method parameter {key!r}; "
                        f"valid: ppcf, max_rounds, max_passes"
                    )
                if key in params:
                    raise ConfigurationError(f"duplicate method parameter {key!r}")
                params[key] = _parse_value(key, raw)
        try:
            return cls(base, **params)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from None

    def canonical(self) -> str:
        """The minimal spec string that parses back to an equal spec."""
        parts = []
        if self.ppcf is False:
            parts.append("ppcf=off")
        if self.max_rounds is not None:
            parts.append(f"max_rounds={self.max_rounds}")
        if self.max_passes is not None:
            parts.append(f"max_passes={self.max_passes}")
        return f"{self.base}({', '.join(parts)})" if parts else self.base

    def __str__(self) -> str:
        return self.canonical()

    # -- semantics ---------------------------------------------------------

    @property
    def is_private(self) -> bool:
        return self.base in _PRIVATE_BASES

    def registry_name(self) -> str:
        """The Table IX name the built solver reports (``.name``)."""
        return f"{self.base}-nppcf" if self.ppcf is False else self.base

    def make(self, options: SolveOptions | None = None) -> "Solver":
        """Build the configured solver.

        Spec-level parameters win over ``options``; ``options`` fills the
        gaps (``max_rounds``, and — for PUCE/PDCE — ``ppcf``).
        """
        from repro.core.nonprivate import DCESolver, GreedySolver, UCESolver
        from repro.core.optimal import OptimalSolver
        from repro.core.pdce import PDCESolver
        from repro.core.pgt import GTSolver, PGTSolver
        from repro.core.puce import PUCESolver

        max_rounds = (
            self.max_rounds
            or (options.max_rounds if options is not None else None)
            or 100_000
        )
        use_ppcf = self.ppcf
        if use_ppcf is None and options is not None:
            use_ppcf = options.ppcf
        if use_ppcf is None:
            use_ppcf = True
        if self.base == "PUCE":
            return PUCESolver(use_ppcf=use_ppcf, max_rounds=max_rounds)
        if self.base == "PDCE":
            return PDCESolver(use_ppcf=use_ppcf, max_rounds=max_rounds)
        if self.base == "UCE":
            return UCESolver(max_rounds=max_rounds)
        if self.base == "DCE":
            return DCESolver(max_rounds=max_rounds)
        if self.base == "PGT":
            return PGTSolver(max_passes=self.max_passes or 100_000)
        if self.base == "GT":
            return GTSolver(max_passes=self.max_passes or 100_000)
        if self.base == "GRD":
            return GreedySolver()
        return OptimalSolver()
