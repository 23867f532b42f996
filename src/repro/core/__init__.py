"""The paper's contribution: comparison functions, effective distances,
budgets, the CEA engine, and the PUCE / PGT / PDCE solvers."""

from repro.core.agents import TentativeProposal, WorkerAgent, build_agents
from repro.core.budgets import BudgetSampler, BudgetVector, PairBudget
from repro.core.cea import (
    Candidate,
    conflict_eliminate,
    rank_candidates,
    resolve_top_conflicts,
)
from repro.core.compare import (
    pcf,
    pcf_correctness,
    pcf_prefers_first,
    ppcf,
    ppcf_correctness,
    ppcf_prefers_first,
)
from repro.core.effective import EffectivePair, Release, ReleaseSet, effective_pair_of
from repro.core.engine import ConflictEliminationSolver, EliminationPolicy, RoundRecord
from repro.core.geoi import GeoIndistinguishableSolver
from repro.core.nonprivate import DCESolver, GreedySolver, UCESolver
from repro.core.optimal import OptimalSolver
from repro.core.payments import Payment, payments_for_result, vickrey_payment
from repro.core.pdce import PDCESolver
from repro.core.pgt import BestResponseStats, GTSolver, PGTSolver
from repro.core.puce import PUCESolver
from repro.core.registry import (
    NON_PRIVATE_COUNTERPART,
    Solver,
    available_methods,
    make_solver,
)
from repro.core.result import AssignmentResult, MatchedPair
from repro.core.transform import adjusted_rival_distance, comparison_key, public_value
from repro.core.utility import LinearValue, PowerValue, UtilityModel, ValueFunction

__all__ = [
    # comparison
    "pcf",
    "ppcf",
    "pcf_prefers_first",
    "ppcf_prefers_first",
    "pcf_correctness",
    "ppcf_correctness",
    # effective pairs
    "Release",
    "ReleaseSet",
    "EffectivePair",
    "effective_pair_of",
    # budgets
    "BudgetVector",
    "PairBudget",
    "BudgetSampler",
    # utility / transform
    "ValueFunction",
    "LinearValue",
    "PowerValue",
    "UtilityModel",
    "public_value",
    "adjusted_rival_distance",
    "comparison_key",
    # CEA
    "Candidate",
    "rank_candidates",
    "conflict_eliminate",
    "resolve_top_conflicts",
    # agents
    "WorkerAgent",
    "TentativeProposal",
    "build_agents",
    # engine + solvers
    "EliminationPolicy",
    "ConflictEliminationSolver",
    "RoundRecord",
    "GeoIndistinguishableSolver",
    "Payment",
    "vickrey_payment",
    "payments_for_result",
    "PUCESolver",
    "PDCESolver",
    "PGTSolver",
    "UCESolver",
    "DCESolver",
    "GTSolver",
    "GreedySolver",
    "OptimalSolver",
    "BestResponseStats",
    # registry / results
    "Solver",
    "make_solver",
    "available_methods",
    "NON_PRIVATE_COUNTERPART",
    "AssignmentResult",
    "MatchedPair",
]
