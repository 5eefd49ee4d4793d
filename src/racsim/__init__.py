"""Exact simulator and verification toolkit for d-level random access codes."""

from .advantage import (
    AdvantageRow,
    advantage_holds,
    full_to_classical_ratio,
    r_max,
    ratio_argmax,
    restricted_exact_value,
    scan,
)
from .classical import (
    ClassicalTask,
    DeterministicStrategy,
    InfeasibleSearchError,
    OracleResult,
    closed_form_classical,
    evaluate_strategy,
    majority_identity_strategy,
    mixture_value,
    optimal_classical_bruteforce,
    strategy_from_text,
    strategy_to_text,
)
from .montecarlo import Estimate, TrialConfig, answer_counts, simulate
from .quantum import (
    GatingVariant,
    GuessDistribution,
    ProtocolSpec,
    answer_distribution,
    closed_form_full,
    closed_form_restricted,
    encode_restricted,
    exact_success,
    guess_from_outcome,
)
from .report import SuccessReport

__version__ = "0.1.0"

__all__ = [
    "AdvantageRow",
    "ClassicalTask",
    "DeterministicStrategy",
    "Estimate",
    "GatingVariant",
    "GuessDistribution",
    "InfeasibleSearchError",
    "OracleResult",
    "ProtocolSpec",
    "SuccessReport",
    "TrialConfig",
    "advantage_holds",
    "answer_counts",
    "answer_distribution",
    "closed_form_classical",
    "closed_form_full",
    "closed_form_restricted",
    "encode_restricted",
    "evaluate_strategy",
    "exact_success",
    "full_to_classical_ratio",
    "guess_from_outcome",
    "majority_identity_strategy",
    "mixture_value",
    "optimal_classical_bruteforce",
    "r_max",
    "ratio_argmax",
    "restricted_exact_value",
    "scan",
    "simulate",
    "strategy_from_text",
    "strategy_to_text",
]
