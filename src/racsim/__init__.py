"""Exact simulator and verification toolkit for d-level random access codes.

The package namespace is lazy (PEP 562): ``import racsim`` loads no module
and not numpy.  The first use of a name imports the module that defines it
and binds all of that module's names here, so later uses are plain reads;
a module read as ``racsim.<module>`` is imported on first use too.
"""

import importlib

__version__ = "0.1.0"

#: Each module's names in the package namespace.
_EXPORTS = {
    "advantage": ("AdvantageRow", "advantage_holds", "r_max", "ratio_argmax", "restricted_exact_value", "scan"),
    "classical": ("ClassicalTask", "DeterministicStrategy", "OracleResult", "closed_form_classical",
                  "evaluate_strategy", "majority_identity_strategy", "mixture_value",
                  "optimal_classical_bruteforce", "strategy_from_text", "strategy_to_text"),
    "montecarlo": ("Estimate", "TrialConfig", "answer_counts", "simulate"),
    "quantum": ("GatingVariant", "GuessDistribution", "ProtocolSpec", "answer_distribution", "closed_form_full",
                "closed_form_restricted", "encode_restricted", "exact_success", "guess_from_outcome"),
    "report": ("InfeasibleSearchError", "SuccessReport"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("advantage", "classical", "cli", "montecarlo", "quantum", "qudit", "report")

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    globals().update({export: getattr(module, export) for export in _EXPORTS[_OWNER[name]]})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
