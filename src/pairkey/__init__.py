"""Simulator and closed-form toolkit for the random pairwise key
predistribution scheme under unreliable links.

The names below are re-exported from their modules on first use, so that
importing the package loads no module it does not need: `theory` needs
only the standard library, `scheme`, `channels` and `montecarlo` need
numpy, and `montecarlo` loads scipy when a sweep, a `components` call or
the bound suite first needs it."""

import importlib

_EXPORTS = {
    "sample_gamma_matrix": "scheme",
    "toroidal_distance_matrix": "channels",
    "match_rho": "theory",
    "TheoryReport": "theory",
    "theory_report": "theory",
    **dict.fromkeys(("EstimateTable", "ExperimentConfig", "TrialOutcome",
                     "ValidationReport", "components", "degrees",
                     "find_crossover", "keyed_pairs", "run_trial", "sweep",
                     "validate_bounds"), "montecarlo"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
