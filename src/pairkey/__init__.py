"""Simulator and closed-form toolkit for the random pairwise key
predistribution scheme under unreliable links."""

from .scheme import sample_gamma_matrix
from .channels import match_rho, toroidal_distance_matrix
from .theory import TheoryReport, theory_report
from .montecarlo import (
    EstimateTable,
    ExperimentConfig,
    TrialOutcome,
    ValidationReport,
    components,
    degrees,
    find_crossover,
    keyed_pairs,
    run_trial,
    sweep,
    validate_bounds,
)

__version__ = "0.1.0"
