"""Measurement, estimation and reporting machinery for the experiments."""

from .convergence import (
    crossover_round,
    final_plateau,
    first_hitting_round,
    sustained_convergence_round,
)
from .estimators import (
    ScalarSummary,
    average_trajectories,
    quantiles,
    ratio_of_means,
    success_rate,
    summarize_scalar,
)
from .experiments import ExperimentResult, TrialResult, run_trials

# Persistence lives in repro.store; these re-exports keep the analysis
# package a one-stop import for result files.
from ..store.serialization import load_result, load_sweep, save_result, save_sweep, to_jsonable
from .scaling import (
    LinearFit,
    fit_inverse_square_epsilon,
    fit_linear,
    fit_log_n_scaling,
    fit_power_law,
)
from .statistics import (
    BernoulliSummary,
    are_negatively_correlated,
    binomial_pmf,
    central_binomial_tail,
    chernoff_deviation_for_confidence,
    chernoff_lower_tail,
    chernoff_upper_tail,
    empirical_bias,
    hoeffding_sample_size,
    summarize_bernoulli,
    wilson_interval,
)
from .sweeps import SweepPoint, SweepResult, parameter_grid, run_sweep, sweep_point_names
from .tables import format_cell, render_kv, render_table

__all__ = [
    "crossover_round",
    "final_plateau",
    "first_hitting_round",
    "sustained_convergence_round",
    "ScalarSummary",
    "average_trajectories",
    "quantiles",
    "ratio_of_means",
    "success_rate",
    "summarize_scalar",
    "ExperimentResult",
    "TrialResult",
    "run_trials",
    "load_result",
    "load_sweep",
    "save_result",
    "save_sweep",
    "to_jsonable",
    "LinearFit",
    "fit_inverse_square_epsilon",
    "fit_linear",
    "fit_log_n_scaling",
    "fit_power_law",
    "BernoulliSummary",
    "are_negatively_correlated",
    "binomial_pmf",
    "central_binomial_tail",
    "chernoff_deviation_for_confidence",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "empirical_bias",
    "hoeffding_sample_size",
    "summarize_bernoulli",
    "wilson_interval",
    "SweepPoint",
    "SweepResult",
    "parameter_grid",
    "run_sweep",
    "sweep_point_names",
    "format_cell",
    "render_kv",
    "render_table",
]
