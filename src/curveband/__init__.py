"""Adaptive mean-curve estimation with uniform confidence bands.

Estimates the mean function of a stochastic process from n noisy
discretized curves by thresholding empirical basis coefficients at
data-driven levels, selects among candidate estimators by a data
split, and builds simultaneous confidence bands whose widths adapt
to the sparsity of the mean.  A seeded simulation harness scores
estimators and bands over replicated panels.
"""

from .grid_basis import (
    BasisMatrix,
    Grid,
    analyze,
    basis_for,
    check_orthonormality,
    fourier_basis,
    haar_basis,
    make_grid,
    synthesize,
)
from .process_sim import (
    Calibration,
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    covariance_kernel,
    covariance_matrix,
    eval_signal,
    generate_panel,
    median_process_variance,
    replicate_configs,
    sigma_k_theoretical,
    simulate_process,
)
from .estimator import (
    CoefficientStats,
    MeanEstimate,
    SparsityReport,
    TheoreticalLevels,
    fit,
    hard_threshold,
    least_squares,
    normal_quantile,
    per_curve_coeffs,
    pooled_stats,
    soft_threshold,
    sparsity_report,
    theoretical_levels,
    truncated_target,
)
from .selector import CandidateSpec, SelectionResult, empirical_risk, select, split_panel
from .bands import (
    BAND_KINDS,
    ConfidenceBand,
    CoverageReport,
    competitor_band,
    coverage_experiment,
    covers,
    proposed_band,
    sample_variance_curves,
    untruncated_band,
)
from .metrics_bench import (
    BenchReport,
    ScenarioConfig,
    mse_summary,
    omega_event_check,
    oracle_check_thm1,
    oracle_check_thm2,
    oracle_check_thm3,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "Grid", "BasisMatrix", "make_grid", "fourier_basis", "haar_basis", "basis_for",
    "analyze", "synthesize", "check_orthonormality",
    "SignalSpec", "ProcessSpec", "PanelConfig", "CurvePanel", "Calibration",
    "eval_signal", "covariance_kernel", "covariance_matrix", "simulate_process",
    "median_process_variance", "calibrate", "generate_panel", "replicate_configs",
    "sigma_k_theoretical",
    "CoefficientStats", "TheoreticalLevels", "MeanEstimate", "SparsityReport",
    "normal_quantile", "per_curve_coeffs", "pooled_stats", "theoretical_levels",
    "hard_threshold", "soft_threshold", "least_squares", "fit", "truncated_target",
    "sparsity_report",
    "CandidateSpec", "SelectionResult", "split_panel", "empirical_risk", "select",
    "BAND_KINDS", "ConfidenceBand", "CoverageReport", "proposed_band",
    "untruncated_band", "competitor_band", "sample_variance_curves", "covers",
    "coverage_experiment",
    "ScenarioConfig", "BenchReport", "mse_summary", "omega_event_check",
    "oracle_check_thm1", "oracle_check_thm2", "oracle_check_thm3", "run_scenario",
    "__version__",
]
