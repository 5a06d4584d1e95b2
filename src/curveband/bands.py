"""Uniform confidence bands and simultaneous coverage experiments.

The adaptive bands center at a multiplier-1 threshold estimate and widen
by sums of per-coefficient levels over the active set; the untruncated
band drops the activity indicator; the asymptotic-normality competitor
bands use sqrt(V(t)/n) times the Bonferroni normal quantile, with V
either the known process variance or the sample variance across curves.
Competitor bands are centered at the pooled least-squares mean, a
substitution for the kernel-smoothed center that is out of scope here;
reports carry a note saying so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (
    CoefficientStats,
    fit,
    normal_quantile,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from .grid_basis import BasisMatrix, analyze, basis_for
from .process_sim import (
    PanelConfig,
    eval_signal,
    generate_panel,
    process_variance,
    replicate_configs,
    sigma_k_theoretical,
)

__all__ = [
    "ConfidenceBand",
    "CoverageReport",
    "BAND_KINDS",
    "covers",
    "coverage_experiment",
]

# Each proposed kind's center rule (fit at multiplier 1) and width multiplier.
_PROPOSED_BANDS = {
    "proposed_hard1": ("hard", 1),
    "proposed_hard3": ("hard", 3),
    "proposed_soft2": ("soft", 2),
}

# Competitor kinds read only alpha: no threshold level, so no delta.
COMPETITOR_KINDS = ("competitor_theoretical", "competitor_sample_var")

BAND_KINDS = (*_PROPOSED_BANDS, "untruncated_ls", *COMPETITOR_KINDS)

LS_CENTER_NOTE = "competitor bands centered at the pooled least-squares mean (kernel smoothing out of scope)"


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    kind: str
    center: np.ndarray
    half_width: np.ndarray
    alpha: float

    def __post_init__(self):
        half = np.asarray(self.half_width, dtype=float)
        if half.shape != np.shape(self.center):
            raise ValueError("half_width must have the shape of center")
        if not np.all(np.isfinite(half) & (half >= 0.0)):
            raise ValueError("half_width must be finite and nonnegative")

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width


@dataclass(frozen=True, eq=False)
class CoverageReport:
    replicates: int
    covered_count: int
    mean_width: float
    target: str  # "true_mean" | "truncated_target"
    band_kind: str
    notes: tuple = ()

    def __post_init__(self):
        if not 0 <= self.covered_count <= self.replicates:
            raise ValueError("covered_count must lie in [0, replicates]")

    @property
    def coverage(self) -> float:
        return self.covered_count / self.replicates


def covers(band: ConfidenceBand, target: np.ndarray) -> bool:
    """Simultaneous containment at every grid point."""
    tgt = np.asarray(target, dtype=float)
    if tgt.shape != band.center.shape:
        raise ValueError("target length does not match band")
    return bool(np.all((tgt >= band.lower) & (tgt <= band.upper)))


def _build_band(kind: str, basis: BasisMatrix, stats: CoefficientStats, process_var=None) -> ConfidenceBand:
    """One band of the given kind from the pooled stats, at their alpha.

    Proposed kinds center at their rule's multiplier-1 estimate, with
    half_width(t_j) = width * sum_k r_tilde_k |phi_k(t_j)| over coefficients
    with |mu_hat_k| strictly above r_hat_k.  untruncated_ls centers at the
    hard estimate and sums r_hat_k |phi_k(t_j)| over every coefficient.
    The competitor kinds center at the least-squares mean, with
    half_width(t_j) = sqrt(V(t_j)/n) z(alpha/2m), simultaneous by
    Bonferroni: V is process_var, the known pointwise process variance, for
    competitor_theoretical, and the sample variance across the
    reconstructed curves for competitor_sample_var.
    """
    if kind in _PROPOSED_BANDS:
        rule, width = _PROPOSED_BANDS[kind]
        indicator = np.abs(stats.mu_hat) > stats.r_hat
        half = width * (np.abs(basis.values) @ (stats.r_tilde * indicator))
    elif kind == "untruncated_ls":
        rule = "hard"
        half = np.abs(basis.values) @ stats.r_hat
    elif kind in COMPETITOR_KINDS:
        rule = "least_squares"
        if kind == "competitor_theoretical":
            v = np.asarray(process_var, dtype=float)
            if v.shape != (basis.m,):
                raise ValueError(f"variance function must have length {basis.m}")
            if np.any(v < 0.0):
                raise ValueError("variance function must be nonnegative")
        else:
            v = (stats.per_curve @ basis.values.T).var(axis=0, ddof=1)
        half = np.sqrt(v / stats.n) * normal_quantile(stats.alpha / (2.0 * basis.m))
    else:
        raise ValueError(f"unknown band kind {kind!r}")
    center = fit(rule, stats, basis).values
    return ConfidenceBand(kind=kind, center=center, half_width=half, alpha=stats.alpha)


def coverage_experiment(
    scenario: PanelConfig,
    band_kind: str,
    S: int,
    target_kind: str = "true_mean",
    basis_family: str = "fourier",
    alpha: float = 0.05,
    delta: float = 0.0,
) -> CoverageReport:
    """Simultaneous coverage frequency of one band kind over S fresh panels.

    The default target is the true mean; "truncated_target" instead checks
    the surrogate obtained by truncating the true coefficients at twice the
    theoretical widened levels, which is what the adaptive bands provably
    cover (this needs the process covariance, so simulation only).
    """
    if band_kind not in BAND_KINDS:
        raise ValueError(f"unknown band kind {band_kind!r}")
    if target_kind not in ("true_mean", "truncated_target"):
        raise ValueError(f"unknown target kind {target_kind!r}")
    if S < 1:
        raise ValueError("need at least one replicate")
    basis = basis_for(basis_family, scenario.grid)
    f = eval_signal(scenario.signal, scenario.grid)
    if target_kind == "true_mean":
        target = f
    else:
        sigma_k = np.sqrt(sigma_k_theoretical(scenario.process, basis))
        levels = theoretical_levels(sigma_k, scenario.noise_sd, scenario.n, basis.m, alpha, delta)
        mu = analyze(f, basis)
        _, target = truncated_target(mu, 2.0 * levels.r_bar, basis)
    process_var = None
    if band_kind == "competitor_theoretical":
        process_var = process_variance(scenario.process, scenario.grid)
    covered = 0
    width_sum = 0.0
    for s, cfg in enumerate(replicate_configs(scenario, scenario.seed, S)):
        try:
            panel = generate_panel(cfg)
            stats = pooled_stats(per_curve_coeffs(panel, basis), alpha, delta)
            band = _build_band(band_kind, basis, stats, process_var)
            covered += covers(band, target)
            width_sum += float(np.mean(2.0 * band.half_width))
        except Exception as exc:
            raise RuntimeError(f"replicate {s} failed (panel seed {cfg.seed}): {exc}") from exc
    notes = (LS_CENTER_NOTE,) if band_kind.startswith("competitor") else ()
    return CoverageReport(
        replicates=S, covered_count=covered, mean_width=width_sum / S,
        target=target_kind, band_kind=band_kind, notes=notes,
    )
