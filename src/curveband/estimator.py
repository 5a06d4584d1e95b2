"""Coefficient estimation, threshold levels, and thresholded mean estimates.

The pooled coefficient estimates mu_hat_k average the per-curve basis
coefficients; the data-driven levels r_hat_k = (S_k + delta) z(alpha/2m)/sqrt(n)
and their widened companions r_tilde_k = (S_k + 3 delta) z(alpha/2m)/sqrt(n)
drive hard and soft thresholding.  Theoretical counterparts (r_k, r_bar_k)
are available when the process covariance is known, for simulation checks
and the truncated-target machinery.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .grid_basis import BasisMatrix, synthesize
from .process_sim import CurvePanel, SignalSpec, eval_signal

__all__ = [
    "CoefficientStats",
    "TheoreticalLevels",
    "MeanEstimate",
    "SparsityReport",
    "normal_quantile",
    "per_curve_coeffs",
    "pooled_stats",
    "theoretical_levels",
    "fit",
    "truncated_target",
    "sparsity_report",
]


RULES = ("hard", "soft", "least_squares")


@dataclass(frozen=True, eq=False)
class CoefficientStats:
    """Pooled and per-curve coefficients with their data-driven levels."""

    mu_hat: np.ndarray
    per_curve: np.ndarray
    s_k: np.ndarray
    n: int
    alpha: float
    delta: float
    r_hat: np.ndarray
    r_tilde: np.ndarray

    @property
    def m(self) -> int:
        return self.mu_hat.shape[0]


@dataclass(frozen=True, eq=False)
class TheoreticalLevels:
    """Population levels r_k and r_bar_k from a known covariance.

    alpha/delta/n are kept so the simulation checks can reject data-driven
    statistics pooled at another n, alpha or delta than these levels.
    """

    r_k: np.ndarray
    r_bar: np.ndarray
    alpha: float
    delta: float
    n: int


@dataclass(frozen=True, eq=False)
class MeanEstimate:
    rule: str  # one of RULES
    level_multiplier: float
    coeffs: np.ndarray
    active: np.ndarray
    values: np.ndarray


def normal_quantile(p: float) -> float:
    """Upper-tail standard normal quantile: P(N(0,1) > z) = p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"tail probability must be in (0,1), got {p}")
    # negating the lower-tail quantile keeps full relative accuracy for
    # small p, where inv_cdf(1 - p) would lose digits to the subtraction
    return -statistics.NormalDist().inv_cdf(p)


def per_curve_coeffs(panel: CurvePanel, basis: BasisMatrix) -> np.ndarray:
    """Row i holds the basis coefficients of curve i."""
    if panel.grid.m != basis.m or not np.array_equal(panel.grid.points, basis.grid.points):
        raise ValueError("panel grid does not match basis grid")
    return panel.Y @ basis.values / basis.m


def pooled_stats(per_curve: np.ndarray, alpha: float, delta: float = 0.0) -> CoefficientStats:
    pc = np.asarray(per_curve, dtype=float)
    if pc.ndim != 2:
        raise ValueError("per-curve coefficients must be an n x m matrix")
    n, m = pc.shape
    if n < 2:
        raise ValueError("need n >= 2 curves for the coefficient sample SD")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not (np.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    mu_hat = pc.mean(axis=0)
    s_k = pc.std(axis=0, ddof=1)
    z = normal_quantile(alpha / (2.0 * m))
    r_hat = (s_k + delta) * z / np.sqrt(n)
    r_tilde = (s_k + 3.0 * delta) * z / np.sqrt(n)
    return CoefficientStats(
        mu_hat=mu_hat, per_curve=pc, s_k=s_k, n=n, alpha=alpha, delta=delta,
        r_hat=r_hat, r_tilde=r_tilde,
    )


def theoretical_levels(
    sigma_k: np.ndarray,
    sigma_eps: float,
    n: int,
    m: int,
    alpha: float,
    delta: float = 0.0,
) -> TheoreticalLevels:
    sk = np.asarray(sigma_k, dtype=float)
    if sk.shape != (m,):
        raise ValueError(f"sigma_k must have length {m}")
    given = np.append(sk, (sigma_eps, delta))
    if not np.all(np.isfinite(given) & (given >= 0.0)):
        raise ValueError("sigma_k, sigma_eps and delta must be finite and nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not n >= 1:
        raise ValueError(f"levels need n >= 1 curves, got {n}")
    z = normal_quantile(alpha / (2.0 * m))
    r_k = np.sqrt((sk**2 + sigma_eps**2 / m) / n) * z
    r_bar = r_k + 2.0 * delta * z / np.sqrt(n)
    return TheoreticalLevels(r_k=r_k, r_bar=r_bar, alpha=alpha, delta=delta, n=n)


def fit(rule: str, stats: CoefficientStats, basis: BasisMatrix, multiplier: float = 1) -> MeanEstimate:
    """Mean estimate by the named rule at the levels multiplier * r_hat_k.

    hard keeps mu_hat_k where |mu_hat_k| reaches the level (keep on ties);
    soft shrinks it toward zero by the level, zeroing crossings;
    least_squares keeps every mu_hat_k and ignores the multiplier.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {RULES}")
    if rule == "least_squares":
        multiplier = 1
        coeffs = stats.mu_hat.copy()
        active = np.ones(stats.m, dtype=bool)
    else:
        if multiplier not in (1, 2):
            raise ValueError(f"threshold multiplier must be 1 or 2, got {multiplier}")
        level = multiplier * stats.r_hat
        active = np.abs(stats.mu_hat) >= level
        if rule == "hard":
            coeffs = np.where(active, stats.mu_hat, 0.0)
        else:
            coeffs = np.sign(stats.mu_hat) * np.maximum(np.abs(stats.mu_hat) - level, 0.0)
    return MeanEstimate(
        rule=rule, level_multiplier=float(multiplier), coeffs=coeffs, active=active,
        values=synthesize(coeffs, basis),
    )


def truncated_target(mu: np.ndarray, levels: np.ndarray, basis: BasisMatrix):
    """Truncate true coefficients at per-index levels and rebuild the function.

    Simulation-only: needs the true coefficient vector.
    """
    mu = np.asarray(mu, dtype=float)
    lev = np.asarray(levels, dtype=float)
    if mu.shape != lev.shape:
        raise ValueError("mu and levels must have matching length")
    coeffs = np.where(np.abs(mu) >= lev, mu, 0.0)
    return coeffs, synthesize(coeffs, basis)


@dataclass(frozen=True, eq=False)
class SparsityReport:
    count: int
    active_indices: np.ndarray  # 1-based coefficient indices
    sup_error: float
    l2_error: float


def sparsity_report(signal: SignalSpec, basis: BasisMatrix, levels: TheoreticalLevels) -> SparsityReport:
    """How many true coefficients survive the theoretical levels, and the
    grid-norm distances between the truncated rebuild and the signal."""
    from .grid_basis import analyze

    f = eval_signal(signal, basis.grid)
    mu = analyze(f, basis)
    keep = np.abs(mu) >= levels.r_k
    _, values = truncated_target(mu, levels.r_k, basis)
    diff = values - f
    return SparsityReport(
        count=int(keep.sum()),
        active_indices=np.flatnonzero(keep) + 1,
        sup_error=float(np.max(np.abs(diff))),
        l2_error=float(np.sqrt(np.mean(diff**2))),
    )
