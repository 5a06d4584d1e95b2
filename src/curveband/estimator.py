"""Coefficient estimation, threshold levels, and thresholded mean estimates.

The coefficient means mu_hat_k and root sample variances S_k come from
moments; the levels r_hat_k = (S_k + delta) z(alpha/2m)/sqrt(n) and
their widened companions r_tilde_k = (S_k + 3 delta) z(alpha/2m)/sqrt(n)
drive hard and soft thresholding.  Theoretical counterparts (r_k, r_bar_k)
are available when the process covariance is known, for simulation checks
and the truncated-target machinery.
"""

from __future__ import annotations

import statistics
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grid_basis import BasisMatrix, analyze, check_count, check_nonnegative, check_open, synthesize
from .process_sim import CurvePanel, SignalSpec, eval_signal

__all__ = [
    "CoefficientStats",
    "Moments",
    "TheoreticalLevels",
    "MeanEstimate",
    "SparsityReport",
    "normal_quantile",
    "per_curve_coeffs",
    "moments",
    "pooled_stats",
    "theoretical_levels",
    "fit",
    "truncated_target",
    "sparsity_report",
]


# The level multipliers each rule reads; least squares has no threshold to scale.
RULE_MULTIPLIERS = {"hard": (1, 2), "soft": (1, 2), "least_squares": (1,)}
RULES = tuple(RULE_MULTIPLIERS)


# Each column's mean and sample variance over n rows (curves, or their
# coefficients), each kept only where read: length-m vectors or (S, m)
# stacks with one row per replicate, or None.
Moments = namedtuple("Moments", "n mean var", defaults=(None, None))


@dataclass(frozen=True, eq=False)
class CoefficientStats:
    """Pooled coefficients of n curves and their data-driven levels: length-m
    vectors, or stacks with one row per replicate."""

    mu_hat: np.ndarray
    n: int
    s_k: np.ndarray
    alpha: float
    delta: float
    r_hat: np.ndarray
    r_tilde: np.ndarray

    @property
    def m(self) -> int:
        return self.mu_hat.shape[-1]


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
    coeffs: np.ndarray
    active: np.ndarray
    values: np.ndarray


def normal_quantile(p: float) -> float:
    """Upper-tail standard normal quantile: P(N(0,1) > z) = p."""
    check_open(p, "p", 0, 1)
    # negating the lower-tail quantile keeps full relative accuracy for
    # small p, where inv_cdf(1 - p) would lose digits to the subtraction
    return -statistics.NormalDist().inv_cdf(p)


def per_curve_coeffs(panel: CurvePanel, basis: BasisMatrix) -> np.ndarray:
    """Row i holds the basis coefficients of curve i."""
    if panel.grid != basis.grid:
        raise ValueError("panel grid does not match basis grid")
    coeffs = panel.Y @ basis.values
    coeffs /= basis.m
    return coeffs


def moments(rows: np.ndarray, order: int) -> Moments:
    """The first order (0, 1 or 2) moments of each column over the n rows
    of an n x m matrix, or of each matrix of a (..., n, m) stack: n, then
    the mean, then the sample variance.

    mean and var(ddof=1) by the ufunc calls numpy's own make, bit for bit,
    with the variance taken about this mean instead of a second one.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim < 2:
        raise ValueError("rows must be an n x m matrix or a stack of them")
    if isinstance(order, bool) or order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    n = rows.shape[-2]
    check_count(n, "n", order)  # a mean needs one row, a sample variance two
    mean = rows.sum(axis=-2) / n if order else None
    if order < 2:
        return Moments(n, mean)
    dev = rows - mean[..., None, :]
    dev *= dev
    return Moments(n, mean, dev.sum(axis=-2) / (n - 1))


def pooled_stats(per_curve, alpha: float, delta: float = 0.0) -> CoefficientStats:
    """The data-driven levels of per-curve coefficients, given as their
    matrix or as its moments(..., 2); each row of a stack pools as it
    would alone."""
    p = per_curve if isinstance(per_curve, Moments) else moments(per_curve, 2)
    check_count(p.n, "n", 2)
    mean, var = _check_pooled(p)
    check_open(alpha, "alpha", 0, 1)
    check_nonnegative(delta, "delta")
    s_k = np.sqrt(var)
    z = normal_quantile(alpha / (2.0 * mean.shape[-1]))
    r_hat = (s_k + delta) * z / np.sqrt(p.n)
    r_tilde = (s_k + 3.0 * delta) * z / np.sqrt(p.n)
    return CoefficientStats(mu_hat=mean, n=p.n, s_k=s_k, alpha=alpha, delta=delta, r_hat=r_hat, r_tilde=r_tilde)


def _check_pooled(p: Moments) -> tuple:
    """Hand-built moments are checked as moments(..., 2) would have made
    them: mean and var (not None) of one shape with at least one axis,
    finite, var nonnegative.  Returns both as float arrays."""
    mean, var = np.asarray(p.mean, dtype=float), np.asarray(p.var, dtype=float)
    if mean.shape != var.shape or mean.ndim == 0:
        raise ValueError(f"mean and var must be vectors or stacks of one shape, got {mean.shape} and {var.shape}")
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    if not np.all(np.isfinite(var) & (var >= 0.0)):
        raise ValueError("var must be finite and nonnegative")
    return mean, var


def theoretical_levels(
    sigma_k: np.ndarray,
    sigma_eps: float,
    n: int,
    alpha: float,
    delta: float = 0.0,
) -> TheoreticalLevels:
    """Levels for the m = len(sigma_k) coefficients of n curves."""
    sk = np.asarray(sigma_k, dtype=float)
    if sk.ndim != 1 or sk.size == 0:
        raise ValueError(f"sigma_k must be a non-empty vector, got shape {sk.shape}")
    m = sk.size
    if not np.all(np.isfinite(sk) & (sk >= 0.0)):
        raise ValueError("sigma_k must be finite and nonnegative")
    check_nonnegative(sigma_eps, "sigma_eps")
    check_nonnegative(delta, "delta")
    check_open(alpha, "alpha", 0, 1)
    check_count(n, "n", 1)
    z = normal_quantile(alpha / (2.0 * m))
    r_k = np.sqrt((sk**2 + sigma_eps**2 / m) / n) * z
    r_bar = r_k + 2.0 * delta * z / np.sqrt(n)
    return TheoreticalLevels(r_k=r_k, r_bar=r_bar, alpha=alpha, delta=delta, n=n)


def check_rule(rule: str, multiplier):
    """Reject an unknown rule, or a multiplier (not a bool) the rule does not read."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {RULES}")
    allowed = RULE_MULTIPLIERS[rule]
    if isinstance(multiplier, (bool, np.bool_)) or multiplier not in allowed:
        raise ValueError(f"threshold multiplier must be {' or '.join(map(str, allowed))}, got {multiplier!r}")


def fit(rule: str, stats: CoefficientStats, basis: BasisMatrix, multiplier: float = 1) -> MeanEstimate:
    """Mean estimate by the named rule at the levels multiplier * r_hat_k.

    hard keeps mu_hat_k where |mu_hat_k| reaches the level (keep on ties);
    soft shrinks it toward zero by the level, zeroing crossings;
    least_squares keeps every mu_hat_k and takes multiplier 1 alone.
    Stacked stats give one estimate per replicate along the leading axes.
    """
    check_rule(rule, multiplier)
    if rule == "least_squares":
        coeffs = stats.mu_hat.copy()
        active = np.ones(stats.mu_hat.shape, dtype=bool)
    else:
        level = multiplier * stats.r_hat
        active = np.abs(stats.mu_hat) >= level
        if rule == "hard":
            coeffs = np.where(active, stats.mu_hat, 0.0)
        else:
            coeffs = np.sign(stats.mu_hat) * np.maximum(np.abs(stats.mu_hat) - level, 0.0)
    return MeanEstimate(coeffs=coeffs, active=active, values=synthesize(coeffs, basis))


def truncated_target(mu: np.ndarray, levels: np.ndarray, basis: BasisMatrix):
    """Truncate true coefficients at per-index levels and rebuild the function.

    Simulation-only: needs the true coefficient vector.  mu may be a
    (..., m) stack, truncated row by row at the same m levels.  mu must be
    finite and the levels finite and nonnegative: a NaN would read as
    dropped, and an infinite level drops every coefficient.
    """
    mu = np.asarray(mu, dtype=float)
    lev = np.asarray(levels, dtype=float)
    if lev.ndim != 1 or mu.shape[-1:] != lev.shape:
        raise ValueError("mu and levels must have matching length")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu must be finite")
    if not np.all(np.isfinite(lev) & (lev >= 0.0)):
        raise ValueError("levels must be finite and nonnegative")
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
