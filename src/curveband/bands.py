"""Uniform confidence bands and simultaneous coverage experiments.

The adaptive bands center at a multiplier-1 threshold estimate and widen
by sums of per-coefficient levels over the active set; the untruncated
band drops the activity indicator; the asymptotic-normality competitor
bands use sqrt(V(t)/n) times the Bonferroni normal quantile, with V
either the known process variance or the curves' pointwise sample variance.
Competitor bands are centered at the least-squares fit of the mean curve,
a substitution for the kernel-smoothed center that is out of scope here;
reports carry a note saying so.  One helper (_competitor_inputs) chooses
every competitor band's center and V, for the replicated experiments and
the CLI alike.  The replicated experiments share one truth (_truth: true
coefficients and theoretical levels) and one band scorer (_score_bands).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .estimator import (
    CoefficientStats,
    PooledCoefficients,
    fit,
    moments,
    normal_quantile,
    per_curve_coeffs,
    pool,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from .grid_basis import BasisMatrix, analyze, basis_for, check_count, check_nonnegative, check_open, matvec
from .process_sim import PanelConfig, generate_panel, process_variance, replicate_configs, sigma_k_theoretical

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

# Competitor kinds read only alpha: no threshold level, so no delta.  Each
# reads the curves' first so many pointwise moments: the mean for its
# center, and for competitor_sample_var the sample variance for its V.
_COMPETITOR_MOMENTS = {"competitor_theoretical": 1, "competitor_sample_var": 2}
COMPETITOR_KINDS = tuple(_COMPETITOR_MOMENTS)

BAND_KINDS = (*_PROPOSED_BANDS, "untruncated_ls", *COMPETITOR_KINDS)

TARGET_KINDS = ("true_mean", "truncated_target")

LS_CENTER_NOTE = "competitor bands centered at the pooled least-squares mean (kernel smoothing out of scope)"


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    kind: str
    center: np.ndarray
    half_width: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.kind not in BAND_KINDS:
            raise ValueError(f"unknown band kind {self.kind!r}")
        center = np.asarray(self.center, dtype=float)
        half = np.asarray(self.half_width, dtype=float)
        if half.shape != center.shape:
            raise ValueError("half_width must have the shape of center")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not np.all(np.isfinite(half) & (half >= 0.0)):
            raise ValueError("half_width must be finite and nonnegative")
        check_open(self.alpha, "alpha", 0, 1)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half)

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
    target: str  # one of TARGET_KINDS
    band_kind: str
    notes: tuple = ()

    def __post_init__(self):
        check_count(self.replicates, "replicates", 1)
        check_count(self.covered_count, "covered_count", 0)
        if self.covered_count > self.replicates:
            raise ValueError("covered_count must lie in [0, replicates]")
        check_nonnegative(self.mean_width, "mean_width")
        if self.target not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target!r}")
        if self.band_kind not in BAND_KINDS:
            raise ValueError(f"unknown band kind {self.band_kind!r}")

    @property
    def coverage(self) -> float:
        return self.covered_count / self.replicates


def covers(band: ConfidenceBand, target: np.ndarray):
    """Simultaneous containment at every grid point: a bool, or for a
    stacked band one bool per replicate."""
    tgt = np.asarray(target, dtype=float)
    if tgt.shape != band.center.shape[-1:]:
        raise ValueError("target length does not match band")
    if not np.all(np.isfinite(tgt)):
        raise ValueError("target must be finite")
    return verdict(np.all((tgt >= band.lower) & (tgt <= band.upper), axis=-1))


def verdict(hits: np.ndarray):
    """A per-replicate check's result: a bool for one replicate, else the
    bool array over the stack's leading axes."""
    return bool(hits) if hits.ndim == 0 else hits


# What a competitor band reads of its stats: the least-squares
# coefficients, n and alpha; it reads no spread.
_CompetitorStats = namedtuple("_CompetitorStats", "mu_hat n alpha")


def _build_band(kind: str, basis: BasisMatrix, stats: CoefficientStats, variance=None) -> ConfidenceBand:
    """One band of the given kind from the pooled stats, at their alpha.

    Proposed kinds center at their rule's multiplier-1 estimate, with
    half_width(t_j) = width * sum_k r_tilde_k |phi_k(t_j)| over coefficients
    with |mu_hat_k| strictly above r_hat_k.  untruncated_ls centers at the
    hard estimate and sums r_hat_k |phi_k(t_j)| over every coefficient.
    The competitor kinds center at the least-squares fit of mu_hat, with
    half_width(t_j) = sqrt(V(t_j)/n) z(alpha/2m), simultaneous by
    Bonferroni.  They read only mu_hat, n and alpha of stats, so a
    _CompetitorStats does; _competitor_inputs chooses it and V.
    Stacked stats (and V) give a stacked band, one row per replicate.
    """
    if kind in _PROPOSED_BANDS:
        rule, width = _PROPOSED_BANDS[kind]
        indicator = np.abs(stats.mu_hat) > stats.r_hat
        half = width * matvec(np.abs(basis.values), stats.r_tilde * indicator)
    elif kind == "untruncated_ls":
        rule = "hard"
        half = matvec(np.abs(basis.values), stats.r_hat)
    elif kind in COMPETITOR_KINDS:
        rule = "least_squares"
        v = np.asarray(variance, dtype=float)
        if v.shape[-1:] != (basis.m,):
            raise ValueError(f"variance function must have length {basis.m}")
        if np.any(v < 0.0):
            raise ValueError("variance function must be nonnegative")
        v = np.broadcast_to(v, stats.mu_hat.shape)
        half = np.sqrt(v / stats.n) * normal_quantile(stats.alpha / (2.0 * basis.m))
    else:
        raise ValueError(f"unknown band kind {kind!r}")
    center = fit(rule, stats, basis).values
    return ConfidenceBand(kind=kind, center=center, half_width=half, alpha=stats.alpha)


# The curves' pointwise mean and sample variance over n curves, each kept
# only where read: length-m vectors or (S, m) stacks, or None.
CurveMoments = namedtuple("CurveMoments", "n mean var", defaults=(None, None))


def _competitor_moments(kinds) -> int:
    """The curve_moments order that the competitor bands among kinds read:
    0 for none, 1 for the mean, 2 for the mean and the sample variance."""
    return max((_COMPETITOR_MOMENTS.get(kind, 0) for kind in kinds), default=0)


def _competitor_inputs(kind: str, basis: BasisMatrix, curves: CurveMoments, process, alpha: float) -> tuple:
    """The stats and V of a competitor band of the given kind on the curves,
    for _build_band: the one place either is chosen.

    The center is the least-squares fit of the mean curve on basis,
    synthesize(analyze(mean)).  Analysis is linear and Phi^T Phi = m I, so
    that is the fit of the pooled per-curve means up to rounding, with no
    curve analysed.  V is the known variance of process for
    competitor_theoretical, the only kind that reads process, and the
    curves' sample variance for competitor_sample_var; neither reads the
    basis.  curves holds the moments _competitor_moments names, and
    stacked moments give stacked inputs.
    """
    check_open(alpha, "alpha", 0, 1)
    stats = _CompetitorStats(analyze(curves.mean, basis), curves.n, alpha)
    variance = process_variance(process, basis.grid) if kind == "competitor_theoretical" else curves.var
    return stats, variance


def each_replicate(template: PanelConfig, base_seed: int, S: int, bases: dict, body, curve_moments=0):
    """What body makes of S replicates, stacked in seed order.

    Replicate s simulates template at the s-th replicate_configs seed.  It
    analyses and pools its coefficients once per family in bases, the
    families whose spread body reads, and keeps the curves' first
    curve_moments pointwise moments (0: none, 1: the mean, 2: the mean and
    the sample variance), taken once per panel.  So one replicate's n x m
    arrays are held at a time.  body is called once, with each family
    mapped to its PooledCoefficients and "curves" to the CurveMoments, over
    all S replicates.  A failure names the replicate and its panel seed,
    from which that panel replays alone; a raising body is rerun one
    replicate at a time to find it.
    """
    configs = replicate_configs(template, base_seed, S)
    records = {fam: PooledCoefficients for fam in bases}
    records["curves"] = CurveMoments
    kept = {key: [] for key in records}
    for s, cfg in enumerate(configs):
        try:
            panel = generate_panel(cfg)
            kept["curves"].append(moments(panel.Y, curve_moments))
            for fam, basis in bases.items():
                kept[fam].append(pool(per_curve_coeffs(panel, basis))[1:])
        except Exception as exc:
            raise _failure(s, cfg, exc) from exc

    def stacked(rows: slice) -> dict:
        return {key: record(template.n, *map(np.array, zip(*kept[key][rows]))) for key, record in records.items()}

    try:
        return body(stacked(slice(None)))
    except Exception:
        for s, cfg in enumerate(configs):
            try:
                body(stacked(slice(s, s + 1)))
            except Exception as exc:
                raise _failure(s, cfg, exc) from exc
        raise


def _failure(s: int, cfg: PanelConfig, exc: Exception) -> RuntimeError:
    return RuntimeError(f"replicate {s} failed (panel seed {cfg.seed}): {exc}")


def _truth(panel: PanelConfig, basis: BasisMatrix, alpha: float, delta: float = 0.0) -> tuple:
    """The true coefficients of panel's mean on basis, and the theoretical
    levels at alpha and delta: simulation only, for they read the process
    covariance (a sigma_k cache entry per process and basis)."""
    sigma_k = np.sqrt(sigma_k_theoretical(panel.process, basis))
    return analyze(panel.f, basis), theoretical_levels(sigma_k, panel.noise_sd, panel.n, alpha, delta)


def _score_bands(kinds, basis: BasisMatrix, alpha: float, stats, curves: CurveMoments, process, target) -> list:
    """Each kind's stacked band at alpha scored against target: (covered
    count, mean width).

    The proposed kinds and untruncated_ls read stats, the pooled
    CoefficientStats on basis at alpha, None when every kind is a
    competitor; the competitor kinds read the curves' moments and process
    through _competitor_inputs.  Widths are summed one replicate at a time
    in seed order, so the bits do not depend on how numpy adds.
    """
    scores = []
    for kind in kinds:
        inputs = _competitor_inputs(kind, basis, curves, process, alpha) if kind in COMPETITOR_KINDS else (stats,)
        band = _build_band(kind, basis, *inputs)
        width_sum = 0.0
        for width in np.mean(2.0 * band.half_width, axis=-1):
            width_sum += width
        scores.append((int(np.sum(covers(band, target))), float(width_sum) / len(band.half_width)))
    return scores


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
    cover (this needs the process covariance, so simulation only).  Against
    the true mean a competitor kind reads no delta, so a nonzero one is an error.

    A competitor band reads no coefficient spread, so its replicates are
    not analysed curve by curve: it centres at the least-squares fit of
    each replicate's mean curve (_competitor_inputs).
    """
    if band_kind not in BAND_KINDS:
        raise ValueError(f"unknown band kind {band_kind!r}")
    if target_kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {target_kind!r}")
    check_open(alpha, "alpha", 0, 1)
    check_nonnegative(delta, "delta")
    check_count(S, "S", 1)
    if band_kind in COMPETITOR_KINDS and target_kind == "true_mean" and delta != 0.0:
        raise ValueError(f"delta would be ignored: {band_kind} reads only alpha, and the true mean no level")
    basis = basis_for(basis_family, scenario.grid)
    if target_kind == "true_mean":
        target = scenario.f
    else:
        mu, levels = _truth(scenario, basis, alpha, delta)
        _, target = truncated_target(mu, 2.0 * levels.r_bar, basis)

    competitor = band_kind in COMPETITOR_KINDS

    def score(pooled):
        stats = None if competitor else pooled_stats(pooled[basis_family], alpha, delta)
        return _score_bands((band_kind,), basis, alpha, stats, pooled["curves"], scenario.process, target)[0]

    covered, mean_width = each_replicate(scenario, scenario.seed, S, {} if competitor else {basis_family: basis},
                                         score, curve_moments=_competitor_moments((band_kind,)))
    notes = (LS_CENTER_NOTE,) if competitor else ()
    return CoverageReport(
        replicates=S, covered_count=covered, mean_width=mean_width,
        target=target_kind, band_kind=band_kind, notes=notes,
    )
