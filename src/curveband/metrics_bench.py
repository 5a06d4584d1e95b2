"""Replicated-experiment scoring and non-asymptotic bound verification.

The oracle checks test, on simulated data where the true mean and
process covariance are known, the finite-sample inequalities the
estimators are built around: two high-probability norm bounds relative
to the truncated target, an expected-risk bound for thresholding at
known levels, and the coefficient-accuracy event that underlies all of
them.  run_scenario ties everything into one deterministic benchmark
report, scoring each estimator by the root mean and root median of its
per-replicate squared grid-L2 errors; the truth and the band scores come
from bands, as coverage_experiment's do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .bands import (
    BAND_KINDS,
    COMPETITOR_KINDS,
    LS_CENTER_NOTE,
    _competitor_moments,
    _score_bands,
    _truth,
    each_replicate,
    verdict,
)
from .estimator import CoefficientStats, TheoreticalLevels, fit, pooled_stats, truncated_target
from .grid_basis import basis_for, check_count, check_distinct, check_family, check_nonnegative, check_open, check_seed
from .process_sim import PanelConfig, _median, replicate_configs, sigma_k_theoretical
from .selector import CandidateSpec

__all__ = [
    "ScenarioConfig",
    "BenchReport",
    "omega_event_check",
    "oracle_check_thm1",
    "oracle_check_thm2",
    "oracle_check_thm3",
    "run_scenario",
]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    panel: PanelConfig  # template; its seed field is ignored in favor of derived seeds
    estimators: tuple
    bands: tuple = ()
    replicates: int = 100
    base_seed: int = 0
    band_basis_family: str = "fourier"
    band_alpha: float = 0.05
    oracle_checks: bool = False
    oracle_alpha: float = 0.05
    oracle_delta: float = 0.01

    def __post_init__(self):
        check_count(self.replicates, "replicates", 1)
        check_seed(self.base_seed, "base_seed")
        if not isinstance(self.oracle_checks, bool):  # bool("false") would be True
            raise ValueError(f"oracle_checks must be True or False, got {self.oracle_checks!r}")
        if self.oracle_checks and self.replicates < 2:
            raise ValueError("oracle checks need replicates >= 2 for thm3's MC standard error")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators or not all(isinstance(c, CandidateSpec) for c in self.estimators):
            raise ValueError(f"estimators must be a nonempty tuple of CandidateSpecs, got {self.estimators!r}")
        check_distinct([c.label() for c in self.estimators], "estimators", "label")
        if not isinstance(self.bands, (tuple, list)) or not all(kind in BAND_KINDS for kind in self.bands):
            raise ValueError(f"bands must be a tuple of kinds from {BAND_KINDS}, got {self.bands!r}")
        object.__setattr__(self, "bands", tuple(self.bands))
        check_distinct(self.bands, "bands", "kind")
        check_family(self.band_basis_family, "band_basis_family")
        check_open(self.band_alpha, "band_alpha", 0, 1)
        check_open(self.oracle_alpha, "oracle_alpha", 0, 1)
        check_nonnegative(self.oracle_delta, "oracle_delta")
        # a setting the run does not read is an error away from its default
        unread = {} if self.bands else {"band_alpha": "no bands are scored"}
        if not self.oracle_checks:
            unread.update(oracle_alpha="oracle_checks is off", oracle_delta="oracle_checks is off")
            if not self.bands:
                unread["band_basis_family"] = "there are neither bands nor oracle checks"
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} would be ignored: {unread[f.name]}")


@dataclass(frozen=True, eq=False)
class BenchReport:
    estimator_labels: tuple
    sqrt_emse: tuple
    sqrt_medmse: tuple
    band_kinds: tuple
    coverage: tuple
    mean_width: tuple
    oracle_pass_rates: dict
    provenance: dict

    def __post_init__(self):
        for names in (("estimator_labels", "sqrt_emse", "sqrt_medmse"), ("band_kinds", "coverage", "mean_width")):
            lengths = [len(getattr(self, name)) for name in names]
            if len(set(lengths)) > 1:
                raise ValueError(f"{', '.join(names)} must be of one length, got {lengths}")
        for kind in self.band_kinds:
            if kind not in BAND_KINDS:
                raise ValueError(f"unknown band kind {kind!r}")
        for name in ("sqrt_emse", "sqrt_medmse", "mean_width"):
            for value in getattr(self, name):
                check_nonnegative(value, name)
        for name, rates in (("coverage", self.coverage), ("oracle pass rates", self.oracle_pass_rates.values())):
            if not all(0.0 <= rate <= 1.0 for rate in rates):
                raise ValueError(f"{name} must lie in [0,1]")

    def as_dict(self) -> dict:
        return {
            "estimators": [
                {"label": lab, "sqrt_emse": e, "sqrt_medmse": md}
                for lab, e, md in zip(self.estimator_labels, self.sqrt_emse, self.sqrt_medmse)
            ],
            "bands": [
                {"kind": k, "coverage": c, "mean_width": w}
                for k, c, w in zip(self.band_kinds, self.coverage, self.mean_width)
            ],
            "oracle_pass_rates": dict(self.oracle_pass_rates),
            "provenance": dict(self.provenance),
        }


def omega_event_check(stats: CoefficientStats, levels: TheoreticalLevels, mu_true: np.ndarray):
    """Coefficient accuracy plus the level-nesting chain, jointly over all k.

    Checks |mu_hat_k - mu_k| <= r_k, r_hat_k >= r_k, r_hat_k <= r_bar_k and
    r_bar_k <= r_tilde_k.  Needs the process covariance, so simulation only.
    A bool, or for stacked stats one bool per replicate.
    """
    _check_levels_match(stats, levels)
    mu = _check_mu_true(mu_true, stats)
    accurate = np.abs(stats.mu_hat - mu) <= levels.r_k
    nested = (stats.r_hat >= levels.r_k) & (stats.r_hat <= levels.r_bar) & (levels.r_bar <= stats.r_tilde)
    return verdict(np.all(accurate & nested, axis=-1))


def _check_mu_true(mu_true, stats: CoefficientStats) -> np.ndarray:
    """mu_true as floats, once it is finite and as long as the stats'
    coefficients: a NaN would read as a failed check."""
    mu = np.asarray(mu_true, dtype=float)
    if mu.shape != stats.mu_hat.shape[-1:]:
        raise ValueError("mu_true length does not match stats")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu_true must be finite")
    return mu


def _check_levels_match(stats: CoefficientStats, levels: TheoreticalLevels):
    got = (stats.n, stats.alpha, stats.delta)
    want = (levels.n, levels.alpha, levels.delta)
    if got != want:
        raise ValueError(f"stats at (n, alpha, delta) = {got} do not match the levels' {want}")


def _thm12_check(rule, stats, basis, levels, mu_true):
    _check_levels_match(stats, levels)
    mu = _check_mu_true(mu_true, stats)
    est = fit(rule, stats, basis, 2)
    _, target = truncated_target(mu, levels.r_k, basis)
    diff = est.values - target
    keep = np.abs(mu) >= levels.r_k
    sup_bound = 3.0 * float(np.max(basis.sup_norms)) * float(np.sum(levels.r_bar * keep))
    l2_bound = 3.0 * float(np.sqrt(np.sum(levels.r_bar**2 * keep)))
    sup_ok = np.max(np.abs(diff), axis=-1) <= sup_bound
    l2_ok = np.sqrt(np.mean(diff**2, axis=-1)) <= l2_bound
    return verdict(sup_ok), verdict(l2_ok)


def oracle_check_thm1(stats: CoefficientStats, basis, levels: TheoreticalLevels, mu_true) -> tuple:
    """Hard multiplier-2 estimate vs truncated target: sup and L2 norm bounds.

    sup bound: 3 max_k sup|phi_k| * sum_k r_bar_k over |mu_k| >= r_k;
    L2 bound: 3 sqrt(sum r_bar_k^2 over the same set).  stats must be
    pooled at the levels' n, alpha and delta.  Returns (sup_ok, l2_ok), two
    bools, or for stacked stats two bool arrays over the replicates.
    """
    return _thm12_check("hard", stats, basis, levels, mu_true)


def oracle_check_thm2(stats: CoefficientStats, basis, levels: TheoreticalLevels, mu_true) -> tuple:
    """Soft-rule variant of oracle_check_thm1, same bounds."""
    return _thm12_check("soft", stats, basis, levels, mu_true)


def oracle_check_thm3(scenario: PanelConfig, S: int, basis_family: str = "fourier", alpha: float = 0.05):
    """Expected squared L2 risk of thresholding at known levels vs its bound.

    The estimator keeps pooled coefficients with |mu_hat_k| >= 2 r_k (levels
    known, not estimated) and is compared to the truncated target.  Returns
    (lhs_mc, rhs_bound, ok) where ok allows three MC standard errors.
    """
    check_count(S, "S", 2)  # for thm3's MC standard error
    check_open(alpha, "alpha", 0, 1)
    basis = basis_for(basis_family, scenario.grid)
    mu, levels = _truth(scenario, basis, alpha)
    sigma_k = np.sqrt(sigma_k_theoretical(scenario.process, basis))
    _, target = truncated_target(mu, levels.r_k, basis)

    def sq_error(pooled):
        _, values = truncated_target(pooled[basis_family].mean, 2.0 * levels.r_k, basis)
        return np.mean((values - target) ** 2, axis=-1)

    errs = each_replicate(scenario, scenario.seed, S, {basis_family: basis}, sq_error)
    lhs = float(np.mean(errs))
    se = float(np.std(errs, ddof=1) / np.sqrt(S))
    n, m = scenario.n, basis.m
    var_k = sigma_k**2 / n + scenario.noise_sd**2 / (m * n)
    strict = np.abs(mu) > levels.r_k
    rhs = float(2.0 * np.sum((var_k + 4.0 * levels.r_k**2) * strict)
                + (4.0 * alpha / m) * np.sum(levels.r_k**2 + var_k))
    ok = lhs <= rhs if lhs == 0.0 else lhs <= rhs * (1.0 + 3.0 * se / lhs)
    return lhs, rhs, bool(ok)


def run_scenario(config: ScenarioConfig) -> BenchReport:
    """Run S replicates; score every estimator, band and enabled oracle check.

    Deterministic: replicate r uses the r-th derived seed from base_seed, so
    reports are bit-identical across runs and any replicate can be rerun in
    isolation from the seed quoted in a failure.
    """
    template = config.panel
    S = config.replicates

    # the band family is analysed curve by curve only where its spread is
    # read: by a proposed band, untruncated_ls or the oracle checks
    pooled_bands = [kind for kind in config.bands if kind not in COMPETITOR_KINDS]
    families = {c.basis_family for c in config.estimators}
    if pooled_bands or config.oracle_checks:
        families.add(config.band_basis_family)
    bases = {fam: basis_for(fam, template.grid) for fam in families}
    band_basis = basis_for(config.band_basis_family, template.grid) if config.bands or config.oracle_checks else None

    if config.oracle_checks:
        mu_true, oracle_levels = _truth(template, band_basis, config.oracle_alpha, config.oracle_delta)

    def score(pooled):
        @functools.cache
        def stats_for(fam, alpha, delta):
            return pooled_stats(pooled[fam], alpha, delta)

        errs = []
        for cand in config.estimators:
            stats = stats_for(cand.basis_family, cand.alpha, 0.0)
            est = fit(cand.rule, stats, bases[cand.basis_family], cand.multiplier)
            errs.append(np.mean((est.values - template.f) ** 2, axis=-1))
        band_stats = stats_for(config.band_basis_family, config.band_alpha, 0.0) if pooled_bands else None
        bands = _score_bands(
            config.bands, band_basis, config.band_alpha, band_stats, pooled["curves"], template.process, template.f,
        ) if config.bands else []
        hits = {}
        if config.oracle_checks:
            ostats = stats_for(config.band_basis_family, config.oracle_alpha, config.oracle_delta)
            hits["omega"] = omega_event_check(ostats, oracle_levels, mu_true)
            hits["thm1"] = np.logical_and(*oracle_check_thm1(ostats, band_basis, oracle_levels, mu_true))
            hits["thm2"] = np.logical_and(*oracle_check_thm2(ostats, band_basis, oracle_levels, mu_true))
        return errs, bands, hits

    # each estimator's squared errors and each oracle check's hits, stacked
    # over the replicates in seed order, and each band's score
    est_errs, band_scores, oracle_hits = each_replicate(template, config.base_seed, S, bases, score,
                                                          curve_moments=_competitor_moments(config.bands))

    pass_rates = {}
    provenance = {
        "base_seed": int(config.base_seed),
        "replicates": S,
        # replicate_configs' first seeds do not depend on S
        "replicate_seeds_head": [c.seed for c in replicate_configs(template, config.base_seed, min(S, 8))],
        "panel": {
            "n": template.n, "m": template.grid.m,
            "signal": template.signal.kind, "process": template.process.kind,
            "noise_sd": template.noise_sd,
        },
        "band_basis_family": config.band_basis_family,
        "band_alpha": config.band_alpha,
    }
    if any(k in COMPETITOR_KINDS for k in config.bands):
        provenance["notes"] = [LS_CENTER_NOTE]
    if config.oracle_checks:
        pass_rates = {tag: int(np.sum(hits)) / S for tag, hits in oracle_hits.items()}
        thm3_panel = replace(template, seed=int(config.base_seed))
        lhs, rhs, ok = oracle_check_thm3(thm3_panel, S, config.band_basis_family, config.oracle_alpha)
        pass_rates["thm3"] = 1.0 if ok else 0.0
        provenance["thm3"] = {"lhs_mc": lhs, "rhs_bound": rhs}
        provenance["oracle_alpha"] = config.oracle_alpha
        provenance["oracle_delta"] = config.oracle_delta

    return BenchReport(
        estimator_labels=tuple(c.label() for c in config.estimators),
        sqrt_emse=tuple(float(np.sqrt(np.mean(row))) for row in est_errs),
        sqrt_medmse=tuple(float(np.sqrt(_median(row))) for row in est_errs),
        band_kinds=tuple(config.bands),
        coverage=tuple(covered / S for covered, _ in band_scores),
        mean_width=tuple(width for _, width in band_scores),
        oracle_pass_rates=pass_rates,
        provenance=provenance,
    )
