"""Replicated-experiment scoring and non-asymptotic bound verification.

The oracle checks test, on simulated data where the true mean and
process covariance are known, the finite-sample inequalities the
estimators are built around: two high-probability norm bounds relative
to the truncated target, an expected-risk bound for thresholding at
known levels, and the coefficient-accuracy event that underlies all of
them.  run_scenario ties everything into one deterministic benchmark
report, scoring each estimator by the root mean and root median of its
per-replicate squared grid-L2 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bands import BAND_KINDS, LS_CENTER_NOTE, _build_band, covers
from .estimator import (
    CoefficientStats,
    TheoreticalLevels,
    fit,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from .grid_basis import BASIS_FAMILIES, analyze, basis_for
from .process_sim import (
    PanelConfig,
    eval_signal,
    generate_panel,
    process_variance,
    replicate_configs,
    sigma_k_theoretical,
)

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
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not isinstance(self.oracle_checks, bool):  # bool("false") would be True
            raise ValueError(f"oracle_checks must be True or False, got {self.oracle_checks!r}")
        if self.oracle_checks and self.replicates < 2:
            raise ValueError("oracle checks need replicates >= 2 for thm3's MC standard error")
        if not self.estimators:
            raise ValueError("estimator list is empty")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "bands", tuple(self.bands))
        for kind in self.bands:
            if kind not in BAND_KINDS:
                raise ValueError(f"unknown band kind {kind!r}")
        if self.band_basis_family not in BASIS_FAMILIES:
            raise ValueError(f"unknown basis family {self.band_basis_family!r}")
        for name in ("band_alpha", "oracle_alpha"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0,1), got {getattr(self, name)}")
        if not (np.isfinite(self.oracle_delta) and self.oracle_delta >= 0.0):
            raise ValueError(f"oracle_delta must be finite and nonnegative, got {self.oracle_delta}")


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
        if any(v < 0 for v in self.sqrt_emse):
            raise ValueError("sqrt_emse must be nonnegative")
        for rate in self.oracle_pass_rates.values():
            if not 0.0 <= rate <= 1.0:
                raise ValueError("oracle pass rates must lie in [0,1]")

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


def omega_event_check(stats: CoefficientStats, levels: TheoreticalLevels, mu_true: np.ndarray) -> bool:
    """Coefficient accuracy plus the level-nesting chain, jointly over all k.

    Checks |mu_hat_k - mu_k| <= r_k, r_hat_k >= r_k, r_hat_k <= r_bar_k and
    r_bar_k <= r_tilde_k.  Needs the process covariance, so simulation only.
    """
    _check_levels_match(stats, levels)
    mu = np.asarray(mu_true, dtype=float)
    if mu.shape != stats.mu_hat.shape:
        raise ValueError("mu_true length does not match stats")
    accurate = np.all(np.abs(stats.mu_hat - mu) <= levels.r_k)
    nested = np.all((stats.r_hat >= levels.r_k) & (stats.r_hat <= levels.r_bar) & (levels.r_bar <= stats.r_tilde))
    return bool(accurate and nested)


def _check_levels_match(stats: CoefficientStats, levels: TheoreticalLevels):
    got = (stats.n, stats.alpha, stats.delta)
    want = (levels.n, levels.alpha, levels.delta)
    if got != want:
        raise ValueError(f"stats at (n, alpha, delta) = {got} do not match the levels' {want}")


def _thm12_check(rule, stats, basis, levels, mu_true):
    _check_levels_match(stats, levels)
    est = fit(rule, stats, basis, 2)
    _, target = truncated_target(mu_true, levels.r_k, basis)
    diff = est.values - target
    keep = np.abs(np.asarray(mu_true, dtype=float)) >= levels.r_k
    sup_bound = 3.0 * float(np.max(basis.sup_norms)) * float(np.sum(levels.r_bar * keep))
    l2_bound = 3.0 * float(np.sqrt(np.sum(levels.r_bar**2 * keep)))
    sup_ok = float(np.max(np.abs(diff))) <= sup_bound
    l2_ok = float(np.sqrt(np.mean(diff**2))) <= l2_bound
    return bool(sup_ok), bool(l2_ok)


def oracle_check_thm1(stats: CoefficientStats, basis, levels: TheoreticalLevels, mu_true) -> tuple:
    """Hard multiplier-2 estimate vs truncated target: sup and L2 norm bounds.

    sup bound: 3 max_k sup|phi_k| * sum_k r_bar_k over |mu_k| >= r_k;
    L2 bound: 3 sqrt(sum r_bar_k^2 over the same set).  stats must be
    pooled at the levels' n, alpha and delta.
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
    if S < 2:
        raise ValueError("need S >= 2 replicates for an MC standard error")
    basis = basis_for(basis_family, scenario.grid)
    f = eval_signal(scenario.signal, scenario.grid)
    mu = analyze(f, basis)
    sigma_k = np.sqrt(sigma_k_theoretical(scenario.process, basis))
    levels = theoretical_levels(sigma_k, scenario.noise_sd, scenario.n, basis.m, alpha)
    _, target = truncated_target(mu, levels.r_k, basis)
    errs = np.empty(S)
    for s, cfg in enumerate(replicate_configs(scenario, scenario.seed, S)):
        panel = generate_panel(cfg)
        mu_hat = per_curve_coeffs(panel, basis).mean(axis=0)
        _, values = truncated_target(mu_hat, 2.0 * levels.r_k, basis)
        errs[s] = np.mean((values - target) ** 2)
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
    configs = replicate_configs(template, config.base_seed, S)
    f = eval_signal(template.signal, template.grid)

    families = {c.basis_family for c in config.estimators}
    if config.bands or config.oracle_checks:
        families.add(config.band_basis_family)
    bases = {fam: basis_for(fam, template.grid) for fam in families}
    band_basis = bases.get(config.band_basis_family)

    oracle_levels = None
    if config.oracle_checks:
        mu_true = analyze(f, band_basis)
        sigma_k = np.sqrt(sigma_k_theoretical(template.process, band_basis))
        oracle_levels = theoretical_levels(
            sigma_k, template.noise_sd, template.n, band_basis.m,
            config.oracle_alpha, config.oracle_delta,
        )
    process_var = None
    if "competitor_theoretical" in config.bands:
        process_var = process_variance(template.process, template.grid)

    est_errs = np.empty((len(config.estimators), S))
    band_cov = np.zeros(len(config.bands), dtype=int)
    band_width = np.zeros(len(config.bands))
    oracle_hits = {"omega": 0, "thm1": 0, "thm2": 0}

    for s, cfg in enumerate(configs):
        try:
            panel = generate_panel(cfg)
            coeffs = {fam: per_curve_coeffs(panel, basis) for fam, basis in bases.items()}
            stats_cache = {}

            def stats_for(fam, alpha, delta=0.0):
                key = (fam, alpha, delta)
                if key not in stats_cache:
                    stats_cache[key] = pooled_stats(coeffs[fam], alpha, delta)
                return stats_cache[key]

            for e, cand in enumerate(config.estimators):
                stats = stats_for(cand.basis_family, cand.alpha)
                est = fit(cand.rule, stats, bases[cand.basis_family], cand.multiplier)
                est_errs[e, s] = np.mean((est.values - f) ** 2)
            if config.bands:
                bstats = stats_for(config.band_basis_family, config.band_alpha)
                for b, kind in enumerate(config.bands):
                    band = _build_band(kind, band_basis, bstats, process_var)
                    band_cov[b] += covers(band, f)
                    band_width[b] += float(np.mean(2.0 * band.half_width))
            if config.oracle_checks:
                ostats = stats_for(config.band_basis_family, config.oracle_alpha, config.oracle_delta)
                oracle_hits["omega"] += omega_event_check(ostats, oracle_levels, mu_true)
                s1, l1 = oracle_check_thm1(ostats, band_basis, oracle_levels, mu_true)
                s2, l2 = oracle_check_thm2(ostats, band_basis, oracle_levels, mu_true)
                oracle_hits["thm1"] += s1 and l1
                oracle_hits["thm2"] += s2 and l2
        except Exception as exc:
            raise RuntimeError(f"replicate {s} failed (panel seed {cfg.seed}): {exc}") from exc

    pass_rates = {}
    provenance = {
        "base_seed": int(config.base_seed),
        "replicates": S,
        "replicate_seeds_head": [c.seed for c in configs[:8]],
        "panel": {
            "n": template.n, "m": template.grid.m,
            "signal": template.signal.kind, "process": template.process.kind,
            "noise_sd": template.noise_sd,
        },
        "band_basis_family": config.band_basis_family,
        "band_alpha": config.band_alpha,
    }
    if any(k.startswith("competitor") for k in config.bands):
        provenance["notes"] = [LS_CENTER_NOTE]
    if config.oracle_checks:
        for tag in ("omega", "thm1", "thm2"):
            pass_rates[tag] = oracle_hits[tag] / S
        thm3_panel = replace(template, seed=int(config.base_seed))
        lhs, rhs, ok = oracle_check_thm3(thm3_panel, S, config.band_basis_family, config.oracle_alpha)
        pass_rates["thm3"] = 1.0 if ok else 0.0
        provenance["thm3"] = {"lhs_mc": lhs, "rhs_bound": rhs}
        provenance["oracle_alpha"] = config.oracle_alpha
        provenance["oracle_delta"] = config.oracle_delta

    sqrt_emse = tuple(float(np.sqrt(np.mean(est_errs[e]))) for e in range(len(config.estimators)))
    sqrt_medmse = tuple(float(np.sqrt(np.median(est_errs[e]))) for e in range(len(config.estimators)))
    return BenchReport(
        estimator_labels=tuple(c.label() for c in config.estimators),
        sqrt_emse=sqrt_emse,
        sqrt_medmse=sqrt_medmse,
        band_kinds=tuple(config.bands),
        coverage=tuple(int(band_cov[b]) / S for b in range(len(config.bands))),
        mean_width=tuple(float(band_width[b]) / S for b in range(len(config.bands))),
        oracle_pass_rates=pass_rates,
        provenance=provenance,
    )
