"""The replicate engine's single scoring pass against a loop of
single-replicate calls.

bands.each_replicate pools each replicate's coefficients as it goes and
hands its body every replicate at once. Every report must still equal, bit
for bit, what one replicate at a time gives, and a failure inside the
stacked body must still name its replicate. A competitor coverage run
centres at the mean curve's analysis instead of the pooled per-curve one;
its reports must still equal the per-curve loop's.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import curveband.metrics_bench as mb
from curveband import bands
from curveband.bands import BAND_KINDS, COMPETITOR_KINDS, ConfidenceBand, _build_band, coverage_experiment, covers
from curveband.estimator import (
    fit,
    normal_quantile,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from curveband.grid_basis import BASIS_FAMILIES, analyze, basis_for, make_grid, synthesize
from curveband.metrics_bench import (
    ScenarioConfig,
    omega_event_check,
    oracle_check_thm1,
    oracle_check_thm2,
    oracle_check_thm3,
    run_scenario,
)
from curveband.process_sim import (
    PROCESS_KINDS,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    eval_signal,
    generate_panel,
    process_variance,
    replicate_configs,
    sigma_k_theoretical,
)
from curveband.selector import CandidateSpec

N, M = 64, 64
# S = 17 sums more than the 8 values below which numpy's pairwise sum adds in order
SIZES = (1, 5, 17)
ESTIMATORS = (
    CandidateSpec("fourier", "hard", 1),
    CandidateSpec("fourier", "least_squares"),
    CandidateSpec("haar", "soft", 2),
    CandidateSpec("haar", "hard", 2, alpha=0.1),
)


def _hex(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


@functools.cache
def _calibrated(kind, m):
    grid = make_grid(m)
    cal = calibrate(ProcessSpec(kind=kind), grid, 1.0, 4.25, SignalSpec())
    return PanelConfig(n=N, grid=grid, signal=cal.signal, process=cal.process, noise_sd=cal.noise_sd, seed=17)


@pytest.fixture(scope="module")
def panel():
    return _calibrated("ar1", M)


def _coeffs(cfg, basis):
    return per_curve_coeffs(generate_panel(cfg), basis)


def _reference_band(kind, basis, stats, variance):
    """One replicate's band: a coefficient band through _build_band, a
    competitor band inline, at the least-squares fit of the pooled per-curve
    means plus and minus sqrt(V/n) z(alpha/2m)."""
    if kind not in COMPETITOR_KINDS:
        return _build_band(kind, basis, stats)
    half = np.sqrt(variance / stats.n) * normal_quantile(stats.alpha / (2.0 * basis.m))
    return ConfidenceBand(kind=kind, center=synthesize(stats.mu_hat, basis), half_width=half, alpha=stats.alpha)


def _reference_thm3_errors(scenario, S, family, alpha):
    basis = basis_for(family, scenario.grid)
    mu = analyze(eval_signal(scenario.signal, scenario.grid), basis)
    sigma_k = np.sqrt(sigma_k_theoretical(scenario.process, basis))
    levels = theoretical_levels(sigma_k, scenario.noise_sd, scenario.n, alpha)
    _, target = truncated_target(mu, levels.r_k, basis)
    errs = []
    for cfg in replicate_configs(scenario, scenario.seed, S):
        _, values = truncated_target(_coeffs(cfg, basis).mean(axis=0), 2.0 * levels.r_k, basis)
        errs.append(np.mean((values - target) ** 2))
    return errs


def _reference_run(config):
    """run_scenario's statistics, one replicate at a time."""
    t, S = config.panel, config.replicates
    f = eval_signal(t.signal, t.grid)
    bases = {fam: basis_for(fam, t.grid) for fam in BASIS_FAMILIES}
    bb = bases[config.band_basis_family]
    mu_true = analyze(f, bb)
    levels = theoretical_levels(np.sqrt(sigma_k_theoretical(t.process, bb)), t.noise_sd, t.n,
                                config.oracle_alpha, config.oracle_delta)
    var = process_variance(t.process, t.grid)
    errs, hits, widths = [], [0] * len(config.bands), [0.0] * len(config.bands)
    oracle = {"omega": 0, "thm1": 0, "thm2": 0}
    for cfg in replicate_configs(t, config.base_seed, S):
        panel = generate_panel(cfg)
        coeffs = {fam: per_curve_coeffs(panel, b) for fam, b in bases.items()}
        errs.append([
            np.mean((fit(c.rule, pooled_stats(coeffs[c.basis_family], c.alpha), bases[c.basis_family],
                         c.multiplier).values - f) ** 2)
            for c in config.estimators
        ])
        bstats = pooled_stats(coeffs[config.band_basis_family], config.band_alpha)
        for b, kind in enumerate(config.bands):
            v = panel.Y.var(axis=0, ddof=1) if kind == "competitor_sample_var" else var
            band = _reference_band(kind, bb, bstats, v)
            hits[b] += covers(band, f)
            widths[b] += float(np.mean(2.0 * band.half_width))
        if config.oracle_checks:
            ostats = pooled_stats(coeffs[config.band_basis_family], config.oracle_alpha, config.oracle_delta)
            oracle["omega"] += omega_event_check(ostats, levels, mu_true)
            oracle["thm1"] += all(oracle_check_thm1(ostats, bb, levels, mu_true))
            oracle["thm2"] += all(oracle_check_thm2(ostats, bb, levels, mu_true))
    rows = np.array(errs).T
    out = {
        "estimators": [
            {"label": c.label(), "sqrt_emse": float(np.sqrt(np.mean(row))),
             "sqrt_medmse": float(np.sqrt(np.median(row)))}
            for c, row in zip(config.estimators, rows)
        ],
        "bands": [
            {"kind": k, "coverage": h / S, "mean_width": w / S} for k, h, w in zip(config.bands, hits, widths)
        ],
        "oracle_pass_rates": {},
    }
    if config.oracle_checks:
        out["oracle_pass_rates"] = {tag: h / S for tag, h in oracle.items()}
        thm3 = _reference_thm3_errors(replace(t, seed=config.base_seed), S, config.band_basis_family,
                                      config.oracle_alpha)
        out["lhs_mc"] = float(np.mean(thm3))
    return out


@pytest.mark.parametrize("family", BASIS_FAMILIES)
@pytest.mark.parametrize("S", SIZES)
def test_run_scenario_equals_the_single_replicate_loop(panel, family, S):
    oracle = S >= 2  # thm3 needs two replicates for its standard error
    config = ScenarioConfig(panel=panel, estimators=ESTIMATORS, bands=BAND_KINDS, replicates=S, base_seed=23,
                            band_basis_family=family, oracle_checks=oracle)
    got = run_scenario(config).as_dict()
    want = _reference_run(config)
    if oracle:
        assert _hex(got["provenance"]["thm3"]["lhs_mc"]) == _hex(want.pop("lhs_mc"))
        assert set(got["oracle_pass_rates"]) == {"omega", "thm1", "thm2", "thm3"}
        del got["oracle_pass_rates"]["thm3"]
    del got["provenance"]
    assert _hex(got) == _hex(want)


def _check_coverage_against_the_single_replicate_loop(panel, kind, family):
    """Each kind's report on both targets equals the loop that analyses and
    pools every replicate's curves one at a time."""
    basis = basis_for(family, panel.grid)
    f = eval_signal(panel.signal, panel.grid)
    var = process_variance(panel.process, panel.grid)
    levels = theoretical_levels(np.sqrt(sigma_k_theoretical(panel.process, basis)), panel.noise_sd, panel.n, 0.05)
    targets = {"true_mean": f, "truncated_target": truncated_target(analyze(f, basis), 2.0 * levels.r_bar, basis)[1]}
    for target_kind, target in targets.items():
        for S in SIZES:
            covered, width = 0, 0.0
            for cfg in replicate_configs(panel, panel.seed, S):
                pc = _coeffs(cfg, basis)
                v = generate_panel(cfg).Y.var(axis=0, ddof=1) if kind == "competitor_sample_var" else var
                band = _reference_band(kind, basis, pooled_stats(pc, 0.05), v)
                covered += covers(band, target)
                width += float(np.mean(2.0 * band.half_width))
            rep = coverage_experiment(panel, kind, S, target_kind=target_kind, basis_family=family)
            assert type(rep.covered_count) is int and type(rep.mean_width) is float
            assert (rep.covered_count, rep.mean_width.hex()) == (covered, (width / S).hex())


@pytest.mark.parametrize("kind", BAND_KINDS)
def test_coverage_experiment_equals_the_single_replicate_loop(panel, kind):
    _check_coverage_against_the_single_replicate_loop(panel, kind, "fourier")


@pytest.mark.parametrize("m", (16, 24, 64))
@pytest.mark.parametrize("process", PROCESS_KINDS)
@pytest.mark.parametrize("family", BASIS_FAMILIES)
@pytest.mark.parametrize("kind", COMPETITOR_KINDS)
def test_a_competitor_centred_at_the_mean_curve_scores_as_the_per_curve_loop(kind, family, process, m):
    _check_coverage_against_the_single_replicate_loop(_calibrated(process, m), kind, family)


@pytest.mark.parametrize("kind", COMPETITOR_KINDS)
def test_a_competitor_coverage_run_draws_each_panel_once_and_analyses_no_curve(panel, kind, monkeypatch):
    drawn, analysed = [], []

    def drawing(config):
        drawn.append(config.seed)
        return generate_panel(config)

    def analysing(panel, basis):
        analysed.append(basis.family)
        return per_curve_coeffs(panel, basis)

    monkeypatch.setattr(bands, "generate_panel", drawing)
    monkeypatch.setattr(bands, "per_curve_coeffs", analysing)
    S = 5
    coverage_experiment(panel, kind, S, target_kind="truncated_target", basis_family="haar")
    assert drawn == [cfg.seed for cfg in replicate_configs(panel, panel.seed, S)]
    assert analysed == []
    coverage_experiment(panel, "proposed_hard3", S)
    assert analysed == ["fourier"] * S


@pytest.mark.parametrize("family", BASIS_FAMILIES)
def test_thm3_equals_the_single_replicate_loop(panel, family):
    for S in (2, *SIZES[1:]):
        errs = _reference_thm3_errors(panel, S, family, 0.05)
        lhs, rhs, ok = oracle_check_thm3(panel, S, family)
        assert lhs.hex() == float(np.mean(errs)).hex()
        se = float(np.std(errs, ddof=1) / np.sqrt(S))
        assert ok is (lhs <= rhs * (1.0 + 3.0 * se / lhs))


def _failing_on(real, marker):
    """real, except that it raises when any row of its first argument, or of
    that argument's pooled means, is marker."""

    def wrapped(x, *args, **kwargs):
        rows = np.asarray(getattr(x, "mu_hat", x)).reshape(-1, *marker.shape)
        if any(np.array_equal(s, marker) for s in rows):
            raise ValueError("synthetic failure")
        return real(x, *args, **kwargs)

    return wrapped


def test_a_failure_inside_a_chunk_names_its_replicate(panel, monkeypatch):
    # the scoring fails on replicate 2's pooled means, in the middle of the stack
    S, base_seed = 6, 31
    cfg2 = replicate_configs(panel, base_seed, S)[2]
    means2 = _coeffs(cfg2, basis_for("fourier", panel.grid)).mean(axis=0)
    expect = rf"replicate 2 failed \(panel seed {cfg2.seed}\): synthetic failure"

    config = ScenarioConfig(panel=panel, estimators=ESTIMATORS[:1], bands=("proposed_hard1",), replicates=S,
                            base_seed=base_seed, oracle_checks=True)
    with monkeypatch.context() as patch:
        patch.setattr(mb, "pooled_stats", _failing_on(pooled_stats, means2))
        with pytest.raises(RuntimeError, match=expect):
            run_scenario(config)

    seeded = replace(panel, seed=base_seed)
    with monkeypatch.context() as patch:
        patch.setattr(bands, "pooled_stats", _failing_on(pooled_stats, means2))
        with pytest.raises(RuntimeError, match=expect):
            coverage_experiment(seeded, "proposed_hard1", S)

    with monkeypatch.context() as patch:
        patch.setattr(mb, "truncated_target", _failing_on(truncated_target, means2))
        with pytest.raises(RuntimeError, match=expect):
            oracle_check_thm3(seeded, S)
