"""Scores, good-event and risk-bound checks, and the scenario runner."""

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curveband.metrics_bench as mb
from curveband.grid_basis import analyze, fourier_basis, make_grid, synthesize
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    eval_signal,
    generate_panel,
    sigma_k_theoretical,
)
from curveband.estimator import (
    CoefficientStats,
    fit,
    normal_quantile,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
)
from curveband.selector import CandidateSpec
from curveband.metrics_bench import (
    BenchReport,
    ScenarioConfig,
    omega_event_check,
    oracle_check_thm1,
    oracle_check_thm2,
    oracle_check_thm3,
    run_scenario,
)


def _exact_sd_stats(mu_hat, sigma_k, sigma_eps, n, m, alpha, delta, offset=0.0):
    """Stats whose sample SDs sit exactly at (or near) the population value."""
    s_k = np.sqrt(sigma_k**2 + sigma_eps**2 / m) + offset
    z = normal_quantile(alpha / (2.0 * m))
    return CoefficientStats(
        mu_hat=np.asarray(mu_hat, dtype=float), per_curve=np.zeros((n, m)),
        s_k=s_k, n=n, alpha=alpha, delta=delta,
        r_hat=(s_k + delta) * z / np.sqrt(n),
        r_tilde=(s_k + 3.0 * delta) * z / np.sqrt(n),
    )


def test_omega_nesting_holds_at_exact_sd():
    m, n, alpha, delta = 8, 50, 0.05, 0.02
    sigma_k = np.linspace(0.1, 0.5, m)
    levels = theoretical_levels(sigma_k, 0.3, n=n, m=m, alpha=alpha, delta=delta)
    mu = np.linspace(-1.0, 1.0, m)
    st = _exact_sd_stats(mu, sigma_k, 0.3, n, m, alpha, delta)
    # S_k at the population value: r_k <= (S_k+delta)z/sqrt(n) <= r_bar_k and
    # r_bar <= r_tilde, and mu_hat = mu makes the accuracy condition free
    assert omega_event_check(st, levels, mu)


def test_omega_fails_when_sd_drifts():
    m, n, alpha, delta = 8, 50, 0.05, 0.02
    sigma_k = np.linspace(0.1, 0.5, m)
    levels = theoretical_levels(sigma_k, 0.3, n=n, m=m, alpha=alpha, delta=delta)
    mu = np.zeros(m)
    # SD undershooting by more than delta breaks r_hat >= r_k
    st = _exact_sd_stats(mu, sigma_k, 0.3, n, m, alpha, delta, offset=-2.0 * delta)
    assert not omega_event_check(st, levels, mu)
    # SD overshooting by more than delta breaks r_hat <= r_bar
    st = _exact_sd_stats(mu, sigma_k, 0.3, n, m, alpha, delta, offset=2.0 * delta)
    assert not omega_event_check(st, levels, mu)
    # inaccurate mu_hat breaks the first condition
    st = _exact_sd_stats(mu + 1.0, sigma_k, 0.3, n, m, alpha, delta)
    assert not omega_event_check(st, levels, mu)


def test_omega_widened_vs_tilde_margin():
    # r_bar <= r_tilde holds whenever S_k >= population SD - delta; check a
    # hair above the boundary (the exact boundary can round either way)
    m, n, alpha, delta = 4, 25, 0.05, 0.05
    sigma_k = np.full(m, 0.4)
    levels = theoretical_levels(sigma_k, 0.0, n=n, m=m, alpha=alpha, delta=delta)
    st = _exact_sd_stats(np.zeros(m), sigma_k, 0.0, n, m, alpha, delta, offset=-delta + 1e-9)
    assert np.all(levels.r_bar <= st.r_tilde)


def test_omega_mc_frequency_with_generous_delta():
    # at delta wide enough to absorb the sampling spread of S_k the event
    # frequency approaches the accuracy part's 1 - alpha floor
    g = make_grid(64)
    b = fourier_basis(g)
    alpha, delta, n, S = 0.05, 0.2, 100, 120
    cfg = PanelConfig(n=n, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.3, seed=51)
    sigma_k = np.sqrt(sigma_k_theoretical(cfg.process, b))
    levels = theoretical_levels(sigma_k, cfg.noise_sd, n, 64, alpha, delta)
    mu = analyze(eval_signal(cfg.signal, g), b)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(S, dtype=np.uint64)
    hits = 0
    for s in range(S):
        rep = PanelConfig(n=n, grid=g, signal=cfg.signal, process=cfg.process,
                          noise_sd=cfg.noise_sd, seed=int(seeds[s]))
        st = pooled_stats(per_curve_coeffs(generate_panel(rep), b), alpha, delta)
        hits += omega_event_check(st, levels, mu)
    assert hits / S >= 1.0 - alpha - 0.08


def test_thm12_zero_everything_holds():
    g = make_grid(16)
    b = fourier_basis(g)
    panel = CurvePanel(grid=g, Y=np.zeros((4, 16)))
    levels = theoretical_levels(np.zeros(16), 0.0, n=4, m=16, alpha=0.05)
    st = pooled_stats(per_curve_coeffs(panel, b), 0.05)
    for check in (oracle_check_thm1, oracle_check_thm2):
        sup_ok, l2_ok = check(st, b, levels, np.zeros(16))
        assert sup_ok and l2_ok


def test_oracle_checks_reject_stats_at_other_levels():
    g = make_grid(16)
    b = fourier_basis(g)
    pc = per_curve_coeffs(CurvePanel(grid=g, Y=np.zeros((4, 16))), b)
    levels = theoretical_levels(np.zeros(16), 0.0, n=4, m=16, alpha=0.05, delta=0.01)
    mismatched = (
        pooled_stats(pc, 0.1, 0.01),  # alpha
        pooled_stats(pc, 0.05, 0.0),  # delta
        pooled_stats(pc[:3], 0.05, 0.01),  # n
    )
    for st in mismatched:
        with pytest.raises(ValueError, match="do not match the levels"):
            omega_event_check(st, levels, np.zeros(16))
        for check in (oracle_check_thm1, oracle_check_thm2):
            with pytest.raises(ValueError, match="do not match the levels"):
                check(st, b, levels, np.zeros(16))


def test_thm3_zero_signal_ok():
    g = make_grid(32)
    cfg = PanelConfig(n=50, grid=g, signal=SignalSpec(kind="signal1", c1=0.0, c2=0.0),
                      process=ProcessSpec(kind="bb"), noise_sd=0.2, seed=8)
    lhs, rhs, ok = oracle_check_thm3(cfg, S=60)
    assert ok
    # no true coefficient survives, so the bound is its second term alone
    assert lhs < rhs


def test_thm3_white_noise_rhs_formula():
    # iid process (AR with phi=0): sigma_k^2 = tau^2/m for every k, making
    # the bound hand-computable
    g = make_grid(16)
    tau, se, n, alpha = 0.5, 0.3, 40, 0.05
    cfg = PanelConfig(n=n, grid=g, signal=SignalSpec(kind="signal1", c1=0.0, c2=0.0),
                      process=ProcessSpec(kind="ar1", ar_phi=0.0, innovation_sd=tau),
                      noise_sd=se, seed=2)
    _, rhs, ok = oracle_check_thm3(cfg, S=10)
    m = 16
    z = normal_quantile(alpha / (2.0 * m))
    r2 = (tau**2 / m + se**2 / m) / n * z**2
    var_k = tau**2 / m / n + se**2 / (m * n)
    expect = (4.0 * alpha / m) * m * (r2 + var_k)
    assert rhs == pytest.approx(expect, abs=1e-12)
    assert ok


def test_thm3_full_scenario_reduced():
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    cfg = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                      noise_sd=cal.noise_sd, seed=77)
    lhs, rhs, ok = oracle_check_thm3(cfg, S=100)
    assert ok
    with pytest.raises(ValueError):
        oracle_check_thm3(cfg, S=1)
    with pytest.raises(ValueError, match="unknown basis family"):
        oracle_check_thm3(cfg, S=2, basis_family="wavelet")


def _scenario(n=30, m=32, S=5, seed=123, bands=(), oracle=False, noise_sd=0.25,
              estimators=(CandidateSpec("fourier", "hard", 1),)):
    g = make_grid(m)
    panel = PanelConfig(n=n, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                        noise_sd=noise_sd, seed=0)
    return ScenarioConfig(panel=panel, estimators=estimators, bands=bands,
                          replicates=S, base_seed=seed, oracle_checks=oracle)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _scenario(S=0)
    with pytest.raises(ValueError):
        _scenario(estimators=())
    with pytest.raises(ValueError):
        _scenario(bands=("mystery",))
    # alpha and delta fields are checked even when no band or oracle reads them
    base = _scenario()
    for field, bad in (("band_alpha", 1.5), ("band_alpha", 0.0), ("band_alpha", float("nan")),
                       ("oracle_alpha", 1.0), ("oracle_alpha", -0.1), ("oracle_delta", -0.01),
                       ("oracle_delta", float("nan")), ("oracle_delta", float("inf")),
                       ("oracle_checks", "false"), ("oracle_checks", 1)):
        with pytest.raises(ValueError, match=field):
            replace(base, **{field: bad})
    # thm3's MC standard error needs two replicates; a single one used to
    # fail only after every replicate had run
    with pytest.raises(ValueError, match="replicates >= 2"):
        _scenario(S=1, oracle=True)
    with pytest.raises(ValueError, match="replicates >= 2"):
        replace(_scenario(S=2, oracle=True), replicates=1)


def test_run_scenario_single_replicate_echo():
    cfg = _scenario(S=1)
    rep = run_scenario(cfg)
    assert rep.sqrt_emse == rep.sqrt_medmse
    # recompute the lone replicate from the derived seed contract
    seed = int(np.random.SeedSequence(cfg.base_seed).generate_state(1, dtype=np.uint64)[0])
    g = cfg.panel.grid
    b = fourier_basis(g)
    panel = generate_panel(PanelConfig(n=cfg.panel.n, grid=g, signal=cfg.panel.signal,
                                       process=cfg.panel.process, noise_sd=cfg.panel.noise_sd,
                                       seed=seed))
    st = pooled_stats(per_curve_coeffs(panel, b), 0.05)
    f = eval_signal(cfg.panel.signal, g)
    direct = np.sqrt(np.mean((fit("hard", st, b, 1).values - f) ** 2))
    assert rep.sqrt_emse[0] == pytest.approx(direct, abs=1e-14)
    assert rep.provenance["replicate_seeds_head"][0] == seed


def test_run_scenario_deterministic_and_serializable():
    cfg = _scenario(S=4, bands=("proposed_hard1", "competitor_sample_var"))
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.as_dict() == r2.as_dict()
    payload = json.dumps(r1.as_dict())
    assert "least-squares" in payload  # substitution note travels with the report


def test_run_scenario_medmse_bracketed_by_replicates():
    cfg = _scenario(S=7)
    rep = run_scenario(cfg)
    seeds = np.random.SeedSequence(cfg.base_seed).generate_state(7, dtype=np.uint64)
    g = cfg.panel.grid
    b = fourier_basis(g)
    f = eval_signal(cfg.panel.signal, g)
    roots = []
    for s in range(7):
        panel = generate_panel(PanelConfig(n=cfg.panel.n, grid=g, signal=cfg.panel.signal,
                                           process=cfg.panel.process,
                                           noise_sd=cfg.panel.noise_sd, seed=int(seeds[s])))
        st = pooled_stats(per_curve_coeffs(panel, b), 0.05)
        roots.append(np.sqrt(np.mean((fit("hard", st, b, 1).values - f) ** 2)))
    assert min(roots) <= rep.sqrt_medmse[0] <= max(roots)
    assert rep.sqrt_emse[0] == pytest.approx(np.sqrt(np.mean(np.square(roots))), abs=1e-12)


def test_run_scenario_oracle_rates_reduced():
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    panel = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                        noise_sd=cal.noise_sd, seed=0)
    cfg = ScenarioConfig(panel=panel, estimators=(CandidateSpec("fourier", "hard", 1),),
                         replicates=100, base_seed=9, oracle_checks=True)
    rep = run_scenario(cfg)
    assert rep.oracle_pass_rates["thm1"] >= 0.95
    assert rep.oracle_pass_rates["thm2"] >= 0.95
    assert rep.oracle_pass_rates["thm3"] == 1.0
    assert rep.provenance["thm3"]["lhs_mc"] <= rep.provenance["thm3"]["rhs_bound"]


def test_run_scenario_table_orderings():
    # smooth-signal benchmark: thresholding beats plain least squares, and
    # the trigonometric family beats the wavelet family, in root-EMSE
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    panel = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                        noise_sd=cal.noise_sd, seed=0)
    ests = (
        CandidateSpec("fourier", "hard", 1),
        CandidateSpec("fourier", "least_squares"),
        CandidateSpec("haar", "hard", 1),
    )
    rep = run_scenario(ScenarioConfig(panel=panel, estimators=ests, replicates=40, base_seed=5))
    ht_fourier, ls_fourier, ht_haar = rep.sqrt_emse
    assert ht_fourier < ls_fourier
    assert ht_fourier < ht_haar


def test_run_scenario_analyses_each_family_once_per_replicate(monkeypatch):
    # two estimator families, the band family shared with one of them, and
    # oracle stats at their own delta: each replicate analyses each family
    # once, and only thm3, which simulates its own panels, analyses again
    cfg = _scenario(S=3, bands=("proposed_hard1",), oracle=True,
                    estimators=(CandidateSpec("fourier", "hard", 1), CandidateSpec("haar", "hard", 2)))
    calls = []
    real = mb.per_curve_coeffs

    def counting(panel, basis):
        calls.append(basis.family)
        return real(panel, basis)

    monkeypatch.setattr(mb, "per_curve_coeffs", counting)
    run_scenario(cfg)
    assert sorted(calls) == ["fourier"] * (2 * 3) + ["haar"] * 3


def test_run_scenario_failure_carries_replicate_seed(monkeypatch):
    cfg = _scenario(S=3)

    def boom(config):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(mb, "generate_panel", boom)
    with pytest.raises(RuntimeError, match=r"replicate 0 failed \(panel seed \d+\)"):
        run_scenario(cfg)


def test_bench_report_validation():
    with pytest.raises(ValueError):
        BenchReport(estimator_labels=("a",), sqrt_emse=(-1.0,), sqrt_medmse=(0.0,),
                    band_kinds=(), coverage=(), mean_width=(),
                    oracle_pass_rates={}, provenance={})
    with pytest.raises(ValueError):
        BenchReport(estimator_labels=("a",), sqrt_emse=(1.0,), sqrt_medmse=(0.5,),
                    band_kinds=(), coverage=(), mean_width=(),
                    oracle_pass_rates={"thm1": 1.2}, provenance={})
