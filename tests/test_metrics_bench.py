"""Scores, good-event and risk-bound checks, and the scenario runner."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from curveband import bands, grid_basis, process_sim
from curveband.bands import coverage_experiment
from curveband.grid_basis import analyze, fourier_basis, make_grid
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    eval_signal,
    generate_panel,
    replicate_configs,
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
        mu_hat=np.asarray(mu_hat, dtype=float), n=n,
        s_k=s_k, alpha=alpha, delta=delta,
        r_hat=(s_k + delta) * z / np.sqrt(n),
        r_tilde=(s_k + 3.0 * delta) * z / np.sqrt(n),
    )


def test_omega_nesting_holds_at_exact_sd():
    m, n, alpha, delta = 8, 50, 0.05, 0.02
    sigma_k = np.linspace(0.1, 0.5, m)
    levels = theoretical_levels(sigma_k, 0.3, n=n, alpha=alpha, delta=delta)
    mu = np.linspace(-1.0, 1.0, m)
    st = _exact_sd_stats(mu, sigma_k, 0.3, n, m, alpha, delta)
    # S_k at the population value: r_k <= (S_k+delta)z/sqrt(n) <= r_bar_k and
    # r_bar <= r_tilde, and mu_hat = mu makes the accuracy condition free
    assert omega_event_check(st, levels, mu)


def test_omega_fails_when_sd_drifts():
    m, n, alpha, delta = 8, 50, 0.05, 0.02
    sigma_k = np.linspace(0.1, 0.5, m)
    levels = theoretical_levels(sigma_k, 0.3, n=n, alpha=alpha, delta=delta)
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
    levels = theoretical_levels(sigma_k, 0.0, n=n, alpha=alpha, delta=delta)
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
    levels = theoretical_levels(sigma_k, cfg.noise_sd, n, alpha, delta)
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
    panel = CurvePanel(Y=np.zeros((4, 16)))
    levels = theoretical_levels(np.zeros(16), 0.0, n=4, alpha=0.05)
    st = pooled_stats(per_curve_coeffs(panel, b), 0.05)
    for check in (oracle_check_thm1, oracle_check_thm2):
        sup_ok, l2_ok = check(st, b, levels, np.zeros(16))
        assert sup_ok and l2_ok


def test_oracle_checks_reject_stats_at_other_levels():
    g = make_grid(16)
    b = fourier_basis(g)
    pc = per_curve_coeffs(CurvePanel(Y=np.zeros((4, 16))), b)
    levels = theoretical_levels(np.zeros(16), 0.0, n=4, alpha=0.05, delta=0.01)
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


@pytest.mark.parametrize("check", [
    lambda st, b, levels, mu: omega_event_check(st, levels, mu), oracle_check_thm1, oracle_check_thm2,
], ids=["omega", "thm1", "thm2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracle_checks_reject_a_nonfinite_true_mean(check, bad):
    # a NaN true coefficient would read as a failed check
    b = fourier_basis(make_grid(16))
    levels = theoretical_levels(np.zeros(16), 0.0, n=4, alpha=0.05)
    st = pooled_stats(per_curve_coeffs(CurvePanel(Y=np.zeros((4, 16))), b), 0.05)
    mu = np.zeros(16)
    mu[3] = bad
    with pytest.raises(ValueError, match="mu_true must be finite"):
        check(st, b, levels, mu)


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
    for bad in [1, 2.5, 3.0, True]:
        with pytest.raises(ValueError, match="S >= "):
            oracle_check_thm3(cfg, S=bad)
    with pytest.raises(ValueError, match="unknown basis family"):
        oracle_check_thm3(cfg, S=2, basis_family="wavelet")


def test_thm3_rejects_a_bad_alpha_before_it_reads_sigma_k():
    # a process no other test uses, so reading its sigma_k would be a cache miss
    g = make_grid(16)
    cfg = PanelConfig(n=10, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="arima11", ar_phi=0.123),
                      noise_sd=0.1, seed=0)
    misses = process_sim._cached_sigma_k.cache_info().misses
    for bad in [2.0, 0.0, float("nan")]:
        with pytest.raises(ValueError, match=r"^alpha must be in \(0,1\)"):
            oracle_check_thm3(cfg, 2, alpha=bad)
    assert process_sim._cached_sigma_k.cache_info().misses == misses


def test_the_truth_is_read_only_where_a_level_is():
    # processes no other test uses, so every sigma_k read would be a cache miss
    cfg = PanelConfig(n=10, grid=make_grid(16), signal=SignalSpec(), process=ProcessSpec(kind="ar1", ar_phi=0.234),
                      noise_sd=0.1, seed=0)
    scen = ScenarioConfig(panel=replace(cfg, process=ProcessSpec(kind="ar1", ar_phi=0.235)),
                          estimators=(CandidateSpec("fourier", "hard", 1),), bands=bands.BAND_KINDS, replicates=2)
    misses = process_sim._cached_sigma_k.cache_info().misses
    for kind in bands.BAND_KINDS:
        coverage_experiment(cfg, kind, S=2, target_kind="true_mean")
    run_scenario(scen)
    assert process_sim._cached_sigma_k.cache_info().misses == misses
    # one entry per basis, read again by every kind and by thm3
    for family in ("fourier", "haar"):
        for kind in bands.BAND_KINDS:
            coverage_experiment(cfg, kind, S=2, target_kind="truncated_target", basis_family=family)
        run_scenario(replace(scen, band_basis_family=family, oracle_checks=True))
    assert process_sim._cached_sigma_k.cache_info().misses == misses + 4


def _scenario(n=30, m=32, S=5, seed=123, bands=(), oracle=False, noise_sd=0.25,
              estimators=(CandidateSpec("fourier", "hard", 1),)):
    g = make_grid(m)
    panel = PanelConfig(n=n, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                        noise_sd=noise_sd, seed=0)
    return ScenarioConfig(panel=panel, estimators=estimators, bands=bands,
                          replicates=S, base_seed=seed, oracle_checks=oracle)


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, "3", -1])
@pytest.mark.parametrize("where", ["seed", "base_seed"])
def test_seeds_are_checked_before_anything_is_drawn(where, bad):
    # numpy would draw with True as seed 1 and fail later on the others
    with pytest.raises(ValueError, match=rf"^{where} must be a whole number >= 0"):
        if where == "seed":
            PanelConfig(n=2, grid=make_grid(4), signal=SignalSpec(), process=ProcessSpec(), noise_sd=0.1, seed=bad)
        else:
            _scenario(seed=bad)
    assert PanelConfig(n=2, grid=make_grid(4), signal=SignalSpec(), process=ProcessSpec(),
                       noise_sd=0.1, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert _scenario(seed=0).base_seed == 0


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _scenario(S=0)
    with pytest.raises(ValueError):
        _scenario(estimators=())
    with pytest.raises(ValueError):
        _scenario(bands=("mystery",))
    # bool("false") would be True
    base = _scenario()
    for field, bad in (("oracle_checks", "false"), ("oracle_checks", 1)):
        with pytest.raises(ValueError, match=field):
            replace(base, **{field: bad})
    # thm3's MC standard error needs two replicates; a single one used to
    # fail only after every replicate had run
    with pytest.raises(ValueError, match="replicates >= 2"):
        _scenario(S=1, oracle=True)
    with pytest.raises(ValueError, match="replicates >= 2"):
        replace(_scenario(S=2, oracle=True), replicates=1)
    # a setting the run would not read was once taken silently, and echoed
    for field, value, needs in (("oracle_alpha", 0.3, "oracle_checks"), ("oracle_delta", 0.9, "oracle_checks"),
                                ("band_alpha", 0.5, "bands"), ("band_basis_family", "haar", "neither")):
        with pytest.raises(ValueError, match=f"{field} would be ignored: .*{needs}"):
            replace(base, **{field: value})
        replace(base, **{field: getattr(base, field)})  # its default is accepted
    replace(_scenario(S=2, oracle=True), oracle_alpha=0.3, oracle_delta=0.9, band_basis_family="haar")
    replace(_scenario(bands=("proposed_hard1",)), band_alpha=0.5, band_basis_family="haar")
    with pytest.raises(ValueError, match="oracle_alpha would be ignored"):
        replace(_scenario(bands=("proposed_hard1",)), oracle_alpha=0.3)
    # the report tells its rows apart by label and by kind alone
    hard = CandidateSpec("haar", "hard", 1)
    with pytest.raises(ValueError, match=re.escape("estimators[2] repeats the label haar-ht1r-a0.05 of estimators[0]")):
        _scenario(estimators=(hard, CandidateSpec("fourier", "hard", 1), CandidateSpec("haar", "hard", 1.0)))
    with pytest.raises(ValueError, match=re.escape("estimators[1] repeats the label fourier-ls of estimators[0]")):
        _scenario(estimators=[CandidateSpec("fourier", "least_squares")] * 2)
    with pytest.raises(ValueError, match=re.escape("bands[1] repeats the kind proposed_hard1 of bands[0]")):
        _scenario(bands=("proposed_hard1", "proposed_hard1"))
    with pytest.raises(ValueError, match=re.escape("bands[2] repeats the kind untruncated_ls of bands[0]")):
        _scenario(bands=["untruncated_ls", "proposed_soft2", "untruncated_ls"])


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


def test_calibrating_and_running_a_scenario_leave_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call, about 13 ms of every
    # fresh process that calibrates
    src = os.path.dirname(os.path.dirname(process_sim.__file__))
    child = f"""
import sys
sys.path.insert(0, {src!r})
import curveband as cb
grid = cb.make_grid(16)
cal = cb.calibrate(cb.ProcessSpec(kind="arima11"), grid, 1.0, 1.5, cb.SignalSpec())
panel = cb.PanelConfig(n=8, grid=grid, signal=cal.signal, process=cal.process, noise_sd=cal.noise_sd, seed=1)
cb.run_scenario(cb.ScenarioConfig(panel=panel, estimators=(cb.CandidateSpec("fourier", "hard"),), replicates=2))
print("numpy.ma" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


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
    real = bands.per_curve_coeffs

    def counting(panel, basis):
        calls.append(basis.family)
        return real(panel, basis)

    monkeypatch.setattr(bands, "per_curve_coeffs", counting)
    run_scenario(cfg)
    assert sorted(calls) == ["fourier"] * (2 * 3) + ["haar"] * 3


def test_a_competitor_only_run_analyses_no_curve_on_the_band_family(monkeypatch):
    # competitor bands centre at the fit of the mean curve, so a band family
    # that no estimator and no oracle check reads is analysed for no curve;
    # the bands score as coverage_experiment's on the same panels
    cfg = replace(_scenario(S=3, bands=bands.COMPETITOR_KINDS), band_basis_family="haar")
    calls = []
    real = bands.per_curve_coeffs

    def counting(panel, basis):
        calls.append(basis.family)
        return real(panel, basis)

    monkeypatch.setattr(bands, "per_curve_coeffs", counting)
    report = run_scenario(cfg)
    assert calls == ["fourier"] * 3
    seeded = replace(cfg.panel, seed=cfg.base_seed)
    for kind, coverage, width in zip(report.band_kinds, report.coverage, report.mean_width):
        rep = coverage_experiment(seeded, kind, 3, basis_family="haar")
        assert (rep.coverage, rep.mean_width.hex()) == (coverage, width.hex())
    assert calls == ["fourier"] * 3


def test_a_run_scoring_both_competitor_kinds_analyses_the_mean_curves_once(monkeypatch):
    # both competitor bands centre at the fit of the one (S, m) stack of mean
    # curves, so one analysis serves both
    shapes = []
    real = bands.analyze

    def counting(values, basis):
        shapes.append(np.shape(values))
        return real(values, basis)

    monkeypatch.setattr(bands, "analyze", counting)
    for oracle in (False, True):
        shapes.clear()
        run_scenario(_scenario(S=4, bands=bands.COMPETITOR_KINDS, oracle=oracle))
        assert shapes.count((4, 32)) == 1


def test_run_scenario_failure_carries_replicate_seed(monkeypatch):
    cfg = _scenario(S=3)

    def boom(config):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(bands, "generate_panel", boom)
    with pytest.raises(RuntimeError, match=r"replicate 0 failed \(panel seed \d+\)"):
        run_scenario(cfg)


def test_thm3_failure_carries_replicate_seed(monkeypatch):
    # thm3 draws the main loop's panels again, so its 2nd replicate is the
    # 5th draw of an S=3 run and carries the main loop's 2nd seed
    cfg = _scenario(S=3, oracle=True)
    seed = int(np.random.SeedSequence(cfg.base_seed).generate_state(3, dtype=np.uint64)[1])
    calls = []

    def fail_fifth(config):
        calls.append(config.seed)
        if len(calls) == 5:
            raise ValueError("synthetic failure")
        return generate_panel(config)

    monkeypatch.setattr(bands, "generate_panel", fail_fifth)
    expect = rf"replicate 1 failed \(panel seed {seed}\): synthetic failure"
    with pytest.raises(RuntimeError, match=expect):
        run_scenario(cfg)
    # called directly, thm3 fails on its own 2nd draw, again the 5th call
    del calls[3:]
    with pytest.raises(RuntimeError, match=expect):
        oracle_check_thm3(replace(cfg.panel, seed=cfg.base_seed), S=3)


def test_every_replicated_experiment_draws_the_replicate_seeds_through_bands(monkeypatch):
    # run_scenario's replicates and its thm3 check, coverage_experiment and a
    # direct thm3 call all simulate through the one engine in bands, each
    # drawing the replicate_configs seeds in order
    cfg = _scenario(S=3, bands=("proposed_hard1",), oracle=True)
    want = [c.seed for c in replicate_configs(cfg.panel, cfg.base_seed, 3)]
    seeds = []

    def recording(config):
        seeds.append(config.seed)
        return generate_panel(config)

    monkeypatch.setattr(bands, "generate_panel", recording)
    run_scenario(cfg)
    assert seeds == want + want
    seeded = replace(cfg.panel, seed=cfg.base_seed)
    seeds.clear()
    coverage_experiment(seeded, "proposed_hard1", 3)
    assert seeds == want
    seeds.clear()
    oracle_check_thm3(seeded, 3)
    assert seeds == want


def test_warm_replicated_runs_read_no_grid_points(monkeypatch):
    # a grid computes its points on each read, which pays only while no
    # replicate reads them: once every cache is warm, a run with oracle
    # checks, every band kind and both families, and a coverage experiment
    # per target, read Grid.points zero times
    estimators = tuple(CandidateSpec(family, rule, 1) for family in ("fourier", "haar")
                       for rule in ("hard", "soft", "least_squares"))
    cfg = _scenario(m=64, S=3, bands=bands.BAND_KINDS, oracle=True, estimators=estimators)
    seeded = replace(cfg.panel, seed=cfg.base_seed)

    def runs():
        run_scenario(cfg)
        for target in ("true_mean", "truncated_target"):
            coverage_experiment(seeded, "proposed_hard3", 3, target_kind=target)

    runs()
    reads, real = [], grid_basis.Grid.points

    def counted(grid):
        reads.append(grid.m)
        return real.fget(grid)

    monkeypatch.setattr(grid_basis.Grid, "points", property(counted))
    runs()
    assert reads == []


@pytest.mark.parametrize("field, value", [
    ("sqrt_emse", np.nan), ("sqrt_emse", np.inf),
    ("sqrt_medmse", np.nan), ("sqrt_medmse", -np.inf), ("sqrt_medmse", -1.0),
    ("mean_width", np.nan), ("mean_width", np.inf), ("mean_width", -1.0),
    ("coverage", np.nan), ("coverage", -0.5), ("coverage", 1.5),
])
def test_bench_report_rejects(field, value):
    good = dict(estimator_labels=("a",), sqrt_emse=(1.0,), sqrt_medmse=(0.5,), band_kinds=("proposed_hard1",),
                coverage=(1.0,), mean_width=(0.2,), oracle_pass_rates={}, provenance={})
    BenchReport(**good)
    with pytest.raises(ValueError, match=field):
        BenchReport(**{**good, field: (value,)})


@pytest.mark.parametrize("field, value, match", [
    ("estimator_labels", ("a", "b"), "estimator_labels, sqrt_emse, sqrt_medmse must be of one length"),
    ("sqrt_emse", (1.0, 2.0), "estimator_labels, sqrt_emse, sqrt_medmse must be of one length"),
    ("sqrt_medmse", (), "estimator_labels, sqrt_emse, sqrt_medmse must be of one length"),
    ("band_kinds", ("proposed_hard1", "proposed_hard3"), "band_kinds, coverage, mean_width must be of one length"),
    ("coverage", (), "band_kinds, coverage, mean_width must be of one length"),
    ("mean_width", (0.2, 0.3), "band_kinds, coverage, mean_width must be of one length"),
    ("band_kinds", ("bootstrap",), "unknown band kind 'bootstrap'"),
], ids=["labels-long", "emse-long", "medmse-short", "kinds-long", "coverage-short", "width-long", "unknown-kind"])
def test_bench_report_rejects_parallel_fields_it_would_drop(field, value, match):
    # as_dict and the bench CSV zip these tuples, so a mismatch would drop values without a word
    good = dict(estimator_labels=("a",), sqrt_emse=(1.0,), sqrt_medmse=(0.5,), band_kinds=("proposed_hard1",),
                coverage=(1.0,), mean_width=(0.2,), oracle_pass_rates={}, provenance={})
    with pytest.raises(ValueError, match=match):
        BenchReport(**{**good, field: value})


def test_bench_report_validation():
    with pytest.raises(ValueError):
        BenchReport(estimator_labels=("a",), sqrt_emse=(-1.0,), sqrt_medmse=(0.0,),
                    band_kinds=(), coverage=(), mean_width=(),
                    oracle_pass_rates={}, provenance={})
    with pytest.raises(ValueError):
        BenchReport(estimator_labels=("a",), sqrt_emse=(1.0,), sqrt_medmse=(0.5,),
                    band_kinds=(), coverage=(), mean_width=(),
                    oracle_pass_rates={"thm1": 1.2}, provenance={})
