"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL
line with the measured values before asserting.

Two checks are known to fail and are left failing on purpose rather than
weakened; see README. Both concern the competitor band: its least-squares
center stands in for the kernel-smoothed center the windows assume, and its
true coverage (about 0.33 and 0.80) misses the 0.30 ceiling of 08b and the
[0.85, 0.99] window of 08c.
"""

import math
import sys
import time

import numpy as np
import pytest

from curveband.grid_basis import (
    basis_for,
    check_orthonormality,
    fourier_basis,
    haar_basis,
    make_grid,
)
from curveband.process_sim import (
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    generate_panel,
    sigma_k_theoretical,
)
from curveband.estimator import (
    CoefficientStats,
    fit,
    per_curve_coeffs,
    pooled_stats,
    sparsity_report,
    theoretical_levels,
    truncated_target,
)
from curveband.selector import CandidateSpec, select
from curveband.bands import _build_band, _truth, coverage_experiment
from curveband.metrics_bench import ScenarioConfig, run_scenario


def _report(tag, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail} ({time.time() - t0:.1f}s)"
    print("\n" + line, file=sys.__stdout__, flush=True)
    return ok


def _mc_se(rate, S):
    """Binomial Monte-Carlo standard error of a frequency over S replicates."""
    return math.sqrt(rate * (1.0 - rate) / S)


def _bb_oracle_panel():
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    return PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                       noise_sd=cal.noise_sd, seed=0)


def _bb_oracle_run(oracle_delta):
    """S=500 oracle experiment on the Brownian-bridge panel at the given delta."""
    cfg = ScenarioConfig(panel=_bb_oracle_panel(), estimators=(CandidateSpec("fourier", "hard", 1),),
                         replicates=500, base_seed=2024, oracle_checks=True,
                         oracle_alpha=0.05, oracle_delta=oracle_delta)
    return run_scenario(cfg)


@pytest.fixture(scope="module")
def oracle_run():
    """Shared S=500 oracle experiment at delta=0.01 (criteria 4, 5)."""
    return _bb_oracle_run(0.01)


def test_criterion_01_orthonormality():
    t0 = time.time()
    worst = 0.0
    for m in (16, 64, 256):
        g = make_grid(m)
        for basis in (fourier_basis(g), haar_basis(g)):
            worst = max(worst, check_orthonormality(basis))
    ok = worst < 1e-10
    assert _report("criterion-01-orthonormality", ok, f"max deviation {worst:.2e}", t0)


def test_criterion_02_sparsity_counts():
    t0 = time.time()
    g = make_grid(256)
    counts = {}
    for fam, builder in [("fourier", fourier_basis), ("haar", haar_basis)]:
        basis = builder(g)
        sigma_k = np.sqrt(sigma_k_theoretical(ProcessSpec(kind="bb"), basis))
        levels = theoretical_levels(sigma_k, 0.136, n=400, alpha=0.05)
        counts[fam] = sparsity_report(SignalSpec(), basis, levels).count
    ok = abs(counts["fourier"] - 11) <= 2 and abs(counts["haar"] - 92) <= 5
    assert _report("criterion-02-sparsity-counts", ok,
                   f"fourier {counts['fourier']} (target 11±2), haar {counts['haar']} (target 92±5)", t0)


def test_criterion_03_variance_identity():
    t0 = time.time()
    g = make_grid(64)
    b = fourier_basis(g)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    R = 2000
    seeds = np.random.SeedSequence(37).generate_state(R, dtype=np.uint64)
    ks = [1, 2, 32]
    pooled = np.empty((R, len(ks)))
    for r in range(R):
        cfg = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                          noise_sd=cal.noise_sd, seed=int(seeds[r]))
        mu_hat = per_curve_coeffs(generate_panel(cfg), b).mean(axis=0)
        pooled[r] = mu_hat[[k - 1 for k in ks]]
    sigma2 = sigma_k_theoretical(ProcessSpec(kind="bb"), b)
    ok = True
    details = []
    for c, k in enumerate(ks):
        target = (sigma2[k - 1] + cal.noise_sd**2 / 64.0) / 100.0
        got = pooled[:, c].var(ddof=1)
        tol = 3.0 * target * np.sqrt(2.0 / (R - 1))
        ok &= abs(got - target) < tol
        details.append(f"k={k}: {got:.3e} vs {target:.3e} (tol {tol:.1e})")
    assert _report("criterion-03-variance-identity", ok, "; ".join(details), t0)


def test_criterion_04_risk_bound_frequencies(oracle_run):
    t0 = time.time()
    r1 = oracle_run.oracle_pass_rates["thm1"]
    r2 = oracle_run.oracle_pass_rates["thm2"]
    ok = r1 >= 0.92 and r2 >= 0.92
    assert _report("criterion-04-risk-bound-frequencies", ok,
                   f"hard-rule rate {r1:.3f}, soft-rule rate {r2:.3f} (floor 0.92)", t0)


def test_criterion_05_expected_risk_bound(oracle_run):
    t0 = time.time()
    lhs = oracle_run.provenance["thm3"]["lhs_mc"]
    rhs = oracle_run.provenance["thm3"]["rhs_bound"]
    ok = oracle_run.oracle_pass_rates["thm3"] == 1.0
    assert _report("criterion-05-expected-risk-bound", ok,
                   f"MC lhs {lhs:.4f} <= bound {rhs:.4f}", t0)


def _good_event_delta(sigma_bar, n, m, alpha):
    """delta* with P(max_k |S_k - sigma_bar_k| > delta*) <= alpha for Gaussian coefficients.

    S_k is (sigma_bar_k / sqrt(n-1))-Lipschitz in standard Gaussian input and
    E S_k = c4(n) sigma_bar_k, so Gaussian concentration at each k and a union
    bound over the m coefficients give the bound. The coefficient-accuracy part
    of the good event fails with probability at most alpha by the choice of
    r_k, so at delta* the good event has probability at least 1 - 2 alpha.
    """
    c4 = math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))
    s_max = float(np.max(sigma_bar))
    return s_max * (1.0 - c4) + s_max * math.sqrt(2.0 * math.log(2.0 * m / alpha) / (n - 1))


def test_criterion_06_good_event_frequency():
    # The event needs |S_k - sigma_bar_k| <= delta at all 64 coefficients, and
    # the sampling SD of S_1 alone is about 0.021 at n=100, so delta=0.01 (the
    # shared oracle_run) leaves the event rare by construction; run at delta*.
    t0 = time.time()
    panel = _bb_oracle_panel()
    n, m, alpha = panel.n, panel.grid.m, 0.05
    sigma_bar = np.sqrt(sigma_k_theoretical(panel.process, fourier_basis(panel.grid))
                        + panel.noise_sd**2 / m)
    delta = _good_event_delta(sigma_bar, n, m, alpha)
    rep = _bb_oracle_run(delta)
    freq = rep.oracle_pass_rates["omega"]
    se = _mc_se(freq, rep.provenance["replicates"])
    ok = freq >= 0.92
    assert _report("criterion-06-good-event-frequency", ok,
                   f"event frequency {freq:.3f} ± {se:.3f} MC SE at "
                   f"delta* {delta:.4f} (floor 0.92; guaranteed >= {1 - 2 * alpha:.2f})", t0)


def test_criterion_07_benchmark_orderings():
    t0 = time.time()
    g = make_grid(128)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    panel = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                        noise_sd=cal.noise_sd, seed=0)
    ests = (
        CandidateSpec("fourier", "hard", 1),
        CandidateSpec("fourier", "least_squares"),
        CandidateSpec("haar", "hard", 1),
        CandidateSpec("haar", "hard", 2),
    )
    rep = run_scenario(ScenarioConfig(panel=panel, estimators=ests, replicates=100, base_seed=7))
    htf, lsf, hth1, hth2 = rep.sqrt_emse
    ok = htf < lsf and htf < hth1 and hth2 > hth1
    assert _report(
        "criterion-07-benchmark-orderings", ok,
        f"HT(r)-fourier {htf:.4f} < LS-fourier {lsf:.4f}; "
        f"HT(r)-fourier < HT(r)-haar {hth1:.4f}; HT(2r)-haar {hth2:.4f} > HT(r)-haar", t0)


@pytest.fixture(scope="module")
def ar1_scenario():
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="ar1", ar_phi=0.5), g, 1.0, 1.5, SignalSpec())
    return PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                       noise_sd=cal.noise_sd, seed=814)


def test_criterion_08a_proposed_band_coverage(ar1_scenario):
    t0 = time.time()
    rep = coverage_experiment(ar1_scenario, "proposed_hard1", S=200)
    ok = rep.coverage >= 0.95
    assert _report("criterion-08a-proposed-band-coverage", ok,
                   f"coverage {rep.coverage:.3f} (floor 0.95), mean width {rep.mean_width:.3f}", t0)


def test_criterion_08b_competitor_band_undercovers(ar1_scenario):
    t0 = time.time()
    rep = coverage_experiment(ar1_scenario, "competitor_theoretical", S=200)
    ok = rep.coverage <= 0.30
    assert _report("criterion-08b-competitor-band-undercovers", ok,
                   f"coverage {rep.coverage:.3f} ± {_mc_se(rep.coverage, rep.replicates):.3f} MC SE "
                   f"(ceiling 0.30; least-squares-centered stand-in)", t0)


def test_criterion_08c_competitor_band_noise_dominated():
    t0 = time.time()
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 10.0, 1.5, SignalSpec())
    cfg = PanelConfig(n=150, grid=g, signal=cal.signal, process=cal.process,
                      noise_sd=cal.noise_sd, seed=815)
    rep = coverage_experiment(cfg, "competitor_theoretical", S=200)
    ok = 0.85 <= rep.coverage <= 0.99
    assert _report("criterion-08c-competitor-band-noise-dominated", ok,
                   f"coverage {rep.coverage:.3f} ± {_mc_se(rep.coverage, rep.replicates):.3f} MC SE "
                   f"(window [0.85, 0.99]; least-squares-centered stand-in)", t0)


def test_criterion_09_width_relations():
    t0 = time.time()
    g = make_grid(64)
    b = fourier_basis(g)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    cfg = PanelConfig(n=50, grid=g, signal=cal.signal, process=cal.process,
                      noise_sd=cal.noise_sd, seed=99)
    st = pooled_stats(per_curve_coeffs(generate_panel(cfg), b), 0.05, 0.0)
    b1 = _build_band("proposed_hard1", b, st)
    b3 = _build_band("proposed_hard3", b, st)
    un = _build_band("untruncated_ls", b, st)
    triple_exact = np.array_equal(b3.half_width, 3.0 * b1.half_width)
    dominated = bool(np.all(b1.half_width <= un.half_width))
    ok = triple_exact and dominated
    assert _report("criterion-09-width-relations", ok,
                   f"3x identity exact: {triple_exact}; adaptive <= untruncated: {dominated}", t0)


def test_criterion_10_selector_prefers_fourier():
    t0 = time.time()
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    cands = [CandidateSpec("fourier", "hard", 1), CandidateSpec("haar", "hard", 1)]
    wins = 0
    invariants = True
    for s in range(200):
        cfg = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                          noise_sd=cal.noise_sd, seed=5000 + s)
        panel = generate_panel(cfg)
        res = select(panel, cands, seed=s)
        rerun = select(panel, cands, seed=s)
        invariants &= res.risks[res.winner_index] == res.risks.min()
        invariants &= np.array_equal(res.fitted_values, rerun.fitted_values)
        invariants &= res.winner_index == rerun.winner_index
        wins += res.winner_index == 0
    rate = wins / 200.0
    ok = rate >= 0.90 and invariants
    assert _report("criterion-10-selector-prefers-fourier", ok,
                   f"fourier win rate {rate:.3f} (floor 0.90), invariants {invariants}", t0)


def test_criterion_11_soft_hard_gap_identity():
    t0 = time.time()
    g = make_grid(64)
    b = fourier_basis(g)
    rng = np.random.default_rng(271828)
    scale = 2.0**20
    failures = 0
    for _ in range(1000):
        mu = rng.integers(-8 * 2**20, 8 * 2**20, size=64) / scale
        lev = rng.integers(0, 4 * 2**20, size=64) / scale
        st = CoefficientStats(mu_hat=mu, n=4,
                              s_k=np.zeros(64), alpha=0.05, delta=0.0,
                              r_hat=lev, r_tilde=lev)
        hard = fit("hard", st, b, 1).coeffs
        soft = fit("soft", st, b, 1).coeffs
        nz = hard != 0.0
        if not np.array_equal((hard - soft)[nz], (np.sign(mu) * lev)[nz]):
            failures += 1
    ok = failures == 0
    assert _report("criterion-11-soft-hard-gap-identity", ok,
                   f"{failures}/1000 vectors violated the exact gap identity "
                   f"(coefficients drawn on a dyadic lattice)", t0)


def test_criterion_12_proposed_band_covers_its_truncated_target():
    # On the good event, which has probability >= 1 - 2 alpha at delta*, the
    # proposed_hard3 band covers the surrogate that keeps the true
    # coefficients reaching 2 r_bar_k; the claim is about that surrogate, not
    # the mean, and delta* can leave it a single coefficient. Panel seed 11
    # in every cell, fixed before any cell was run.
    t0 = time.time()
    g, n, alpha, S = make_grid(64), 100, 0.05, 200
    floor = 1 - 2 * alpha
    failing, empty = [], []
    for kind in ("bb", "bm", "ar1", "arima11"):
        for sigma_star in (0.1, 1.0, 10.0):
            cal = calibrate(ProcessSpec(kind=kind), g, sigma_star, 4.25, SignalSpec())
            cfg = PanelConfig(n=n, grid=g, signal=cal.signal, process=cal.process,
                              noise_sd=cal.noise_sd, seed=11)
            for family in ("fourier", "haar"):
                basis = basis_for(family, g)
                sigma_bar = np.sqrt(sigma_k_theoretical(cfg.process, basis) + cfg.noise_sd**2 / g.m)
                delta = _good_event_delta(sigma_bar, n, g.m, alpha)
                mu, levels = _truth(cfg, basis, alpha, delta)
                kept = int(np.count_nonzero(truncated_target(mu, 2.0 * levels.r_bar, basis)[0]))
                cov = coverage_experiment(cfg, "proposed_hard3", S, "truncated_target", family, alpha, delta).coverage
                mean0, mean_star = (coverage_experiment(cfg, "proposed_hard3", S, "true_mean", family, alpha, d).coverage
                                    for d in (0.0, delta))
                cell = f"{kind} sigma*={sigma_star:g} {family}"
                print(f"\n  {cell}: kept {kept}, truncated target {cov:.3f} ± {_mc_se(cov, S):.3f} at "
                      f"delta* {delta:.4f}; true mean {mean0:.3f} ± {_mc_se(mean0, S):.3f} at delta 0, "
                      f"{mean_star:.3f} ± {_mc_se(mean_star, S):.3f} at delta*", file=sys.__stdout__, flush=True)
                if cov < floor:
                    failing.append(f"{cell} {cov:.3f} ± {_mc_se(cov, S):.3f}")
                if kept == 0:
                    empty.append(cell)
    ok = not failing and not empty
    assert _report("criterion-12-proposed-band-covers-truncated-target", ok,
                   f"24 cells at S={S}; below {floor:.2f}: {failing or 'none'}; "
                   f"targets keeping no coefficient: {empty or 'none'}", t0)
