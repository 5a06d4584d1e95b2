"""Coefficient statistics, quantiles, threshold rules, and sparsity counts."""

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose, assert_array_equal

from curveband.grid_basis import analyze, fourier_basis, haar_basis, make_grid, synthesize
from curveband.process_sim import (
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    CurvePanel,
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
    sparsity_report,
    theoretical_levels,
    truncated_target,
)


def _stats(mu_hat, r_hat, n=4, alpha=0.05, delta=0.0, r_tilde=None):
    """Hand-built stats for rule tests where the levels are chosen directly."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    r_hat = np.asarray(r_hat, dtype=float)
    if r_tilde is None:
        r_tilde = r_hat
    return CoefficientStats(
        mu_hat=mu_hat, per_curve=np.tile(mu_hat, (n, 1)),
        s_k=np.zeros_like(mu_hat), n=n, alpha=alpha, delta=delta,
        r_hat=r_hat, r_tilde=np.asarray(r_tilde, dtype=float),
    )


def test_per_curve_identical_rows():
    g = make_grid(8)
    b = fourier_basis(g)
    row = np.arange(8.0)
    panel = CurvePanel(grid=g, Y=np.tile(row, (3, 1)))
    pc = per_curve_coeffs(panel, b)
    expect = analyze(row, b)
    for i in range(3):
        assert_allclose(pc[i], expect, atol=1e-12)


def test_per_curve_zero_panel():
    g = make_grid(4)
    panel = CurvePanel(grid=g, Y=np.zeros((2, 4)))
    assert np.all(per_curve_coeffs(panel, fourier_basis(g)) == 0.0)


def test_per_curve_brute_force():
    g = make_grid(8)
    b = haar_basis(g)
    rng = np.random.default_rng(0)
    panel = CurvePanel(grid=g, Y=rng.normal(size=(5, 8)))
    pc = per_curve_coeffs(panel, b)
    for i in range(5):
        for k in range(8):
            direct = np.mean(panel.Y[i] * b.values[:, k])
            assert abs(pc[i, k] - direct) < 1e-12


def test_per_curve_grid_mismatch():
    panel = CurvePanel(grid=make_grid(4), Y=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        per_curve_coeffs(panel, fourier_basis(make_grid(8)))


def test_pooled_two_identical_curves():
    pc = np.tile([1.0, -2.0, 0.5], (2, 1))
    st = pooled_stats(pc, alpha=0.05, delta=0.1)
    assert_array_equal(st.mu_hat, [1.0, -2.0, 0.5])
    assert np.all(st.s_k == 0.0)
    z = normal_quantile(0.05 / 6.0)
    assert_allclose(st.r_hat, np.full(3, 0.1 * z / np.sqrt(2.0)), rtol=1e-15)
    assert_allclose(st.r_tilde, np.full(3, 0.3 * z / np.sqrt(2.0)), rtol=1e-15)


def test_pooled_simple_column():
    st = pooled_stats(np.array([[0.0], [2.0]]), alpha=0.05)
    assert st.mu_hat[0] == 1.0
    assert st.s_k[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_pooled_validation():
    with pytest.raises(ValueError):
        pooled_stats(np.zeros((1, 4)), alpha=0.05)
    with pytest.raises(ValueError):
        pooled_stats(np.zeros((3, 4)), alpha=1.5)
    with pytest.raises(ValueError):
        pooled_stats(np.zeros((3, 4)), alpha=0.05, delta=-0.1)
    for bad in [np.nan, np.inf]:
        with pytest.raises(ValueError, match="delta"):
            pooled_stats(np.zeros((3, 4)), alpha=0.05, delta=bad)


def test_normal_quantile_known_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(1.959964, abs=1e-6)
    # value pinned by two independent oracles (scipy ndtri, mpmath erfinv)
    assert normal_quantile(0.05 / 512.0) == pytest.approx(3.725003515620679, abs=1e-3)


def test_normal_quantile_vs_scipy():
    ps = np.concatenate([
        np.geomspace(1e-12, 0.02, 40),
        np.linspace(0.03, 0.97, 40),
        1.0 - np.geomspace(1e-12, 0.02, 40),
    ])
    for p in ps:
        assert abs(normal_quantile(float(p)) - (-scipy.special.ndtri(p))) < 1e-9


def test_normal_quantile_domain():
    for p in [0.0, 1.0, -0.1, 1.1]:
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_theoretical_levels_zero_inputs():
    lev = theoretical_levels(np.zeros(4), 0.0, n=100, m=4, alpha=0.05)
    assert np.all(lev.r_k == 0.0)
    assert np.all(lev.r_bar == 0.0)


def test_theoretical_levels_rejects_nan_and_inf():
    good = dict(sigma_k=np.full(4, 0.1), sigma_eps=0.2, n=10, m=4, alpha=0.05, delta=0.01)
    theoretical_levels(**good)
    for bad in [np.nan, np.inf, -0.1]:
        for name in ["sigma_eps", "delta"]:
            with pytest.raises(ValueError):
                theoretical_levels(**{**good, name: bad})
        with pytest.raises(ValueError):
            theoretical_levels(**{**good, "sigma_k": np.array([0.1, bad, 0.1, 0.1])})


def test_theoretical_levels_rejects_fewer_than_one_curve():
    # n = 0 gave infinite levels and n < 0 NaN ones, so nothing was active
    for n in [0, -5]:
        with pytest.raises(ValueError, match="n >= 1"):
            theoretical_levels(np.full(4, 0.1), 0.2, n=n, m=4, alpha=0.05)
    theoretical_levels(np.full(4, 0.1), 0.2, n=1, m=4, alpha=0.05)


def test_theoretical_levels_white_noise_arithmetic():
    # sigma_k^2 = tau^2/m for white noise, so r_k is constant across k
    tau2, se2, n, m = 0.5, 0.25, 64, 16
    lev = theoretical_levels(np.full(m, np.sqrt(tau2 / m)), np.sqrt(se2), n=n, m=m, alpha=0.05)
    z = normal_quantile(0.05 / (2.0 * m))
    expect = np.sqrt((tau2 / m + se2 / m) / n) * z
    assert_allclose(lev.r_k, np.full(m, expect), rtol=1e-14)


def test_theoretical_levels_delta_gap_exact():
    lev = theoretical_levels(np.array([0.3, 0.7]), 0.2, n=25, m=2, alpha=0.1, delta=0.05)
    z = normal_quantile(0.1 / 4.0)
    gap = 2.0 * 0.05 * z / np.sqrt(25.0)
    # definition identity, checked in sum form so it is exact in fp
    assert_array_equal(lev.r_bar, lev.r_k + gap)


def test_hard_zero_level_equals_least_squares():
    g = make_grid(4)
    b = fourier_basis(g)
    st = _stats([1.0, -0.2, 0.0, 3.0], np.zeros(4))
    hard = fit("hard", st, b)
    ls = fit("least_squares", st, b)
    assert_array_equal(hard.coeffs, ls.coeffs)
    assert_array_equal(hard.values, ls.values)
    assert np.all(hard.active)


def test_hard_kills_small_coefficient():
    g = make_grid(2)
    b = fourier_basis(g)
    st = _stats([5.0, 0.1], [1.0, 1.0])
    est = fit("hard", st, b)
    assert_array_equal(est.coeffs, [5.0, 0.0])
    assert_array_equal(est.active, [True, False])


def test_hard_keeps_tie():
    g = make_grid(2)
    b = fourier_basis(g)
    st = _stats([1.0, -1.0], [1.0, 1.0])
    est = fit("hard", st, b)
    assert_array_equal(est.active, [True, True])
    assert_array_equal(est.coeffs, [1.0, -1.0])


def test_soft_shrinks_and_zeroes():
    g = make_grid(2)
    b = fourier_basis(g)
    st = _stats([2.0, -0.3], [0.5, 0.5])
    est = fit("soft", st, b)
    assert_array_equal(est.coeffs, [1.5, 0.0])


def test_threshold_rejects_bad_multiplier():
    g = make_grid(2)
    st = _stats([1.0, 1.0], [0.1, 0.1])
    for mult in [0, 3, 1.5]:
        with pytest.raises(ValueError):
            fit("hard", st, fourier_basis(g), mult)
        with pytest.raises(ValueError):
            fit("soft", st, fourier_basis(g), mult)


def test_fit_dispatches_each_rule_and_rejects_unknown():
    g = make_grid(4)
    b = fourier_basis(g)
    st = _stats([1.0, -0.5, 0.05, 0.0], [0.1, 0.1, 0.1, 0.1])
    mu, level = st.mu_hat, st.r_hat
    for mult in [1, 2]:
        keep = np.abs(mu) >= mult * level
        hard = np.where(keep, mu, 0.0)
        soft = np.where(keep, mu - np.sign(mu) * mult * level, 0.0)
        assert_array_equal(fit("hard", st, b, mult).values, synthesize(hard, b))
        assert_array_equal(fit("soft", st, b, mult).values, synthesize(soft, b))
        assert_array_equal(fit("least_squares", st, b, mult).values, synthesize(mu, b))
    assert fit("soft", st, b).level_multiplier == 1.0
    with pytest.raises(ValueError, match="unknown rule"):
        fit("Hard", st, b)


def test_hard_soft_gap_identity_on_dyadic_lattice():
    # drawing on integers / 2^20 keeps |mu|-level exact in binary floating
    # point, so the keep-set identity hard - soft = sign * level holds with
    # zero tolerance; continuous draws can miss by an ulp
    g = make_grid(64)
    b = fourier_basis(g)
    rng = np.random.default_rng(7)
    scale = 2.0**20
    mu = rng.integers(-8 * 2**20, 8 * 2**20, size=64) / scale
    lev = rng.integers(0, 4 * 2**20, size=64) / scale
    st = _stats(mu, lev)
    hard = fit("hard", st, b)
    soft = fit("soft", st, b)
    gap = np.where(hard.active, np.sign(mu) * lev, 0.0)
    assert_array_equal(hard.coeffs - soft.coeffs, gap)


def test_soft_below_hard_below_raw():
    rng = np.random.default_rng(11)
    g = make_grid(32)
    b = fourier_basis(g)
    st = _stats(rng.normal(size=32), np.abs(rng.normal(size=32)))
    hard = fit("hard", st, b)
    soft = fit("soft", st, b)
    assert np.all(np.abs(soft.coeffs) <= np.abs(hard.coeffs) + 1e-15)
    assert np.all(np.abs(hard.coeffs) <= np.abs(st.mu_hat))


def test_doubling_multiplier_shrinks_active_set():
    rng = np.random.default_rng(13)
    g = make_grid(32)
    b = fourier_basis(g)
    st = _stats(rng.normal(size=32), np.abs(rng.normal(scale=0.5, size=32)))
    a1 = fit("hard", st, b, 1).active
    a2 = fit("hard", st, b, 2).active
    assert np.all(a2 <= a1)


def test_degenerate_panel_recovers_signal():
    # no process, no noise, delta=0: thresholding changes nothing
    g = make_grid(64)
    b = fourier_basis(g)
    panel = CurvePanel(grid=g, Y=np.tile(eval_signal(SignalSpec(), g), (4, 1)))
    st = pooled_stats(per_curve_coeffs(panel, b), alpha=0.05, delta=0.0)
    est = fit("hard", st, b)
    assert_array_equal(est.coeffs, st.mu_hat)
    assert_allclose(est.values, eval_signal(SignalSpec(), g), atol=1e-9)


def test_unbiasedness_and_sample_sd_mc():
    g = make_grid(16)
    b = fourier_basis(g)
    cfg = PanelConfig(n=2000, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.3, seed=42)
    panel = generate_panel(cfg)
    pc = per_curve_coeffs(panel, b)
    mu = analyze(eval_signal(SignalSpec(), g), b)
    s2_true = sigma_k_theoretical(ProcessSpec(kind="bb"), b) + 0.09 / 16.0
    # coefficient means are unbiased
    se = np.sqrt(s2_true / 2000.0)
    assert np.all(np.abs(pc.mean(axis=0) - mu) < 4.0 * se)
    # sample variances estimate sigma_k^2 + sigma_eps^2/m
    s2 = pc.var(axis=0, ddof=1)
    assert np.all(np.abs(s2 - s2_true) < 3.0 * s2_true * np.sqrt(2.0 / 1999.0))


def test_truncated_target_extremes():
    g = make_grid(16)
    b = fourier_basis(g)
    f = eval_signal(SignalSpec(), g)
    mu = analyze(f, b)
    coeffs, values = truncated_target(mu, np.zeros(16), b)
    assert_array_equal(coeffs, mu)
    assert_allclose(values, f, atol=1e-9)
    coeffs, values = truncated_target(mu, np.full(16, np.inf), b)
    assert np.all(coeffs == 0.0)
    assert np.all(values == 0.0)
    with pytest.raises(ValueError):
        truncated_target(mu, np.zeros(8), b)


def _default_levels(basis, noise_sd=0.136, n=400, alpha=0.05):
    sk2 = sigma_k_theoretical(ProcessSpec(kind="bb"), basis)
    return theoretical_levels(np.sqrt(sk2), noise_sd, n=n, m=basis.m, alpha=alpha)


def test_sparsity_counts_fourier_and_haar():
    g = make_grid(256)
    bf = fourier_basis(g)
    bh = haar_basis(g)
    rf = sparsity_report(SignalSpec(), bf, _default_levels(bf))
    rh = sparsity_report(SignalSpec(), bh, _default_levels(bh))
    assert abs(rf.count - 11) <= 2
    assert abs(rh.count - 92) <= 5
    assert rf.sup_error >= 0.0 and rf.l2_error >= 0.0
    assert np.all(rf.active_indices >= 1)


def test_sparsity_zero_signal():
    g = make_grid(64)
    b = fourier_basis(g)
    r = sparsity_report(SignalSpec(kind="signal1", c1=0.0, c2=0.0), b, _default_levels(b))
    assert r.count == 0
    assert r.sup_error == 0.0
