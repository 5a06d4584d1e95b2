"""Simulation-side checks: signal forms, covariance matrices, simulated
paths, calibration, and theoretical coefficient variances, each against
either a hand computation or an independent Monte-Carlo oracle."""

import inspect
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveband import process_sim
from curveband.grid_basis import BasisMatrix, basis_for, fourier_basis, make_grid
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    covariance_matrix,
    eval_signal,
    generate_panel,
    process_variance,
    sigma_k_theoretical,
)


def test_signal1_peak_values():
    # m=2 midpoint grid hits t=0.25 and t=0.75 exactly
    g = make_grid(2)
    f = eval_signal(SignalSpec(kind="signal1", c1=0.75, c2=1.93), g)
    assert abs(f[0] - (0.75 + 1.93 * np.exp(-64.0))) < 1e-15
    assert abs(f[1] - (0.75 * np.exp(-16.0) + 1.93)) < 1e-15


def test_signal2_indicator_windows():
    g = make_grid(3)  # points 1/6, 1/2, 5/6
    f = eval_signal(SignalSpec(kind="signal2", c3=2.0), g)
    assert f[0] == 0.0
    assert f[1] == 0.0  # t=0.5 outside both windows
    assert f[2] == 2.0  # 5/6 lies in (0.75, 0.875)


def test_signal1_zero_amplitudes():
    f = eval_signal(SignalSpec(kind="signal1", c1=0.0, c2=0.0), make_grid(16))
    assert np.all(f == 0.0)


def test_custom_signal_roundtrip_and_mismatch():
    g = make_grid(4)
    vals = (1.0, -2.0, 3.0, 0.5)
    assert_allclose(eval_signal(SignalSpec(kind="custom", custom_values=vals), g), vals)
    with pytest.raises(ValueError):
        eval_signal(SignalSpec(kind="custom", custom_values=(1.0, 2.0)), g)


def test_custom_values_must_be_a_list_and_a_kind_a_name():
    # custom_values=3 raised TypeError, and a string was read one character at a time
    for values in (3, "abc", {"a": 1}, np.array(3.0), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="custom_values must be a list of grid values"):
            SignalSpec(kind="custom", custom_values=values)
    assert SignalSpec(kind="custom", custom_values=np.arange(3)) == SignalSpec(kind="custom", custom_values=[0, 1, 2])
    for spec, family in ((SignalSpec, "signal"), (ProcessSpec, "process")):
        for kind in (["bb"], None, "nope"):
            with pytest.raises(ValueError, match=re.escape(f"unknown {family} kind {kind!r}")):
                spec(kind=kind)


def test_signal_cache_shares_equal_specs_and_stays_bounded():
    g = make_grid(8)
    process_sim._cached_signal.cache_clear()
    first = process_sim._cached_signal(SignalSpec(c1=0.5), g)
    again = process_sim._cached_signal(SignalSpec(c1=0.5), make_grid(8))
    assert again is first and not first.flags.writeable
    assert process_sim._cached_signal.cache_info()[:2] == (1, 1)
    assert np.array_equal(first, eval_signal(SignalSpec(c1=0.5), g))
    for c1 in range(20):
        process_sim._cached_signal(SignalSpec(c1=float(c1)), g)
    info = process_sim._cached_signal.cache_info()
    assert info.currsize == info.maxsize == 8


def test_eval_signal_returns_a_fresh_writable_array():
    g = make_grid(8)
    for spec in (SignalSpec(), SignalSpec(kind="signal2"), SignalSpec(kind="custom", custom_values=(1.0,) * 8)):
        cached = process_sim._cached_signal(spec, g)
        values = eval_signal(spec, g)
        assert values.flags.writeable and not np.shares_memory(values, cached)
        values[0] = 99.0  # a caller's write reaches neither the cache nor the next panel
        assert cached[0] != 99.0 and np.array_equal(cached, eval_signal(spec, g))


def test_generate_panel_rejects_a_custom_signal_of_the_wrong_length():
    for _ in range(2):  # a failed evaluation is not cached
        with pytest.raises(ValueError, match=r"custom signal length \(2,\) does not match m=4"):
            cfg = PanelConfig(n=3, grid=make_grid(4), signal=SignalSpec(kind="custom", custom_values=(1.0, 2.0)),
                              process=ProcessSpec(), noise_sd=0.1, seed=0)
            generate_panel(cfg)


def test_panel_config_rejects_a_custom_signal_that_does_not_fit_its_grid():
    signal = SignalSpec(kind="custom", custom_values=(0.0,) * 5)
    with pytest.raises(ValueError, match=re.escape("custom signal length (5,) does not match m=16")):
        PanelConfig(n=3, grid=make_grid(16), signal=signal, process=ProcessSpec(), noise_sd=0.1, seed=0)
    assert np.array_equal(PanelConfig(3, make_grid(5), signal, ProcessSpec(), 0.1, 0).f, np.zeros(5))


def test_panel_config_mean_is_the_shared_read_only_signal():
    cfg = PanelConfig(n=3, grid=make_grid(8), signal=SignalSpec(c1=0.31), process=ProcessSpec(), noise_sd=0.1, seed=0)
    assert cfg.f is process_sim._cached_signal(cfg.signal, cfg.grid)
    assert not cfg.f.flags.writeable
    assert np.array_equal(cfg.f, eval_signal(cfg.signal, cfg.grid))
    with pytest.raises(TypeError):
        PanelConfig(3, make_grid(8), cfg.signal, ProcessSpec(), 0.1, 0, cfg.f)  # f is derived, not given
    assert replace(cfg, seed=5).f is cfg.f


def test_process_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(kind="ar1", ar_phi=1.0)
    with pytest.raises(ValueError):
        ProcessSpec(kind="ar1", innovation_sd=0.0)
    with pytest.raises(ValueError):
        ProcessSpec(kind="nope")
    # a field the kind does not read must keep its default, so one process
    # has one spec; the error names the kind and the field
    for spec, kind, field, value in [(ProcessSpec, "bb", "ar_phi", 0.3), (ProcessSpec, "bm", "innovation_sd", 7.0),
                                     (SignalSpec, "signal2", "c1", 5.0), (SignalSpec, "signal1", "c3", 2.0)]:
        with pytest.raises(ValueError, match=rf"{kind} .*does not read .*'{field}'"):
            spec(kind=kind, **{field: value})
    assert ProcessSpec(kind="bb", ar_phi=0.5, innovation_sd=1.0) == ProcessSpec(kind="bb")


def test_covariance_matrix_bb_bm():
    g = make_grid(5)  # points 0.1, 0.3, 0.5, 0.7, 0.9
    assert covariance_matrix(ProcessSpec(kind="bb"), g)[2, 2] == pytest.approx(0.25)
    assert covariance_matrix(ProcessSpec(kind="bm"), g)[1, 3] == pytest.approx(0.3)


def test_covariance_matrix_ar1_stationary_variance():
    # innovation chosen so sigma^2/(1-phi^2) = 0.1875
    sd = np.sqrt(0.1875 * (1.0 - 0.25))
    cov = covariance_matrix(ProcessSpec(kind="ar1", ar_phi=0.5, innovation_sd=sd), make_grid(8))
    assert cov[3, 3] == pytest.approx(0.1875)
    # lag one decays by phi
    assert cov[3, 4] == pytest.approx(0.1875 * 0.5)


def _paths(process, grid, n, seed):
    """n simulated paths: a panel with zero signal and no noise."""
    cfg = PanelConfig(n=n, grid=grid, signal=SignalSpec(kind="signal1", c1=0.0, c2=0.0),
                      process=process, noise_sd=0.0, seed=seed)
    return generate_panel(cfg).Y


def test_bb_paths_zero_mean_and_variance():
    g = make_grid(64)
    Z = _paths(ProcessSpec(kind="bb"), g, 10000, 21)
    sd = np.sqrt(np.diag(covariance_matrix(ProcessSpec(kind="bb"), g)))
    assert np.all(np.abs(Z.mean(axis=0)) < 4.0 * sd / np.sqrt(10000))
    # pointwise variance near the middle matches t(1-t)
    j = 31
    v = Z[:, j].var(ddof=1)
    target = g.points[j] * (1.0 - g.points[j])
    se = target * np.sqrt(2.0 / 9999)
    assert abs(v - target) < 3.0 * se


def _process(kind):
    """A process of the kind, with AR parameters off their defaults where it reads them."""
    return ProcessSpec(kind=kind, ar_phi=0.6, innovation_sd=0.3) if kind in ("ar1", "arima11") else ProcessSpec(kind)


def _closed_form_covariance(p, grid):
    s, t = np.meshgrid(grid.points, grid.points, indexing="ij")
    if p.kind == "bb":
        return np.minimum(s, t) - s * t
    if p.kind == "bm":
        return np.minimum(s, t)
    i, j = np.meshgrid(np.arange(grid.m), np.arange(grid.m), indexing="ij")
    ar = p.innovation_sd**2 / (1.0 - p.ar_phi**2) * p.ar_phi ** np.abs(i - j)
    if p.kind == "ar1":
        return ar
    lower = np.tril(np.ones((grid.m, grid.m)))
    return lower @ ar @ lower.T


@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_empirical_covariance_matches_kernel(kind):
    g = make_grid(32)
    p = _process(kind)
    target = _closed_form_covariance(p, g)
    assert_allclose(covariance_matrix(p, g), target, rtol=1e-13, atol=0)
    Z = _paths(p, g, 6000, 5)
    emp = np.cov(Z, rowvar=False)
    pairs = np.random.default_rng(3).integers(0, 32, size=(5, 2))
    for a, b in pairs:
        # gaussian MC-SE for a covariance entry
        se = np.sqrt((emp[a, a] * emp[b, b] + emp[a, b] ** 2) / 5999)
        assert abs(emp[a, b] - target[a, b]) < 3.0 * se + 1e-12


def test_bb_matches_cholesky_oracle():
    # panel paths agree with Cholesky sampling from an independent stream
    g = make_grid(16)
    p = ProcessSpec(kind="bb")
    C = covariance_matrix(p, g)
    L = np.linalg.cholesky(C + 1e-12 * np.eye(16))
    rng = np.random.default_rng(9)
    Zc = rng.standard_normal((6000, 16)) @ L.T
    Zs = _paths(p, g, 6000, 10)
    for j in [0, 7, 15]:
        v1, v2 = Zc[:, j].var(ddof=1), Zs[:, j].var(ddof=1)
        se = C[j, j] * np.sqrt(2.0 / 5999)
        assert abs(v1 - v2) < 4.0 * se


def test_ar1_lag1_autocorrelation():
    Z = _paths(ProcessSpec(kind="ar1", ar_phi=0.5, innovation_sd=1.0), make_grid(128), 400, 17)
    r = np.corrcoef(Z[:, :-1].ravel(), Z[:, 1:].ravel())[0, 1]
    assert abs(r - 0.5) < 0.02


def test_arima11_is_integrated_ar1():
    # the Cholesky factor of the running-sum covariance is the running sum
    # of the AR(1) factor, so the same seed gives the cumulative-sum path
    g = make_grid(32)
    ar = ProcessSpec(kind="ar1", ar_phi=0.5, innovation_sd=0.3)
    ai = ProcessSpec(kind="arima11", ar_phi=0.5, innovation_sd=0.3)
    z1 = _paths(ar, g, 4, 123)
    z2 = _paths(ai, g, 4, 123)
    assert_allclose(z2, np.cumsum(z1, axis=1), rtol=0, atol=1e-12)


def test_panel_identical_on_factor_cache_hit_and_miss():
    g = make_grid(32)
    cfg = PanelConfig(n=6, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="arima11", ar_phi=0.3),
                      noise_sd=0.2, seed=8)
    generate_panel(replace(cfg, process=ProcessSpec(kind="bm")))
    before = process_sim._cholesky_t.cache_info()
    miss = generate_panel(cfg).Y
    hit = generate_panel(cfg).Y
    after = process_sim._cholesky_t.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert np.array_equal(miss, hit)
    # another grid object of the same m is the same key
    other_grid = generate_panel(replace(cfg, grid=make_grid(32))).Y
    assert process_sim._cholesky_t.cache_info().hits - after.hits == 1
    assert np.array_equal(other_grid, miss)
    # the noise level is part of the key, and the layout is f + N L^T with
    # L L^T = Gamma + noise_sd^2 I, from one block of one stream
    generate_panel(replace(cfg, noise_sd=0.3))
    assert process_sim._cholesky_t.cache_info().misses - after.misses == 1
    rng = np.random.default_rng(8)
    L = np.linalg.cholesky(covariance_matrix(cfg.process, g) + 0.2**2 * np.eye(32))
    expected = eval_signal(cfg.signal, g) + rng.standard_normal((6, 32)) @ L.T
    assert np.array_equal(expected, miss)


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_panel_factor_is_the_noisy_covariance(kind, m):
    g = make_grid(m)
    p = _process(kind)
    U = process_sim._cholesky_t(p, 0.3, g)
    target = covariance_matrix(p, g) + 0.3**2 * np.eye(m)
    assert np.array_equal(U, np.triu(U)) and not U.flags.writeable
    assert np.max(np.abs(U.T @ U - target)) <= 1e-12 * np.max(np.abs(target))


@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_zero_noise_panel_is_signal_plus_process_paths(kind):
    g = make_grid(16)
    cfg = PanelConfig(n=7, grid=g, signal=SignalSpec(), process=_process(kind), noise_sd=0.0, seed=11)
    L = np.linalg.cholesky(covariance_matrix(cfg.process, g))
    expected = eval_signal(cfg.signal, g) + np.random.default_rng(11).standard_normal((7, 16)) @ L.T
    assert np.array_equal(generate_panel(cfg).Y, expected)


@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_panel_covariance_is_process_plus_noise(kind):
    g, n, noise_sd = make_grid(8), 20000, 0.3
    cfg = PanelConfig(n=n, grid=g, signal=SignalSpec(), process=_process(kind), noise_sd=noise_sd, seed=17)
    emp = np.cov(generate_panel(cfg).Y - eval_signal(cfg.signal, g), rowvar=False)
    target = _closed_form_covariance(cfg.process, g) + noise_sd**2 * np.eye(8)
    # gaussian MC-SE of each sample covariance entry
    se = np.sqrt((target**2 + np.outer(np.diag(target), np.diag(target))) / n)
    assert np.all(np.abs(emp - target) < 4.0 * se)


@pytest.mark.parametrize("kind", ["ar1", "arima11"])
@pytest.mark.parametrize("phi", [0.999999, -0.999999])
def test_near_unit_root_panels_are_finite(kind, phi):
    cfg = PanelConfig(n=3, grid=make_grid(1024), signal=SignalSpec(),
                      process=ProcessSpec(kind=kind, ar_phi=phi), noise_sd=0.1, seed=2)
    assert np.all(np.isfinite(generate_panel(cfg).Y))


def test_median_process_variance():
    g = make_grid(256)
    assert np.median(process_variance(ProcessSpec(kind="bb"), g)) == pytest.approx(3.0 / 16.0, abs=1e-3)
    assert np.median(process_variance(ProcessSpec(kind="bm"), g)) == pytest.approx(0.5, abs=1e-12)
    sd = np.sqrt(0.2 * 0.75)
    assert np.median(process_variance(ProcessSpec(kind="ar1", ar_phi=0.5, innovation_sd=sd), g)) == pytest.approx(0.2)


def _same_bits(a, b):
    # compared as words, since array_equal would take -0.0 for 0.0
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 1024])
@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_process_variance_is_the_covariance_diagonal(kind, m):
    g = make_grid(m)
    p = _process(kind)
    process_sim._cached_process_variance.cache_clear()
    miss = process_variance(p, g)
    hit = process_variance(p, make_grid(m))
    assert hit is miss
    assert _same_bits(miss, np.diag(covariance_matrix(p, g)))
    # a copy: a view of the diagonal would keep the m x m matrix in the cache
    assert miss.base is None and not miss.flags.writeable


def _lag_power_covariances(phi, sd, grid):
    """The ar1 and arima11 covariances as covariance_matrix once built them,
    from m^2 powers on an m x m lag matrix: the reference the lag layout
    must repeat bit for bit."""
    var = sd**2 / (1.0 - phi**2)
    idx = np.arange(grid.m)
    ar_cov = var * phi ** np.abs(np.subtract.outer(idx, idx))
    return {"ar1": ar_cov, "arima11": np.cumsum(np.cumsum(ar_cov, axis=0), axis=1)}


@pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 1024])
def test_ar_covariance_matrix_repeats_the_lag_powers_bit_for_bit(m):
    g = make_grid(m)
    # an integer phi = 0, as scenario JSON may give it, must still yield floats
    for phi in (0, 0.1, 0.5, -0.7, 0.999, 0.999999, -0.999999):
        for sd in (1, 0.37, 2.0):
            for kind, cov in _lag_power_covariances(phi, sd, g).items():
                p = ProcessSpec(kind=kind, ar_phi=phi, innovation_sd=sd)
                assert cov.dtype == np.float64
                assert _same_bits(covariance_matrix(p, g), cov), (p, m)


def test_median_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(4)
    for size in [*range(1, 40), 64, 1000, 1024, 1025]:
        for _ in range(20):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 6)
            assert _same_bits(process_sim._median(v), np.median(v)), v
    # np.median's mean sums from +0.0, so signed zeros and the smallest
    # subnormals come out as it gives them
    edges = (-0.0, 0.0, 5e-324, -5e-324, 1.5, -2.25)
    for size in (1, 2, 3, 4):
        for v in np.stack(np.meshgrid(*[edges] * size), -1).reshape(-1, size):
            assert _same_bits(process_sim._median(v), np.median(v)), v


def test_calibrate_noise_level_bb():
    g = make_grid(256)
    cal1 = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    assert cal1.noise_sd**2 == pytest.approx(0.1875, abs=1e-3)
    cal10 = calibrate(ProcessSpec(kind="bb"), g, 10.0, 4.25, SignalSpec())
    assert cal10.noise_sd**2 == pytest.approx(0.01875, abs=1e-4)


def test_calibrate_snr_scaling_and_idempotence():
    g = make_grid(64)
    base = calibrate(ProcessSpec(kind="bb"), g, 1.0, 2.0, SignalSpec())
    double = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.0, SignalSpec())
    r1 = np.ptp(eval_signal(base.signal, g))
    r2 = np.ptp(eval_signal(double.signal, g))
    assert r2 == pytest.approx(2.0 * r1)
    again = calibrate(base.process, g, 1.0, 2.0, base.signal)
    assert np.ptp(eval_signal(again.signal, g)) == pytest.approx(r1)


def test_calibrate_matches_ar_innovations():
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="ar1", ar_phi=0.5), g, 1.0, 1.5, SignalSpec())
    bb_med = np.median(process_variance(ProcessSpec(kind="bb"), g))
    assert np.median(process_variance(cal.process, g)) == pytest.approx(bb_med, rel=1e-12)
    cal2 = calibrate(ProcessSpec(kind="arima11", ar_phi=0.5), g, 1.0, 1.5, SignalSpec())
    bm_med = np.median(process_variance(ProcessSpec(kind="bm"), g))
    assert np.median(process_variance(cal2.process, g)) == pytest.approx(bm_med, rel=1e-12)
    # calibration derives the innovation, so a given one would be ignored
    with pytest.raises(ValueError, match="innovation_sd"):
        calibrate(ProcessSpec(kind="ar1", innovation_sd=7.0), g, 1.0, 1.5, SignalSpec())


def test_calibrate_rejects_zero_range():
    g = make_grid(16)
    with pytest.raises(ValueError):
        calibrate(ProcessSpec(kind="bb"), g, 1.0, 2.0, SignalSpec(kind="signal1", c1=0.0, c2=0.0))
    with pytest.raises(ValueError):
        calibrate(ProcessSpec(kind="bb"), g, -1.0, 2.0, SignalSpec())


def test_generate_panel_degenerate_rows_equal_signal():
    # without noise every row is the signal plus that row's path
    g = make_grid(16)
    cfg = PanelConfig(n=5, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.0, seed=4)
    panel = generate_panel(cfg)
    f = eval_signal(cfg.signal, g)
    assert_allclose(panel.Y - f, _paths(cfg.process, g, 5, 4), rtol=0, atol=1e-15)


def test_generate_panel_deterministic():
    g = make_grid(32)
    cfg = PanelConfig(n=8, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=99)
    p1 = generate_panel(cfg)
    p2 = generate_panel(cfg)
    assert np.array_equal(p1.Y, p2.Y)


def test_generate_panel_clt_band():
    g = make_grid(256)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    cfg = PanelConfig(n=400, grid=g, signal=cal.signal, process=cal.process,
                      noise_sd=cal.noise_sd, seed=314)
    panel = generate_panel(cfg)
    var_z = np.median(process_variance(cal.process, g))
    bound = 4.0 * np.sqrt((var_z + cal.noise_sd**2) / 400.0)
    assert np.all(np.abs(panel.Y.mean(axis=0) - eval_signal(cfg.signal, g)) < bound)


def test_panel_config_and_panel_validation():
    g = make_grid(4)
    assert PanelConfig(n=np.int64(3), grid=g, signal=SignalSpec(), process=ProcessSpec(),
                       noise_sd=0.1, seed=0).n == 3
    # the grid is the width of Y: a vector has none, and one column is too few
    assert CurvePanel(Y=np.ones((2, 3))).grid == make_grid(3)
    with pytest.raises(ValueError):
        CurvePanel(Y=np.ones(4))
    with pytest.raises(ValueError):
        CurvePanel(Y=np.ones((2, 1)))
    with pytest.raises(TypeError):
        CurvePanel(Y=np.ones((2, 4)), grid=g)
    with pytest.raises(ValueError):
        CurvePanel(Y=np.array([[1.0, 2.0, np.nan, 4.0]] * 2))


def test_sigma_k_bb_constant_function_mc():
    # sigma_1^2 is the variance of the path average; check against MC
    g = make_grid(32)
    b = fourier_basis(g)
    p = ProcessSpec(kind="bb")
    s2 = sigma_k_theoretical(p, b)
    Z = _paths(p, g, 8000, 33)
    coeffs = Z @ b.values / 32.0
    for k in [0, 1, 16]:
        mc = coeffs[:, k].var(ddof=1)
        se = s2[k] * np.sqrt(2.0 / 7999)
        assert abs(mc - s2[k]) < 3.0 * se


def _sigma_k_from_kernel(process, basis):
    """The kernel form (1/m^2) sum_k phi_k * (Gamma phi_k), built without the factor."""
    phi = basis.values
    return np.sum(phi * (covariance_matrix(process, basis.grid) @ phi), axis=0) / basis.m**2


@pytest.mark.parametrize("family", ["fourier", "haar"])
@pytest.mark.parametrize("kind", ["bb", "bm", "ar1", "arima11"])
def test_sigma_k_matches_kernel_form(kind, family):
    b = basis_for(family, make_grid(64))
    p = _process(kind)
    process_sim._cached_sigma_k.cache_clear()
    s2 = sigma_k_theoretical(p, b)
    assert sigma_k_theoretical(p, b) is s2 and not s2.flags.writeable
    ref = _sigma_k_from_kernel(p, b)
    assert np.all(s2 >= 0.0)
    # relative to the largest variance: both forms round at that scale, so
    # the smallest arima11 entries differ by up to 4e-13 of themselves
    assert np.max(np.abs(s2 - ref)) <= 1e-14 * np.max(ref)


def test_sigma_k_of_a_hand_built_basis_is_its_own():
    g = make_grid(16)
    p = ProcessSpec(kind="bm")
    fourier = sigma_k_theoretical(p, basis_for("fourier", g))
    # same family name and m, other columns: keyed by the basis object
    relabelled = sigma_k_theoretical(p, BasisMatrix("fourier", basis_for("haar", g).values))
    assert np.array_equal(relabelled, sigma_k_theoretical(p, basis_for("haar", g)))
    assert not np.array_equal(relabelled, fourier)


def test_cached_public_names_stay_plain_functions():
    # a benchmark tracer wraps only plain functions named in __all__
    for name in ("sigma_k_theoretical", "process_variance", "eval_signal"):
        assert inspect.isfunction(getattr(process_sim, name)) and name in process_sim.__all__


def test_sigma_k_rejects_a_kernel_matrix():
    b = fourier_basis(make_grid(8))
    with pytest.raises(TypeError, match="ProcessSpec"):
        sigma_k_theoretical(np.eye(8), b)


@pytest.mark.parametrize("entry", [covariance_matrix, process_variance])
@pytest.mark.parametrize("bad", ["bb", np.eye(8), None])
def test_kernels_name_what_is_not_a_process_spec(entry, bad):
    with pytest.raises(TypeError, match=f"^{entry.__name__} needs a ProcessSpec, got {type(bad).__name__}$"):
        entry(bad, make_grid(8))
