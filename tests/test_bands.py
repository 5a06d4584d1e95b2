"""Band constructions against brute-force sums, containment semantics, and
small coverage experiments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curveband import bands, cli_io
from curveband.grid_basis import BASIS_FAMILIES, analyze, basis_for, fourier_basis, make_grid, synthesize
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    eval_signal,
    generate_panel,
    sigma_k_theoretical,
)
from curveband.estimator import (
    CoefficientStats,
    moments,
    normal_quantile,
    per_curve_coeffs,
    pooled_stats,
    theoretical_levels,
    truncated_target,
)
from curveband.bands import (
    COMPETITOR_KINDS,
    ConfidenceBand,
    CoverageReport,
    CurveMoments,
    _build_band,
    _competitor_bands,
    coverage_experiment,
    covers,
)
from curveband.metrics_bench import omega_event_check


def _stats(mu_hat, r_hat, r_tilde=None, n=4, alpha=0.05, delta=0.0):
    mu_hat = np.asarray(mu_hat, dtype=float)
    r_hat = np.asarray(r_hat, dtype=float)
    if r_tilde is None:
        r_tilde = r_hat
    return CoefficientStats(
        mu_hat=mu_hat, n=n,
        s_k=np.zeros_like(mu_hat), alpha=alpha, delta=delta,
        r_hat=r_hat, r_tilde=np.asarray(r_tilde, dtype=float),
    )


def test_band_bounds_and_validation():
    band = ConfidenceBand(kind="proposed_hard1", center=np.array([1.0, 2.0]),
                          half_width=np.array([0.5, 0.0]), alpha=0.05)
    assert_array_equal(band.lower, [0.5, 2.0])
    assert_array_equal(band.upper, [1.5, 2.0])
    with pytest.raises(ValueError):
        ConfidenceBand(kind="proposed_hard1", center=np.zeros(2),
                       half_width=np.array([0.1, -0.1]), alpha=0.05)
    for bad in [np.nan, np.inf]:
        with pytest.raises(ValueError, match="half_width"):
            ConfidenceBand(kind="proposed_hard1", center=np.zeros(2),
                           half_width=np.array([0.1, bad]), alpha=0.05)
    for half in [np.zeros(3), np.float64(0.1), np.zeros((2, 1))]:
        with pytest.raises(ValueError, match="shape of center"):
            ConfidenceBand(kind="proposed_hard1", center=np.zeros(2), half_width=half, alpha=0.05)


def test_band_keeps_its_checked_float_arrays():
    band = ConfidenceBand(kind="proposed_hard1", center=[1, 2], half_width=[0.5, 0], alpha=0.05)
    for values in (band.center, band.half_width):
        assert type(values) is np.ndarray and values.dtype == float
    assert_array_equal(band.half_width, [0.5, 0.0])
    assert_array_equal(band.upper, [1.5, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_rejects_a_nonfinite_center(bad):
    with pytest.raises(ValueError, match="center must be finite"):
        ConfidenceBand(kind="proposed_hard1", center=np.array([0.0, bad]), half_width=np.zeros(2), alpha=0.05)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, np.nan, True, "0.05"])
def test_band_rejects_an_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ConfidenceBand(kind="proposed_hard1", center=np.zeros(2), half_width=np.zeros(2), alpha=alpha)


def test_proposed_band_no_active_coefficients():
    b = fourier_basis(make_grid(8))
    st = _stats([0.1, -0.05] + [0.0] * 6, [0.5] * 8)
    band = _build_band("proposed_hard1", b, st)
    assert np.all(band.center == 0.0)
    assert np.all(band.half_width == 0.0)


def test_proposed_band_single_active_constant_function():
    b = fourier_basis(make_grid(8))
    r_hat = np.array([1.0] + [10.0] * 7)
    r_tilde = np.array([0.7] + [9.0] * 7)
    st = _stats([5.0] + [0.0] * 7, r_hat, r_tilde)
    for mult, kind in [(1, "proposed_hard1"), (3, "proposed_hard3"), (2, "proposed_soft2")]:
        band = _build_band(kind, b, st)
        assert_allclose(band.half_width, np.full(8, mult * 0.7), rtol=1e-15)


def test_proposed_band_brute_force():
    rng = np.random.default_rng(6)
    b = fourier_basis(make_grid(16))
    st = _stats(rng.normal(size=16), np.abs(rng.normal(scale=0.5, size=16)),
                np.abs(rng.normal(scale=0.8, size=16)))
    band = _build_band("proposed_hard3", b, st)
    for j in range(16):
        direct = 0.0
        for k in range(16):
            if abs(st.mu_hat[k]) > st.r_hat[k]:
                direct += st.r_tilde[k] * abs(b.values[j, k])
        assert abs(band.half_width[j] - 3.0 * direct) < 1e-12


def test_hard3_width_is_three_times_hard1_exactly():
    rng = np.random.default_rng(8)
    b = fourier_basis(make_grid(32))
    st = _stats(rng.normal(size=32), np.abs(rng.normal(scale=0.5, size=32)),
                np.abs(rng.normal(size=32)))
    b1 = _build_band("proposed_hard1", b, st)
    b3 = _build_band("proposed_hard3", b, st)
    assert_array_equal(b3.half_width, 3.0 * b1.half_width)
    assert_array_equal(b3.center, b1.center)


def test_untruncated_band_m2_single_level():
    # a zero-spread second column gives r_hat_2 = 0, so the level sum
    # collapses to r_hat_1 alone (the one-coefficient case on a real grid)
    b = fourier_basis(make_grid(2))
    pc = np.array([[1.0, 0.3], [3.0, 0.3]])
    st = pooled_stats(pc, alpha=0.05)
    assert st.r_hat[1] == 0.0
    band = _build_band("untruncated_ls", b, st)
    assert_allclose(band.half_width, np.full(2, st.r_hat[0]), rtol=1e-15)


def test_untruncated_band_brute_force_and_dominance():
    rng = np.random.default_rng(12)
    b = fourier_basis(make_grid(16))
    pc = rng.normal(size=(6, 16))
    st = pooled_stats(pc, alpha=0.05, delta=0.0)
    band = _build_band("untruncated_ls", b, st)
    for j in range(16):
        direct = sum(st.r_hat[k] * abs(b.values[j, k]) for k in range(16))
        assert abs(band.half_width[j] - direct) < 1e-12
    prop = _build_band("proposed_hard1", b, st)
    assert np.all(prop.half_width <= band.half_width + 1e-15)


def _competitor(kind, basis, curves, process=None, alpha=0.05):
    return _competitor_bands((kind,), basis, curves, process, alpha)[kind]


def test_competitor_band_zero_variance():
    # identical curves: zero sample variance, centre at the mean curve's fit
    b = fourier_basis(make_grid(4))
    mean = np.ones(4)
    band = _competitor("competitor_sample_var", b, CurveMoments(10, *moments(np.tile(mean, (10, 1)), 2)))
    assert np.all(band.half_width == 0.0)
    assert_array_equal(band.center, synthesize(analyze(mean, b), b))
    assert_allclose(band.center, mean, rtol=0.0, atol=1e-15)


def test_competitor_band_known_variance_value():
    # half width at V=1/4, n=100, alpha=0.05, m=64 from the display formula;
    # target value recomputed with the verified quantile
    b = fourier_basis(make_grid(64))
    band = _competitor("competitor_sample_var", b, CurveMoments(100, np.zeros(64), np.full(64, 0.25)))
    expect = np.sqrt(0.25 / 100.0) * normal_quantile(0.05 / 128.0)
    assert expect == pytest.approx(0.16797, abs=1e-3)
    assert_allclose(band.half_width, np.full(64, expect), rtol=1e-15)


def test_competitor_band_validation():
    b = fourier_basis(make_grid(4))
    curves = CurveMoments(10, np.zeros(4), np.zeros(4))
    for kind in ("bootstrap", "proposed_hard1", "untruncated_ls"):
        with pytest.raises(ValueError, match="unknown competitor band kind"):
            _competitor(kind, b, curves)
    for kind in COMPETITOR_KINDS + ("bootstrap",):
        with pytest.raises(ValueError, match="unknown coefficient band kind"):
            _build_band(kind, b, _stats(np.zeros(4), np.zeros(4)))


def test_sample_variance_brute_force():
    rng = np.random.default_rng(14)
    b = fourier_basis(make_grid(8))
    Y = rng.normal(size=(6, 8))
    band = _competitor("competitor_sample_var", b, CurveMoments(6, *moments(Y, 2)))
    v = 6 * (band.half_width / normal_quantile(0.05 / 16.0)) ** 2
    for j in range(8):
        mean_j = Y[:, j].mean()
        direct = np.sum((Y[:, j] - mean_j) ** 2) / 5.0
        assert abs(v[j] - direct) < 1e-12


@pytest.mark.parametrize("family", BASIS_FAMILIES)
def test_both_competitor_bands_share_one_centre(family):
    # one analysis of the mean curves per call, read by both kinds
    g = make_grid(16)
    b = basis_for(family, g)
    Y = np.random.default_rng(3).normal(size=(2, 9, 16))
    curves = CurveMoments(9, *moments(Y, 2))
    built = _competitor_bands(COMPETITOR_KINDS, b, curves, ProcessSpec(kind="bm"), 0.05)
    theoretical, sample_var = (built[kind].center for kind in COMPETITOR_KINDS)
    assert theoretical.tobytes() == sample_var.tobytes()
    assert theoretical.tobytes() == synthesize(analyze(curves.mean, b), b).tobytes()


@pytest.mark.parametrize("family", BASIS_FAMILIES)
@pytest.mark.parametrize("m", [2, 3, 12, 64, 256])
def test_rebuilt_curves_have_the_curves_variance(family, m):
    # Phi Phi^T = m I on the midpoint design, so V needs no basis
    Y = np.random.default_rng(m).normal(size=(9, m))
    phi = basis_for(family, make_grid(m)).values
    assert_allclose(((Y @ phi / m) @ phi.T).var(axis=0, ddof=1), Y.var(axis=0, ddof=1), rtol=1e-12)


def test_sample_variance_band_is_the_same_on_every_basis(tmp_path, monkeypatch):
    ppath = tmp_path / "p.csv"
    cli_io.write_panel_csv(CurvePanel(Y=np.random.default_rng(26).normal(size=(40, 64))), str(ppath))
    halves = []

    def keep_half_width(*args):
        built = _competitor_bands(*args)
        halves.extend(band.half_width for band in built.values())
        return built

    monkeypatch.setattr(cli_io, "_competitor_bands", keep_half_width)
    for family in BASIS_FAMILIES:
        argv = ["band", "--panel", str(ppath), "--kind", "competitor_sample_var", "--basis", family,
                "--out", str(tmp_path / f"{family}.csv")]
        assert cli_io.main(argv) == 0
    assert len(halves) == 2
    assert_array_equal(halves[0], halves[1])


def test_covers_semantics():
    band = ConfidenceBand(kind="proposed_hard1", center=np.array([1.0, 2.0, 3.0]),
                          half_width=np.array([0.5, 0.5, 0.5]), alpha=0.05)
    assert covers(band, band.center)
    too_high = band.center.copy()
    too_high[1] += 0.6
    assert not covers(band, too_high)
    with pytest.raises(ValueError):
        covers(band, np.zeros(2))


def test_covers_zero_width_boundary():
    band = ConfidenceBand(kind="proposed_hard1", center=np.array([1.0, 2.0]),
                          half_width=np.zeros(2), alpha=0.05)
    assert covers(band, band.center)
    assert not covers(band, band.center + np.array([0.0, 1e-15]))


def test_covers_monotone_under_enlargement():
    rng = np.random.default_rng(5)
    center = rng.normal(size=16)
    half = np.abs(rng.normal(size=16))
    target = center + half * rng.uniform(-1.0, 1.0, size=16)
    band = ConfidenceBand(kind="untruncated_ls", center=center, half_width=half, alpha=0.05)
    assert covers(band, target)
    bigger = ConfidenceBand(kind="untruncated_ls", center=center,
                            half_width=half + np.abs(rng.normal(size=16)), alpha=0.05)
    assert covers(bigger, target)


def test_coverage_report_validation():
    with pytest.raises(ValueError):
        CoverageReport(replicates=5, covered_count=6, mean_width=0.1,
                       target="true_mean", band_kind="proposed_hard1")
    rep = CoverageReport(replicates=4, covered_count=3, mean_width=0.1,
                         target="true_mean", band_kind="proposed_hard1")
    assert rep.coverage == 0.75


@pytest.mark.parametrize("field, value, match", [
    ("replicates", 0, "replicates"),
    ("replicates", -1, "replicates"),
    ("replicates", True, "replicates"),
    ("covered_count", True, "covered_count"),
    ("covered_count", False, "covered_count"),
    ("mean_width", np.nan, "mean_width"),
    ("mean_width", np.inf, "mean_width"),
    ("mean_width", -0.1, "mean_width"),
    ("target", "mean", "target"),
    ("band_kind", "bootstrap", "band kind"),
])
def test_coverage_report_rejects(field, value, match):
    good = dict(replicates=1, covered_count=0, mean_width=0.1, target="truncated_target",
                band_kind="competitor_sample_var")
    CoverageReport(**good)
    with pytest.raises(ValueError, match=match):
        CoverageReport(**{**good, field: value})


def test_coverage_experiment_degenerate_full_coverage():
    # every curve equals the signal.  With the zero signal everything is
    # exactly zero, so the zero-width band covers; for a generic signal the
    # center carries ~1e-16 synthesis roundtrip error, so a tiny delta is
    # needed to give the band any width
    g = make_grid(16)
    b = fourier_basis(g)
    for signal, delta in ((SignalSpec(kind="signal1", c1=0.0, c2=0.0), 0.0), (SignalSpec(), 1e-9)):
        f = eval_signal(signal, g)
        panel = CurvePanel(Y=np.tile(f, (4, 1)))
        stats = pooled_stats(per_curve_coeffs(panel, b), 0.05, delta)
        for kind in ["proposed_hard1", "proposed_hard3", "proposed_soft2"]:
            assert covers(_build_band(kind, b, stats), f) is True


def test_coverage_experiment_validation_and_notes():
    g = make_grid(8)
    cfg = PanelConfig(n=4, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.1, seed=1)
    with pytest.raises(ValueError):
        coverage_experiment(cfg, "magic_band", S=2)
    with pytest.raises(ValueError):
        coverage_experiment(cfg, "proposed_hard1", S=0)
    # a float S would fail inside numpy, and S=True would run one replicate
    for bad in [2.5, 3.0, True]:
        with pytest.raises(ValueError, match="S >= 1"):
            coverage_experiment(cfg, "proposed_hard1", S=bad)
    with pytest.raises(ValueError):
        coverage_experiment(cfg, "proposed_hard1", S=2, target_kind="oracle")
    with pytest.raises(ValueError, match="unknown basis family"):
        coverage_experiment(cfg, "proposed_hard1", S=2, basis_family="fourir")
    rep = coverage_experiment(cfg, "competitor_sample_var", S=3)
    assert any("least-squares" in note for note in rep.notes)


def test_coverage_experiment_rejects_a_delta_nothing_reads():
    # a competitor band reads only alpha, and the true mean has no level; the
    # truncated target's levels do read delta
    g = make_grid(8)
    cfg = PanelConfig(n=4, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.1, seed=1)
    for kind in ("competitor_theoretical", "competitor_sample_var"):
        with pytest.raises(ValueError, match="reads only alpha"):
            coverage_experiment(cfg, kind, S=2, delta=0.5)
        assert coverage_experiment(cfg, kind, S=2, delta=0.0).replicates == 2
        assert coverage_experiment(cfg, kind, S=2, target_kind="truncated_target", delta=0.5).replicates == 2
    assert coverage_experiment(cfg, "proposed_hard1", S=2, delta=0.5).replicates == 2


def test_coverage_experiment_failure_carries_replicate_seed(monkeypatch):
    g = make_grid(8)
    cfg = PanelConfig(n=4, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.1, seed=1)
    seed = int(np.random.SeedSequence(cfg.seed).generate_state(1, dtype=np.uint64)[0])

    def boom(config):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(bands, "generate_panel", boom)
    with pytest.raises(RuntimeError, match=rf"replicate 0 failed \(panel seed {seed}\): synthetic failure"):
        coverage_experiment(cfg, "proposed_hard1", S=3)


def test_coverage_experiment_single_replicate_echo():
    # recompute the lone replicate from the derived seed contract
    g = make_grid(32)
    cfg = PanelConfig(n=20, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=41)
    seed = int(np.random.SeedSequence(cfg.seed).generate_state(1, dtype=np.uint64)[0])
    panel = generate_panel(PanelConfig(n=cfg.n, grid=g, signal=cfg.signal, process=cfg.process,
                                       noise_sd=cfg.noise_sd, seed=seed))
    b = fourier_basis(g)
    st = pooled_stats(per_curve_coeffs(panel, b), 0.05)
    f = eval_signal(cfg.signal, g)
    direct = {
        "proposed_hard3": _build_band("proposed_hard3", b, st),
        "competitor_theoretical": _competitor(
            "competitor_theoretical", b, CurveMoments(panel.n, *moments(panel.Y, 1)), cfg.process),
    }
    for kind, band in direct.items():
        rep = coverage_experiment(cfg, kind, S=1)
        assert rep.covered_count == int(covers(band, f))
        assert rep.mean_width == pytest.approx(float(np.mean(2.0 * band.half_width)), rel=1e-15)


def test_coverage_experiment_truncated_target_route():
    g = make_grid(32)
    cfg = PanelConfig(n=30, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=7)
    rep = coverage_experiment(cfg, "proposed_hard3", S=20, target_kind="truncated_target",
                              delta=0.01)
    assert rep.target == "truncated_target"
    assert 0.0 <= rep.coverage <= 1.0
    assert rep.mean_width > 0.0


def test_omega_event_implies_surrogate_coverage():
    # proof route of the widest adaptive band: on the good event the band
    # must contain the truncated surrogate, so the event frequency can
    # never exceed the coverage frequency on the same panels
    g = make_grid(32)
    b = fourier_basis(g)
    alpha, delta = 0.05, 0.01
    cfg = PanelConfig(n=50, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.3, seed=29)
    sigma_k = np.sqrt(sigma_k_theoretical(cfg.process, b))
    levels = theoretical_levels(sigma_k, cfg.noise_sd, cfg.n, alpha, delta)
    mu_true = analyze(eval_signal(cfg.signal, g), b)
    _, target = truncated_target(mu_true, 2.0 * levels.r_bar, b)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(40, dtype=np.uint64)
    omega_count = 0
    cover_count = 0
    for s in range(40):
        rep_cfg = PanelConfig(n=cfg.n, grid=g, signal=cfg.signal, process=cfg.process,
                              noise_sd=cfg.noise_sd, seed=int(seeds[s]))
        panel = generate_panel(rep_cfg)
        st = pooled_stats(per_curve_coeffs(panel, b), alpha, delta)
        band = _build_band("proposed_hard3", b, st)
        omega = omega_event_check(st, levels, mu_true)
        covered = covers(band, target)
        if omega:
            assert covered
        omega_count += omega
        cover_count += covered
    assert omega_count <= cover_count


@pytest.mark.parametrize("kind", ["bogus", "", None, "Proposed_hard1"])
def test_band_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match="unknown band kind"):
        ConfidenceBand(kind=kind, center=np.zeros(2), half_width=np.zeros(2), alpha=0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covers_rejects_a_nonfinite_target(bad):
    # a NaN target would read as not covered
    band = ConfidenceBand(kind="proposed_hard1", center=np.zeros(2), half_width=np.ones(2), alpha=0.05)
    with pytest.raises(ValueError, match="target must be finite"):
        covers(band, np.array([0.0, bad]))
