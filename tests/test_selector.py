"""Split determinism and uniformity, held-out risk, and candidate selection."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from curveband.grid_basis import basis_for, fourier_basis, make_grid
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    generate_panel,
)
from curveband.estimator import fit, per_curve_coeffs, pooled_stats
from curveband.selector import CandidateSpec, select, split_panel


def _panel(n=8, m=16, seed=0, noise_sd=0.2):
    g = make_grid(m)
    cfg = PanelConfig(n=n, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=noise_sd, seed=seed)
    return generate_panel(cfg)


def test_candidate_spec_validation_and_labels():
    assert CandidateSpec("fourier", "hard", 1).label() == "fourier-ht1r-a0.05"
    assert CandidateSpec("haar", "soft", 2, alpha=0.1).label() == "haar-st2r-a0.1"
    assert CandidateSpec("fourier", "least_squares").label() == "fourier-ls"
    with pytest.raises(ValueError):
        CandidateSpec("spline", "hard")
    with pytest.raises(ValueError):
        CandidateSpec("fourier", "ridge")
    with pytest.raises(ValueError):
        CandidateSpec("fourier", "hard", 3)
    with pytest.raises(ValueError, match="threshold multiplier must be 1, got 2"):
        CandidateSpec("fourier", "least_squares", multiplier=2)
    # True == 1, but a bool is no multiplier: it would label itself ht1r
    with pytest.raises(ValueError, match="threshold multiplier must be 1 or 2, got True"):
        CandidateSpec("fourier", "hard", multiplier=True)
    with pytest.raises(ValueError):
        CandidateSpec("fourier", "hard", 1, alpha=0.0)
    # least squares keeps every coefficient, so an alpha away from the
    # default would change nothing but the spec
    assert CandidateSpec("fourier", "least_squares", alpha=0.05) == CandidateSpec("fourier", "least_squares")
    with pytest.raises(ValueError, match="alpha would be ignored: least_squares has no threshold level"):
        CandidateSpec("fourier", "least_squares", alpha=0.1)


def test_split_n4():
    i1, i2 = split_panel(_panel(n=4), seed=5)
    assert len(i1) == 2 and len(i2) == 2
    assert set(i1).isdisjoint(i2)
    assert sorted(set(i1) | set(i2)) == [0, 1, 2, 3]


def test_split_odd_n_gives_fit_half_extra():
    i1, i2 = split_panel(_panel(n=7), seed=1)
    assert len(i1) == 4 and len(i2) == 3


def test_split_deterministic():
    p = _panel(n=10)
    a1, a2 = split_panel(p, seed=77)
    b1, b2 = split_panel(p, seed=77)
    assert_array_equal(a1, b1)
    assert_array_equal(a2, b2)


def test_split_rejects_small_n():
    panel = CurvePanel(Y=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        split_panel(panel, seed=0)


def test_split_uniformity_mc():
    p = _panel(n=10)
    counts = np.zeros(10)
    for s in range(10000):
        i1, _ = split_panel(p, seed=s)
        counts[i1] += 1
    freq = counts / 10000.0
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_select_single_candidate():
    p = _panel()
    cand = CandidateSpec("fourier", "hard", 1)
    res = select(p, [cand], seed=9)
    assert res.winner == cand
    assert res.winner_index == 0
    assert res.risks.shape == (1,)
    assert np.isfinite(res.risks[0])
    assert res.risks[0] == np.mean((p.Y[res.i2_indices] - res.fitted_values) ** 2)


def test_select_scores_every_candidate_on_the_held_out_curves():
    p = _panel(n=11, m=16, seed=13)
    cands = [
        CandidateSpec("fourier", "hard", 1),
        CandidateSpec("fourier", "soft", 2, alpha=0.1),
        CandidateSpec("haar", "hard", 2),
        CandidateSpec("haar", "least_squares"),
    ]
    res = select(p, cands, seed=5)
    held_out = p.Y[res.i2_indices]
    sub = CurvePanel(Y=p.Y[res.i1_indices])
    for cand, risk in zip(cands, res.risks):
        b = basis_for(cand.basis_family, p.grid)
        st = pooled_stats(per_curve_coeffs(sub, b), alpha=cand.alpha)
        g = fit(cand.rule, st, b, cand.multiplier).values
        # bit for bit against the refit's grid risk
        assert risk == np.mean((held_out - g) ** 2)
        # and against the mean of (Y_ij - g(t_j))^2 over held-out i and grid j
        direct = 0.0
        for i in res.i2_indices:
            for j in range(p.grid.m):
                direct += (p.Y[i, j] - g[j]) ** 2
        assert abs(risk - direct / (len(res.i2_indices) * p.grid.m)) < 1e-12


def test_select_duplicates_tie_break_first():
    p = _panel()
    cand = CandidateSpec("fourier", "hard", 1)
    res = select(p, [cand, cand, cand], seed=9)
    assert res.winner_index == 0
    assert res.risks[0] == res.risks[1] == res.risks[2]


def test_select_argmin_exact():
    p = _panel(n=12, seed=8)
    cands = [
        CandidateSpec("fourier", "hard", 1),
        CandidateSpec("fourier", "hard", 2),
        CandidateSpec("fourier", "soft", 1),
        CandidateSpec("haar", "hard", 1),
        CandidateSpec("fourier", "least_squares"),
    ]
    res = select(p, cands, seed=4)
    assert res.risks[res.winner_index] == res.risks.min()
    assert np.all(res.risks[res.winner_index] <= res.risks)


def test_risk_shift_invariance():
    # shifting the data and every fit by the same constant leaves each
    # held-out risk (hence the argmin) unchanged up to fp rounding
    p = _panel(n=12, seed=15, noise_sd=0.3)
    shifted_panel = CurvePanel(Y=p.Y + 5.0)
    i1, i2 = split_panel(p, seed=2)
    b = fourier_basis(p.grid)
    sub = CurvePanel(Y=p.Y[i1])
    st = pooled_stats(per_curve_coeffs(sub, b), alpha=0.05)
    fits = [fit("hard", st, b, 1).values, fit("hard", st, b, 2).values, st.mu_hat @ b.values.T]
    base = np.array([np.mean((p.Y[i2] - g) ** 2) for g in fits])
    shift = np.array([np.mean((shifted_panel.Y[i2] - (g + 5.0)) ** 2) for g in fits])
    assert np.allclose(shift, base, rtol=1e-9)
    assert np.argmin(shift) == np.argmin(base)


def test_select_refit_reproduces_fit_bitwise():
    p = _panel(n=10, seed=21)
    cand = CandidateSpec("fourier", "hard", 1)
    res1 = select(p, [cand], seed=6)
    res2 = select(p, [cand], seed=6)
    assert_array_equal(res1.fitted_values, res2.fitted_values)
    # manual refit on I1 through the public pieces
    b = fourier_basis(p.grid)
    sub = CurvePanel(Y=p.Y[res1.i1_indices])
    st = pooled_stats(per_curve_coeffs(sub, b), alpha=cand.alpha)
    assert_array_equal(fit("hard", st, b, 1).values, res1.fitted_values)


@pytest.mark.parametrize("m, analyses", [(16, 2), (24, 2)])
def test_select_analyses_each_family_once(monkeypatch, m, analyses):
    calls = []

    def counted(panel, basis):
        calls.append(basis.family)
        return per_curve_coeffs(panel, basis)

    monkeypatch.setattr("curveband.selector.per_curve_coeffs", counted)
    cands = [CandidateSpec(f, rule, 1, alpha) if rule != "least_squares" else CandidateSpec(f, rule)
             for alpha in (0.05, 0.1) for f in ("fourier", "haar") for rule in ("hard", "soft", "least_squares")]
    res = select(_panel(n=9, m=m), cands, seed=3)
    assert len(calls) == analyses
    assert sorted(set(calls)) == ["fourier", "haar"][:analyses]
    assert np.isfinite(res.risks).sum() == len(cands) // 2 * analyses


def test_select_fits_haar_on_a_non_dyadic_grid():
    g = make_grid(12)
    cfg = PanelConfig(n=8, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=2)
    p = generate_panel(cfg)
    cands = [CandidateSpec("haar", rule, 1, alpha) for alpha in (0.05, 0.1) for rule in ("hard", "soft")]
    res = select(p, [*cands, CandidateSpec("fourier", "hard", 1)], seed=0)
    assert np.all(np.isfinite(res.risks))
    alone = select(p, cands, seed=0)
    assert_array_equal(alone.risks, res.risks[:-1])
    assert np.all(np.isfinite(alone.fitted_values))


@pytest.mark.parametrize("m", [12, 24])
def test_least_squares_in_every_family_is_the_pointwise_mean(m):
    # least squares in a complete orthonormal basis keeps every coefficient,
    # so its fit is the fitting half's mean curve whatever the basis
    p = _panel(n=11, m=m, seed=5)
    fits = {family: select(p, [CandidateSpec(family, "least_squares")], seed=1) for family in ("fourier", "haar")}
    mean = p.Y[fits["haar"].i1_indices].mean(axis=0)
    for res in fits.values():
        assert np.max(np.abs(res.fitted_values - mean)) < 1e-12
    assert abs(fits["haar"].risks[0] - fits["fourier"].risks[0]) < 1e-12


def test_select_rejects_empty_candidates():
    with pytest.raises(ValueError):
        select(_panel(), [], seed=0)


def test_fourier_beats_haar_on_smooth_signal():
    # reduced-replicate version of the full benchmark experiment: the smooth
    # two-bump signal is sparse in Fourier, so that family should win the
    # held-out risk most of the time
    g = make_grid(64)
    cal = calibrate(ProcessSpec(kind="bb"), g, 1.0, 4.25, SignalSpec())
    cands = [CandidateSpec("fourier", "hard", 1), CandidateSpec("haar", "hard", 1)]
    wins = 0
    reps = 60
    for s in range(reps):
        cfg = PanelConfig(n=100, grid=g, signal=cal.signal, process=cal.process,
                          noise_sd=cal.noise_sd, seed=1000 + s)
        res = select(generate_panel(cfg), cands, seed=s)
        wins += res.winner_index == 0
    assert wins / reps >= 0.8
