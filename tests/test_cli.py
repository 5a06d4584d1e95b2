"""End-to-end command-line checks, run in process against tmp files."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curveband.cli_io import main, read_panel_csv, write_panel_csv
from curveband.grid_basis import fourier_basis, haar_basis, make_grid, synthesize
from curveband.process_sim import CurvePanel, PanelConfig, ProcessSpec, SignalSpec, generate_panel
from curveband.estimator import per_curve_coeffs, pooled_stats
from curveband.selector import CandidateSpec, select
from curveband.bands import _build_band


def _run(*argv):
    return main([str(a) for a in argv])


def _read_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def test_simulate_minimal_shape(tmp_path):
    out = tmp_path / "panel.csv"
    assert _run("simulate", "--n", 4, "--m", 4, "--seed", 1, "--out", out) == 0
    rows = _read_rows(out)
    data_rows = [r for r in rows if not r.startswith("#")]
    assert len(data_rows) == 5
    assert all(len(r.split(",")) == 4 for r in data_rows)
    meta = json.loads((tmp_path / "panel.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 1
    assert meta["command"] == "simulate"


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert _run("simulate", "--n", 6, "--m", 8, "--seed", 33, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_sidecar_config_replays_as_a_panel_block(tmp_path):
    # the sidecar echoes only the keys each kind reads, and a calibration's
    # derived noise, amplitudes and innovation, so it is a valid panel block
    cases = (
        ("ar1", ("--process", "ar1", "--ar-phi", 0.3, "--sigma-star", 1.0, "--snr", 4.25)),
        ("signal2", ("--signal", "signal2", "--noise-sd", 0.2)),
    )
    for name, flags in cases:
        first, again = tmp_path / f"{name}.csv", tmp_path / f"{name}_again.csv"
        assert _run("simulate", "--n", 6, "--m", 8, "--seed", 12, *flags, "--out", first) == 0
        config = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())["config"]
        scen = tmp_path / f"{name}.json"
        scen.write_text(json.dumps({"panel": config}))
        assert _run("simulate", "--scenario", scen, "--out", again) == 0
        assert again.read_bytes() == first.read_bytes()
        assert json.loads((tmp_path / f"{name}_again.csv.meta.json").read_text())["config"] == config


def test_simulate_large_panel_shape(tmp_path):
    out = tmp_path / "big.csv"
    assert _run("simulate", "--n", 400, "--m", 256, "--seed", 5, "--out", out) == 0
    panel = read_panel_csv(str(out))
    assert panel.Y.shape == (400, 256)
    assert panel.grid.m == 256
    assert len([r for r in _read_rows(out) if not r.startswith("#")]) == 401


def test_panel_csv_roundtrip_lossless(tmp_path):
    g = make_grid(16)
    cfg = PanelConfig(n=5, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=9)
    panel = generate_panel(cfg)
    path = tmp_path / "rt.csv"
    write_panel_csv(panel, str(path))
    back = read_panel_csv(str(path))
    assert np.array_equal(back.Y, panel.Y)
    assert np.array_equal(back.grid.points, panel.grid.points)


def test_estimate_constant_panel_single_active(tmp_path):
    # identical constant curves: everything lives in the first coefficient;
    # a tiny delta keeps matmul dust (~1e-16) below the threshold
    g = make_grid(16)
    panel = CurvePanel(grid=g, Y=np.full((4, 16), 2.5))
    ppath = tmp_path / "const.csv"
    write_panel_csv(panel, str(ppath))
    out = tmp_path / "est"
    assert _run("estimate", "--panel", ppath, "--out", out, "--delta", 1e-9) == 0
    rows = _read_rows(tmp_path / "est.coeffs.csv")
    header = rows[0].split(",")
    ki, acti, mui = header.index("k"), header.index("active"), header.index("mu_hat")
    active = [(int(r.split(",")[ki]), float(r.split(",")[mui]))
              for r in rows[1:] if r.split(",")[acti] == "1"]
    assert active == [(1, 2.5)]
    meta = json.loads((tmp_path / "est.meta.json").read_text())
    assert meta["config"]["active_count"] == 1


def test_estimate_sparse_roundtrip(tmp_path):
    # noiseless panel synthesized from a sparse coefficient vector comes
    # back through the files at fp-roundtrip accuracy
    g = make_grid(32)
    b = fourier_basis(g)
    mu = np.zeros(32)
    mu[[0, 2, 5]] = [1.5, -0.75, 0.25]
    row = synthesize(mu, b)
    panel = CurvePanel(grid=g, Y=np.tile(row, (3, 1)))
    ppath = tmp_path / "sparse.csv"
    write_panel_csv(panel, str(ppath))
    out = tmp_path / "est"
    assert _run("estimate", "--panel", ppath, "--out", out) == 0
    rows = _read_rows(tmp_path / "est.coeffs.csv")
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert_allclose(got, mu, atol=1e-12)
    fit = np.array([float(r.split(",")[2]) for r in _read_rows(tmp_path / "est.fit.csv")[1:]])
    assert_allclose(fit, row, atol=1e-12)


def test_estimate_files_pipeline_sparsity(tmp_path):
    # simulate-then-estimate through files: the smooth two-bump signal path
    # keeps about a dozen trigonometric coefficients
    ppath = tmp_path / "panel.csv"
    assert _run("simulate", "--n", 400, "--m", 256, "--noise-sd", 0.136,
                "--seed", 42, "--out", ppath) == 0
    out = tmp_path / "est"
    assert _run("estimate", "--panel", ppath, "--out", out) == 0
    meta = json.loads((tmp_path / "est.meta.json").read_text())
    assert abs(meta["config"]["active_count"] - 11) <= 2


def test_estimate_haar_bad_m_exit1(tmp_path, capsys):
    g = make_grid(12)
    panel = CurvePanel(grid=g, Y=np.zeros((3, 12)))
    ppath = tmp_path / "p12.csv"
    write_panel_csv(panel, str(ppath))
    code = _run("estimate", "--panel", ppath, "--basis", "haar", "--out", tmp_path / "x")
    assert code == 1
    assert "power of two" in capsys.readouterr().err.lower()


def test_estimate_missing_panel_exit2(tmp_path, capsys):
    code = _run("estimate", "--panel", tmp_path / "nope.csv", "--out", tmp_path / "x")
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_select_cli_matches_library(tmp_path):
    g = make_grid(16)
    cfg = PanelConfig(n=10, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=3)
    panel = generate_panel(cfg)
    ppath = tmp_path / "panel.csv"
    write_panel_csv(panel, str(ppath))
    out = tmp_path / "sel.json"
    assert _run("select", "--panel", ppath, "--seed", 11, "--out", out) == 0
    payload = json.loads(out.read_text())
    cands = [CandidateSpec("fourier", "hard", 1), CandidateSpec("haar", "hard", 1)]
    direct = select(panel, cands, 11)
    assert payload["winner"] == direct.winner.label()
    assert payload["winner_index"] == direct.winner_index
    assert payload["split_seed"] == 11
    for cand, risk in zip(cands, direct.risks):
        assert payload["risks"][cand.label()] == pytest.approx(risk, abs=1e-15)
    assert payload["i1_indices"] == [int(i) for i in direct.i1_indices]


def test_band_cli_matches_library(tmp_path):
    g = make_grid(32)
    cfg = PanelConfig(n=20, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.2, seed=6)
    panel = generate_panel(cfg)
    ppath = tmp_path / "panel.csv"
    write_panel_csv(panel, str(ppath))
    out = tmp_path / "band.csv"
    assert _run("band", "--panel", ppath, "--kind", "proposed_hard3", "--out", out) == 0
    rows = _read_rows(out)[1:]
    got_center = np.array([float(r.split(",")[2]) for r in rows])
    got_lower = np.array([float(r.split(",")[3]) for r in rows])
    b = fourier_basis(g)
    st = pooled_stats(per_curve_coeffs(panel, b), 0.05, 0.0)
    band = _build_band("proposed_hard3", b, st)
    assert_allclose(got_center, band.center, atol=1e-12)
    assert_allclose(got_lower, band.lower, atol=1e-12)


def test_band_competitor_needs_scenario(tmp_path, capsys):
    g = make_grid(8)
    panel = CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(4, 8)))
    ppath = tmp_path / "p.csv"
    write_panel_csv(panel, str(ppath))
    code = _run("band", "--panel", ppath, "--kind", "competitor_theoretical",
                "--out", tmp_path / "b.csv")
    assert code == 1
    assert "--scenario" in capsys.readouterr().err


def test_band_competitor_with_scenario(tmp_path):
    g = make_grid(16)
    cfg = PanelConfig(n=12, grid=g, signal=SignalSpec(), process=ProcessSpec(kind="bb"),
                      noise_sd=0.1, seed=4)
    panel = generate_panel(cfg)
    ppath = tmp_path / "p.csv"
    write_panel_csv(panel, str(ppath))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"panel": {
        "n": 12, "m": 16, "signal": {"kind": "signal1"}, "process": {"kind": "bb"},
        "noise_sd": 0.1, "seed": 4,
    }}))
    out = tmp_path / "b.csv"
    assert _run("band", "--panel", ppath, "--kind", "competitor_theoretical",
                "--scenario", scen, "--out", out) == 0
    rows = _read_rows(out)[1:]
    half = np.array([(float(r.split(",")[4]) - float(r.split(",")[3])) / 2.0 for r in rows])
    assert np.all(half > 0.0)


def test_sparsity_cli_fields(tmp_path):
    out = tmp_path / "sp.json"
    assert _run("sparsity", "--m", 256, "--n", 400, "--noise-sd", 0.136, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["count"] - 11) <= 2
    assert payload["count"] == len(payload["active_indices"])
    assert payload["sup_error"] >= 0.0
    assert payload["config"]["m"] == 256


def test_bench_cli_single_replicate(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "panel": {"n": 8, "m": 16, "signal": {"kind": "signal1"},
                  "process": {"kind": "bb"}, "noise_sd": 0.2, "seed": 0},
        "estimators": [{"basis_family": "fourier", "rule": "hard", "multiplier": 1}],
        "replicates": 1,
        "base_seed": 13,
    }))
    out = tmp_path / "bench"
    assert _run("bench", "--scenario", scen, "--out", out) == 0
    rows = _read_rows(tmp_path / "bench.csv")
    assert rows[0].startswith("row_kind,")
    assert len(rows) == 2  # header + one estimator row
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["estimators"][0]["sqrt_emse"] == payload["estimators"][0]["sqrt_medmse"]
    assert payload["provenance"]["base_seed"] == 13


def test_bench_cli_replicates_override_and_bands(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "panel": {"n": 8, "m": 16, "signal": {"kind": "signal1"},
                  "process": {"kind": "bb"}, "noise_sd": 0.2, "seed": 0},
        "estimators": [{"basis_family": "fourier", "rule": "hard", "multiplier": 1}],
        "bands": ["proposed_hard1"],
        "replicates": 1,
        "base_seed": 2,
    }))
    out = tmp_path / "bench"
    assert _run("bench", "--scenario", scen, "--replicates", 3, "--out", out) == 0
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["provenance"]["replicates"] == 3
    assert payload["bands"][0]["kind"] == "proposed_hard1"


def test_bench_requires_scenario(tmp_path, capsys):
    code = _run("bench", "--out", tmp_path / "x")
    assert code == 1
    assert "scenario" in capsys.readouterr().err


def test_usage_errors_exit1_and_help_exit0(tmp_path, capsys):
    g = make_grid(8)
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(4, 8))), str(ppath))
    out = tmp_path / "x"
    # flags a subcommand would ignore are usage errors, not silently accepted
    assert _run("estimate", "--seed", 5, "--panel", ppath, "--out", out) == 1
    assert _run("estimate", "--scenario", "s.json", "--panel", ppath, "--out", out) == 1
    assert _run("sparsity", "--seed", 5, "--out", out) == 1
    assert _run("simulate", "--format", "json", "--out", out) == 1
    assert _run("estimate", "--bogus", "--panel", ppath, "--out", out) == 1
    assert _run("estimate", "--panel", ppath) == 1  # --out missing
    assert "usage" in capsys.readouterr().err
    assert _run("band", "--panel", tmp_path / "nope.csv", "--out", out) == 2
    assert _run("--help") == 0
    assert _run("estimate", "--help") == 0
    assert "--panel" in capsys.readouterr().out


def test_invalid_panel_content_exit1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.25,0.75\n1.0,2.0\n")  # only one curve row
    code = _run("estimate", "--panel", bad, "--out", tmp_path / "x")
    assert code == 1
    assert "error" in capsys.readouterr().err


_PANEL = {"n": 20, "m": 16, "signal": {"kind": "signal1"}, "process": {"kind": "bb"},
          "noise_sd": 0.2, "seed": 0}


def _scenario_file(tmp_path, **top):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "panel": _PANEL,
        "estimators": [{"basis_family": "fourier", "rule": "hard", "multiplier": 1}],
        "replicates": 1,
        **top,
    }))
    return scen


def test_simulate_rejects_panel_flags_with_scenario(tmp_path, capsys):
    scen = _scenario_file(tmp_path)
    out = tmp_path / "p.csv"
    for flag, value in (("--n", 50), ("--m", 32), ("--signal", "signal2"), ("--process", "bm"),
                        ("--noise-sd", 0.3), ("--sigma-star", 1.0), ("--snr", 4.0),
                        ("--ar-phi", 0.3), ("--innovation-sd", 2.0)):
        assert _run("simulate", "--scenario", scen, flag, value, "--out", out) == 1
        assert flag in capsys.readouterr().err
    assert not out.exists()
    assert _run("simulate", "--scenario", scen, "--seed", 3, "--out", out) == 0
    assert read_panel_csv(str(out)).Y.shape == (20, 16)


def test_simulate_rejects_noise_sd_with_calibration(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = _run("simulate", "--n", 8, "--m", 8, "--sigma-star", 1.0, "--snr", 4.25,
                "--noise-sd", 5.0, "--out", out)
    assert code == 1
    assert "--noise-sd" in capsys.readouterr().err


def test_simulate_rejects_innovation_sd_with_calibration(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = _run("simulate", "--n", 8, "--m", 8, "--process", "ar1", "--sigma-star", 1.0,
                "--snr", 4.25, "--innovation-sd", 9.0, "--out", out)
    assert code == 1
    assert "--innovation-sd" in capsys.readouterr().err
    # ar_phi shapes the calibrated process, so it stays accepted
    assert _run("simulate", "--n", 8, "--m", 8, "--process", "ar1", "--sigma-star", 1.0,
                "--snr", 4.25, "--ar-phi", 0.3, "--out", out) == 0


def test_simulate_rejects_ar_flags_on_brownian_processes(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for process in ("bb", "bm", None):
        for flag, value in (("--ar-phi", 0.3), ("--innovation-sd", 2.0)):
            argv = ["simulate", "--n", 8, "--m", 8, flag, value, "--out", out]
            if process is not None:
                argv[1:1] = ["--process", process]
            assert _run(*argv) == 1
            assert flag in capsys.readouterr().err
    assert _run("simulate", "--n", 8, "--m", 8, "--process", "arima11", "--ar-phi", 0.3,
                "--innovation-sd", 2.0, "--out", out) == 0
    meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
    assert meta["config"]["process"] == {"kind": "arima11", "ar_phi": 0.3, "innovation_sd": 2.0}


def test_select_rejects_alpha_with_scenario(tmp_path, capsys):
    g = make_grid(16)
    ppath = tmp_path / "p.csv"
    write_panel_csv(generate_panel(PanelConfig(n=10, grid=g, signal=SignalSpec(),
                                               process=ProcessSpec(kind="bb"), noise_sd=0.2, seed=3)),
                    str(ppath))
    scen = _scenario_file(tmp_path)
    out = tmp_path / "sel.json"
    assert _run("select", "--panel", ppath, "--scenario", scen, "--alpha", 0.3, "--out", out) == 1
    assert "--alpha" in capsys.readouterr().err
    assert _run("select", "--panel", ppath, "--scenario", scen, "--out", out) == 0
    config = json.loads(out.read_text())["config"]
    assert "alpha" not in config and config["scenario"] == str(scen)


def test_band_rejects_scenario_for_other_kinds(tmp_path, capsys):
    g = make_grid(16)
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(4, 16))), str(ppath))
    scen = _scenario_file(tmp_path)
    for kind in ("proposed_hard1", "proposed_hard3", "proposed_soft2", "untruncated_ls",
                 "competitor_sample_var"):
        assert _run("band", "--panel", ppath, "--kind", kind, "--scenario", scen,
                    "--out", tmp_path / "b.csv") == 1
        assert "--scenario" in capsys.readouterr().err


def test_scenario_unknown_keys_exit1(tmp_path, capsys):
    g = make_grid(16)
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(4, 16))), str(ppath))
    out = tmp_path / "x"
    calibrated = {k: v for k, v in _PANEL.items() if k != "noise_sd"}
    calibration = {"sigma_star": 1.0, "snr": 4.25}
    cases = (
        ({"band_alfa": 0.2}, "band_alfa"),
        ({"panel": {**_PANEL, "noice_sd": 0.1}}, "noice_sd"),
        ({"panel": {**calibrated, "calibration": {**calibration, "snrr": 2}}}, "snrr"),
        ({"panel": {**_PANEL, "calibration": calibration}}, "both noise_sd and calibration"),
    )
    for top, needle in cases:
        scen = _scenario_file(tmp_path, **top)
        for argv in (("simulate", "--scenario", scen),
                     ("select", "--panel", ppath, "--scenario", scen),
                     ("band", "--panel", ppath, "--kind", "competitor_theoretical", "--scenario", scen),
                     ("bench", "--scenario", scen)):
            assert _run(*argv, "--out", out) == 1, (top, argv[0])
            assert needle in capsys.readouterr().err


def test_bench_rejects_values_int_and_bool_would_bend(tmp_path, capsys):
    # int(2.9) is 2, bool("false") is True, float(True) is 1.0 and
    # float("0.05") parses; all of them ran before
    out = tmp_path / "x"
    calibrated = {k: v for k, v in _PANEL.items() if k != "noise_sd"}
    cases = (
        ({"oracle_checks": "false"}, "oracle_checks"),
        ({"oracle_checks": 1, "replicates": 3}, "oracle_checks"),
        ({"replicates": 2.9}, "replicates"),
        ({"replicates": "3"}, "replicates"),
        ({"replicates": True}, "replicates"),
        ({"base_seed": 1.5}, "base_seed"),
        ({"panel": {**_PANEL, "n": 20.5}}, "n must be"),
        ({"oracle_checks": True, "replicates": 1}, "replicates >= 2"),
        ({"panel": {**_PANEL, "noise_sd": True}}, "noise_sd"),
        ({"oracle_delta": False}, "oracle_delta"),
        ({"band_alpha": "0.05"}, "band_alpha"),
        ({"panel": {**_PANEL, "signal": {"kind": "signal1", "c1": True}}}, "c1"),
        ({"panel": {**_PANEL, "process": {"kind": "ar1", "ar_phi": "0.3"}}}, "ar_phi"),
        ({"estimators": [{"basis_family": "fourier", "rule": "hard", "multiplier": True}]}, "multiplier"),
        ({"panel": {**calibrated, "calibration": {"sigma_star": True, "snr": 4.25}}}, "sigma_star"),
    )
    for top, needle in cases:
        scen = _scenario_file(tmp_path, **top)
        assert _run("bench", "--scenario", scen, "--out", out) == 1, top
        assert needle in capsys.readouterr().err
    # a whole float is still a count, and real booleans pass
    scen = _scenario_file(tmp_path, replicates=2.0, base_seed=4, oracle_checks=False)
    assert _run("bench", "--scenario", scen, "--out", out) == 0
    assert json.loads((tmp_path / "x.json").read_text())["provenance"]["replicates"] == 2


def test_sparsity_rejects_fewer_than_one_curve(tmp_path, capsys):
    # n = 0 and n < 0 gave infinite or NaN levels and an empty active set
    out = tmp_path / "s.json"
    for n in (0, -5):
        assert _run("sparsity", "--n", n, "--m", 16, "--out", out) == 1
        assert "n >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_band_rejects_delta_for_competitor_kinds(tmp_path, capsys):
    g = make_grid(16)
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(6, 16))), str(ppath))
    scen = _scenario_file(tmp_path)
    out = tmp_path / "b.csv"
    for kind, extra in (("competitor_theoretical", ("--scenario", scen)), ("competitor_sample_var", ())):
        assert _run("band", "--panel", ppath, "--kind", kind, *extra, "--delta", 0.5, "--out", out) == 1
        assert "--delta" in capsys.readouterr().err
        assert _run("band", "--panel", ppath, "--kind", kind, *extra, "--out", out) == 0
        assert "delta" not in json.loads((tmp_path / "b.csv.meta.json").read_text())["config"]
    assert _run("band", "--panel", ppath, "--kind", "untruncated_ls", "--delta", 0.5, "--out", out) == 0
    assert json.loads((tmp_path / "b.csv.meta.json").read_text())["config"]["delta"] == 0.5


def test_estimate_rejects_multiplier_with_least_squares(tmp_path, capsys):
    g = make_grid(16)
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(grid=g, Y=np.random.default_rng(0).normal(size=(6, 16))), str(ppath))
    out = tmp_path / "est"
    assert _run("estimate", "--panel", ppath, "--rule", "least_squares", "--multiplier", 2, "--out", out) == 1
    assert "--multiplier" in capsys.readouterr().err
    assert _run("estimate", "--panel", ppath, "--rule", "least_squares", "--out", out) == 0
    assert "multiplier" not in json.loads((tmp_path / "est.meta.json").read_text())["config"]
    assert _run("estimate", "--panel", ppath, "--rule", "soft", "--multiplier", 2, "--out", out) == 0
    assert json.loads((tmp_path / "est.meta.json").read_text())["config"]["multiplier"] == 2.0


_CALIBRATION = {"sigma_star": 1.0, "snr": 4.25}
_CALIBRATED_PANEL = {k: v for k, v in _PANEL.items() if k != "noise_sd"}


@pytest.mark.parametrize("panel, needle", [
    ({**_PANEL, "process": {"kind": "bb", "ar_phi": 0.3}}, "ar_phi"),
    ({**_PANEL, "process": {"kind": "bm", "innovation_sd": 2.0}}, "innovation_sd"),
    ({**_PANEL, "signal": {"kind": "signal1", "c3": 2.0}}, "c3"),
    ({**_PANEL, "signal": {"kind": "signal2", "c1": 2.0}}, "c1"),
    ({**_PANEL, "signal": {"kind": "signal2", "c2": 2.0}}, "c2"),
    ({**_PANEL, "signal": {"kind": "custom", "custom_values": [0.0] * 16, "c1": 2.0}}, "c1"),
    ({**_PANEL, "signal": {"kind": "custom", "custom_values": [0.0] * 16, "c3": 2.0}}, "c3"),
    ({**_PANEL, "signal": {"kind": "signal1", "custom_values": [0.0] * 16}}, "custom_values"),
    ({**_CALIBRATED_PANEL, "process": {"kind": "ar1", "innovation_sd": 2.0}, "calibration": _CALIBRATION},
     "innovation_sd"),
], ids=["bb-ar_phi", "bm-innovation_sd", "signal1-c3", "signal2-c1", "signal2-c2", "custom-c1", "custom-c3",
        "signal1-custom_values", "calibration-innovation_sd"])
def test_scenario_keys_the_kind_ignores_exit1(tmp_path, capsys, panel, needle):
    scen = _scenario_file(tmp_path, panel=panel)
    out = tmp_path / "p.csv"
    assert _run("simulate", "--scenario", scen, "--out", out) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()
