"""End-to-end command-line checks, run in process against tmp files."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curveband import bands, cli_io
from curveband.cli_io import main, read_panel_csv, scenario_from_dict, write_panel_csv
from curveband.grid_basis import BASIS_FAMILIES, analyze, basis_for, fourier_basis, haar_basis, make_grid, synthesize
from curveband.process_sim import CurvePanel, PanelConfig, ProcessSpec, SignalSpec, generate_panel, process_variance
from curveband.estimator import fit, normal_quantile, per_curve_coeffs, pooled_stats
from curveband.selector import CandidateSpec, select
from curveband.bands import _build_band
from curveband.metrics_bench import ScenarioConfig


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


def _as_floats(block):
    """block with every whole-number real as a float; counts and seeds stay."""
    return {key: _as_floats(v) if isinstance(v, dict) else float(v) if isinstance(v, int) and key not in ("n", "m", "seed")
            else v for key, v in block.items()}


def test_whole_number_reals_draw_the_float_panel_and_echo_as_given(tmp_path):
    # scenario reals reach the library unconverted: 1, 0, 2 and 4 draw the
    # panel 1.0, 0.0, 2.0 and 4.0 draw, and the sidecar echoes them as given
    plain = {"n": 6, "m": 8, "signal": {"kind": "signal1", "c1": 1, "c2": 2},
             "process": {"kind": "ar1", "ar_phi": 0, "innovation_sd": 4}, "noise_sd": 1, "seed": 3}
    calibrated = {"n": 6, "m": 8, "signal": {"kind": "signal2", "c3": 2}, "process": {"kind": "arima11", "ar_phi": 0},
                  "calibration": {"sigma_star": 1, "snr": 4}, "seed": 3}
    for name, block in (("plain", plain), ("calibrated", calibrated)):
        paths = {}
        for tag, panel in (("int", block), ("float", _as_floats(block))):
            scen = tmp_path / f"{name}_{tag}.json"
            scen.write_text(json.dumps({"panel": panel}))
            paths[tag] = tmp_path / f"{name}_{tag}.csv"
            assert _run("simulate", "--scenario", scen, "--out", paths[tag]) == 0
        assert paths["int"].read_bytes() == paths["float"].read_bytes(), name
        config = json.loads((tmp_path / f"{name}_int.csv.meta.json").read_text())["config"]
        if name == "plain":
            assert json.dumps(config, sort_keys=True) == json.dumps(block, sort_keys=True)
        else:
            # calibration derives noise_sd, c3 and innovation_sd, and echoes ar_phi as given
            assert json.dumps(config["process"]["ar_phi"]) == "0"
        replay = tmp_path / f"{name}_replay.json"
        replay.write_text(json.dumps({"panel": config}))
        again = tmp_path / f"{name}_again.csv"
        assert _run("simulate", "--scenario", replay, "--out", again) == 0
        assert again.read_bytes() == paths["int"].read_bytes(), name


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
    again = tmp_path / "again.csv"
    write_panel_csv(back, str(again))
    assert again.read_bytes() == path.read_bytes()
    # a grid row printed to 6 decimals is within the tolerance up to m = 2000
    printed = tmp_path / "printed.csv"
    np.savetxt(printed, np.vstack([make_grid(1999).points, np.zeros((2, 1999))]), fmt="%.6f", delimiter=",")
    assert read_panel_csv(str(printed)).grid == make_grid(1999)


@pytest.mark.parametrize("design, first", [(np.linspace(0.01, 0.99, 16), "0.01"),
                                           (np.arange(1, 17) / 17.0, "0.058823529411764705")])
def test_panel_off_the_midpoint_design_exit1(tmp_path, capsys, design, first):
    # every basis is orthonormal only on (j - 1/2)/m; these rows were read
    # as given, so estimate, band and select exited 0 on them.  The message
    # quotes plain floats, not numpy reprs such as np.float64(0.01)
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, np.vstack([design, np.random.default_rng(0).normal(size=(4, 16))]),
               fmt="%.17g", delimiter=",")
    message = (f"panel CSV grid row is not the midpoint design (j - 1/2)/16: "
               f"entry 1 is {first}, not 0.03125 within 6.25e-05")
    with pytest.raises(ValueError) as info:
        read_panel_csv(str(ppath))
    assert str(info.value) == message
    for command in ("estimate", "band", "select"):
        assert _run(command, "--panel", ppath, "--out", tmp_path / "x") == 1
        assert "not the midpoint design" in capsys.readouterr().err


def test_an_empty_panel_csv_is_one_clean_error(tmp_path, capsys):
    # numpy's "loadtxt: input contained no data" warning escaped main's
    # handler under -W error, and reached stderr otherwise
    ppath = tmp_path / "empty.csv"
    ppath.write_text("")
    assert _run("estimate", "--panel", ppath, "--out", tmp_path / "est") == 1
    assert capsys.readouterr().err == "error: panel CSV needs a grid row plus at least two curves\n"
    assert not list(tmp_path.glob("est*"))


def test_estimate_constant_panel_single_active(tmp_path):
    # identical constant curves: everything lives in the first coefficient;
    # a tiny delta keeps matmul dust (~1e-16) below the threshold
    panel = CurvePanel(Y=np.full((4, 16), 2.5))
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
    panel = CurvePanel(Y=np.tile(row, (3, 1)))
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


def test_estimate_haar_on_m12_matches_library(tmp_path):
    panel = CurvePanel(Y=np.random.default_rng(4).normal(size=(6, 12)))
    ppath = tmp_path / "p12.csv"
    write_panel_csv(panel, str(ppath))
    assert _run("estimate", "--panel", ppath, "--basis", "haar", "--out", tmp_path / "x") == 0
    basis = haar_basis(panel.grid)
    expected = fit("hard", pooled_stats(per_curve_coeffs(panel, basis), 0.05, 0.0), basis, 1).values
    got = np.array([float(r.split(",")[2]) for r in _read_rows(tmp_path / "x.fit.csv")[1:]])
    assert_array_equal(got, expected)


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
    panel = CurvePanel(Y=np.random.default_rng(0).normal(size=(4, 8)))
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


@pytest.mark.parametrize("family", BASIS_FAMILIES)
@pytest.mark.parametrize("kind", ["competitor_theoretical", "competitor_sample_var"])
def test_a_competitor_band_is_the_mean_curves_fit_and_analyses_no_curve(tmp_path, monkeypatch, kind, family):
    # the center is the least-squares fit of the mean curve on --basis and V
    # reads no basis, so the command analyses no curve, bit for bit
    g = make_grid(64)
    process = ProcessSpec(kind="bm")
    panel = generate_panel(PanelConfig(n=40, grid=g, signal=SignalSpec(), process=process, noise_sd=0.2, seed=8))
    ppath = tmp_path / "panel.csv"
    write_panel_csv(panel, str(ppath))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"panel": {"n": 40, "m": 64, "process": {"kind": "bm"}, "noise_sd": 0.2}}))
    analysed = []

    def analysing(panel, basis):
        analysed.append(basis.family)
        return per_curve_coeffs(panel, basis)

    for module in (cli_io, bands):
        monkeypatch.setattr(module, "per_curve_coeffs", analysing)
    given = ("--scenario", scen) if kind == "competitor_theoretical" else ()
    out = tmp_path / "band.csv"
    assert _run("band", "--panel", ppath, "--kind", kind, "--basis", family, *given, "--out", out) == 0
    assert analysed == []
    b = basis_for(family, g)
    center = synthesize(analyze(panel.Y.mean(axis=0), b), b)
    V = panel.Y.var(axis=0, ddof=1) if kind == "competitor_sample_var" else process_variance(process, g)
    half = np.sqrt(V / 40) * normal_quantile(0.05 / (2.0 * 64))
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    assert_array_equal(got[:, 2:], np.column_stack([center, center - half, center + half]))


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
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(4, 8))), str(ppath))
    out = tmp_path / "x"
    # flags a subcommand would ignore are usage errors, not silently accepted
    assert _run("estimate", "--seed", 5, "--panel", ppath, "--out", out) == 1
    assert _run("estimate", "--scenario", "s.json", "--panel", ppath, "--out", out) == 1
    assert _run("sparsity", "--seed", 5, "--out", out) == 1
    assert _run("sparsity", "--delta", 0.5, "--out", out) == 1  # no delta moves the levels it reads
    assert _run("simulate", "--format", "json", "--out", out) == 1
    assert _run("estimate", "--bogus", "--panel", ppath, "--out", out) == 1
    assert _run("estimate", "--panel", ppath) == 1  # --out missing
    assert "usage" in capsys.readouterr().err
    assert _run("band", "--panel", tmp_path / "nope.csv", "--out", out) == 2
    assert _run("--help") == 0
    assert _run("estimate", "--help") == 0
    assert "--panel" in capsys.readouterr().out


def test_python_m_curveband_exit_codes():
    # the module entry point passes main's exit code to the shell
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "curveband", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: curveband")
    missing = run("estimate")
    assert missing.returncode == 1
    assert "usage" in missing.stderr


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


# dict() reads [["kind", "bm"]] as {"kind": "bm"}, so the first of these
# simulated bm with signal2 before
_MALFORMED_BLOCKS = (
    ({"signal": [["kind", "signal2"]], "process": [["kind", "bm"]]}, "signal must be a JSON object"),
    ({"signal": [1, 2]}, "signal must be a JSON object"),
    ({"process": [["kind", "bm"]]}, "process must be a JSON object"),
    ({"process": [1, 2]}, "process must be a JSON object"),
    ({"calibration": [1]}, "calibration must be a JSON object"),
)


def test_simulate_rejects_signal_and_process_blocks_that_are_not_objects(tmp_path, capsys):
    out = tmp_path / "p.csv"
    for block, needle in _MALFORMED_BLOCKS:
        scen = _scenario_file(tmp_path, panel={**_PANEL, **block})
        with pytest.raises(ValueError, match=re.escape(needle)):
            scenario_from_dict(json.loads(scen.read_text()))
        assert _run("simulate", "--scenario", scen, "--out", out) == 1, block
        assert needle in capsys.readouterr().err
    assert not out.exists()


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


def test_select_names_a_bad_split_seed(tmp_path, capsys):
    # numpy's own message, "expected non-negative integer", named no flag
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    out = tmp_path / "sel.json"
    assert _run("select", "--panel", ppath, "--seed", -1, "--out", out) == 1
    assert "error: seed must be a whole number >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_select_rejects_signal_and_process_blocks_that_are_not_objects(tmp_path, capsys):
    # select builds no panel from the scenario, so it once let these pass
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    out = tmp_path / "sel.json"
    for block, needle in _MALFORMED_BLOCKS:
        scen = _scenario_file(tmp_path, panel={**_PANEL, **block})
        assert _run("select", "--panel", ppath, "--scenario", scen, "--out", out) == 1, block
        assert needle in capsys.readouterr().err
    assert not out.exists()


def test_band_rejects_scenario_for_other_kinds(tmp_path, capsys):
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(4, 16))), str(ppath))
    scen = _scenario_file(tmp_path)
    for kind in ("proposed_hard1", "proposed_hard3", "proposed_soft2", "untruncated_ls",
                 "competitor_sample_var"):
        assert _run("band", "--panel", ppath, "--kind", kind, "--scenario", scen,
                    "--out", tmp_path / "b.csv") == 1
        assert "--scenario" in capsys.readouterr().err


def test_scenario_unknown_keys_exit1(tmp_path, capsys):
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(4, 16))), str(ppath))
    out = tmp_path / "x"
    calibrated = {k: v for k, v in _PANEL.items() if k != "noise_sd"}
    calibration = {"sigma_star": 1.0, "snr": 4.25}
    cases = (
        ({"band_alfa": 0.2}, "band_alfa"),
        ({"panel": {**_PANEL, "noice_sd": 0.1}}, "noice_sd"),
        ({"panel": {**calibrated, "calibration": {**calibration, "snrr": 2}}}, "snrr"),
        ({"panel": {**_PANEL, "calibration": calibration}}, "both noise_sd and calibration"),
        ({"panel": [1, 2]}, "panel must be a JSON object"),
        ({"panel": 3}, "panel must be a JSON object"),
        ({"panel": {**calibrated, "calibration": [1]}}, "calibration must be a JSON object"),
    )
    for top, needle in cases:
        scen = _scenario_file(tmp_path, **top)
        # the library builder rejects what the CLI does, with its message
        with pytest.raises(ValueError, match=re.escape(needle)):
            scenario_from_dict(json.loads(scen.read_text()))
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
        ({"oracle_alpha": 0.3}, "oracle_alpha would be ignored: oracle_checks is off"),
        ({"bands": ["proposed_hard1", "proposed_hard1"]}, "bands[1] repeats the kind proposed_hard1 of bands[0]"),
    )
    # every real key takes its value to the library's check as given, which
    # rejects these as the CLI's own number check once did
    real_keys = (
        ("noise_sd", lambda v: {"panel": {**_PANEL, "noise_sd": v}}),
        ("c1", lambda v: {"panel": {**_PANEL, "signal": {"kind": "signal1", "c1": v}}}),
        ("ar_phi", lambda v: {"panel": {**_PANEL, "process": {"kind": "ar1", "ar_phi": v}}}),
        ("innovation_sd", lambda v: {"panel": {**_PANEL, "process": {"kind": "ar1", "innovation_sd": v}}}),
        ("sigma_star", lambda v: {"panel": {**calibrated, "calibration": {"sigma_star": v, "snr": 4.25}}}),
        ("snr", lambda v: {"panel": {**calibrated, "calibration": {"sigma_star": 1.0, "snr": v}}}),
        ("multiplier", lambda v: {"estimators": [{"basis_family": "fourier", "rule": "hard", "multiplier": v}]}),
        ("alpha", lambda v: {"estimators": [{"basis_family": "fourier", "rule": "hard", "alpha": v}]}),
        ("band_alpha", lambda v: {"band_alpha": v}),
        ("oracle_alpha", lambda v: {"oracle_alpha": v}),
        ("oracle_delta", lambda v: {"oracle_delta": v}),
    )
    cases += tuple((top(bad), f"{key} must") for key, top in real_keys for bad in (None, [1], {}, float("nan")))
    for top, needle in cases:
        scen = _scenario_file(tmp_path, **top)
        assert _run("bench", "--scenario", scen, "--out", out) == 1, top
        assert needle in capsys.readouterr().err
        with pytest.raises(ValueError, match=re.escape(needle)):
            scenario_from_dict(json.loads(scen.read_text()))
    # a scenario of panel and estimators alone takes every ScenarioConfig default
    bare = json.loads(_scenario_file(tmp_path).read_text())
    del bare["replicates"]
    cfg = scenario_from_dict(bare)
    for f in fields(ScenarioConfig):
        if f.name not in ("panel", "estimators"):
            assert getattr(cfg, f.name) == f.default, f.name
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
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(6, 16))), str(ppath))
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
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(6, 16))), str(ppath))
    out = tmp_path / "est"
    assert _run("estimate", "--panel", ppath, "--rule", "least_squares", "--multiplier", 2, "--out", out) == 1
    assert "--multiplier" in capsys.readouterr().err
    assert _run("estimate", "--panel", ppath, "--rule", "least_squares", "--out", out) == 0
    assert "multiplier" not in json.loads((tmp_path / "est.meta.json").read_text())["config"]
    assert _run("estimate", "--panel", ppath, "--rule", "soft", "--multiplier", 2, "--out", out) == 0
    assert json.loads((tmp_path / "est.meta.json").read_text())["config"]["multiplier"] == 2.0


_CALIBRATION = {"sigma_star": 1.0, "snr": 4.25}
_CALIBRATED_PANEL = {k: v for k, v in _PANEL.items() if k != "noise_sd"}


@pytest.mark.parametrize("top, needle", [
    ({"panel": {**_PANEL, "process": {"kind": "bb", "ar_phi": 0.3}}}, "ar_phi"),
    ({"panel": {**_PANEL, "process": {"kind": "bm", "innovation_sd": 2.0}}}, "innovation_sd"),
    ({"panel": {**_PANEL, "signal": {"kind": "signal1", "c3": 2.0}}}, "c3"),
    ({"panel": {**_PANEL, "signal": {"kind": "signal2", "c1": 2.0}}}, "c1"),
    ({"panel": {**_PANEL, "signal": {"kind": "signal2", "c2": 2.0}}}, "c2"),
    ({"panel": {**_PANEL, "signal": {"kind": "custom", "custom_values": [0.0] * 16, "c1": 2.0}}}, "c1"),
    ({"panel": {**_PANEL, "signal": {"kind": "custom", "custom_values": [0.0] * 16, "c3": 2.0}}}, "c3"),
    ({"panel": {**_PANEL, "signal": {"kind": "signal1", "custom_values": [0.0] * 16}}}, "custom_values"),
    ({"panel": {**_CALIBRATED_PANEL, "process": {"kind": "ar1", "innovation_sd": 2.0}, "calibration": _CALIBRATION}},
     "innovation_sd"),
    ({"estimators": [{"basis_family": "fourier", "rule": "least_squares", "multiplier": 2}]}, "multiplier"),
    # the spec was built before its block was checked: an unknown key raised a
    # raw TypeError and a number custom_values "'float' object is not iterable";
    # a list kind must meet check_kind before it can key KIND_PARAMS
    ({"panel": {**_PANEL, "signal": {"kind": "signal1", "foo": 1}}}, "signal1 signal does not read key(s) ['foo']"),
    ({"panel": {**_PANEL, "process": {"kind": "bb", "bar": 2}}}, "bb process does not read key(s) ['bar']"),
    ({"panel": {**_PANEL, "process": {"kind": ["bb"]}}}, "unknown process kind ['bb']"),
    ({"panel": {**_PANEL, "signal": {"kind": "custom", "custom_values": 3}}}, "custom_values must be "),
    ({"panel": {**_PANEL, "signal": {"kind": "custom", "custom_values": "abc"}}}, "custom_values must be "),
], ids=["bb-ar_phi", "bm-innovation_sd", "signal1-c3", "signal2-c1", "signal2-c2", "custom-c1", "custom-c3",
        "signal1-custom_values", "calibration-innovation_sd", "least_squares-multiplier",
        "signal1-foo", "bb-bar", "list-kind", "custom_values-number", "custom_values-string"])
def test_scenario_keys_the_kind_ignores_exit1(tmp_path, capsys, top, needle):
    # simulate reads the panel block alone, bench the estimators too
    command = "bench" if "estimators" in top else "simulate"
    scen = _scenario_file(tmp_path, **top)
    with pytest.raises(ValueError, match=re.escape(needle)):
        scenario_from_dict(json.loads(scen.read_text()))
    out = tmp_path / "p.csv"
    assert _run(command, "--scenario", scen, "--out", out) == 1
    assert needle in capsys.readouterr().err
    assert not list(tmp_path.glob("p.csv*"))


def _scenario_without(tmp_path, key):
    scen = _scenario_file(tmp_path)
    scen.write_text(json.dumps({k: v for k, v in json.loads(scen.read_text()).items() if k != key}))
    return scen


@pytest.mark.parametrize("panel, message", [
    ({k: v for k, v in _PANEL.items() if k != "n"}, "panel is missing key(s) ['n']"),
    ({k: v for k, v in _PANEL.items() if k not in ("n", "m")}, "panel is missing key(s) ['n', 'm']"),
    (_CALIBRATED_PANEL, "panel is missing key(s) ['noise_sd']"),
    ({**_CALIBRATED_PANEL, "calibration": {"sigma_star": 1.0}}, "calibration is missing key(s) ['snr']"),
    ({**_CALIBRATED_PANEL, "calibration": {}}, "calibration is missing key(s) ['sigma_star', 'snr']"),
], ids=["n", "n-m", "noise_sd", "snr", "sigma_star-snr"])
def test_a_missing_panel_key_is_named(tmp_path, capsys, panel, message):
    # these were bare KeyErrors, printed as "error: 'n'"
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(4, 16))), str(ppath))
    scen = _scenario_file(tmp_path, panel=panel)
    out = tmp_path / "out.csv"
    for argv in (("simulate",), ("bench",), ("band", "--panel", ppath, "--kind", "competitor_theoretical"),
                 ("select", "--panel", ppath)):
        assert _run(*argv, "--scenario", scen, "--out", out) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert not list(tmp_path.glob("out.csv*"))


def test_a_missing_scenario_block_is_named_where_it_is_read(tmp_path, capsys):
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    out = tmp_path / "out.csv"
    no_panel = _scenario_without(tmp_path, "panel")
    for argv in (("simulate",), ("bench",), ("band", "--panel", ppath, "--kind", "competitor_theoretical")):
        assert _run(*argv, "--scenario", no_panel, "--out", out) == 1, argv
        assert capsys.readouterr().err == "error: scenario is missing key(s) ['panel']\n", argv
    # select reads only the candidates
    assert _run("select", "--panel", ppath, "--scenario", no_panel, "--out", out) == 0
    out.unlink()
    no_estimators = _scenario_without(tmp_path, "estimators")
    for argv in (("select", "--panel", ppath), ("bench",)):
        assert _run(*argv, "--scenario", no_estimators, "--out", out) == 1, argv
        assert capsys.readouterr().err == "error: scenario is missing key(s) ['estimators']\n", argv
    assert not list(tmp_path.glob("out.csv*"))
    with pytest.raises(ValueError, match=r"scenario is missing key\(s\) \['estimators'\]"):
        scenario_from_dict({"panel": _PANEL})


@pytest.mark.parametrize("estimators, message", [
    (["x"], "estimators[0] must be a JSON object, got 'x'"),
    ({"basis_family": "fourier", "rule": "hard"},
     "estimators must be a JSON list of objects, got {'basis_family': 'fourier', 'rule': 'hard'}"),
    ([{"basis_family": "fourier", "rule": "hard"}, {"basis_family": "haar"}], "estimators[1] is missing key(s) ['rule']"),
    ([{"rule": "hard"}], "estimators[0] is missing key(s) ['basis_family']"),
    ([{"basis_family": "fourier", "rule": "hard", "mult": 2}],
     "estimators[0] does not read key(s) ['mult']; it reads some of ['alpha', 'basis_family', 'multiplier', 'rule']"),
    # the report keys risks by label
    ([{"basis_family": "fourier", "rule": "least_squares"}, {"basis_family": "fourier", "rule": "least_squares"}],
     "estimators[1] repeats the label fourier-ls of estimators[0]"),
    ([{"basis_family": "haar", "rule": "hard"}, {"basis_family": "fourier", "rule": "hard"},
      {"basis_family": "haar", "rule": "hard", "multiplier": 1.0}],
     "estimators[2] repeats the label haar-ht1r-a0.05 of estimators[0]"),
    # least_squares reads no level, so its label carries no alpha; the
    # candidate's own check names the entry too
    ([{"basis_family": "fourier", "rule": "least_squares", "alpha": 0.1}],
     "estimators[0]: alpha would be ignored: least_squares has no threshold level"),
    ([{"basis_family": "haar", "rule": "hard"}, {"basis_family": "fourier", "rule": "least_squares", "multiplier": 2}],
     "estimators[1]: threshold multiplier must be 1, got 2"),
], ids=["string-entry", "object-block", "no-rule", "no-basis_family", "unknown-key", "repeated-ls-label",
        "repeated-hard-label", "least_squares-alpha", "least_squares-multiplier"])
def test_a_malformed_estimators_block_is_named(tmp_path, capsys, estimators, message):
    # these printed Python internals, such as "dictionary update sequence
    # element #0 has length 1; 2 is required"
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    scen = _scenario_file(tmp_path, estimators=estimators)
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_dict(json.loads(scen.read_text()))
    out = tmp_path / "out.csv"
    for argv in (("select", "--panel", ppath), ("bench",)):
        assert _run(*argv, "--scenario", scen, "--out", out) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert not list(tmp_path.glob("out.csv*"))


def test_select_checks_the_panel_block_it_does_not_read(tmp_path, capsys):
    # select reads only the candidates, and once let a one-curve panel pass
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    scen = _scenario_file(tmp_path, panel={**_PANEL, "n": 1})
    out = tmp_path / "out.csv"
    assert _run("simulate", "--scenario", scen, "--out", out) == 1
    message = capsys.readouterr().err
    assert message == "error: need a whole number n >= 2, got 1\n"
    assert _run("select", "--panel", ppath, "--scenario", scen, "--out", out) == 1
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("out.csv*"))


def test_a_custom_signal_that_does_not_fit_the_grid_is_rejected_at_every_entry(tmp_path, capsys):
    # select and band once accepted the block, since only a drawn panel read its length
    message = "custom signal length (5,) does not match m=16"
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    scen = _scenario_file(tmp_path, panel={**_PANEL, "signal": {"kind": "custom", "custom_values": [0.0] * 5}})
    with pytest.raises(ValueError, match=re.escape(message)):
        scenario_from_dict(json.loads(scen.read_text()))
    out = tmp_path / "out.csv"
    for argv in (("simulate",), ("bench",), ("band", "--panel", ppath, "--kind", "competitor_theoretical"),
                 ("select", "--panel", ppath)):
        assert _run(*argv, "--scenario", scen, "--out", out) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert not list(tmp_path.glob("out.csv*"))


def test_each_command_builds_a_calibrated_scenario_once(tmp_path, monkeypatch):
    # a pre-walk once built the signal and process specs only to drop them,
    # so simulate, band and bench built each twice
    counts = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli_io, "_spec_from_dict", counted("specs", cli_io._spec_from_dict))
    monkeypatch.setattr(cli_io, "calibrate", counted("calibrate", cli_io.calibrate))
    ppath = tmp_path / "p.csv"
    write_panel_csv(CurvePanel(Y=np.random.default_rng(0).normal(size=(10, 16))), str(ppath))
    scen = _scenario_file(tmp_path, panel={**_CALIBRATED_PANEL, "calibration": _CALIBRATION})
    for argv in (("simulate",), ("select", "--panel", ppath),
                 ("band", "--panel", ppath, "--kind", "competitor_theoretical"), ("bench",)):
        counts.update(specs=0, calibrate=0)
        assert _run(*argv, "--scenario", scen, "--out", tmp_path / "out") == 0, argv
        assert counts == {"specs": 2, "calibrate": 1}, argv
