"""Command-line surface and file formats.

Panels travel as wide CSV: the first row holds the grid points, each
following row one curve, every value rendered with 17 significant
digits so files round-trip losslessly.  Every command writes a JSON
sidecar (<out>.meta.json) echoing the exact configuration and seeds
needed to regenerate its output.  Exit codes: 0 success, 1 invalid
input, configuration or command line, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .bands import BAND_KINDS, COMPETITOR_KINDS, _build_band
from .estimator import RULES, fit, per_curve_coeffs, pooled_stats, sparsity_report, theoretical_levels
from .grid_basis import BASIS_FAMILIES, Grid, basis_for, make_grid
from .metrics_bench import ScenarioConfig, run_scenario
from .process_sim import (
    PROCESS_KINDS,
    SIGNAL_KINDS,
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    generate_panel,
    process_variance,
    sigma_k_theoretical,
)
from .selector import CandidateSpec, select

__all__ = ["main", "build_parser", "read_panel_csv", "write_panel_csv", "scenario_from_dict"]

FMT = "%.17g"

# Keys a scenario JSON may hold, by block and, for signal and process
# blocks, by kind; estimator blocks are checked by the dataclass they build.
_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}
_PANEL_KEYS = {"n", "m", "signal", "process", "noise_sd", "calibration", "seed"}
_CALIBRATION_KEYS = {"sigma_star", "snr"}
_SIGNAL_KEYS = {"signal1": {"c1", "c2"}, "signal2": {"c3"}, "custom": {"custom_values"}}
_AR_KEYS = {"ar_phi", "innovation_sd"}
_PROCESS_KEYS = {"bb": set(), "bm": set(), "ar1": _AR_KEYS, "arima11": _AR_KEYS}

# a custom signal needs its grid values, which only a scenario can give
_SIGNAL_CHOICES = tuple(kind for kind in SIGNAL_KINDS if kind != "custom")

# simulate's panel flags; they default to None so a given flag can be told
# from an absent one, and absent ones take these values
_SIMULATE_DEFAULTS = {"n": 100, "m": 64, "signal": "signal1", "process": "bb", "noise_sd": 0.1}
_PANEL_FLAGS = (*_SIMULATE_DEFAULTS, "sigma_star", "snr", "ar_phi", "innovation_sd")


def signal_from_dict(d: dict) -> SignalSpec:
    kw = dict(d)
    kind = kw.pop("kind", "signal1")
    spec = SignalSpec(kind=kind, **_reals(kw))
    _check_keys(kw, _SIGNAL_KEYS[kind], f"{kind} signal")
    return spec


def process_from_dict(d: dict) -> ProcessSpec:
    kw = dict(d)
    kind = kw.pop("kind", "bb")
    spec = ProcessSpec(kind=kind, **_reals(kw))
    _check_keys(kw, _PROCESS_KEYS[kind], f"{kind} process")
    return spec


def _real(value, key: str) -> float:
    """A number; float() would take true as 1.0 and parse "0.05"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """A whole number; int() would truncate 2.9 and parse "3"."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _reals(block: dict) -> dict:
    """The block's values as floats, and its lists as tuples of floats."""
    return {
        key: tuple(_real(v, key) for v in value) if isinstance(value, list) else _real(value, key)
        for key, value in block.items()
    }


def candidate_from_dict(d: dict) -> CandidateSpec:
    kw = dict(d)
    kw.update(_reals({key: kw[key] for key in ("multiplier", "alpha") if key in kw}))
    return CandidateSpec(**kw)


def panel_config_from_dict(d: dict, seed_override=None) -> PanelConfig:
    """Panel block: n, m, signal, process, seed, and either noise_sd or a
    calibration block {sigma_star, snr} that derives noise and signal scale."""
    grid = make_grid(_integer(d["m"], "m"))
    signal = signal_from_dict(d.get("signal", {}))
    process = process_from_dict(d.get("process", {}))
    if "calibration" in d:
        cal = d["calibration"]
        calib = calibrate(process, grid, _real(cal["sigma_star"], "sigma_star"), _real(cal["snr"], "snr"), signal)
        noise_sd, signal, process = calib.noise_sd, calib.signal, calib.process
    else:
        noise_sd = _real(d["noise_sd"], "noise_sd")
    seed = _integer(seed_override if seed_override is not None else d.get("seed", 0), "seed")
    return PanelConfig(
        n=_integer(d["n"], "n"), grid=grid, signal=signal, process=process,
        noise_sd=noise_sd, seed=seed,
    )


def scenario_from_dict(d: dict, seed_override=None) -> ScenarioConfig:
    panel = panel_config_from_dict(d["panel"])
    estimators = tuple(candidate_from_dict(e) for e in d["estimators"])
    base = d.get("base_seed", 0)
    if seed_override is not None:
        base = seed_override
    return ScenarioConfig(
        panel=panel,
        estimators=estimators,
        bands=tuple(d.get("bands", ())),
        replicates=_integer(d.get("replicates", 100), "replicates"),
        base_seed=_integer(base, "base_seed"),
        band_basis_family=d.get("band_basis_family", "fourier"),
        band_alpha=_real(d.get("band_alpha", 0.05), "band_alpha"),
        oracle_checks=d.get("oracle_checks", False),
        oracle_alpha=_real(d.get("oracle_alpha", 0.05), "oracle_alpha"),
        oracle_delta=_real(d.get("oracle_delta", 0.01), "oracle_delta"),
    )


def _check_keys(block, known, where: str):
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - known)
    if unknown:
        raise ValueError(f"{where} does not read key(s) {unknown}; it reads some of {sorted(known)}")


def _load_scenario(path: str) -> dict:
    """Scenario JSON whose top level, panel and calibration blocks hold no
    key that the commands would ignore; signal_from_dict and
    process_from_dict check the signal and process blocks by kind."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    _check_keys(d, _SCENARIO_KEYS, "scenario")
    panel = d.get("panel", {})
    _check_keys(panel, _PANEL_KEYS, "panel")
    _check_keys(panel.get("calibration", {}), _CALIBRATION_KEYS, "calibration")
    if "calibration" in panel and "noise_sd" in panel:
        raise ValueError("panel gives both noise_sd and calibration; calibration derives noise_sd")
    if "calibration" in panel and "innovation_sd" in panel.get("process", {}):
        raise ValueError("panel gives both process innovation_sd and calibration; calibration derives innovation_sd")
    return d


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_meta(out: str, command: str, config: dict):
    _write_json(out + ".meta.json", {"command": command, "config": config})


def write_panel_csv(panel: CurvePanel, path: str):
    rows = np.vstack([panel.grid.points[None, :], panel.Y])
    np.savetxt(path, rows, fmt=FMT, delimiter=",")


def read_panel_csv(path: str) -> CurvePanel:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[0] < 3:
        raise ValueError("panel CSV needs a grid row plus at least two curves")
    grid = Grid(m=rows.shape[1], points=rows[0])
    return CurvePanel(grid=grid, Y=rows[1:])


def _write_table_csv(path: str, header, columns):
    cols = [np.asarray(c) for c in columns]
    fmt = ["%d" if c.dtype.kind in "biu" else FMT for c in cols]
    np.savetxt(path, np.column_stack(cols), fmt=fmt, delimiter=",", header=",".join(header), comments="")


def _panel_echo(config: PanelConfig) -> dict:
    """A panel block that regenerates config: the keys the reader takes for
    each signal and process kind, with noise_sd and the signal and process
    parameters a calibration derived in place of the calibration block."""
    signal, process = config.signal, config.process
    return {
        "n": config.n,
        "m": config.grid.m,
        "signal": {"kind": signal.kind, **{key: getattr(signal, key) for key in _SIGNAL_KEYS[signal.kind]}},
        "process": {"kind": process.kind, **{key: getattr(process, key) for key in _PROCESS_KEYS[process.kind]}},
        "noise_sd": config.noise_sd,
        "seed": config.seed,
    }


def _reject_given(args, dests, reason: str):
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} would be ignored: {reason}")


def cmd_simulate(args) -> int:
    if args.scenario:
        _reject_given(args, _PANEL_FLAGS, "the --scenario panel block sets the panel")
        cfg = panel_config_from_dict(_load_scenario(args.scenario)["panel"], seed_override=args.seed)
    else:
        n, m, signal, process, noise_sd = (
            default if getattr(args, dest) is None else getattr(args, dest)
            for dest, default in _SIMULATE_DEFAULTS.items()
        )
        if process in ("bb", "bm"):
            _reject_given(args, ("ar_phi", "innovation_sd"), f"--process {process} has no AR parameters")
        d = {"n": n, "m": m, "signal": {"kind": signal}, "process": {"kind": process}}
        if args.ar_phi is not None:
            d["process"]["ar_phi"] = args.ar_phi
        if args.innovation_sd is not None:
            d["process"]["innovation_sd"] = args.innovation_sd
        if args.sigma_star is not None or args.snr is not None:
            if args.sigma_star is None or args.snr is None:
                raise ValueError("calibration needs both --sigma-star and --snr")
            _reject_given(args, ("noise_sd", "innovation_sd"), "calibration derives it from --sigma-star and --snr")
            d["calibration"] = {"sigma_star": args.sigma_star, "snr": args.snr}
        else:
            d["noise_sd"] = noise_sd
        cfg = panel_config_from_dict(d, seed_override=args.seed)
    write_panel_csv(generate_panel(cfg), args.out)
    _write_meta(args.out, "simulate", _panel_echo(cfg))
    return 0


def cmd_estimate(args) -> int:
    if args.rule == "least_squares":
        _reject_given(args, ("multiplier",), "least_squares has no threshold to scale")
    multiplier = 1 if args.multiplier is None else args.multiplier
    panel = read_panel_csv(args.panel)
    basis = basis_for(args.basis, panel.grid)
    stats = pooled_stats(per_curve_coeffs(panel, basis), args.alpha, args.delta)
    est = fit(args.rule, stats, basis, multiplier)
    k = np.arange(1, basis.m + 1)
    # active column marks coefficients present in the estimate; under the
    # >= tie convention a zero coefficient with a zero level is not counted
    _write_table_csv(
        args.out + ".coeffs.csv",
        ["k", "mu_hat", "s_k", "r_hat", "active"],
        [k, stats.mu_hat, stats.s_k, stats.r_hat, (est.coeffs != 0.0).astype(int)],
    )
    j = np.arange(1, basis.m + 1)
    _write_table_csv(
        args.out + ".fit.csv",
        ["j", "t_j", "f_hat"],
        [j, panel.grid.points, est.values],
    )
    echo = {} if args.rule == "least_squares" else {"multiplier": multiplier}
    _write_meta(args.out, "estimate", {
        "panel": args.panel, "basis": args.basis, "rule": args.rule,
        "alpha": args.alpha, "delta": args.delta,
        "active_count": int(np.count_nonzero(est.coeffs)), **echo,
    })
    return 0


def cmd_select(args) -> int:
    panel = read_panel_csv(args.panel)
    if args.scenario:
        _reject_given(args, ("alpha",), "the --scenario candidates carry their own alpha")
        cands = [candidate_from_dict(e) for e in _load_scenario(args.scenario)["estimators"]]
        echo = {"scenario": args.scenario}
    else:
        alpha = 0.05 if args.alpha is None else args.alpha
        cands = [
            CandidateSpec(basis_family="fourier", rule="hard", multiplier=1, alpha=alpha),
            CandidateSpec(basis_family="haar", rule="hard", multiplier=1, alpha=alpha),
        ]
        echo = {"alpha": alpha}
    split_seed = 0 if args.seed is None else args.seed
    result = select(panel, cands, split_seed)
    payload = {
        "winner": result.winner.label(),
        "winner_index": result.winner_index,
        "risks": {c.label(): (None if not np.isfinite(r) else float(r)) for c, r in zip(cands, result.risks)},
        "split_seed": result.split_seed,
        "i1_indices": result.i1_indices.tolist(),
        "i2_indices": result.i2_indices.tolist(),
        "warnings": list(result.warnings),
        "config": {"panel": args.panel, "seed": split_seed, **echo},
    }
    _write_json(args.out, payload)
    return 0


def cmd_band(args) -> int:
    if args.scenario and args.kind != "competitor_theoretical":
        raise ValueError(f"--scenario would be ignored: only competitor_theoretical reads it, not {args.kind}")
    competitor = args.kind in COMPETITOR_KINDS
    if competitor:
        _reject_given(args, ("delta",), f"{args.kind} reads only --alpha")
    delta = 0.0 if args.delta is None else args.delta
    panel = read_panel_csv(args.panel)
    basis = basis_for(args.basis, panel.grid)
    stats = pooled_stats(per_curve_coeffs(panel, basis), args.alpha, delta)
    process_var = None
    if args.kind == "competitor_theoretical":
        if not args.scenario:
            raise ValueError("competitor_theoretical needs --scenario for the process covariance")
        cfg = panel_config_from_dict(_load_scenario(args.scenario)["panel"])
        if cfg.grid.m != panel.grid.m:
            raise ValueError("scenario grid size does not match the stored panel")
        process_var = process_variance(cfg.process, panel.grid)
    band = _build_band(args.kind, basis, stats, process_var)
    j = np.arange(1, basis.m + 1)
    _write_table_csv(
        args.out,
        ["j", "t_j", "center", "lower", "upper"],
        [j, panel.grid.points, band.center, band.lower, band.upper],
    )
    echo = {} if competitor else {"delta": delta}
    _write_meta(args.out, "band", {
        "panel": args.panel, "kind": args.kind, "basis": args.basis, "alpha": args.alpha, **echo,
    })
    return 0


def cmd_sparsity(args) -> int:
    grid = make_grid(args.m)
    basis = basis_for(args.basis, grid)
    signal = SignalSpec(kind=args.signal)
    process = ProcessSpec(kind=args.process)
    sigma_k = np.sqrt(sigma_k_theoretical(process, basis))
    levels = theoretical_levels(sigma_k, args.noise_sd, args.n, args.m, args.alpha, args.delta)
    report = sparsity_report(signal, basis, levels)
    payload = {
        "count": report.count,
        "active_indices": report.active_indices.tolist(),
        "sup_error": report.sup_error,
        "l2_error": report.l2_error,
        "config": {
            "signal": args.signal, "process": args.process, "basis": args.basis,
            "m": args.m, "n": args.n, "alpha": args.alpha, "delta": args.delta,
            "noise_sd": args.noise_sd,
        },
    }
    _write_json(args.out, payload)
    return 0


def _bench_csv_rows(report):
    rows = []
    for lab, e, md in zip(report.estimator_labels, report.sqrt_emse, report.sqrt_medmse):
        rows.append(("estimator", lab, FMT % e, FMT % md, "", ""))
    for kind, c, w in zip(report.band_kinds, report.coverage, report.mean_width):
        rows.append(("band", kind, "", "", FMT % c, FMT % w))
    for tag in sorted(report.oracle_pass_rates):
        rows.append(("oracle", tag, "", "", FMT % report.oracle_pass_rates[tag], ""))
    return rows


def cmd_bench(args) -> int:
    scenario = scenario_from_dict(_load_scenario(args.scenario), seed_override=args.seed)
    if args.replicates is not None:
        scenario = replace(scenario, replicates=args.replicates)
    report = run_scenario(scenario)
    _write_json(args.out + ".json", report.as_dict())
    with open(args.out + ".csv", "w", encoding="utf-8") as fh:
        fh.write("row_kind,label,sqrt_emse,sqrt_medmse,coverage_or_rate,mean_width\n")
        for row in _bench_csv_rows(report):
            fh.write(",".join(row) + "\n")
    return 0


def _add_common(p):
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curveband",
        description="Adaptive mean-curve estimation and uniform confidence bands for noisy curve panels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a noisy curve panel CSV")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="panel seed (default: the scenario's, else 0)")
    p.add_argument("--scenario", default=None, help="scenario JSON whose panel block sets the panel; no panel flags with it")
    p.add_argument("--n", type=int, default=None, help="curves (default 100)")
    p.add_argument("--m", type=int, default=None, help="grid points (default 64)")
    p.add_argument("--signal", choices=_SIGNAL_CHOICES, default=None, help="default signal1")
    p.add_argument("--process", choices=PROCESS_KINDS, default=None, help="default bb")
    p.add_argument("--noise-sd", type=float, default=None, help="default 0.1; not with calibration")
    p.add_argument("--sigma-star", type=float, default=None)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--ar-phi", type=float, default=None)
    p.add_argument("--innovation-sd", type=float, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="threshold-estimate the mean from a panel CSV")
    _add_common(p)
    p.add_argument("--panel", required=True)
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--rule", choices=RULES, default="hard")
    p.add_argument("--multiplier", type=float, default=None, help="threshold multiplier (default 1); not with least_squares")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("select", help="data-split selection among candidate estimators")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="split seed (default 0)")
    p.add_argument("--scenario", default=None, help="scenario JSON whose estimators are the candidates")
    p.add_argument("--panel", required=True)
    p.add_argument("--alpha", type=float, default=None, help="candidates' alpha (default 0.05); not with --scenario")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("band", help="build a uniform confidence band from a panel CSV")
    _add_common(p)
    p.add_argument("--scenario", default=None, help="scenario JSON giving the process (competitor_theoretical)")
    p.add_argument("--panel", required=True)
    p.add_argument("--kind", choices=BAND_KINDS, default="proposed_hard1")
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None, help="default 0; not with the competitor kinds")
    p.set_defaults(fn=cmd_band)

    p = sub.add_parser("sparsity", help="count true coefficients above theoretical levels")
    _add_common(p)
    p.add_argument("--signal", choices=_SIGNAL_CHOICES, default="signal1")
    p.add_argument("--process", choices=PROCESS_KINDS, default="bb")
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.set_defaults(fn=cmd_sparsity)

    p = sub.add_parser("bench", help="run a scenario JSON and write report JSON + CSV")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="base seed (default: the scenario's)")
    p.add_argument("--scenario", required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means an I/O failure here
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
