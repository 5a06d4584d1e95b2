"""Command-line surface and file formats.

Panels travel as wide CSV: the first row holds the midpoint design
t_j = (j - 1/2)/m, each following row one curve, every value rendered
with 17 significant digits so files round-trip losslessly.  simulate,
estimate and band write a JSON sidecar (<out>.meta.json) echoing the
exact configuration and seeds needed to regenerate their output; select
and sparsity put that config block in their JSON report, and bench a
provenance block.  A scenario JSON's values reach the library's checks
as given; only its counts and seeds are converted, so 2.0 reads as 2.
Exit codes: 0 success, 1 invalid input, configuration or command line,
2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from .bands import BAND_KINDS, COMPETITOR_KINDS, CurveMoments, _build_band, _competitor_inputs, _competitor_moments
from .estimator import RULES, fit, moments, per_curve_coeffs, pooled_stats, sparsity_report, theoretical_levels
from .grid_basis import BASIS_FAMILIES, basis_for, check_distinct, make_grid
from .metrics_bench import ScenarioConfig, run_scenario
from .process_sim import (
    KIND_PARAMS,
    PROCESS_KINDS,
    SIGNAL_KINDS,
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    check_keys,
    check_kind,
    generate_panel,
    sigma_k_theoretical,
)
from .selector import CandidateSpec, select

__all__ = ["main", "build_parser", "read_panel_csv", "write_panel_csv", "scenario_from_dict"]

FMT = "%.17g"

# a panel CSV's grid row may miss the midpoint design by 0.1% of the spacing
# 1/m: 6 printed decimals pass up to m = 2000, j/(m+1) and linspace rows fail
GRID_ROW_TOLERANCE = 1e-3

# Keys a scenario JSON may hold, by block; signal and process blocks hold
# the keys process_sim.KIND_PARAMS gives for their kind.
_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}
_PANEL_KEYS = {"n", "m", "signal", "process", "noise_sd", "calibration", "seed"}
_CALIBRATION_KEYS = {"sigma_star", "snr"}
_CANDIDATE_KEYS = {f.name for f in fields(CandidateSpec)}

# a custom signal needs its grid values, which only a scenario can give
_SIGNAL_CHOICES = tuple(kind for kind in SIGNAL_KINDS if kind != "custom")

# simulate's panel flags; they default to None so a given flag can be told
# from an absent one, and absent ones take these values
_SIMULATE_DEFAULTS = {"n": 100, "m": 64, "signal": "signal1", "process": "bb", "noise_sd": 0.1}
_PANEL_FLAGS = (*_SIMULATE_DEFAULTS, "sigma_star", "snr", "ar_phi", "innovation_sd")


def _spec_from_dict(spec_cls, family: str, block: dict):
    """A signal or process spec from a block that holds only keys its kind
    reads, even at their defaults; its kind and keys are checked first."""
    if not isinstance(block, dict):
        raise ValueError(f"{family} must be a JSON object")
    kw = dict(block)
    kind = kw.pop("kind", spec_cls.kind)
    check_kind(kind, family)
    check_keys(kw, KIND_PARAMS[family][kind], f"{kind} {family}")
    return spec_cls(kind=kind, **kw)


def _integer(value, key: str) -> int:
    """A whole number; int() would truncate 2.9 and parse "3"."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _require(block: dict, keys, where: str):
    """Reject a block that lacks any of keys, naming the block and them."""
    missing = [key for key in keys if key not in block]
    if missing:
        raise ValueError(f"{where} is missing key(s) {missing}")


def _block(block, known, where: str) -> dict:
    """The block, once it is a JSON object holding only keys in known."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object")
    check_keys(block, known, where)
    return block


def candidates_from_dict(d: dict) -> tuple:
    """The candidates in a scenario's estimators list; a bad entry is named as
    estimators[i].  Reports key candidates by label, so no two may share one."""
    block = d["estimators"]
    if not isinstance(block, list):
        raise ValueError(f"estimators must be a JSON list of objects, got {block!r}")
    cands = []
    for i, entry in enumerate(block):
        where = f"estimators[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, got {entry!r}")
        check_keys(entry, _CANDIDATE_KEYS, where)
        _require(entry, ("basis_family", "rule"), where)
        try:
            cands.append(CandidateSpec(**entry))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    check_distinct([c.label() for c in cands], "estimators", "label")
    return tuple(cands)


def panel_config_from_dict(d: dict, seed_override=None) -> PanelConfig:
    """Panel block: n, m, signal, process, seed, and either noise_sd or a
    calibration block {sigma_star, snr} that derives noise and signal scale.
    The block is checked as it is built, down to its signal and process."""
    _block(d, _PANEL_KEYS, "panel")
    signal = _spec_from_dict(SignalSpec, "signal", d.get("signal", {}))
    process = _spec_from_dict(ProcessSpec, "process", d.get("process", {}))
    calibrated = "calibration" in d
    cal = _block(d.get("calibration", {}), _CALIBRATION_KEYS, "calibration")
    if calibrated and "noise_sd" in d:
        raise ValueError("panel gives both noise_sd and calibration; calibration derives noise_sd")
    if calibrated and "innovation_sd" in d.get("process", {}):
        raise ValueError("panel gives both process innovation_sd and calibration; calibration derives innovation_sd")
    _require(d, ("n", "m") if calibrated else ("n", "m", "noise_sd"), "panel")
    grid = make_grid(_integer(d["m"], "m"))
    if calibrated:
        _require(cal, ("sigma_star", "snr"), "calibration")
        calib = calibrate(process, grid, cal["sigma_star"], cal["snr"], signal)
        noise_sd, signal, process = calib.noise_sd, calib.signal, calib.process
    else:
        noise_sd = d["noise_sd"]
    seed = _integer(seed_override if seed_override is not None else d.get("seed", 0), "seed")
    return PanelConfig(
        n=_integer(d["n"], "n"), grid=grid, signal=signal, process=process,
        noise_sd=noise_sd, seed=seed,
    )


def scenario_from_dict(d: dict, seed_override=None) -> ScenarioConfig:
    """The keys the scenario gives; ScenarioConfig's defaults fill the rest."""
    _require(_block(d, _SCENARIO_KEYS, "scenario"), ("panel", "estimators"), "scenario")
    kw = dict(d)
    if seed_override is not None:
        kw["base_seed"] = seed_override
    kw["panel"] = panel_config_from_dict(d["panel"])
    kw["estimators"] = candidates_from_dict(d)
    kw.update({key: _integer(kw[key], key) for key in ("replicates", "base_seed") if key in kw})
    return ScenarioConfig(**kw)


def _load_scenario(path: str, *needs: str) -> dict:
    """Scenario JSON: an object of ScenarioConfig keys that holds the blocks
    a command needs.  The builders check each block as they build it."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    _require(_block(d, _SCENARIO_KEYS, "scenario"), needs, "scenario")
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
    """Panel whose grid row is the midpoint design of its width, to within
    GRID_ROW_TOLERANCE / m; every basis is orthonormal only on that design."""
    with warnings.catch_warnings():
        # the row count below rejects a file with no rows, which numpy warns of
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[0] < 3:
        raise ValueError("panel CSV needs a grid row plus at least two curves")
    m = rows.shape[1]
    points, tol = make_grid(m).points, GRID_ROW_TOLERANCE / m
    off = np.flatnonzero(~(np.abs(rows[0] - points) <= tol))
    if off.size:
        j = off[0]
        raise ValueError(f"panel CSV grid row is not the midpoint design (j - 1/2)/{m}: "
                         f"entry {j + 1} is {float(rows[0, j])!r}, not {float(points[j])!r} within {tol:.3g}")
    return CurvePanel(rows[1:])


def _write_table_csv(path: str, header, columns):
    cols = [np.asarray(c) for c in columns]
    fmt = ["%d" if c.dtype.kind in "biu" else FMT for c in cols]
    np.savetxt(path, np.column_stack(cols), fmt=fmt, delimiter=",", header=",".join(header), comments="")


def _panel_echo(config: PanelConfig) -> dict:
    """A panel block that regenerates config: the keys each signal and
    process kind reads, with noise_sd and the signal and process parameters
    a calibration derived in place of the calibration block."""
    echo = {"n": config.n, "m": config.grid.m, "noise_sd": config.noise_sd, "seed": config.seed}
    for family, spec in (("signal", config.signal), ("process", config.process)):
        echo[family] = {"kind": spec.kind, **{key: getattr(spec, key) for key in KIND_PARAMS[family][spec.kind]}}
    return echo


def _reject_given(args, dests, reason: str):
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} would be ignored: {reason}")


def cmd_simulate(args) -> int:
    if args.scenario:
        _reject_given(args, _PANEL_FLAGS, "the --scenario panel block sets the panel")
        cfg = panel_config_from_dict(_load_scenario(args.scenario, "panel")["panel"], seed_override=args.seed)
    else:
        n, m, signal, process, noise_sd = (
            default if getattr(args, dest) is None else getattr(args, dest)
            for dest, default in _SIMULATE_DEFAULTS.items()
        )
        given = {dest: getattr(args, dest) for dest in ("ar_phi", "innovation_sd") if getattr(args, dest) is not None}
        if not KIND_PARAMS["process"][process]:
            _reject_given(args, given, f"--process {process} has no AR parameters")
        d = {"n": n, "m": m, "signal": {"kind": signal}, "process": {"kind": process, **given}}
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
        d = _load_scenario(args.scenario, "estimators")
        if "panel" in d:
            panel_config_from_dict(d["panel"])  # select reads no panel, but checks the one it is given
        cands = candidates_from_dict(d)
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
        "risks": {c.label(): float(r) for c, r in zip(cands, result.risks)},
        "split_seed": result.split_seed,
        "i1_indices": result.i1_indices.tolist(),
        "i2_indices": result.i2_indices.tolist(),
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
    if competitor:
        # the band's center and V come from the panel's moments alone, with
        # no curve analysed; --basis is the basis of the center's fit
        process = None
        if args.kind == "competitor_theoretical":
            if not args.scenario:
                raise ValueError("competitor_theoretical needs --scenario for the process covariance")
            cfg = panel_config_from_dict(_load_scenario(args.scenario, "panel")["panel"])
            if cfg.grid != panel.grid:
                raise ValueError("scenario grid size does not match the stored panel")
            process = cfg.process
        curves = CurveMoments(panel.n, *moments(panel.Y, _competitor_moments((args.kind,))))
        inputs = _competitor_inputs(args.kind, basis, curves, process, args.alpha)
    else:
        inputs = (pooled_stats(per_curve_coeffs(panel, basis), args.alpha, delta),)
    band = _build_band(args.kind, basis, *inputs)
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
    levels = theoretical_levels(sigma_k, args.noise_sd, args.n, args.alpha)
    report = sparsity_report(signal, basis, levels)
    payload = {
        "count": report.count,
        "active_indices": report.active_indices.tolist(),
        "sup_error": report.sup_error,
        "l2_error": report.l2_error,
        "config": {
            "signal": args.signal, "process": args.process, "basis": args.basis,
            "m": args.m, "n": args.n, "alpha": args.alpha, "noise_sd": args.noise_sd,
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curveband",
        description="Adaptive mean-curve estimation and uniform confidence bands for noisy curve panels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a noisy curve panel CSV")
    p.add_argument("--out", required=True)
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
    p.add_argument("--out", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--rule", choices=RULES, default="hard")
    p.add_argument("--multiplier", type=float, default=None, help="threshold multiplier (default 1); not with least_squares")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("select", help="data-split selection among candidate estimators")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="split seed (default 0)")
    p.add_argument("--scenario", default=None, help="scenario JSON whose estimators are the candidates")
    p.add_argument("--panel", required=True)
    p.add_argument("--alpha", type=float, default=None, help="candidates' alpha (default 0.05); not with --scenario")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("band", help="build a uniform confidence band from a panel CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--scenario", default=None, help="scenario JSON giving the process (competitor_theoretical)")
    p.add_argument("--panel", required=True)
    p.add_argument("--kind", choices=BAND_KINDS, default="proposed_hard1")
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None, help="default 0; not with the competitor kinds")
    p.set_defaults(fn=cmd_band)

    p = sub.add_parser("sparsity", help="count true coefficients above theoretical levels")
    p.add_argument("--out", required=True)
    p.add_argument("--signal", choices=_SIGNAL_CHOICES, default="signal1")
    p.add_argument("--process", choices=PROCESS_KINDS, default="bb")
    p.add_argument("--basis", choices=BASIS_FAMILIES, default="fourier")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.set_defaults(fn=cmd_sparsity)

    p = sub.add_parser("bench", help="run a scenario JSON and write report JSON + CSV")
    p.add_argument("--out", required=True)
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
