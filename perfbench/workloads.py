"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed in setup() and then
yields cycles of entry-point calls. A call returns the program's raw
result; its check turns that into a list of problems (empty when the
output is correct) and a JSON-able record of the statistical outputs, used
for the replay comparison and the output digest.

Why these three: each puts most of its time in a different layer, so a
speed-up of one layer shows on one workload and should move nothing on
another (see README.md in this directory for the full table).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import curveband as cb
from curveband import cli_io

SIZES = {
    "mc_oracle": {
        "full": {"n": 100, "m": 64, "replicates": 32},
        "tiny": {"n": 12, "m": 16, "replicates": 2},
    },
    "coverage_wide": {
        "full": {"n": 200, "m": 1024, "truncated_replicates": 2, "competitor_replicates": 8},
        "tiny": {"n": 12, "m": 64, "truncated_replicates": 1, "competitor_replicates": 2},
    },
    "cli_panels": {
        "full": {"n": 400, "m": 256},
        "tiny": {"n": 12, "m": 16},
    },
}


@dataclass
class Call:
    """One entry-point call: run() is timed, check(raw) is not."""

    label: str
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


def call_seed(seed: int, *path: int) -> int:
    """Seed of one call, derived from the workload seed and its position;
    below 2**63 so it stays a plain int64 wherever it is echoed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, dtype=np.uint64)[0] >> 1)


def _finite_nonneg(name, values, problems):
    for v in np.atleast_1d(np.asarray(values, dtype=float)):
        if not (math.isfinite(v) and v >= 0.0):
            problems.append(f"{name} = {v!r} is not finite and >= 0")
            return


def _rate(name, value, problems):
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        problems.append(f"rate {name} = {value!r} is outside [0, 1]")


# ---------------------------------------------------------------- mc_oracle

MC_KINDS = ("bb", "bm", "ar1", "arima11")
MC_BANDS = ("proposed_hard1", "proposed_soft2", "competitor_theoretical")


class McOracle:
    """run_scenario with oracle checks, one call per process kind."""

    name = "mc_oracle"

    def setup(self, seed, size, workdir):
        p = SIZES[self.name][size]
        grid = cb.make_grid(p["m"])
        cals = {k: cb.calibrate(cb.ProcessSpec(kind=k), grid, 1.0, 4.25, cb.SignalSpec()) for k in MC_KINDS}
        estimators = (
            cb.CandidateSpec("fourier", "hard", 1),
            cb.CandidateSpec("fourier", "least_squares"),
            cb.CandidateSpec("haar", "hard", 1),
            cb.CandidateSpec("haar", "hard", 2),
        )
        return {"seed": seed, "grid": grid, "cals": cals, "estimators": estimators, **p}

    def cycle(self, st, index):
        calls = []
        for k, kind in enumerate(MC_KINDS):
            cal = st["cals"][kind]
            panel = cb.PanelConfig(
                n=st["n"], grid=st["grid"], signal=cal.signal, process=cal.process,
                noise_sd=cal.noise_sd, seed=0,
            )
            cfg = cb.ScenarioConfig(
                panel=panel, estimators=st["estimators"], bands=MC_BANDS,
                replicates=st["replicates"], base_seed=call_seed(st["seed"], index, k),
                oracle_checks=True,
            )
            calls.append(Call(f"run_scenario:{kind}", cfg.replicates, lambda cfg=cfg: cb.run_scenario(cfg), self.check))
        return calls

    @staticmethod
    def check(report):
        problems = []
        for kind, cov in zip(report.band_kinds, report.coverage):
            _rate(f"coverage[{kind}]", cov, problems)
        for tag, rate in report.oracle_pass_rates.items():
            _rate(f"oracle[{tag}]", rate, problems)
        if sorted(report.oracle_pass_rates) != ["omega", "thm1", "thm2", "thm3"]:
            problems.append(f"oracle rates {sorted(report.oracle_pass_rates)}")
        _finite_nonneg("sqrt_emse", report.sqrt_emse, problems)
        _finite_nonneg("sqrt_medmse", report.sqrt_medmse, problems)
        _finite_nonneg("mean_width", report.mean_width, problems)
        thm3 = report.provenance["thm3"]
        _finite_nonneg("thm3 lhs/rhs", [thm3["lhs_mc"], thm3["rhs_bound"]], problems)
        return problems, report.as_dict()

    def close(self, st):
        pass


# ------------------------------------------------------------ coverage_wide


class CoverageWide:
    """coverage_experiment at m=1024 on calibrated arima11, two band kinds.

    Replicates per call are set so that both call kinds take about the same
    time at the commit that defined the benchmark, which keeps the median
    latency inside one cluster rather than between two.
    """

    name = "coverage_wide"

    def setup(self, seed, size, workdir):
        p = SIZES[self.name][size]
        grid = cb.make_grid(p["m"])
        cal = cb.calibrate(cb.ProcessSpec(kind="arima11"), grid, 1.0, 1.5, cb.SignalSpec())
        return {"seed": seed, "grid": grid, "cal": cal, **p}

    def cycle(self, st, index):
        plan = (
            ("proposed_hard3", "truncated_target", st["truncated_replicates"]),
            ("competitor_theoretical", "true_mean", st["competitor_replicates"]),
        )
        calls = []
        cal = st["cal"]
        for k, (band, target, S) in enumerate(plan):
            panel = cb.PanelConfig(
                n=st["n"], grid=st["grid"], signal=cal.signal, process=cal.process,
                noise_sd=cal.noise_sd, seed=call_seed(st["seed"], index, k),
            )

            def run(panel=panel, band=band, S=S, target=target):
                return cb.coverage_experiment(panel, band, S, target_kind=target)

            def check(report, band=band, S=S, target=target):
                problems = []
                _rate("coverage", report.coverage, problems)
                _finite_nonneg("mean_width", report.mean_width, problems)
                if (report.replicates, report.band_kind, report.target) != (S, band, target):
                    problems.append(f"report echoes {report.replicates}, {report.band_kind}, {report.target}")
                return problems, {
                    "band": report.band_kind, "target": report.target, "replicates": report.replicates,
                    "covered": report.covered_count, "mean_width": report.mean_width,
                }

            calls.append(Call(f"coverage_experiment:{band}", S, run, check))
        return calls

    def close(self, st):
        pass


# --------------------------------------------------------------- cli_panels


def read_csv_floats(path: str, skip_header: bool) -> np.ndarray:
    """Parse a numeric CSV with the csv module, independently of numpy's reader."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if skip_header:
        rows = rows[1:]
    return np.array([[float(x) for x in row] for row in rows])


def haar_matrix(m: int) -> np.ndarray:
    """Haar system on m = 2^J midpoints: constant, then wavelets by (level, shift)."""
    J = int(round(math.log2(m)))
    cols = [np.ones(m)]
    for level in range(J):
        block = m >> level
        for q in range(1 << level):
            col = np.zeros(m)
            col[q * block:q * block + block // 2] = 2.0 ** (level / 2.0)
            col[q * block + block // 2:(q + 1) * block] = -(2.0 ** (level / 2.0))
            cols.append(col)
    return np.column_stack(cols)


def soft_haar_fit(Y: np.ndarray, alpha: float) -> np.ndarray:
    """Soft-threshold Haar estimate at multiplier 1, computed without curveband."""
    n, m = Y.shape
    H = haar_matrix(m)
    coeffs = Y @ H / m
    mu = coeffs.mean(axis=0)
    s = coeffs.std(axis=0, ddof=1)
    z = -statistics.NormalDist().inv_cdf(alpha / (2.0 * m))
    level = s * z / math.sqrt(n)
    return H @ (np.sign(mu) * np.maximum(np.abs(mu) - level, 0.0))


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliPanels:
    """In-process curveband CLI cycles: simulate, estimate, select, two bands."""

    name = "cli_panels"
    NOISE_SD = 0.136
    ALPHA = 0.05

    def setup(self, seed, size, workdir):
        p = SIZES[self.name][size]
        os.makedirs(workdir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli_panels-", dir=workdir)
        files = {k: os.path.join(tmp, v) for k, v in {
            "panel": "panel.csv", "fit": "fit", "select": "select.json",
            "band3": "band_hard3.csv", "bandc": "band_comp.csv",
        }.items()}
        return {"seed": seed, "tmp": tmp, "files": files, "parsed": {}, **p}

    def cycle(self, st, index):
        f = st["files"]
        sim_seed = call_seed(st["seed"], index, 0)
        split_seed = call_seed(st["seed"], index, 1)
        argvs = [
            ("simulate", ["simulate", "--n", str(st["n"]), "--m", str(st["m"]), "--signal", "signal1",
                          "--process", "bb", "--noise-sd", str(self.NOISE_SD), "--seed", str(sim_seed),
                          "--out", f["panel"]], lambda: self.check_simulate(st, sim_seed)),
            ("estimate", ["estimate", "--panel", f["panel"], "--basis", "haar", "--rule", "soft",
                          "--out", f["fit"]], lambda: self.check_estimate(st)),
            ("select", ["select", "--panel", f["panel"], "--seed", str(split_seed), "--out", f["select"]],
             lambda: self.check_select(st)),
            ("band_hard3", ["band", "--panel", f["panel"], "--kind", "proposed_hard3", "--out", f["band3"]],
             lambda: self.check_band(f["band3"])),
            ("band_comp", ["band", "--panel", f["panel"], "--kind", "competitor_sample_var", "--basis", "haar",
                           "--out", f["bandc"]], lambda: self.check_band(f["bandc"])),
        ]
        calls = []
        for label, argv, check in argvs:
            def guarded(rc, check=check, argv=argv):
                if rc != 0:
                    return [f"curveband {argv[0]} exited with {rc}"], None
                return check()

            calls.append(Call(f"cli:{label}", 1, lambda argv=argv: cli_io.main(argv), guarded))
        return calls

    def check_simulate(self, st, seed):
        path = st["files"]["panel"]
        rows = read_csv_floats(path, skip_header=False)
        cfg = cli_io.panel_config_from_dict(
            {"n": st["n"], "m": st["m"], "signal": {"kind": "signal1"}, "process": {"kind": "bb"},
             "noise_sd": self.NOISE_SD}, seed_override=seed)
        expect = cb.generate_panel(cfg)
        problems = []
        if rows.shape != (st["n"] + 1, st["m"]) or not (
            np.array_equal(rows[0], expect.grid.points) and np.array_equal(rows[1:], expect.Y)
        ):
            problems.append("panel CSV does not round-trip exactly")
        st["parsed"]["Y"] = rows[1:]
        return problems, {"panel_sha256": _file_sha(path)}

    def check_estimate(self, st):
        fit = read_csv_floats(st["files"]["fit"] + ".fit.csv", skip_header=True)
        coeffs = read_csv_floats(st["files"]["fit"] + ".coeffs.csv", skip_header=True)
        problems = []
        f_hat = fit[:, 2]
        ref = soft_haar_fit(st["parsed"]["Y"], self.ALPHA)
        err = float(np.max(np.abs(f_hat - ref)))
        if not err <= 1e-12:
            problems.append(f"estimate fit differs from the independent projection by {err:.3e}")
        _finite_nonneg("r_hat", coeffs[:, 3], problems)
        return problems, {"f_hat": f_hat.tolist(), "active": int(coeffs[:, 4].sum())}

    def check_select(self, st):
        with open(st["files"]["select"], encoding="utf-8") as fh:
            payload = json.load(fh)
        problems = []
        risks = payload["risks"]
        if payload["winner"] not in risks:
            problems.append(f"winner {payload['winner']!r} is not a candidate")
        _finite_nonneg("risks", [r for r in risks.values() if r is not None], problems)
        return problems, {"winner": payload["winner"], "risks": risks}

    @staticmethod
    def check_band(path):
        rows = read_csv_floats(path, skip_header=True)
        lower, upper = rows[:, 3], rows[:, 4]
        problems = []
        if not np.all(lower <= upper):
            problems.append(f"{os.path.basename(path)}: lower > upper in {int(np.sum(lower > upper))} rows")
        _finite_nonneg("band width", upper - lower, problems)
        return problems, {"center": rows[:, 2].tolist(), "lower": lower.tolist(), "upper": upper.tolist()}

    def close(self, st):
        shutil.rmtree(st["tmp"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (McOracle(), CoverageWide(), CliPanels())}
