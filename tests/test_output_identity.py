"""Golden outputs: the statistical results of fixed small runs, by float hex.

A change made for speed must leave every one of them bit for bit: a
run_scenario with oracle checks on each process, over every band kind and
both basis families; coverage_experiment against both targets; two panels;
one panel's per-curve coefficients and pooled statistics on each family;
sigma_k_theoretical for each process and family; select over both
families on a dyadic grid (m = 16) and a non-dyadic one (m = 24); and the
band command's center, lower and upper columns for both competitor kinds
on one stored panel.  Arrays are compared by the sha256 of their float64
bytes.  A change that declares a
new random stream or a new estimate updates these values and says so in
CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from curveband.bands import BAND_KINDS, COMPETITOR_KINDS, coverage_experiment
from curveband.cli_io import main, write_panel_csv
from curveband.estimator import per_curve_coeffs, pooled_stats
from curveband.grid_basis import BASIS_FAMILIES, basis_for, make_grid
from curveband.metrics_bench import ScenarioConfig, run_scenario
from curveband.process_sim import (
    PROCESS_KINDS,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    generate_panel,
    sigma_k_theoretical,
)
from curveband.selector import CandidateSpec, select

# Haar needs m = 16; the Fourier-only outputs take m = 24, where dividing by
# m rounds as it does by n = 17
N, M, M_FOURIER, S = 17, 16, 24, 5
ESTIMATORS = (
    CandidateSpec("fourier", "hard", 1),
    CandidateSpec("fourier", "least_squares"),
    CandidateSpec("haar", "soft", 2, alpha=0.1),
)
# every rule, two alphas, both families, and each family more than once
SELECT_CANDIDATES = (
    CandidateSpec("fourier", "hard", 1),
    CandidateSpec("haar", "hard", 2, alpha=0.1),
    CandidateSpec("fourier", "soft", 2, alpha=0.1),
    CandidateSpec("haar", "least_squares"),
    CandidateSpec("fourier", "least_squares"),
    CandidateSpec("haar", "soft", 1),
    CandidateSpec("fourier", "hard", 2, alpha=0.1),
    CandidateSpec("haar", "hard", 1, alpha=0.1),
    CandidateSpec("fourier", "soft", 1),
    CandidateSpec("haar", "soft", 2),
)
COVERAGE_BANDS = (("proposed_hard1", "fourier", M_FOURIER), ("proposed_soft2", "haar", M),
                  ("competitor_sample_var", "fourier", M_FOURIER))


def _hex(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


def _array_digest(a) -> str:
    """The first 16 hex digits of the sha256 of an array's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()[:16]


def _template(process: str, m: int = M, seed: int = 3) -> PanelConfig:
    grid = make_grid(m)
    cal = calibrate(ProcessSpec(kind=process), grid, 1.0, 4.25, SignalSpec())
    return PanelConfig(n=N, grid=grid, signal=cal.signal, process=cal.process, noise_sd=cal.noise_sd, seed=seed)


def _run_scenario(process: str) -> dict:
    report = run_scenario(ScenarioConfig(
        panel=_template(process), estimators=ESTIMATORS, bands=BAND_KINDS, replicates=S,
        base_seed=11, oracle_checks=True,
    ))
    return _hex({
        "sqrt_emse": report.sqrt_emse,
        "sqrt_medmse": report.sqrt_medmse,
        "coverage": report.coverage,
        "mean_width": report.mean_width,
        "oracle_pass_rates": report.oracle_pass_rates,
        "thm3": [report.provenance["thm3"]["lhs_mc"], report.provenance["thm3"]["rhs_bound"]],
    })


def _coverage(target_kind: str) -> dict:
    # a competitor kind reads no delta against the true mean
    delta = 0.0 if target_kind == "true_mean" else 0.01
    out = {}
    for kind, family, m in COVERAGE_BANDS:
        rep = coverage_experiment(_template("arima11", m), kind, S, target_kind, family, alpha=0.1, delta=delta)
        out[kind] = _hex([rep.covered_count, rep.mean_width])
    return out


def _panels() -> dict:
    noisy = _template("ar1", M_FOURIER, seed=5)
    return {
        "ar1 noisy": _array_digest(generate_panel(noisy).Y),
        "bm noise-free": _array_digest(generate_panel(PanelConfig(
            n=N, grid=noisy.grid, signal=SignalSpec(kind="signal2"), process=ProcessSpec(kind="bm"),
            noise_sd=0.0, seed=5)).Y),
    }


def _coefficients() -> dict:
    """Per-curve coefficients and their pool, whose last bits the run
    summaries above can average away."""
    out = {}
    for family, m in (("fourier", M_FOURIER), ("haar", M)):
        panel = generate_panel(_template("arima11", m, seed=7))
        pc = per_curve_coeffs(panel, basis_for(family, panel.grid))
        stats = pooled_stats(pc, 0.05, 0.01)
        for name, values in (("per_curve", pc), ("mu_hat", stats.mu_hat), ("s_k", stats.s_k), ("r_hat", stats.r_hat)):
            out[f"{family} {name}"] = _array_digest(values)
    return out


def _sigma_k() -> dict:
    grids = {"fourier": make_grid(M_FOURIER), "haar": make_grid(M)}
    return {
        f"{process} {family}": _array_digest(
            sigma_k_theoretical(_template(process, grids[family].m).process, basis_for(family, grids[family])))
        for process in PROCESS_KINDS for family in BASIS_FAMILIES
    }


def _select() -> dict:
    out = {}
    for m in (M, M_FOURIER):
        res = select(generate_panel(_template("bb", m, seed=9)), SELECT_CANDIDATES, 4)
        out[f"m={m}"] = {
            "winner_index": res.winner_index,
            "risks": [float(r).hex() for r in res.risks],
            "fitted_values": _array_digest(res.fitted_values),
        }
    return out


def _cli_band() -> dict:
    """The band command's columns for both competitor kinds on one panel
    written to CSV, with the centre fitted on each family."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_panel_csv(generate_panel(PanelConfig(
            n=N, grid=make_grid(M), signal=SignalSpec(), process=ProcessSpec(kind="bm"), noise_sd=0.2, seed=13,
        )), str(tmp / "panel.csv"))
        (tmp / "scen.json").write_text(json.dumps({"panel": {"n": N, "m": M, "process": {"kind": "bm"},
                                                             "noise_sd": 0.2}}))
        for kind in COMPETITOR_KINDS:
            for family in BASIS_FAMILIES:
                given = ["--scenario", str(tmp / "scen.json")] if kind == "competitor_theoretical" else []
                argv = ["band", "--panel", str(tmp / "panel.csv"), "--kind", kind, "--basis", family, *given,
                        "--out", str(tmp / "band.csv")]
                assert main(argv) == 0
                columns = np.loadtxt(tmp / "band.csv", delimiter=",", skiprows=1)[:, 2:].T
                out[f"{kind} {family}"] = [_array_digest(c) for c in columns]
    return out


def observed() -> dict:
    return {
        "run_scenario": {process: _run_scenario(process) for process in PROCESS_KINDS},
        "coverage_experiment": {target: _coverage(target) for target in ("true_mean", "truncated_target")},
        "generate_panel": _panels(),
        "coefficients": _coefficients(),
        "sigma_k_theoretical": _sigma_k(),
        "select": _select(),
        "cli_band": _cli_band(),
    }


GOLDEN = {
    'run_scenario': {
        'bb': {
            'sqrt_emse': [
                '0x1.2e8945082fc37p-3',
                '0x1.21af275820020p-3',
                '0x1.51191acc2b74bp-1',
            ],
            'sqrt_medmse': [
                '0x1.e3adde6f1f407p-4',
                '0x1.17234133eafa6p-3',
                '0x1.3c60492e07040p-1',
            ],
            'coverage': [
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.999999999999ap-3',
                '0x1.999999999999ap-1',
            ],
            'mean_width': [
                '0x1.78c85aae52b7dp+0',
                '0x1.1a964402be09ep+2',
                '0x1.78c85aae52b7dp+1',
                '0x1.6fa8907759410p+1',
                '0x1.2199ae208bd04p-1',
                '0x1.a56b9c962a376p-1',
            ],
            'oracle_pass_rates': {
                'omega': '0x0.0p+0',
                'thm1': '0x1.0000000000000p+0',
                'thm2': '0x1.0000000000000p+0',
                'thm3': '0x1.0000000000000p+0',
            },
            'thm3': ['0x1.15d6e48b5591bp-4', '0x1.be445f48d4112p-1'],
        },
        'bm': {
            'sqrt_emse': [
                '0x1.14e1fda5ff4c5p-2',
                '0x1.ef035a2b754f2p-3',
                '0x1.1fa7fd21e47edp+0',
            ],
            'sqrt_medmse': [
                '0x1.2dd1b86a34a65p-2',
                '0x1.a8e3d5db00ec3p-3',
                '0x1.1136df3abb878p+0',
            ],
            'coverage': [
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x0.0p+0',
                '0x1.999999999999ap-1',
            ],
            'mean_width': [
                '0x1.3c1f95b0d61aep+1',
                '0x1.da2f608941286p+2',
                '0x1.3c1f95b0d61aep+2',
                '0x1.2cd2847d07923p+2',
                '0x1.e9edacfaa4f13p-1',
                '0x1.619cb68af507ep+0',
            ],
            'oracle_pass_rates': {
                'omega': '0x0.0p+0',
                'thm1': '0x1.0000000000000p+0',
                'thm2': '0x1.0000000000000p+0',
                'thm3': '0x1.0000000000000p+0',
            },
            'thm3': ['0x1.57c8c45eff392p-3', '0x1.625c79cf501aep+1'],
        },
        'ar1': {
            'sqrt_emse': [
                '0x1.57a374708f544p-3',
                '0x1.2a75f56c43afep-3',
                '0x1.2d41f0a49936cp-1',
            ],
            'sqrt_medmse': [
                '0x1.7fbfd6c031254p-3',
                '0x1.24db1f3cc900ap-3',
                '0x1.2f2971a710f61p-1',
            ],
            'coverage': [
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.999999999999ap-2',
                '0x1.999999999999ap-1',
            ],
            'mean_width': [
                '0x1.638422b49af07p+0',
                '0x1.0aa31a0774345p+2',
                '0x1.638422b49af07p+1',
                '0x1.875e470747973p+1',
                '0x1.3cf9732d9dc30p-1',
                '0x1.aa3d235ceeaf3p-1',
            ],
            'oracle_pass_rates': {
                'omega': '0x0.0p+0',
                'thm1': '0x1.0000000000000p+0',
                'thm2': '0x1.0000000000000p+0',
                'thm3': '0x1.0000000000000p+0',
            },
            'thm3': ['0x1.2f84b2182710dp-4', '0x1.93341fdbc1674p-1'],
        },
        'arima11': {
            'sqrt_emse': [
                '0x1.166e0e6d5ec7ep-2',
                '0x1.f106817cfc9eap-3',
                '0x1.220dcd2bc23f8p+0',
            ],
            'sqrt_medmse': [
                '0x1.2ef3bb8ecd10ep-2',
                '0x1.aaabe05d8a80dp-3',
                '0x1.154a7d0b40d4bp+0',
            ],
            'coverage': [
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x1.0000000000000p+0',
                '0x0.0p+0',
                '0x1.999999999999ap-1',
            ],
            'mean_width': [
                '0x1.3cc262c024196p+1',
                '0x1.db23942036262p+2',
                '0x1.3cc262c024196p+2',
                '0x1.2b095444e1608p+2',
                '0x1.e75f8ffadf1b2p-1',
                '0x1.6362a1ddd5752p+0',
            ],
            'oracle_pass_rates': {
                'omega': '0x0.0p+0',
                'thm1': '0x1.0000000000000p+0',
                'thm2': '0x1.0000000000000p+0',
                'thm3': '0x1.0000000000000p+0',
            },
            'thm3': ['0x1.90032330c3b78p-2', '0x1.6c61be564051ep+1'],
        },
    },
    'coverage_experiment': {
        'true_mean': {
            'proposed_hard1': [5, '0x1.1664e3a917fd2p+1'],
            'proposed_soft2': [5, '0x1.997a7d8b68686p+1'],
            'competitor_sample_var': [3, '0x1.56a2eb882c72ap+0'],
        },
        'truncated_target': {
            'proposed_hard1': [5, '0x1.2fe07e8958042p+1'],
            'proposed_soft2': [5, '0x1.c729fe6a20ceep+1'],
            'competitor_sample_var': [0, '0x1.56a2eb882c72ap+0'],
        },
    },
    'generate_panel': {
        'ar1 noisy': '00084fdd1dcadbeb',
        'bm noise-free': '1faa762ff1cfbc9f',
    },
    'coefficients': {
        'fourier per_curve': 'a302503238389bb8',
        'fourier mu_hat': '90134e87da179df4',
        'fourier s_k': '869a11513d58cd36',
        'fourier r_hat': '422772186fe1ba48',
        'haar per_curve': 'eb781651d5e002d1',
        'haar mu_hat': '9b11189d70ab060c',
        'haar s_k': 'a8db71daefd5dea5',
        'haar r_hat': 'd996e16c1c5c618e',
    },
    'sigma_k_theoretical': {
        'bb fourier': '12307b293d9cbb03',
        'bb haar': 'b7f2835b5b42af74',
        'bm fourier': 'be60c00347910df9',
        'bm haar': '73391d605c744124',
        'ar1 fourier': '562b9ebe7424da16',
        'ar1 haar': 'b638881e0c19188e',
        'arima11 fourier': 'f6208d4f7d5d2bc5',
        'arima11 haar': 'e92e4a8f90a98339',
    },
    'select': {
        'm=16': {
            'winner_index': 1,
            'risks': [
                '0x1.cd2ff9cea5530p-2',
                '0x1.bc7943c71f516p-2',
                '0x1.95abeff66ba3ap-1',
                '0x1.c86103e1a5f26p-2',
                '0x1.c86103e1a5f24p-2',
                '0x1.217f0a3cd34f6p-1',
                '0x1.f2cd18da23a64p-2',
                '0x1.d638eb9fa4a96p-2',
                '0x1.0610bd4ff18c3p-1',
                '0x1.21678fa65bc6ap+0',
            ],
            'fitted_values': '3a92e1ba4319e632',
        },
        'm=24': {
            'winner_index': 7,
            'risks': [
                '0x1.f697cbf1572f8p-2',
                '0x1.fd57098486b48p-1',
                '0x1.15674445b2ab0p+0',
                '0x1.152d4800568ecp-1',
                '0x1.152d4800568efp-1',
                '0x1.6fd850071bcc5p-1',
                '0x1.fed205d387a08p-1',
                '0x1.f5465833965dbp-2',
                '0x1.6e000367c2685p-1',
                '0x1.25f1d04e4e985p+0',
            ],
            'fitted_values': '86c7e315eed3ecba',
        },
    },
    'cli_band': {
        'competitor_theoretical fourier': ['b6b2a3f060588828', '59850cf74d4e13ed', '8b853e1ac9bce600'],
        'competitor_theoretical haar': ['b4d1e21f61b0346d', '58d5c42c54426d9d', '07ada7764a999160'],
        'competitor_sample_var fourier': ['b6b2a3f060588828', '3d5e08e0915e24f5', 'ae3fa4519ee3ce6a'],
        'competitor_sample_var haar': ['b4d1e21f61b0346d', '7625fb9d5428af46', 'e97d95fb736c694b'],
    },
}


@pytest.fixture(scope="module")
def seen():
    return observed()


@pytest.mark.parametrize("section", list(GOLDEN))
def test_outputs_match_the_recorded_values(seen, section):
    assert seen[section] == GOLDEN[section]
