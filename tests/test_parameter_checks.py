"""Every public entry point's number and basis-family parameters, against
the value each kind of parameter rejects.

A parameter is one of a few kinds, each checked by one function in
grid_basis: an open interval (alpha, a tail probability, ar_phi; a
positive or any finite real is an open interval too), a finite
nonnegative real, a whole-number count at least some minimum, or a seed;
a basis family is one of the names grid_basis builds.  A bool, which numpy would take as 0 or 1, a string, NaN or an infinity
is never a valid number, and every rejection is a ValueError that names
the parameter and the value given.
"""

import re

import numpy as np
import pytest

from curveband import bands
from curveband.bands import coverage_experiment
from curveband.estimator import normal_quantile, pooled_stats, theoretical_levels
from curveband.grid_basis import Grid, basis_for, make_grid
from curveband.metrics_bench import ScenarioConfig, oracle_check_thm3
from curveband.process_sim import (
    CurvePanel,
    PanelConfig,
    ProcessSpec,
    SignalSpec,
    calibrate,
    replicate_configs,
)
from curveband.selector import CandidateSpec, select, split_panel

GRID = make_grid(16)
PANEL_KW = dict(n=10, grid=GRID, signal=SignalSpec(), process=ProcessSpec(), noise_sd=0.1, seed=1)
PANEL = PanelConfig(**PANEL_KW)
CURVES = CurvePanel(np.random.default_rng(0).normal(size=(8, 16)))
CANDIDATES = (CandidateSpec("fourier", "hard"),)

# each entry point as a call that takes the parameter under test by keyword
# and fills every other argument with a valid value
ENTRY_POINTS = {
    "SignalSpec": SignalSpec,
    "SignalSpec(signal2)": lambda **kw: SignalSpec(kind="signal2", **kw),
    "SignalSpec(custom)": lambda custom_values: SignalSpec(kind="custom", custom_values=(0.0, custom_values)),
    "ProcessSpec(ar1)": lambda **kw: ProcessSpec(kind="ar1", **kw),
    "PanelConfig": lambda **kw: PanelConfig(**{**PANEL_KW, **kw}),
    "calibrate": lambda **kw: calibrate(**{"process": ProcessSpec(), "grid": GRID, "sigma_star": 1.0,
                                           "snr": 2.0, "signal": SignalSpec(), **kw}),
    "replicate_configs": lambda **kw: replicate_configs(**{"template": PANEL, "base_seed": 0, "S": 2, **kw}),
    "Grid": Grid,
    "basis_for": lambda family: basis_for(family, GRID),
    "normal_quantile": normal_quantile,
    "pooled_stats": lambda **kw: pooled_stats(**{"per_curve": np.zeros((3, 4)), "alpha": 0.05, "delta": 0.0, **kw}),
    "theoretical_levels": lambda **kw: theoretical_levels(**{"sigma_k": np.full(4, 0.1), "sigma_eps": 0.2, "n": 10,
                                                             "alpha": 0.05, "delta": 0.01, **kw}),
    "CandidateSpec": lambda **kw: CandidateSpec(**{"basis_family": "fourier", "rule": "hard", **kw}),
    "split_panel": lambda seed: split_panel(CURVES, seed),
    "select": lambda seed: select(CURVES, CANDIDATES, seed),
    "coverage_experiment": lambda **kw: coverage_experiment(**{"scenario": PANEL, "band_kind": "proposed_hard1",
                                                               "S": 2, "target_kind": "truncated_target", **kw}),
    "ScenarioConfig": lambda **kw: ScenarioConfig(**{"panel": PANEL, "estimators": CANDIDATES, **kw}),
    "oracle_check_thm3": lambda **kw: oracle_check_thm3(**{"scenario": PANEL, "S": 2, **kw}),
}

NAN, INF = float("nan"), float("inf")
NEVER_NUMBERS = (True, np.True_, "1", NAN, INF, -INF)

# kind: (the values it rejects, the start of its message)
KINDS = {
    "(0,1)": (NEVER_NUMBERS + (-1, -0.1, 0.0, 1.0, 1.5, 2.5), r"^{name} must be in \(0,1\), got "),
    "(-1,1)": (NEVER_NUMBERS + (-1, 1.0, 2.5), r"^{name} must be in \(-1,1\), got "),
    "(0,inf)": (NEVER_NUMBERS + (-1, 0.0), r"^{name} must be in \(0,inf\), got "),
    "(-inf,inf)": (NEVER_NUMBERS, r"^{name} must be in \(-inf,inf\), got "),
    "nonnegative": (NEVER_NUMBERS + (-1, -0.1, -0.01), r"^{name} must be finite and nonnegative, got "),
    "count>=1": (NEVER_NUMBERS + (-1, 0, 2.5, 3.0), r"^need a whole number {name} >= 1, got "),
    "count>=2": (NEVER_NUMBERS + (-1, 1, 2.5, 3.0), r"^need a whole number {name} >= 2, got "),
    "seed": (NEVER_NUMBERS + (-1, 1.5, 2.5, "3"), r"^{name} must be a whole number >= 0, got "),
    # names: a near miss, another case, an empty name or no string at all
    "family": (("fourir", "Haar", "", 3, None, True, ["fourier"]),
               r"^{name} must be one of \('fourier', 'haar'\): unknown basis family "),
    # containers: a string would be read one character at a time
    "band kinds": (("proposed_hard1", ("mystery",), 5, None), r"^{name} must be a tuple of kinds from .*, got "),
    "candidates": ((("fourier",), ("fourier", "hard"), ()), r"^{name} must be a nonempty tuple of CandidateSpecs, got "),
}

TABLE = [
    ("SignalSpec", "c1", "(-inf,inf)"),
    ("SignalSpec", "c2", "(-inf,inf)"),
    ("SignalSpec(signal2)", "c3", "(-inf,inf)"),
    ("SignalSpec(custom)", "custom_values", "(-inf,inf)"),
    ("ProcessSpec(ar1)", "ar_phi", "(-1,1)"),
    ("ProcessSpec(ar1)", "innovation_sd", "(0,inf)"),
    ("PanelConfig", "n", "count>=2"),
    ("PanelConfig", "noise_sd", "nonnegative"),
    ("PanelConfig", "seed", "seed"),
    ("calibrate", "sigma_star", "(0,inf)"),
    ("calibrate", "snr", "(0,inf)"),
    ("replicate_configs", "S", "count>=1"),
    ("replicate_configs", "base_seed", "seed"),
    ("Grid", "m", "count>=2"),
    ("basis_for", "family", "family"),
    ("normal_quantile", "p", "(0,1)"),
    ("pooled_stats", "alpha", "(0,1)"),
    ("pooled_stats", "delta", "nonnegative"),
    ("theoretical_levels", "sigma_eps", "nonnegative"),
    ("theoretical_levels", "n", "count>=1"),
    ("theoretical_levels", "alpha", "(0,1)"),
    ("theoretical_levels", "delta", "nonnegative"),
    ("CandidateSpec", "alpha", "(0,1)"),
    ("CandidateSpec", "basis_family", "family"),
    ("split_panel", "seed", "seed"),
    ("select", "seed", "seed"),
    ("coverage_experiment", "alpha", "(0,1)"),
    ("coverage_experiment", "delta", "nonnegative"),
    ("coverage_experiment", "S", "count>=1"),
    ("ScenarioConfig", "replicates", "count>=1"),
    ("ScenarioConfig", "base_seed", "seed"),
    ("ScenarioConfig", "band_alpha", "(0,1)"),
    ("ScenarioConfig", "oracle_alpha", "(0,1)"),
    ("ScenarioConfig", "oracle_delta", "nonnegative"),
    ("ScenarioConfig", "bands", "band kinds"),
    ("ScenarioConfig", "estimators", "candidates"),
    ("ScenarioConfig", "band_basis_family", "family"),
    ("oracle_check_thm3", "S", "count>=2"),
    ("oracle_check_thm3", "alpha", "(0,1)"),
]

CASES = [
    pytest.param(entry, name, kind, bad, id=f"{entry}-{name}={bad!r}")
    for entry, name, kind in TABLE
    for bad in KINDS[kind][0]
]


@pytest.mark.parametrize("entry, name, kind, bad", CASES)
def test_entry_point_rejects_bad_parameter(entry, name, kind, bad, monkeypatch):
    def fail(*args):
        raise AssertionError("drew a panel or built a target")

    # a bad parameter is the call's fault, not a replicate's: it is rejected
    # before a panel is drawn or coverage_experiment builds its target
    monkeypatch.setattr(bands, "generate_panel", fail)
    monkeypatch.setattr(bands, "sigma_k_theoretical", fail)
    pattern = KINDS[kind][1].format(name=re.escape(name)) + re.escape(repr(bad))
    with pytest.raises(ValueError, match=pattern):
        ENTRY_POINTS[entry](**{name: bad})

