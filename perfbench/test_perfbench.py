"""Smoke test of the benchmark at tiny sizes.

Every workload must run clean, emit exactly the metrics BENCHMARK.json
names, and leave no tracing wrapper behind in curveband's namespaces.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [p for p in (HERE, os.path.join(os.path.dirname(HERE), "src")) if p not in sys.path]

import run  # noqa: E402
import workloads  # noqa: E402

import curveband  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bindings():
    """Every function object bound in curveband's package and layer modules."""
    out = {}
    for ns in [curveband] + [getattr(curveband, name) for name in LAYERS]:
        for attr, value in vars(ns).items():
            if inspect.isfunction(value):
                out[(ns.__name__, attr)] = value
    return out


def tiny_run(workload, trace, tmp_path):
    return run.run(workload, seed=3, seconds=0.01, trace=trace, size="tiny", workdir=str(tmp_path))


def check_result(notes, result, kind):
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, notes["problems"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert notes["failed_frac"] == 0.0
    assert len(notes["outputs"]["digest"]) == 16
    json.dumps(result)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    notes, result = tiny_run(workload, False, tmp_path)
    check_result(notes, result, "end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name
    assert notes["call_tail"]["calls"] == result["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores_functions(workload, tmp_path):
    before = bindings()
    notes, result = tiny_run(workload, True, tmp_path)
    after = bindings()
    assert after.keys() == before.keys()
    leaked = [key for key, fn in after.items() if fn is not before[key]]
    assert not leaked
    assert not [key for key, fn in after.items() if hasattr(fn, "__wrapped_by_perfbench__")]
    check_result(notes, result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Structural counts that do not depend on timing: oracle runs simulate
    # every panel twice, the other workloads once.
    assert metrics["process_sim.panel_reuse"] == (0.5 if workload == "mc_oracle" else 1.0)
    assert metrics["process_sim.generate_panel.calls"] > 0
    assert os.path.getsize(tmp_path / f"{workload}-seed3.spans.csv") > 0


def test_tracer_wraps_and_restores():
    before = bindings()
    tracer = Tracer(curveband)
    tracer.install()
    try:
        assert curveband.generate_panel is not before[("curveband", "generate_panel")]
        assert curveband.bands.generate_panel is curveband.process_sim.generate_panel
        assert curveband.bands._build_band is not before[("curveband.bands", "_build_band")]
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_oracle", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
