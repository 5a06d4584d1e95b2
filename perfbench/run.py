"""curveband benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc_oracle --seed 1 --seconds 35 --trace 0

Run from the repository root. The program is imported from ./src, never
from an installed copy. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it runs every call twice, untraced and traced,
and reports the per-layer metrics of the traced calls. Lines before the
last one carry provenance, the output digest and notes; the last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
BLAS_THREADS = 1
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 128 * 1024  # glibc's default

# The setup child: the same import and input building as the run itself,
# ending with the clock reading of its last step. perf_counter is
# CLOCK_MONOTONIC on Linux, shared by parent and child.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
w.close(w.setup(int(sys.argv[4]), sys.argv[5], sys.argv[6]))
print(repr(time.perf_counter()))
"""


def set_blas_threads():
    """Pin BLAS to one thread before numpy loads.

    On a small shared machine a second BLAS thread contends with whatever
    else runs there: a 1024-point covariance product then varies by tens
    of percent from run to run, against a few percent single-threaded.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def fix_mmap_threshold():
    """Keep glibc's mmap threshold at its default instead of letting it grow.

    glibc raises the threshold when a large mmapped block is freed, after
    which m*m arrays come from the heap and one of them may stay resident:
    peak RSS of the m=1024 workload then reads 91.7 MB or 99.8 MB for the
    same code. With a fixed threshold every large array is returned to the
    system when freed and peak RSS is the peak of live memory. No-op off
    glibc.
    """
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (OSError, AttributeError):
        pass


def load_program():
    """Import curveband from ./src and refuse any other copy."""
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    import curveband

    origin = os.path.realpath(curveband.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"curveband imported from {origin}, not from {SRC}")
    import workloads

    return curveband, workloads


def provenance(curveband, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    threads = os.environ.get("OPENBLAS_NUM_THREADS")  # as set_blas_threads left it
    src_hash = hashlib.sha256()
    pkg = os.path.dirname(curveband.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads) if threads else None,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def measure_setup(workload: str, seed: int, size: str, workdir: str) -> float:
    """Median of SETUP_REPEATS fresh processes: start, import, build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, HERE, workload, str(seed), size, workdir],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def digest(outputs) -> str:
    """Hash of statistical outputs, floats rounded to 10 significant digits
    so BLAS rounding differences do not flip it but a changed stream does."""

    def rounded(x):
        if isinstance(x, float):
            return float(f"{x:.10g}")
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [rounded(v) for v in x]
        return x

    return hashlib.sha256(json.dumps(rounded(outputs), sort_keys=True).encode()).hexdigest()[:16]


def exact(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


class Run:
    """Bookkeeping of one run: per-call latency, ops, failures."""

    def __init__(self):
        self.latencies = []
        self.ops = 0
        self.failed = 0
        self.problems = []
        self.first_cycle = []  # (label, outputs) of cycle 0, for the digest

    def record(self, call, seconds, outcome):
        problems, outputs = outcome
        self.latencies.append(seconds)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{call.label}: {'; '.join(problems)}")
        else:
            self.ops += call.ops
        return outputs


def invoke(call, tracer=None):
    """Run a call timed, traced if a tracer is given, then check it
    untraced: (seconds, (problems, outputs))."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw = call.run()
    except Exception as exc:  # a raising call is a failed call, the run goes on
        return time.perf_counter() - t0, ([f"raised {type(exc).__name__}: {exc}"], None)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    try:
        return seconds, call.check(raw)
    except Exception as exc:
        return seconds, ([f"check raised {type(exc).__name__}: {exc}"], None)


def tail(latencies):
    """Highest nearest-rank percentile with TAIL_BEYOND calls beyond it,
    never below the upper median: (value, percentile, calls beyond)."""
    xs = sorted(latencies)
    k = max(len(xs) - 1 - TAIL_BEYOND, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def body_untraced(w, st, seconds, run):
    t_end = time.perf_counter() + seconds
    index = 0
    first = None
    while index == 0 or time.perf_counter() < t_end:
        for call in w.cycle(st, index):
            secs, outcome = invoke(call)
            outputs = run.record(call, secs, outcome)
            if index == 0:
                run.first_cycle.append((call.label, outputs))
                if first is None:
                    first = (call, outputs)
        index += 1
    # Replay the first call from its seed; its report must be bit-identical.
    call, outputs = first
    _, (problems, again) = invoke(call)
    if problems or exact(again) != exact(outputs):
        run.failed += 1
        run.problems.append(f"replay of {call.label}: {'; '.join(problems) or 'outputs differ'}")


def body_traced(w, st, seconds, run, tracer):
    """Each call untraced and traced, alternating which goes first.
    Returns (untraced seconds, traced seconds, traced ops)."""
    t_end = time.perf_counter() + seconds
    index = 0
    plain = traced = 0.0
    traced_ops = 0
    while index == 0 or time.perf_counter() < t_end:
        for j, call in enumerate(w.cycle(st, index)):
            tracer.call_id = len(run.latencies)
            results = {}
            for traced_mode in ((False, True) if (index + j) % 2 == 0 else (True, False)):
                results[traced_mode] = invoke(call, tracer if traced_mode else None)
            secs, outcome = results[True]
            outputs = run.record(call, secs, outcome)
            plain += results[False][0]
            traced += secs
            if not outcome[0]:
                traced_ops += call.ops
            if index == 0:
                run.first_cycle.append((call.label, outputs))
            if exact(results[False][1][1]) != exact(outputs):
                run.failed += 1
                run.problems.append(f"{call.label}: traced and untraced outputs differ")
        index += 1
    return plain, traced, traced_ops


def layer_metrics(tracer, ops, plain, traced) -> dict:
    spans = tracer.by_name()
    layers = tracer.by_layer()
    probed = tracer.probed

    def count(name):
        return spans.get(name, (0, 0.0, []))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, []))[1] for n in names)

    def durations(name):
        return spans.get(name, (0, 0.0, []))[2]

    def p50_ms(name):
        return 1000.0 * statistics.median(durations(name)) if durations(name) else 0.0

    def reuse(*names):
        keys = [p["key"] for n in names for p in probed.get(n, [])]
        return len(set(keys)) / len(keys) if keys else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def total(name, field):
        return sum(p[field] for p in probed.get(name, []))

    gp_inclusive = sum(durations("process_sim.generate_panel"))
    coeff_self = self_s("estimator.per_curve_coeffs")
    gflop = total("estimator.per_curve_coeffs", "flop") / 1e9
    oracle = ("metrics_bench.omega_event_check", "metrics_bench.oracle_check_thm1",
              "metrics_bench.oracle_check_thm2", "metrics_bench.oracle_check_thm3")
    per_op = 1.0 / ops if ops else 0.0
    return {
        "grid_basis.self_s": layers["grid_basis"] * per_op,
        "grid_basis.builds": (count("grid_basis.fourier_basis") + count("grid_basis.haar_basis")) * per_op,
        "grid_basis.build_reuse": reuse("grid_basis.fourier_basis", "grid_basis.haar_basis"),
        "process_sim.generate_panel.calls": count("process_sim.generate_panel") * per_op,
        "process_sim.generate_panel.self_s": self_s("process_sim.generate_panel") * per_op,
        "process_sim.generate_panel.p50_ms": p50_ms("process_sim.generate_panel"),
        "process_sim.values_per_s": rate(total("process_sim.generate_panel", "values"), gp_inclusive),
        "process_sim.panel_reuse": reuse("process_sim.generate_panel"),
        "process_sim.covariance_matrix.calls": count("process_sim.covariance_matrix") * per_op,
        "process_sim.covariance_matrix.self_s": self_s("process_sim.covariance_matrix") * per_op,
        "process_sim.sigma_k_theoretical.self_s": self_s("process_sim.sigma_k_theoretical") * per_op,
        "process_sim.self_s": layers["process_sim"] * per_op,
        "estimator.per_curve_coeffs.calls": count("estimator.per_curve_coeffs") * per_op,
        "estimator.per_curve_coeffs.self_s": coeff_self * per_op,
        "estimator.per_curve_coeffs.gflop": gflop * per_op,
        "estimator.per_curve_coeffs.gflop_per_s": rate(gflop, coeff_self),
        "estimator.coeff_reuse": reuse("estimator.per_curve_coeffs"),
        "estimator.pooled_stats.calls": count("estimator.pooled_stats") * per_op,
        "estimator.self_s": layers["estimator"] * per_op,
        "selector.select.p50_ms": p50_ms("selector.select"),
        "selector.self_s": layers["selector"] * per_op,
        "bands.build_band.calls": count("bands.build_band") * per_op,
        "bands.self_s": layers["bands"] * per_op,
        "metrics_bench.self_s": layers["metrics_bench"] * per_op,
        "metrics_bench.oracle.self_s": self_s(*oracle) * per_op,
        "cli_io.self_s": layers["cli_io"] * per_op,
        "cli_io.read_panel_csv.p50_ms": p50_ms("cli_io.read_panel_csv"),
        "cli_io.write_panel_csv.p50_ms": p50_ms("cli_io.write_panel_csv"),
        "cli_io.read_mb_per_s": rate(total("cli_io.read_panel_csv", "bytes") / 1e6, self_s("cli_io.read_panel_csv")),
        "cli_io.write_mb_per_s": rate(total("cli_io.write_panel_csv", "bytes") / 1e6, self_s("cli_io.write_panel_csv")),
        "trace.overhead_frac": traced / plain - 1.0 if plain > 0 else 0.0,
    }


def reference_digest(w, workdir: str) -> str:
    """Digest of the first cycle at the tiny size and seed 0."""
    st = w.setup(0, "tiny", workdir)
    try:
        outputs = []
        for call in w.cycle(st, 0):
            _, (_, out) = invoke(call)
            outputs.append((call.label, out))
    finally:
        w.close(st)
    return digest(outputs)


def run(workload: str, seed: int, seconds: float, trace: bool, *, size: str = "full", workdir: str = OUT):
    """One benchmark run. Returns (notes, result) where result is the
    final JSON object and notes the dict printed on the lines before it.
    Scratch files and the spans file go to workdir."""
    curveband, workloads = load_program()
    from tracer import Tracer

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[workload]
    setup_s = None if trace else measure_setup(workload, seed, size, workdir)
    st = w.setup(seed, size, workdir)
    run_ = Run()
    try:
        if trace:
            tracer = Tracer(curveband)
            plain, traced, traced_ops = body_traced(w, st, seconds, run_, tracer)
            metrics = layer_metrics(tracer, traced_ops, plain, traced)
            tracer.write(os.path.join(workdir, f"{workload}-seed{seed}.spans.csv"))
        else:
            body_untraced(w, st, seconds, run_)
            lat = run_.latencies
            tail_s, tail_pct, beyond = tail(lat)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": run_.ops / sum(lat),
                "call_p50_ms": 1000.0 * statistics.median(lat),
                "call_tail_ms": 1000.0 * tail_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        w.close(st)
    attempted = len(run_.latencies)
    run_digest = digest(run_.first_cycle)
    ref = reference_digest(w, workdir)
    stored = load_digests().get(workload)
    notes = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(curveband, seed),
        "outputs": {
            "digest": run_digest,
            "reference_digest": ref,
            "outputs_changed": stored is not None and ref != stored,
        },
        "failed_frac": run_.failed / attempted,
        "problems": run_.problems,
        "labels": LABELS,
    }
    if not trace:
        notes["call_tail"] = {"percentile": round(tail_pct, 2), "calls": attempted, "beyond": beyond}
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": run_.failed == 0,
        "attempted": attempted,
        "failed": run_.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return notes, result


LABELS = {
    "estimator.per_curve_coeffs.gflop": "computed as 2*n*m^2 per call from array shapes",
    "cli_io.read_mb_per_s": "file bytes from os.path.getsize over read_panel_csv self time",
    "cli_io.write_mb_per_s": "file bytes from os.path.getsize over write_panel_csv self time",
    "process_sim.values_per_s": "n*m from the panel config over generate_panel span time",
}


def metric_units(kind: str) -> dict:
    """name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    set_blas_threads()
    fix_mmap_threshold()
    notes, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in notes.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
