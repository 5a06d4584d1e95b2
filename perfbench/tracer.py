"""Span tracing of curveband's public functions from outside the program.

install() replaces every public function of the seven curveband modules
at every module where it is bound (``from .x import y`` binds a function
in several namespaces, and an intra-module call goes through the defining
module's globals), so every call is seen. uninstall() puts every original
back. Spans live in flat arrays while the run lasts and are
written out once at the end.

A span is (name, start, end, parent, call id, self time). Self time is the
span's duration minus the time covered by its child spans in other layers:
a call's helpers in its own layer (generate_panel calling simulate_process
once per curve, run_scenario calling the oracle checks, cli_io.main
reading the panel) count toward it, so a function's self time is the time
its layer spends on its behalf. Self times of functions in one layer
therefore overlap (sigma_k_theoretical's includes the covariance_matrix
call it makes, which also counts in covariance_matrix's) and must not be
added up. A layer's self time sums its entry spans, those whose parent is
in another layer, so nothing in it is counted twice.

Probes attach the work a call did, computed from array shapes and file
sizes, never timed. A probe runs after its span has ended, and its time
is taken out of the self time of every enclosing span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from array import array

LAYERS = ("grid_basis", "process_sim", "estimator", "selector", "bands", "metrics_bench", "cli_io")

# Private functions that a per-layer metric names.
EXTRA_PUBLIC = {"curveband.bands": ("_build_band",)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _panel_key(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    zero = kwargs.get("zero_process", args[1] if len(args) > 1 else False)
    key = (cfg.n, cfg.grid.m, repr(cfg.signal), repr(cfg.process), cfg.noise_sd, cfg.seed, bool(zero))
    return {"key": key, "values": cfg.n * cfg.grid.m}


def _coeff_key(args, kwargs, result):
    """Panels are told apart by a hash of every 61st entry: panels from
    different seeds differ everywhere, and hashing all n*m entries would
    cost as much as a small coefficient product."""
    panel = _arg(args, kwargs, 0, "panel")
    basis = _arg(args, kwargs, 1, "basis")
    n, m = panel.Y.shape
    sample = panel.Y.ravel()[::61].tobytes()
    content = hashlib.blake2b(sample, digest_size=16).digest()
    return {"key": (content, n, basis.family, basis.m), "flop": 2.0 * n * m * m}


def _basis_key(args, kwargs, result):
    return {"key": (result.family, result.m)}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


PROBES = {
    "process_sim.generate_panel": _panel_key,
    "estimator.per_curve_coeffs": _coeff_key,
    "grid_basis.fourier_basis": _basis_key,
    "grid_basis.haar_basis": _basis_key,
    "cli_io.read_panel_csv": _read_bytes,
    "cli_io.write_panel_csv": _write_bytes,
}


def public_functions(module):
    """Functions a module defines and exports, plus the EXTRA_PUBLIC ones."""
    names = list(getattr(module, "__all__", ())) + list(EXTRA_PUBLIC.get(module.__name__, ()))
    out = {}
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out[name] = fn
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


class Tracer:
    """Records spans for calls into curveband while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.entry = array("b")
        self.probed: dict[str, list] = {}
        self.call_id = -1
        self._stack: list[list] = []  # [span index, other-layer child time, layer]
        self._saved: list[tuple] = []

    def _wrap(self, fn):
        name = span_name(fn)
        layer = name.split(".", 1)[0]
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        probe = PROBES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else None
            self.name_id.append(nid)
            self.parent.append(parent[0] if parent else -1)
            self.entry.append(parent is None or parent[2] != layer)
            self.call.append(self.call_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_s.append(0.0)
            frame = [idx, 0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[idx] = (t1 - t0) - frame[1]
                if parent is not None:
                    # a parent in this layer also excludes what this span excluded
                    parent[1] += (t1 - t0) if parent[2] != layer else frame[1]
            if probe is not None:
                self.probed.setdefault(name, []).append(probe(args, kwargs, result))
                if parent is not None:
                    parent[1] += clock() - t1
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for mod in self.modules:
            originals.update({id(fn): fn for fn in public_functions(mod).values()})
        wrappers = {key: self._wrap(fn) for key, fn in originals.items()}
        for ns in [self.package, *self.modules]:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and value is originals[id(value)]:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])

    def uninstall(self):
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)

    def write(self, path: str):
        """One CSV row per span: name, call, parent, start, end, self."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,call,parent,layer_entry,start_s,end_s,self_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.call[i]},{self.parent[i]},{self.entry[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.self_s[i]:.9f}\n"
                )

    def by_name(self) -> dict:
        """name -> (calls, total self seconds, list of durations)."""
        out = {name: [0, 0.0, []] for name in self.names}
        for i in range(len(self.start)):
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += self.self_s[i]
            entry[2].append(self.end[i] - self.start[i])
        return out

    def by_layer(self) -> dict:
        """layer -> total self seconds of its entry spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(len(self.start)):
            if self.entry[i]:
                out[self.names[self.name_id[i]].split(".", 1)[0]] += self.self_s[i]
        return out
