"""Span recorder wrapped around the public calls into each lambda_cpt module.

The package imports names with ``from .x import y``, so a function is bound
in several module namespaces at once. ``Tracer.install`` finds every
binding of each target by identity across all loaded ``lambda_cpt`` modules
and replaces it with a recording wrapper; ``uninstall`` puts the originals
back. A target that no longer exists is listed in ``absent`` and skipped.

A span is ``[name, layer, start_ns, end_ns, parent, op, attrs]``: ``parent``
indexes the enclosing span (-1 at top level), ``op`` is the benchmark op id
that caused it, and ``attrs`` holds the work counts read at the boundary
(grid points, periods, nfev, bytes). Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _periods(args, kwargs, result):
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    return {"periods": int(seq.n_reps)}


def _grid_points(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {"points": len(grid)}


def _ratio_points(args, kwargs, result):
    ratios = args[1] if len(args) > 1 else kwargs["ratios"]
    return {"points": len(ratios)}


def _one_point(args, kwargs, result):
    return {"points": 1}


def _leastsq_info(args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 5:
        return {"nfev": int(result[2]["nfev"]), "ier": int(result[4])}
    return None


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (layer, home module, attribute, attrs extractor). ``expm`` and ``leastsq``
# are the scipy functions as bound in dynamics and fitting.
TARGETS = (
    ("cli", "cli", "main", None),
    ("config", "config", "load_config", None),
    ("config", "config", "default_config", None),
    ("config", "config", "RunConfig.manifest_inputs", None),
    ("spin_model", "spin_model", "eigensystem", None),
    ("spin_model", "spin_model", "esr_lines", None),
    ("spin_model", "spin_model", "mixing_angles", None),
    ("lambda_system", "lambda_system", "dark_bright_basis", None),
    ("lambda_system", "lambda_system", "branching_rates", None),
    ("dynamics", "dynamics", "run_cpt_sequence", _periods),
    ("dynamics", "dynamics", "rwa_generator", None),
    ("dynamics", "dynamics", "free_generator", None),
    ("dynamics", "dynamics", "liouvillian", None),
    ("dynamics", "dynamics", "expm", None),
    ("experiments", "experiments", "cpt_spectrum", _grid_points),
    ("experiments", "experiments", "multi_resonance_scan", None),
    ("experiments", "experiments", "pump_trace", _one_point),
    ("experiments", "experiments", "composition_sweep", _ratio_points),
    ("experiments", "experiments", "comb_predict", None),
    ("fitting", "fitting", "fit_dips", None),
    ("fitting", "fitting", "fit_saturation", None),
    ("fitting", "fitting", "fit_contrast_curve", None),
    ("fitting", "fitting", "recover_simplified", None),
    ("fitting", "fitting", "leastsq", _leastsq_info),
    ("datasets", "datasets", "write_csv", _bytes_written),
    ("datasets", "datasets", "read_csv", None),
    ("datasets", "datasets", "write_manifest", _bytes_written),
    ("datasets", "datasets", "run_manifest", None),
    ("datasets", "datasets", "manifest_hash", None),
)

# Per-layer metrics and their units; values come from ``layer_metrics``.
UNITS = {
    "dynamics.liouvillian_calls_per_point": "count",
    "dynamics.expm_calls_per_point": "count",
    "dynamics.generator_us_per_point": "us",
    "dynamics.expm_us_per_point": "us",
    "dynamics.loop_us_per_period": "us",
    "dynamics.periods": "count/op",
    "dynamics.run_calls": "count/op",
    "experiments.points": "count/op",
    "experiments.self_us_per_point": "us",
    "lambda_system.basis_calls_per_point": "count",
    "lambda_system.self_us_per_point": "us",
    "fitting.fit_ms": "ms",
    "fitting.leastsq_ms": "ms",
    "fitting.nfev_per_fit": "count",
    "fitting.converged_ratio": "ratio",
    "datasets.write_csv_ms": "ms",
    "datasets.read_csv_ms": "ms",
    "datasets.manifest_ms": "ms",
    "datasets.bytes_written": "B/op",
    "config.load_ms": "ms",
    "config.manifest_inputs_ms": "ms",
    "spin_model.eigensystem_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_optimize_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.absent: list[str] = []
        self.bound: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of every target in the loaded lambda_cpt modules."""
        importlib.import_module("lambda_cpt.cli")
        modules = [
            (name, mod)
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lambda_cpt" or name.startswith("lambda_cpt."))
        ]
        for layer, home, attr, extract in TARGETS:
            name = f"{home}.{attr}"
            owner = sys.modules.get(f"lambda_cpt.{home}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, original, extract)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                self.bound[name] = [f"lambda_cpt.{home}.{cls_name}"]
                continue
            self.bound[name] = []
            for mod_name, mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
                        self.bound[name].append(mod_name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def _wrap(self, name: str, layer: str, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extract is not None:
                span[6] = extract(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "absent": self.absent, "bound": self.bound}, handle)

    def absorb(self, path) -> None:
        """Append the spans another process dumped, re-basing parent indices."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        base = len(self.spans)
        for span in data["spans"]:
            if span[4] >= 0:
                span[4] += base
            self.spans.append(span)
        self.absent = sorted(set(self.absent) | set(data["absent"]))
        for name, where in data["bound"].items():
            self.bound[name] = sorted(set(self.bound.get(name, [])) | set(where))


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer numbers from spans; self time is duration minus child spans."""
    child = [0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    nfev, converged = [], []
    for i, (name, layer, start, end, _, _, attrs) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += end - start
        own = end - start - child[i]
        self_ns[name] += own
        layer_self_ns[layer] += own
        for key, value in (attrs or {}).items():
            counts[key] += value
        if name == "fitting.leastsq" and attrs:
            nfev.append(attrs["nfev"])
            converged.append(attrs["ier"] in (1, 2, 3, 4))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_ms(*names: str) -> float:
        return ratio(sum(total_ns[n] for n in names), sum(calls[n] for n in names)) / 1e6

    points = counts["points"]
    fits = ("fitting.fit_dips", "fitting.fit_saturation", "fitting.fit_contrast_curve")
    manifest = ("datasets.manifest_hash", "datasets.run_manifest", "datasets.write_manifest")
    generators = ("dynamics.rwa_generator", "dynamics.free_generator", "dynamics.liouvillian")
    return {
        "dynamics.liouvillian_calls_per_point": ratio(calls["dynamics.liouvillian"], points),
        "dynamics.expm_calls_per_point": ratio(calls["dynamics.expm"], points),
        "dynamics.generator_us_per_point": ratio(sum(self_ns[n] for n in generators), points) / 1e3,
        "dynamics.expm_us_per_point": ratio(self_ns["dynamics.expm"], points) / 1e3,
        "dynamics.loop_us_per_period": ratio(
            self_ns["dynamics.run_cpt_sequence"], counts["periods"]
        ) / 1e3,
        "dynamics.periods": ratio(counts["periods"], ops),
        "dynamics.run_calls": ratio(calls["dynamics.run_cpt_sequence"], ops),
        "experiments.points": ratio(points, ops),
        "experiments.self_us_per_point": ratio(layer_self_ns["experiments"], points) / 1e3,
        "lambda_system.basis_calls_per_point": ratio(calls["lambda_system.dark_bright_basis"], points),
        "lambda_system.self_us_per_point": ratio(layer_self_ns["lambda_system"], points) / 1e3,
        "fitting.fit_ms": mean_ms(*fits),
        "fitting.leastsq_ms": mean_ms("fitting.leastsq"),
        "fitting.nfev_per_fit": ratio(sum(nfev), len(nfev)),
        "fitting.converged_ratio": ratio(sum(converged), len(converged)),
        "datasets.write_csv_ms": mean_ms("datasets.write_csv"),
        "datasets.read_csv_ms": mean_ms("datasets.read_csv"),
        "datasets.manifest_ms": ratio(
            sum(self_ns[n] for n in manifest), calls["datasets.write_manifest"]
        ) / 1e6,
        "datasets.bytes_written": ratio(counts["bytes"], ops),
        "config.load_ms": mean_ms("config.load_config"),
        "config.manifest_inputs_ms": mean_ms("config.RunConfig.manifest_inputs"),
        "spin_model.eigensystem_ms": mean_ms("spin_model.eigensystem"),
        "cli.main_self_ms": ratio(self_ns["cli.main"], calls["cli.main"]) / 1e6,
    }
