"""Command-line entry point.

Commands map one-to-one onto the experiment protocols:

    esr-lines        electron resonance line table for the configured spin
    cpt-spectrum     steady dip spectrum over a two-photon detuning grid
    pump-steps       step-resolved pumping trace plus calibrated estimate
    composition      dark-state composition versus Rabi ratio
    multi-resonance  one spectrum per sequence period
    comb-predict     closed-form comb geometry (no simulation)
    fit              fit a previously written dataset

Every command takes --config (INI path, defaults apply when omitted),
--out (output directory) and --seed (noise seed), before or after the
command name. Datasets are CSV with a '#' comment block; each run also
writes a JSON manifest whose hash is echoed into the CSV header.

Exit codes: 0 success, 1 engine failure, 2 unreadable CLI/config input,
3 validation rejection, 4 fit did not converge (report still written),
64 missing or unknown command. Set LAMBDA_CPT_LOG=DEBUG (or any level
name) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, check_periods, default_config, load_config
from .datasets import manifest_hash, read_csv, run_manifest, write_csv, write_manifest
from .dynamics import readout_signal
from .experiments import (
    apply_artificial_contrast,
    comb_predict,
    composition_sweep,
    cpt_spectrum,
    multi_resonance_scan,
    pump_trace,
)
from .fitting import fit_contrast_curve, fit_dips, fit_saturation, recover_simplified
from .spin_model import eigensystem, esr_lines

__all__ = ["main"]

log = logging.getLogger("lambda_cpt.cli")


def _setup_logging() -> None:
    level_name = os.environ.get("LAMBDA_CPT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-cpt",
        description="Pulsed coherent-trapping simulator for a microwave Lambda system",
    )
    parser.add_argument("--version", action="version", version=f"lambda-cpt {__version__}")
    parser.add_argument("command", nargs="?", help="one of: " + ", ".join(_HANDLERS))
    parser.add_argument("--config", metavar="FILE", help="INI run file (defaults when omitted)")
    parser.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (created if needed)"
    )
    parser.add_argument("--seed", metavar="N", type=_seed, help="noise seed (default 0)")
    return parser


def _seed(text: str) -> int:
    """A --seed value: np.random.default_rng takes nonnegative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


def _noise(rng: np.random.Generator, std: float, values: np.ndarray) -> np.ndarray:
    if std <= 0:
        return values
    return values + rng.normal(0.0, std, size=len(values))


def _run_esr_lines(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    lines = esr_lines(eigensystem(cfg.spin))
    write_csv(
        out / "esr_lines.csv",
        {
            "frequency_mhz": [line.frequency for line in lines],
            "weight": [line.weight for line in lines],
            "label": [line.label for line in lines],
        },
        digest,
        "electron resonance lines",
    )
    return 0


def _run_cpt_spectrum(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    start, stop, points = cfg.scan_grid
    grid = np.linspace(start, stop, points)
    spec = cpt_spectrum(cfg.seq, cfg.seq.lam.delta_1, grid)
    write_csv(
        out / "spectrum.csv",
        {
            "delta_2_mhz": spec.detuning_grid,
            "signal_norm": _noise(rng, cfg.noise_std, spec.signal),
        },
        digest,
        "steady trapping spectrum",
    )
    return 0


def _run_pump_steps(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    result = pump_trace(cfg.seq)
    trace = result.trace
    signal = readout_signal(trace.p_excited, cfg.readout)
    write_csv(
        out / "pump_steps.csv",
        {
            "step": trace.step,
            "p_dark": trace.p_dark,
            "p_bright": trace.p_bright,
            "p_excited": trace.p_excited,
            "p_up": trace.p_up,
            "p_down": trace.p_down,
            "signal": _noise(rng, cfg.noise_std, signal),
        },
        digest,
        "step-resolved pumping trace",
    )
    write_csv(
        out / "pump_estimate.csv",
        {
            "step": np.arange(len(result.p_dark_est)),
            "p_dark_est": result.p_dark_est,
        },
        digest,
        "calibrated dark-population estimate",
    )
    return 0


def _run_composition(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    sweep = composition_sweep(
        cfg.seq, np.asarray(cfg.ratios), n_steps=cfg.composition_steps
    )
    columns = {
        "ratio": sweep.ratios,
        "measured": sweep.measured,
        "ideal": sweep.ideal,
    }
    if cfg.contrast_a is not None:
        columns["measured_contrast"] = apply_artificial_contrast(
            sweep.measured, cfg.contrast_a
        )
    write_csv(out / "composition.csv", columns, digest, "dark-state composition sweep")
    return 0


def _run_multi_resonance(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    labels = [format(t_seq, "g") for t_seq in cfg.t_seq_list]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError(
            "scan.t_seq_list",
            f"periods share the output file label T{', T'.join(shared)}; "
            "periods must differ in their first 6 significant digits",
        )
    check_periods(cfg.seq, cfg.t_seq_list)
    explicit_scan = cfg.explicit.get("scan", {})
    grid = None
    if {"delta_start", "delta_stop", "points"} & set(explicit_scan):
        start, stop, points = cfg.scan_grid
        grid = np.linspace(start, stop, points)
    spectra = multi_resonance_scan(cfg.seq, list(cfg.t_seq_list), grid=grid)
    for label, spec in zip(labels, spectra):
        write_csv(
            out / f"multi_resonance_T{label}.csv",
            {
                "delta_2_mhz": spec.detuning_grid,
                "signal_norm": _noise(rng, cfg.noise_std, spec.signal),
            },
            digest,
            f"trapping spectrum at period {label} us",
        )
    return 0


def _run_comb_predict(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    seq = cfg.seq
    comb = comb_predict(seq.t_mw, seq.t_seq, cfg.comb_n_s, cfg.comb_n_max)
    n_values = np.arange(-cfg.comb_n_max, cfg.comb_n_max + 1)
    write_csv(
        out / "comb.csv",
        {
            "n": n_values,
            "center_mhz": comb.dip_centers,
            "width_mhz": np.full(len(n_values), comb.dip_width),
            "envelope_mhz": np.full(len(n_values), comb.envelope_width),
        },
        digest,
        "pulse-train comb geometry",
    )
    return 0


def _fit_report_dips(cfg: RunConfig, data: dict) -> tuple[dict, bool]:
    for column in ("delta_2_mhz", "signal_norm"):
        if column not in data:
            raise ConfigError("fit.input", f"dataset lacks the {column} column")
    fit = fit_dips(
        (data["delta_2_mhz"], data["signal_norm"]),
        cfg.fit_k,
        init_centers=np.asarray(cfg.fit_init_centers) if cfg.fit_init_centers else None,
    )
    report = {
        "kind": "dips",
        "converged": fit.converged,
        "no_dip": fit.no_dip,
        "baseline": fit.baseline,
        "residual_norm": fit.residual_norm,
        "dips": [
            {
                "center_mhz": float(fit.centers[i]),
                "fwhm_mhz": float(fit.fwhms[i]),
                "amplitude": float(fit.amplitudes[i]),
                "center_sigma": float(fit.center_sigmas[i]),
                "fwhm_sigma": float(fit.fwhm_sigmas[i]),
            }
            for i in range(len(fit.centers))
        ],
    }
    return report, fit.converged


def _fit_report_saturation(data: dict) -> tuple[dict, bool]:
    if "p_dark_est" in data:
        series = data["p_dark_est"]
    elif "p_dark" in data:
        series = data["p_dark"]
    else:
        raise ConfigError("fit.input", "dataset lacks a p_dark_est or p_dark column")
    fit = fit_saturation(np.asarray(series))
    report = {
        "kind": "saturation",
        "converged": fit.converged,
        "identifiable": fit.identifiable,
        "n_s": fit.n_s,
        "p_inf": fit.p_inf,
        "p0": fit.p0,
        "n_s_sigma": fit.n_s_sigma,
        "p_inf_sigma": fit.p_inf_sigma,
        "residual_norm": fit.residual_norm,
    }
    if fit.identifiable and fit.n_s > 0:
        simplified = recover_simplified(fit)
        report["alpha_p_eff"] = simplified.alpha_p_eff
        report["alpha_dp"] = simplified.alpha_dp
    return report, fit.converged


def _fit_report_contrast(data: dict) -> tuple[dict, bool]:
    for column in ("ratio", "measured"):
        if column not in data:
            raise ConfigError("fit.input", f"dataset lacks the {column} column")
    column = "measured_contrast" if "measured_contrast" in data else "measured"
    a = fit_contrast_curve(np.column_stack([data["ratio"], data[column]]))
    return {"kind": "contrast", "converged": True, "a": a, "column": column}, True


def _run_fit(cfg: RunConfig, out: Path, rng, digest: str) -> int:
    if not cfg.fit_input:
        raise ConfigError("fit.input", "no dataset path configured")
    path = Path(cfg.fit_input)
    if not path.is_file():
        raise ConfigError("fit.input", f"no such file: {path}")
    data = read_csv(path)
    if cfg.fit_kind == "dips":
        report, converged = _fit_report_dips(cfg, data)
    elif cfg.fit_kind == "saturation":
        report, converged = _fit_report_saturation(data)
    else:
        report, converged = _fit_report_contrast(data)
    (out / "fit_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    if not converged:
        log.error("fit did not converge; report written anyway")
        return 4
    return 0


# command -> (manifest name, handler). A handler writes its datasets and
# returns the exit code; main writes <manifest name>.manifest.json after it.
_HANDLERS = {
    "esr-lines": ("esr_lines", _run_esr_lines),
    "cpt-spectrum": ("spectrum", _run_cpt_spectrum),
    "pump-steps": ("pump_steps", _run_pump_steps),
    "composition": ("composition", _run_composition),
    "multi-resonance": ("multi_resonance", _run_multi_resonance),
    "comb-predict": ("comb", _run_comb_predict),
    "fit": ("fit", _run_fit),
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command not in _HANDLERS:
        parser.print_usage(sys.stderr)
        problem = f"unknown command: {ns.command}" if ns.command else "missing command"
        sys.stderr.write(f"lambda-cpt: {problem}; commands: {', '.join(_HANDLERS)}\n")
        return 64

    try:
        cfg = load_config(ns.config) if ns.config else default_config()
    except ConfigError as exc:
        log.error("configuration rejected: %s", exc)
        return 2 if exc.key in ("ini", "config") else 3

    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(ns.seed if ns.seed is not None else 0)
    inputs = dict(cfg.manifest_inputs())
    inputs["command"] = ns.command
    inputs["seed"] = ns.seed
    inputs["noise_applied"] = cfg.noise_std > 0

    name, handler = _HANDLERS[ns.command]
    started = time.perf_counter()
    try:
        code = handler(cfg, out, rng, manifest_hash(inputs, __version__))
    except ConfigError as exc:
        log.error("validation rejected: %s", exc)
        return 3
    except ValueError as exc:
        log.error("engine failure: %s", exc)
        return 1
    manifest = run_manifest(inputs, __version__, wall_time_s=time.perf_counter() - started)
    write_manifest(out / f"{name}.manifest.json", manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
