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

A handler takes the run config and main's seeded noise function and
returns {file name: product}: (title, columns) for a CSV, a report dict for
fit_report.json. main alone writes files, all or none: products, then manifest.
A handler imports the layers it runs itself, so that a command loads only
those: esr-lines runs on the schema and the spin model, and starts without
numpy; no simulation loads the fitting module.

Exit codes: 0 success, 1 engine failure, 2 unreadable CLI/config input
or an output that cannot be written, 3 validation rejection, logged at
the ``section.key`` it rejects (a handler's FieldError at the key of its
field), 4 a written report has converged false (the fit did not
converge), 64 missing or unknown command. LAMBDA_CPT_LOG=DEBUG (or any
level name) logs to stderr, at DEBUG each file written with its size,
the handler's wall time, from lambda_cpt.experiments how many runs each
spectrum propagates, and from lambda_cpt.fitting how each nonlinear fit
ended.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    check_periods,
    check_scan,
    default_config,
    field_key,
    load_config,
)
from .datasets import read_csv, run_manifest, write_csv, write_manifest
from .spin_model import FieldError, eigensystem, esr_lines

__all__ = ["main"]

log = logging.getLogger("lambda_cpt.cli")


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("LAMBDA_CPT_LOG", "WARNING").upper(), None)
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


def _spectrum_columns(spec, noise) -> dict:
    return {"delta_2_mhz": spec.detuning_grid, "signal_norm": noise(spec.signal)}


def _run_esr_lines(cfg: RunConfig, noise) -> dict:
    lines = esr_lines(eigensystem(cfg.spin))
    columns = {
        "frequency_mhz": [line.frequency for line in lines],
        "weight": [line.weight for line in lines],
        "label": [line.label for line in lines],
    }
    return {"esr_lines.csv": ("electron resonance lines", columns)}


def _run_cpt_spectrum(cfg: RunConfig, noise) -> dict:
    import numpy as np

    from .experiments import cpt_spectrum

    spec = cpt_spectrum(cfg.seq, cfg.seq.lam.delta_1, np.linspace(*cfg.scan_grid))
    return {"spectrum.csv": ("steady trapping spectrum", _spectrum_columns(spec, noise))}


def _run_pump_steps(cfg: RunConfig, noise) -> dict:
    from .experiments import pump_trace

    result = pump_trace(cfg.seq)
    trace = result.trace
    steps = {**asdict(trace), "signal": noise(cfg.readout.signal(trace.p_excited))}
    estimate = {"step": range(len(result.p_dark_est)), "p_dark_est": result.p_dark_est}
    return {
        "pump_steps.csv": ("step-resolved pumping trace", steps),
        "pump_estimate.csv": ("calibrated dark-population estimate", estimate),
    }


def _run_composition(cfg: RunConfig, noise) -> dict:
    from .experiments import apply_artificial_contrast, composition_sweep

    sweep = composition_sweep(replace(cfg.seq, n_reps=cfg.composition_steps), cfg.ratios)
    columns = {"ratio": sweep.ratios, "measured": sweep.measured, "ideal": sweep.ideal}
    if cfg.contrast_a is not None:
        columns["measured_contrast"] = apply_artificial_contrast(sweep.measured, cfg.contrast_a)
    return {"composition.csv": ("dark-state composition sweep", columns)}


def _run_multi_resonance(cfg: RunConfig, noise) -> dict:
    import numpy as np

    from .experiments import multi_resonance_scan

    labels = check_periods(cfg.seq, cfg.t_seq_list, cfg.scan_grid[:2])
    explicit_grid = {"delta_start", "delta_stop", "points"} & set(cfg.explicit.get("scan", {}))
    grid = np.linspace(*cfg.scan_grid) if explicit_grid else None
    spectra = multi_resonance_scan(cfg.seq, list(cfg.t_seq_list), grid=grid)
    return {
        f"multi_resonance_T{label}.csv": (
            f"trapping spectrum at period {label} us",
            _spectrum_columns(spec, noise),
        )
        for label, spec in zip(labels, spectra)
    }


def _run_comb_predict(cfg: RunConfig, noise) -> dict:
    from .experiments import comb_predict

    comb = comb_predict(cfg.seq.t_mw, cfg.seq.t_seq, cfg.comb_n_s, cfg.comb_n_max)
    n_values = range(-cfg.comb_n_max, cfg.comb_n_max + 1)
    columns = {
        "n": n_values,
        "center_mhz": comb.dip_centers,
        "width_mhz": [comb.dip_width] * len(n_values),
        "envelope_mhz": [comb.envelope_width] * len(n_values),
    }
    return {"comb.csv": ("pulse-train comb geometry", columns)}


def _require_columns(data: dict, *names: str) -> None:
    for column in names:
        if column not in data:
            raise ConfigError("fit.input", f"dataset lacks the {column} column")


def _sigma(value) -> float | None:
    """A report's 1-sigma value: None (JSON null) when the fit left it undetermined."""
    return float(value) if math.isfinite(value) else None


def _dips_report(cfg: RunConfig, data: dict) -> dict:
    from .experiments import Spectrum
    from .fitting import fit_dips

    _require_columns(data, "delta_2_mhz", "signal_norm")
    fit = fit_dips(
        Spectrum(data["delta_2_mhz"], data["signal_norm"]),
        cfg.fit_k,
        init_centers=cfg.fit_init_centers,
    )
    return {
        "converged": fit.converged,
        "no_dip": fit.no_dip,
        "baseline": fit.baseline,
        "residual_norm": fit.residual_norm,
        "dips": [
            {
                "center_mhz": float(fit.centers[i]),
                "fwhm_mhz": float(fit.fwhms[i]),
                "amplitude": float(fit.amplitudes[i]),
                "center_sigma": _sigma(fit.center_sigmas[i]),
                "fwhm_sigma": _sigma(fit.fwhm_sigmas[i]),
            }
            for i in range(len(fit.centers))
        ],
    }


def _saturation_report(cfg: RunConfig, data: dict) -> dict:
    from .fitting import fit_saturation, recover_simplified

    series = data.get("p_dark_est", data.get("p_dark"))
    if series is None:
        raise ConfigError("fit.input", "dataset lacks a p_dark_est or p_dark column")
    fit = fit_saturation(series)
    report = asdict(fit)
    # status and nfev stay out of the report, whose keys are fixed.
    del report["status"], report["nfev"]
    report.update(
        converged=fit.converged,
        n_s_sigma=_sigma(fit.n_s_sigma),
        p_inf_sigma=_sigma(fit.p_inf_sigma),
    )
    # The simplified model's probabilities are null where the fit cannot be
    # inverted.
    report.update(alpha_p_eff=None, alpha_dp=None)
    if fit.identifiable and fit.n_s > 0:
        report.update(asdict(recover_simplified(fit)))
    return report


def _contrast_report(cfg: RunConfig, data: dict) -> dict:
    from .fitting import fit_contrast_curve

    _require_columns(data, "ratio", "measured")
    column = "measured_contrast" if "measured_contrast" in data else "measured"
    a = fit_contrast_curve(data["ratio"], data[column])
    return {"converged": True, "a": a, "column": column}


def _require_finite(report: dict) -> None:
    """Raise ValueError at the first report number that is not finite.

    Undetermined sigmas are None already; any other number that overflowed
    could not be written as strict JSON.
    """
    dips = [item for dip in report.get("dips", ()) for item in dip.items()]
    for key, value in [*report.items(), *dips]:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"the fit gives {key} = {value}, which no report can hold")


# fit.kind -> builder of the fit_report.json body (all but its "kind").
_FIT_REPORTS = dict(dips=_dips_report, saturation=_saturation_report, contrast=_contrast_report)


def _run_fit(cfg: RunConfig, noise) -> dict:
    if not cfg.fit_input:
        raise ConfigError("fit.input", "no dataset path configured")
    path = Path(cfg.fit_input)
    if not path.is_file():
        raise ConfigError("fit.input", f"no such file: {path}")
    try:
        report = _FIT_REPORTS[cfg.fit_kind](cfg, read_csv(path))
        _require_finite(report)
    except ConfigError:
        raise
    except ValueError as exc:
        # A dataset the fit rejects (too short, non-finite, non-numeric, or
        # so large that the report overflows) is a rejected fit.input, not
        # an engine failure.
        raise ConfigError("fit.input", str(exc)) from exc
    return {"fit_report.json": {"kind": cfg.fit_kind, **report}}


# command -> (manifest name, handler); main writes <manifest name>.manifest.json last.
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
        # The one command that runs cfg.seq across the scan; multi-resonance
        # checks each of its own periods there (check_periods).
        if ns.command == "cpt-spectrum":
            check_scan(cfg.seq, cfg.scan_grid[:2])
    except ConfigError as exc:
        log.error("configuration rejected: %s", exc)
        return 2 if exc.key in ("ini", "config") else 3

    out = Path(ns.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        log.error("--out %s is not a usable directory: %s", out, exc)
        return 2
    rng = None

    def noise(values):
        """values plus N(0, noise.std) draws, from one stream seeded at the first call.

        Raises ConfigError at noise.std when a noisy value leaves the float range.
        """
        nonlocal rng
        if cfg.noise_std <= 0:
            return values
        import numpy as np

        if rng is None:
            rng = np.random.default_rng(ns.seed if ns.seed is not None else 0)
        noisy = values + rng.normal(0.0, cfg.noise_std, size=len(values))
        if not np.all(np.isfinite(noisy)):
            raise ConfigError("noise.std", "must be small enough that every noisy value is finite")
        return noisy

    name, handler = _HANDLERS[ns.command]
    started = time.perf_counter()
    try:
        products = handler(cfg, noise)
    except FieldError as exc:
        # composition runs its n_steps periods as the sequence's n_reps.
        steps = (ns.command, exc.field) == ("composition", "n_reps")
        key = "composition.n_steps" if steps else field_key(exc.field)
        log.error("validation rejected: %s: %s", key, exc)
        return 3
    except ConfigError as exc:
        log.error("validation rejected: %s", exc)
        return 3
    except ValueError as exc:
        log.error("engine failure: %s", exc)
        return 1
    log.debug("%s computed in %.3f s", ns.command, time.perf_counter() - started)

    # Only a handler that wrote noise into a column drew from the stream.
    inputs = dict(cfg.inputs, command=ns.command, seed=ns.seed, noise_applied=rng is not None)
    manifest = run_manifest(inputs, __version__)
    manifest_name = f"{name}.manifest.json"
    names = [*products, manifest_name]
    held = [out / filename for filename in names if (out / filename).is_dir()]
    if held:
        log.error("cannot write %s: the name is held by a directory", held[0])
        return 2
    # Files are written under temporary names and renamed into place after
    # the last write, so a failed write leaves no part of the run behind.
    parts = {filename: out / f".{filename}.part" for filename in names}
    code = 0
    try:
        for filename, product in products.items():
            if filename.endswith(".csv"):
                title, columns = product
                write_csv(parts[filename], columns, manifest["hash"], title)
            else:
                write_manifest(parts[filename], product)
                if not product["converged"]:
                    log.error("%s: fit did not converge; report written anyway", out / filename)
                    code = 4
        filename = manifest_name
        manifest["wall_time_s"] = time.perf_counter() - started
        write_manifest(parts[filename], manifest)
        for filename, part in parts.items():
            os.replace(part, out / filename)
    except OSError as exc:
        for part in parts.values():
            part.unlink(missing_ok=True)
        log.error("cannot write %s: %s", out / filename, exc)
        return 2
    for filename in names:
        log.debug("wrote %s (%d bytes)", out / filename, (out / filename).stat().st_size)
    return code


if __name__ == "__main__":
    sys.exit(main())
