"""INI run configuration for the command-line tools.

A run file holds up to eight sections (spin, drive, sequence, readout,
scan, composition, fit, noise); every key has a default, so an empty file
is a valid configuration. Unknown sections or keys are rejected by name
rather than ignored, and all validation failures raise ConfigError with a
``section.key`` path so a run file can be corrected without reading code.

Drive amplitudes can be given directly (omega_1, omega_2 in MHz) or as a
pulse area in radians plus an amplitude ratio, from which the two tones
are resolved at the configured microwave duration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .lambda_system import LambdaConfig, branching_rates
from .spin_model import HyperfineParams, PhysicalConstants, SpinSystemParams, mixing_angles
from .dynamics import ReadoutModel, SequenceConfig
from .rate_model import gamma_dp_for_alpha_dp

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_config",
    "default_config",
    "check_periods",
]


class ConfigError(ValueError):
    """Configuration rejection carrying the offending ``section.key`` path."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def check_periods(seq: SequenceConfig, t_seq_list) -> None:
    """Reject a period shorter than seq's packed duration as ``scan.t_seq_list``.

    Each entry goes through the sequence's own period check, so the two
    rules cannot drift apart.
    """
    for t_seq in t_seq_list:
        try:
            replace(seq, t_seq=t_seq)
        except ValueError as exc:
            raise ConfigError("scan.t_seq_list", str(exc)) from exc


def _float_list(raw: str, key: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError(key, "expected a comma-separated list of numbers")
    return tuple(_float(piece, key) for piece in items)


_SCHEMA: dict[str, dict[str, str]] = {
    "spin": {
        "d": "2870.0",
        "gamma_e": "2.8",
        "gamma_n": "1.07e-3",
        "a_zz": "1.0",
        "a_ani": "0.3",
        "phi": "0.0",
        "b_field": "850.0",
    },
    "drive": {
        "omega_1": "",
        "omega_2": "",
        "pulse_area": "",
        "ratio": "1.0",
        "delta_1": "0.0",
        "delta_2": "0.0",
        "psi": "0.0",
        "theta": "",
        "phi": "",
    },
    "sequence": {
        "t_mw": "6.0",
        "t_wait_pre": "0.1",
        "t_laser": "0.3",
        "t_wait_post": "1.0",
        "t_seq": "",
        "n_reps": "40",
        "gamma": "20.0",
        "gamma_dp": "",
        "alpha_dp": "",
        "gamma_2n": "0.0",
        "t1_e": "inf",
    },
    "readout": {"contrast": "0.3", "reference_0": "1.0"},
    "scan": {
        "delta_start": "-0.06",
        "delta_stop": "0.06",
        "points": "201",
        "delta_1": "0.0",
        "t_seq_list": "10, 15, 25, 50",
        "n_s": "1.8",
        "n_max": "4",
    },
    "composition": {"ratios": "0.25, 0.5, 1, 2, 4", "n_steps": "20", "contrast_a": ""},
    "fit": {"input": "", "kind": "dips", "k": "1", "init_centers": ""},
    "noise": {"std": "0.0"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run inputs for one CLI invocation."""

    spin: SpinSystemParams
    lam: LambdaConfig
    seq: SequenceConfig
    readout: ReadoutModel
    scan_grid: tuple[float, float, int]
    scan_delta_1: float
    t_seq_list: tuple[float, ...]
    comb_n_s: float
    comb_n_max: int
    ratios: tuple[float, ...]
    composition_steps: int
    contrast_a: float | None
    fit_input: str
    fit_kind: str
    fit_k: int
    fit_init_centers: tuple[float, ...] | None
    noise_std: float
    explicit: dict = field(default_factory=dict)

    def manifest_inputs(self) -> dict:
        lam = self.lam
        seq = self.seq
        return {
            "spin": {
                "d": self.spin.constants.d,
                "gamma_e": self.spin.constants.gamma_e,
                "gamma_n": self.spin.constants.gamma_n,
                "a_zz": self.spin.hyperfine.a_zz,
                "a_ani": self.spin.hyperfine.a_ani,
                "phi": self.spin.hyperfine.phi,
                "b_field": self.spin.b_field,
            },
            "drive": {
                "omega_1": lam.omega_1,
                "omega_2": lam.omega_2,
                "delta_1": lam.delta_1,
                "delta_2": lam.delta_2,
                "psi": lam.psi,
                "theta": lam.theta,
                "phi": lam.phi,
            },
            "sequence": {
                "t_mw": seq.t_mw,
                "t_wait_pre": seq.t_wait_pre,
                "t_laser": seq.t_laser,
                "t_wait_post": seq.t_wait_post,
                "t_seq": seq.t_seq,
                "n_reps": seq.n_reps,
                "gamma": seq.relax.gamma,
                "gamma_dp": seq.gamma_dp,
                "gamma_2n": seq.gamma_2n,
                "t1_e": seq.t1_e if math.isfinite(seq.t1_e) else "inf",
            },
            "readout": {
                "contrast": self.readout.contrast,
                "reference_0": self.readout.reference_0,
            },
            "scan": {
                "delta_start": self.scan_grid[0],
                "delta_stop": self.scan_grid[1],
                "points": self.scan_grid[2],
                "delta_1": self.scan_delta_1,
                "t_seq_list": list(self.t_seq_list),
                "n_s": self.comb_n_s,
                "n_max": self.comb_n_max,
            },
            "composition": {
                "ratios": list(self.ratios),
                "n_steps": self.composition_steps,
                "contrast_a": self.contrast_a,
            },
            "fit": {
                "input": self.fit_input,
                "kind": self.fit_kind,
                "k": self.fit_k,
                "init_centers": list(self.fit_init_centers or ()),
            },
            "noise": {"std": self.noise_std},
        }


def _merge(parser: configparser.ConfigParser) -> tuple[dict[str, dict[str, str]], dict]:
    merged = {section: dict(keys) for section, keys in _SCHEMA.items()}
    explicit: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            merged[section][key] = raw
            explicit.setdefault(section, {})[key] = raw
    return merged, explicit


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a resolved RunConfig.

    Raises ConfigError for unknown names, malformed values, and physical
    validation failures; the error message starts with the config path of
    the offending value.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("ini", f"malformed INI: {exc}") from exc
    merged, explicit = _merge(parser)

    sp = merged["spin"]
    b_field = _float(sp["b_field"], "spin.b_field")
    if b_field < 0:
        raise ConfigError("spin.b_field", "must be nonnegative (units G)")
    try:
        spin = SpinSystemParams(
            constants=PhysicalConstants(
                d=_float(sp["d"], "spin.d"),
                gamma_e=_float(sp["gamma_e"], "spin.gamma_e"),
                gamma_n=_float(sp["gamma_n"], "spin.gamma_n"),
            ),
            hyperfine=HyperfineParams(
                a_zz=_float(sp["a_zz"], "spin.a_zz"),
                a_ani=_float(sp["a_ani"], "spin.a_ani"),
                phi=_float(sp["phi"], "spin.phi"),
            ),
            b_field=b_field,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("spin", str(exc)) from exc

    dr = merged["drive"]
    seqsec = merged["sequence"]
    t_mw = _float(seqsec["t_mw"], "sequence.t_mw")
    theta_mix, _ = mixing_angles(spin)
    theta = _float(dr["theta"], "drive.theta") if dr["theta"] else theta_mix
    phi = _float(dr["phi"], "drive.phi") if dr["phi"] else spin.hyperfine.phi
    if dr["omega_1"] or dr["omega_2"]:
        if not (dr["omega_1"] and dr["omega_2"]):
            raise ConfigError("drive.omega_1", "give both omega_1 and omega_2 or neither")
        if dr["pulse_area"]:
            raise ConfigError(
                "drive.pulse_area", "give either explicit amplitudes or a pulse area, not both"
            )
        omega_1 = _float(dr["omega_1"], "drive.omega_1")
        omega_2 = _float(dr["omega_2"], "drive.omega_2")
    else:
        area = _float(dr["pulse_area"], "drive.pulse_area") if dr["pulse_area"] else math.pi
        ratio = _float(dr["ratio"], "drive.ratio")
        if ratio <= 0:
            raise ConfigError("drive.ratio", "must be positive")
        if t_mw <= 0:
            raise ConfigError("sequence.t_mw", "must be positive")
        omega_eff = area / (2.0 * math.pi * t_mw)
        omega_2 = omega_eff / math.sqrt(1.0 + ratio * ratio)
        omega_1 = ratio * omega_2
    try:
        lam = LambdaConfig(
            omega_1=omega_1,
            omega_2=omega_2,
            delta_1=_float(dr["delta_1"], "drive.delta_1"),
            delta_2=_float(dr["delta_2"], "drive.delta_2"),
            psi=_float(dr["psi"], "drive.psi"),
            theta=theta,
            phi=phi,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("drive", str(exc)) from exc

    gamma = _float(seqsec["gamma"], "sequence.gamma")
    t_laser = _float(seqsec["t_laser"], "sequence.t_laser")
    if seqsec["gamma_dp"] and seqsec["alpha_dp"]:
        raise ConfigError(
            "sequence.alpha_dp", "give either gamma_dp or alpha_dp, not both"
        )
    if seqsec["alpha_dp"]:
        alpha_dp = _float(seqsec["alpha_dp"], "sequence.alpha_dp")
        if not 0.0 <= alpha_dp < 1.0:
            raise ConfigError("sequence.alpha_dp", "must lie in [0, 1)")
        if t_laser <= 0:
            raise ConfigError("sequence.t_laser", "must be positive to set alpha_dp")
        gamma_dp = gamma_dp_for_alpha_dp(alpha_dp, t_laser)
    else:
        gamma_dp = _float(seqsec["gamma_dp"], "sequence.gamma_dp") if seqsec["gamma_dp"] else 0.0

    t_seq = _float(seqsec["t_seq"], "sequence.t_seq") if seqsec["t_seq"] else None
    try:
        seq = SequenceConfig(
            lam=lam,
            relax=branching_rates(gamma, lam),
            gamma_dp=gamma_dp,
            t_mw=t_mw,
            t_wait_pre=_float(seqsec["t_wait_pre"], "sequence.t_wait_pre"),
            t_laser=t_laser,
            t_wait_post=_float(seqsec["t_wait_post"], "sequence.t_wait_post"),
            t_seq=t_seq,
            n_reps=_int(seqsec["n_reps"], "sequence.n_reps"),
            gamma_2n=_float(seqsec["gamma_2n"], "sequence.gamma_2n"),
            t1_e=_float(seqsec["t1_e"], "sequence.t1_e"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        message = str(exc)
        key = "sequence.t_seq" if "t_seq" in message else "sequence"
        raise ConfigError(key, message) from exc

    rd = merged["readout"]
    try:
        readout = ReadoutModel(
            contrast=_float(rd["contrast"], "readout.contrast"),
            reference_0=_float(rd["reference_0"], "readout.reference_0"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("readout", str(exc)) from exc

    sc = merged["scan"]
    points = _int(sc["points"], "scan.points")
    if points < 2:
        raise ConfigError("scan.points", "need at least 2 points")
    delta_start = _float(sc["delta_start"], "scan.delta_start")
    delta_stop = _float(sc["delta_stop"], "scan.delta_stop")
    if not delta_stop > delta_start:
        raise ConfigError("scan.delta_stop", "must exceed delta_start")
    comb_n_max = _int(sc["n_max"], "scan.n_max")
    if comb_n_max < 0:
        raise ConfigError("scan.n_max", "must be nonnegative")
    comb_n_s = _float(sc["n_s"], "scan.n_s")
    if comb_n_s <= 0:
        raise ConfigError("scan.n_s", "must be positive")
    t_seq_list = _float_list(sc["t_seq_list"], "scan.t_seq_list")
    # Only a list the run file sets: checking the default list would reject
    # every long sequence, whatever the command. The multi-resonance command
    # checks the list it runs, default or not.
    if "t_seq_list" in explicit.get("scan", {}):
        check_periods(seq, t_seq_list)

    co = merged["composition"]
    ratios = _float_list(co["ratios"], "composition.ratios")
    if any(r <= 0 for r in ratios):
        raise ConfigError("composition.ratios", "ratios must be positive")
    n_steps = _int(co["n_steps"], "composition.n_steps")
    if n_steps < 1:
        raise ConfigError("composition.n_steps", "need at least 1 step")
    contrast_a = _float(co["contrast_a"], "composition.contrast_a") if co["contrast_a"] else None

    ft = merged["fit"]
    fit_kind = ft["kind"].strip().lower()
    if fit_kind not in ("dips", "saturation", "contrast"):
        raise ConfigError("fit.kind", "expected dips, saturation, or contrast")
    fit_k = _int(ft["k"], "fit.k")
    if fit_k < 1:
        raise ConfigError("fit.k", "must be at least 1")
    init_centers = (
        _float_list(ft["init_centers"], "fit.init_centers") if ft["init_centers"] else None
    )

    noise_std = _float(merged["noise"]["std"], "noise.std")
    if noise_std < 0:
        raise ConfigError("noise.std", "must be nonnegative")

    return RunConfig(
        spin=spin,
        lam=lam,
        seq=seq,
        readout=readout,
        scan_grid=(delta_start, delta_stop, points),
        scan_delta_1=_float(sc["delta_1"], "scan.delta_1"),
        t_seq_list=t_seq_list,
        comb_n_s=comb_n_s,
        comb_n_max=comb_n_max,
        ratios=ratios,
        composition_steps=n_steps,
        contrast_a=contrast_a,
        fit_input=ft["input"].strip(),
        fit_kind=fit_kind,
        fit_k=fit_k,
        fit_init_centers=init_centers,
        noise_std=noise_std,
        explicit=explicit,
    )


def load_config(path) -> RunConfig:
    """Parse the INI file at ``path``; missing files raise ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"no such file: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


def default_config() -> RunConfig:
    """The all-defaults configuration (what an empty file parses to)."""
    return parse_config("")
