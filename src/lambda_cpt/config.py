"""INI run configuration for the command-line tools.

A run file holds up to eight sections (spin, drive, sequence, readout,
scan, composition, fit, noise); every key has a default, so an empty file
is a valid configuration. Unknown sections or keys are rejected by name
rather than ignored, and all validation failures raise ConfigError with a
``section.key`` path so a run file can be corrected without reading code.
Every value is type- and range-checked, whether or not the command uses
it. A ``_SCHEMA`` converter checks type and finiteness. A key whose value
lives in a parameter dataclass has its range rule there, stated once for
the INI path and the Python API alike; parse_config reports the dataclass's
FieldError at that key (SequenceConfig holds n_reps >= 1 and durations
>= 0, say). Only keys with no dataclass home keep a bound in their
converter, and parse_config checks the rules that tie keys together.

Drive amplitudes can be given directly (omega_1, omega_2 in MHz) or as a
pulse area in radians plus an amplitude ratio, from which the two tones
are resolved at the configured microwave duration.

The schema imports no numpy: its dataclasses come from
:mod:`lambda_cpt.lambda_system` and :mod:`lambda_cpt.spin_model`, and the
one conversion it borrows from :mod:`lambda_cpt.rate_model`, all of which
run on ``math`` alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, TypeVar

from .lambda_system import LambdaConfig, ReadoutModel, SequenceConfig, split_rabi
from .rate_model import gamma_dp_for_alpha_dp
from .spin_model import (
    FieldError,
    HyperfineParams,
    PhysicalConstants,
    SpinSystemParams,
    mixing_angles,
)

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


_Converter = Callable[[str, str], object]


def _number(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _float(raw: str, key: str) -> float:
    value = _number(raw, key)
    if not math.isfinite(value):
        raise ConfigError(key, f"expected a finite number, got {raw!r}")
    return value


def _int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _float_list(raw: str, key: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ConfigError(key, "expected a comma-separated list of numbers")
    return tuple(_float(piece, key) for piece in items)


def _text(raw: str, key: str) -> str:
    return raw.strip()


def _word(raw: str, key: str) -> str:
    return raw.strip().lower()


def _bounded(convert: _Converter, ok: Callable[[object], bool], rule: str) -> _Converter:
    """``convert``, then reject a value for which ``ok`` is false: "must be <rule>"."""

    def parse(raw: str, key: str):
        value = convert(raw, key)
        if not ok(value):
            raise ConfigError(key, f"must be {rule}, got {raw.strip()!r}")
        return value

    return parse


_positive = _bounded(_float, lambda v: v > 0, "positive")
_nonnegative = _bounded(_float, lambda v: v >= 0, "nonnegative")
_fit_kind = _bounded(
    _word, lambda v: v in ("dips", "saturation", "contrast"), "one of dips, saturation, contrast"
)


def _at_least(n: int) -> _Converter:
    return _bounded(_int, lambda v: v >= n, f"at least {n}")


def _optional(convert: _Converter) -> _Converter:
    """``convert``, except that an empty value means "not given" (None)."""

    def parse(raw: str, key: str):
        return convert(raw, key) if raw.strip() else None

    return parse


def check_periods(seq: SequenceConfig, t_seq_list, scan_ends) -> list[str]:
    """Each period's output file label (its "g" format), checked as ``scan.t_seq_list``.

    Two periods may not share a label, and each period goes through the
    sequence's own period check, so the two rules cannot drift apart. The
    check runs at the drive's delta_2 and at each of ``scan_ends``
    (delta_start, delta_stop), where a sweep's frame phase is largest.
    """
    labels = [format(t_seq, "g") for t_seq in t_seq_list]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError(
            "scan.t_seq_list",
            f"periods share the output file label T{', T'.join(shared)}; "
            "periods must differ in their first 6 significant digits",
        )
    drives = [seq.lam] + [replace(seq.lam, delta_2=delta_2) for delta_2 in scan_ends]
    for t_seq in t_seq_list:
        try:
            for lam in drives:
                replace(seq, lam=lam, t_seq=t_seq)
        except FieldError as exc:
            raise ConfigError("scan.t_seq_list", str(exc)) from exc
    return labels


# section -> key -> (default text, converter); the converter maps the text,
# default or given, to the typed value or raises ConfigError with the key.
# A converter checks type and finiteness. The range rule of a key that a
# parameter dataclass holds lives in that dataclass (see _build); only keys
# with no dataclass home carry their bound here.
_SCHEMA: dict[str, dict[str, tuple[str, _Converter]]] = {
    "spin": {
        "d": ("2870.0", _float),
        "gamma_e": ("2.8", _float),
        "gamma_n": ("1.07e-3", _float),
        "a_zz": ("1.0", _float),
        "a_ani": ("0.3", _float),
        "phi": ("0.0", _float),
        "b_field": ("850.0", _float),
    },
    "drive": {
        "omega_1": ("", _optional(_float)),
        "omega_2": ("", _optional(_float)),
        "pulse_area": ("", _optional(_positive)),
        "ratio": ("1.0", _positive),
        "delta_1": ("0.0", _float),
        "delta_2": ("0.0", _float),
        "psi": ("0.0", _float),
        "theta": ("", _optional(_float)),
        "phi": ("", _optional(_float)),
    },
    "sequence": {
        "t_mw": ("6.0", _float),
        "t_wait_pre": ("0.1", _float),
        "t_laser": ("0.3", _float),
        "t_wait_post": ("1.0", _float),
        "t_seq": ("", _optional(_float)),
        "n_reps": ("40", _int),
        "gamma": ("20.0", _float),
        "gamma_dp": ("", _optional(_float)),
        "alpha_dp": ("", _optional(_float)),
        "gamma_2n": ("0.0", _float),
        "t1_e": ("inf", _number),
    },
    "readout": {"contrast": ("0.3", _float), "reference_0": ("1.0", _float)},
    "scan": {
        "delta_start": ("-0.06", _float),
        "delta_stop": ("0.06", _float),
        "points": ("201", _at_least(2)),
        "t_seq_list": ("10, 15, 25, 50", _float_list),
        "n_s": ("1.8", _positive),
        # comb-predict writes 2 n_max + 1 teeth, as arrays held in memory.
        "n_max": ("4", _bounded(_int, lambda v: 0 <= v <= 10**6, "in [0, 1000000]")),
    },
    "composition": {
        "ratios": ("0.25, 0.5, 1, 2, 4", _bounded(_float_list, lambda v: min(v) > 0, "positive")),
        "n_steps": ("20", _at_least(1)),
        "contrast_a": ("", _optional(_float)),
    },
    "fit": {
        "input": ("", _text),
        "kind": ("dips", _fit_kind),
        "k": ("1", _at_least(1)),
        "init_centers": ("", _optional(_float_list)),
    },
    "noise": {"std": ("0.0", _nonnegative)},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run inputs for one CLI invocation.

    ``inputs`` holds every schema value after resolution (section -> key ->
    value), with the keys that only feed resolution (pulse_area, ratio,
    alpha_dp) dropped; parse_config derives it. A run's manifest records
    it, and the manifest hash covers it.
    """

    spin: SpinSystemParams
    seq: SequenceConfig
    readout: ReadoutModel
    scan_grid: tuple[float, float, int]
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
    explicit: dict
    inputs: dict = field(repr=False)


_T = TypeVar("_T")

# A dataclass field reported at another key of its section: the resolved
# amplitude hypot(omega_1, omega_2) is reported at omega_1.
_FIELD_KEYS = {"omega_eff": "omega_1"}


def _build(section: str, make: Callable[[], _T]) -> _T:
    """``make()``, with the FieldError it raises reported at ``section.<field>``."""
    try:
        return make()
    except FieldError as exc:
        key = _FIELD_KEYS.get(exc.field, exc.field)
        raise ConfigError(f"{section}.{key}", str(exc)) from exc


def _merge(parser: configparser.ConfigParser) -> tuple[dict[str, dict], dict]:
    """Typed value of every schema key, and the raw text the file sets."""
    explicit: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            explicit.setdefault(section, {})[key] = raw
    values = {
        section: {
            key: convert(explicit.get(section, {}).get(key, default), f"{section}.{key}")
            for key, (default, convert) in keys.items()
        }
        for section, keys in _SCHEMA.items()
    }
    return values, explicit


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
    values, explicit = _merge(parser)

    sp = values["spin"]
    spin = _build(
        "spin",
        lambda: SpinSystemParams(
            constants=PhysicalConstants(d=sp["d"], gamma_e=sp["gamma_e"], gamma_n=sp["gamma_n"]),
            hyperfine=HyperfineParams(a_zz=sp["a_zz"], a_ani=sp["a_ani"], phi=sp["phi"]),
            b_field=sp["b_field"],
        ),
    )

    dr, sq = values["drive"], values["sequence"]
    if dr["theta"] is None:
        dr["theta"] = mixing_angles(spin)[0]
    if dr["phi"] is None:
        dr["phi"] = spin.hyperfine.phi
    area, ratio = dr.pop("pulse_area"), dr.pop("ratio")
    if dr["omega_1"] is not None or dr["omega_2"] is not None:
        if dr["omega_1"] is None or dr["omega_2"] is None:
            # A tone given alone answers to its own bound before the pairing
            # rule; 1 MHz stands in for the missing one.
            alone = {key: dr[key] or 1.0 for key in ("omega_1", "omega_2")}
            _build("drive", lambda: LambdaConfig(**{**dr, **alone}))
            raise ConfigError("drive.omega_1", "give both omega_1 and omega_2 or neither")
        if area is not None:
            raise ConfigError(
                "drive.pulse_area", "give either explicit amplitudes or a pulse area, not both"
            )
    else:
        if not sq["t_mw"] > 0:
            raise ConfigError("sequence.t_mw", "must be positive to resolve a pulse area")
        omega_eff = (math.pi if area is None else area) / (2.0 * math.pi * sq["t_mw"])
        dr["omega_1"], dr["omega_2"] = split_rabi(omega_eff, ratio)
    lam = _build("drive", lambda: LambdaConfig(**dr))

    alpha_dp = sq.pop("alpha_dp")
    if alpha_dp is not None:
        if sq["gamma_dp"] is not None:
            raise ConfigError("sequence.alpha_dp", "give either gamma_dp or alpha_dp, not both")
        sq["gamma_dp"] = _build("sequence", lambda: gamma_dp_for_alpha_dp(alpha_dp, sq["t_laser"]))
    elif sq["gamma_dp"] is None:
        sq["gamma_dp"] = 0.0
    seq = _build("sequence", lambda: SequenceConfig(lam=lam, **sq))
    sq["t_seq"] = seq.t_seq
    if not math.isfinite(sq["t1_e"]):
        sq["t1_e"] = "inf"

    sc = values["scan"]
    if not sc["delta_stop"] > sc["delta_start"]:
        raise ConfigError("scan.delta_stop", "must exceed delta_start")
    # A sweep runs the sequence at every delta_2 of its grid, and the frame
    # phase is largest at an end.
    for key in ("delta_start", "delta_stop"):
        try:
            replace(seq, lam=replace(lam, delta_2=sc[key]))
        except FieldError as exc:
            raise ConfigError(f"scan.{key}", str(exc)) from exc
    # Only a list the run file sets: checking the default list would reject
    # every long sequence, whatever the command. The multi-resonance command
    # checks the list it runs, default or not.
    if "t_seq_list" in explicit.get("scan", {}):
        check_periods(seq, sc["t_seq_list"], (sc["delta_start"], sc["delta_stop"]))

    co, ft = values["composition"], values["fit"]
    init_centers = ft["init_centers"]
    if init_centers is not None and len(init_centers) < ft["k"]:
        raise ConfigError("fit.init_centers", f"need at least fit.k = {ft['k']} values")
    ft["init_centers"] = init_centers or ()

    return RunConfig(
        spin=spin,
        seq=seq,
        readout=_build("readout", lambda: ReadoutModel(**values["readout"])),
        scan_grid=(sc["delta_start"], sc["delta_stop"], sc["points"]),
        t_seq_list=sc["t_seq_list"],
        comb_n_s=sc["n_s"],
        comb_n_max=sc["n_max"],
        ratios=co["ratios"],
        composition_steps=co["n_steps"],
        contrast_a=co["contrast_a"],
        fit_input=ft["input"],
        fit_kind=ft["kind"],
        fit_k=ft["k"],
        fit_init_centers=init_centers,
        noise_std=values["noise"]["std"],
        explicit=explicit,
        inputs=values,
    )


def load_config(path) -> RunConfig:
    """Parse the INI file at ``path``.

    A missing file, or one that cannot be read as UTF-8 text, raises
    ConfigError.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"no such file: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {p} as UTF-8 text: {exc}") from None
    return parse_config(text)


def default_config() -> RunConfig:
    """The all-defaults configuration (what an empty file parses to)."""
    return parse_config("")
