"""Run-file parsing: defaults, derivations, and named rejections."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_cpt.config import (
    _SCHEMA,
    ConfigError,
    default_config,
    field_key,
    load_config,
    parse_config,
)
from lambda_cpt.dynamics import (
    KERNEL_BUDGET,
    kernel_bytes,
    kernel_layout,
    period_form,
    propagate_periods,
    thermal_ground_state,
)
from lambda_cpt.experiments import composition_sweep
from lambda_cpt.lambda_system import LambdaConfig, ReadoutModel, SequenceConfig
from lambda_cpt.rate_model import (
    PumpStepParams,
    SimplifiedParams,
    comb_predict,
    gamma_dp_for_alpha_dp,
)
from lambda_cpt.spin_model import FieldError, HyperfineParams, PhysicalConstants, SpinSystemParams

THETA_DEFAULT = 1.2778111825976617
GAMMA_DP_012 = 0.42611123836628295

# Keys whose value a library dataclass (or, for alpha_dp, gamma_dp_for_alpha_dp)
# holds; the range rule of each lives there, not in its schema converter.
DATACLASS_KEYS = [
    *(f"spin.{key}" for key in _SCHEMA["spin"]),
    *(f"drive.{key}" for key in _SCHEMA["drive"] if key not in ("pulse_area", "ratio")),
    *(f"sequence.{key}" for key in _SCHEMA["sequence"]),
    *(f"readout.{key}" for key in _SCHEMA["readout"]),
]


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg.spin.b_field == 850.0
    assert cfg.seq.t_mw == 6.0
    assert cfg.seq.gamma == 20.0
    assert cfg.seq.gamma_dp == 0.0
    assert cfg.seq.lam.theta == pytest.approx(THETA_DEFAULT)
    # Default drive: area pi at 6 us, balanced tones.
    assert cfg.seq.lam.omega_eff == pytest.approx(1.0 / 12.0)
    assert cfg.seq.lam.omega_1 == pytest.approx(cfg.seq.lam.omega_2)
    assert cfg.noise_std == 0.0
    assert default_config().scan_grid == (-0.06, 0.06, 201)
    # A default written both in the schema and in the dataclass field that
    # holds the key is the same value in both places.
    homes = {
        "spin": (cfg.spin.constants, cfg.spin.hyperfine, cfg.spin),
        "drive": (cfg.seq.lam,),
        "sequence": (cfg.seq,),
        "readout": (cfg.readout,),
    }
    checked = []
    for section, objects in homes.items():
        for obj in objects:
            for f in dataclasses.fields(obj):
                text = _SCHEMA[section].get(f.name, ("",))[0]
                if text and f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) == f.default, f"{section}.{f.name}"
                    checked.append(f"{section}.{f.name}")
    assert len(checked) == 20, checked


def test_drive_from_area_and_ratio():
    cfg = parse_config("[drive]\npulse_area = 3.141592653589793\nratio = 2.0\n")
    assert cfg.seq.lam.omega_eff == pytest.approx(1.0 / 12.0)
    assert cfg.seq.lam.omega_1 / cfg.seq.lam.omega_2 == pytest.approx(2.0)
    # A ratio whose square overflows still resolves: nearly all of the area
    # goes to omega_1.
    cfg = parse_config("[drive]\npulse_area = 3.14\nratio = 1e200\n")
    assert cfg.seq.lam.omega_1 == pytest.approx(3.14 / (12.0 * math.pi))
    assert cfg.seq.lam.omega_1 / cfg.seq.lam.omega_2 == pytest.approx(1e200)


def test_drive_explicit_amplitudes():
    cfg = parse_config("[drive]\nomega_1 = 0.2\nomega_2 = 0.1\npsi = 0.4\n")
    assert cfg.seq.lam.omega_1 == 0.2
    assert cfg.seq.lam.omega_2 == 0.1
    assert cfg.seq.lam.psi == 0.4


def test_drive_angle_overrides():
    cfg = parse_config("[drive]\ntheta = 1.5707963267948966\nphi = 0.25\n")
    assert cfg.seq.lam.theta == pytest.approx(math.pi / 2.0)
    assert cfg.seq.lam.phi == 0.25


def test_alpha_dp_bridge():
    cfg = parse_config("[sequence]\nalpha_dp = 0.12\n")
    assert cfg.seq.gamma_dp == pytest.approx(GAMMA_DP_012, abs=1e-15)


def test_rejections_name_the_key():
    cases = [
        ("[spin]\nb_field = -1\n", "spin.b_field"),
        ("[spin]\nmystery = 2\n", "spin.mystery"),
        ("[conspiracy]\nx = 1\n", "conspiracy"),
        ("[sequence]\nt_seq = 3\n", "sequence.t_seq"),
        ("[sequence]\ngamma_dp = 0.1\nalpha_dp = 0.1\n", "sequence.alpha_dp"),
        # -ln(1 - alpha_dp) / t_laser overflows: the key to change is t_laser.
        ("[sequence]\nt_laser = 1e-320\nalpha_dp = 0.5\n", "sequence.t_laser"),
        ("[drive]\nomega_1 = 0.2\n", "drive.omega_1"),
        ("[drive]\nomega_1 = 0.2\nomega_2 = 0.1\npulse_area = 3\n", "drive.pulse_area"),
        ("[drive]\nratio = -2\n", "drive.ratio"),
        ("[drive]\nomega_1 = 0.2\nomega_2 = 0.1\nratio = abc\n", "drive.ratio"),
        ("[sequence]\nn_reps = 0\n", "sequence.n_reps"),
        ("[fit]\nk = 2\ninit_centers = 0.0\n", "fit.init_centers"),
        ("[spin]\nd = not_a_number\n", "spin.d"),
        ("[scan]\npoints = 1\n", "scan.points"),
        # 2 n_max + 1 teeth: at most 10^6 either side.
        ("[scan]\nn_max = 1000001\n", "scan.n_max"),
        ("[scan]\ndelta_start = 0.1\ndelta_stop = 0.0\n", "scan.delta_stop"),
        # Both periods would write multi_resonance_T10.csv, whatever the command.
        ("[scan]\nt_seq_list = 10, 10.0000001\n", "scan.t_seq_list"),
        ("[composition]\nratios = 1, -2\n", "composition.ratios"),
        ("[fit]\nkind = wavelet\n", "fit.kind"),
        ("[noise]\nstd = -0.1\n", "noise.std"),
        ("[drive]\ndelta_1 = nan\n", "drive.delta_1"),
        ("[sequence]\nt1_e = nan\n", "sequence.t1_e"),
        ("[noise]\nstd = nan\n", "noise.std"),
        ("[noise]\nstd = inf\n", "noise.std"),
        ("[spin]\nd = -1\n", "spin.d"),
        ("[spin]\ngamma_e = 0\n", "spin.gamma_e"),
        ("[spin]\ngamma_n = -1e-3\n", "spin.gamma_n"),
        ("[spin]\na_zz = 0\n", "spin.a_zz"),
        ("[spin]\na_ani = -0.1\n", "spin.a_ani"),
        ("[spin]\nphi = 7\n", "spin.phi"),
        ("[drive]\nomega_1 = -1\nomega_2 = 0.1\n", "drive.omega_1"),
        ("[drive]\nomega_1 = 0.1\nomega_2 = -1\n", "drive.omega_2"),
        ("[drive]\nomega_2 = -1\n", "drive.omega_2"),
        ("[drive]\npulse_area = -1\n", "drive.pulse_area"),
        ("[drive]\nomega_1 = 0.1\nomega_2 = 0.1\n[sequence]\nt_mw = -1\n", "sequence.t_mw"),
        ("[sequence]\nt_wait_pre = -1\n", "sequence.t_wait_pre"),
        ("[sequence]\nt_laser = -1\n", "sequence.t_laser"),
        ("[sequence]\nt_wait_post = -1\n", "sequence.t_wait_post"),
        ("[sequence]\ngamma = 0\n", "sequence.gamma"),
        ("[sequence]\ngamma_dp = -1\n", "sequence.gamma_dp"),
        ("[sequence]\ngamma_2n = -1\n", "sequence.gamma_2n"),
        ("[sequence]\nt1_e = -1\n", "sequence.t1_e"),
        ("[readout]\ncontrast = 2\n", "readout.contrast"),
        ("[readout]\nreference_0 = 0\n", "readout.reference_0"),
    ]
    # Non-finite values fail in the converter, before a rule that joins keys
    # can claim them: [drive] omega_2 = nan alone is omega_2's, not omega_1's.
    cases += [
        ("[{}]\n{} = {}\n".format(*path.split("."), raw), path)
        for path in DATACLASS_KEYS
        for raw in ("nan", "inf", "-inf")
        if (path, raw) != ("sequence.t1_e", "inf")
    ]
    for text, expected_key in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == expected_key, text
        assert expected_key in str(err.value)
    assert parse_config("[scan]\nn_max = 1000000\n").comb_n_max == 10**6


# A value that breaks a rule joining two keys is reported at that rule's key:
# one tone alone, a pulse area that resolves to no usable tones at t_mw, a
# frame phase of 2^33 rad or more (a detuning at the default t_seq; the
# scan ends hold a duration to it only where cpt-spectrum sweeps them), a
# scan grid whose ends cross, or a Zeeman term gamma B whose ESR lines
# overflow.
PARTNERS = {
    "drive.delta_1": ("sequence.t_seq",),
    "drive.delta_2": ("sequence.t_seq",),
    "drive.omega_2": ("drive.omega_1",),
    "drive.pulse_area": ("drive.omega_1",),
    "sequence.t_mw": ("drive.omega_1",),
    "scan.delta_start": ("scan.delta_stop",),
    "spin.gamma_e": ("spin.b_field",),
    "spin.gamma_n": ("spin.b_field",),
}
NUMERIC_KEYS = sorted(
    f"{section}.{key}"
    for section, keys in _SCHEMA.items()
    for key in keys
    if f"{section}.{key}" not in ("fit.input", "fit.kind")
)


# Finite floats of every magnitude, subnormal to the largest, either sign.
ANY_SCALE = st.builds(
    lambda mantissa, exponent: mantissa * 2.0**exponent,
    st.floats(-2.0, 2.0, exclude_max=True),
    st.integers(-1074, 1023),
)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(NUMERIC_KEYS),
    st.one_of(st.integers(-(10**6), 10**6), st.floats(allow_nan=False), ANY_SCALE),
)
def test_any_single_value_is_accepted_or_named(path, value):
    section, key = path.split(".")
    try:
        parse_config(f"[{section}]\n{key} = {value!r}\n")
    except ConfigError as exc:
        assert exc.key in (path, *PARTNERS.get(path, ())), (value, str(exc))


def test_schema_leaves_dataclass_bounds_to_the_dataclass():
    # A range rule in one of these converters would be a second copy of the
    # dataclass's own.
    for path in DATACLASS_KEYS:
        section, key = path.split(".")
        convert = _SCHEMA[section][key][1]
        texts = ("-1", "0") if path == "sequence.n_reps" else ("-1e300", "0", "1e300")
        for raw in texts:
            convert(raw, path)


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# (just-outside values, strategy of finite values outside) for each kind of bound.
TINY = 5e-324
ABOVE_ONE = math.nextafter(1.0, 2.0)
POSITIVE = ((0.0,), _floats(max_value=0.0))
NONNEGATIVE = ((-TINY,), _floats(max_value=-TINY))
FRACTION = ((-TINY, ABOVE_ONE), _floats(max_value=-TINY) | _floats(min_value=ABOVE_ONE))
FINITE = ((), st.just(math.nan))  # no finite value lies outside
INTEGER = ((-1, 2.5), st.integers(max_value=-1) | _floats())

LAM = LambdaConfig(omega_1=0.05, omega_2=0.05)
T_SEQ_TOO_SHORT = math.nextafter(SequenceConfig(LAM).packed_duration - 1e-9, 0.0)


def _fields(make, rules, **base):
    """One (label, call, edges, outside) case per field: make(**base) with it set."""
    return [
        (f"{make.__name__}.{name}", lambda v, name=name: make(**{**base, name: v}), *rule)
        for name, rule in rules.items()
    ]


FIELD_CASES = [
    *_fields(PhysicalConstants, dict.fromkeys(("d", "gamma_e", "gamma_n"), POSITIVE)),
    *_fields(
        HyperfineParams,
        {
            "a_zz": POSITIVE,
            "a_ani": NONNEGATIVE,
            "phi": (
                (-TINY, 2 * math.pi),
                _floats(max_value=-TINY) | _floats(min_value=2 * math.pi),
            ),
        },
    ),
    *_fields(SpinSystemParams, {"b_field": NONNEGATIVE}),
    *_fields(
        LambdaConfig,
        {
            "omega_1": NONNEGATIVE,
            "omega_2": NONNEGATIVE,
            **dict.fromkeys(("delta_1", "delta_2", "psi", "theta", "phi"), FINITE),
        },
        omega_1=0.05,
        omega_2=0.05,
    ),
    *_fields(
        SequenceConfig,
        {
            "gamma": POSITIVE,
            **dict.fromkeys(
                ("gamma_dp", "t_mw", "t_wait_pre", "t_laser", "t_wait_post", "gamma_2n"),
                NONNEGATIVE,
            ),
            "t_seq": ((T_SEQ_TOO_SHORT,), _floats(max_value=T_SEQ_TOO_SHORT)),
            "n_reps": ((0, *INTEGER[0]), INTEGER[1]),
            "t1_e": POSITIVE,
        },
        lam=LAM,
    ),
    *_fields(ReadoutModel, {"contrast": FRACTION, "reference_0": POSITIVE}),
    *_fields(
        PumpStepParams,
        {
            "alpha_p": FRACTION,
            "pulse_area": FINITE,
            "gamma": ((0.5,), _floats(max_value=0.5)),  # must exceed gamma_dp
            "gamma_dp": NONNEGATIVE,
            "delta_t": NONNEGATIVE,
        },
        alpha_p=0.5,
        pulse_area=math.pi,
        gamma=20.0,
        gamma_dp=0.5,
        delta_t=0.3,
    ),
    *_fields(
        SimplifiedParams,
        dict.fromkeys(("alpha_p_eff", "alpha_dp"), FRACTION),
        alpha_p_eff=0.4,
        alpha_dp=0.1,
    ),
    *_fields(
        gamma_dp_for_alpha_dp,
        {
            "alpha_dp": ((-TINY, 1.0), _floats(max_value=-TINY) | _floats(min_value=1.0)),
            "t_laser": POSITIVE,
        },
        alpha_dp=0.1,
        t_laser=0.3,
    ),
    *_fields(
        comb_predict,
        {
            "t_mw": POSITIVE,
            "t_seq": ((math.nextafter(6.0, 0.0),), _floats(max_value=math.nextafter(6.0, 0.0))),
            "n_s": POSITIVE,
            "n_max": INTEGER,
        },
        t_mw=6.0,
        t_seq=10.0,
        n_s=1.8,
        n_max=4,
    ),
    (
        "composition_sweep.ratios",
        lambda v: composition_sweep(SequenceConfig(LAM, n_reps=2), [1.0, v]),
        *POSITIVE,
    ),
]


def test_field_cases_cover_every_numeric_dataclass_field():
    labels = {case[0] for case in FIELD_CASES}
    for cls in (
        PhysicalConstants,
        HyperfineParams,
        SpinSystemParams,
        LambdaConfig,
        SequenceConfig,
        ReadoutModel,
        PumpStepParams,
        SimplifiedParams,
    ):
        for f in dataclasses.fields(cls):
            if f.name not in ("constants", "hyperfine", "lam"):
                assert f"{cls.__name__}.{f.name}" in labels


@pytest.mark.parametrize(
    "label, call, edges, outside", FIELD_CASES, ids=[case[0] for case in FIELD_CASES]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_each_field_rejects_values_outside_its_bound(label, call, edges, outside, data):
    field = label.split(".")[1]
    nonfinite = (math.nan, math.inf, -math.inf)
    if field == "t1_e":
        call(math.inf)  # inf switches electron relaxation off
        nonfinite = (math.nan, -math.inf)
    for value in (*nonfinite, *edges, data.draw(outside)):
        with pytest.raises(FieldError) as err:
            call(value)
        assert err.value.field == field, value


def test_malformed_ini_is_a_parse_error():
    with pytest.raises(ConfigError) as err:
        parse_config("this is not ini at all {{{\n")
    assert err.value.key == "ini"


def test_scan_and_composition_lists():
    cfg = parse_config(
        "[scan]\nt_seq_list = 10, 15, 25, 50\n[composition]\nratios = 0.5, 1, 2\n"
    )
    assert cfg.t_seq_list == (10.0, 15.0, 25.0, 50.0)
    assert cfg.ratios == (0.5, 1.0, 2.0)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "absent.ini")
    assert err.value.key == "config"


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xff\xfe[sequence]\nn_reps = 7\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "config"


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[sequence]\nn_reps = 7\n")
    assert load_config(path).seq.n_reps == 7


def test_manifest_inputs_structure():
    inputs = default_config().inputs
    assert set(inputs) == {
        "spin",
        "drive",
        "sequence",
        "readout",
        "scan",
        "composition",
        "fit",
        "noise",
    }
    assert inputs["sequence"]["t1_e"] == "inf"
    assert inputs["spin"]["b_field"] == 850.0


def test_kernel_budget_admits_large_runs_and_names_the_key_that_breaks_it():
    """A 201-point spectrum over 1e6 periods holds 0.41 GB and a pump trace of
    2.5e7 periods 1.0 GB, both within 1 GiB; the kernel rejects twice the
    trace at n_reps, and a spectrum of 1e5 points at points, whose readouts
    alone are 187 GiB. At n_reps = 1 it admits 66 584 659 points, far past
    the bound of scan.points: the working set of one chunk does not grow
    with the grid."""
    window = range(750_000, 10**6)  # a spectrum's steady window at 1e6 periods
    steady, trace, one = (
        kernel_layout(window.stop, 1, window.start), kernel_layout(25_000_000, 5, 0),
        kernel_layout(1, 1, 0),
    )
    assert kernel_bytes(201, 1, steady) <= KERNEL_BUDGET == 2**30
    assert kernel_bytes(1, 5, trace) <= KERNEL_BUDGET
    edge = 66_584_659
    assert kernel_bytes(edge, 1, one) <= KERNEL_BUDGET < kernel_bytes(edge + 1, 1, one)
    with pytest.raises(ConfigError, match="^scan.points: must be in"):
        parse_config("[scan]\npoints = 1000001\n")
    seq, rho0 = SequenceConfig(LAM), thermal_ground_state()
    excited = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    with pytest.raises(FieldError, match="^n_reps must be .* at most 1 GiB, not 1.87 GiB"):
        propagate_periods(period_form(seq), rho0, range(50_000_000), [excited] * 5)
    with pytest.raises(FieldError, match="^points must be .* at most 1 GiB, not 187 GiB"):
        propagate_periods(period_form(seq, [0.0] * 10**5), rho0, window, [excited])
    assert (field_key("n_reps"), field_key("points")) == ("sequence.n_reps", "scan.points")
    for field in ("phi", "omega_eff"):
        with pytest.raises(KeyError):
            field_key(field)
