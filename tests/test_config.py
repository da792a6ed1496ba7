"""Run-file parsing: defaults, derivations, and named rejections."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_cpt.config import _SCHEMA, ConfigError, default_config, load_config, parse_config

THETA_DEFAULT = 1.2778111825976617
GAMMA_DP_012 = 0.42611123836628295


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
        ("[drive]\nomega_1 = 0.2\n", "drive.omega_1"),
        ("[drive]\nomega_1 = 0.2\nomega_2 = 0.1\npulse_area = 3\n", "drive.pulse_area"),
        ("[drive]\nratio = -2\n", "drive.ratio"),
        ("[drive]\nomega_1 = 0.2\nomega_2 = 0.1\nratio = abc\n", "drive.ratio"),
        ("[sequence]\nn_reps = 0\n", "sequence.n_reps"),
        ("[fit]\nk = 2\ninit_centers = 0.0\n", "fit.init_centers"),
        ("[spin]\nd = not_a_number\n", "spin.d"),
        ("[scan]\npoints = 1\n", "scan.points"),
        ("[scan]\ndelta_start = 0.1\ndelta_stop = 0.0\n", "scan.delta_stop"),
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
    for text, expected_key in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == expected_key, text
        assert expected_key in str(err.value)


# A value that breaks a rule joining two keys is reported at that rule's key:
# one tone alone, a pulse area that resolves to no usable tones at t_mw, or
# a scan grid whose ends cross.
PARTNERS = {
    "drive.omega_2": "drive.omega_1",
    "drive.pulse_area": "drive.omega_1",
    "sequence.t_mw": "drive.omega_1",
    "scan.delta_start": "scan.delta_stop",
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
        assert exc.key in (path, PARTNERS.get(path)), (value, str(exc))


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


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[sequence]\nn_reps = 7\n")
    assert load_config(path).seq.n_reps == 7


def test_manifest_inputs_structure():
    inputs = default_config().manifest_inputs()
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
