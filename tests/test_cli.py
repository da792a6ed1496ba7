"""Command-line behavior: exit codes, dataset schemas, determinism."""

import json
import logging
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lambda_cpt.cli as cli
from lambda_cpt import __version__, experiments, fitting
from lambda_cpt.datasets import read_csv, write_csv
from lambda_cpt.experiments import Spectrum
from lambda_cpt.fitting import DipFit, fit_dips

ROOT = Path(__file__).resolve().parent.parent


def run(args):
    return cli.main(args)


def header_line(path):
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            return line
    raise AssertionError("no header row")


def test_unknown_command_exits_64(capsys):
    assert run(["frobnicate"]) == 64
    assert "unknown command" in capsys.readouterr().err
    assert run([]) == 64


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["--version"]) == 0
    capsys.readouterr()


def test_package_version_is_read_from_the_module():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] support as beta.
        warnings.simplefilter("ignore")
        project = read_configuration(ROOT / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == __version__


def test_bad_flag_exits_two(capsys):
    assert run(["esr-lines", "--nonsense"]) == 2
    capsys.readouterr()


def test_negative_seed_exits_two_before_writing(tmp_path, capsys):
    # The noise generator takes nonnegative seeds only; argparse rejects the
    # rest before the output directory is made.
    out = tmp_path / "out"
    assert run(["comb-predict", "--seed", "-3", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    assert run(["comb-predict", "--seed", "+3", "--out", str(out)]) == 0


def test_unreadable_config_exits_two(tmp_path, capsys):
    assert run(["esr-lines", "--config", str(tmp_path / "nope.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("definitely not ini {{{\n")
    assert run(["esr-lines", "--config", str(bad)]) == 2
    # A UTF-16 byte-order mark: the file cannot be decoded as UTF-8.
    bad.write_bytes(b"\xff\xfe[sequence]\nn_reps = 5\n")
    assert run(["esr-lines", "--config", str(bad), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("under", ["", "sub"])
def test_out_that_is_not_a_directory_exits_two(tmp_path, caplog, under):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / under if under else taken
    config = str(ROOT / "configs" / "cpt_dip.ini")
    assert run(["cpt-spectrum", "--config", config, "--out", str(out)]) == 2
    assert "--out" in caplog.text
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("taken", ["comb.csv", "comb.manifest.json"])
def test_output_name_held_by_a_directory_exits_two(tmp_path, caplog, taken):
    (tmp_path / taken).mkdir()
    assert run(["comb-predict", "--out", str(tmp_path)]) == 2
    assert f"cannot write {tmp_path / taken}" in caplog.text
    # No part of the run is left behind.
    assert not (tmp_path / "comb.csv").is_file()
    assert [path.name for path in tmp_path.iterdir()] == [taken]


def test_output_name_held_by_a_dangling_link_is_replaced(tmp_path):
    # Each file is renamed into place, which replaces the link; opening the
    # name for writing would follow it and fail after comb.csv was written.
    (tmp_path / "comb.manifest.json").symlink_to(tmp_path / "missing" / "m.json")
    assert run(["comb-predict", "--out", str(tmp_path)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["comb.csv", "comb.manifest.json"]
    assert not (tmp_path / "comb.manifest.json").is_symlink()
    assert json.loads((tmp_path / "comb.manifest.json").read_text())["hash"]


def test_invalid_value_exits_three(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[spin]\nb_field = -1\n")
    assert run(["esr-lines", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    capsys.readouterr()


def test_esr_lines_schema(tmp_path):
    assert run(["esr-lines", "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "esr_lines.csv"
    assert header_line(csv_path) == "frequency_mhz,weight,label"
    manifest = json.loads((tmp_path / "esr_lines.manifest.json").read_text())
    assert manifest["hash"] in csv_path.read_text()
    assert manifest["wall_time_s"] > 0


def test_options_before_the_command(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[spin]\nb_field = 500\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["--config", str(cfg), "esr-lines", "--out", str(out_a)]) == 0
    assert run(["--seed", "3", "esr-lines", "--out", str(out_b)]) == 0
    manifest_a = json.loads((out_a / "esr_lines.manifest.json").read_text())
    manifest_b = json.loads((out_b / "esr_lines.manifest.json").read_text())
    assert manifest_a["inputs"]["spin"]["b_field"] == 500.0
    assert manifest_b["inputs"]["seed"] == 3
    assert (out_b / "esr_lines.csv").is_file()


def test_engine_field_error_exits_three(tmp_path, caplog):
    # Explicit tones leave t_mw = 0 valid in the run file; the comb geometry
    # needs a pulse, and rejects it at the key of its field.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\nomega_1 = 0.1\nomega_2 = 0.1\n[sequence]\nt_mw = 0\n")
    assert run(["comb-predict", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: sequence.t_mw: t_mw must be" in caplog.text
    assert not list(tmp_path.glob("comb*"))


@pytest.mark.parametrize(
    "text, key",
    [
        ("[scan]\nn_s = 1e-320\n", "scan.n_s"),
        ("[drive]\nomega_1 = 1\nomega_2 = 1\n[sequence]\nt_mw = 1e-320\n", "sequence.t_mw"),
    ],
    ids=["n_s", "t_mw"],
)
def test_comb_width_that_overflows_exits_three(tmp_path, caplog, text, key):
    # 1/(n_s t_seq) or 1/t_mw overflows: the comb used to write inf cells.
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run(["comb-predict", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    field = key.split(".")[1]
    assert f"validation rejected: {key}: {field} must be" in caplog.text
    assert not list(tmp_path.glob("comb*"))


# Phases past the float range: a detuning whose 2 pi multiple overflows, a
# frame phase 2 pi max(|delta_1|, |delta_r|) t_seq, at the drive's delta_2 or
# at an end of the scan grid, and a pulse phase pi omega_eff t_mw. Each run
# used to print RuntimeWarnings and exit 1. Then frame phases that are
# finite but at 2^33 rad or more, where they keep too few digits: the 1e300
# us laser's used to exit 0 with a signal jumping from point to point.
LONG_PULSE = "[drive]\nomega_1 = 1e150\nomega_2 = 0\n[sequence]\nt_mw = 1e200\n"


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("cpt-spectrum", "[drive]\ndelta_1 = 1e308\n", "drive.delta_1"),
        ("cpt-spectrum", "[drive]\ndelta_2 = -1e308\n", "drive.delta_2"),
        ("cpt-spectrum", "[drive]\ndelta_1 = 1e307\ndelta_2 = -1e307\n", "sequence.t_seq"),
        ("cpt-spectrum", "[drive]\ndelta_1 = 1e10\n[sequence]\nt_seq = 1e300\n", "sequence.t_seq"),
        (
            "pump-steps",
            "[drive]\ndelta_1 = 1e10\ndelta_2 = 1e10\n[sequence]\nt_seq = 1e300\n",
            "sequence.t_seq",
        ),
        ("cpt-spectrum", "[scan]\ndelta_stop = 1e307\n", "scan.delta_stop"),
        ("cpt-spectrum", "[scan]\ndelta_start = -1e307\n", "scan.delta_start"),
        ("cpt-spectrum", LONG_PULSE, "sequence.t_mw"),
        ("pump-steps", LONG_PULSE, "sequence.t_mw"),
        ("cpt-spectrum", "[drive]\ndelta_1 = 2e8\n", "sequence.t_seq"),
        ("cpt-spectrum", "[sequence]\ngamma = 1e300\nt_laser = 1e300\n", "scan.delta_start"),
    ],
    ids=[
        "delta_1", "delta_2", "delta_r", "spectrum-t_seq", "pump-t_seq",
        "delta_stop", "delta_start", "spectrum-t_mw", "pump-t_mw",
        "delta_1-digits", "t_laser-digits",
    ],
)
def test_phase_that_overflows_exits_three(tmp_path, caplog, command, text, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert f"configuration rejected: {key}: " in caplog.text
    assert not list(tmp_path.glob("*.csv"))


def test_scan_ends_bind_only_the_command_that_sweeps_them(tmp_path, caplog):
    # A 3e10 us period puts the frame phase at the default scan ends past
    # 2^33 rad. pump-steps runs it on two-photon resonance alone, where every
    # frame phase is 0; cpt-spectrum sweeps the ends and is rejected there.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sequence]\nt_seq = 3e10\nn_reps = 4\n")
    assert run(["pump-steps", "--config", str(cfg), "--out", str(tmp_path / "pump")]) == 0
    trace = read_csv(tmp_path / "pump" / "pump_steps.csv")
    assert len(trace["step"]) == 4 and np.isfinite(trace["p_dark"]).all()
    assert not caplog.records
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path / "dip")]) == 3
    assert "configuration rejected: scan.delta_start: " in caplog.text
    assert not (tmp_path / "dip").exists()


# A Zeeman term gamma_e B or gamma_n B past the float range: esr-lines used
# to exit 0 with -inf and inf frequencies in its CSV.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["b_field", "gamma_e", "gamma_n"])
def test_esr_line_that_overflows_exits_three(tmp_path, caplog, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[spin]\n{key} = 1e308\n")
    assert run(["esr-lines", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "configuration rejected: spin.b_field: " in caplog.text
    assert not list(tmp_path.glob("*.csv"))


def test_comb_too_many_teeth_exits_three(tmp_path, caplog):
    # 2 n_max + 1 teeth of 1e16 used to fail allocating in np.arange,
    # uncaught; parsing now rejects it, so nothing is allocated.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scan]\nn_max = 10000000000000000\n")
    assert run(["comb-predict", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "configuration rejected: scan.n_max: " in caplog.text
    assert not list(tmp_path.glob("comb*"))


# Runs too large for memory: each used to end in an uncaught
# _ArrayMemoryError, in np.linspace (a grid of 1e16 points, 71 PiB) or in the
# kernel's readout rows (1e16 periods, 22.5 GiB at 5 points). A grid of 1e16
# points is past the bound of scan.points. One of 10^6 points is held by the
# kernel's budget at n_reps = 1000: its 869 604 distinct |delta_2| return
# windows of 250 periods, 1.63 GiB for cpt-spectrum and that once per period
# for multi-resonance.
KERNEL_BUDGET_CASES = [
    ("[scan]\npoints = 10000000000000000\n", "cpt-spectrum", "scan.points", ""),
    ("[sequence]\nn_reps = 10000000000000000\n[scan]\npoints = 5\n", "cpt-spectrum",
     "sequence.n_reps", ""),
    ("[sequence]\nn_reps = 10000000000000000\n", "pump-steps", "sequence.n_reps", ""),
    ("[composition]\nn_steps = 10000000000000000\n", "composition", "composition.n_steps", ""),
    ("[sequence]\nn_reps = 10000000000000000\n", "multi-resonance", "sequence.n_reps", ""),
    ("[scan]\npoints = 10000000000000000\n", "multi-resonance", "scan.points", ""),
    ("[scan]\npoints = 1000000\n", "cpt-spectrum", "scan.points", "[sequence]\nn_reps = 1000\n"),
    ("[scan]\npoints = 1000000\n", "multi-resonance", "scan.points",
     "[sequence]\nn_reps = 1000\n"),
]


@pytest.mark.parametrize("text, command, key, extra", KERNEL_BUDGET_CASES)
def test_run_over_the_kernel_budget_exits_three_at_its_key(tmp_path, caplog, text, command, key,
                                                            extra):
    # extra: sections written after text, kept out of the head of the case id
    cfg = tmp_path / "run.ini"
    cfg.write_text(text + extra)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    if "10000000000000000" in text and key == "scan.points":
        assert f"configuration rejected: {key}: must be in [2, 1000000]" in caplog.text
    else:
        field = "n_reps" if key == "composition.n_steps" else key.split(".")[1]
        assert f"validation rejected: {key}: {field} must be small enough " in caplog.text
        assert "at most 1 GiB, not " in caplog.text
    assert not list(tmp_path.glob("*.csv"))


def test_pump_steps_off_two_photon_resonance_exits_three(tmp_path, caplog):
    # The run file allows delta_1 != delta_2; only the pumping trace needs them equal.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\ndelta_1 = 0.05\n")
    assert run(["pump-steps", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: drive.delta_1: delta_1 must be" in caplog.text
    assert not list(tmp_path.glob("pump*"))


def test_composition_off_two_photon_resonance_exits_three(tmp_path, caplog):
    # The inversion through the pumped dark fraction holds at delta_1 = delta_2
    # only: at delta_1 = 0.05 and r = 0.05 it wrote measured = -0.94.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\ndelta_1 = 0.05\n[composition]\nratios = 0.05\n")
    assert run(["composition", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: drive.delta_1: delta_1 must be equal to delta_2" in caplog.text
    assert not list(tmp_path.glob("composition*"))


def test_composition_at_the_drive_floor_exits_three_at_its_ratios(tmp_path, caplog):
    # omega_eff at its floor of 1e-150 MHz: the pair rescaled to r = 0.3
    # rounds below it, which used to be logged by the bare field omega_eff.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\nomega_1 = 1e-150\nomega_2 = 0\n[composition]\nratios = 0.3, 1, 3\n")
    assert run(["composition", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: composition.ratios: ratios must be " in caplog.text
    assert "(r = 0.3: omega_eff must be in [1e-150, 1e150] MHz" in caplog.text
    assert not list(tmp_path.glob("composition*"))


def test_noise_that_overflows_exits_three(tmp_path, caplog):
    # N(0, 1e308) draws past the float range used to write inf cells, exit 0.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[noise]\nstd = 1e308\n[sequence]\nn_reps = 2\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: noise.std: must be small enough that every noisy" in caplog.text
    assert not list(tmp_path.glob("spectrum*"))


def test_uncalibratable_spectrum_exits_one(tmp_path, caplog):
    # Tones this weak leave the baseline readout near 3e-14: no calibration.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[drive]\nomega_1 = 1e-8\nomega_2 = 1e-8\n[scan]\npoints = 5\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "engine failure: baseline readout" in caplog.text
    assert not list(tmp_path.glob("spectrum*"))


# Wait channels at the ends of what the schema accepts: dephasing at 1e300
# /us, and an electron T1 of 1e-300 us, which scrambles every wait. Each run
# ends with every written cell finite, or with exit 1 naming the rule that
# stops it; the T1 waits leave P_- at one half, so the spectrum is flat.
@pytest.mark.parametrize(
    "command, sequence, rule",
    [
        ("composition", "gamma_2n = 1e300\nt1_e = 5", "too shallow to invert"),
        ("composition", "t1_e = 1e-300", "too shallow to invert"),
        ("cpt-spectrum", "t1_e = 1e-300", None),
    ],
    ids=["composition-dephasing", "composition-t1", "spectrum-t1"],
)
def test_extreme_wait_channels_end_cleanly(tmp_path, caplog, command, sequence, rule):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sequence]\n{sequence}\n")
    out = tmp_path / "out"
    code = run([command, "--config", str(cfg), "--out", str(out)])
    if rule is not None:
        assert code == 1
        assert "engine failure: " in caplog.text and rule in caplog.text
        assert not list(out.glob("*.csv"))
        return
    assert code == 0
    written = list(out.glob("*.csv"))
    assert written
    for path in written:
        for column in read_csv(path).values():
            assert np.all(np.isfinite(column)), path.name
    signal = read_csv(out / "spectrum.csv")["signal_norm"]
    np.testing.assert_allclose(signal, 0.5, rtol=0, atol=1e-12)


# Laser rates at 1e300 /us, the top of what the schema accepts, on a
# 5-point grid over 4 periods: the written signals, as they were when the
# laser's feed still printed overflow warnings on its way to them.
EXTREME_LASER_SIGNALS = {
    "gamma": [
        0.50000000000000022,
        0.36668202702265063,
        0.10826338356795309,
        0.36668202702265085,
        0.49999999999999983,
    ],
    "gamma_dp": [
        0.50000000000000022,
        0.55761865270054445,
        0.57645436128152661,
        0.55761865270054489,
        0.49999999999999983,
    ],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", sorted(EXTREME_LASER_SIGNALS))
def test_extreme_laser_rates_end_without_warnings(tmp_path, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sequence]\n{key} = 1e300\nn_reps = 4\n[scan]\npoints = 5\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "spectrum.csv")
    assert np.array_equal(data["delta_2_mhz"], np.linspace(-0.06, 0.06, 5))
    np.testing.assert_allclose(
        data["signal_norm"], EXTREME_LASER_SIGNALS[key], rtol=0, atol=1e-12
    )


@pytest.mark.filterwarnings("error")
def test_laser_that_outlasts_its_decay_runs_exactly(tmp_path, caplog):
    # gamma t_laser = 1e600 overflows, yet on two-photon resonance all the
    # laser does is empty |-> into the ground block, as at the default
    # t_laser: the two traces agree cell for cell, and nothing is logged.
    # pump-steps sweeps no scan, so the 1e300 us period is not held to the
    # frame-phase rule at the scan ends.
    traces = []
    for name, laser in (("long", "t_laser = 1e300\n"), ("default", "")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[sequence]\ngamma = 1e300\n{laser}")
        out = tmp_path / name
        assert run(["pump-steps", "--config", str(cfg), "--out", str(out)]) == 0
        traces.append(read_csv(out / "pump_steps.csv"))
    long, default = traces
    assert long.keys() == default.keys()
    for column in default:
        assert np.array_equal(long[column], default[column]), column
    assert not caplog.records


def test_kernel_invariant_failure_exits_one(tmp_path, monkeypatch, caplog):
    # A laser column 1% too strong adds trace every period; the kernel names
    # the rule it breaks and nothing is written.
    period_form = experiments.period_form

    def leaky(seq, delta_2=None):
        period = period_form(seq, delta_2)
        return replace(period, column=1.01 * period.column)

    monkeypatch.setattr(experiments, "period_form", leaky)
    assert run(["pump-steps", "--out", str(tmp_path)]) == 1
    assert "engine failure: propagation left the physical states" in caplog.text
    assert not list(tmp_path.glob("pump*"))


def test_drive_that_decays_all_bright_runs(tmp_path):
    # ratio = tan(theta/2) at psi = phi + pi gives alpha_p = 0 exactly; its
    # closed form rounds to about -6e-17 here, which the laser must not see.
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[drive]\npulse_area = 3.141592653589793\nratio = 2.7479371891634994\n"
        "theta = 2.4435685025779113\nphi = 0\npsi = 3.141592653589793\n"
        "[sequence]\nn_reps = 5\n"
    )
    for command in ("pump-steps", "cpt-spectrum"):
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0, command


def test_comb_schema(tmp_path):
    assert run(["comb-predict", "--out", str(tmp_path)]) == 0
    assert header_line(tmp_path / "comb.csv") == "n,center_mhz,width_mhz,envelope_mhz"


@pytest.fixture()
def small_run(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "\n".join(
            [
                "[drive]",
                "theta = 1.5707963267948966",
                "[sequence]",
                "n_reps = 8",
                "alpha_dp = 0.12",
                "[scan]",
                "delta_start = -0.04",
                "delta_stop = 0.04",
                "points = 9",
                "[composition]",
                "ratios = 0.5, 1, 2",
                "n_steps = 10",
            ]
        )
    )
    return cfg


def test_spectrum_schema_and_determinism(tmp_path, small_run):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["cpt-spectrum", "--config", str(small_run), "--out", str(out_a)]) == 0
    assert run(["cpt-spectrum", "--config", str(small_run), "--out", str(out_b)]) == 0
    csv_a, csv_b = out_a / "spectrum.csv", out_b / "spectrum.csv"
    assert header_line(csv_a) == "delta_2_mhz,signal_norm"
    assert csv_a.read_bytes() == csv_b.read_bytes()
    hash_a = json.loads((out_a / "spectrum.manifest.json").read_text())["hash"]
    hash_b = json.loads((out_b / "spectrum.manifest.json").read_text())["hash"]
    assert hash_a == hash_b


def test_pump_steps_schema(tmp_path, small_run):
    assert run(["pump-steps", "--config", str(small_run), "--out", str(tmp_path)]) == 0
    assert (
        header_line(tmp_path / "pump_steps.csv")
        == "step,p_dark,p_bright,p_excited,p_up,p_down,signal"
    )
    assert header_line(tmp_path / "pump_estimate.csv") == "step,p_dark_est"


def test_debug_log_names_each_file_written(tmp_path, small_run, caplog):
    caplog.set_level(logging.DEBUG, logger="lambda_cpt.cli")
    assert run(["pump-steps", "--config", str(small_run), "--out", str(tmp_path)]) == 0
    messages = [record.getMessage() for record in caplog.records]
    written = [tmp_path / name for name in ("pump_steps.csv", "pump_estimate.csv")]
    written.append(tmp_path / "pump_steps.manifest.json")
    expected = [f"wrote {path} ({path.stat().st_size} bytes)" for path in written]
    assert [m for m in messages if m.startswith("wrote ")] == expected
    assert any(m.startswith("pump-steps computed in ") for m in messages)


def test_shipped_multi_resonance_runs_one_kernel_call(tmp_path, caplog):
    """The shipped comb scan runs its four periods, 321 points each, as one
    kernel call of 644 runs: 161 distinct |delta_2| per period."""
    caplog.set_level(logging.DEBUG, logger="lambda_cpt.experiments")
    config = Path(__file__).resolve().parents[1] / "configs" / "multi_resonance.ini"
    assert run(["multi-resonance", "--config", str(config), "--out", str(tmp_path)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "lambda_cpt.experiments"]
    assert lines == ["multi_resonance_scan: t_seq = 10, 15, 25, 50 us, 1284 points, 644 runs"]


def test_pump_steps_signal_uses_the_readout_section(tmp_path, small_run):
    cfg = tmp_path / "readout.ini"
    cfg.write_text(small_run.read_text() + "\n[readout]\ncontrast = 0.2\nreference_0 = 2.5\n")
    assert run(["pump-steps", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "pump_steps.csv")
    np.testing.assert_allclose(
        data["signal"], 2.5 * (1.0 - 0.2 * data["p_excited"]), rtol=1e-15, atol=0
    )


def test_spectrum_sweeps_delta_2_at_the_drive_delta_1(tmp_path, caplog):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "\n".join(
            [
                "[drive]",
                "delta_1 = 0.05",
                "delta_2 = 0.05",
                "theta = 1.5707963267948966",
                "phi = 1.7112577415047525",
                "[sequence]",
                "t_mw = 0.3",
                "t_seq = 7.4",
                "alpha_dp = 0.12",
                "[scan]",
                "delta_start = 0.02",
                "delta_stop = 0.08",
                "points = 61",
            ]
        )
    )
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "spectrum.csv")
    spec = Spectrum(data["delta_2_mhz"], data["signal_norm"])
    fit = fit_dips(spec, 1, init_centers=np.array([0.05]))
    assert fit.converged and not fit.no_dip
    assert abs(fit.centers[0] - 0.05) < 0.05 * fit.fwhms[0]
    # The one-photon detuning has one key, in [drive].
    cfg.write_text("[scan]\ndelta_1 = 0.05\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 3
    assert "scan.delta_1" in caplog.text


def test_composition_schema(tmp_path, small_run):
    assert run(["composition", "--config", str(small_run), "--out", str(tmp_path)]) == 0
    assert header_line(tmp_path / "composition.csv") == "ratio,measured,ideal"


def test_multi_resonance_files(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "\n".join(
            [
                "[drive]",
                "theta = 1.5707963267948966",
                "[sequence]",
                "n_reps = 4",
                "[scan]",
                "delta_start = -0.02",
                "delta_stop = 0.02",
                "points = 5",
                "t_seq_list = 10, 15",
            ]
        )
    )
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for label in ("10", "15"):
        path = tmp_path / f"multi_resonance_T{label}.csv"
        assert path.exists()
        assert header_line(path) == "delta_2_mhz,signal_norm"


def test_noise_is_seeded(tmp_path, small_run):
    noisy = tmp_path / "noisy.ini"
    noisy.write_text(small_run.read_text() + "\n[noise]\nstd = 0.01\n")
    out = [tmp_path / name for name in ("n1", "n2", "n3")]
    assert run(["cpt-spectrum", "--config", str(noisy), "--out", str(out[0]), "--seed", "5"]) == 0
    assert run(["cpt-spectrum", "--config", str(noisy), "--out", str(out[1]), "--seed", "5"]) == 0
    assert run(["cpt-spectrum", "--config", str(noisy), "--out", str(out[2]), "--seed", "6"]) == 0
    bytes_ = [(o / "spectrum.csv").read_bytes() for o in out]
    assert bytes_[0] == bytes_[1]
    assert bytes_[0] != bytes_[2]


@pytest.mark.parametrize(
    "command, manifest, applied",
    [
        ("esr-lines", "esr_lines", False),
        ("comb-predict", "comb", False),
        ("composition", "composition", False),
        ("fit", "fit", False),
        ("cpt-spectrum", "spectrum", True),
    ],
)
def test_manifest_says_whether_noise_was_added(tmp_path, command, manifest, applied):
    # With std > 0, only a command that writes a noisy column draws noise.
    n = np.arange(30)
    series = 0.88 - 0.38 * np.exp(-n / 1.45)
    write_csv(tmp_path / "pump_estimate.csv", {"step": n, "p_dark_est": series}, "12", "t")
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[sequence]\nn_reps = 4\n[scan]\npoints = 5\n[noise]\nstd = 0.01\n"
        f"[fit]\ninput = {tmp_path / 'pump_estimate.csv'}\nkind = saturation\n"
    )
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    written = json.loads((out / f"{manifest}.manifest.json").read_text())
    assert written["inputs"]["noise_applied"] is applied


def test_noise_is_one_stream_across_the_files_of_a_run(tmp_path):
    # Each period's spectrum takes the next draws of one generator seeded
    # once, in the order the run file lists the periods.
    cfg = multi_resonance_config(tmp_path, "15, 10")
    noisy = tmp_path / "noisy.ini"
    noisy.write_text(cfg.read_text() + "\n[noise]\nstd = 0.01\n")
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    args = ["multi-resonance", "--config", str(noisy), "--out", str(tmp_path / "b")]
    assert run([*args, "--seed", "11"]) == 0
    names = ["multi_resonance_T15.csv", "multi_resonance_T10.csv"]
    clean = [read_csv(tmp_path / "a" / name)["signal_norm"] for name in names]
    draws = np.random.default_rng(11).normal(0.0, 0.01, size=sum(map(len, clean)))
    expected = np.concatenate(clean) + draws
    written = np.concatenate([read_csv(tmp_path / "b" / name)["signal_norm"] for name in names])
    assert np.array_equal(written, expected)


def test_fit_dips_from_dataset(tmp_path):
    x = np.linspace(-0.06, 0.06, 101)
    y = 1.0 - 0.8 * np.exp(-(x**2) / (2.0 * 0.01**2))
    write_csv(tmp_path / "spectrum.csv", {"delta_2_mhz": x, "signal_norm": y}, "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'spectrum.csv'}\nkind = dips\nk = 1\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["converged"] is True
    assert abs(report["dips"][0]["center_mhz"]) < 1e-6


def test_fit_contrast_from_dataset(tmp_path):
    r = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    ideal = r * r / (1.0 + r * r)
    scaled = 0.5 + 0.78 * (ideal - 0.5)
    write_csv(tmp_path / "comp.csv", {"ratio": r, "measured": scaled}, "cd", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'comp.csv'}\nkind = contrast\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["a"] == pytest.approx(0.78, abs=1e-12)


def test_contrast_fit_takes_a_ratio_whose_square_overflows(tmp_path):
    # composition accepted r = 1e200, and its contrast fit exited 3 with a =
    # nan after two RuntimeWarnings (an error here) from r^2 / (1 + r^2).
    text = (ROOT / "configs" / "composition.ini").read_text()
    text = text.replace("ratios = 0.25, 0.5, 1, 2, 4", "ratios = 0.25, 0.5, 1, 2, 1e200")
    text = text.replace("out/composition", str(tmp_path))
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    for command in ("composition", "fit"):
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["a"] == pytest.approx(0.78, abs=1e-9)


def test_fit_missing_column_exits_three(tmp_path, caplog):
    write_csv(tmp_path / "odd.csv", {"x": [1.0, 2.0]}, "ef", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'odd.csv'}\nkind = dips\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: fit.input: dataset lacks the delta_2_mhz column" in caplog.text


def test_fit_nonconvergence_exits_four(tmp_path, monkeypatch, capsys):
    x = np.linspace(-0.06, 0.06, 51)
    write_csv(
        tmp_path / "spectrum.csv", {"delta_2_mhz": x, "signal_norm": np.ones(51)}, "aa", "t"
    )
    stuck = DipFit(
        centers=np.array([0.0]),
        fwhms=np.array([0.01]),
        amplitudes=np.array([0.1]),
        baseline=1.0,
        residual_norm=1.0,
        status="budget",
        nfev=16,
        no_dip=False,
        center_sigmas=np.array([np.inf]),
        fwhm_sigmas=np.array([np.inf]),
    )
    monkeypatch.setattr(fitting, "fit_dips", lambda *a, **k: stuck)
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'spectrum.csv'}\nkind = dips\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    # The report is still written for post-mortem inspection.
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["converged"] is False
    capsys.readouterr()


def test_fit_saturation_report(tmp_path):
    n = np.arange(30)
    series = 0.88 - 0.38 * np.exp(-n / 1.45)
    write_csv(tmp_path / "pump_estimate.csv", {"step": n, "p_dark_est": series}, "12", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'pump_estimate.csv'}\nkind = saturation\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["n_s"] == pytest.approx(1.45, abs=1e-6)
    assert "alpha_p_eff" in report and "alpha_dp" in report


def test_saturation_report_keeps_its_keys_when_the_fit_cannot_be_inverted(tmp_path):
    # A constant series pins no time scale, so the simplified model's two
    # probabilities are undetermined: written, as null.
    n = np.arange(10)
    write_csv(tmp_path / "flat.csv", {"step": n, "p_dark_est": np.full(10, 0.5)}, "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'flat.csv'}\nkind = saturation\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["identifiable"] is False
    assert report["alpha_p_eff"] is None and report["alpha_dp"] is None


def reject_constant(token):
    raise AssertionError(f"{token} is not JSON")


def test_fit_report_is_strict_json(tmp_path):
    # A constant series pins no time scale: the fit converges at its start
    # guess, and its sigmas are undetermined, written as null.
    n = np.arange(10)
    write_csv(tmp_path / "flat.csv", {"step": n, "p_dark_est": np.full(10, 0.5)}, "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'flat.csv'}\nkind = saturation\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fit_report.json").read_text()
    report = json.loads(text, parse_constant=reject_constant)
    assert report["identifiable"] is False
    assert report["n_s_sigma"] is None and report["p_inf_sigma"] is None


def test_fit_on_too_short_a_trace_exits_three(tmp_path, caplog):
    # n_reps = 3 writes a 4-row estimate; the saturation fit needs 5 points.
    cfg = tmp_path / "run.ini"
    estimate = tmp_path / "pump_estimate.csv"
    cfg.write_text(f"[sequence]\nn_reps = 3\n[fit]\ninput = {estimate}\nkind = saturation\n")
    assert run(["pump-steps", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: fit.input: need a finite 1-d series" in caplog.text
    assert not (tmp_path / "fit_report.json").exists()


NAN = float("nan")
NAN_DATASETS = {
    "dips": {"delta_2_mhz": [-0.02, -0.01, 0.0, 0.01, 0.02], "signal_norm": [1, 0.9, NAN, 0.9, 1]},
    "saturation": {"step": [0, 1, 2, 3, 4, 5], "p_dark_est": [0.5, 0.7, NAN, 0.8, 0.8, 0.8]},
    "contrast": {"ratio": [0.25, 0.5, 1.0, 2.0, 4.0], "measured": [0.1, 0.2, NAN, 0.8, 0.9]},
}


@pytest.mark.parametrize("kind", sorted(NAN_DATASETS))
def test_fit_on_a_nan_cell_exits_three(tmp_path, caplog, kind):
    write_csv(tmp_path / "data.csv", NAN_DATASETS[kind], "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'data.csv'}\nkind = {kind}\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: fit.input: " in caplog.text
    assert not (tmp_path / "fit_report.json").exists()


# Datasets whose fits give a report number that overflows to inf: a dip
# spectrum and a saturation series scaled to 1e200, whose residual norms
# overflow, and a composition whose contrast quotient does.
DETUNINGS = np.linspace(-0.2, 0.2, 41)
STEPS = np.arange(30)
OVERFLOW_DATASETS = {
    "dips": {
        "delta_2_mhz": DETUNINGS,
        "signal_norm": 1e200 * (0.5 - 0.3 * np.exp(-0.5 * (DETUNINGS / 0.03) ** 2)),
    },
    "saturation": {"step": STEPS, "p_dark_est": 1e200 * (0.9 - 0.4 * np.exp(-STEPS / 3.0))},
    "contrast": {
        "ratio": [0.25, 0.5, 1.0, 2.0, 4.0],
        "measured": [-1e308, -1e308, 1e308, 1e308, 1e308],
    },
}


@pytest.mark.parametrize("kind", sorted(OVERFLOW_DATASETS))
def test_fit_whose_report_overflows_exits_three(tmp_path, caplog, kind):
    # The report could not be written as strict JSON: the run used to end
    # in a traceback.
    write_csv(tmp_path / "data.csv", OVERFLOW_DATASETS[kind], "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'data.csv'}\nkind = {kind}\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "validation rejected: fit.input: the fit gives" in caplog.text
    assert not (tmp_path / "fit_report.json").exists()


def test_fit_on_an_unreadable_dataset_exits_two_and_writes_nothing(tmp_path, monkeypatch, caplog):
    # An OSError from the read used to escape main as a traceback. Root reads
    # any file whatever its mode, so the read itself is made to fail.
    data = tmp_path / "spectrum.csv"
    write_csv(data, {"delta_2_mhz": [0.0, 0.1], "signal_norm": [0.5, 1.0]}, "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {data}\nkind = dips\n")
    opened = Path.open

    def denied(self, *args, **kwargs):
        if self == data:
            raise PermissionError(13, "Permission denied", str(self))
        return opened(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", denied)
    out = tmp_path / "out"
    assert run(["fit", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unreadable input: fit.input: [Errno 13] Permission denied: '{data}'" in caplog.text
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "body, row, cells", [("0", 1, 1), ("0,0.5\n1,0.7,0.9", 2, 3)], ids=["short", "long"]
)
def test_fit_on_a_ragged_row_exits_three(tmp_path, caplog, body, row, cells):
    # A row shorter than the header used to raise IndexError; a longer one
    # was cut to the header's length.
    data = tmp_path / "data.csv"
    data.write_text(f"# t\nstep,p_dark_est\n{body}\n")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {data}\nkind = saturation\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert (
        f"validation rejected: fit.input: {data}: data row {row} has {cells} cells, the header 2"
        in caplog.text
    )
    assert not (tmp_path / "fit_report.json").exists()


def multi_resonance_config(tmp_path, t_seq_list):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sequence]\nn_reps = 4\n[scan]\npoints = 5\nt_seq_list = {t_seq_list}\n")
    return cfg


def test_period_shorter_than_sequence_exits_three(tmp_path, caplog):
    cfg = multi_resonance_config(tmp_path, "10, 5")
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "scan.t_seq_list" in caplog.text
    assert not list(tmp_path.glob("multi_resonance*"))


def test_colliding_period_labels_exits_three(tmp_path, monkeypatch, caplog):
    def no_simulation(*args, **kwargs):
        raise AssertionError("labels must be checked before any simulation")

    monkeypatch.setattr(experiments, "multi_resonance_scan", no_simulation)
    cfg = multi_resonance_config(tmp_path, "10, 10.0000001")
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "scan.t_seq_list" in caplog.text and "T10" in caplog.text
    assert not list(tmp_path.glob("multi_resonance*"))


# A period whose frame phase passes 2^33 rad at a scan end, not at the
# drive's delta_2 or at the default t_seq: a list the file sets is rejected
# when it is read, the default list by multi-resonance. Both used to print
# RuntimeWarnings and exit 1 at ends of 1e305 and 1e306 MHz, where the phase
# overflowed; those ends are now rejected at the default t_seq already.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "ends, periods",
    [("1e6", "t_seq_list = 1e4\n"), ("1e8", "")],
    ids=["explicit-list", "default-list"],
)
def test_period_whose_frame_phase_overflows_at_a_scan_end_exits_three(
    tmp_path, caplog, ends, periods
):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[sequence]\nn_reps = 4\n[scan]\ndelta_start = -{ends}\ndelta_stop = {ends}\n"
        f"points = 5\n{periods}"
    )
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "rejected: scan.t_seq_list: t_seq must be short enough" in caplog.text
    assert not list(tmp_path.glob("multi_resonance*"))


def test_default_period_list_shorter_than_sequence_exits_three(tmp_path, monkeypatch, caplog):
    # t_mw = 9 packs the sequence to 10.4 us, past the default list's 10 us.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sequence]\nt_mw = 9.0\nn_reps = 4\n[scan]\npoints = 5\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path / "dip")]) == 0
    assert (tmp_path / "dip" / "spectrum.csv").is_file()

    def no_simulation(*args, **kwargs):
        raise AssertionError("periods must be checked before any simulation")

    monkeypatch.setattr(experiments, "multi_resonance_scan", no_simulation)
    comb = tmp_path / "comb"
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(comb)]) == 3
    assert "scan.t_seq_list" in caplog.text and "10.4" in caplog.text
    assert not list(comb.glob("*.csv"))
