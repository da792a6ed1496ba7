"""Command-line behavior: exit codes, dataset schemas, determinism."""

import json

import numpy as np
import pytest

import lambda_cpt.cli as cli
from lambda_cpt.datasets import write_csv
from lambda_cpt.fitting import DipFit


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


def test_bad_flag_exits_two(capsys):
    assert run(["esr-lines", "--nonsense"]) == 2
    capsys.readouterr()


def test_unreadable_config_exits_two(tmp_path, capsys):
    assert run(["esr-lines", "--config", str(tmp_path / "nope.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("definitely not ini {{{\n")
    assert run(["esr-lines", "--config", str(bad)]) == 2
    capsys.readouterr()


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


def test_fit_missing_column_exits_three(tmp_path, capsys):
    write_csv(tmp_path / "odd.csv", {"x": [1.0, 2.0]}, "ef", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'odd.csv'}\nkind = dips\n")
    assert run(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    capsys.readouterr()


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
        converged=False,
        no_dip=False,
        center_sigmas=np.array([np.inf]),
        fwhm_sigmas=np.array([np.inf]),
    )
    monkeypatch.setattr(cli, "fit_dips", lambda *a, **k: stuck)
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

    monkeypatch.setattr(cli, "multi_resonance_scan", no_simulation)
    cfg = multi_resonance_config(tmp_path, "10, 10.0000001")
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "scan.t_seq_list" in caplog.text and "T10" in caplog.text
    assert not list(tmp_path.glob("multi_resonance*"))


def test_default_period_list_shorter_than_sequence_exits_three(tmp_path, monkeypatch, caplog):
    # t_mw = 9 packs the sequence to 10.4 us, past the default list's 10 us.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sequence]\nt_mw = 9.0\nn_reps = 4\n[scan]\npoints = 5\n")
    assert run(["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path / "dip")]) == 0
    assert (tmp_path / "dip" / "spectrum.csv").is_file()

    def no_simulation(*args, **kwargs):
        raise AssertionError("periods must be checked before any simulation")

    monkeypatch.setattr(cli, "multi_resonance_scan", no_simulation)
    comb = tmp_path / "comb"
    assert run(["multi-resonance", "--config", str(cfg), "--out", str(comb)]) == 3
    assert "scan.t_seq_list" in caplog.text and "10.4" in caplog.text
    assert not list(comb.glob("*.csv"))
