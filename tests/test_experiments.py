"""Protocol-level tests on small grids (the acceptance suite runs the big ones)."""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lambda_cpt.config import parse_config
from lambda_cpt.dynamics import (
    dark_bright_basis,
    period_form,
    propagate_periods,
    pure_state,
    thermal_ground_state,
)
from lambda_cpt.experiments import (
    Spectrum,
    apply_artificial_contrast,
    comb_predict,
    composition_sweep,
    cpt_spectrum,
    dark_population_estimate,
    multi_resonance_scan,
    pump_trace,
)
from lambda_cpt.lambda_system import LambdaConfig, SequenceConfig, split_rabi

OMEGA = 1.0 / (12.0 * math.sqrt(2.0))
PHI_043 = math.acos(-0.14)
GAMMA_DP_012 = 0.42611123836628295


def drive(delta_1=0.0, delta_2=0.0, phi=PHI_043, omega_2=OMEGA) -> LambdaConfig:
    return LambdaConfig(
        omega_1=OMEGA,
        omega_2=omega_2,
        delta_1=delta_1,
        delta_2=delta_2,
        theta=math.pi / 2.0,
        phi=phi,
    )


def sequence(lam: LambdaConfig, **kwargs) -> SequenceConfig:
    kwargs.setdefault("gamma_dp", GAMMA_DP_012)
    kwargs.setdefault("n_reps", 12)
    return SequenceConfig(lam, gamma=20.0, **kwargs)


def test_spectrum_dip_sits_at_two_photon_resonance():
    grid = np.linspace(-0.05, 0.05, 11)
    spec = cpt_spectrum(sequence(drive()), 0.0, grid)
    assert spec.detuning_grid[np.argmin(spec.signal)] == pytest.approx(0.0)
    assert 1.0 - spec.signal.min() > 0.5
    # Calibration pins the mean edge level to the unpumped flip probability.
    assert 0.5 * (spec.signal[0] + spec.signal[-1]) == pytest.approx(0.5, abs=1e-12)


def test_spectrum_dip_tracks_one_photon_detuning():
    grid = np.linspace(-0.05, 0.05, 11) + 0.03
    spec = cpt_spectrum(sequence(drive(delta_1=0.03)), 0.03, grid)
    assert spec.detuning_grid[np.argmin(spec.signal)] == pytest.approx(0.03)


def test_spectrum_flat_with_single_tone():
    # With the second tone off there is no two-photon structure to resonate.
    grid = np.linspace(-0.05, 0.05, 7)
    spec = cpt_spectrum(sequence(drive(omega_2=0.0, phi=0.0)), 0.0, grid)
    assert spec.signal.max() - spec.signal.min() < 1e-9


def test_spectrum_whose_edges_sit_in_dips_is_not_calibrated():
    # The multi_resonance.ini drive at t_seq = 10 on a grid of exactly
    # +-1/t_seq: both edges sit on the first comb teeth, where the raw
    # readout is 0.0017 against a grid median of 0.63, and calibrating
    # against them used to give a peak signal of 225.
    seq = parse_config(
        "[drive]\npulse_area = 3.141592653589793\ntheta = 1.5707963267948966\n"
        "phi = 2.0943951023931953\n[sequence]\nt_mw = 0.3\nn_reps = 80\nt_seq = 10\n"
    ).seq
    with pytest.raises(ValueError, match="^baseline readout .* half the median"):
        cpt_spectrum(seq, 0.0, np.linspace(-0.1, 0.1, 201))


def test_spectrum_validation():
    seq = sequence(drive())
    with pytest.raises(ValueError):
        cpt_spectrum(seq, 0.0, np.array([]))
    with pytest.raises(ValueError):
        Spectrum(detuning_grid=np.array([0.0, 0.0, 0.1]), signal=np.zeros(3))
    with pytest.raises(ValueError):
        Spectrum(detuning_grid=np.array([0.0, 0.1]), signal=np.array([1.0, np.nan]))


def mirrored(half: np.ndarray) -> np.ndarray:
    """The grid of the values of half, which is increasing from 0 or above, and their negatives."""
    return np.concatenate((-half[::-1], half[1:] if half[0] == 0.0 else half))


def traced_spectrum(caplog, seq, delta_1, grid):
    """cpt_spectrum and the DEBUG lines it and its kernel call log."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt"):
        spec = cpt_spectrum(seq, delta_1, grid)
    return spec, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("half", [np.linspace(0.0, 0.12, 8), np.linspace(0.01, 0.1, 5)])
def test_spectrum_on_a_mirrored_grid_at_one_photon_resonance_runs_half_of_it(caplog, half):
    """At delta_1 = 0 each |delta_2| runs once: ceil(G / 2) runs, and the
    signal is exactly symmetric."""
    grid = mirrored(half)
    seq = sequence(drive(), t_seq=10.0, gamma_2n=0.01, t1_e=500.0)
    spec, lines = traced_spectrum(caplog, seq, 0.0, grid)
    runs = -(-len(grid) // 2)
    assert lines[0] == f"cpt_spectrum: {len(grid)} points, {runs} runs"
    assert lines[1].startswith(f"propagate_periods: G={runs} ")
    assert np.array_equal(spec.signal, spec.signal[::-1])


def test_spectrum_point_does_not_depend_on_its_mirror_image_in_the_grid(caplog):
    """A point reads the same bits whether the grid holds its mirror image or
    a value one ulp beyond it: near-mirror values are never merged."""
    seq = sequence(drive(), t_seq=10.0)
    beyond = -np.nextafter(0.04, 1.0)
    with_mirror, lines = traced_spectrum(caplog, seq, 0.0, np.array([-0.1, -0.04, 0.0, 0.04, 0.1]))
    assert lines[0] == "cpt_spectrum: 5 points, 3 runs"
    without, lines = traced_spectrum(caplog, seq, 0.0, np.array([-0.1, beyond, 0.0, 0.04, 0.1]))
    assert lines[0] == "cpt_spectrum: 5 points, 4 runs"
    assert with_mirror.signal[3] == without.signal[3] == with_mirror.signal[1]


def test_spectrum_off_one_photon_resonance_runs_every_point(caplog):
    grid = mirrored(np.linspace(0.0, 0.12, 8))
    spec, lines = traced_spectrum(caplog, sequence(drive(delta_1=0.03)), 0.03, grid)
    assert lines[0] == f"cpt_spectrum: {len(grid)} points, {len(grid)} runs"
    assert lines[1].startswith(f"propagate_periods: G={len(grid)} ")
    assert not np.array_equal(spec.signal, spec.signal[::-1])


def test_pump_trace_estimate_tracks_true_population():
    result = pump_trace(sequence(drive(), n_reps=25))
    # Element i estimates the dark population after i periods; compare with
    # the engine's true dark populations at the same instants.
    true = result.trace.p_dark
    assert result.p_dark_est[0] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(nearest := result.p_dark_est[: len(true)] - true)) < 0.02, nearest


def test_pump_trace_perfect_step():
    # phi = 0 and balanced tones give unit branching efficiency: one period
    # polarizes completely, the second readout sees an empty excited state.
    result = pump_trace(sequence(drive(phi=0.0), gamma_dp=0.0, n_reps=6))
    assert result.p_dark_est[1] > 0.999
    assert result.trace.p_excited[1] < 1e-3


def test_dark_population_estimate():
    estimates = dark_population_estimate(np.array([0.5, 0.12, 0.06]))
    np.testing.assert_allclose(estimates, [0.5, 0.88, 0.94], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        dark_population_estimate(np.array([1e-9, 0.5]))
    with pytest.raises(ValueError):
        dark_population_estimate(np.array([]))


def test_pump_trace_rejects_two_photon_detuning():
    with pytest.raises(ValueError):
        pump_trace(sequence(drive(delta_2=0.01)))


def test_composition_sweep_recovers_ideal_fractions():
    seq = sequence(drive(phi=0.0), gamma_dp=0.0, n_reps=20)
    sweep = composition_sweep(seq, np.array([0.25, 0.5, 1.0, 2.0, 4.0]))
    np.testing.assert_allclose(sweep.ideal, sweep.ratios**2 / (1.0 + sweep.ratios**2))
    np.testing.assert_allclose(sweep.measured, sweep.ideal, rtol=0, atol=1e-9)
    # The dark fraction of each final ground manifold, which the sweep inverts by.
    for r in sweep.ratios:
        omega_1, omega_2 = split_rabi(seq.lam.omega_eff, r)
        lam = replace(seq.lam, omega_1=omega_1, omega_2=omega_2)
        dark = pure_state(np.append(dark_bright_basis(lam)[0], 0.0))
        _, ((p_dark, ground),) = propagate_periods(
            period_form(replace(seq, lam=lam)),
            thermal_ground_state(),
            range(seq.n_reps, seq.n_reps),
            [dark, np.diag([1.0, 1.0, 0.0])],
        )
        assert p_dark / ground > 0.99, r


def test_composition_ideal_holds_at_extreme_ratios():
    """r^2 / (1 + r^2) is 1 at r = 1e160 and 0 at r = 1e-200, with no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = composition_sweep(
            sequence(drive(phi=0.0), gamma_dp=0.0, n_reps=20), np.array([1e160, 1e-200])
        )
    assert sweep.ideal.tolist() == [1.0, 0.0]


def test_composition_sweep_rejects_unpumped_regime():
    # psi = pi sends every decay to the bright state; the dark population
    # never rises above one half and the extraction is undefined.
    lam = LambdaConfig(omega_1=OMEGA, omega_2=OMEGA, theta=math.pi / 2.0, phi=0.0, psi=math.pi)
    with pytest.raises(ValueError):
        composition_sweep(sequence(lam, gamma_dp=0.0, n_reps=5), np.array([1.0]))


def test_artificial_contrast():
    values = np.array([0.2, 0.5, 0.8])
    np.testing.assert_allclose(apply_artificial_contrast(values, 1.0), values)
    np.testing.assert_allclose(
        apply_artificial_contrast(values, 0.78), [0.266, 0.5, 0.734], rtol=0, atol=1e-12
    )


def test_resonance_teeth_at_integer_windings():
    # At t_seq = 10 us the accumulated two-photon phase per period is an
    # integer turn at delta_2 = 0 and +-0.1 MHz: all three are dark points.
    seq = sequence(drive(), n_reps=15, t_seq=10.0)
    grid = np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
    spec = cpt_spectrum(seq, 0.0, grid)
    raw = spec.signal
    # Side teeth are attenuated by the single-pulse envelope, so only the
    # ordering is universal: every tooth sits well below the midpoints.
    assert raw[1] - raw[0] > 0.05 and raw[1] - raw[2] > 0.05
    assert raw[3] - raw[4] > 0.05 and raw[3] - raw[2] > 0.05


def test_multi_resonance_auto_grid():
    spectra = multi_resonance_scan(
        sequence(drive(), n_reps=2), [10.0, 25.0], grid=np.linspace(-0.02, 0.02, 3)
    )
    assert len(spectra) == 2
    auto = multi_resonance_scan(sequence(drive(), n_reps=1), [10.0])
    assert len(auto[0].detuning_grid) == 321
    assert auto[0].detuning_grid[0] == pytest.approx(-0.13)
    assert auto[0].detuning_grid[-1] == pytest.approx(0.13)


@pytest.mark.parametrize("t_seq", [10.0, 15.0, 37.7])
def test_multi_resonance_default_grid_is_mirrored_and_runs_161_points(caplog, t_seq):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt.experiments"):
        (spec,) = multi_resonance_scan(sequence(drive(), n_reps=2), [t_seq])
    grid = spec.detuning_grid
    assert np.array_equal(grid, -grid[::-1]) and grid[-1] == 1.3 / t_seq
    old = np.linspace(-1.3 / t_seq, 1.3 / t_seq, 321)
    np.testing.assert_allclose(grid, old, rtol=0, atol=2 * np.spacing(1.3 / t_seq))
    assert [r.getMessage() for r in caplog.records] == ["cpt_spectrum: 321 points, 161 runs"]


def test_comb_prediction_geometry():
    comb = comb_predict(t_mw=6.0, t_seq=25.0, n_s=1.8, n_max=4)
    np.testing.assert_allclose(comb.dip_centers, np.arange(-4, 5) / 25.0, rtol=0, atol=1e-15)
    assert comb.dip_width == pytest.approx(1.0 / 45.0)
    assert comb.envelope_width == pytest.approx(1.0 / 6.0)
    # Teeth inside the envelope half-width: centers within 1/(2 t_mw).
    visible = np.abs(comb.dip_centers) <= comb.envelope_width / 2.0
    assert int(visible.sum()) == 5
    with pytest.raises(ValueError):
        comb_predict(t_mw=6.0, t_seq=3.0, n_s=1.8, n_max=2)
    with pytest.raises(ValueError):
        comb_predict(t_mw=6.0, t_seq=25.0, n_s=0.0, n_max=2)
