"""Fitting-layer tests: synthetic self-fits, engine recovery, degenerate inputs."""

import math

import numpy as np
import pytest

from lambda_cpt.datasets import read_csv, write_csv
from lambda_cpt.dynamics import SequenceConfig
from lambda_cpt.experiments import Spectrum, pump_trace
from lambda_cpt.fitting import (
    fit_contrast_curve,
    fit_dips,
    fit_saturation,
    recover_simplified,
)
from lambda_cpt.lambda_system import LambdaConfig
from lambda_cpt.rate_model import (
    SimplifiedParams,
    characteristic_steps,
    gamma_dp_for_alpha_dp,
    steady_state,
)

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def gaussian_dip(x, center, fwhm, amplitude, baseline):
    sigma = fwhm / FWHM_PER_SIGMA
    return baseline - amplitude * np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma))


def test_single_dip_self_fit():
    x = np.linspace(-0.06, 0.06, 201)
    y = gaussian_dip(x, 0.004, 0.02, 0.9, 1.0)
    fit = fit_dips(Spectrum(x, y), k=1)
    assert fit.converged and not fit.no_dip
    assert fit.centers[0] == pytest.approx(0.004, abs=1e-6)
    assert fit.fwhms[0] == pytest.approx(0.02, abs=1e-6)
    assert fit.amplitudes[0] == pytest.approx(0.9, abs=1e-6)
    assert fit.baseline == pytest.approx(1.0, abs=1e-6)
    assert fit.residual_norm < 1e-6
    # On 3k + 1 points the fit has no degrees of freedom, hence no sigmas.
    exact = fit_dips(Spectrum(x[::66], y[::66]), k=1)
    assert len(exact.centers) == 1
    assert np.isinf(exact.center_sigmas).all() and np.isinf(exact.fwhm_sigmas).all()


def test_fit_invariant_under_baseline_shift():
    x = np.linspace(-1.0, 1.0, 301)
    low = fit_dips(Spectrum(x, gaussian_dip(x, -0.2, 0.3, 0.5, 1.0)), k=1)
    high = fit_dips(Spectrum(x, gaussian_dip(x, -0.2, 0.3, 0.5, 7.0)), k=1)
    assert low.centers[0] == pytest.approx(high.centers[0], abs=1e-8)
    assert low.fwhms[0] == pytest.approx(high.fwhms[0], abs=1e-8)
    assert high.baseline - low.baseline == pytest.approx(6.0, abs=1e-6)


def test_fit_with_noise_recovers_center():
    rng = np.random.default_rng(101)
    x = np.linspace(-0.06, 0.06, 201)
    y = gaussian_dip(x, -0.01, 0.015, 0.8, 1.0) + rng.normal(0.0, 0.01, len(x))
    fit = fit_dips(Spectrum(x, y), k=1)
    assert fit.converged and not fit.no_dip
    assert abs(fit.centers[0] + 0.01) < 3.0 * max(fit.center_sigmas[0], 1e-4)
    assert fit.fwhms[0] == pytest.approx(0.015, rel=0.15)


def test_three_dips_with_explicit_seeds():
    x = np.linspace(-0.15, 0.15, 401)
    y = (
        gaussian_dip(x, -0.1, 0.02, 0.4, 1.0)
        + gaussian_dip(x, 0.0, 0.02, 0.7, 1.0)
        + gaussian_dip(x, 0.1, 0.02, 0.4, 1.0)
        - 2.0
    )
    fit = fit_dips(Spectrum(x, y), k=3, init_centers=np.array([-0.1, 0.0, 0.1]))
    assert fit.converged
    np.testing.assert_allclose(fit.centers, [-0.1, 0.0, 0.1], rtol=0, atol=1e-6)
    np.testing.assert_allclose(fit.amplitudes, [0.4, 0.7, 0.4], rtol=0, atol=1e-6)


def test_three_dips_found_without_seeds():
    x = np.linspace(-0.15, 0.15, 401)
    y = (
        gaussian_dip(x, -0.1, 0.02, 0.4, 1.0)
        + gaussian_dip(x, 0.0, 0.02, 0.7, 1.0)
        + gaussian_dip(x, 0.1, 0.02, 0.4, 1.0)
        - 2.0
    )
    fit = fit_dips(Spectrum(x, y), k=3)
    np.testing.assert_allclose(fit.centers, [-0.1, 0.0, 0.1], rtol=0, atol=1e-5)


def test_flat_series_flags_no_dip():
    x = np.linspace(-0.06, 0.06, 101)
    fit = fit_dips(Spectrum(x, np.ones_like(x)), k=1)
    assert fit.no_dip


def test_fit_dips_validation():
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        fit_dips(Spectrum(x, np.ones_like(x)), k=0)
    with pytest.raises(ValueError):
        fit_dips(Spectrum(x[:3], np.ones(3)), k=1)
    with pytest.raises(ValueError):
        fit_dips(Spectrum(x, np.ones_like(x)), k=2, init_centers=np.array([0.5]))


def test_saturation_self_fit():
    n = np.arange(40)
    series = 0.88 - (0.88 - 0.5) * np.exp(-n / 1.45)
    fit = fit_saturation(series)
    assert fit.converged and fit.identifiable
    assert fit.n_s == pytest.approx(1.45, abs=1e-8)
    assert fit.p_inf == pytest.approx(0.88, abs=1e-10)
    assert fit.p0 == pytest.approx(0.5, abs=1e-10)


def test_saturation_subsampled_series():
    n = np.arange(0, 40, 2)
    series = 0.9 - 0.4 * np.exp(-n / 3.0)
    # Indexing by position halves the apparent time constant; rescale back.
    fit = fit_saturation(series)
    assert 2.0 * fit.n_s == pytest.approx(3.0, rel=0.02)


def test_saturation_recovery_from_engine():
    omega = 1.0 / (12.0 * math.sqrt(2.0))
    lam = LambdaConfig(
        omega_1=omega, omega_2=omega, theta=math.pi / 2.0, phi=math.acos(-0.14)
    )
    seq = SequenceConfig(
        lam, gamma=20.0, gamma_dp=0.42611123836628295, n_reps=25
    )
    fit = fit_saturation(pump_trace(seq).p_dark_est)
    assert fit.converged and fit.identifiable
    reference = SimplifiedParams(alpha_p_eff=0.43, alpha_dp=0.12)
    assert fit.n_s == pytest.approx(characteristic_steps(reference), rel=0.05)
    assert fit.p_inf == pytest.approx(steady_state(reference), abs=0.02)
    recovered = recover_simplified(fit)
    assert recovered.alpha_dp == pytest.approx(0.12, abs=0.02)
    assert recovered.alpha_p_eff == pytest.approx(0.43, abs=0.02)


def test_saturation_fast_pumping_from_engine():
    # Strong pumping saturates within about one step. A start guess tied to
    # the series length (n_s = 8 for 40 points) used to leave LM in the
    # n_s -> 0 valley, reported converged, with alpha_p_eff clamped to 1.
    phi, alpha_dp = 1.394, 0.123
    omega = 1.0 / (12.0 * math.sqrt(2.0))
    lam = LambdaConfig(omega_1=omega, omega_2=omega, theta=math.pi / 2.0, phi=phi)
    seq = SequenceConfig(
        lam, gamma=20.0, gamma_dp=gamma_dp_for_alpha_dp(alpha_dp, 0.3), n_reps=40
    )
    fit = fit_saturation(pump_trace(seq).p_dark_est)
    assert fit.converged and fit.identifiable
    assert fit.n_s == pytest.approx(0.978, abs=0.005)
    recovered = recover_simplified(fit)
    assert recovered.alpha_p_eff == pytest.approx(0.5 * (1.0 + math.cos(phi)), abs=0.02)
    assert recovered.alpha_dp == pytest.approx(alpha_dp, abs=0.002)


def test_saturation_constant_series_unidentifiable():
    fit = fit_saturation(np.full(12, 0.7))
    assert not fit.identifiable


def test_saturation_one_step_regime():
    # A jump to the asymptote within one step pins n_s below one half.
    series = np.array([0.5, 0.94, 0.94, 0.94, 0.94, 0.94])
    fit = fit_saturation(series)
    assert fit.n_s < 0.5


def test_saturation_validation():
    with pytest.raises(ValueError):
        fit_saturation(np.array([0.5, 0.6, 0.7, 0.8]))


def test_contrast_curve():
    r = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    ideal = r * r / (1.0 + r * r)
    assert fit_contrast_curve(r, ideal) == pytest.approx(1.0, abs=1e-12)
    scaled = 0.5 + 0.78 * (ideal - 0.5)
    assert fit_contrast_curve(r, scaled) == pytest.approx(0.78, abs=1e-12)
    with pytest.raises(ValueError):
        fit_contrast_curve(np.ones(4), np.full(4, 0.5))
    with pytest.raises(ValueError):
        fit_contrast_curve(np.array([1.0]), np.array([0.5]))


def test_dataset_roundtrip_fit(tmp_path):
    x = np.linspace(-0.06, 0.06, 151)
    y = gaussian_dip(x, 0.01, 0.02, 0.6, 1.0)
    path = tmp_path / "spectrum.csv"
    write_csv(path, {"delta_2_mhz": x, "signal_norm": y}, "cafe01", "test spectrum")
    data = read_csv(path)
    fit = fit_dips(Spectrum(data["delta_2_mhz"], data["signal_norm"]), k=1)
    assert fit.centers[0] == pytest.approx(0.01, abs=1e-8)
