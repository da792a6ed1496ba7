"""Fitting-layer tests: synthetic self-fits, engine recovery, degenerate inputs,
and the in-package Levenberg-Marquardt driver against scipy.optimize.leastsq,
kept here as the oracle."""

import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import leastsq

from lambda_cpt import fitting
from lambda_cpt.datasets import read_csv, write_csv
from lambda_cpt.experiments import Spectrum, pump_trace
from lambda_cpt.fitting import fit_dips, fit_saturation, recover_simplified
from lambda_cpt.lambda_system import LambdaConfig, SequenceConfig
from lambda_cpt.rate_model import (
    SimplifiedParams,
    characteristic_steps,
    fit_contrast_curve,
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
    assert fit.status == "ftol" and fit.nfev > 1
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
    # r^2 overflows at r = 1e200, a ratio the schema accepts, where r^2 / (1 +
    # r^2) is 1; an overflow warning would fail the test.
    huge = np.array([0.25, 0.5, 1.0, 2.0, 1e200])
    ideal = np.array([1.0 / 17.0, 0.2, 0.5, 0.8, 1.0])
    assert fit_contrast_curve(huge, 0.5 + 0.78 * (ideal - 0.5)) == pytest.approx(0.78, abs=1e-12)
    with pytest.raises(ValueError):
        fit_contrast_curve(np.ones(4), np.full(4, 0.5))
    with pytest.raises(ValueError):
        fit_contrast_curve(np.array([1.0]), np.array([0.5]))
    # Unequal lengths, 2-D input, a non-finite value, a string cell or a scalar.
    for bad_r, bad_f in [
        (r, scaled[:4]),
        (r.reshape(5, 1), scaled.reshape(5, 1)),
        (np.stack([r, r]), np.stack([scaled, scaled])),
        (r, np.append(scaled[:4], np.nan)),
        (list(r), [*scaled[:4], "0.9"]),
        (2.0, 0.5),
    ]:
        with pytest.raises(ValueError):
            fit_contrast_curve(bad_r, bad_f)


def test_contrast_curve_takes_the_lists_read_csv_returns():
    r = [0.25, 0.5, 1.0, 2.0, 4.0]
    scaled = [0.5 + 0.78 * (x * x / (1.0 + x * x) - 0.5) for x in r]
    a = fit_contrast_curve(r, scaled)
    assert type(a) is float
    assert a == fit_contrast_curve(np.array(r), np.array(scaled))
    assert a == pytest.approx(0.78, abs=1e-15)


def test_dataset_roundtrip_fit(tmp_path):
    x = np.linspace(-0.06, 0.06, 151)
    y = gaussian_dip(x, 0.01, 0.02, 0.6, 1.0)
    path = tmp_path / "spectrum.csv"
    write_csv(path, {"delta_2_mhz": x, "signal_norm": y}, "cafe01", "test spectrum")
    data = read_csv(path)
    fit = fit_dips(Spectrum(data["delta_2_mhz"], data["signal_norm"]), k=1)
    assert fit.centers[0] == pytest.approx(0.01, abs=1e-8)


def driver_inputs(fit, *args, **kwargs):
    """The (model, params0, maxfev) that fit(*args, **kwargs) hands the driver."""
    runs = []
    driver = fitting._leastsq

    def spy(model, params0, maxfev):
        runs.append((model, np.asarray(params0, dtype=float), maxfev))
        return driver(model, params0, maxfev)

    with mock.patch.object(fitting, "_leastsq", spy):
        fit(*args, **kwargs)
    [inputs] = runs
    return inputs


def fit_with_oracle(fit, *args, **kwargs):
    """The driver and scipy.optimize.leastsq on fit's model, start and budget.

    scipy gets the analytic Jacobian too: its forward differences step by
    1.5e-8 |p|, which freezes a parameter that starts at a tiny nonzero
    value (a dip center at 3e-290 stays there). The Jacobians themselves are
    checked against central differences below.

    Returns the driver's (params, cost, sigmas, status, nfev) and
    scipy's parameters and ier.
    """
    model, params0, maxfev = driver_inputs(fit, *args, **kwargs)
    popt, _, _, _, ier = leastsq(
        lambda p: model(p)[-1],
        params0,
        Dfun=lambda p: model(p)[:-1].T,
        ftol=1e-10,
        maxfev=maxfev,
        full_output=True,
    )
    return fitting._leastsq(model, params0, maxfev), popt, ier


# Both fitters stop once the relative cost reduction falls to 1e-10, which
# leaves each about sqrt(dof * 1e-10) <= 2e-4 of a 1-sigma error from the
# minimum on these grids (dof <= 400). Agreement is required within 1e-3 of
# the 1-sigma error of each parameter.
ORACLE_TOL_SIGMAS = 1e-3


def assert_agrees_with_oracle(ours, popt, ier, signless) -> None:
    """signless indexes the widths and time constants: the models read them
    through their square or absolute value, so either sign is the same fit."""
    params, _, sigmas, status, _ = ours
    if status == "ftol" and ier in (1, 2, 3, 4):
        assert np.isfinite(sigmas).all()
        params, popt = params.copy(), popt.copy()
        params[signless], popt[signless] = np.abs(params[signless]), np.abs(popt[signless])
        np.testing.assert_array_less(np.abs(params - popt), ORACLE_TOL_SIGMAS * sigmas)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    jitter=st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3),
    fwhm=st.floats(0.01, 0.03),
    amplitudes=st.lists(st.floats(0.2, 0.9), min_size=3, max_size=3),
    baseline=st.floats(0.5, 1.5),
    noise=st.floats(1e-3, 2e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_dip_fit_agrees_with_scipy(k, jitter, fwhm, amplitudes, baseline, noise, seed):
    # Centers at least 0.08 MHz apart, over 2.6 FWHM.
    centers = (np.linspace(-0.1, 0.1, k) if k > 1 else np.zeros(1)) + jitter[:k]
    x = np.linspace(-0.15, 0.15, 301)
    y = sum(gaussian_dip(x, c, fwhm, a, 0.0) for c, a in zip(centers, amplitudes)) + baseline
    y = y + np.random.default_rng(seed).normal(0.0, noise, len(x))
    oracle = fit_with_oracle(fit_dips, Spectrum(x, y), k, init_centers=centers)
    assert_agrees_with_oracle(*oracle, signless=slice(3, None, 3))


@settings(max_examples=40, deadline=None)
@given(
    n_s=st.floats(0.8, 6.0),
    p0=st.floats(0.3, 0.6),
    p_inf=st.floats(0.7, 0.95),
    length=st.integers(12, 60),
    noise=st.floats(1e-4, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_saturation_fit_agrees_with_scipy(n_s, p0, p_inf, length, noise, seed):
    n = np.arange(length)
    series = p_inf - (p_inf - p0) * np.exp(-n / n_s)
    series = series + np.random.default_rng(seed).normal(0.0, noise, length)
    assert_agrees_with_oracle(*fit_with_oracle(fit_saturation, series), signless=[2])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_jacobians_match_central_differences(sign):
    # sign flips sigma and n_s, which enter the models through their square
    # and absolute value: the derivative must carry the sign.
    x = np.linspace(-0.15, 0.15, 121)
    y = gaussian_dip(x, -0.05, 0.02, 0.5, 1.0) + gaussian_dip(x, 0.06, 0.03, 0.3, 0.0)
    dips, dips_p, _ = driver_inputs(fit_dips, Spectrum(x, y), 2)
    dips_p[3::3] *= sign
    saturation, _, _ = driver_inputs(fit_saturation, 0.9 - 0.4 * np.exp(-np.arange(30) / 2.5))
    sat_p = np.array([0.85, 0.45, sign * 1.7])
    for model, p in ((dips, dips_p), (saturation, sat_p)):
        jac = model(p)[:-1].T
        for j in range(len(p)):
            h = 1e-6 * max(1.0, abs(p[j]))
            up, down = p.copy(), p.copy()
            up[j] += h
            down[j] -= h
            numeric = (model(up)[-1] - model(down)[-1]) / (2.0 * h)
            np.testing.assert_allclose(jac[:, j], numeric, rtol=1e-5, atol=1e-7)


def test_budget_ends_the_search(monkeypatch):
    driver = fitting._leastsq
    monkeypatch.setattr(fitting, "_leastsq", lambda model, p0, maxfev: driver(model, p0, 2))
    x = np.linspace(-0.06, 0.06, 201)
    dips = fit_dips(Spectrum(x, gaussian_dip(x, 0.004, 0.02, 0.9, 1.0)), k=1)
    saturation = fit_saturation(0.88 - 0.38 * np.exp(-np.arange(40) / 1.45))
    for fit in (dips, saturation):
        assert fit.status == "budget" and fit.nfev == 2 and not fit.converged


def test_identical_seeds_end_without_linalg_error():
    # Two equal centers give two equal Jacobian column triples: J^T J is
    # singular, the damped system is not.
    x = np.linspace(-0.06, 0.06, 201)
    y = gaussian_dip(x, 0.0, 0.02, 0.6, 1.0)
    y = y + np.random.default_rng(5).normal(0.0, 0.01, len(x))
    fit = fit_dips(Spectrum(x, y), k=2, init_centers=np.array([0.0, 0.0]))
    assert fit.status in ("ftol", "budget")
    assert np.isfinite(fit.centers).all() and np.isfinite(fit.amplitudes).all()


def test_each_nonlinear_fit_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="lambda_cpt.fitting")
    x = np.linspace(-0.06, 0.06, 201)
    dips = fit_dips(Spectrum(x, gaussian_dip(x, 0.004, 0.02, 0.9, 1.0)), k=1)
    saturation = fit_saturation(0.88 - 0.38 * np.exp(-np.arange(40) / 1.45))
    flat = fit_saturation(np.full(12, 0.7))
    fit_contrast_curve(np.array([0.25, 0.5, 1.0, 2.0]), np.array([0.1, 0.2, 0.5, 0.8]))
    assert [r.getMessage() for r in caplog.records if r.name == "lambda_cpt.fitting"] == [
        f"gaussian_dips fit: ftol after {dips.nfev} evaluations, covariance found",
        f"saturation fit: ftol after {saturation.nfev} evaluations, covariance found",
        "saturation fit: ftol after 1 evaluations, covariance none",
    ]
    assert flat.nfev == 1 and flat.converged
