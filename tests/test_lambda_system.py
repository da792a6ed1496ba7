"""Dark/bright algebra: orthonormality, branching, and the closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambda_cpt.dynamics import dark_bright_basis
from lambda_cpt.lambda_system import LambdaConfig, polarization_efficiency

ALPHA_P_THETA_114 = 0.9543167480579415


def random_config(rng: np.random.Generator) -> LambdaConfig:
    return LambdaConfig(
        omega_1=rng.uniform(0.01, 2.0),
        omega_2=rng.uniform(0.01, 2.0),
        psi=rng.uniform(0.0, 2.0 * math.pi),
        theta=rng.uniform(0.0, math.pi),
        phi=rng.uniform(0.0, 2.0 * math.pi),
    )


def test_basis_orthonormal_for_random_phases():
    rng = np.random.default_rng(3)
    for _ in range(200):
        basis = dark_bright_basis(random_config(rng))
        assert np.vdot(basis.dark, basis.dark) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(basis.bright, basis.bright) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(basis.dark, basis.bright)) < 1e-12


def test_basis_completeness():
    rng = np.random.default_rng(5)
    for _ in range(50):
        basis = dark_bright_basis(random_config(rng))
        resolution = np.outer(basis.dark, basis.dark.conj()) + np.outer(
            basis.bright, basis.bright.conj()
        )
        np.testing.assert_allclose(resolution, np.eye(2), rtol=0, atol=1e-12)


def test_basis_invariant_under_amplitude_scaling():
    cfg = LambdaConfig(omega_1=0.3, omega_2=0.7, psi=1.1, theta=1.2, phi=0.4)
    scaled = LambdaConfig(omega_1=1.5, omega_2=3.5, psi=1.1, theta=1.2, phi=0.4)
    a, b = dark_bright_basis(cfg), dark_bright_basis(scaled)
    np.testing.assert_allclose(a.dark, b.dark, rtol=0, atol=1e-15)
    np.testing.assert_allclose(a.bright, b.bright, rtol=0, atol=1e-15)
    assert polarization_efficiency(cfg) == pytest.approx(
        polarization_efficiency(scaled), abs=1e-15
    )


def test_efficiency_equals_dark_excited_overlap():
    # The closed form must agree with |<-|D>|^2 computed from the spinors,
    # which is the defining property; |-> has the nuclear spinor
    # -sin(theta/2) e^{-i phi} |up> + cos(theta/2) |down>.
    rng = np.random.default_rng(17)
    for _ in range(1000):
        cfg = random_config(rng)
        half = cfg.theta / 2.0
        excited = np.array([-math.sin(half) * np.exp(-1j * cfg.phi), math.cos(half)])
        overlap = abs(np.vdot(excited, dark_bright_basis(cfg).dark)) ** 2
        assert polarization_efficiency(cfg) == pytest.approx(overlap, abs=1e-12)


def test_efficiency_frozen_value():
    cfg = LambdaConfig(omega_1=1.0, omega_2=1.0, theta=1.14, phi=0.0, psi=0.0)
    assert polarization_efficiency(cfg) == pytest.approx(ALPHA_P_THETA_114, abs=1e-15)


def test_efficiency_single_tone_limits():
    # With one tone off, the dark state is a bare nuclear state and the
    # efficiency reduces to the corresponding spinor weight.
    theta = 0.9
    only_1 = LambdaConfig(omega_1=0.5, omega_2=0.0, theta=theta)
    only_2 = LambdaConfig(omega_1=0.0, omega_2=0.5, theta=theta)
    assert polarization_efficiency(only_1) == pytest.approx(
        math.cos(theta / 2.0) ** 2, abs=1e-15
    )
    assert polarization_efficiency(only_2) == pytest.approx(
        math.sin(theta / 2.0) ** 2, abs=1e-15
    )


def test_efficiency_phase_average():
    # Averaged over the drive phase the cross term cancels, leaving the
    # incoherent mixture of the two single-tone weights.
    cfg0 = LambdaConfig(omega_1=0.8, omega_2=0.5, theta=1.3, phi=0.7)
    values = [
        polarization_efficiency(
            LambdaConfig(
                omega_1=0.8, omega_2=0.5, theta=1.3, phi=0.7, psi=2.0 * math.pi * k / 32
            )
        )
        for k in range(32)
    ]
    o1, o2 = cfg0.omega_1, cfg0.omega_2
    half = cfg0.theta / 2.0
    expected = (
        o2 * o2 * math.sin(half) ** 2 + o1 * o1 * math.cos(half) ** 2
    ) / (o1 * o1 + o2 * o2)
    assert np.mean(values) == pytest.approx(expected, abs=1e-12)


def test_efficiency_extremes():
    # theta = pi/2, balanced drive, aligned phases: perfect pumping.
    perfect = LambdaConfig(omega_1=1.0, omega_2=1.0, theta=math.pi / 2.0)
    assert polarization_efficiency(perfect) == pytest.approx(1.0, abs=1e-15)
    # Antialigned phases instead give a perfectly bright decay.
    worst = LambdaConfig(omega_1=1.0, omega_2=1.0, theta=math.pi / 2.0, psi=math.pi)
    assert polarization_efficiency(worst) == pytest.approx(0.0, abs=1e-15)


@given(
    theta=st.floats(0.01, math.pi - 0.01),
    phi=st.floats(0.0, 2.0 * math.pi),
    omega_2=st.floats(0.01, 2.0),
    dark=st.booleans(),
)
def test_efficiency_stays_a_probability_at_its_limits(theta, phi, omega_2, dark):
    # ratio = tan(theta/2) at psi = phi + pi decays all-bright, ratio =
    # cot(theta/2) at psi = phi all-dark. Rounding must not carry the closed
    # form outside [0, 1], where the laser's sqrt(gamma alpha_p) fails.
    half = theta / 2.0
    ratio, psi = (1.0 / math.tan(half), phi) if dark else (math.tan(half), phi + math.pi)
    cfg = LambdaConfig(omega_1=ratio * omega_2, omega_2=omega_2, theta=theta, phi=phi, psi=psi)
    alpha_p = polarization_efficiency(cfg)
    assert 0.0 <= alpha_p <= 1.0
    assert alpha_p == pytest.approx(1.0 if dark else 0.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        LambdaConfig(omega_1=0.0, omega_2=0.0)
    with pytest.raises(ValueError):
        LambdaConfig(omega_1=-0.1, omega_2=1.0)
    for omega in (math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError):
            LambdaConfig(omega_1=omega, omega_2=omega)
    cfg = LambdaConfig(omega_1=3.0, omega_2=4.0, delta_1=0.7, delta_2=0.2)
    assert cfg.delta_r == pytest.approx(0.5)
    assert cfg.omega_eff == pytest.approx(5.0)
