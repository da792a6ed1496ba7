"""Level-structure tests against an independent 2x2 block diagonalization.

The oracle builds each electron manifold's nuclear block directly,

    H(m_s) = (d m_s^2 + gamma_e B m_s) 1 + m_s (a_zz I_z + a_ani (cos(phi) I_x
             + sin(phi) I_y)) + gamma_n B I_z,        I = sigma/2,

and diagonalizes it with numpy. The closed forms must reproduce the m_s = 0
and m_s = -1 blocks exactly; the m_s = +1 energies use the linearized
splitting and are only required to sit within 0.02 MHz of the exact ones.
"""

import math

import numpy as np
import pytest

from lambda_cpt.spin_model import (
    HyperfineParams,
    PhysicalConstants,
    SpinSystemParams,
    eigensystem,
    esr_lines,
    mixing_angles,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex) / 2.0
SZ = np.diag([1.0, -1.0]).astype(complex) / 2.0

# Frozen reference values for the default parameter set
# (d = 2870, gamma_e = 2.8, gamma_n = 1.07e-3, a_zz = 1.0, a_ani = 0.3,
#  phi = 0, B = 850 G).
THETA_DEFAULT = 1.2778111825976617
THETA_PRIME_DEFAULT = 0.15583534628936488
ENERGIES_DEFAULT = (
    0.45475,
    -0.45475,
    489.84332338240824,
    490.15667661759176,
    5249.04525,
    5250.95475,
)
LINES_DEFAULT = (
    489.38857338240825,
    490.29807338240823,
    489.70192661759177,
    490.61142661759175,
    5249.5,
    5250.5,
)
WEIGHT_CONSERVING = 0.6444057214647672
WEIGHT_FLIPPING = 0.3555942785352329
WEIGHT_UPPER = 0.9939411126136246
A_ZZ_FOR_THETA_114 = 1.0473755589828377


def block_hamiltonian(params: SpinSystemParams, ms: int) -> np.ndarray:
    c, hf = params.constants, params.hyperfine
    transverse = math.cos(hf.phi) * SX + math.sin(hf.phi) * SY
    return (
        (c.d * ms * ms + c.gamma_e * params.b_field * ms) * np.eye(2)
        + ms * (hf.a_zz * SZ + hf.a_ani * transverse)
        + c.gamma_n * params.b_field * SZ
    )


# Per line of esr_lines: the upper manifold m_s, the nuclear state it starts
# from (0 for |up> at nu1, 1 for |down> at nu2), and the eigenvector of the
# upper block it reaches, counted from the lower energy.
LINE_STATES = ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1), (-1, 1, 1), (+1, 1, 0), (+1, 0, 1))
OFF_DEFAULT = SpinSystemParams(
    hyperfine=HyperfineParams(a_zz=0.7, a_ani=0.45, phi=1.3), b_field=620.0
)


def oracle_weights(params: SpinSystemParams) -> np.ndarray:
    """Each line's squared overlap of the numeric upper eigenvector with its start."""
    vecs = {ms: np.linalg.eigh(block_hamiltonian(params, ms))[1] for ms in (-1, +1)}
    return np.array([abs(vecs[ms][start, k]) ** 2 for ms, start, k in LINE_STATES])


def test_mixing_angles_frozen():
    params = SpinSystemParams()
    theta, theta_prime = mixing_angles(params)
    assert theta == pytest.approx(THETA_DEFAULT, abs=1e-15)
    assert theta_prime == pytest.approx(THETA_PRIME_DEFAULT, abs=1e-15)


def test_mixing_angle_inverse_relation():
    # a_zz = gamma_n B + a_ani / tan(theta) inverts the mixing angle; the
    # pair below round-trips through it.
    params = SpinSystemParams(hyperfine=HyperfineParams(a_zz=A_ZZ_FOR_THETA_114))
    theta, _ = mixing_angles(params)
    assert theta == pytest.approx(1.14, abs=1e-12)


def test_energies_frozen():
    eig = eigensystem(SpinSystemParams())
    np.testing.assert_allclose(eig.energies, ENERGIES_DEFAULT, rtol=0, atol=1e-9)


def test_ms0_and_msm1_match_exact_diagonalization():
    params = SpinSystemParams()
    eig = eigensystem(params)
    ev0 = np.linalg.eigvalsh(block_hamiltonian(params, 0))
    np.testing.assert_allclose(sorted(eig.energies[:2]), ev0, rtol=0, atol=1e-9)
    evm = np.linalg.eigvalsh(block_hamiltonian(params, -1))
    np.testing.assert_allclose(eig.energies[2:4], evm, rtol=0, atol=1e-9)


def test_msm1_spinors_match_exact_eigenvectors():
    eig = eigensystem(OFF_DEFAULT)
    ev = np.linalg.eigvalsh(block_hamiltonian(OFF_DEFAULT, -1))
    np.testing.assert_allclose(eig.energies[2:4], ev, rtol=0, atol=1e-9)
    weights = [line.weight for line in esr_lines(eig)]
    np.testing.assert_allclose(weights[:4], oracle_weights(OFF_DEFAULT)[:4], rtol=0, atol=1e-10)


def test_msp1_linearized_energies_near_exact():
    params = SpinSystemParams()
    eig = eigensystem(params)
    ev = np.linalg.eigvalsh(block_hamiltonian(params, +1))
    # The documented linearization error for these couplings is 0.0117 MHz.
    assert abs(eig.energies[4] - ev[0]) < 0.02
    assert abs(eig.energies[5] - ev[1]) < 0.02
    # The mixing angle theta' is exact, so the weights are.
    for weighed in (params, OFF_DEFAULT):
        weights = [line.weight for line in esr_lines(eigensystem(weighed))]
        np.testing.assert_allclose(weights[4:], oracle_weights(weighed)[4:], rtol=0, atol=1e-10)


def test_splitting_is_hypotenuse():
    params = SpinSystemParams()
    eig = eigensystem(params)
    hf = params.hyperfine
    nz = params.constants.gamma_n * params.b_field
    assert eig.energies[3] - eig.energies[2] == pytest.approx(
        math.hypot(hf.a_ani, hf.a_zz - nz), abs=1e-12
    )


def test_trace_per_manifold_matches_blocks():
    params = SpinSystemParams(
        hyperfine=HyperfineParams(a_zz=1.4, a_ani=0.2, phi=0.4), b_field=1100.0
    )
    eig = eigensystem(params)
    for ms, pair in ((0, eig.energies[:2]), (-1, eig.energies[2:4])):
        block = block_hamiltonian(params, ms)
        assert sum(pair) == pytest.approx(float(np.real(np.trace(block))), abs=1e-9)


def test_esr_lines_frozen():
    lines = esr_lines(eigensystem(SpinSystemParams()))
    np.testing.assert_allclose(
        [line.frequency for line in lines], LINES_DEFAULT, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        [line.weight for line in lines],
        (
            WEIGHT_CONSERVING,
            WEIGHT_FLIPPING,
            WEIGHT_FLIPPING,
            WEIGHT_CONSERVING,
            WEIGHT_UPPER,
            WEIGHT_UPPER,
        ),
        rtol=0,
        atol=1e-12,
    )


def test_low_manifold_weights_sum_to_two():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = SpinSystemParams(
            hyperfine=HyperfineParams(
                a_zz=rng.uniform(0.3, 3.0),
                a_ani=rng.uniform(0.05, 1.0),
                phi=rng.uniform(0.0, 2.0 * math.pi),
            ),
            b_field=rng.uniform(100.0, 2000.0),
        )
        lines = esr_lines(eigensystem(params))
        assert sum(line.weight for line in lines[:4]) == pytest.approx(2.0, abs=1e-12)


def test_weights_do_not_depend_on_azimuth():
    base = esr_lines(eigensystem(SpinSystemParams()))
    rotated = esr_lines(
        eigensystem(SpinSystemParams(hyperfine=HyperfineParams(phi=2.1)))
    )
    for a, b in zip(base, rotated):
        assert a.frequency == pytest.approx(b.frequency, abs=1e-12)
        assert a.weight == pytest.approx(b.weight, abs=1e-12)


def test_theta_prime_smaller_than_theta():
    # The field Zeeman shift subtracts in the lower manifold and adds in the
    # upper one, so the upper manifold always mixes less.
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = SpinSystemParams(
            hyperfine=HyperfineParams(
                a_zz=rng.uniform(0.3, 3.0), a_ani=rng.uniform(0.05, 1.0)
            ),
            b_field=rng.uniform(100.0, 2000.0),
        )
        theta, theta_prime = mixing_angles(params)
        assert theta_prime < theta


def test_balanced_mixing_at_cancellation():
    # a_zz = gamma_n B makes the lower manifold purely anisotropic:
    # theta = pi/2 and all four low-frequency weights equal 1/2.
    params = SpinSystemParams(hyperfine=HyperfineParams(a_zz=0.9095))
    theta, _ = mixing_angles(params)
    assert theta == pytest.approx(math.pi / 2.0, abs=1e-12)
    lines = esr_lines(eigensystem(params))
    for line in lines[:4]:
        assert line.weight == pytest.approx(0.5, abs=1e-12)


def test_no_anisotropy_gives_spin_conserving_lines_only():
    params = SpinSystemParams(hyperfine=HyperfineParams(a_ani=0.0))
    lines = esr_lines(eigensystem(params))
    weights = [line.weight for line in lines[:4]]
    np.testing.assert_allclose(weights, [1.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_parameter_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(d=0.0)
    with pytest.raises(ValueError):
        HyperfineParams(a_zz=-0.2)
    with pytest.raises(ValueError):
        HyperfineParams(phi=7.0)
    with pytest.raises(ValueError):
        SpinSystemParams(b_field=-1.0)
