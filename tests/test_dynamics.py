"""Engine tests: generator algebra, segment maps, and full-sequence behavior.

The reference regime used throughout: balanced tones at omega_eff = 1/12 MHz
so the 6 us pulse has area pi, theta = pi/2, and the hyperfine azimuth
chosen so the branching efficiency is exactly 0.43; the laser dephasing is
set to a per-step depolarization probability of 0.12. This is the regime
whose rate-model constants are frozen in test_rate_model.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import dense, from_real, propagate, pulse_hamiltonian
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_cpt.dynamics import (
    dark_bright_basis,
    period_maps,
    pure_state,
    segment_generators,
    thermal_ground_state,
)
from lambda_cpt.experiments import StepTrace, pump_trace
from lambda_cpt.lambda_system import (
    LambdaConfig,
    ReadoutModel,
    SequenceConfig,
    polarization_efficiency,
    split_rabi,
)
from lambda_cpt.rate_model import (
    PumpStepParams,
    population_after_n,
    simplified_from_step,
    step_map,
)
from lambda_cpt.spin_model import FieldError

OMEGA = 1.0 / (12.0 * math.sqrt(2.0))
PHI_043 = math.acos(-0.14)
GAMMA_DP_012 = 0.42611123836628295

REFERENCE_LAM = LambdaConfig(
    omega_1=OMEGA, omega_2=OMEGA, theta=math.pi / 2.0, phi=PHI_043, psi=0.0
)


def reference_sequence(**kwargs) -> SequenceConfig:
    return SequenceConfig(REFERENCE_LAM, gamma=20.0, gamma_dp=GAMMA_DP_012, **kwargs)


def embed(ground_spinor: np.ndarray) -> np.ndarray:
    return np.append(ground_spinor, 0.0)


def random_density(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def rk4(rho: np.ndarray, gen: np.ndarray, duration: float, dt: float) -> np.ndarray:
    """Reference integrator: fixed-step RK4 on d vec(rho)/dt = gen vec(rho) for
    a 9x9 generator, and on d rho/dt = G rho + rho G^dagger for a 3x3 G = -i H."""
    if len(gen) == 3:
        def rate(r):
            return gen @ r + r @ gen.conj().T
    else:
        def rate(r):
            return (gen @ r.reshape(9)).reshape(3, 3)
    rho = rho.astype(complex)
    steps = max(1, math.ceil(duration / dt))
    h = duration / steps
    for _ in range(steps):
        k1 = rate(rho)
        k2 = rate(rho + 0.5 * h * k1)
        k3 = rate(rho + 0.5 * h * k2)
        k4 = rate(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def dense_run(segment) -> tuple[np.ndarray, float]:
    """(generator, duration) of the one run of a G = 1 segment form."""
    gen, duration = dense(segment)
    return gen[0], duration


def segments(lam: LambdaConfig = REFERENCE_LAM, **kwargs) -> list[tuple[np.ndarray, float]]:
    """The four dense (generator, duration) segments of a gamma = 20 sequence on lam."""
    return [dense_run(s) for s in segment_generators(SequenceConfig(lam, gamma=20.0, **kwargs))]


def drive_hamiltonian(cfg: LambdaConfig) -> np.ndarray:
    """The H the engine runs for a pulse of drive cfg."""
    return pulse_hamiltonian(segment_generators(SequenceConfig(cfg))[0])[0]


def test_rwa_hamiltonian_matrix():
    cfg = LambdaConfig(omega_1=0.4, omega_2=0.6, delta_1=0.2, delta_2=0.05, psi=0.9)
    h = drive_hamiltonian(cfg)
    two_pi = 2.0 * math.pi
    assert h[0, 2] == pytest.approx(two_pi * 0.2, abs=1e-15)
    assert h[1, 2] == pytest.approx(two_pi * 0.3 * np.exp(1j * 0.9), abs=1e-15)
    assert h[1, 1] == pytest.approx(-two_pi * (0.2 - 0.05), abs=1e-15)
    assert h[2, 2] == pytest.approx(-two_pi * 0.2, abs=1e-15)
    np.testing.assert_allclose(h, h.conj().T, rtol=0, atol=1e-15)


def test_rwa_eigenvalues_on_resonance():
    cfg = LambdaConfig(omega_1=0.3, omega_2=0.4, psi=1.3)
    ev = np.linalg.eigvalsh(drive_hamiltonian(cfg))
    expected = 2.0 * math.pi * np.array([-0.25, 0.0, 0.25])
    np.testing.assert_allclose(ev, expected, rtol=0, atol=1e-12)


def test_dark_state_is_annihilated_for_any_phase():
    rng = np.random.default_rng(31)
    for _ in range(100):
        cfg = LambdaConfig(
            omega_1=rng.uniform(0.05, 1.0),
            omega_2=rng.uniform(0.05, 1.0),
            psi=rng.uniform(0.0, 2.0 * math.pi),
        )
        h = drive_hamiltonian(cfg)
        dark3 = embed(dark_bright_basis(cfg).dark)
        assert np.linalg.norm(h @ dark3) < 1e-12


def test_pi_pulse_fully_transfers_bright_state():
    cfg = REFERENCE_LAM
    bright = dark_bright_basis(cfg).bright
    rho = pure_state(embed(bright))
    after = propagate(rho, *segments(cfg, t_mw=6.0)[0])
    assert np.real(after[2, 2]) == pytest.approx(1.0, abs=1e-6)


def test_dark_state_survives_pulse():
    cfg = REFERENCE_LAM
    dark = dark_bright_basis(cfg).dark
    rho = pure_state(embed(dark))
    after = propagate(rho, *segments(cfg, t_mw=6.0)[0])
    dark3 = embed(dark)
    assert np.real(dark3.conj() @ after @ dark3) == pytest.approx(1.0, abs=1e-10)


def test_coherent_evolution_preserves_purity():
    rng = np.random.default_rng(41)
    vec = rng.normal(size=3) + 1j * rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    rho = pure_state(vec)
    after = propagate(rho, *segments(t_mw=3.7)[0])
    purity = float(np.real(np.trace(after @ after)))
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_pulse_step_size_contract():
    # Segments propagate with exact expm, so there is no step size to choose:
    # a drive far too strong for a 1e-2 time step is exact in one map (it
    # composes from ten shorter maps), and a negative segment duration is
    # refused where the sequence is built.
    strong = LambdaConfig(omega_1=50.0, omega_2=50.0)
    gen, duration = segments(strong, t_mw=0.1)[0]
    rho = thermal_ground_state()
    whole = propagate(rho, gen, duration)
    split = rho
    for _ in range(10):
        split = propagate(split, gen, 0.01)
    np.testing.assert_allclose(whole, split, rtol=0, atol=1e-12)
    for name, duration in (("t_mw", -1.0), ("t_laser", -0.1), ("t_wait_post", -0.1)):
        with pytest.raises(ValueError):
            reference_sequence(**{name: duration})


def test_rk4_matches_exact_exponential():
    rho = thermal_ground_state()
    rho[2, 2] = 0.4
    rho[0, 0] = rho[1, 1] = 0.3
    gen, duration = segments(gamma_dp=GAMMA_DP_012)[2]
    assert duration == 0.3
    a = propagate(rho, gen, duration)
    b = rk4(rho, gen, duration, dt=1e-3)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)


def test_rk4_step_halving_converges():
    gen, duration = segments(gamma_dp=0.9)[2]
    rho = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    coarse = rk4(rho, gen, duration, dt=5e-4)
    fine = rk4(rho, gen, duration, dt=2.5e-4)
    assert np.max(np.abs(coarse - fine)) < 1e-7


def test_laser_branching_limit():
    # gamma * t = 40 empties the excited state; the branching ratio must
    # land in the drive-defined dark/bright basis.
    cfg = LambdaConfig(omega_1=0.7, omega_2=0.4, theta=1.1, phi=0.5, psi=0.3)
    alpha_p = polarization_efficiency(cfg)
    basis = dark_bright_basis(cfg)
    rho = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    after = propagate(rho, *segments(cfg, t_laser=2.0)[2])
    ground = after[:2, :2]
    p_dark = float(np.real(basis.dark.conj() @ ground @ basis.dark))
    p_bright = float(np.real(basis.bright.conj() @ ground @ basis.bright))
    assert p_dark == pytest.approx(alpha_p, abs=1e-9)
    assert p_bright == pytest.approx(1.0 - alpha_p, abs=1e-9)
    assert np.real(after[2, 2]) == pytest.approx(0.0, abs=1e-9)


def test_laser_branching_follows_a_replaced_drive():
    # The branching is derived from the drive the sequence holds, so a
    # sequence copied onto a new drive pumps into the new drive's dark state.
    first = LambdaConfig(omega_1=0.7, omega_2=0.4, theta=1.1, phi=0.5, psi=0.3)
    second = replace(first, psi=3.6)
    assert abs(polarization_efficiency(second) - polarization_efficiency(first)) > 0.1
    seq = replace(SequenceConfig(first, gamma=20.0, t_laser=2.0), lam=second)
    rho = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    after = propagate(rho, *dense_run(segment_generators(seq)[2]))
    dark = dark_bright_basis(second).dark
    p_dark = float(np.real(dark.conj() @ after[:2, :2] @ dark))
    assert p_dark == pytest.approx(polarization_efficiency(second), abs=1e-9)
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SequenceConfig(first, gamma=gamma)


def test_wait_dephasing_halves_coherence():
    rate = 0.8
    rho = pure_state(np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0))
    t_half = math.log(2.0) / rate
    after = propagate(rho, *segments(t_wait_post=t_half, gamma_2n=rate)[3])
    assert abs(after[0, 1]) == pytest.approx(0.25, abs=1e-10)
    # Populations untouched by pure dephasing.
    np.testing.assert_allclose(np.diag(after).real, np.diag(rho).real, rtol=0, atol=1e-10)


def test_wait_t1_relaxes_excited_population_to_half():
    # After t1_e ln 2, P_- has come half way to one half of the trace and
    # the ground imbalance has shrunk by 1/sqrt(2): checked on the engine's
    # wait map (A of a period without pulse) and on the T1 jump oracle.
    t1 = 4.0
    duration = t1 * math.log(2.0)
    seq = SequenceConfig(REFERENCE_LAM, gamma=20.0, t_mw=0.0, t_wait_pre=duration, t1_e=t1)
    (engine,), _ = period_maps(segment_generators(seq))
    oracle = segments(t_wait_post=duration, t1_e=t1)[3]
    up = pure_state(np.array([1.0, 0.0, 0.0], dtype=complex))
    excited = pure_state(np.array([0.0, 0.0, 1.0], dtype=complex))
    cases = ((excited, [0.125, 0.125, 0.75]), (thermal_ground_state(), [0.375, 0.375, 0.25]))
    cases += ((up, [(0.75 + math.sqrt(0.5)) / 2, (0.75 - math.sqrt(0.5)) / 2, 0.25]),)
    for rho, want in cases:
        engine_after = (from_real(engine) @ rho.reshape(9)).reshape(3, 3)
        for after in (engine_after, propagate(rho, *oracle)):
            np.testing.assert_allclose(np.diag(after).real, want, rtol=0, atol=1e-9)


def test_wait_is_identity_on_resonance():
    rho = pure_state(np.array([0.6, 0.8, 0.0], dtype=complex))
    after = propagate(rho, *segments(LambdaConfig(omega_1=1.0, omega_2=1.0), t_wait_post=5.0)[3])
    np.testing.assert_allclose(after, rho, rtol=0, atol=1e-12)


def test_segment_maps_keep_density_matrices_physical():
    rng = np.random.default_rng(43)
    cfg = LambdaConfig(omega_1=0.4, omega_2=0.7, delta_1=0.1, delta_2=-0.05, psi=0.6, theta=1.0)
    seq = SequenceConfig(cfg, gamma=15.0)
    pulse = dense_run(segment_generators(seq)[0])[0]
    for _ in range(300):
        rho = random_density(rng)
        kind = rng.integers(0, 3)
        if kind == 0:
            after = propagate(rho, pulse, rng.uniform(0.0, 8.0))
        elif kind == 1:
            laser, _ = dense_run(
                segment_generators(replace(seq, gamma_dp=rng.uniform(0.0, 2.0)))[2]
            )
            after = propagate(rho, laser, rng.uniform(0.0, 0.6))
        else:
            duration = rng.uniform(0.0, 3.0)
            wait, _ = dense_run(
                segment_generators(replace(seq, gamma_2n=rng.uniform(0.0, 0.1)))[3]
            )
            after = propagate(rho, wait, duration)
        assert np.real(np.trace(after)) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(after, after.conj().T, rtol=0, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(after)) > -1e-8


def test_sequence_timing_fields():
    seq = reference_sequence()
    assert seq.t_seq == pytest.approx(7.4)
    assert seq.packed_duration == pytest.approx(7.4)
    assert seq.wait_pre_total == pytest.approx(0.1)
    stretched = reference_sequence(t_seq=10.0)
    assert stretched.wait_pre_total == pytest.approx(2.7)
    assert [s.duration for s in segment_generators(stretched)] == [
        stretched.t_mw, stretched.wait_pre_total, stretched.t_laser, stretched.t_wait_post
    ]
    with pytest.raises(ValueError):
        reference_sequence(t_seq=5.0)
    with pytest.raises(ValueError):
        reference_sequence(n_reps=-1)


def test_sequence_zero_reps():
    # Every run reads out at least one period: the sequence itself says so.
    with pytest.raises(FieldError, match="n_reps") as caught:
        SequenceConfig(REFERENCE_LAM, n_reps=0)
    assert caught.value.field == "n_reps"


def test_first_readout_transfers_half():
    # From the thermal state a pi pulse moves exactly the bright half of the
    # population into the excited state.
    trace = pump_trace(reference_sequence(n_reps=1)).trace
    assert trace.p_excited[0] == pytest.approx(0.5, abs=1e-9)
    assert trace.p_dark[0] == pytest.approx(0.5, abs=1e-9)


def test_trace_population_bookkeeping():
    trace = pump_trace(reference_sequence(n_reps=15)).trace
    total = trace.p_up + trace.p_down + trace.p_excited
    np.testing.assert_allclose(total, np.ones(15), rtol=0, atol=1e-9)
    ground = trace.p_dark + trace.p_bright
    np.testing.assert_allclose(ground, trace.p_up + trace.p_down, rtol=0, atol=1e-9)
    assert isinstance(trace, StepTrace)
    assert trace.step[0] == 1 and trace.step[-1] == 15


def test_engine_matches_rate_model():
    """Step-resolved dark population against the affine recursion."""
    seq = reference_sequence(n_reps=30)
    trace = pump_trace(seq).trace
    params = PumpStepParams(
        alpha_p=0.43,
        pulse_area=math.pi,
        gamma=20.0,
        gamma_dp=GAMMA_DP_012,
        delta_t=0.3,
    )
    a, b = step_map(params)
    predicted = np.array([population_after_n(a, b, 0.5, n) for n in range(30)])
    assert np.max(np.abs(trace.p_dark - predicted)) < 0.01


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    gamma=floats(0.1, 1000.0),
    gamma_t=floats(20.0, 60.0),
    balanced=st.booleans(),
    ratio=floats(0.1, 10.0),
    dephasing=floats(0.0, 0.99),
    area=floats(0.1, 2.0 * math.pi - 0.1),
    t_mw=floats(0.1, 10.0),
    angles=st.tuples(floats(0.0, 2.0 * math.pi), floats(0.0, math.pi), floats(0.0, 2.0 * math.pi)),
    waits=st.tuples(floats(0.0, 1.0), floats(0.0, 2.0)),
    n_reps=st.integers(1, 40),
)
def test_engine_matches_rate_model_inside_its_domain(
    gamma, gamma_t, balanced, ratio, dephasing, area, t_mw, angles, waits, n_reps
):
    """The engine's dark population against the affine recursion, to e^{-gamma t_laser / 2}.

    The domain of the rate model: both tones on resonance, waits without
    dephasing or T1, gamma > gamma_dp, and a laser that empties |-> (gamma
    t_laser >= 20, so what it leaves is below e^{-10}); laser dephasing
    only with balanced tones, gamma_dp = dephasing gamma there, and none
    otherwise. The pulse areas stay 0.1 from 0 and 2 pi, so that the first
    readout, 0.5 sin^2(area / 2), is one pump_trace can calibrate against.
    """
    gamma_dp = dephasing * gamma if balanced else 0.0
    omega_1, omega_2 = split_rabi(area / (2.0 * math.pi * t_mw), 1.0 if balanced else ratio)
    psi, theta, phi = angles
    lam = LambdaConfig(omega_1, omega_2, psi=psi, theta=theta, phi=phi)
    t_laser = gamma_t / gamma
    seq = SequenceConfig(
        lam,
        gamma=gamma,
        gamma_dp=gamma_dp,
        t_mw=t_mw,
        t_wait_pre=waits[0],
        t_laser=t_laser,
        t_wait_post=waits[1],
        n_reps=n_reps,
    )
    params = PumpStepParams(polarization_efficiency(lam), area, gamma, gamma_dp, t_laser)
    a, b = step_map(params)
    predicted = np.array([population_after_n(a, b, 0.5, n) for n in range(n_reps)])
    gap = np.abs(pump_trace(seq).trace.p_dark - predicted).max()
    assert gap <= math.exp(-gamma_t / 2.0) + 1e-12


def test_engine_steady_state_near_frozen_value():
    seq = reference_sequence(n_reps=20)
    trace = pump_trace(seq).trace
    assert trace.p_dark[-1] == pytest.approx(0.88, abs=0.01)
    simplified = simplified_from_step(
        PumpStepParams(
            alpha_p=0.43, pulse_area=math.pi, gamma=20.0, gamma_dp=GAMMA_DP_012, delta_t=0.3
        )
    )
    assert simplified.alpha_dp == pytest.approx(0.12, abs=1e-12)


def test_long_trace_stays_normalized_and_saturated():
    # 20000 periods advance in blocks of 128 through products of powers of
    # the period map; rounding must not leak population or move the plateau.
    trace = pump_trace(reference_sequence(n_reps=20000)).trace
    total = trace.p_up + trace.p_down + trace.p_excited
    assert np.max(np.abs(total - 1.0)) < 1e-10
    assert trace.p_dark[-1] == pytest.approx(0.88, abs=0.01)


def test_readout_model_and_inversion():
    model = ReadoutModel(contrast=0.3, reference_0=2.0)
    assert model.signal(1.0) == pytest.approx(1.4)
    signals = np.array([2.0, 1.7, 1.4])
    np.testing.assert_allclose(model.signal(np.array([0.0, 0.5, 1.0])), signals, rtol=0, atol=1e-12)
    with pytest.raises(TypeError):
        ReadoutModel(contrast=0.3, reference_0=1.0, reference_1=0.9)


def test_rk4_sequence_matches_expm_sequence():
    seq = reference_sequence(n_reps=5)
    t_expm = pump_trace(seq).trace
    segments = [dense_run(s) for s in segment_generators(seq)]
    dark3 = embed(dark_bright_basis(seq.lam).dark)
    rho = thermal_ground_state()
    p_dark, p_excited = [], []
    for _ in range(seq.n_reps):
        for gen, duration in segments[:2]:
            rho = rk4(rho, gen, duration, dt=1e-3)
        p_dark.append(np.real(dark3.conj() @ rho @ dark3))
        p_excited.append(np.real(rho[2, 2]))
        for gen, duration in segments[2:]:
            rho = rk4(rho, gen, duration, dt=1e-3)
    np.testing.assert_allclose(p_dark, t_expm.p_dark, rtol=0, atol=1e-7)
    np.testing.assert_allclose(p_excited, t_expm.p_excited, rtol=0, atol=1e-7)

