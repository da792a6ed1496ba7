"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test emits exactly one ``criterion n: PASS/FAIL (...)`` line: printed
into the captured output of its test and repeated in the end-of-run summary
section that conftest registers, so the gate can be read off any pytest run.
Criteria 4 and 5 share one set of long scans through a module fixture.

Regimes used here:

    canonical pumping   balanced tones, area pi in 6 us, theta = pi/2,
                        azimuth arccos(-0.14) so alpha_p = 0.43, laser
                        dephasing tuned to a per-step depolarization of 0.12
    width-law scans     balanced tones, area pi in 0.3 us (short pulses keep
                        the finite-pulse pulling of the side resonances far
                        below the tolerance), azimuth 2*pi/3 so alpha_p =
                        0.25, no laser dephasing, periods 10/15/25/50 us
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import dense, propagate, record_acceptance_line

import lambda_cpt.cli as cli
from lambda_cpt.dynamics import (
    dark_bright_basis,
    period_form,
    propagate_periods,
    pure_state,
)
from lambda_cpt.experiments import composition_sweep, cpt_spectrum, pump_trace
from lambda_cpt.fitting import fit_contrast_curve, fit_dips, fit_saturation
from lambda_cpt.lambda_system import (
    LambdaConfig,
    SequenceConfig,
    polarization_efficiency,
)
from lambda_cpt.rate_model import (
    PumpStepParams,
    SimplifiedParams,
    characteristic_steps,
    laser_transient,
    population_after_n,
    steady_state,
)

OMEGA = 1.0 / (12.0 * math.sqrt(2.0))
GAMMA_DP_012 = 0.42611123836628295
CANONICAL_LAM = LambdaConfig(
    omega_1=OMEGA, omega_2=OMEGA, theta=math.pi / 2.0, phi=math.acos(-0.14)
)
COMB_T_MW = 0.3
COMB_OMEGA = 1.0 / (2.0 * COMB_T_MW * math.sqrt(2.0))
WIDTH_LAW_LAM = LambdaConfig(
    omega_1=COMB_OMEGA, omega_2=COMB_OMEGA, theta=math.pi / 2.0, phi=2.0 * math.pi / 3.0
)
WIDTH_LAW_PERIODS = (10.0, 15.0, 25.0, 50.0)


def report(n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n}: {status} ({detail})"
    print(line)
    record_acceptance_line(line)


def canonical_sequence(**kwargs) -> SequenceConfig:
    kwargs.setdefault("gamma_dp", GAMMA_DP_012)
    return SequenceConfig(CANONICAL_LAM, gamma=20.0, **kwargs)


def test_criterion_1_rate_model_constants():
    started = time.perf_counter()
    model = SimplifiedParams(alpha_p_eff=0.43, alpha_dp=0.12)
    p_inf = steady_state(model)
    n_s = characteristic_steps(model)

    trace = pump_trace(canonical_sequence(n_reps=40)).trace
    engine_fit = fit_saturation(trace.p_dark)
    elapsed = time.perf_counter() - started

    ok = (
        abs(p_inf - 0.8796) < 5e-4
        and abs(n_s - 1.4497) < 1e-3
        and abs(engine_fit.p_inf - p_inf) < 0.02
        and abs(engine_fit.n_s - n_s) < 0.02
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"P_inf {p_inf:.4f}, N_s {n_s:.4f}, engine devs "
        f"{abs(engine_fit.p_inf - p_inf):.4f}/{abs(engine_fit.n_s - n_s):.4f}, "
        f"{elapsed:.2f} s",
    )
    assert ok


def test_criterion_2_dip_spectrum_contrast():
    started = time.perf_counter()
    grid = np.linspace(-0.06, 0.06, 201)
    step = grid[1] - grid[0]

    clean = cpt_spectrum(canonical_sequence(gamma_dp=0.0, n_reps=40), 0.0, grid)
    dephased = cpt_spectrum(canonical_sequence(n_reps=40), 0.0, grid)
    elapsed = time.perf_counter() - started

    clean_center = clean.detuning_grid[int(np.argmin(clean.signal))]
    dephased_center = dephased.detuning_grid[int(np.argmin(dephased.signal))]
    clean_contrast = 1.0 - float(clean.signal.min())
    dephased_contrast = 1.0 - float(dephased.signal.min())

    ok = (
        abs(clean_center) < step
        and abs(dephased_center) < step
        and clean_contrast > 0.99
        and 0.85 <= dephased_contrast <= 0.95
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"centers {clean_center:+.4f}/{dephased_center:+.4f} MHz, contrasts "
        f"{clean_contrast:.4f}/{dephased_contrast:.4f}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_dip_tracks_one_photon_detuning():
    details = []
    ok = True
    for delta_1 in (-0.05, 0.0, 0.05):
        grid = delta_1 + np.linspace(-0.06, 0.06, 201)
        lam = LambdaConfig(
            omega_1=COMB_OMEGA,
            omega_2=COMB_OMEGA,
            theta=math.pi / 2.0,
            phi=math.acos(-0.14),
            delta_1=delta_1,
        )
        seq = SequenceConfig(
            lam, gamma=20.0, gamma_dp=GAMMA_DP_012, t_mw=COMB_T_MW, t_seq=7.4, n_reps=40
        )
        fit = fit_dips(cpt_spectrum(seq, delta_1, grid), k=1, init_centers=np.array([delta_1]))
        deviation = abs(fit.centers[0] - delta_1)
        ok = ok and fit.converged and not fit.no_dip and deviation < 0.05 * fit.fwhms[0]
        details.append(f"{delta_1:+.2f}->{fit.centers[0]:+.4f} ({deviation / fit.fwhms[0]:.3f} fwhm)")
    report(3, ok, ", ".join(details))
    assert ok


@pytest.fixture(scope="module")
def width_law_scans():
    """Shared long scans: 3-dip fits per period plus the pump-fitted N_s."""
    started = time.perf_counter()
    fits = {}
    for t_seq in WIDTH_LAW_PERIODS:
        seq = SequenceConfig(
            WIDTH_LAW_LAM, gamma=20.0, gamma_dp=0.0, t_mw=COMB_T_MW, t_seq=t_seq, n_reps=80
        )
        grid = np.linspace(-1.3 / t_seq, 1.3 / t_seq, 321)
        spec = cpt_spectrum(seq, 0.0, grid)
        fits[t_seq] = fit_dips(
            spec, k=3, init_centers=np.array([-1.0 / t_seq, 0.0, 1.0 / t_seq])
        )
    pump_seq = SequenceConfig(
        WIDTH_LAW_LAM, gamma=20.0, gamma_dp=0.0, t_mw=COMB_T_MW, t_seq=10.0, n_reps=60
    )
    n_s_fit = fit_saturation(pump_trace(pump_seq).p_dark_est)
    return {
        "fits": fits,
        "n_s": n_s_fit.n_s,
        "elapsed": time.perf_counter() - started,
    }


def test_criterion_4_teeth_at_inverse_period(width_law_scans):
    ok = width_law_scans["elapsed"] < 180.0
    details = []
    for t_seq in WIDTH_LAW_PERIODS:
        fit = width_law_scans["fits"][t_seq]
        spacing = (fit.centers[2] - fit.centers[0]) / 2.0
        ok = ok and fit.converged and abs(spacing * t_seq - 1.0) < 0.02
        details.append(f"T={t_seq:g}: {spacing * t_seq:.4f}")
    report(
        4, ok, ", ".join(details) + f", scans {width_law_scans['elapsed']:.0f} s"
    )
    assert ok


def test_criterion_5_width_law(width_law_scans):
    n_s = width_law_scans["n_s"]
    ok = True
    details = [f"N_s {n_s:.3f}"]
    for t_seq in WIDTH_LAW_PERIODS:
        fit = width_law_scans["fits"][t_seq]
        product = fit.fwhms[1] * n_s * t_seq
        ok = ok and 0.85 <= product <= 1.15
        details.append(f"T={t_seq:g}: {product:.3f}")
    report(5, ok, ", ".join(details))
    assert ok


def test_criterion_6_composition_readout():
    lam = LambdaConfig(omega_1=OMEGA, omega_2=OMEGA, theta=math.pi / 2.0, phi=0.0)
    seq = SequenceConfig(lam, gamma=20.0, gamma_dp=0.0, n_reps=20)
    ratios = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    sweep = composition_sweep(seq, ratios)
    max_dev = float(np.max(np.abs(sweep.measured - sweep.ideal)))

    scaled = 0.5 + 0.78 * (sweep.measured - 0.5)
    a = fit_contrast_curve(ratios, scaled)

    ok = max_dev < 0.02 and abs(a - 0.78) < 0.01
    report(6, ok, f"max composition dev {max_dev:.2e}, a {a:.4f}")
    assert ok


def test_criterion_7_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(97)

    # Closed-form N-step solution against brute-force iteration.
    closed_ok = True
    for _ in range(1000):
        a = rng.uniform(0.0, 0.999)
        b = rng.uniform(0.0, 1.0 - a)
        p0 = rng.uniform(0.0, 1.0)
        n = int(rng.integers(0, 50))
        p = p0
        for _ in range(n):
            p = a * p + b
        closed_ok = closed_ok and abs(population_after_n(a, b, p0, n) - p) < 1e-12

    # Branching efficiency formula against the defining spinor overlap.
    alpha_ok = True
    for _ in range(1000):
        cfg = LambdaConfig(
            omega_1=rng.uniform(0.01, 2.0),
            omega_2=rng.uniform(0.01, 2.0),
            psi=rng.uniform(0.0, 2.0 * math.pi),
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        half = cfg.theta / 2.0
        excited = np.array([-math.sin(half) * np.exp(-1j * cfg.phi), math.cos(half)])
        overlap = abs(np.vdot(excited, dark_bright_basis(cfg)[0])) ** 2
        alpha_ok = alpha_ok and abs(polarization_efficiency(cfg) - overlap) < 1e-12

    # Laser transient against an explicit Runge-Kutta integration.
    from scipy.integrate import solve_ivp

    ode_ok = True
    for _ in range(20):
        p = PumpStepParams(
            alpha_p=rng.uniform(0.0, 1.0),
            pulse_area=math.pi,
            gamma=rng.uniform(5.0, 30.0),
            gamma_dp=rng.uniform(0.0, 2.0),
            delta_t=0.3,
        )
        y0 = rng.dirichlet(np.ones(3))

        def rhs(_, y, p=p):
            return [
                -p.gamma * y[0],
                p.gamma * p.alpha_p * y[0] + p.gamma_dp * (y[2] - y[1]) / 2.0,
                p.gamma * (1.0 - p.alpha_p) * y[0] + p.gamma_dp * (y[1] - y[2]) / 2.0,
            ]

        t = rng.uniform(0.02, 0.6)
        sol = solve_ivp(rhs, (0.0, t), [y0[0], y0[1], y0[2]], rtol=1e-11, atol=1e-13)
        got = laser_transient(p, y0[0], y0[1], y0[2], t)
        ode_ok = ode_ok and np.max(np.abs(np.array(got) - sol.y[:, -1])) < 1e-8

    # Physicality of the segment maps over ten thousand random segments.
    # Each dephasing dissipator is linear in its rate, so the laser and wait
    # generators are built at rate 0 and 1 once and interpolated per draw.
    cfg = LambdaConfig(
        omega_1=0.4, omega_2=0.7, delta_1=0.1, delta_2=-0.05, psi=0.6, theta=1.0
    )
    seq = SequenceConfig(cfg, gamma=15.0)

    def rate_line(k: int, rate: str) -> tuple[np.ndarray, np.ndarray]:
        """Generator of segment k at rate 0, and its change per unit rate."""
        at_0, at_1 = (
            dense(period_form(replace(seq, **{rate: r})))[k][0][0] for r in (0.0, 1.0)
        )
        return at_0, at_1 - at_0

    pulse = dense(period_form(seq))[0][0][0]
    laser = rate_line(2, "gamma_dp")
    wait = rate_line(3, "gamma_2n")
    physical_ok = True
    for _ in range(10_000):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        kind = rng.integers(0, 3)
        if kind == 0:
            after = propagate(rho, pulse, rng.uniform(0.0, 8.0))
        elif kind == 1:
            gamma_dp = rng.uniform(0.0, 2.0)
            after = propagate(rho, laser[0] + gamma_dp * laser[1], rng.uniform(0.0, 0.6))
        else:
            duration = rng.uniform(0.0, 3.0)
            after = propagate(rho, wait[0] + rng.uniform(0.0, 0.1) * wait[1], duration)
        physical_ok = (
            physical_ok
            and abs(np.trace(after).real - 1.0) < 1e-9
            and np.max(np.abs(after - after.conj().T)) < 1e-9
            and float(np.min(np.linalg.eigvalsh(after))) > -1e-8
        )
        if not physical_ok:
            break

    # The interpolated generators are the engine's own at drawn rates.
    rebuilt_ok = True
    for _ in range(5):
        gamma_dp, gamma_2n = rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.1)
        segments = dense(period_form(replace(seq, gamma_dp=gamma_dp, gamma_2n=gamma_2n)))
        deviation = max(
            np.max(np.abs(segments[2][0] - (laser[0] + gamma_dp * laser[1]))),
            np.max(np.abs(segments[3][0] - (wait[0] + gamma_2n * wait[1]))),
        )
        rebuilt_ok = rebuilt_ok and deviation < 1e-12

    elapsed = time.perf_counter() - started
    ok = closed_ok and alpha_ok and ode_ok and physical_ok and rebuilt_ok and elapsed < 10.0
    report(
        7,
        ok,
        f"closed-form {closed_ok}, branching {alpha_ok}, ode {ode_ok}, "
        f"physicality {physical_ok}, rebuilt generators {rebuilt_ok}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_8_dark_state_is_stationary():
    lam = LambdaConfig(
        omega_1=OMEGA,
        omega_2=OMEGA,
        theta=math.pi / 2.0,
        phi=math.acos(-0.14),
        delta_1=0.02,
        delta_2=0.02,
        psi=0.3,
    )
    seq = SequenceConfig(lam, gamma=20.0, gamma_dp=0.0, n_reps=50)
    dark, _ = dark_bright_basis(lam)
    rho0 = pure_state(np.append(dark, 0.0))
    readouts, _ = propagate_periods(period_form(seq), rho0, range(seq.n_reps), [rho0])
    drift = float(np.max(np.abs(readouts - 1.0)))
    ok = drift < 1e-6
    report(8, ok, f"max dark-population drift {drift:.2e} over 50 periods")
    assert ok


def test_criterion_9_dataset_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "\n".join(
            [
                "[drive]",
                "theta = 1.5707963267948966",
                "phi = 1.711355536936743",
                "[sequence]",
                "n_reps = 10",
                "alpha_dp = 0.12",
                "[scan]",
                "delta_start = -0.04",
                "delta_stop = 0.04",
                "points = 21",
            ]
        )
    )
    pairs = []
    for command, filename in (
        ("cpt-spectrum", "spectrum.csv"),
        ("pump-steps", "pump_steps.csv"),
    ):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            blobs.append((out / filename).read_bytes())
        pairs.append(blobs[0] == blobs[1])
    ok = all(pairs)
    report(9, ok, f"spectrum identical {pairs[0]}, pump trace identical {pairs[1]}")
    assert ok
