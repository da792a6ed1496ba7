"""Rate-model tests: closed forms against brute-force iteration and an ODE oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lambda_cpt.rate_model import (
    PumpStepParams,
    SimplifiedParams,
    characteristic_steps,
    gamma_dp_for_alpha_dp,
    laser_transient,
    population_after_n,
    simplified_from_step,
    simplified_population,
    steady_state,
    step_map,
)
from lambda_cpt.spin_model import FieldError

# Canonical pumping regime: effective pumping probability 0.43 per step,
# depolarization probability 0.12 per step.
CANONICAL = SimplifiedParams(alpha_p_eff=0.43, alpha_dp=0.12)
N_S_CANONICAL = 1.4493755799952808
P_INF_CANONICAL = 0.8796147672552167
P_AFTER_3 = 0.831705924352
GAMMA_DP_BRIDGE = 0.42611123836628295

# Physical step parameters realizing approximately the canonical regime
# through the engine’s branching and dephasing channels.
PHYSICAL = PumpStepParams(
    alpha_p=0.43,
    pulse_area=math.pi,
    gamma=20.0,
    gamma_dp=GAMMA_DP_BRIDGE,
    delta_t=0.3,
)
K_PHYSICAL = 0.428476144058604


def test_step_map_without_dephasing():
    p = PumpStepParams(alpha_p=0.7, pulse_area=math.pi, gamma=20.0, gamma_dp=0.0, delta_t=0.3)
    a, b = step_map(p)
    assert a == pytest.approx(0.3, abs=1e-15)
    assert b == pytest.approx(0.7, abs=1e-15)


def test_step_map_area_scaling():
    # Half pulse area transfers sin^2(A/2) of the bright population.
    p = PumpStepParams(
        alpha_p=1.0, pulse_area=math.pi / 2.0, gamma=20.0, gamma_dp=0.0, delta_t=0.3
    )
    a, b = step_map(p)
    assert b == pytest.approx(0.5, abs=1e-15)
    assert a + b == pytest.approx(1.0, abs=1e-15)


def test_step_map_physical_frozen():
    a, b = step_map(PHYSICAL)
    decay = math.exp(-PHYSICAL.gamma_dp * PHYSICAL.delta_t)
    k = 1.0 - a / decay
    assert k == pytest.approx(K_PHYSICAL, abs=1e-12)
    assert abs(k - 0.43) < 0.02
    assert b == pytest.approx(0.5 * (1.0 - decay) + k * decay, abs=1e-15)


def test_simplified_from_step_at_strong_dephasing():
    # e^{-gamma_dp delta_t} = e^{-1000} underflows to 0; K = 1 - a/decay
    # divided by it.
    simplified = simplified_from_step(
        PumpStepParams(alpha_p=0.43, pulse_area=math.pi, gamma=2000.0, gamma_dp=1000.0, delta_t=1.0)
    )
    assert simplified.alpha_p_eff == pytest.approx(0.36, abs=1e-15)
    assert simplified.alpha_dp == 1.0


def test_simplified_from_step_roundtrip():
    simplified = simplified_from_step(PHYSICAL)
    assert simplified.alpha_dp == pytest.approx(0.12, abs=1e-12)
    assert simplified.alpha_p_eff == pytest.approx(K_PHYSICAL, abs=1e-12)
    # The affine map and the two-probability model are the same recursion.
    a, b = step_map(PHYSICAL)
    for n in (1, 2, 5, 20):
        assert simplified_population(simplified, 0.5, n) == pytest.approx(
            population_after_n(a, b, 0.5, n), abs=1e-12
        )


def test_closed_form_equals_iteration():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = rng.uniform(0.0, 0.999)
        b = rng.uniform(0.0, 1.0 - a)
        p0 = rng.uniform(0.0, 1.0)
        n = int(rng.integers(0, 60))
        p = p0
        for _ in range(n):
            p = a * p + b
        assert population_after_n(a, b, p0, n) == pytest.approx(p, abs=1e-12)


def test_closed_form_boundary_a_equal_one():
    assert population_after_n(1.0, 0.01, 0.2, 30) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        population_after_n(0.5, 0.25, 0.5, -1)


def test_characteristic_steps_frozen():
    n_s = characteristic_steps(CANONICAL)
    assert n_s == pytest.approx(N_S_CANONICAL, abs=1e-12)
    # The value rounds to the handbook 1.4497 only at the 1e-3 level.
    assert abs(n_s - 1.4497) < 1e-3


def test_steady_state_frozen():
    assert steady_state(CANONICAL) == pytest.approx(P_INF_CANONICAL, abs=1e-15)


def test_population_after_three_steps_frozen():
    assert simplified_population(CANONICAL, 0.5, 3) == pytest.approx(P_AFTER_3, abs=1e-12)


def test_steady_state_limits():
    # Pure pumping polarizes completely; pure depolarization stays thermal.
    assert steady_state(SimplifiedParams(alpha_p_eff=0.3, alpha_dp=0.0)) == 1.0
    assert steady_state(SimplifiedParams(alpha_p_eff=0.0, alpha_dp=0.3)) == 0.5
    with pytest.raises(ValueError):
        steady_state(SimplifiedParams(alpha_p_eff=0.0, alpha_dp=0.0))
    with pytest.raises(ValueError):
        characteristic_steps(SimplifiedParams(alpha_p_eff=0.0, alpha_dp=0.0))


def test_characteristic_steps_degenerate():
    # Survival factor zero or below: the steady state is reached in one step.
    assert characteristic_steps(SimplifiedParams(alpha_p_eff=1.0, alpha_dp=0.0)) == 0.0
    assert characteristic_steps(SimplifiedParams(alpha_p_eff=1.0, alpha_dp=1.0)) == 0.0


def test_saturation_is_monotonic():
    values = [simplified_population(CANONICAL, 0.5, n) for n in range(40)]
    diffs = np.diff(values)
    assert np.all(diffs > -1e-15)
    assert values[-1] == pytest.approx(P_INF_CANONICAL, abs=1e-4)


def test_gamma_dp_bridge():
    gdp = gamma_dp_for_alpha_dp(0.12, 0.3)
    assert gdp == pytest.approx(GAMMA_DP_BRIDGE, abs=1e-15)
    assert 1.0 - math.exp(-gdp * 0.3) == pytest.approx(0.12, abs=1e-15)
    with pytest.raises(ValueError):
        gamma_dp_for_alpha_dp(1.0, 0.3)
    with pytest.raises(ValueError):
        gamma_dp_for_alpha_dp(0.1, 0.0)
    # A subnormal pulse length would give gamma_dp = inf; the length is at fault.
    with pytest.raises(FieldError) as err:
        gamma_dp_for_alpha_dp(0.5, 1e-320)
    assert err.value.field == "t_laser"


def test_laser_transient_against_ode_oracle():
    """Closed form versus scipy integration of the defining rate equations."""
    p = PumpStepParams(alpha_p=0.37, pulse_area=math.pi, gamma=18.0, gamma_dp=1.3, delta_t=0.3)

    def rhs(_, y):
        p_minus, p_dark, p_bright = y
        return [
            -p.gamma * p_minus,
            p.gamma * p.alpha_p * p_minus + p.gamma_dp * (p_bright - p_dark) / 2.0,
            p.gamma * (1.0 - p.alpha_p) * p_minus + p.gamma_dp * (p_dark - p_bright) / 2.0,
        ]

    y0 = [0.35, 0.45, 0.20]
    for t in (0.01, 0.05, 0.12, 0.3, 0.8):
        sol = solve_ivp(rhs, (0.0, t), y0, rtol=1e-11, atol=1e-13, dense_output=True)
        expected = sol.y[:, -1]
        got = laser_transient(p, *y0, t)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-8)


def test_laser_transient_conserves_population():
    p = PumpStepParams(alpha_p=0.6, pulse_area=math.pi, gamma=25.0, gamma_dp=0.8, delta_t=0.3)
    y0 = (0.3, 0.5, 0.2)
    for t in (0.0, 0.07, 0.4):
        p_minus, p_dark, p_bright = laser_transient(p, *y0, t)
        assert p_minus + p_dark + p_bright == pytest.approx(1.0, abs=1e-12)
    assert laser_transient(p, *y0, 0.0) == pytest.approx(y0, abs=1e-15)


def test_step_map_composes_transient():
    # One full step = microwave transfer of the bright fraction followed by
    # the laser transient; the affine map assumes the laser empties the
    # excited state, accurate to e^{-gamma delta_t} here.
    a, b = step_map(PHYSICAL)
    for p_dark0 in (0.2, 0.5, 0.85):
        transferred = math.sin(PHYSICAL.pulse_area / 2.0) ** 2 * (1.0 - p_dark0)
        _, p_dark, _ = laser_transient(
            PHYSICAL, transferred, p_dark0, 1.0 - p_dark0 - transferred, PHYSICAL.delta_t
        )
        assert p_dark == pytest.approx(a * p_dark0 + b, abs=5e-3)


def test_validation():
    with pytest.raises(ValueError):
        PumpStepParams(alpha_p=1.2, pulse_area=math.pi, gamma=20.0, gamma_dp=0.0, delta_t=0.3)
    with pytest.raises(ValueError):
        PumpStepParams(alpha_p=0.5, pulse_area=math.pi, gamma=1.0, gamma_dp=2.0, delta_t=0.3)
    with pytest.raises(ValueError):
        SimplifiedParams(alpha_p_eff=-0.1, alpha_dp=0.0)
    with pytest.raises(ValueError):
        simplified_population(CANONICAL, 0.5, -2)
