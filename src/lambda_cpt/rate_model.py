"""Closed-form rate model of sequential dark-state pumping.

One pumping step is: a microwave pulse of area A converts the bright
fraction of the ground population into excited population, then a laser
pulse of duration delta_t repolarizes the excited state into dark/bright
with branching alpha_p while dephasing the ground coherence at gamma_dp.
Composing the two gives an affine map P_D -> a*P_D + b per step, which this
module provides together with its closed-form N-step solution, the
characteristic step number N_s, and the steady state.

The model assumes the laser empties the excited state completely
(gamma * delta_t >> 1) and requires gamma > gamma_dp, the validity domain
of the closed-form laser transient. Inside its domain it is the density-
matrix engine's pumping trace (:func:`lambda_cpt.experiments.pump_trace`)
to within e^{-gamma delta_t / 2}, what the laser leaves of |-> and its
coherences: both tones on resonance (delta_1 = delta_2 = 0), waits with
no dephasing or T1 (gamma_2n = 0, t1_e = inf), gamma > gamma_dp, and
either gamma_dp = 0 or balanced tones (omega_1 = omega_2). The engine
dephases the |up>-|down> coherence, while the model relaxes the
dark/bright imbalance, and the two are the same only for balanced tones;
with unbalanced tones and gamma_dp > 0 they differ by a few percent or
more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spin_model import require

__all__ = [
    "PumpStepParams",
    "SimplifiedParams",
    "step_map",
    "population_after_n",
    "characteristic_steps",
    "steady_state",
    "simplified_population",
    "simplified_from_step",
    "gamma_dp_for_alpha_dp",
    "laser_transient",
]


@dataclass(frozen=True)
class PumpStepParams:
    """Physical inputs of one pumping step.

    alpha_p: branching probability into the dark state, in [0, 1].
    pulse_area: microwave pulse area A (rad).
    gamma: optical repolarization rate (1/us).
    gamma_dp: laser-induced nuclear dephasing rate (1/us).
    delta_t: laser pulse duration (us).
    """

    alpha_p: float
    pulse_area: float
    gamma: float
    gamma_dp: float
    delta_t: float

    def __post_init__(self) -> None:
        require(0 <= self.alpha_p <= 1, "alpha_p", "in [0, 1]")
        require(math.isfinite(self.pulse_area), "pulse_area", "finite")
        require(0 <= self.gamma_dp < math.inf, "gamma_dp", "finite and nonnegative")
        require(self.gamma_dp < self.gamma < math.inf, "gamma", "finite and above gamma_dp")
        require(0 <= self.delta_t < math.inf, "delta_t", "finite and nonnegative")


@dataclass(frozen=True)
class SimplifiedParams:
    """Per-step probabilities of the two competing processes.

    alpha_p_eff: effective pumping probability alpha_p * sin^2(A/2).
    alpha_dp: per-step depolarization probability.
    """

    alpha_p_eff: float
    alpha_dp: float

    def __post_init__(self) -> None:
        require(0 <= self.alpha_p_eff <= 1, "alpha_p_eff", "in [0, 1]")
        require(0 <= self.alpha_dp <= 1, "alpha_dp", "in [0, 1]")


def step_map(p: PumpStepParams) -> tuple[float, float]:
    """Affine coefficients (a, b) of the per-step map P_D(N) = a P_D(N-1) + b.

    With x = gamma_dp * delta_t and the pumped fraction

        K = sin^2(A/2) (gamma alpha_p - gamma_dp/2) / (gamma - gamma_dp)

    the step map is a = e^{-x} (1 - K) and b = (1 - e^{-x})/2 + K e^{-x}.
    The pumping term in b carries the e^{-x} factor: population pumped into
    the dark state during the pulse is itself exposed to the dephasing, so
    both coefficients see the same attenuation. In this form the map is
    exactly the simplified two-probability model with alpha_p_eff = K and
    alpha_dp = 1 - e^{-x}.
    """
    k = _pumped_fraction(p)
    decay = math.exp(-p.gamma_dp * p.delta_t)
    a = decay * (1.0 - k)
    b = 0.5 * (1.0 - decay) + k * decay
    return a, b


def _pumped_fraction(p: PumpStepParams) -> float:
    """The pumped fraction K of :func:`step_map`."""
    pumping = p.gamma * p.alpha_p - p.gamma_dp / 2.0
    return math.sin(p.pulse_area / 2.0) ** 2 * pumping / (p.gamma - p.gamma_dp)


def population_after_n(a: float, b: float, p0: float, n: int) -> float:
    """Closed form of n applications of P -> a P + b starting from p0.

    P(n) = b/(1-a) + a^n (p0 - b/(1-a)); the a = 1 boundary degenerates to
    the arithmetic sequence p0 + n*b.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if a == 1.0:
        return p0 + n * b
    fixed = b / (1.0 - a)
    return fixed + a**n * (p0 - fixed)


def _survival(params: SimplifiedParams) -> float:
    """Per-step survival factor 1 - alpha_p_eff - alpha_dp (1 - alpha_p_eff)."""
    return 1.0 - params.alpha_p_eff - params.alpha_dp * (1.0 - params.alpha_p_eff)


def characteristic_steps(params: SimplifiedParams) -> float:
    """Characteristic number of steps N_s = -1/ln(survival factor).

    Returns 0.0 when the survival factor is not positive (the steady state
    is reached within a single step).
    """
    if params.alpha_p_eff == 0.0 and params.alpha_dp == 0.0:
        raise ValueError("alpha_p_eff and alpha_dp cannot both vanish")
    m = _survival(params)
    if m <= 0.0:
        return 0.0
    return -1.0 / math.log(m)


def steady_state(params: SimplifiedParams) -> float:
    """Steady-state dark population of the pumping/depolarization balance.

    P_D(inf) = [alpha_p_eff + alpha_dp (1/2 - alpha_p_eff)]
             / [alpha_p_eff + alpha_dp (1 - alpha_p_eff)]
    """
    if params.alpha_p_eff == 0.0 and params.alpha_dp == 0.0:
        raise ValueError("alpha_p_eff and alpha_dp cannot both vanish")
    ape, adp = params.alpha_p_eff, params.alpha_dp
    return (ape + adp * (0.5 - ape)) / (ape + adp * (1.0 - ape))


def simplified_population(params: SimplifiedParams, p0: float, n: int) -> float:
    """Dark population after n steps in the two-probability model.

    Exponential saturation toward :func:`steady_state`; identical to the
    affine map with a = survival factor, b = (1 - a) * steady state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p_inf = steady_state(params)
    return p_inf - (p_inf - p0) * _survival(params) ** n


def simplified_from_step(p: PumpStepParams) -> SimplifiedParams:
    """The two per-step probabilities of p: K and 1 - e^{-x} of :func:`step_map`."""
    alpha_dp = -math.expm1(-p.gamma_dp * p.delta_t)
    return SimplifiedParams(alpha_p_eff=_pumped_fraction(p), alpha_dp=alpha_dp)


def gamma_dp_for_alpha_dp(alpha_dp: float, t_laser: float) -> float:
    """Dephasing rate that realizes a per-step depolarization probability.

    alpha_dp = 1 - e^{-gamma_dp t_laser}, so gamma_dp = -ln(1 - alpha_dp) /
    t_laser; a laser pulse so short that this overflows is rejected.
    """
    require(0 < t_laser < math.inf, "t_laser", "finite and positive")
    require(0 <= alpha_dp < 1, "alpha_dp", "in [0, 1)")
    gamma_dp = -math.log(1.0 - alpha_dp) / t_laser
    require(math.isfinite(gamma_dp), "t_laser", "long enough that gamma_dp is finite")
    return gamma_dp


def laser_transient(
    p: PumpStepParams, p_minus0: float, p_dark0: float, p_bright0: float, t: float
) -> tuple[float, float, float]:
    """Populations (P_-, P_D, P_B) a time t into the laser pulse.

    Solves the coupled rate equations

        dP_-/dt = -gamma P_-
        dP_D/dt = gamma alpha_p P_- + gamma_dp (P_B - P_D)/2
        dP_B/dt = gamma (1-alpha_p) P_- + gamma_dp (P_D - P_B)/2

    in closed form: the excited population decays at gamma, the total ground
    population grows by what leaves it, and the dark/bright imbalance relaxes
    at gamma_dp while being fed by the branching asymmetry.
    """
    g, gdp, ap = p.gamma, p.gamma_dp, p.alpha_p
    e_g = math.exp(-g * t)
    e_d = math.exp(-gdp * t)
    p_minus = p_minus0 * e_g
    total_ground = p_dark0 + p_bright0 + p_minus0 * (1.0 - e_g)
    imbalance = (p_dark0 - p_bright0) * e_d + (2.0 * ap - 1.0) * g * p_minus0 * (
        e_d - e_g
    ) / (g - gdp)
    p_dark = (total_ground + imbalance) / 2.0
    p_bright = (total_ground - imbalance) / 2.0
    return p_minus, p_dark, p_bright
