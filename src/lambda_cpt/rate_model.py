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

The module also holds the paper's two other closed forms, which the CLI
prints without loading numpy: the comb of dark resonances at n/t_seq
(:func:`comb_predict`) and the contrast fit of the dark-state composition
r^2/(1+r^2) (:func:`fit_contrast_curve`). Nothing here imports numpy.
"""

from __future__ import annotations

import math
import numbers
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
    "CombPrediction",
    "comb_predict",
    "fit_contrast_curve",
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


@dataclass(frozen=True)
class CombPrediction:
    """Frequency-comb picture of the repeated pulse train.

    Dark resonances sit at integer multiples of 1/t_seq with width
    1/(n_s * t_seq), under an envelope of width 1/t_mw set by the single
    pulse duration.
    """

    dip_centers: tuple[float, ...]
    dip_width: float
    envelope_width: float


def comb_predict(t_mw: float, t_seq: float, n_s: float, n_max: int) -> CombPrediction:
    """Closed-form comb geometry: centers n/t_seq for |n| <= n_max, width 1/(n_s t_seq).

    Raises FieldError naming t_mw or n_s when the envelope width 1/t_mw or
    the dip width 1/(n_s t_seq) is not finite, t_seq when it is below t_mw,
    and n_max unless it is an integer >= 0.
    """
    require(
        0 < t_mw < math.inf and 1.0 / t_mw < math.inf,
        "t_mw",
        "finite and positive, with 1/t_mw finite",
    )
    require(t_mw <= t_seq < math.inf, "t_seq", "finite and at least t_mw")
    require(
        0 < n_s < math.inf and 0 < n_s * t_seq and 1.0 / (n_s * t_seq) < math.inf,
        "n_s",
        "finite and positive, with 1/(n_s t_seq) finite",
    )
    require(isinstance(n_max, numbers.Integral) and n_max >= 0, "n_max", "an integer >= 0")
    centers = tuple(n / t_seq for n in range(-n_max, n_max + 1))
    return CombPrediction(
        dip_centers=centers, dip_width=1.0 / (n_s * t_seq), envelope_width=1.0 / t_mw
    )


def fit_contrast_curve(ratios, values) -> float:
    """Closed-form contrast a of f(r) = 1/2 + a (r^2/(1+r^2) - 1/2).

    ``values[i]`` is the probability measured at Rabi ratio ``ratios[i]``;
    both are 1-D sequences of real numbers. The model is linear in a, so the
    least-squares solution is a single quotient. Raises ValueError unless
    there are at least 3 finite pairs of equal-length 1-D inputs, or when
    every abscissa sits at the degenerate 1/2.
    """
    try:
        r, f = list(ratios), list(values)
    except TypeError:  # a scalar
        r = f = []
    reals = all(isinstance(v, numbers.Real) and math.isfinite(v) for v in r + f)
    if len(r) != len(f) or len(r) < 3 or not reals:
        raise ValueError("need at least 3 finite (ratio, probability) pairs")
    # r^2 / (1 + r^2) - 1/2, with no r^2 to overflow
    x = [(ri / math.hypot(1.0, ri)) ** 2 - 0.5 for ri in r]
    denom = math.fsum(xi * xi for xi in x)
    if denom < 1e-15:
        raise ValueError("all ratios give the degenerate composition 1/2")
    return math.fsum(xi * (fi - 0.5) for xi, fi in zip(x, f)) / denom
