"""Scripted virtual experiments built on the dynamics engine.

Each function reproduces one measurement protocol: detuning-swept trapping
spectra, step-by-step pumping traces with calibrated extraction, dark-state
composition sweeps, multi-resonance scans over the sequence period, the
frequency-comb prediction, and the linewidth limit. Outputs are small
dataclasses ready for the fitting module and the CLI writers.

Spectra follow the flip-probability convention: the emitted signal is the
steady-state excited-state readout calibrated against the far-detuned
baseline (the mean of the two outermost grid points), which corresponds to
an unpumped spin flipping on half the pulses and is therefore mapped to
one-half. Trapping shows up as a dip toward zero, and one minus the dip
minimum reads off the trapped dark fraction. Grid points are independent
simulations, propagated together: one spectrum (or one composition sweep)
is one batch through :func:`~lambda_cpt.dynamics.propagate_periods`, and a
multi-resonance scan runs one such batch per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    ReadoutModel,
    SequenceConfig,
    StepTrace,
    dark_population_estimate,
    detuned_segments,
    propagate_periods,
    run_cpt_sequence,
    segment_generators,
    thermal_ground_state,
)
from .lambda_system import branching_rates, dark_bright_basis

__all__ = [
    "Spectrum",
    "PumpTrace",
    "CompositionSweep",
    "CombPrediction",
    "steady_readout",
    "cpt_spectrum",
    "pump_trace",
    "composition_sweep",
    "apply_artificial_contrast",
    "multi_resonance_scan",
    "comb_predict",
    "linewidth_limit",
    "relaxation_rate_limit",
]


@dataclass(frozen=True)
class Spectrum:
    """Sampled (detuning, signal) series with its protocol snapshot.

    detuning_grid holds the swept delta_2 values (MHz), strictly increasing;
    signal is the steady readout calibrated so the far-detuned level sits
    at one-half (see cpt_spectrum).
    """

    detuning_grid: np.ndarray
    signal: np.ndarray
    delta_1: float = 0.0
    seq: SequenceConfig | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.detuning_grid, dtype=float)
        sig = np.asarray(self.signal, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("detuning grid must be a nonempty 1-d array")
        if len(grid) > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("detuning grid must be strictly increasing")
        if len(sig) != len(grid):
            raise ValueError("signal and grid lengths differ")
        if not np.all(np.isfinite(sig)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "detuning_grid", grid)
        object.__setattr__(self, "signal", sig)


@dataclass(frozen=True)
class PumpTrace:
    """Engine step trace plus the calibrated dark-population estimate.

    p_dark_est[i] estimates the dark population after i full periods from
    the excited-population readouts alone (element 0 is the thermal 0.5).
    """

    trace: StepTrace
    p_dark_est: np.ndarray


@dataclass(frozen=True)
class CompositionSweep:
    """Measured dark-state composition versus the Rabi-frequency ratio."""

    ratios: np.ndarray
    measured: np.ndarray
    ideal: np.ndarray
    p_dark: np.ndarray


@dataclass(frozen=True)
class CombPrediction:
    """Frequency-comb picture of the repeated pulse train.

    Dark resonances sit at integer multiples of 1/t_seq with width
    1/(n_s * t_seq), under an envelope of width 1/t_mw set by the single
    pulse duration.
    """

    dip_centers: np.ndarray
    dip_width: float
    envelope_width: float


def steady_readout(seq: SequenceConfig, delta_1: float, grid: np.ndarray) -> np.ndarray:
    """Uncalibrated steady excited-state readout at each delta_2 of ``grid``.

    Every grid point restarts from the thermal ground state, runs n_reps
    periods, and averages its readouts over the last max(5, n_reps/4)
    periods. The whole grid is one batch.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    if seq.n_reps < 1:
        raise ValueError("n_reps must be at least 1 for a spectrum")
    excited = np.diag([0.0, 0.0, 1.0])
    readouts, _ = propagate_periods(
        detuned_segments(seq, delta_1, grid), thermal_ground_state(), seq.n_reps, [excited]
    )
    window = min(max(5, seq.n_reps // 4), seq.n_reps)
    return np.mean(readouts[:, -window:, 0], axis=1)


def cpt_spectrum(seq: SequenceConfig, delta_1: float, grid: np.ndarray) -> Spectrum:
    """Sweep delta_2 across ``grid`` and record the calibrated steady signal.

    The steady readout of :func:`steady_readout` is calibrated so the mean
    of its two outermost points maps to one-half, the flip probability of an
    unpumped spin; a vanishing baseline (below 1e-12) is left raw.
    """
    grid = np.asarray(grid, dtype=float)
    raw = steady_readout(seq, delta_1, grid)
    baseline = 0.5 * (raw[0] + raw[-1])
    signal = raw / (2.0 * baseline) if baseline > 1e-12 else raw
    return Spectrum(detuning_grid=grid, signal=signal, delta_1=delta_1, seq=seq)


def pump_trace(seq: SequenceConfig, readout: ReadoutModel | None = None) -> PumpTrace:
    """Step-by-step pumping from thermal, with calibrated extraction.

    Requires two-photon resonance (delta_1 = delta_2): off resonance the
    calibration against the first readout loses its meaning.
    """
    if seq.lam.delta_r != 0.0:
        raise ValueError("pump_trace requires delta_1 = delta_2")
    trace, _ = run_cpt_sequence(thermal_ground_state(), seq, readout=readout)
    return PumpTrace(trace=trace, p_dark_est=dark_population_estimate(trace.p_excited))


def composition_sweep(
    seq: SequenceConfig, ratios: np.ndarray, n_steps: int = 20
) -> CompositionSweep:
    """Measure |<down|D>|^2 as a function of the Rabi ratio r = omega_1/omega_2.

    For each ratio the Rabi pair is rescaled at fixed effective Rabi
    frequency (so the pulse area is unchanged), the sequence is run n_steps
    periods, and the |down> population of the final ground manifold is
    inverted through the pumped dark fraction:

        |<down|D>|^2 = (P_down - (1 - P_D)) / (2 P_D - 1)

    using the dark population P_D projected from the same final state.
    Raises ValueError when pumping is too shallow to invert (P_D <= 0.5).
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("empty ratio list")
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive")
    o_eff = seq.lam.omega_eff
    drives, per_ratio = [], []
    for r in ratios:
        o2 = o_eff / math.sqrt(1.0 + r * r)
        lam_r = replace(seq.lam, omega_1=r * o2, omega_2=o2)
        drives.append(lam_r)
        per_ratio.append(
            segment_generators(
                replace(seq, lam=lam_r, relax=branching_rates(seq.relax.gamma, lam_r))
            )
        )
    stacks = np.stack([[gen for gen, _ in segs] for segs in per_ratio], axis=1)
    segments = tuple(zip(stacks, (t for _, t in per_ratio[0])))
    _, final = propagate_periods(segments, thermal_ground_state(), n_steps, [])
    measured = np.empty(len(ratios))
    p_dark = np.empty(len(ratios))
    for i, (r, lam_r, rho) in enumerate(zip(ratios, drives, final)):
        ground = rho[:2, :2]
        g_tot = float(np.real(np.trace(ground)))
        basis = dark_bright_basis(lam_r)
        pd = float(np.real(basis.dark.conj() @ ground @ basis.dark)) / g_tot
        if pd <= 0.5 + 1e-3:
            raise ValueError(
                f"dark population {pd:.3f} at r = {r:g} too shallow to invert"
            )
        p_down = float(np.real(rho[1, 1])) / g_tot
        measured[i] = (p_down - (1.0 - pd)) / (2.0 * pd - 1.0)
        p_dark[i] = pd
    ideal = ratios**2 / (1.0 + ratios**2)
    return CompositionSweep(ratios=ratios, measured=measured, ideal=ideal, p_dark=p_dark)


def apply_artificial_contrast(values: np.ndarray, a: float) -> np.ndarray:
    """Compress a composition curve around 1/2: f = 1/2 + a (values - 1/2)."""
    return 0.5 + a * (np.asarray(values, dtype=float) - 0.5)


def multi_resonance_scan(
    base: SequenceConfig,
    t_seq_list: list[float],
    grid: np.ndarray | None = None,
) -> list[Spectrum]:
    """One spectrum per sequence period; dips appear at delta_r = n/t_seq.

    With grid = None each period gets its own grid spanning +-1.3/t_seq in
    321 points, which covers the central tooth and its first neighbors at
    adequate sampling for any period in the list.
    """
    spectra = []
    for t_seq in t_seq_list:
        seq_t = replace(base, t_seq=float(t_seq))
        g = (
            np.asarray(grid, dtype=float)
            if grid is not None
            else np.linspace(-1.3 / t_seq, 1.3 / t_seq, 321)
        )
        spectra.append(cpt_spectrum(seq_t, base.lam.delta_1, g))
    return spectra


def comb_predict(t_mw: float, t_seq: float, n_s: float, n_max: int) -> CombPrediction:
    """Closed-form comb geometry: centers n/t_seq, width 1/(n_s t_seq)."""
    if t_seq < t_mw:
        raise ValueError("t_seq must be at least t_mw")
    if n_s <= 0:
        raise ValueError("n_s must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    centers = np.arange(-n_max, n_max + 1, dtype=float) / t_seq
    return CombPrediction(
        dip_centers=centers, dip_width=1.0 / (n_s * t_seq), envelope_width=1.0 / t_mw
    )


def linewidth_limit(gamma_1: float, gamma_2n_star: float) -> float:
    """Floor of the trapping linewidth: the larger of the two residual rates."""
    if gamma_1 < 0 or gamma_2n_star < 0:
        raise ValueError("rates must be nonnegative")
    return max(gamma_1, gamma_2n_star)


def relaxation_rate_limit(n_s: float, t1_e: float) -> float:
    """Effective linewidth contribution 1/(n_s t1_e) of electron relaxation."""
    if n_s <= 0 or t1_e <= 0:
        raise ValueError("n_s and t1_e must be positive")
    return 1.0 / (n_s * t1_e)
