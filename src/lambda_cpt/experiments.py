"""Scripted virtual experiments built on the dynamics engine.

Each function reproduces one measurement protocol: detuning-swept trapping
spectra, step-by-step pumping traces with calibrated extraction, dark-state
composition sweeps, multi-resonance scans over the sequence period, and the
frequency-comb prediction. Outputs are small dataclasses ready for the
fitting module and the CLI writers; they hold data only, not the sequence
or readout model that made them (a trace's readout signal is
:meth:`~lambda_cpt.lambda_system.ReadoutModel.signal` of its p_excited).
A spectrum sweeps delta_2 at one delta_1; the multi-resonance scan takes
it from its drive, as the CLI does for every command.

Every protocol calls :func:`~lambda_cpt.dynamics.propagate_periods` itself,
with the observables it reads and the periods it keeps, and calibrates here;
the kernel holds that call to its memory budget before it allocates
anything, and names n_reps or points when it is over.
Spectra follow the flip-probability convention: the steady excited-state
readout is scaled so that the far-detuned baseline (the mean of the two
outermost grid points), an unpumped spin flipping on half the pulses, maps
to one-half; one minus the dip minimum is then the trapped dark fraction. A
pump trace calibrates against its first readout (:func:`dark_population_estimate`).
Grid points are independent runs: a spectrum is one batch of its distinct
detunings (of its distinct |delta_2| at delta_1 = 0, see :func:`cpt_spectrum`),
a multi-resonance scan one batch per period, a composition sweep one run per
ratio; the kernel gives the same bits either way.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    dark_bright_basis,
    period_form,
    propagate_periods,
    pure_state,
    thermal_ground_state,
)
from .lambda_system import SequenceConfig, split_rabi
from .spin_model import FieldError, require

__all__ = [
    "Spectrum",
    "StepTrace",
    "PumpTrace",
    "CompositionSweep",
    "CombPrediction",
    "cpt_spectrum",
    "dark_population_estimate",
    "pump_trace",
    "composition_sweep",
    "apply_artificial_contrast",
    "multi_resonance_scan",
    "comb_predict",
]

log = logging.getLogger("lambda_cpt.experiments")


@dataclass(frozen=True)
class Spectrum:
    """Sampled (detuning, signal) series.

    detuning_grid holds the swept delta_2 values (MHz), strictly increasing;
    signal is the steady readout calibrated so the far-detuned level sits
    at one-half (see cpt_spectrum).
    """

    detuning_grid: np.ndarray
    signal: np.ndarray

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
class StepTrace:
    """Per-period populations at the readout instant (just before the laser).

    All arrays have length n_reps; ``step`` counts from 1. The readout
    signal is :meth:`~lambda_cpt.lambda_system.ReadoutModel.signal` of
    p_excited.
    """

    step: np.ndarray
    p_dark: np.ndarray
    p_bright: np.ndarray
    p_excited: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


@dataclass(frozen=True)
class PumpTrace:
    """Step trace plus the calibrated dark-population estimate.

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


def _median(values: np.ndarray) -> float:
    """The median of a nonempty 1-d array, the mean of its middle one or two values, by sorting."""
    ordered = np.sort(values)
    return float(np.mean(ordered[(len(ordered) - 1) // 2 : len(ordered) // 2 + 1]))


def cpt_spectrum(seq: SequenceConfig, delta_1: float, grid: np.ndarray) -> Spectrum:
    """Sweep delta_2 across ``grid`` and record the calibrated steady signal.

    Every grid point runs seq.n_reps periods from the thermal ground state,
    all in one batch, and reads its excited population over the last max(5,
    n_reps/4) periods alone; their mean is its steady readout. Each distinct
    value runs once, and at delta_1 = 0 that value is |delta_2|: there the
    period at -delta_2 is the one at delta_2 conjugated by rho -> P rho*
    P^dagger (P diagonal), which keeps every population, so a population
    read from the thermal state is even in delta_2. A point's readout so
    depends on its own detuning alone, not on the rest of the grid. The
    mean of the two outermost readouts maps to one-half, the flip
    probability of an unpumped spin. Raises ValueError for an empty grid, and when that
    baseline is not above 1e-12, or is below half the median readout: then
    the edges sit in dips (say, a grid spanning exactly +-1/t_seq of a
    comb), not on the far-detuned level, and cannot calibrate the spectrum.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    excited = np.diag([0.0, 0.0, 1.0])
    runs, where = np.unique(np.abs(grid) if delta_1 == 0 else grid, return_inverse=True)
    log.debug("cpt_spectrum: %d points, %d runs", grid.size, runs.size)
    period = period_form(replace(seq, lam=replace(seq.lam, delta_1=delta_1)), runs)
    readouts, _ = propagate_periods(
        period, thermal_ground_state(), _steady_window(seq.n_reps), [excited]
    )
    raw = np.mean(readouts[..., 0], axis=1)[where]
    baseline = 0.5 * (raw[0] + raw[-1])
    median = _median(raw)
    if not (baseline > 1e-12 and baseline >= 0.5 * median):
        raise ValueError(
            f"baseline readout {baseline:.3g} too small to calibrate the spectrum: the edge "
            f"readouts must average above 1e-12 and at least half the median {median:.3g}"
        )
    return Spectrum(detuning_grid=grid, signal=raw / (2.0 * baseline))


def _steady_window(n_reps: int) -> range:
    """The periods a spectrum reads and averages: the last max(5, n_reps / 4), or all of n_reps."""
    return range(max(n_reps - max(5, n_reps // 4), 0), n_reps)


def dark_population_estimate(p_minus: np.ndarray) -> np.ndarray:
    """Calibrated dark-population estimate from an excited-population series.

    The first readout of a thermally initialized sequence measures half the
    per-pulse transfer probability, so it doubles as the calibration point:
    the estimate after n full periods is 1 - P_-(n+1) / (2 P_-(1)). Element
    i of the result is the estimated dark population after i periods
    (element 0 is the thermal 0.5 by construction).
    """
    p = np.asarray(p_minus, dtype=float)
    if len(p) == 0:
        raise ValueError("empty readout series")
    if p[0] < 1e-6:
        raise ValueError("first readout too small to calibrate against")
    return 1.0 - p / (2.0 * p[0])


# |->, |up> and |down> as the last three rows of pump_trace's states; the
# first two rows take the drive's dark and bright states.
_PUMP_STATES = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def pump_trace(seq: SequenceConfig) -> PumpTrace:
    """Step-by-step pumping from thermal, with calibrated extraction.

    Reads five populations just before each of seq.n_reps laser pulses.
    Requires two-photon resonance (delta_1 = delta_2): off resonance the
    calibration against the first readout loses its meaning.
    """
    require(seq.lam.delta_r == 0.0, "delta_1", "equal to delta_2 for a pumping trace")
    # The states read, one row each: dark, bright, |->, |up>, |down>; their
    # projectors come in one broadcast.
    states = _PUMP_STATES.copy()
    states[:2, :2] = dark_bright_basis(seq.lam)
    observables = states[:, :, None] * states[:, None].conj()
    readouts, _ = propagate_periods(
        period_form(seq), thermal_ground_state(), range(seq.n_reps), observables
    )
    p_dark, p_bright, p_excited, p_up, p_down = readouts[0].T
    trace = StepTrace(
        step=np.arange(1, seq.n_reps + 1),
        p_dark=p_dark,
        p_bright=p_bright,
        p_excited=p_excited,
        p_up=p_up,
        p_down=p_down,
    )
    return PumpTrace(trace=trace, p_dark_est=dark_population_estimate(p_excited))


def composition_sweep(seq: SequenceConfig, ratios: np.ndarray) -> CompositionSweep:
    """Measure |<down|D>|^2 as a function of the Rabi ratio r = omega_1/omega_2.

    For each ratio the Rabi pair is rescaled at fixed effective Rabi
    frequency (so the pulse area is unchanged), the sequence is run
    seq.n_reps periods, and the |down> population of the final ground
    manifold is inverted through the pumped dark fraction:

        |<down|D>|^2 = (P_down - (1 - P_D)) / (2 P_D - 1)

    using the dark population P_D of the same final state. Both are read
    off the final state as observables, each a ratio to the ground trace.
    Raises ValueError when pumping is too shallow to invert (P_D <= 0.5),
    and FieldError naming ratios when a rescaled drive breaks a rule of its
    dataclass: at omega_eff = 1e-150 MHz, its floor, the pair can round
    below it.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("empty ratio list")
    require(np.all((ratios > 0) & (ratios < np.inf)), "ratios", "finite and positive")
    o_eff = seq.lam.omega_eff
    measured = np.empty(len(ratios))
    for i, r in enumerate(ratios):
        omega_1, omega_2 = split_rabi(o_eff, r)
        try:
            seq_r = replace(seq, lam=replace(seq.lam, omega_1=omega_1, omega_2=omega_2))
        except FieldError as exc:
            raise FieldError("ratios", f"ones the rescaled drive takes (r = {r:g}: {exc})") from exc
        dark = pure_state(np.append(dark_bright_basis(seq_r.lam)[0], 0.0))
        _, ((dark_weight, down, ground),) = propagate_periods(
            period_form(seq_r),
            thermal_ground_state(),
            range(seq.n_reps, seq.n_reps),
            [dark, np.diag([0.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.0])],
        )
        pd = dark_weight / ground
        if pd <= 0.5 + 1e-3:
            raise ValueError(
                f"dark population {pd:.3f} at r = {r:g} too shallow to invert"
            )
        p_down = down / ground
        measured[i] = (p_down - (1.0 - pd)) / (2.0 * pd - 1.0)
    # r^2 / (1 + r^2), written so that r^2 never overflows.
    ideal = (ratios / np.hypot(1.0, ratios)) ** 2
    return CompositionSweep(ratios=ratios, measured=measured, ideal=ideal)


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
    adequate sampling for any period in the list. That grid is mirrored
    exactly, grid == -grid[::-1], 161 points from 0 to 1.3/t_seq and their
    negatives, so at delta_1 = 0 each spectrum runs 161 detunings.
    """
    spectra = []
    for t_seq in t_seq_list:
        seq_t = replace(base, t_seq=float(t_seq))
        if grid is None:
            half = np.linspace(0.0, 1.3 / t_seq, 161)
            g = np.concatenate((-half[:0:-1], half))
        else:
            g = np.asarray(grid, dtype=float)
        spectra.append(cpt_spectrum(seq_t, base.lam.delta_1, g))
    return spectra


def comb_predict(t_mw: float, t_seq: float, n_s: float, n_max: int) -> CombPrediction:
    """Closed-form comb geometry: centers n/t_seq, width 1/(n_s t_seq).

    Raises FieldError naming t_mw or n_s when the envelope width 1/t_mw or
    the dip width 1/(n_s t_seq) is not finite.
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
    centers = np.arange(-n_max, n_max + 1, dtype=float) / t_seq
    return CombPrediction(
        dip_centers=centers, dip_width=1.0 / (n_s * t_seq), envelope_width=1.0 / t_mw
    )
