"""Density-matrix propagation through the pulsed trapping sequence.

The simulation state is a 3x3 density matrix over (|up>, |down>, |->): the
two nuclear ground states and the one excited state of the microwave Lambda
scheme. One sequence period is

    microwave pulse -> dark wait -> laser pulse -> wait,

stretched to a total duration t_seq by enlarging the pre-laser dark wait.
Everything is propagated in the rotating frame of the two microwave tones,
whose phases are assumed coherent across periods; during drive-free
segments the frame Hamiltonian diag(0, -delta_r, -delta_1) keeps winding,
which is what pins the dark resonances of a long scan to integer multiples
of 1/t_seq.

Dissipation is Lindblad-type: the laser repolarizes |-> into the dark and
bright states at the branching rates and dephases the ground coherence at
gamma_dp; waits can carry a slow intrinsic dephasing gamma_2n and an
electron T1 channel. The microwave pulse stays coherent. This rule lives in
one place, :func:`segment_generators`, which every segment function and the
pulse train build on. Each segment's propagator is the exact matrix
exponential of its 9x9 generator, precomputed once per sequence.

Units: MHz and us everywhere at the interface; the 2*pi sits inside the
generators only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .lambda_system import (
    BranchingRates,
    LambdaBasis,
    LambdaConfig,
    branching_rates,
    dark_bright_basis,
)

__all__ = [
    "DensityMatrix",
    "SequenceConfig",
    "ReadoutModel",
    "StepTrace",
    "DEFAULT_READOUT",
    "thermal_ground_state",
    "pure_state",
    "rwa_generator",
    "free_generator",
    "liouvillian",
    "segment_generators",
    "evolve_pulse",
    "apply_laser",
    "apply_wait",
    "run_cpt_sequence",
    "readout_signal",
    "invert_calibration",
    "dark_population_estimate",
]

TWO_PI = 2.0 * math.pi

# A density matrix is a plain 3x3 complex ndarray; Hermitian, unit trace,
# nonnegative spectrum. Kept as an alias rather than a wrapper class so the
# hot loop stays allocation-free.
DensityMatrix = np.ndarray


@dataclass(frozen=True)
class SequenceConfig:
    """Timing, drive, and dissipation of the repeated trapping sequence.

    t_seq defaults to the packed duration t_mw + t_wait_pre + t_laser +
    t_wait_post; any surplus stretches the pre-laser dark wait. gamma_2n and
    t1_e are optional decoherence channels acting during the waits.
    """

    lam: LambdaConfig
    relax: BranchingRates
    gamma_dp: float = 0.0
    t_mw: float = 6.0
    t_wait_pre: float = 0.1
    t_laser: float = 0.3
    t_wait_post: float = 1.0
    t_seq: float | None = None
    n_reps: int = 40
    gamma_2n: float = 0.0
    t1_e: float = math.inf

    def __post_init__(self) -> None:
        for name in ("t_mw", "t_wait_pre", "t_laser", "t_wait_post"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.gamma_dp < 0 or self.gamma_2n < 0:
            raise ValueError("dephasing rates must be nonnegative")
        if self.t1_e <= 0:
            raise ValueError("t1_e must be positive (use math.inf to disable)")
        if self.n_reps < 0:
            raise ValueError("n_reps must be nonnegative")
        if self.t_seq is None:
            object.__setattr__(self, "t_seq", self.packed_duration)
        elif self.t_seq < self.packed_duration - 1e-9:
            raise ValueError(
                "t_seq must not be shorter than the packed duration "
                f"{self.packed_duration:g} us"
            )

    @property
    def packed_duration(self) -> float:
        return self.t_mw + self.t_wait_pre + self.t_laser + self.t_wait_post

    @property
    def wait_pre_total(self) -> float:
        """Pre-laser wait including the slack that stretches t_seq."""
        return self.t_wait_pre + (self.t_seq - self.packed_duration)

    @classmethod
    def from_drive(cls, lam: LambdaConfig, gamma: float = 20.0, **kwargs) -> "SequenceConfig":
        """Convenience constructor deriving the branching rates from the drive."""
        return cls(lam=lam, relax=branching_rates(gamma, lam), **kwargs)


@dataclass(frozen=True)
class ReadoutModel:
    """Linear map from excited population to photoluminescence level.

    signal = reference_0 * (1 - contrast * P_-); reference_1 is the fully
    excited level reference_0 * (1 - contrast).
    """

    contrast: float = 0.3
    reference_0: float = 1.0
    reference_1: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        if self.reference_0 <= 0:
            raise ValueError("reference_0 must be positive")
        expected = self.reference_0 * (1.0 - self.contrast)
        if self.reference_1 is None:
            object.__setattr__(self, "reference_1", expected)
        elif abs(self.reference_1 - expected) > 1e-9 * self.reference_0:
            raise ValueError("reference_1 must equal reference_0 * (1 - contrast)")


DEFAULT_READOUT = ReadoutModel()


@dataclass(frozen=True)
class StepTrace:
    """Per-period populations at the readout instant (just before the laser).

    All arrays have length n_reps; ``step`` counts from 1. ``signal`` is the
    readout model applied to p_excited.
    """

    step: np.ndarray
    p_dark: np.ndarray
    p_bright: np.ndarray
    p_excited: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    signal: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


def thermal_ground_state() -> DensityMatrix:
    """Unpolarized nuclear state: equal ground populations, empty excited state."""
    return np.diag([0.5, 0.5, 0.0]).astype(complex)


def pure_state(vec: np.ndarray) -> DensityMatrix:
    """Projector |v><v| of a (normalized) 3-component state vector."""
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def rwa_generator(cfg: LambdaConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Lambda scheme (rad/us).

    In the (|up>, |down>, |->) basis:

        H = 2 pi [[0,        0,                  omega_1/2        ],
                  [0,        -delta_r,           (omega_2/2) e^{+i psi}],
                  [omega_1/2, (omega_2/2) e^{-i psi}, -delta_1    ]]

    The psi placement is fixed by requiring <D|H|-> = 0 at delta_r = 0 for
    every psi, with the dark state of :func:`dark_bright_basis`.
    """
    o1 = cfg.omega_1 / 2.0
    o2 = cfg.omega_2 / 2.0 * np.exp(1j * cfg.psi)
    return TWO_PI * np.array(
        [
            [0.0, 0.0, o1],
            [0.0, -cfg.delta_r, o2],
            [o1, np.conj(o2), -cfg.delta_1],
        ],
        dtype=complex,
    )


def free_generator(cfg: LambdaConfig) -> np.ndarray:
    """Drive-free rotating-frame Hamiltonian diag(0, -delta_r, -delta_1) (rad/us)."""
    return TWO_PI * np.diag([0.0, -cfg.delta_r, -cfg.delta_1]).astype(complex)


def liouvillian(h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    """9x9 generator of d vec(rho)/dt for row-major vectorization.

    L = -i (H (x) I - I (x) H^T) + sum_J [J (x) J* - (J'J (x) I + I (x) (J'J)^T)/2]
    """
    eye = np.eye(3, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jumps:
        jdj = j.conj().T @ j
        gen += np.kron(j, j.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    return gen


def _dephasing_jump(rate: float) -> np.ndarray:
    """Pure ground-coherence dephasing: rho_updown decays as e^{-rate*t}."""
    return math.sqrt(rate / 2.0) * np.diag([1.0, -1.0, 0.0]).astype(complex)


def _laser_jumps(relax: BranchingRates, basis: LambdaBasis, gamma_dp: float) -> list[np.ndarray]:
    """Laser channels: |D><-| at gamma_d, |B><-| at gamma_b, dephasing at gamma_dp."""
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    dark3 = np.append(basis.dark, 0.0)
    bright3 = np.append(basis.bright, 0.0)
    jumps = [
        math.sqrt(relax.gamma_d) * np.outer(dark3, e3),
        math.sqrt(relax.gamma_b) * np.outer(bright3, e3),
    ]
    if gamma_dp > 0:
        jumps.append(_dephasing_jump(gamma_dp))
    return jumps


def _wait_jumps(gamma_2n: float, t1_e: float) -> list[np.ndarray]:
    """Wait channels: dephasing at gamma_2n, then electron T1 when t1_e is finite."""
    jumps: list[np.ndarray] = []
    if gamma_2n > 0:
        jumps.append(_dephasing_jump(gamma_2n))
    if math.isfinite(t1_e):
        jumps.extend(_t1_jumps(t1_e))
    return jumps


def _t1_jumps(t1_e: float) -> list[np.ndarray]:
    """Bidirectional electron flips relaxing P_- toward 1/2 at rate 1/t1_e.

    The nuclear state is scrambled by the flip (rates are split evenly over
    |up> and |down>), which is the nuclear-averaged version of a T1 process.
    """
    up = np.array([1.0, 0.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0, 0.0], dtype=complex)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    rate_up = 1.0 / (2.0 * t1_e)
    rate_down = 1.0 / (4.0 * t1_e)
    return [
        math.sqrt(rate_up) * np.outer(e3, up),
        math.sqrt(rate_up) * np.outer(e3, down),
        math.sqrt(rate_down) * np.outer(up, e3),
        math.sqrt(rate_down) * np.outer(down, e3),
    ]


def _segments(seq: SequenceConfig, basis: LambdaBasis) -> tuple[tuple[np.ndarray, float], ...]:
    """:func:`segment_generators` for a caller that already holds the drive basis."""
    h_free = free_generator(seq.lam)
    wait_jumps = _wait_jumps(seq.gamma_2n, seq.t1_e)
    return (
        (liouvillian(rwa_generator(seq.lam), []), seq.t_mw),
        (liouvillian(h_free, wait_jumps), seq.wait_pre_total),
        (liouvillian(h_free, _laser_jumps(seq.relax, basis, seq.gamma_dp)), seq.t_laser),
        (liouvillian(h_free, wait_jumps), seq.t_wait_post),
    )


def segment_generators(seq: SequenceConfig) -> tuple[tuple[np.ndarray, float], ...]:
    """The four (9x9 generator, duration) pairs of one sequence period.

    In order: coherent microwave pulse, pre-laser wait (stretched to t_seq),
    laser pulse, post-laser wait. Relaxation acts only in the laser segment
    and, when gamma_2n or t1_e switch it on, in the waits.
    """
    return _segments(seq, dark_bright_basis(seq.lam))


def _propagate(rho: DensityMatrix, gen: np.ndarray, duration: float) -> DensityMatrix:
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if duration == 0.0:
        return rho.astype(complex, copy=True)
    return (expm(gen * duration) @ rho.astype(complex).reshape(9)).reshape(3, 3)


def _frame(cfg: LambdaConfig | None) -> np.ndarray:
    return free_generator(cfg) if cfg is not None else np.zeros((3, 3), dtype=complex)


def evolve_pulse(rho: DensityMatrix, cfg: LambdaConfig, duration: float) -> DensityMatrix:
    """Coherent microwave segment: rho -> U rho U' with U = exp(-i H duration)."""
    return _propagate(rho, liouvillian(rwa_generator(cfg), []), duration)


def apply_laser(
    rho: DensityMatrix,
    relax: BranchingRates,
    basis: LambdaBasis,
    gamma_dp: float,
    duration: float,
    cfg: LambdaConfig | None = None,
) -> DensityMatrix:
    """Dissipative laser segment: repolarization plus nuclear dephasing.

    Jump channels |D><-| at gamma_d and |B><-| at gamma_b empty the excited
    state into the drive-defined ground basis; gamma_dp dephases the ground
    coherence. When cfg is given, the drive-free frame Hamiltonian keeps
    winding underneath (relevant only off resonance).
    """
    jumps = _laser_jumps(relax, basis, gamma_dp)
    return _propagate(rho, liouvillian(_frame(cfg), jumps), duration)


def apply_wait(
    rho: DensityMatrix,
    duration: float,
    gamma_2n: float = 0.0,
    t1_e: float = math.inf,
    cfg: LambdaConfig | None = None,
) -> DensityMatrix:
    """Drive-free segment: frame precession plus optional slow decoherence.

    gamma_2n dephases the ground coherence; a finite t1_e relaxes the
    excited population bidirectionally toward the uniform electron mixture
    (P_- -> 1/2 with time constant t1_e). Both default to off, making the
    wait a pure frame rotation (the identity at zero detunings).
    """
    return _propagate(rho, liouvillian(_frame(cfg), _wait_jumps(gamma_2n, t1_e)), duration)


def _signal(p_excited: float, model: ReadoutModel) -> float:
    return model.reference_0 * (1.0 - model.contrast * p_excited)


def readout_signal(rho: DensityMatrix, model: ReadoutModel) -> float:
    """Photoluminescence level for the excited population of rho."""
    return _signal(float(np.real(rho[2, 2])), model)


def invert_calibration(signals: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Recover the excited-population series from readout signals."""
    if model.contrast == 0:
        raise ValueError("contrast = 0: readout carries no population information")
    s = np.asarray(signals, dtype=float)
    return (1.0 - s / model.reference_0) / model.contrast


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


def run_cpt_sequence(
    rho0: DensityMatrix,
    seq: SequenceConfig,
    readout: ReadoutModel | None = None,
) -> tuple[StepTrace, DensityMatrix]:
    """Repeat the pulse-wait-laser-wait period n_reps times.

    Populations are recorded immediately before each laser pulse. The four
    segment propagators are built once and each period costs four
    matrix-vector products.
    """
    model = readout if readout is not None else DEFAULT_READOUT
    n = seq.n_reps
    basis = dark_bright_basis(seq.lam)

    trace = StepTrace(
        step=np.arange(1, n + 1),
        p_dark=np.empty(n),
        p_bright=np.empty(n),
        p_excited=np.empty(n),
        p_up=np.empty(n),
        p_down=np.empty(n),
        signal=np.empty(n),
    )
    if n == 0:
        return trace, rho0.astype(complex, copy=True)

    props = [expm(gen * t) if t > 0 else None for gen, t in _segments(seq, basis)]

    def advance(vec: np.ndarray, i: int) -> np.ndarray:
        return vec if props[i] is None else props[i] @ vec

    vec = rho0.astype(complex).reshape(9)
    for i in range(n):
        vec = advance(vec, 0)
        vec = advance(vec, 1)
        rho = vec.reshape(3, 3)
        ground = rho[:2, :2]
        trace.p_dark[i] = np.real(basis.dark.conj() @ ground @ basis.dark)
        trace.p_bright[i] = np.real(basis.bright.conj() @ ground @ basis.bright)
        trace.p_excited[i] = np.real(rho[2, 2])
        trace.p_up[i] = np.real(rho[0, 0])
        trace.p_down[i] = np.real(rho[1, 1])
        trace.signal[i] = _signal(trace.p_excited[i], model)
        vec = advance(vec, 2)
        vec = advance(vec, 3)

    return trace, vec.reshape(3, 3)
