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

Dissipation is Lindblad-type: the laser repolarizes |-> at the optical rate
gamma into the dark and bright states of the drive, split by the drive's
pumping efficiency (a sequence stores gamma alone; the branching follows
from its drive), and dephases the ground coherence at gamma_dp; waits can
carry a slow intrinsic dephasing gamma_2n and an electron T1 channel. The
microwave pulse stays coherent. This rule lives in one place,
:func:`segment_generators`, as one (generator, duration) pair per segment:
the 3x3 -i H of the pulse, and the 9x9 Liouvillian of each other segment.
Each segment's map is the matrix exponential of its generator, taken in
one place too, :func:`period_maps`, by this module's :func:`expm`, which
lifts the pulse's 3x3 U to the 9x9 map U (x) U*. The laser only moves
rho_ee into the ground block, so its generator has off-diagonal entries in
one column, and a wait has none when t1_e is infinite: both take a closed
form. The 3x3 pulse and a wait with finite t1_e take a degree-13 Pade
scaling and squaring. Both routes run batched over the stack with numpy
alone, so the engine never imports scipy.

Every protocol propagates through one kernel, :func:`propagate_periods`. It
takes the four segment generators stacked over G independent runs (the grid
points of a sweep, or G = 1), exponentiates each segment for all G at once,
folds a period into the map up to the readout and the map after it,
advances all G states a block of periods per batched product, and records
only the observables a protocol reads out. A detuning sweep needs no
per-point generator build: the two-photon detuning enters only as a
diagonal shift of every segment generator (:func:`detuned_segments`).

Units: MHz and us everywhere at the interface; the 2*pi sits inside the
generators only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .lambda_system import LambdaConfig, dark_bright_basis, polarization_efficiency
from .spin_model import require

__all__ = [
    "SequenceConfig",
    "ReadoutModel",
    "StepTrace",
    "thermal_ground_state",
    "pure_state",
    "rwa_generator",
    "free_generator",
    "liouvillian",
    "segment_generators",
    "detuned_segments",
    "expm",
    "period_maps",
    "propagate_periods",
    "run_cpt_sequence",
    "readout_signal",
    "invert_calibration",
    "dark_population_estimate",
]

TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class SequenceConfig:
    """Timing, drive, and dissipation of the repeated trapping sequence.

    t_seq defaults to the packed duration t_mw + t_wait_pre + t_laser +
    t_wait_post; any surplus stretches the pre-laser dark wait. gamma_2n and
    t1_e are optional decoherence channels acting during the waits. gamma is
    the optical repolarization rate of the laser (1/us); its dark/bright
    branching follows from lam, so replacing the drive replaces it too.
    """

    lam: LambdaConfig
    gamma: float = 20.0
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
        require(0 < self.gamma < math.inf, "gamma", "finite and positive")
        for name in ("t_mw", "t_wait_pre", "t_laser", "t_wait_post", "gamma_dp", "gamma_2n"):
            require(0 <= getattr(self, name) < math.inf, name, "finite and nonnegative")
        require(self.t1_e > 0, "t1_e", "positive (inf for none)")
        require(
            isinstance(self.n_reps, numbers.Integral) and self.n_reps >= 0,
            "n_reps",
            "an integer >= 0",
        )
        if self.t_seq is None:
            object.__setattr__(self, "t_seq", self.packed_duration)
        require(
            self.packed_duration - 1e-9 <= self.t_seq < math.inf,
            "t_seq",
            f"finite and no shorter than the packed duration {self.packed_duration:g} us",
        )

    @property
    def packed_duration(self) -> float:
        return self.t_mw + self.t_wait_pre + self.t_laser + self.t_wait_post

    @property
    def wait_pre_total(self) -> float:
        """Pre-laser wait including the slack that stretches t_seq."""
        return self.t_wait_pre + (self.t_seq - self.packed_duration)


@dataclass(frozen=True)
class ReadoutModel:
    """Linear map from excited population to photoluminescence level.

    :func:`readout_signal` applies it: signal = reference_0 * (1 - contrast *
    P_-).
    """

    contrast: float = 0.3
    reference_0: float = 1.0

    def __post_init__(self) -> None:
        require(0 <= self.contrast <= 1, "contrast", "in [0, 1]")
        require(0 < self.reference_0 < math.inf, "reference_0", "finite and positive")


@dataclass(frozen=True)
class StepTrace:
    """Per-period populations at the readout instant (just before the laser).

    All arrays have length n_reps; ``step`` counts from 1. The readout
    signal is :func:`readout_signal` of p_excited.
    """

    step: np.ndarray
    p_dark: np.ndarray
    p_bright: np.ndarray
    p_excited: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


def thermal_ground_state() -> np.ndarray:
    """Unpolarized nuclear state: equal ground populations, empty excited state."""
    return np.diag([0.5, 0.5, 0.0]).astype(complex)


def pure_state(vec: np.ndarray) -> np.ndarray:
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b of two 3x3 matrices, or of each pair of two stacks.

    Entry [3i + j, 3k + l] is a[i, k] b[j, l], one product per entry as in
    np.kron, so the bits are the same.
    """
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], 9, 9)


def liouvillian(h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    """9x9 generator of d vec(rho)/dt for row-major vectorization.

    L = -i (H (x) I - I (x) H^T) + sum_J [J (x) J* - (J'J (x) I + I (x) (J'J)^T)/2]
    """
    eye = np.eye(3, dtype=complex)
    gen = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for j in jumps:
        jdj = j.conj().T @ j
        gen += _kron(j, j.conj()) - 0.5 * (_kron(jdj, eye) + _kron(eye, jdj.T))
    return gen


def _dephasing_jump(rate: float) -> np.ndarray:
    """Pure ground-coherence dephasing: rho_updown decays as e^{-rate*t}."""
    return math.sqrt(rate / 2.0) * np.diag([1.0, -1.0, 0.0]).astype(complex)


def _laser_jumps(seq: SequenceConfig) -> list[np.ndarray]:
    """Laser channels: |D><-| and |B><-|, then dephasing at gamma_dp.

    D and B are the dark and bright states of seq.lam. The decay rate
    seq.gamma splits into gamma alpha_p toward D and gamma (1 - alpha_p)
    toward B, with alpha_p that drive's :func:`polarization_efficiency`.
    """
    alpha_p = polarization_efficiency(seq.lam)
    basis = dark_bright_basis(seq.lam)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    dark3 = np.append(basis.dark, 0.0)
    bright3 = np.append(basis.bright, 0.0)
    jumps = [
        math.sqrt(seq.gamma * alpha_p) * np.outer(dark3, e3),
        math.sqrt(seq.gamma * (1.0 - alpha_p)) * np.outer(bright3, e3),
    ]
    if seq.gamma_dp > 0:
        jumps.append(_dephasing_jump(seq.gamma_dp))
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


def segment_generators(seq: SequenceConfig) -> tuple[tuple[np.ndarray, float], ...]:
    """The four (generator, duration) pairs of one sequence period.

    In order: coherent microwave pulse, pre-laser wait (stretched to t_seq),
    laser pulse, post-laser wait. Relaxation acts only in the laser segment
    and, when gamma_2n or t1_e switch it on, in the waits. The pulse stays
    coherent, so its generator is the 3x3 -i H of d psi/dt, with H from
    :func:`rwa_generator`; the other three are 9x9 Liouvillians of
    d vec(rho)/dt. The two waits share one generator array, so a caller
    must not modify a generator in place.
    """
    h_free = free_generator(seq.lam)
    wait = liouvillian(h_free, _wait_jumps(seq.gamma_2n, seq.t1_e))
    return (
        (-1j * rwa_generator(seq.lam), seq.t_mw),
        (wait, seq.wait_pre_total),
        (liouvillian(h_free, _laser_jumps(seq)), seq.t_laser),
        (wait, seq.t_wait_post),
    )


def detuned_segments(
    seq: SequenceConfig, delta_1: float, delta_2: np.ndarray
) -> tuple[tuple[np.ndarray, float], ...]:
    """:func:`segment_generators` of seq stacked over the detunings delta_2.

    Returns four ((G, n, n) generator, duration) pairs, one generator per
    entry of delta_2, all at one-photon detuning delta_1 (the detunings of
    seq.lam are ignored); n is 3 for the pulse and 9 for the rest. Built in
    closed form from one zero-detuning build: H(delta) = H(0) + 2 pi diag(d)
    with d = (0, -delta_r, -delta_1) in every segment, and neither the
    dissipators nor the dark/bright basis depend on the detunings, so the
    3x3 pulse generator gains -i 2 pi d_i at diagonal index i, and each 9x9
    one -i 2 pi (d_i - d_j) at diagonal index 3i + j of the row-major
    vectorization.
    """
    delta_2 = np.asarray(delta_2, dtype=float)
    zero = replace(seq, lam=replace(seq.lam, delta_1=0.0, delta_2=0.0))
    d = np.zeros((len(delta_2), 3))
    d[:, 1] = -(delta_1 - delta_2)
    d[:, 2] = -delta_1
    h_diag = TWO_PI * d
    shifts = {3: -1j * h_diag, 9: -1j * (h_diag[:, :, None] - h_diag[:, None, :]).reshape(-1, 9)}
    stacked = []
    for gen, duration in segment_generators(zero):
        n = len(gen)
        gens = np.repeat(gen[None], len(delta_2), axis=0)
        gens[:, np.arange(n), np.arange(n)] += shifts[n]
        stacked.append((gens, duration))
    return tuple(stacked)


# Numerator coefficients b_0..b_13 of the degree-13 Pade approximant to exp,
# and theta_13, the 1-norm up to which that approximant is accurate to double
# precision without scaling (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one square matrix, or of each matrix of a stack.

    A matrix whose off-diagonal entries all sit in at most one column k
    (every laser, and every wait when t1_e is infinite, gamma_2n included)
    takes the closed form of A = D + c e_k^T with c_k = 0: the diagonal of
    exp(A) is exp(d), and entry i of column k is
    c_i (e^{d_i} - e^{d_k}) / (d_i - d_k), evaluated as c_i e^h phi1(z) with
    h the one of d_i, d_k of larger real part, z the other minus h, and
    phi1(z) = (e^z - 1) / z, so that nothing overflows or divides by zero.
    A diagonal matrix is the case without a column. Every other matrix
    (a 3x3 pulse, a wait with finite t1_e) takes the scaling and squaring
    method of Higham 2005, "The scaling and squaring method for the matrix
    exponential revisited": the degree-13 Pade approximant of A / 2^s,
    squared s times, with the smallest s >= 0 that brings the 1-norm of
    A / 2^s to theta_13. s comes from the 1-norm alone, without the
    refinement from norms of powers of A (Al-Mohy & Higham 2009) that
    scipy.linalg.expm adds, so it can square more often than scipy does.
    All such matrices share one batched solve. The route and s are chosen
    per matrix and every step acts on each matrix alone, so a result does
    not depend on which other matrices share the stack.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    i = np.arange(n)
    off_diagonal = stack != 0
    off_diagonal[:, i, i] = False
    columns = off_diagonal.any(axis=1)
    pade = columns.sum(axis=1) > 1
    out = np.zeros_like(stack)
    dense = np.flatnonzero(pade)
    if len(dense):
        out[dense] = _pade13(stack[dense])
    closed = np.flatnonzero(~pade)
    out[closed[:, None], i, i] = np.exp(stack[closed[:, None], i, i])
    column = columns[closed].argmax(axis=1)
    p, row = np.nonzero(off_diagonal[closed, :, column])
    m, k = closed[p], column[p]
    d_i, d_k = stack[m, row, row], stack[m, k, k]
    i_leads = d_i.real >= d_k.real
    h = np.where(i_leads, d_i, d_k)
    out[m, row, k] = stack[m, row, k] * np.exp(h) * _phi1(np.where(i_leads, d_k, d_i) - h)
    return out.reshape(a.shape)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z elementwise, by its Taylor series where |z| < 1e-4 (z = 0 included)."""
    small = np.abs(z) < 1e-4
    z_safe = np.where(small, 1.0, z)
    series = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    return np.where(small, series, np.expm1(z_safe) / z_safe)


def _pade13(stack: np.ndarray) -> np.ndarray:
    """Pade-13 scaling and squaring (see :func:`expm`) of each matrix of an (N, n, n) stack."""
    n = stack.shape[-1]
    norm = np.abs(stack).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    x = stack / (2.0 ** s)[:, None, None]
    b, eye = _PADE13, np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2
    u = x @ (u + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2
    v += b[0] * eye
    # Temporaries go before the solve: with finite t1_e, these stacks set the
    # peak memory of a spectrum.
    del x, x2, x4, x6
    r = np.linalg.solve(v - u, v + u)
    del u, v
    for k in range(s.max(initial=0)):
        squared = np.flatnonzero(s > k)
        r[squared] = r[squared] @ r[squared]
    return r


def period_maps(segments) -> tuple[np.ndarray, np.ndarray]:
    """Fold four (generator, duration) segments into the two half-period maps.

    Generators may be single matrices or stacks of them; each segment is
    exponentiated with one :func:`expm` call for the whole stack, one half
    period at a time so that at most two propagator stacks are alive. A 3x3
    generator (the coherent pulse) gives the 3x3 propagator U, lifted to the
    9x9 map vec(rho) -> vec(U rho U^dagger), that is U (x) U*. Returns
    A = P_wait_pre P_mw (start of period to the readout) and
    B = P_wait_post P_laser (readout to end of period). A duration at or
    below zero (the slack of a t_seq within rounding of the packed duration)
    propagates as the identity.
    """

    def propagator(k: int) -> np.ndarray:
        gen, duration = segments[k]
        p = expm(gen * max(duration, 0.0))
        return _kron(p, p.conj()) if p.shape[-1] == 3 else p

    return propagator(1) @ propagator(0), propagator(3) @ propagator(2)


def propagate_periods(
    segments, rho0: np.ndarray, n_reps: int, observables
) -> tuple[np.ndarray, np.ndarray]:
    """Run n_reps periods of G stacked sequences from rho0.

    segments are four (generator, duration) pairs as from
    :func:`segment_generators` (G = 1) or :func:`detuned_segments`; every
    run starts from the 3x3 state rho0. observables are k Hermitian 3x3
    operators O, read as Tr(O rho) at each readout instant. Returns those
    readouts, shape (G, n_reps, k), and the final states, shape (G, 3, 3).

    Periods advance in blocks of K, the largest power of two with
    K^2 <= n_reps. With the one-period map M = B A, the readout rows
    R A M^j for j < K are built by doubling, and each block then emits its
    K readouts with one batched product and advances the state by M^K; the
    last, partial block applies the powers M^(2^i) of the set bits of what
    is left. n periods cost 2 n/K + O(log K) batched products, and
    sqrt(n)/2 < K <= sqrt(n). K depends on n_reps alone and runs are
    independent rows of every product, so a result does not depend on which
    other runs share its batch.
    """
    a, b = (m.reshape(-1, 9, 9) for m in period_maps(segments))
    g = len(a)
    # Tr(O rho) = conj(vec(O)) . vec(rho) for Hermitian O.
    read = np.asarray(observables, dtype=complex).reshape(-1, 9).conj()
    k = len(read)
    block = 1 << (max(math.isqrt(n_reps), 1).bit_length() - 1)
    # rows[:, j k + c] = R_c A M^j for j < block; powers[i] = M^(2^i).
    rows, powers = read @ a, [b @ a]
    del a, b
    for _ in range(block.bit_length() - 1):
        rows = np.concatenate([rows, rows @ powers[-1]], axis=1)
        powers.append(powers[-1] @ powers[-1])
    vec = np.broadcast_to(np.asarray(rho0, dtype=complex).reshape(1, 9, 1), (g, 9, 1))
    readouts = np.empty((g, n_reps, k))
    for start in range(0, n_reps, block):
        n = min(block, n_reps - start)
        readouts[:, start : start + n] = np.real(rows[:, : n * k] @ vec).reshape(g, n, k)
        for i, power in enumerate(powers):
            if n >> i & 1:
                vec = power @ vec
    # At n_reps = 0, vec is still a read-only view of rho0.
    return readouts, vec.reshape(g, 3, 3).copy()


def readout_signal(p_excited: float | np.ndarray, model: ReadoutModel) -> float | np.ndarray:
    """Photoluminescence level for an excited population, scalar or array."""
    return model.reference_0 * (1.0 - model.contrast * p_excited)


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


def run_cpt_sequence(rho0: np.ndarray, seq: SequenceConfig) -> tuple[StepTrace, np.ndarray]:
    """Repeat the pulse-wait-laser-wait period n_reps times.

    Populations are recorded immediately before each laser pulse. This is
    :func:`propagate_periods` at G = 1: periods advance in blocks of K, the
    largest power of two with K^2 <= n_reps, so n periods cost 2 n/K +
    O(log K) products with 9x9 matrices, and sqrt(n)/2 < K <= sqrt(n).
    """
    basis = dark_bright_basis(seq.lam)
    up, down, excited = np.eye(3)
    observables = [
        pure_state(np.append(basis.dark, 0.0)),
        pure_state(np.append(basis.bright, 0.0)),
        pure_state(excited),
        pure_state(up),
        pure_state(down),
    ]
    readouts, final = propagate_periods(segment_generators(seq), rho0, seq.n_reps, observables)
    p_dark, p_bright, p_excited, p_up, p_down = readouts[0].T
    trace = StepTrace(
        step=np.arange(1, seq.n_reps + 1),
        p_dark=p_dark,
        p_bright=p_bright,
        p_excited=p_excited,
        p_up=p_up,
        p_down=p_down,
    )
    return trace, final[0]
