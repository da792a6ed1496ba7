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
pumping efficiency alpha_p (a sequence stores gamma alone; the branching
follows from its drive), and dephases the ground coherence at gamma_dp;
waits can carry a slow intrinsic dephasing gamma_2n and an electron T1
channel. The microwave pulse stays coherent. This rule lives in one place,
:func:`segment_generators`, which writes each segment's generator straight
from its rates, in the form its exact map takes. With the frame
frequencies f = 2 pi (0, -delta_r, -delta_1), the dephasing signs s = (1,
-1, 0) and the excited indicator e = (0, 0, 1), the entry at row-major vec
slot 3i + j is

- for a wait (:class:`Wait`): -i (f_i - f_j) - gamma_2n (s_i - s_j)^2 / 4,
  nonzero only on the six coherences; the form holds f and the dephasing,
  and its map turns coherence (i, j) by p_i conj(p_j) with per-level
  phases p = e^{-i f t}, which keeps the three phases consistent at any
  wait length, and shrinks it by one real exponential; the T1 rate block
  mixes the three populations, written through expm1 so that the trace is
  kept by construction (t1_e = inf makes it the identity on the same
  path);
- for a laser (:class:`Laser`): that frame term - gamma_dp (s_i - s_j)^2 /
  4 - (gamma / 2) (e_i + e_j) on the diagonal, plus the rho_ee column
  gamma [alpha_p D D^+ + (1 - alpha_p) B B^+] on the ground block (D, B
  the dark and bright states); its map is closed form;
- for a pulse (:class:`Pulse`): the Hermitian 3x3 H of the two tones, f
  on its diagonal and the tones off it, whose U = exp(-i H t) comes from
  a batched eigh and acts as U (x) U* on vec(rho).

All three run batched over a stack with numpy alone, so the engine never
imports scipy.

The maps act on real coordinates, x = (rho_00, rho_11, rho_22, Re rho_01,
Re rho_02, Re rho_12, Im rho_01, Im rho_02, Im rho_12), in which every
Hermiticity-preserving map is a float64 9x9 (Havel, J. Math. Phys. 44, 534
(2003)). Every protocol propagates through one kernel,
:func:`propagate_periods`. It takes the four segments stacked over G
independent runs (the grid points of a sweep, or G = 1), folds a period
into the map up to the readout, A, and the map of the whole period, M
(:func:`period_maps`: the lifted pulse, then row operations, with no
dense 9x9 product, on maps stored point-last as (9, 9, G), so that every
row operation runs over G contiguous points), builds the powers of M,
the readout rows and the state at the start of every block of periods by
doubling, and reads out every period of every run, only the observables
a protocol asks for, with one batched product: O(log n_reps) batched
real products and no loop over periods or blocks. The same observables
are read off each run's state after its last period. The doublings write
into buffers made once per call, so the kernel's working set does not
grow with n_reps. A detuning sweep is the same build with an array of
two-photon detunings: f gains a leading axis, and nothing else depends
on the detunings.

This module is the engine alone: protocols, their observables and their
calibrations live in :mod:`lambda_cpt.experiments`.

Units: MHz and us everywhere at the interface; the 2*pi sits inside the
generators only.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lambda_system import LambdaConfig, dark_bright_basis, polarization_efficiency
from .spin_model import require

__all__ = [
    "SequenceConfig",
    "ReadoutModel",
    "thermal_ground_state",
    "pure_state",
    "Pulse",
    "Wait",
    "Laser",
    "segment_generators",
    "period_maps",
    "propagate_periods",
    "readout_signal",
]

TWO_PI = 2.0 * math.pi

log = logging.getLogger("lambda_cpt.dynamics")


@dataclass(frozen=True)
class SequenceConfig:
    """Timing, drive, and dissipation of the repeated trapping sequence.

    t_seq defaults to the packed duration t_mw + t_wait_pre + t_laser +
    t_wait_post; any surplus stretches the pre-laser dark wait. gamma_2n and
    t1_e are optional decoherence channels acting during the waits. gamma is
    the optical repolarization rate of the laser (1/us); its dark/bright
    branching follows from lam, so replacing the drive replaces it too.
    n_reps >= 1 and durations >= 0 are rules of this class alone: t_seq may
    fall 1e-9 us short of the packed duration, and wait_pre_total is then 0.
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
            isinstance(self.n_reps, numbers.Integral) and self.n_reps >= 1,
            "n_reps",
            "an integer >= 1",
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
        """Pre-laser wait including the slack that stretches t_seq, never negative."""
        slack = self.t_seq - self.packed_duration
        return max(self.t_wait_pre + slack, 0.0)


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


def thermal_ground_state() -> np.ndarray:
    """Unpolarized nuclear state: equal ground populations, empty excited state."""
    return np.diag([0.5, 0.5, 0.0]).astype(complex)


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Projector |v><v| of a (normalized) 3-component state vector."""
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


# Real coordinates x of a Hermitian 3x3 rho: the populations rho_00, rho_11,
# rho_22, then Re and Im of the upper coherences rho_01, rho_02, rho_12. Every
# Hermiticity-preserving map of rho is a real 9x9 in them.
_RE, _IM = slice(3, 6), slice(6, 9)
# Row-major vec slots 3i + j of rho's six upper entries (i, j), i <= j, in
# the order of x.
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
_UPPER = 3 * _ROWS + _COLS
# rho_ee (slot 8) is the one column a laser generator has off its diagonal.
# It feeds the other five upper entries; _LASER lists their slots, then its own.
_EXCITED = 8
_LASER = np.array([0, 4, 1, 2, 5, _EXCITED])
# Tr(O rho) = x . (weights * coordinates(O)) for Hermitian O.
_READ_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
# Entry at vec slot 3i + j per unit rate: -(s_i - s_j)^2 / 4 for a dephasing
# jump sqrt(rate / 2) diag(s), and -(e_i + e_j) / 2 for the laser's decay out
# of |->, which leaves every state at the rate of its excited indices.
_S = np.array([1.0, -1.0, 0.0])
_E = np.array([0.0, 0.0, 1.0])
_DEPHASING = -(((_S[:, None] - _S) ** 2) / 4.0).reshape(9)
_DECAY = -((_E[:, None] + _E) / 2.0).reshape(9)


def _coordinates(m: np.ndarray) -> np.ndarray:
    """Real coordinates of each Hermitian 3x3 matrix of a stack."""
    upper = m.reshape(m.shape[:-2] + (9,))[..., _UPPER]
    return np.concatenate([upper.real, upper[..., 3:].imag], axis=-1)


@dataclass(frozen=True)
class Pulse:
    """Coherent segment: rho -> U rho U^dagger with U = exp(-i h duration).

    h is the rotating-frame Hamiltonian of the two tones in rad/us, one 3x3
    matrix or a (G, 3, 3) stack; in the (|up>, |down>, |->) basis

        h = 2 pi [[0,         0,                      omega_1/2             ],
                  [0,         -delta_r,               (omega_2/2) e^{+i psi}],
                  [omega_1/2, (omega_2/2) e^{-i psi}, -delta_1              ]].

    psi sits so that <D|h|-> = 0 at delta_r = 0 for any psi, D the dark state.
    """

    h: np.ndarray
    duration: float


@dataclass(frozen=True)
class Wait:
    """Drive-free segment: the frame turns and dephases every coherence, T1 relaxes.

    frequencies holds the frame frequencies f of the three levels (rad/us),
    shape (3,) or (G, 3); dephasing holds the real generator entries of the
    upper coherences rho_01, rho_02, rho_12, -gamma_2n (s_i - s_j)^2 / 4,
    shape (3,) (shared by a stack) or (G, 3). Without T1 the generator is
    diagonal: -i (f_i - f_j) plus that dephasing at each coherence slot
    3i + j, the lower three the conjugates of the upper. Electron T1 flips
    |up> and |down> to |-> at 1/(2 t1_e) each and |-> back to each at
    1/(4 t1_e): on the populations a rate block with eigenvalues 0,
    -1/t1_e (P_- relaxes to half the trace) and -1/(2 t1_e) (the ground
    imbalance decays), and on every coherence a further decay at
    1/(2 t1_e). t1_e = inf switches it off.
    """

    frequencies: np.ndarray
    dephasing: np.ndarray
    t1_e: float
    duration: float


@dataclass(frozen=True)
class Laser:
    """Optical repolarization: the generator diag(diagonal) + column e_8^T.

    rho_ee (vec slot 8) feeds the ground block and nothing else mixes, so
    the only off-diagonal entries are rows 0-7 of column 8, held in column.
    diagonal has shape (9,) or (G, 9); column is (8,), shared by a stack,
    or (G, 8) beside a stacked diagonal.
    """

    diagonal: np.ndarray
    column: np.ndarray
    duration: float


def segment_generators(
    seq: SequenceConfig, delta_2: np.ndarray | None = None
) -> tuple[Pulse, Wait, Laser, Wait]:
    """The four segments of one sequence period, each in the form its map takes.

    In order: coherent microwave pulse, pre-laser wait (stretched to t_seq),
    laser pulse, post-laser wait. Each form is written from the frame
    frequencies f = 2 pi (0, -delta_r, -delta_1) and the rate of each
    channel, by the rule of the module docstring. With delta_2 = None this
    is the one run of seq.lam; an array of G two-photon detunings gives f a
    leading axis, and so a stack of G runs at one-photon detuning
    seq.lam.delta_1 (the delta_2 of seq.lam is not used). The laser column
    and the wait dephasing depend on no detuning and are shared by a stack.
    The two waits share one frequency array, so a caller must not modify a
    segment's arrays in place.
    """
    lam = seq.lam
    delta_r = lam.delta_r if delta_2 is None else lam.delta_1 - np.asarray(delta_2, dtype=float)
    f = TWO_PI * np.stack(np.broadcast_arrays(0.0, -delta_r, -lam.delta_1), axis=-1)
    h = np.zeros(f.shape[:-1] + (3, 3), dtype=complex)
    h[..., np.arange(3), np.arange(3)] = f
    h[..., 0, 2] = h[..., 2, 0] = TWO_PI * (lam.omega_1 / 2.0)
    h[..., 1, 2] = TWO_PI * (lam.omega_2 / 2.0 * np.exp(1j * lam.psi))
    h[..., 2, 1] = h[..., 1, 2].conj()
    frame = -1j * (f[..., :, None] - f[..., None, :]).reshape(f.shape[:-1] + (9,))
    dephasing = seq.gamma_2n * _DEPHASING[_UPPER[3:]]
    diagonal = frame + seq.gamma_dp * _DEPHASING + seq.gamma * _DECAY
    alpha_p = polarization_efficiency(lam)
    basis = dark_bright_basis(lam)
    column = np.zeros((3, 3), dtype=complex)
    column[:2, :2] = seq.gamma * (
        alpha_p * np.outer(basis.dark, basis.dark.conj())
        + (1.0 - alpha_p) * np.outer(basis.bright, basis.bright.conj())
    )
    return (
        Pulse(h, seq.t_mw),
        Wait(f, dephasing, seq.t1_e, seq.wait_pre_total),
        Laser(diagonal, column.reshape(9)[:_EXCITED], seq.t_laser),
        Wait(f, dephasing, seq.t1_e, seq.t_wait_post),
    )


def _pulse_unitary(pulse: Pulse) -> np.ndarray:
    """U = exp(-i h t) of each pulse, as 1 + V (e^{-i w t} - 1) V^dagger.

    h = V diag(w) V^dagger comes from a batched eigh, the exact route for a
    normal matrix (Moler & Van Loan 2003, section 6): U is unitary to
    rounding at every norm, and t = 0 gives the identity exactly.
    """
    w, v = np.linalg.eigh(pulse.h)
    phase = np.expm1(-1j * (w * pulse.duration))
    return np.eye(3) + (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _point_last(x: np.ndarray) -> np.ndarray:
    """A (..., slots) coefficient array as (slots, G), G the size of its leading axes.

    Each slot is then one row that broadcasts along the rows of a
    point-last map.
    """
    return x.reshape(-1, x.shape[-1]).T


def _lift(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write the map rho -> U rho U^dagger of each U of a stack into the point-last m.

    m is (9, 9, G), entry [r, c, g] of the real map of U_g. Row (i, j) of
    U (x) U* holds U_ik conj(U_jl) at column (k, l). For the six upper
    rows, three complex products give the populations (k = l), the upper
    (k < l) and the lower (k > l) coherence columns, and these fold into
    the real basis, rho_kl = x_kl + i y_kl and rho_lk = x_kl - i y_kl.
    """
    u = u.reshape(-1, 3, 3).transpose(1, 2, 0)
    left, right = u[_ROWS], u[_COLS]
    np.conjugate(right, out=right)
    product = np.multiply(left, right)
    m[:6, :3] = product.real
    m[6:, :3] = product[3:].imag
    # U_ik conj(U_jl) for the upper pairs (k, l) = (0, 1), (0, 2), (1, 2).
    np.multiply(left[:, :1], right[:, 1:], out=product[:, :2])
    np.multiply(left[:, 1], right[:, 2], out=product[:, 2])
    m[:6, 3:6] = product.real
    m[6:, 3:6] = product[3:].imag
    m[:6, 6:] = product.imag
    m[6:, 6:] = product[3:].real
    # U_il conj(U_jk), for the lower pairs.
    np.multiply(left[:, 1:], right[:, :1], out=product[:, :2])
    np.multiply(left[:, 2], right[:, 1], out=product[:, 2])
    m[:6, 3:6] += product.real
    m[6:, 3:6] += product[3:].imag
    np.subtract(product.imag, m[:6, 6:], out=m[:6, 6:])
    m[6:, 6:] -= product[3:].real
    return m


def _turn(m: np.ndarray, z: np.ndarray) -> None:
    """Multiply each upper coherence by z, in place on the rows of a point-last map m.

    z holds one complex factor per coherence and point, shape (3, G) or
    (3, 1); each (Re, Im) row pair turns and shrinks by it.
    """
    re, im = m[_RE], m[_IM]
    z_re, z_im = z.real[:, None], z.imag[:, None]
    turned = z_re * re - z_im * im
    im *= z_re
    im += z_im * re
    re[...] = turned


def _wait_phases(wait: Wait) -> np.ndarray:
    """p = e^{-i f t} of each level, shape (..., 3): the wait's frame turn is diag(p)."""
    return np.exp(-1j * (wait.frequencies * wait.duration))


def _wait_rows(wait: Wait, m: np.ndarray, turn: bool = True) -> np.ndarray:
    """W m for the map W of a wait and a point-last (9, 9, G) map m, in place.

    W turns each coherence (i, j) by p_i conj(p_j), with the phases p of
    :func:`_wait_phases`, and shrinks it by its exact decay; turn=False
    leaves the frame turn out, for a caller that applies diag(p) itself.
    Taking the phases per level keeps those of the three coherences
    consistent to rounding, so W stays completely positive at any wait
    length. The T1 block mixes the three population rows, written through
    two expm1 modes: the step r moves P_- toward half the trace, and the
    step s shrinks the ground imbalance; P_up and P_down give back r/2
    each, so the trace is kept by construction. t1_e = inf makes r and s
    zero: the same path is the identity on the populations.
    """
    relax = -wait.duration / wait.t1_e
    # A decay exponent past the float range is an exact decay to zero.
    with np.errstate(over="ignore"):
        decay = np.exp(wait.dephasing * wait.duration + 0.5 * relax)
    if turn:
        p = _wait_phases(wait)
        _turn(m, _point_last(p[..., _ROWS[3:]] * p[..., _COLS[3:]].conj() * decay))
    else:
        decay = _point_last(decay)[:, None]
        m[_RE] *= decay
        m[_IM] *= decay
    up, down, excited = m[0], m[1], m[2]
    r = 0.5 * np.expm1(relax) * (excited - up - down)
    s = 0.5 * np.expm1(0.5 * relax) * (up - down)
    excited += r
    up += s - 0.5 * r
    down -= s + 0.5 * r
    return m


def _laser_rows(laser: Laser, m: np.ndarray) -> np.ndarray:
    """L m for the map L = exp(A t) of a laser and a point-last (9, 9, G) map m, in place.

    For A = D + c e_8^T with c_8 = 0, L scales each upper entry by e^{d t}
    and adds the rho_ee row times entry i of its column,
    c_i t (e^{d_i t} - e^{d_8 t}) / (d_i t - d_8 t), evaluated as
    c_i t e^h phi1(z) with h the one of d_i t, d_8 t of larger real part,
    z the other minus h, and phi1(z) = (e^z - 1) / z, so that nothing
    overflows or divides by zero.
    """
    d = laser.diagonal[..., _LASER] * laser.duration
    c = laser.column[..., _LASER[:5]] * laser.duration
    d_i, d_k = d[..., :5], d[..., 5:]
    i_leads = d_i.real >= d_k.real
    h = np.where(i_leads, d_i, d_k)
    exp_d = np.exp(d)
    exp_h = np.where(i_leads, exp_d[..., :5], exp_d[..., 5:])
    column = _point_last(c * exp_h * _phi1(np.where(i_leads, d_k, d_i) - h))[:, None]
    scale = _point_last(exp_d)
    excited = m[2]
    m[:2] *= scale[:2, None].real
    m[:2] += column[:2].real * excited
    _turn(m, scale[2:5])
    m[_RE] += column[2:].real * excited
    m[_IM] += column[2:].imag * excited
    excited *= scale[5].real
    return m


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z elementwise, by its Taylor series where |z| < 1e-4 (z = 0 included)."""
    small = np.abs(z) < 1e-4
    z_safe = np.where(small, 1.0, z)
    series = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    return np.where(small, series, np.expm1(z_safe) / z_safe)


def period_maps(segments) -> tuple[np.ndarray, np.ndarray]:
    """The map of a period up to its readout, and the map of the whole period.

    segments are (pulse, wait, laser, wait), as from
    :func:`segment_generators`, single maps or stacks of G runs.
    Returns A = W_pre lift(U), from the start of a period to the readout,
    and M = W_post L_laser A, from the start of a period to the next, each
    a C-contiguous float64 9x9 or (G, 9, 9) in the real coordinates
    (rho_00, rho_11, rho_22, Re rho_01, Re rho_02, Re rho_12, Im rho_01, Im
    rho_02, Im rho_12). Each map is built by its form, with no dense 9x9
    product and no dense exponential, point-last in one (9, 9, G) array:
    the pre-laser wait's frame turn diag(p) multiplies the pulse's U
    (:func:`_pulse_unitary`), which is lifted to rho -> U rho U^dagger
    (:func:`_lift`); the wait's decay and T1 block follow by row
    operations (:func:`_wait_rows`), and A is copied out. The same array
    then becomes M: the laser scales the rows and adds its rho_ee row
    (:func:`_laser_rows`), and the post-laser wait turns the coherence
    pairs and mixes the populations. Each map depends on its own stack
    entry alone.
    """
    pulse, pre, laser, post = segments
    # The pre-laser wait's frame turn diag(p) acts on U before the lift.
    u = _wait_phases(pre)[..., :, None] * _pulse_unitary(pulse)
    stack = u.shape[:-2]
    m = _lift(u, np.empty_like(u, dtype=float, shape=(9, 9, math.prod(stack))))
    _wait_rows(pre, m, turn=False)
    a = m.transpose(2, 0, 1).copy().reshape(stack + (9, 9))
    _wait_rows(post, _laser_rows(laser, m))
    return a, m.transpose(2, 0, 1).copy().reshape(stack + (9, 9))


# Largest drift of tr rho from tr rho0 a run may end with, relative to
# max(1, |tr rho0|).
_TRACE_DRIFT = 1e-10


def propagate_periods(
    segments, rho0: np.ndarray, n_reps: int, observables
) -> tuple[np.ndarray, np.ndarray]:
    """Run n_reps >= 1 periods of G stacked sequences from rho0.

    segments are the four segment forms of a period, as from
    :func:`segment_generators` (G = 1, or a stack over G detunings); every
    run starts from the 3x3 state rho0.
    observables are k Hermitian 3x3 operators O, read as Tr(O rho). Returns
    their values at each readout instant, shape (G, n_reps, k), and at the
    end of the last period, shape (G, k), both float.

    Everything runs in real coordinates: the maps A (to the readout) and M
    (one period) come from :func:`period_maps` as float64 9x9s, built by
    row operations with no dense product, and the state is a real
    9-vector. Periods fall into blocks of K, the largest power of two with
    K^2 <= n_reps, so sqrt(n)/2 < K <= sqrt(n). The readout rows R A M^j
    for j < K and the powers M^(2^i) are built by doubling, and so are the
    block starts: S <- [S, S (M^K)^m] takes m starts to 2m. One batched
    product of the rows with the starts then gives every readout, and the
    powers of the set bits of the last block's length carry the last start
    to the end. A run so takes O(log n) batched products of 9x9 real
    matrices and no loop over its periods or blocks. The rows and starts
    fill slices of two buffers made before their doublings, and each power
    squares into the buffer of the one before last (A's, once the rows
    hold R A), so only the readouts and a copy of each power the last
    block takes are new arrays. The final values are one more product, of
    each run's final state with the same observable rows. K depends on
    n_reps alone and runs are independent rows of every product, so a
    result does not depend on which other runs share its batch.

    Raises ValueError when a final state is not finite or its trace drifts
    from tr rho0 by more than 1e-10 max(1, |tr rho0|): the segments did not
    describe a physical run. Both are read in real coordinates, where the
    trace is the sum of the three populations.
    """
    a, m = (x.reshape(-1, 9, 9) for x in period_maps(segments))
    g = len(a)
    read = _READ_WEIGHTS * _coordinates(np.asarray(observables, dtype=complex).reshape(-1, 3, 3))
    k = len(read)
    block = 1 << (math.isqrt(n_reps).bit_length() - 1)
    blocks = -(-n_reps // block)
    last = n_reps - (blocks - 1) * block  # periods in the last block
    # rows[:, j k + c] = R_c A M^j for j < block, each doubling filling the
    # next slice; power runs through M^(2^i), squared between two buffers,
    # and tail keeps a copy of each power the last block's length takes.
    rows = np.empty_like(a, shape=(g, block * k, 9))
    np.matmul(read, a, out=rows[:, :k])
    power, spare, tail = m, a, []
    del a, m
    levels = block.bit_length()  # M^(2^i) for i < levels, the last one M^K
    for i in range(levels):
        if last >> i & 1:
            tail.append(power.copy())
        if i < levels - 1:
            n = k << i
            np.matmul(rows[:, :n], power, out=rows[:, n : 2 * n])
            power, spare = np.matmul(power, power, out=spare), power
    # The states are row vectors, x^T <- x^T (M^K)^T, so that the block starts
    # stack into (G, blocks, 9); power is M^(K n) while the first n starts
    # give the next n.
    starts = np.empty_like(rows, shape=(g, blocks, 9))
    starts[:, 0] = x0 = _coordinates(np.asarray(rho0, dtype=complex))
    doublings = (blocks - 1).bit_length()
    for i in range(doublings):
        if i:
            power, spare = np.matmul(power, power, out=spare), power
        n = 1 << i
        more = min(n, blocks - n)
        np.matmul(starts[:, :more], power.swapaxes(1, 2), out=starts[:, n : n + more])
    del power, spare
    # Laid out by (block, period in block, observable).
    readouts = starts @ rows.swapaxes(1, 2)
    vec = starts[:, -1:]
    for power in tail:
        vec = vec @ power.swapaxes(1, 2)
    _check_final_states(vec[:, 0], x0)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "propagate_periods: G=%d n_reps=%d K=%d blocks=%d products=%d",
            g, n_reps, block, blocks,
            2 * block.bit_length() + max(2 * doublings - 1, 0) + len(tail) + 1,
        )
    return readouts.reshape(g, blocks * block, k)[:, :n_reps], (vec @ read.T)[:, 0]


def _check_final_states(x: np.ndarray, x0: np.ndarray) -> None:
    """Raise ValueError unless every final state x is finite and keeps the trace of x0."""
    trace0 = x0[:3].sum()
    drift = np.abs(x[:, :3].sum(-1) - trace0).max(initial=0.0)
    if not (np.isfinite(x).all() and drift <= _TRACE_DRIFT * max(1.0, abs(trace0))):
        raise ValueError(
            "propagation left the physical states: every final state must be finite, "
            f"with trace within {_TRACE_DRIFT:g} max(1, |tr rho0|) of tr rho0 = "
            f"{trace0:g} (largest drift {drift:.3g})"
        )


def readout_signal(p_excited: float | np.ndarray, model: ReadoutModel) -> float | np.ndarray:
    """Photoluminescence level for an excited population, scalar or array."""
    return model.reference_0 * (1.0 - model.contrast * p_excited)
