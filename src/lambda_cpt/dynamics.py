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
from its rates, in the form its exact map takes.

The maps act on real coordinates, x = (rho_00, rho_11, rho_22, Re rho_01,
Re rho_02, Re rho_12, Im rho_01, Im rho_02, Im rho_12), in which every
Hermiticity-preserving map is a float64 9x9 (Havel, J. Math. Phys. 44, 534
(2003)). The generator entries a form holds are indexed by rho's upper
entries (i, j), i <= j, in the order of x; the entry of a lower (j, i) is
the conjugate of that of (i, j). With the frame frequencies f = 2 pi (0,
-delta_r, -delta_1), the dephasing signs s = (1, -1, 0) and the excited
indicator e = (0, 0, 1), the generator at (i, j) is

- for a wait (:class:`Wait`): -i (f_i - f_j) - gamma_2n (s_i - s_j)^2 / 4,
  nonzero only on the three coherences; the T1 rate block mixes the three
  populations, written through expm1 so that the trace is kept by
  construction, and a wait with t1_e = inf skips it;
- for a laser (:class:`Laser`): the same frame term plus one real decay per
  entry, -gamma_dp (s_i - s_j)^2 / 4 - (gamma / 2) (e_i + e_j), plus the
  feed of rho_ee into rho_00, rho_11 and rho_01 from the ground block gamma
  [alpha_p D D^+ + (1 - alpha_p) B B^+] (D, B the dark and bright states);
  the feed comes in closed form from the gap between each fed rate and
  that of rho_ee, with nothing that overflows at any rate or duration;
- for a pulse (:class:`Pulse`): the Hermitian 3x3 H of the two tones, f
  on its diagonal and the tones off it; U = exp(-i H t) acts as rho -> U
  rho U^dagger and comes in closed form from H's arrowhead structure, with
  no LAPACK call (:func:`_pulse_unitary`).

The waits and the laser hold f itself and the real rates apart, and every
map takes its frame turn from one routine (:func:`_frame`): per-level
phases p = e^{-i f t}, which turn coherence (i, j) by p_i conj(p_j). The
three coherence phases so stay consistent to rounding, and every map stays
completely positive at any duration.

Every form is a stack over G independent runs (the grid points of a sweep,
or G = 1) that differ only in their two-photon detuning delta_2: the frame
frequencies f are the one array with a run axis, (3, G), and every other
coefficient is shared by the stack. All three forms run batched with numpy
alone, so the engine never imports scipy. Every protocol propagates
through one kernel, :func:`propagate_periods`. It folds a period into the
map up to the readout, A, and the map of the whole period, M
(:func:`period_maps`: the lifted pulse, then row operations, with no dense
9x9 product, on maps stored point-last as (9, 9, G), so that every row
operation runs over G contiguous points), builds the powers of M, the
readout rows and the state at the start of every block of periods by
doubling, and reads out every period of every run, only the observables a
protocol asks for, with one batched product: O(log n_reps) batched real
products and no loop over periods or blocks. The same observables are read
off each run's state after its last period. The doublings write into
buffers made once per call, so the kernel's working set does not grow with
n_reps.

This module is the engine alone: protocols, their observables and their
calibrations live in :mod:`lambda_cpt.experiments`. The parameters it reads
(:class:`~lambda_cpt.lambda_system.SequenceConfig` and its drive) live in
:mod:`lambda_cpt.lambda_system`, which imports no numpy; the drive's
dark/bright spinors (:func:`dark_bright_basis`) are built here.

Units: MHz and us everywhere at the interface; the 2*pi sits inside the
generators only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lambda_system import LambdaConfig, SequenceConfig, polarization_efficiency

__all__ = [
    "LambdaBasis",
    "dark_bright_basis",
    "thermal_ground_state",
    "pure_state",
    "Pulse",
    "Wait",
    "Laser",
    "segment_generators",
    "period_maps",
    "propagate_periods",
]

TWO_PI = 2.0 * math.pi

log = logging.getLogger("lambda_cpt.dynamics")


@dataclass(frozen=True)
class LambdaBasis:
    """Dark/bright ground spinors: orthonormal 2-component complex vectors over (|up>, |down>)."""

    dark: np.ndarray
    bright: np.ndarray


def dark_bright_basis(cfg: LambdaConfig) -> LambdaBasis:
    """Build the dark/bright decomposition for a drive configuration.

    dark   = (omega_2 e^{-i psi} |up> - omega_1 |down>) / N
    bright = (omega_1 |up> + omega_2 e^{+i psi} |down>) / N

    with N = sqrt(omega_1^2 + omega_2^2). The |down> coefficient of the dark
    state is pinned real and negative, which fixes the global phases. The
    bright phase is the conjugate of the dark one; that is what makes the
    pair orthonormal for every psi and the bright-branch coupling to |->
    real.
    """
    o1, o2 = cfg.omega_1, cfg.omega_2
    norm = math.hypot(o1, o2)
    phase = np.exp(-1j * cfg.psi)
    dark = np.array([o2 * phase, -o1], dtype=complex) / norm
    bright = np.array([o1, o2 * np.conj(phase)], dtype=complex) / norm
    return LambdaBasis(dark=dark, bright=bright)


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
# rho's six upper entries (i, j), i <= j, in the order of x.
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
# The entries rho_ee feeds under the laser: rho_00, rho_11 and rho_01.
_FED = np.array([0, 1, 3])
_FED_ROWS, _FED_COLS = _ROWS[_FED], _COLS[_FED]
# Tr(O rho) = x . (weights * coordinates(O)) for Hermitian O.
_READ_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
# Generator entry at (i, j) per unit rate: -(s_i - s_j)^2 / 4 for a dephasing
# jump sqrt(rate / 2) diag(s), and -(e_i + e_j) / 2 for the laser's decay out
# of |->, which leaves every state at the rate of its excited indices.
_S = np.array([1.0, -1.0, 0.0])
_E = np.array([0.0, 0.0, 1.0])
_DEPHASING = -((_S[_ROWS] - _S[_COLS]) ** 2) / 4.0
_DECAY = -(_E[_ROWS] + _E[_COLS]) / 2.0


def _coordinates(m: np.ndarray) -> np.ndarray:
    """Real coordinates of each Hermitian 3x3 matrix of a stack."""
    upper = m[..., _ROWS, _COLS]
    return np.concatenate([upper.real, upper[..., 3:].imag], axis=-1)


@dataclass(frozen=True)
class Pulse:
    """Coherent segment: rho -> U rho U^dagger with U = exp(-i h duration).

    h is the rotating-frame Hamiltonian of the two tones in rad/us, in the
    (|up>, |down>, |->) basis

        h = [[f_0,      0,        c_0],
             [0,        f_1,      c_1],
             [c_0^*,    c_1^*,    f_2]],

    an arrowhead: the two ground states never couple. The form holds what
    its map reads: frequencies, the frame frequencies f = 2 pi (0, -delta_r,
    -delta_1) of each run, point-last as (3, G), the array the waits and the
    laser hold; and couplings, the tones c = 2 pi (omega_1 / 2, (omega_2 /
    2) e^{i psi}), shape (2,), shared by the stack. psi sits so that <D|h|->
    = 0 at delta_r = 0 for any psi, D the dark state. The map takes U in
    closed form from this arrowhead (:func:`_pulse_unitary`).
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    duration: float


@dataclass(frozen=True)
class Wait:
    """Drive-free segment: the frame turns and dephases every coherence, T1 relaxes.

    frequencies holds the frame frequencies f of the three levels (rad/us),
    point-last as (3, G); dephasing holds the real generator entries of the
    upper coherences rho_01, rho_02, rho_12, -gamma_2n (s_i - s_j)^2 / 4,
    shape (3,), shared by the stack. Without T1 the generator is diagonal: -i
    (f_i - f_j) plus that dephasing at each coherence (i, j). Electron T1
    flips |up> and |down> to |-> at 1/(2 t1_e) each and |-> back to each at
    1/(4 t1_e): on the populations a rate block with eigenvalues 0,
    -1/t1_e (P_- relaxes to half the trace) and -1/(2 t1_e) (the ground
    imbalance decays), and on every coherence a further decay at
    1/(2 t1_e). t1_e = inf switches it off: the map then leaves the
    populations as they are, and skips the block.
    """

    frequencies: np.ndarray
    dephasing: np.ndarray
    t1_e: float
    duration: float


@dataclass(frozen=True)
class Laser:
    """Optical repolarization: the frame turn, one real decay per entry, and the rho_ee feed.

    frequencies holds the frame frequencies f of the three levels (rad/us),
    point-last as (3, G), the array the pulse and the waits hold; decay
    holds the real generator entry of each upper entry of rho, rho_00,
    rho_11, rho_22, rho_01, rho_02, rho_12, -gamma_dp (s_i - s_j)^2 / 4 -
    (gamma / 2) (e_i + e_j), shape (6,); column holds the rate at which
    rho_ee feeds rho_00, rho_11 and rho_01, shape (3,). Both are shared by
    the stack; nothing else mixes.
    """

    frequencies: np.ndarray
    decay: np.ndarray
    column: np.ndarray
    duration: float


def segment_generators(
    seq: SequenceConfig, delta_2: np.ndarray | None = None
) -> tuple[Pulse, Wait, Laser, Wait]:
    """The four segments of one sequence period, each in the form its map takes.

    In order: coherent microwave pulse, pre-laser wait (stretched to t_seq),
    laser pulse, post-laser wait. Each form is written from the frame
    frequencies f = 2 pi (0, -delta_r, -delta_1) and the rate of each
    channel, by the rule of the module docstring. The forms are a stack of
    G runs at one-photon detuning seq.lam.delta_1, one per two-photon
    detuning of the 1-D array delta_2; delta_2 = None is the G = 1 stack at
    seq.lam.delta_2. Only the frequencies, (3, G), depend on delta_2; every
    other array is shared by the stack. The pulse, the waits and the laser
    share one frequency array, so a caller must not modify a segment's
    arrays in place.
    """
    lam = seq.lam
    delta_2 = np.asarray([lam.delta_2] if delta_2 is None else delta_2, dtype=float)
    f = np.empty((3, len(delta_2)))
    f[0] = 0.0
    f[1] = -(lam.delta_1 - delta_2)
    f[2] = -lam.delta_1
    f *= TWO_PI
    couplings = TWO_PI * np.array([lam.omega_1 / 2.0, lam.omega_2 / 2.0 * np.exp(1j * lam.psi)])
    dephasing = seq.gamma_2n * _DEPHASING[3:]
    decay = seq.gamma_dp * _DEPHASING + seq.gamma * _DECAY
    alpha_p = polarization_efficiency(lam)
    basis = dark_bright_basis(lam)
    # The entries of the ground block gamma [alpha_p D D^+ + (1 - alpha_p)
    # B B^+] that rho_ee feeds.
    dark, bright = basis.dark, basis.bright
    column = seq.gamma * (
        alpha_p * (dark[_FED_ROWS] * dark[_FED_COLS].conj())
        + (1.0 - alpha_p) * (bright[_FED_ROWS] * bright[_FED_COLS].conj())
    )
    return (
        Pulse(f, couplings, seq.t_mw),
        Wait(f, dephasing, seq.t1_e, seq.wait_pre_total),
        Laser(f, decay, column, seq.t_laser),
        Wait(f, dephasing, seq.t1_e, seq.t_wait_post),
    )


# (cos, sin) -> (sin, -cos), the dark state from the bright one.
_FLIP = np.array([[1.0], [-1.0]])
_EYE = np.eye(3)[..., None]


def _pulse_unitary(pulse: Pulse) -> np.ndarray:
    """U = exp(-i h t) of each pulse of a stack, point-last as (3, 3, G), in closed form.

    With the phases e^{i phi_j} of the two couplings, h = P H P^dagger for P =
    diag(e^{i phi_0}, e^{i phi_1}, 1) and a real arrowhead H, the setting of
    Stor, Slapnicar & Barlow (Linear Algebra Appl. 464 (2015)). The drive's
    dark and bright states D = (sin, -cos, 0) and B = (cos, sin, 0), with cos
    = |c_0| / N, sin = |c_1| / N and N = hypot(|c_0|, |c_1|), turn H - f_0
    tridiagonal: diagonal (cos^2 p, sin^2 p, q), -cos sin p between D and B,
    N between B and |->, with p = f_1 - f_0 and q = f_2 - f_0. The D-B term
    is exactly zero at omega_1 = 0, omega_2 = 0 and delta_r = 0, so there D
    is an exact eigenvector, with eigenvalue cos^2 p (0 at delta_r = 0), and
    the steps below keep it exact.

    That matrix, scaled by its largest entry so that nothing overflows or
    underflows at any finite entry, is diagonalized entry by entry over the
    stack. N > 0 for every drive the schema accepts (omega_eff >= 1e-150
    MHz), so the scale is positive and the scaled matrix, whose largest
    entry is 1, is no multiple of the identity. The eigenvalue farthest from
    the other two, at least half the spread from each, comes from the
    trigonometric root of the characteristic cubic; its eigenvector v is the
    row of the adjugate of H - lambda with the largest diagonal entry, the
    best cross product of two rows (Kopp, Int. J. Mod. Phys. C 19, 523
    (2008)), and its eigenvalue is v's Rayleigh quotient. An orthonormal
    pair w1, w2 spanning v's complement (Duff et al., J. Comput. Graph.
    Tech. 6 (2017)), taken as one complex vector w = w1 + i w2, holds the
    remaining 2x2 block: turning w by minus half the phase of w^T H w = t00
    - t11 + 2i t01 is the Jacobi rotation that diagonalizes it, with
    eigenvalues (t00 + t11 +- |w^T H w|) / 2. Phases are taken by arctan2,
    which needs no guard at a zero or subnormal argument. The eigenvectors
    are so orthonormal to rounding by construction, and they diagonalize a
    matrix within a few eps ||H|| of H, also where two eigenvalues nearly
    meet: U is unitary to rounding at every norm and within a few eps ||H||
    t of exp(-i h t). U = 1 + sum_k (e^{-i lambda_k t} - 1) y_k y_k^dagger,
    with y_k = P (D, B, |->) v_k, so t = 0 gives the identity exactly.
    """
    f = pulse.frequencies
    c = pulse.couplings[:, None]
    r = np.abs(c)
    n = np.hypot(r[0], r[1])
    mixing = r / n
    cos, sin = mixing
    # D and B over (|up>, |down>), times the phase of each tone (1 for a tone
    # that is off).
    phase = np.exp(1j * np.arctan2(c.imag, c.real))
    bright, dark = phase * mixing, phase * (mixing[::-1] * _FLIP)
    pq = f[1:] - f[0]
    scale = np.maximum(np.abs(pq).max(0), n)
    p, q = pq / scale
    n = n / scale
    # The scaled H - f_0 over (D, B, |->): diagonal a, k between D and B, n
    # between B and |->.
    a = np.empty((3,) + p.shape)
    a[:2] = mixing * mixing * p
    a[2] = q
    k = -(cos * sin) * p
    # Smith's root, m + 2 rho cos(arccos(x) / 3) with x = det(H - m) / (2
    # rho^3), taken for |x| and given the sign of x: the one farthest from
    # the other two.
    mean = (p + q) / 3.0
    x0, x1, x2 = dev = a - mean
    kk, nn = k * k, n * n
    rho = np.sqrt(((dev * dev).sum(0) + 2.0 * (kk + nn)) / 6.0)
    det = x0 * (x1 * x2 - nn) - x2 * kk
    cosine = np.minimum(np.abs(det) / (2.0 * rho**3), 1.0)
    root = mean + np.copysign(2.0 * rho, det) * np.cos(np.arccos(cosine) / 3.0)
    # The rows of adj(H - root), each the cross product of the other two rows.
    d0, d1, d2 = a - root
    kd2, d0n, kn = -k * d2, -d0 * n, k * n
    adj = np.array([[d1 * d2 - nn, kd2, kn], [kd2, d0 * d2, d0n], [kn, d0n, d0 * d1 - kk]])
    best = np.abs(adj.diagonal()).argmax(-1)
    v = adj[best, :, np.arange(len(best))].T
    v = v / np.sqrt((v * v).sum(0))
    # The complement of v as one complex vector w1 + i w2 (Duff et al.): w1 =
    # e_x + s b x u and w2 = s e_y + b y u, u = v + s e_z, b = -1 / (s + v_z).
    vx, vy, vz = v
    sign = np.copysign(1.0, vz)
    zeta = sign * vx + 1j * vy
    bz = zeta / (-sign - vz)
    plane = np.array([1.0 + vx * bz, 1j * sign + vy * bz, -zeta])
    # H applied to v and to w1 + i w2: then v's Rayleigh quotient, and the
    # trace t00 + t11 and the skew t00 - t11 + 2i t01 of the 2x2 block.
    both = np.array([v, plane]).transpose(1, 0, 2)
    h_both = a[:, None] * both
    off_diagonal = np.array([k, n])[:, None]
    h_both[:2] += off_diagonal * both[1:]
    h_both[1:] += off_diagonal * both[:2]
    rayleigh, skew = (both * h_both).sum(0)
    trace = (plane.conj() * h_both[:, 1]).sum(0).real
    # The Jacobi rotation: turning the plane by -arg(+-skew) / 2, the sign
    # that makes the real part nonnegative, makes the skew real, as +-|skew|.
    # The turn is at most pi / 4, and none where the block is diagonal.
    side = np.copysign(1.0, skew.real)
    plane *= np.exp(-0.5j * np.arctan2(side * skew.imag, side * skew.real))
    split = side * np.abs(skew)
    lams = np.array([rayleigh.real, 0.5 * (trace + split), 0.5 * (trace - split)]) * scale + f[0]
    # The eigenvectors over (|up>, |down>, |->), one column each.
    y = np.array([v, plane.real, plane.imag]).transpose(1, 0, 2)
    vec = np.empty(y.shape, dtype=complex)
    vec[:2] = dark[:, None] * y[0] + bright[:, None] * y[1]
    vec[2] = y[2]
    e = np.expm1(-1j * (lams * pulse.duration))
    return _EYE + ((vec * e)[:, None] * vec[None].conj()).sum(2)


def _lift(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write the map rho -> U rho U^dagger of each U of a stack into the point-last m.

    u is (3, 3, G) and m is (9, 9, G), entry [r, c, g] of the real map of
    U_g. Row (i, j) of U (x) U* holds U_ik conj(U_jl) at column (k, l). For
    the six upper rows, three complex products give the populations (k =
    l), the upper (k < l) and the lower (k > l) coherence columns, and these
    fold into the real basis, rho_kl = x_kl + i y_kl and rho_lk = x_kl - i
    y_kl.
    """
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

    z holds one complex factor per coherence and point, shape (3, G); each
    (Re, Im) row pair turns and shrinks by it.
    """
    re, im = m[_RE], m[_IM]
    z_re, z_im = z.real[:, None], z.imag[:, None]
    turned = z_re * re - z_im * im
    im *= z_re
    im += z_im * re
    re[...] = turned


def _frame(frequencies: np.ndarray, duration: float, exponent) -> tuple[np.ndarray, np.ndarray]:
    """The frame turn of a segment: p = e^{-i f t} of each level, and each coherence's factor.

    The factor of upper coherence (i, j), rho_01, rho_02, rho_12, is p_i
    conj(p_j) e^{exponent}, exponent its real exponent, shared by the stack;
    both come point-last, (3, G). Phases taken per level keep the phases of
    the three coherences consistent to rounding, so every map turned by them
    stays completely positive at any duration.
    """
    p = np.exp(-1j * (frequencies * duration))
    # p_i conj(p_j) of rho_01 and rho_02, then of rho_12.
    factors = np.empty_like(p)
    np.multiply(p[0], p[1:].conj(), out=factors[:2])
    np.multiply(p[1], p[2].conj(), out=factors[2])
    factors *= np.exp(exponent)
    return p, factors


def _wait_rows(wait: Wait, m: np.ndarray, turn: bool = True) -> np.ndarray:
    """W m for the map W of a wait and a point-last (9, 9, G) map m, in place.

    W turns and shrinks each coherence by its factor of :func:`_frame`, with
    the exact decay as its exponent; turn=False leaves the frame turn out,
    for a caller that applies diag(p) itself. The T1 block mixes the three
    population rows, written through two expm1 modes: the step r moves P_-
    toward half the trace, and the step s shrinks the ground imbalance;
    P_up and P_down give back r/2 each, so the trace is kept by
    construction. A wait with t1_e = inf has no T1 block, and its
    population rows are left as they are.
    """
    relax = -wait.duration / wait.t1_e
    # A decay exponent past the float range is an exact decay to zero.
    with np.errstate(over="ignore"):
        exponent = (wait.dephasing * wait.duration + 0.5 * relax)[:, None]
    if turn:
        _turn(m, _frame(wait.frequencies, wait.duration, exponent)[1])
    else:
        decay = np.exp(exponent)[:, None]
        m[_RE] *= decay
        m[_IM] *= decay
    if math.isfinite(wait.t1_e):
        up, down, excited = m[0], m[1], m[2]
        r = 0.5 * np.expm1(relax) * (excited - up - down)
        s = 0.5 * np.expm1(0.5 * relax) * (up - down)
        excited += r
        up += s - 0.5 * r
        down -= s + 0.5 * r
    return m


def _laser_rows(laser: Laser, m: np.ndarray) -> np.ndarray:
    """L m for the map L = exp(A t) of a laser and a point-last (9, 9, G) map m, in place.

    L scales each population by its real exponential, turns each coherence
    by its factor of :func:`_frame`, and adds to each fed entry the rho_ee
    row times c_i times the integral of e^{a_i (t - s)} e^{a_e s} over the
    laser, a_i the fed entry's rate (-gamma_dp - i (f_0 - f_1) for rho_01)
    and a_e that of rho_ee: e^{h} (e^{k t} - 1) / k, with h the one of a_i
    t, a_e t of larger real part and k the other rate minus the leading
    one, so that |e^{k t}| <= 1.
    """
    t = laser.duration
    d = laser.decay[:, None]
    # A decay exponent past the float range is an exact decay to zero.
    with np.errstate(over="ignore"):
        exponent = d * t
    scale = np.exp(exponent[:3])
    _, turn = _frame(laser.frequencies, t, exponent[3:])
    # The rate of each fed entry minus that of rho_ee, and e^{a_i t} of each
    # fed entry, rho_01's from the same p as its turn.
    f = laser.frequencies
    gap, own = np.empty_like(turn), np.empty_like(turn)
    gap[:2] = d[:2] - d[2]
    gap[2] = d[3] - d[2] - 1j * (f[0] - f[1])
    own[:2] = scale[:2]
    own[2] = turn[0]
    fed_leads = gap.real >= 0.0
    lead = np.where(fed_leads, own, scale[2])
    fed = laser.column[:, None] * lead * _growth(np.where(fed_leads, -gap, gap), t)
    excited = m[2]
    m[:2] *= scale[:2, None]
    m[:2] += fed[:2, None].real * excited
    _turn(m, turn)
    m[3] += fed[2].real * excited
    m[6] += fed[2].imag * excited
    excited *= scale[2]
    return m


def _growth(k: np.ndarray, t: float) -> np.ndarray:
    """(e^{k t} - 1) / k elementwise, by t times its Taylor series where |k t| < 1e-4.

    Both branches run on every entry, with float warnings off, and each
    entry keeps the one that is exact for it; k t is never divided by, so a
    k t past the float range, with a real part of -inf, gives -1 / k.
    """
    with np.errstate(all="ignore"):
        kt = k * t
        series = t * (1.0 + kt * (0.5 + kt * (1.0 / 6.0 + kt / 24.0)))
        return np.where(np.abs(kt) < 1e-4, series, np.expm1(kt) / k)


def period_maps(segments) -> tuple[np.ndarray, np.ndarray]:
    """The map of a period up to its readout, and the map of the whole period.

    segments are (pulse, wait, laser, wait), as from
    :func:`segment_generators`, stacks of G runs. Returns A = W_pre
    lift(U), from the start of a period to the readout, and M = W_post
    L_laser A, from the start of a period to the next, each a C-contiguous
    float64 (G, 9, 9) in the real coordinates x. Each map is built by its
    form, with no matrix product, no LAPACK call and no dense exponential,
    point-last in one (9, 9, G) array: the pre-laser wait's frame turn
    diag(p) (:func:`_frame`) multiplies the pulse's U, a (3, 3, G) stack in
    closed form (:func:`_pulse_unitary`), which is lifted to rho -> U rho
    U^dagger (:func:`_lift`); the wait's decay and T1 block follow by row
    operations (:func:`_wait_rows`), and A is copied out. The same array
    then becomes M: the laser scales the rows, turns the coherence pairs
    and adds its rho_ee row (:func:`_laser_rows`), and the post-laser wait
    turns the coherence pairs and mixes the populations. Each map depends
    on its own stack entry alone.
    """
    pulse, pre, laser, post = segments
    # The pre-laser wait's frame turn diag(p) acts on U before the lift.
    p, _ = _frame(pre.frequencies, pre.duration, 0.0)
    u = _pulse_unitary(pulse) * p[:, None]
    m = _lift(u, np.empty_like(u, dtype=float, shape=(9, 9, u.shape[-1])))
    _wait_rows(pre, m, turn=False)
    a = m.transpose(2, 0, 1).copy()
    _wait_rows(post, _laser_rows(laser, m))
    return a, m.transpose(2, 0, 1).copy()


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
    a, m = period_maps(segments)
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
