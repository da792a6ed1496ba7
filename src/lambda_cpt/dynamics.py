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
:func:`period_form`, which writes each coefficient of a period once, in the
form the maps of its segments take, into one :class:`Period`.

The maps act on real coordinates, x = (rho_00, rho_11, rho_22, Re rho_01,
Re rho_02, Re rho_12, Im rho_01, Im rho_02, Im rho_12), in which every
Hermiticity-preserving map is a float64 9x9 (Havel, J. Math. Phys. 44, 534
(2003)). The generator entries a period holds are indexed by rho's upper
entries (i, j), i <= j, in the order of x; the entry of a lower (j, i) is
the conjugate of that of (i, j). With the frame frequencies f = 2 pi (0,
-delta_r, -delta_1), the dephasing signs s = (1, -1, 0) and the excited
indicator e = (0, 0, 1), the generator at (i, j) is

- for a wait (:func:`_wait_rows`): -i (f_i - f_j) - gamma_2n (s_i - s_j)^2
  / 4, nonzero only on the three coherences; the T1 rate block mixes the
  three populations, written through expm1 so that the trace is kept by
  construction, and a wait with t1_e = inf skips it;
- for the laser (:func:`_laser_rows`): the same frame term plus one real
  decay per entry, -gamma_dp (s_i - s_j)^2 / 4 - (gamma / 2) (e_i + e_j),
  plus the feed of rho_ee into rho_00, rho_11 and rho_01 from the ground
  block gamma [alpha_p D D^+ + (1 - alpha_p) B B^+] (D, B the dark and
  bright states); the feed comes in closed form from the gap between each
  fed rate and that of rho_ee, with nothing that overflows at any rate or
  duration;
- for the pulse (:func:`_pulse_unitary`): the Hermitian 3x3 H of the two
  tones, f on its diagonal and the tones off it; U = exp(-i H t) acts as
  rho -> U rho U^dagger and comes in closed form from H's arrowhead
  structure, with no LAPACK call.

A period holds f itself and the real rates apart. The frame turns each
coherence (i, j) by p_i conj(p_j), from the per-level phases p = e^{-i f
t} (:func:`_phases`), so the three coherence phases stay consistent to
rounding and every map stays completely positive at any duration. The
row operations turn nothing: the turn Phi of the laser and the post-laser
wait commutes with every real decay and with the T1 block, so
:func:`_write_maps` folds it into the next pulse, and the frame phases
enter only that pulse and Phi.

Every period is a stack over G independent runs (the grid points of a
sweep, or G = 1) that differ in their two-photon detuning delta_2 and, in a
stack over several sequence periods, in t_seq: the frame frequencies f,
(3, G), and such per-run pre-laser waits, (G,), are the arrays with a run
axis, and every other coefficient is shared by the stack. All three maps
run batched with numpy alone, so the engine never imports scipy; what the
stack shares comes once as Python numbers, and so do the wait factors of
each distinct pre-laser wait. Every protocol propagates through one
kernel, :func:`propagate_periods`. It streams the runs in chunks through
one working-set buffer of fixed size, writes the folded maps of a chunk
into it (:func:`_write_maps`: the lifted pulse, then row operations on
maps stored point-last as (9, 9, G), so that each runs over G contiguous
points), builds the powers of the
period map, the readout rows and the block starts by doubling, and reads
the observables a protocol asks for, at the periods it keeps (a pump
trace every one, a spectrum its steady window, a composition none) and
after the last: O(log n_reps) batched real products and no loop over
periods or blocks.

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
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .lambda_system import LambdaConfig, SequenceConfig, polarization_efficiency
from .spin_model import FieldError

__all__ = [
    "dark_bright_basis",
    "thermal_ground_state",
    "pure_state",
    "Period",
    "period_form",
    "propagate_periods",
    "kernel_layout",
    "kernel_bytes",
    "KERNEL_BUDGET",
]

TWO_PI = 2.0 * math.pi

log = logging.getLogger("lambda_cpt.dynamics")


def dark_bright_basis(cfg: LambdaConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (dark, bright) spinors of a drive: orthonormal complex 2-vectors over (|up>, |down>).

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
    phase = complex(math.cos(cfg.psi), -math.sin(cfg.psi))
    dark, bright = np.array(
        [[o2 * phase / norm, -o1 / norm], [o1 / norm, o2 * phase.conjugate() / norm]],
        dtype=complex,
    )
    return dark, bright


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
# The levels i < j of each upper coherence rho_01, rho_02, rho_12.
_UPPER_I = np.array([0, 0, 1])
_UPPER_J = np.array([1, 2, 2])
# rho's six upper entries (i, j), i <= j, in the order of x.
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
# Tr(O rho) = x . (weights * coordinates(O)) for Hermitian O.
_READ_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
# Generator entry at (i, j) per unit rate: -(s_i - s_j)^2 / 4 for a dephasing
# jump sqrt(rate / 2) diag(s), and -(e_i + e_j) / 2 for the laser's decay out
# of |->, which leaves every state at the rate of its excited indices.
_S = np.array([1.0, -1.0, 0.0])
_E = np.array([0.0, 0.0, 1.0])
_DEPHASING = -((_S[_ROWS] - _S[_COLS]) ** 2) / 4.0
_DECAY = -(_E[_ROWS] + _E[_COLS]) / 2.0


# The real coordinates of a Hermitian 3x3 rho among its 18 floats, Re and Im
# of each entry in row-major order: Re of rho_00, rho_11, rho_22, rho_01,
# rho_02, rho_12, then Im of rho_01, rho_02, rho_12.
_COORDINATES = np.array([0, 8, 16, 2, 4, 10, 3, 5, 11])


def _coordinates(m) -> np.ndarray:
    """Real coordinates of each Hermitian 3x3 matrix of a stack, (..., 3, 3) to (..., 9)."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape[:-2] + (18,)).take(_COORDINATES, axis=-1)


@dataclass(frozen=True)
class Period:
    """One sequence period: every coefficient its four segment maps read, each held once.

    The segments run microwave pulse, pre-laser wait, laser, post-laser
    wait, for t_mw, t_pre, t_laser and t_post (us). frequencies holds the
    frame frequencies f = 2 pi (0, -delta_r, -delta_1) of the three levels
    (rad/us), point-last as (3, G), one column per run. t_pre is a number
    the stack shares, or, for a stack whose runs differ in their sequence
    period t_seq, one pre-laser wait per run, shape (G,). These two are the
    fields with a run axis. couplings holds the pulse's tones c = 2 pi
    (omega_1 / 2, (omega_2 / 2) e^{i psi}), shape (2,); dephasing the
    waits' real generator entries of rho_01, rho_02, rho_12, -gamma_2n (s_i
    - s_j)^2 / 4, shape (3,), and t1_e their electron T1 (inf for none);
    decay the laser's real generator entry of each upper entry of rho,
    rho_00, rho_11, rho_22, rho_01, rho_02, rho_12, -gamma_dp (s_i -
    s_j)^2 / 4 - (gamma / 2) (e_i + e_j), shape (6,); and column the rate
    at which rho_ee feeds rho_00, rho_11 and rho_01 under the laser, shape
    (3,). Nothing else mixes.
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    dephasing: np.ndarray
    t1_e: float
    decay: np.ndarray
    column: np.ndarray
    t_mw: float
    t_pre: float | np.ndarray
    t_laser: float
    t_post: float


def period_form(
    seq: SequenceConfig, delta_2: np.ndarray | None = None, t_seq: np.ndarray | None = None
) -> Period:
    """One period of seq, each coefficient written once in the form its maps take.

    The coefficients come from the frame frequencies f = 2 pi (0, -delta_r,
    -delta_1) and the rate of each channel, by the rule of the module
    docstring; the pre-laser wait is stretched to t_seq. The period is a
    stack of G runs at one-photon detuning seq.lam.delta_1, one per
    two-photon detuning of the 1-D array delta_2; delta_2 = None is the G =
    1 stack at seq.lam.delta_2. Every run takes seq.t_seq, and the stack
    shares its pre-laser wait, seq.wait_pre_total; or, when t_seq is given,
    each run takes its own sequence period t_seq[g], each one a value
    SequenceConfig accepts for seq, and t_pre holds each run's wait, (G,),
    by the arithmetic of SequenceConfig.wait_pre_total, so that it is the
    same bits as that of seq at that t_seq. Only the frequencies, (3, G),
    and such per-run waits depend on the run; every other array is shared
    by the stack.
    """
    lam = seq.lam
    delta_2 = np.asarray([lam.delta_2] if delta_2 is None else delta_2, dtype=float)
    f = np.empty((3, len(delta_2)))
    f[0] = 0.0
    f[1] = -(lam.delta_1 - delta_2)
    f[2] = -lam.delta_1
    f *= TWO_PI
    if t_seq is None:
        t_pre = seq.wait_pre_total
    else:
        slack = np.asarray(t_seq, dtype=float) - seq.packed_duration
        t_pre = np.maximum(seq.t_wait_pre + slack, 0.0)
    tone_2 = lam.omega_2 / 2.0 * complex(math.cos(lam.psi), math.sin(lam.psi))
    couplings = TWO_PI * np.array([lam.omega_1 / 2.0, tone_2])
    dephasing = seq.gamma_2n * _DEPHASING[3:]
    decay = seq.gamma_dp * _DEPHASING + seq.gamma * _DECAY
    alpha_p = polarization_efficiency(lam)
    # The entries of the ground block gamma [alpha_p D D^+ + (1 - alpha_p)
    # B B^+] that rho_ee feeds, one Python number each.
    dark, bright = (x.tolist() for x in dark_bright_basis(lam))
    column = np.array([
        seq.gamma * (
            alpha_p * (dark[i] * dark[j].conjugate())
            + (1.0 - alpha_p) * (bright[i] * bright[j].conjugate())
        )
        for i, j in ((0, 0), (1, 1), (0, 1))
    ])
    return Period(
        f, couplings, dephasing, seq.t1_e, decay, column,
        seq.t_mw, t_pre, seq.t_laser, seq.t_wait_post,
    )


# The scaled H - f_0 over (D, B, |->), six rows per point, picked from the
# rows (n, p, q) of each point and scaled by the shared mixing: its diagonal
# (cos^2 p, sin^2 p, q), k = -cos sin p between D and B, n between B and
# |->, and a row of zeros.
_H_PICK = np.array([1, 1, 2, 1, 0, 0])
_DIAGONAL = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])[:, None]
# 6 rho^2 = x0^2 + x1^2 + x2^2 + 2 (k^2 + n^2), as weights on those rows squared.
_RHO2 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 0.0])[:, None] / 6.0
# The six distinct entries of the symmetric adj(H - root), from (d0, d1, d2,
# k, n, 0): d1 d2 - n^2, d0 d2, d0 d1 - k^2, -k d2, k n and -d0 n, each the
# product of the rows _ADJ_LEFT and _ADJ_RIGHT times a sign, less the square
# _ADJ_LESS; row r of adj(H - root) holds the entries _ADJ_ROWS[r].
_ADJ_LEFT = np.array([1, 0, 0, 3, 3, 0])
_ADJ_RIGHT = np.array([2, 2, 1, 2, 4, 4])
_ADJ_SIGN = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0])[:, None]
_ADJ_LESS = np.array([4, 5, 3, 5, 5, 5])
_ADJ_ROWS = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
# e_z, e_x and e_y over (D, B, |->), the last two as the real and imaginary
# parts of one complex vector.
_E_Z = np.array([0.0, 0.0, 1.0])[:, None]
_E_X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])[..., None]
_E_Y = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])[..., None]
# The pairs (x, y) of the quadratic forms x^T H y: (v, v), (w1, w1), (w2, w2)
# and (w1, w2).
_FORM_LEFT = np.array([0, 1, 2, 1])
_FORM_RIGHT = np.array([0, 1, 2, 2])
_EYE = np.eye(3)[..., None]


def _pulse_unitary(period: Period) -> np.ndarray:
    """U = exp(-i h t_mw) of each pulse of a stack, point-last as (3, 3, G), in closed form.

    h is the rotating-frame Hamiltonian of the two tones in rad/us, in the
    (|up>, |down>, |->) basis, from the frame frequencies f and the
    couplings c of the period:

        h = [[f_0,      0,        c_0],
             [0,        f_1,      c_1],
             [c_0^*,    c_1^*,    f_2]],

    an arrowhead: the two ground states never couple. psi sits in c so that
    <D|h|-> = 0 at delta_r = 0 for any psi, D the dark state.

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

    The coefficients the stack shares (N, the mixing, the tones' phases and
    so D and B) come once, as Python numbers; every step per point runs
    over all points at once, several scalars of a point stacked into one
    (k, G) array where they share a step.
    """
    lams, vec = _pulse_eigensystem(period)
    # The columns of vec scale in place, after their conjugates are taken;
    # U sums their outer products one column at a time.
    conj = vec.conj()
    vec *= np.expm1(-1j * (lams * period.t_mw))
    u = vec[:, None, 0] * conj[None, :, 0]
    u += vec[:, None, 1] * conj[None, :, 1]
    u += vec[:, None, 2] * conj[None, :, 2]
    u += _EYE
    return u


def _pulse_eigensystem(period: Period) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues lambda_k, (3, G), and eigenvectors y_k, columns of a (3, 3, G), of each h.

    By the steps of :func:`_pulse_unitary`; its own function, so that the
    steps' intermediates are freed before U is composed, and so are those
    of each step's own function. On arrays of a few entries per point, a
    new array costs less than an operation in place, so the steps make new
    arrays.
    """
    f = period.frequencies
    c0, c1 = period.couplings.tolist()
    r0, r1 = abs(c0), abs(c1)
    n = math.hypot(r0, r1)
    cos, sin = r0 / n, r1 / n
    # D and B over (|up>, |down>), times the phase of each tone (1 for a tone
    # that is off).
    angle0, angle1 = (math.atan2(c.imag, c.real) for c in (c0, c1))
    phase0, phase1 = (complex(math.cos(a), math.sin(a)) for a in (angle0, angle1))
    dark = np.array([phase0 * sin, phase1 * -cos])[:, None, None]
    bright = np.array([phase0 * cos, phase1 * sin])[:, None, None]
    # (n, p, q) of each point, then scaled by the largest.
    w = f - f[0]
    w[0] = n
    scale = np.abs(w).max(0)
    w = w / scale
    h = np.array([cos * cos, sin * sin, 1.0, -(cos * sin), 1.0, 0.0])[:, None] * w.take(_H_PICK, 0)
    y = _complement(_farthest_eigenvector(h, (w[1] + w[2]) / 3.0))
    # The quadratic forms v^T H v, w1^T H w1, w2^T H w2 and w1^T H w2 of the
    # tridiagonal H: then v's Rayleigh quotient, and the trace t00 + t11 and
    # the skew t00 - t11 + 2i t01 of the 2x2 block.
    left, right = y.take(_FORM_LEFT, 0), y.take(_FORM_RIGHT, 0)
    crossed = left[:, :2] * right[:, 1:] + left[:, 1:] * right[:, :2]
    forms = (left * right * h[:3]).sum(1) + (crossed * h[3:5]).sum(1)
    del left, right, crossed
    skew_re, skew_im = forms[1] - forms[2], forms[3] + forms[3]
    # The Jacobi rotation: turning the plane by -arg(+-skew) / 2, the sign
    # that makes the real part nonnegative, makes the skew real, as +-|skew|.
    # The turn is at most pi / 4, and none where the block is diagonal.
    side = np.copysign(1.0, skew_re)
    turn = np.arctan2(side * skew_im, side * skew_re) * -0.5
    cos_t, sin_t = np.cos(turn), np.sin(turn)
    split = side * np.hypot(skew_re, skew_im)
    trace = forms[1] + forms[2]
    lams = np.array([forms[0], (trace + split) * 0.5, (trace - split) * 0.5]) * scale + f[0]
    w1, w2 = y[1], y[2]
    y = np.array([y[0], w1 * cos_t - w2 * sin_t, w1 * sin_t + w2 * cos_t])
    # The eigenvectors over (|up>, |down>, |->), one column each.
    vec = np.empty_like(y, dtype=complex)
    np.multiply(dark, y[:, 0], out=vec[:2])
    vec[:2] += bright * y[:, 1]
    vec[2] = y[:, 2]
    return lams, vec


def _farthest_eigenvector(h: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The unit eigenvector v, (3, G), of the eigenvalue of each H farthest from the other two.

    h holds H's rows (diagonal, k, n, 0) as in :func:`_pulse_eigensystem`,
    and mean its mean eigenvalue, the trace over 3.
    """
    g = h.shape[-1]
    # Smith's root, m + 2 rho cos(arccos(x) / 3) with x = det(H - m) / (2
    # rho^3), taken for |x| and given the sign of x: the one farthest from
    # the other two. dev holds (x0, x1, x2, k, n, 0), H - m with its couplings.
    dev = h - _DIAGONAL * mean
    squares = dev * dev
    rho2 = (squares * _RHO2).sum(0)
    rho = np.sqrt(rho2)
    x0, x1, x2 = dev[0], dev[1], dev[2]
    det = x0 * (x1 * x2 - squares[4]) - x2 * squares[3]
    cosine = np.minimum(np.abs(det) / ((rho2 + rho2) * rho), 1.0)
    root = mean + np.copysign(rho + rho, det) * np.cos(np.arccos(cosine) / 3.0)
    # adj(H - root): its six entries, then the row with the largest diagonal.
    d = h - _DIAGONAL * root
    adj = d.take(_ADJ_LEFT, 0) * d.take(_ADJ_RIGHT, 0) * _ADJ_SIGN - squares.take(_ADJ_LESS, 0)
    best = np.abs(adj[:3]).argmax(0)
    v = adj.take(_ADJ_ROWS, 0)[best, :, np.arange(g)].T
    return v / np.sqrt((v * v).sum(0))


def _complement(v: np.ndarray) -> np.ndarray:
    """v and an orthonormal pair w1, w2 spanning its complement, stacked (3, 3, G).

    After Duff et al.: w1 = e_x + s b x u and w2 = s e_y + b y u, with u = v
    + s e_z, b = -1 / (s + v_z) and s the sign of v_z; w1 and w2 come as
    the real and imaginary parts of one complex vector, (1 + vx bz, i s + vy
    bz, -zeta), zeta = s vx + i vy and bz = zeta / (-s - vz).
    """
    s = np.copysign(1.0, v[2])
    u = v + _E_Z * s
    bz = np.array([s * v[0], v[1]]) / (-s - v[2])
    return np.concatenate((v[None], bz[:, None] * u + (_E_X + _E_Y * s)))


def _lift(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write the map rho -> U rho U^dagger of each U of a stack into the point-last m.

    u is (3, 3, G) and m is (9, 9, G), entry [r, c, g] of the real map of
    U_g. Row (i, j) of U (x) U* holds U_ik conj(U_jl) at column (k, l). For
    the six upper rows, three complex products give the populations (k =
    l), the upper (k < l) and the lower (k > l) coherence columns, and these
    fold into the real basis, rho_kl = x_kl + i y_kl and rho_lk = x_kl - i
    y_kl: column x_kl takes upper + lower, column y_kl i (upper - lower).
    Each group of three columns is written into m as it comes, the real
    parts into the six upper rows, the imaginary parts into the three
    coherence rows.
    """
    # Column k of U at the rows i and j of the six upper rows: left[k] holds
    # U_ik and right[k] conj(U_jk); mt is m with its rows and columns swapped.
    by_column = u.transpose(1, 0, 2)
    left, right = by_column.take(_ROWS, axis=1), by_column.take(_COLS, axis=1)
    # Each name freed as soon as it is done with, and each product written
    # over a factor no later product reads, so that the lift holds at most
    # three (3, 6, G) complex stacks.
    del u, by_column
    np.conjugate(right, out=right)
    mt = m.transpose(1, 0, 2)
    upper = left * right
    mt[:3, :6] = upper.real
    mt[:3, 6:] = upper[:, 3:].imag
    # U_ik conj(U_jl) into upper[c], then U_il conj(U_jk) into lower[c], for
    # (k, l) = (0, 1), (0, 2), (1, 2). lower is right, written from c = 2
    # down, so that each right[c] is overwritten once no product reads it;
    # the sum and the difference then go into left.
    pairs = ((0, 1), (0, 2), (1, 2))
    for c, (k, l) in enumerate(pairs):
        np.multiply(left[k], right[l], out=upper[c])
    lower = right
    for c in (2, 1, 0):
        k, l = pairs[c]
        np.multiply(left[l], right[k], out=lower[c])
    block = np.add(upper, lower, out=left)
    mt[3:6, :6] = block.real
    mt[3:6, 6:] = block[:, 3:].imag
    np.subtract(upper, lower, out=block)
    block *= 1j
    mt[6:, :6] = block.real
    mt[6:, 6:] = block[:, 3:].imag
    return m


def _phases(frequencies: np.ndarray, duration: float | np.ndarray) -> np.ndarray:
    """p = e^{-i f t} of each level over a segment of duration t, point-last (3, G).

    t is a number, or one duration per run, (G,).
    """
    return np.exp(-1j * (frequencies * duration))


def _wait_decay(
    period: Period, t: float | np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """The T1 exponent -t / t1_e of a wait of duration t, and each coherence's decay factor.

    The factors are e^{-gamma_2n (s_i - s_j)^2 t / 4 - t / (2 t1_e)}; an
    exponent past the float range is an exact decay to zero. t is a number,
    which the stack shares, or one wait per run, (G,), as a stack over
    sequence periods holds them; the exponents come the same way. The
    factors of each distinct wait come once, as Python numbers, and are
    spread over its runs as (3, 1, G), or (3, 1, 1) when shared, so that
    each run's are the bits that its wait alone gives.
    """
    relax = -t / period.t1_e
    if not isinstance(t, np.ndarray):
        decay = [math.exp(x * t + 0.5 * relax) for x in period.dephasing.tolist()]
        return relax, np.array(decay)[:, None, None]
    waits, where = np.unique(t, return_inverse=True)
    decay = [
        [math.exp(x * w + 0.5 * (-w / period.t1_e)) for w in waits.tolist()]
        for x in period.dephasing.tolist()
    ]
    return relax, np.array(decay).take(where, axis=1)[:, None]


def _wait_rows(period: Period, t: float | np.ndarray, m: np.ndarray) -> np.ndarray:
    """W m for the folded map W of a wait of duration t and a point-last (9, 9, G) map m, in place.

    t is a number or one wait per run, (G,), as :func:`_wait_decay` takes
    it. W shrinks each coherence by its real decay factor of
    :func:`_wait_decay` and leaves its frame turn to :func:`_write_maps`.
    Electron T1 flips |up> and |down> to |-> at 1/(2 t1_e) each and |->
    back to each at 1/(4 t1_e): on the populations a rate block with
    eigenvalues 0, -1/t1_e (P_- relaxes to half the trace) and -1/(2 t1_e)
    (the ground imbalance decays), and on every coherence a further decay
    at 1/(2 t1_e). The block mixes the three population rows, written
    through two expm1 modes of the T1 exponent: the step r moves P_- toward
    half the trace, and the step s shrinks the ground imbalance; P_up and
    P_down give back r/2 each, so the trace is kept by construction. t1_e =
    inf switches T1 off: the wait then has no T1 block, and its population
    rows are left as they are.
    """
    relax, decay = _wait_decay(period, t)
    # The (Re, Im) row pairs of the coherences, as (2, 3, 9, G).
    coherences = m[_RE.start :].reshape(2, 3, 9, -1)
    coherences *= decay
    if math.isfinite(period.t1_e):
        up, down, excited = m[0], m[1], m[2]
        r = 0.5 * np.expm1(relax) * (excited - up - down)
        s = 0.5 * np.expm1(0.5 * relax) * (up - down)
        excited += r
        up += s - 0.5 * r
        down -= s + 0.5 * r
    return m


def _laser_rows(period: Period, m: np.ndarray) -> np.ndarray:
    """L m for the folded map L of the laser and a point-last (9, 9, G) map m, in place.

    The laser's map is exp(A t_laser) = T L, T its frame turn, which
    :func:`_write_maps` folds into the next pulse. L scales each entry by
    its real exponential e^{d_i t} and adds to each fed entry the rho_ee row
    times c_i times the integral of e^{a_i (t - s)} e^{a_e s} over the
    laser, a_i the fed entry's rate (d_01 - i (f_0 - f_1) for rho_01) and
    a_e that of rho_ee: e^{h} (e^{k t} - 1) / k, with h the one of a_i t,
    a_e t of larger real part and k the other rate minus the leading one,
    so that |e^{k t}| <= 1. rho_01's feed alone is complex, per point, and
    takes the conjugate of its turn: where rho_01 leads, its e^{a_i t}
    becomes the real e^{d_01 t}, else e^{a_e t} takes the phase e^{i (f_0 -
    f_1) t}. What the stack shares comes once, as Python numbers: the
    exponentials of the six real rates, and the rate gaps' real parts,
    which pick the leading rates.
    """
    t = period.t_laser
    d = period.decay.tolist()
    column = period.column.tolist()
    # e^{d t} of each entry; an exponent past the float range is an exact
    # decay to zero.
    scale = [math.exp(x * t) for x in d]
    f = period.frequencies
    beat = f[0] - f[1]
    # The rate of rho_00, rho_11 and rho_01 minus that of rho_ee, negated
    # where the fed entry leads: k of rho_00 and rho_11, then rho_01's per
    # point, (2 + G,), in one _growth call.
    gaps = [d[i] - d[2] for i in (0, 1, 3)]
    leads = [gap >= 0.0 for gap in gaps]
    signs = [-1.0 if lead else 1.0 for lead in leads]
    per_point = signs[2] * (gaps[2] - 1j * beat)
    growth = _growth(np.concatenate(([signs[0] * gaps[0], signs[1] * gaps[1]], per_point)), t)
    feeds = [
        column[i].real * (scale[i] if leads[i] else scale[2]) * growth[i].real for i in (0, 1)
    ]
    if leads[2]:
        coherence = column[2] * scale[3] * growth[2:]
    else:
        coherence = column[2] * scale[2] * np.exp(1j * (beat * t)) * growth[2:]
    excited = m[2]
    m[:2] *= np.array(scale[:2])[:, None, None]
    m[:2] += np.array(feeds)[:, None, None] * excited
    coherences = m[_RE.start :].reshape(2, 3, -1)
    coherences *= np.array(scale[3:])[:, None]
    # Re and Im of rho_01, rows 3 and 6.
    m[3:7:3] += np.array([coherence.real, coherence.imag])[:, None] * excited
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


def _write_maps(period: Period, a: np.ndarray, m: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write the folded maps A' into a and M' into m, both (G, 9, 9), built point-last in work, (9, 9, G).

    The laser and the post-laser wait turn each coherence (i, j) by q_i
    conj(q_j), q = e^{-i f (t_laser + t_post)}: the map Phi of rho ->
    diag(q) rho diag(q)^dagger, which commutes with every real decay and
    with the T1 block. With A the map from the start of a period to its
    readout and M = Phi X the map of the whole period, the folded maps are
    A' = A Phi and M' = X Phi, so that A M^n = A' M'^n Phi^-1 and M^n = Phi
    M'^n Phi^-1. Returns Phi's factors q_i conj(q_j) of rho_01, rho_02 and
    rho_12, point-last (3, G).

    Each map is built by its segments, with no matrix product, no LAPACK
    call and no dense exponential, point-last in work, so that each row
    operation runs over G contiguous points. The frame phases enter U' =
    diag(p) U diag(q), p = e^{-i f t_pre} the pre-laser wait's turn and U
    the pulse in closed form (:func:`_pulse_unitary`), which is lifted to
    rho -> U' rho U'^dagger (:func:`_lift`); every row operation after it
    is real but the laser's rho_01 feed: the pre-laser wait's decay and T1
    block (:func:`_wait_rows`) give A', which is copied out; the laser
    (:func:`_laser_rows`) and the post-laser wait give M'. Each map depends
    on its own stack entry alone.
    """
    f = period.frequencies
    q = _phases(f, period.t_laser + period.t_post)
    _lift(_pulse_unitary(period) * (_phases(f, period.t_pre)[:, None] * q), work)
    _wait_rows(period, period.t_pre, work)
    a[...] = work.transpose(2, 0, 1)
    _wait_rows(period, period.t_post, _laser_rows(period, work))
    m[...] = work.transpose(2, 0, 1)
    return q.take(_UPPER_I, 0) * q.take(_UPPER_J, 0).conj()


def _turned(x: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """States x in real coordinates, (G, 9), with each upper coherence multiplied by turn, (3, G)."""
    out = x.copy()
    coherences = (x[:, _RE] + 1j * x[:, _IM]) * turn.T
    out[:, _RE], out[:, _IM] = coherences.real, coherences.imag
    return out


# Largest drift of tr rho from tr rho0 a run of n periods may end with,
# relative to max(1, |tr rho0|): max(1e-10, 64 eps n). The kernel's rounding
# moves the trace by up to about 1.7e-15 per period over the tests' draws and
# the shipped runs (2e-16 on resonance), so the bound grows with the run.
_TRACE_DRIFT = 1e-10
_DRIFT_PER_PERIOD = 64 * np.finfo(float).eps

# The most memory one call of the propagation kernel may hold, in bytes: the
# working set of one chunk of its runs and the arrays it returns (kernel_bytes).
KERNEL_BUDGET = 2**30
# The working set of one chunk of a call's runs, in bytes, at least one run:
# a call streams its runs through one buffer of this size. CHANGES.md holds
# the per-run times it was chosen by.
_CHUNK_BYTES = 8 * 2**20


def kernel_layout(n_reps: int, observables: int, start: int) -> tuple[int, int, int, tuple, int]:
    """How :func:`propagate_periods` cuts a call of n_reps >= 1 periods read from period start on.

    Periods fall into blocks of K, the largest power of two with K^2 <=
    n_reps, so that sqrt(n_reps) / 2 < K <= sqrt(n_reps): ceil(n_reps / K)
    blocks. The readouts come from every block from the one that holds
    period start on, and from the last two at least. The kernel doubles the
    starts of the n_reps // K whole blocks and of the end, n = n_reps // K +
    1.

    The working set of each run is cut into six regions, in this order and
    of these sizes in float64 entries, for k = ``observables``:

    - the powers M'^(2^i), i < max(log2 K, 1), one 9x9 slot each, M' first
      (81 max(log2 K, 1));
    - the readout rows R_c A' M'^j, j < K, of each observable c (9 K k);
    - the 9x9 slot in which A' is built and P = (M'^K)^T then put (81);
    - the n block starts (9 n);
    - a slab that holds in turn the point-last map build, the other slot of
      the powers of P that the doublings of the starts square, and the
      readout rows transposed (9 max(9, K k));
    - the readouts of b blocks: the b = blocks - first blocks read when
      they are at most three, else the first and the last, b = 2, the
      blocks between going straight into the readouts returned (k K b).

    A call streams its runs in chunks of max(1, C // B) runs through one
    buffer, B the bytes of a run's six regions and C = 8 MiB.
    Returns K, the block count, the first block read, the six sizes and
    the runs of a chunk.
    """
    block = 1 << (math.isqrt(n_reps).bit_length() - 1)
    blocks = -(-n_reps // block)
    first = min(start // block, max(blocks - 2, 0))
    sizes = (
        81 * max(block.bit_length() - 1, 1),
        9 * block * observables,
        81,
        9 * (1 + n_reps // block),
        9 * max(9, block * observables),
        observables * block * (2 if blocks - first > 3 else blocks - first),
    )
    return block, blocks, first, sizes, max(1, _CHUNK_BYTES // (8 * sum(sizes)))


def kernel_bytes(runs: int, observables: int, layout: tuple, read: int) -> int:
    """Bytes a call of :func:`propagate_periods` holds: one chunk's working set and its outputs.

    The call runs ``runs`` stacked runs, each cut by ``layout``, the
    :func:`kernel_layout` of its n_reps, its k = ``observables`` and its
    first period read, and reads ``read`` periods. It holds the working set
    of one chunk of at most that many runs, and returns per run the k
    readouts of each period read and the k final values, 8 bytes per entry.
    """
    return 8 * (min(runs, layout[4]) * sum(layout[3]) + runs * observables * (read + 1))


def propagate_periods(
    period: Period, rho0: np.ndarray, periods: range, observables
) -> tuple[np.ndarray, np.ndarray]:
    """Run periods.stop = n_reps >= 1 periods of G stacked runs from rho0, and read periods.

    period is as from :func:`period_form` (G = 1, or a stack over G
    detunings and sequence periods); every run starts from the 3x3 state
    rho0. observables are k Hermitian 3x3 operators O, read as Tr(O rho).
    periods is a range of consecutive periods from 0 <= start <= n_reps:
    range(n_reps) reads every period, range(n_reps - w, n_reps) the last w,
    and range(n_reps, n_reps) none. Returns the values at the readout
    instant of each period read, shape (G, len(periods), k), each
    observable's contiguous, and at the end of the last period, shape (G,
    k): float64 arrays that own their data and nothing more.

    The runs stream in chunks through one working set, cut as
    :func:`kernel_layout` states, whose size does not grow with G; each
    chunk runs as :func:`_propagate_chunk` states. A run's values are the
    same bits whichever runs share its call or its chunk, an observable's
    the same bits whichever others are read, and a readout the same
    whichever other periods are read.

    Raises FieldError before anything is allocated when the call would
    hold more than :data:`KERNEL_BUDGET` (:func:`kernel_bytes`), naming
    n_reps when a single run is over it and points (the G runs of a grid)
    when only all G are. Raises ValueError when periods is no such range,
    or when a final state is not finite or its trace (the sum of its three
    populations) drifts from tr rho0 by more than max(1e-10, 64 eps n_reps)
    max(1, |tr rho0|), eps the float64 epsilon: the period did not describe
    a physical run.
    """
    ok = isinstance(periods, range) and periods.step == 1 and 0 <= periods.start <= periods.stop
    if not (ok and periods.stop >= 1):
        raise ValueError(
            "periods must be a range(start, n_reps), 0 <= start <= n_reps, n_reps >= 1, "
            f"not {periods!r}"
        )
    n_reps = periods.stop
    g = period.frequencies.shape[-1]
    read = _READ_WEIGHTS * _coordinates(observables).reshape(-1, 9)
    k = len(read)
    layout = block, blocks, first, sizes, chunk = kernel_layout(n_reps, k, periods.start)
    for name, runs in (("n_reps", 1), ("points", g)):
        held = kernel_bytes(runs, k, layout, len(periods))
        if held > KERNEL_BUDGET:
            raise FieldError(
                name,
                f"small enough that the kernel call holds at most {KERNEL_BUDGET / 2**30:g} "
                f"GiB, not {held / 2**30:.3g} GiB",
            )
    work = np.empty_like(period.frequencies, dtype=float, shape=min(g, chunk) * sum(sizes))
    readouts, final = np.empty((g, k, len(periods))), np.empty((g, k))
    x0 = _coordinates(rho0)
    for lo in range(0, g, chunk):
        part, runs = slice(lo, lo + chunk), period
        if chunk < g:  # the period sliced on its run axis
            t_pre = period.t_pre[part] if isinstance(period.t_pre, np.ndarray) else period.t_pre
            runs = replace(period, frequencies=period.frequencies[:, part], t_pre=t_pre)
        _propagate_chunk(runs, x0, read, periods, layout, work, readouts[part], final[part])
    if log.isEnabledFor(logging.DEBUG):
        levels, doublings = block.bit_length() - 1, (n_reps // block).bit_length()
        products = 2 * levels + 2 * doublings + (n_reps % block).bit_count() + 2 + (blocks - first > 3)
        log.debug(
            "propagate_periods: G=%d n_reps=%d read=%d K=%d blocks=%d products=%d work=%d chunks=%d",
            g, n_reps, len(periods), block, blocks, products, work.nbytes, -(-g // chunk),
        )
    return readouts.transpose(0, 2, 1), final


def _propagate_chunk(
    period: Period, x0, read, periods: range, layout: tuple, work, readouts, final
) -> None:
    """Run the G runs of period from the real state x0 through work; write their values.

    read holds the k weighted observable rows, (k, 9), layout the
    :func:`kernel_layout` of periods and k, and work at least G times its
    entries. Writes the readouts of the periods read into readouts, (G, k,
    len(periods)), and the final values into final, (G, k).

    The runs go through the folded maps A' and M' of :func:`_write_maps`
    on real 9-vectors: they start from Phi^-1 x0 (x0 for a state with no
    coherence), the readouts are R A' M'^j Phi^-1 x0, and the final state
    is Phi x_n. The readout rows R A' M'^j, j < K, and the powers M'^(2^i)
    up to M'^K come by doubling. So do the block starts: with P =
    (M'^K)^T, doubling i writes S_n .. S_2n-1 = S_0 .. S_n-1 P^n, n = 2^i
    (the last only the starts left), and each but the last squares P^n.
    The rows times the starts of the blocks read give the readouts, and
    the powers M'^(2^i) of the set bits i of n_reps mod K carry the last
    start to the end: O(log n_reps) batched products, no loop over periods
    or blocks. Each observable takes products of its own (its rows double
    on their own, and it has its own products with the starts and the
    final state), so no product's shape depends on how many are read.
    """
    g, k, n_reps = period.frequencies.shape[-1], len(read), periods.stop
    block, blocks, first, sizes, _ = layout
    count, rest = n_reps // block + 1, n_reps % block  # block starts; periods after the last
    ends = [0, *accumulate(g * size for size in sizes)]
    powers, rows, a, starts, slab, product = (work[lo:hi] for lo, hi in zip(ends, ends[1:]))
    powers = powers.reshape(sizes[0] // 81, g, 9, 9)
    rows = rows.reshape(g, k, block, 9)
    a, starts = a.reshape(g, 9, 9), starts.reshape(g, count, 9)
    turn = _write_maps(period, a, powers[0], slab[: 81 * g].reshape(9, 9, g))
    # rows[:, c, j] = R_c A' M'^j for j < block, doubling i filling the next
    # slice with powers[i] = M'^(2^i), observable by observable, and squaring
    # it into powers[i + 1]. M'^K comes transposed into a, which R A' has
    # been read from.
    np.matmul(read[:, None], a[:, None], out=rows[:, :, :1])
    levels = block.bit_length() - 1
    for i in range(levels):
        n = 1 << i
        np.matmul(rows[:, :, :n], powers[i][:, None], out=rows[:, :, n : 2 * n])
        if i < levels - 1:
            np.matmul(powers[i], powers[i], out=powers[i + 1])
    last = powers[-1].swapaxes(1, 2)
    if levels:
        np.matmul(last, last, out=a)
    else:
        a[...] = last
    # The states are row vectors, x^T <- x^T (M'^K)^T, so that the block
    # starts stack into (G, count, 9). Each doubling but the last squares its
    # power into the other of a and the slab's first map slot.
    starts[:, 0] = _turned(np.broadcast_to(x0, (g, 9)), turn.conj()) if x0[3:].any() else x0
    doublings, power, spare = (count - 1).bit_length(), a, slab[: 81 * g].reshape(g, 9, 9)
    for i in range(doublings):
        n = 1 << i
        stop = min(2 * n, count)
        np.matmul(starts[:, : stop - n], power, out=starts[:, n:stop])
        if stop < count:
            np.matmul(power, power, out=spare)
            power, spare = spare, power
    # The blocks read, from first on, by (observable, block, period in
    # block): products of the starts with each observable's K rows, copied
    # transposed into the slab the doublings have left: a C-contiguous
    # operand takes OpenBLAS's faster path. Of more than three blocks, those
    # between the first and the last come straight into readouts, and the
    # first and the last through the working set. Never one block of several
    # (kernel_layout reads the last two at least): numpy multiplies a lone
    # row by another BLAS routine, other bits.
    columns = slab[: g * k * 9 * block].reshape(g, k, 9, block)
    columns[...] = rows.swapaxes(2, 3)
    nb, start, stop = blocks - first, periods.start - first * block, n_reps - first * block
    edges = slice(first, blocks, nb - 1 if nb > 3 else 1)
    product = product.reshape(g, k, 2 if nb > 3 else nb, block)
    np.matmul(starts[:, None, edges], columns, out=product)
    product = product.reshape(g, k, product.shape[2] * block)
    if nb > 3:
        inner = readouts[:, :, block - start : (nb - 1) * block - start]
        np.matmul(starts[:, None, first + 1 : blocks - 1], columns, out=inner.reshape(g, k, nb - 2, block))
        readouts[:, :, : block - start] = product[:, :, start:block]
        readouts[:, :, (nb - 1) * block - start :] = product[:, :, block : stop - (nb - 2) * block]
    else:
        readouts[...] = product[:, :, start:stop]
    vec = starts[:, -1:]
    for i in range(levels):
        if rest >> i & 1:
            vec = vec @ powers[i].swapaxes(1, 2)
    x = _turned(vec[:, 0], turn)
    _check_final_states(x, x0, n_reps)
    np.matmul(x[:, None, None], read[:, :, None], out=final[:, :, None, None])


def _check_final_states(x: np.ndarray, x0: np.ndarray, n_reps: int) -> None:
    """Raise ValueError unless every final state x, n_reps periods on, keeps the trace of x0.

    A non-finite entry anywhere in x makes the sum of x non-finite; finite
    states of a run keep every entry within a few times the trace, so the
    sum cannot overflow for them.
    """
    trace0 = x0[0] + x0[1] + x0[2]
    drift = np.abs(x[:, :3].sum(-1) - trace0).max(initial=0.0)
    bound = max(_TRACE_DRIFT, _DRIFT_PER_PERIOD * n_reps)
    if not (drift <= bound * max(1.0, abs(trace0)) and np.isfinite(x.sum())):
        raise ValueError(
            "propagation left the physical states: every final state must be finite, "
            f"with trace within {bound:g} max(1, |tr rho0|) of tr rho0 = "
            f"{trace0:g} (largest drift {drift:.3g})"
        )
