"""Shared pytest plumbing.

Collects acceptance lines for the end-of-run summary, holds the scipy
matrix exponential and the Lindblad generator the engine is checked
against, builds the dense Hamiltonian of a period's pulse and the dense
generator of each of its four segments, applies one exact segment map for
the tests that check a segment on its own, converts maps between the
row-major vec(rho) and the engine's real coordinates, puts the frame turn
back into the engine's folded period maps, holds nine observables that
fix a 3x3 state, and logs the numpy calls made on a period's arrays.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from lambda_cpt import dynamics
from lambda_cpt.dynamics import Period

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def _real_basis() -> np.ndarray:
    """VEC, whose column a is vec(E_a) for the Hermitian basis E_a of the real coordinates.

    The coordinates are (rho_00, rho_11, rho_22, Re rho_01, Re rho_02,
    Re rho_12, Im rho_01, Im rho_02, Im rho_12): rho = sum_a x_a E_a.
    """
    vec = np.zeros((3, 3, 9), dtype=complex)
    for i in range(3):
        vec[i, i, i] = 1.0
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        vec[i, j, 3 + a], vec[j, i, 3 + a] = 1.0, 1.0
        vec[i, j, 6 + a], vec[j, i, 6 + a] = 1j, -1j
    return vec.reshape(9, 9)


# vec(rho) = VEC x, and x = REAL vec(rho) for Hermitian rho.
VEC = _real_basis()
REAL = np.linalg.inv(VEC)


def _hermitian_basis() -> np.ndarray:
    """Nine Hermitian operators whose expectations fix a 3x3 density matrix.

    The projectors |i><i| on the diagonal, |i><j| + |j><i| above it and
    i (|i><j| - |j><i|) below it, in row-major order.
    """
    ops = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i == j:
                ops[i, j, i, i] = 1.0
            elif i < j:
                ops[i, j, i, j] = ops[i, j, j, i] = 1.0
            else:
                ops[i, j, i, j], ops[i, j, j, i] = 1j, -1j
    return ops.reshape(9, 3, 3)


OBSERVABLES = _hermitian_basis()


def expectations(observables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr(O rho) of each observable O, shape (..., k), for a (..., 3, 3) stack of states."""
    return np.real(np.einsum("kji,...ij->...k", observables, states))


def to_real(m: np.ndarray) -> np.ndarray:
    """A row-major vec(rho) superoperator (or stack) in real coordinates, complex dtype.

    Its imaginary part vanishes exactly when the map preserves Hermiticity.
    """
    return REAL @ m @ VEC


def from_real(m: np.ndarray) -> np.ndarray:
    """A real-coordinate map (or stack) as a row-major vec(rho) superoperator."""
    return VEC @ m @ REAL


def turn_maps(turn: np.ndarray) -> np.ndarray:
    """The real 9x9 maps, (G, 9, 9), that multiply each upper coherence by its factor of turn, (3, G)."""
    phi = np.zeros((turn.shape[-1], 9, 9))
    phi[:, [0, 1, 2], [0, 1, 2]] = 1.0
    for c in range(3):
        re, im = 3 + c, 6 + c
        phi[:, re, re] = phi[:, im, im] = turn[c].real
        phi[:, re, im], phi[:, im, re] = -turn[c].imag, turn[c].imag
    return phi


def period_maps(period: Period) -> tuple[np.ndarray, np.ndarray]:
    """The physical maps A (to the readout) and M (one period), each (G, 9, 9), of a period stack.

    ``dynamics._write_maps`` builds the folded A' = A Phi and M' = Phi^-1 M
    Phi and returns Phi's factors; the turn is put back here, A = A' Phi^-1
    and M = Phi M' Phi^-1, with Phi^-1 = Phi^T.
    """
    g = period.frequencies.shape[-1]
    a, m, work = (np.empty((g, 9, 9)) for _ in range(3))
    phi = turn_maps(dynamics._write_maps(period, a, m, work.reshape(9, 9, g)))
    inverse = phi.swapaxes(1, 2)
    return a @ inverse, phi @ m @ inverse


def scipy_expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a square matrix, kept off scipy's triangular branch.

    That branch takes the superdiagonal as (e^{d_i} - e^{d_j}) / (d_i - d_j)
    (scipy issue 11839), which is NaN when two diagonal entries differ by a
    subnormal amount, as those of a laser generator do at a subnormal
    detuning. A is exponentiated as the top block of blockdiag(A, A^T),
    which is triangular only when A is diagonal.
    """
    n = len(a)
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a
    block[n:, n:] = a.T
    return expm(block)[:n, :n]


def lindblad(h: np.ndarray, jumps: list[np.ndarray]) -> np.ndarray:
    """9x9 generator of d vec(rho)/dt for row-major vectorization.

    L = -i (H (x) I - I (x) H^T) + sum_J [J (x) J* - (J'J (x) I + I (x) (J'J)^T)/2]
    """
    eye = np.eye(3, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for j in jumps:
        jdj = j.conj().T @ j
        gen += np.kron(j, j.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    return gen


def t1_jumps(t1_e: float) -> list[np.ndarray]:
    """Electron T1 as Lindblad jumps: |up> and |down> flip to |-> at
    1/(2 t1_e) each, and |-> back to each of them at 1/(4 t1_e)."""
    up, down, excited = np.eye(3, dtype=complex)
    rate_up, rate_down = 1.0 / (2.0 * t1_e), 1.0 / (4.0 * t1_e)
    return [
        math.sqrt(rate_up) * np.outer(excited, up),
        math.sqrt(rate_up) * np.outer(excited, down),
        math.sqrt(rate_down) * np.outer(up, excited),
        math.sqrt(rate_down) * np.outer(down, excited),
    ]


def pulse_hamiltonian(period: Period) -> np.ndarray:
    """The (G, 3, 3) stack of dense Hamiltonians of a period's pulse.

    The frame frequencies on the diagonal, the shared couplings at (0, 2)
    and (1, 2), and their conjugates below.
    """
    f = period.frequencies.T
    h = np.zeros(f.shape[:-1] + (3, 3), dtype=complex)
    h[:, [0, 1, 2], [0, 1, 2]] = f
    h[:, [0, 1], 2] = period.couplings
    h[:, 2, [0, 1]] = np.conj(period.couplings)
    return h


def dense(period: Period) -> list[tuple[np.ndarray, float]]:
    """(generator stack, duration) of each of a period's four segments, one generator per run.

    In order: the 3x3 -i H of the pulse (:func:`pulse_hamiltonian`), the
    9x9 Liouvillian of the pre-laser wait (frame rotation and dephasing on
    the coherence slots, plus the Liouvillian of :func:`t1_jumps` when t1_e
    is finite), that of the laser (frame rotation and one decay per entry,
    plus the rho_ee feed into rho_00, rho_11 and rho_01), and that of the
    post-laser wait, at row-major vec slot 3i + j for entry (i, j).
    """
    f = period.frequencies.T
    laser = np.zeros(f.shape[:-1] + (9, 9), dtype=complex)
    # The entries (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2) at their
    # slots, then the lower coherences, the conjugates of the upper.
    rows, cols = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    diagonal = -1j * (f[:, rows] - f[:, cols]) + period.decay
    upper, lower = [0, 4, 8, 1, 2, 5], [3, 6, 7]
    laser[:, upper, upper] = diagonal
    laser[:, lower, lower] = diagonal[:, 3:].conj()
    laser[:, [0, 4, 1], 8] = period.column
    laser[:, 3, 8] = period.column[2].conj()
    dephasing = np.zeros(f.shape[:-1] + (3, 3))
    upper, lower = ([0, 0, 1], [1, 2, 2]), ([1, 2, 2], [0, 0, 1])
    dephasing[(..., *upper)] = dephasing[(..., *lower)] = period.dephasing
    diagonal = -1j * (f[..., :, None] - f[..., None, :]) + dephasing
    wait = diagonal.reshape(-1, 9)[:, :, None] * np.eye(9)
    if math.isfinite(period.t1_e):
        wait = wait + lindblad(np.zeros((3, 3)), t1_jumps(period.t1_e))
    return [
        (-1j * pulse_hamiltonian(period), period.t_mw),
        (wait, period.t_pre),
        (laser, period.t_laser),
        (wait, period.t_post),
    ]


def propagate(rho: np.ndarray, gen: np.ndarray, duration: float) -> np.ndarray:
    """rho after one segment: vec(rho) -> expm(gen * duration) vec(rho) for a
    9x9 generator, and rho -> U rho U^dagger with U = expm(gen * duration)
    for a 3x3 one (the coherent pulse)."""
    u = scipy_expm(gen * duration)
    if len(gen) == 3:
        return u @ rho @ u.conj().T
    return (u @ rho.reshape(9)).reshape(3, 3)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


class Call(tuple):
    """One logged numpy call, (name, operand shapes).

    ``into`` is True for a ufunc that wrote its result into ``out=``
    rather than into a fresh array.
    """

    into = False


class Recorded(np.ndarray):
    """An array that logs every numpy call made on it, or on an array made from it.

    Each entry of ``log`` is a :class:`Call`, (name, operand shapes);
    results come back as Recorded arrays, so a whole computation that
    starts from Recorded inputs is logged.
    """

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        call = Call((ufunc.__name__, [getattr(x, "shape", ()) for x in inputs]))
        call.into = out is not None
        Recorded.log.append(call)
        plain = [x.view(np.ndarray) if isinstance(x, Recorded) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Recorded) else x for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(Recorded) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        shapes = [x.shape for x in args if isinstance(x, np.ndarray)]
        Recorded.log.append(Call((func.__name__, shapes)))
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(Recorded) if isinstance(result, np.ndarray) else result


def recorded(period: Period) -> Period:
    """The period with each of its arrays viewed as :class:`Recorded`."""
    arrays = {k: v for k, v in vars(period).items() if isinstance(v, np.ndarray)}
    return replace(period, **{k: v.view(Recorded) for k, v in arrays.items()})
