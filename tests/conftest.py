"""Shared pytest plumbing.

Collects acceptance lines for the end-of-run summary, holds the scipy
matrix exponential the engine is checked against, and applies one exact
segment map for the tests that check a segment on its own.
"""

import numpy as np
from scipy.linalg import expm

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


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
