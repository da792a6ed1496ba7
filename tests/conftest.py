"""Shared pytest plumbing.

Collects acceptance lines for the end-of-run summary, and applies one exact
segment map for the tests that check a segment on its own.
"""

import numpy as np
from scipy.linalg import expm

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def propagate(rho: np.ndarray, gen: np.ndarray, duration: float) -> np.ndarray:
    """rho after one segment: vec(rho) -> expm(gen * duration) vec(rho)."""
    return (expm(gen * duration) @ rho.reshape(9)).reshape(3, 3)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)
