"""Algebra of the isolated microwave Lambda scheme.

Two nuclear-spin ground states |up>, |down> are each driven to one shared
excited state |-> by a microwave tone. The drive pair defines an orthonormal
dark/bright decomposition of the ground manifold: the dark state carries no
coupling to |-> at two-photon resonance, the bright state carries all of it.
Everything in this module is closed-form spinor algebra; no time evolution
happens here (see :mod:`lambda_cpt.dynamics` for that).

Units: Rabi frequencies and detunings are linear frequencies in MHz, angles
in rad. Factors of 2*pi appear only in the dynamics engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import require

__all__ = [
    "LambdaConfig",
    "LambdaBasis",
    "split_rabi",
    "dark_bright_basis",
    "polarization_efficiency",
]


@dataclass(frozen=True)
class LambdaConfig:
    """Drive and mixing parameters of one Lambda scheme.

    Parameters
    ----------
    omega_1, omega_2:
        Rabi frequencies of the two branches (MHz, linear frequency).
        Branch 1 couples |up> <-> |->, branch 2 couples |down> <-> |->.
    delta_1, delta_2:
        One-photon detunings of the two tones (MHz).
    psi:
        Relative phase between the two microwave tones (rad).
    theta:
        Nuclear mixing angle of the excited-state spinor (rad).
    phi:
        Hyperfine azimuthal phase (rad).
    """

    omega_1: float
    omega_2: float
    delta_1: float = 0.0
    delta_2: float = 0.0
    psi: float = 0.0
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_1", "omega_2"):
            require(0 <= getattr(self, name) < math.inf, name, "finite and nonnegative")
        for name in ("delta_1", "delta_2", "psi", "theta", "phi"):
            require(math.isfinite(getattr(self, name)), name, "finite")
        # The branching ratio and the dark-state overlap divide by omega_eff^2,
        # which must neither underflow to 0 nor overflow.
        require(
            1e-150 <= self.omega_eff <= 1e150,
            "omega_eff",
            "in [1e-150, 1e150] MHz (omega_eff = hypot(omega_1, omega_2))",
        )

    @property
    def delta_r(self) -> float:
        """Two-photon detuning delta_1 - delta_2 (MHz)."""
        return self.delta_1 - self.delta_2

    @property
    def omega_eff(self) -> float:
        """Effective Rabi frequency sqrt(omega_1^2 + omega_2^2) (MHz)."""
        return math.hypot(self.omega_1, self.omega_2)


@dataclass(frozen=True)
class LambdaBasis:
    """Dark/bright ground spinors: orthonormal 2-component complex vectors over (|up>, |down>)."""

    dark: np.ndarray
    bright: np.ndarray


def split_rabi(omega_eff: float, ratio: float) -> tuple[float, float]:
    """The Rabi pair (omega_1, omega_2) with hypot omega_eff and omega_1/omega_2 = ratio.

    omega_2 = omega_eff / hypot(1, ratio), so a ratio whose square overflows
    still resolves (nearly all of omega_eff goes to omega_1).
    """
    omega_2 = omega_eff / math.hypot(1.0, ratio)
    return ratio * omega_2, omega_2


def dark_bright_basis(cfg: LambdaConfig) -> LambdaBasis:
    """Build the dark/bright decomposition for a drive configuration.

    dark   = (omega_2 e^{-i psi} |up> - omega_1 |down>) / N
    bright = (omega_1 |up> + omega_2 e^{+i psi} |down>) / N

    with N = sqrt(omega_1^2 + omega_2^2). The |down> coefficient of the dark
    state is pinned real and negative, which fixes the global phases. The
    bright phase is the conjugate of the dark one; that is what makes the
    pair orthonormal for every psi and the bright-branch coupling to |->
    real.

    Raises
    ------
    ValueError
        If both Rabi frequencies vanish (already rejected by LambdaConfig).
    """
    o1, o2 = cfg.omega_1, cfg.omega_2
    norm = math.hypot(o1, o2)
    phase = np.exp(-1j * cfg.psi)
    dark = np.array([o2 * phase, -o1], dtype=complex) / norm
    bright = np.array([o1, o2 * np.conj(phase)], dtype=complex) / norm
    return LambdaBasis(dark=dark, bright=bright)


def polarization_efficiency(cfg: LambdaConfig) -> float:
    """Probability alpha_p that a decay from |-> lands in the dark state.

    Closed form (written with the Rabi pair rather than the ratio r =
    omega_1/omega_2, so the omega_2 = 0 limit needs no special casing):

        alpha_p = [o2^2 sin^2(theta/2) + o1^2 cos^2(theta/2)
                   + o1 o2 sin(theta) cos(phi - psi)] / (o1^2 + o2^2)

    which equals |<e|D>|^2 for D of :func:`dark_bright_basis` and the
    spinor of |->, e = -sin(theta/2) e^{-i phi} |up> + cos(theta/2) |down>.
    The value is clamped to [0, 1]: at an all-bright or all-dark drive,
    rounding leaves the closed form about 1e-16 outside that range.
    """
    o1, o2 = cfg.omega_1, cfg.omega_2
    half = cfg.theta / 2.0
    s2, c2 = math.sin(half) ** 2, math.cos(half) ** 2
    cross = o1 * o2 * math.sin(cfg.theta) * math.cos(cfg.phi - cfg.psi)
    alpha_p = (o2 * o2 * s2 + o1 * o1 * c2 + cross) / (o1 * o1 + o2 * o2)
    return min(max(alpha_p, 0.0), 1.0)
