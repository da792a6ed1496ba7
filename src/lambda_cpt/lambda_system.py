"""Parameters of the microwave Lambda scheme and its pulsed sequence.

Two nuclear-spin ground states |up>, |down> are each driven to one shared
excited state |-> by a microwave tone. The drive pair defines an orthonormal
dark/bright decomposition of the ground manifold: the dark state carries no
coupling to |-> at two-photon resonance, the bright state carries all of it.
This module holds the parameter dataclasses of a run (the drive, the
repeated sequence, the readout), each with its range rules, the
closed-form scalar algebra of the drive (the Rabi split and the pumping
efficiency) and the readout's linear map (:meth:`ReadoutModel.signal`).
It runs on ``math`` alone, so that the run schema
(:mod:`lambda_cpt.config`) imports no numpy; the dark/bright spinors, all
time evolution and the kernel's working set live in
:mod:`lambda_cpt.dynamics`.

Units: Rabi frequencies and detunings are linear frequencies in MHz, times
in us, angles in rad. Factors of 2*pi appear only in the dynamics engine
and in the rules that bound its phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .spin_model import require

__all__ = [
    "LambdaConfig",
    "SequenceConfig",
    "ReadoutModel",
    "split_rabi",
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
        # The engine turns the frame at 2 pi delta rad/us.
        for name in ("delta_1", "delta_2"):
            value = getattr(self, name)
            require(math.isfinite(2.0 * math.pi * value), name, "finite, and 2 pi times it too")
        for name in ("psi", "theta", "phi"):
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
class SequenceConfig:
    """Timing, drive, and dissipation of the repeated trapping sequence.

    t_seq defaults to the packed duration t_mw + t_wait_pre + t_laser +
    t_wait_post; any surplus stretches the pre-laser dark wait. gamma_2n and
    t1_e are optional decoherence channels acting during the waits. gamma is
    the optical repolarization rate of the laser (1/us); its dark/bright
    branching follows from lam, so replacing the drive replaces it too.
    n_reps >= 1 and durations >= 0 are rules of this class alone: t_seq may
    fall 1e-9 us short of the packed duration, and wait_pre_total is then 0.
    So are the two phase rules: pi omega_eff t_mw, the phase of the pulse's
    coupling, is finite, and the largest frame phase of a period, 2 pi
    max(|delta_1|, |delta_r|) t_seq, is below 2^33 rad (ulp <= 9.5e-7 rad).
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
            math.isfinite(math.pi * self.lam.omega_eff * self.t_mw),
            "t_mw",
            "short enough that the pulse phase pi omega_eff t_mw is finite",
        )
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
        lam = self.lam
        require(
            2.0 * math.pi * max(abs(lam.delta_1), abs(lam.delta_r)) * self.t_seq < 2.0**33,
            "t_seq",
            "short enough that the largest frame phase 2 pi max(|delta_1|, |delta_1 - delta_2|)"
            " t_seq is below 2^33 rad",
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

    :meth:`signal` applies it: signal = reference_0 * (1 - contrast * P_-).
    """

    contrast: float = 0.3
    reference_0: float = 1.0

    def __post_init__(self) -> None:
        require(0 <= self.contrast <= 1, "contrast", "in [0, 1]")
        require(0 < self.reference_0 < math.inf, "reference_0", "finite and positive")

    def signal(self, p_excited):
        """Photoluminescence level for an excited population, a number or an array of them."""
        return self.reference_0 * (1.0 - self.contrast * p_excited)


def split_rabi(omega_eff: float, ratio: float) -> tuple[float, float]:
    """The Rabi pair (omega_1, omega_2) with hypot omega_eff and omega_1/omega_2 = ratio.

    omega_2 = omega_eff / hypot(1, ratio), so a ratio whose square overflows
    still resolves (nearly all of omega_eff goes to omega_1).
    """
    omega_2 = omega_eff / math.hypot(1.0, ratio)
    return ratio * omega_2, omega_2


def polarization_efficiency(cfg: LambdaConfig) -> float:
    """Probability alpha_p that a decay from |-> lands in the dark state.

    Closed form (written with the Rabi pair rather than the ratio r =
    omega_1/omega_2, so the omega_2 = 0 limit needs no special casing):

        alpha_p = [o2^2 sin^2(theta/2) + o1^2 cos^2(theta/2)
                   + o1 o2 sin(theta) cos(phi - psi)] / (o1^2 + o2^2)

    which equals |<e|D>|^2 for D of
    :func:`~lambda_cpt.dynamics.dark_bright_basis` and the spinor of |->,
    e = -sin(theta/2) e^{-i phi} |up> + cos(theta/2) |down>.
    The value is clamped to [0, 1]: at an all-bright or all-dark drive,
    rounding leaves the closed form about 1e-16 outside that range.
    """
    o1, o2 = cfg.omega_1, cfg.omega_2
    half = cfg.theta / 2.0
    s2, c2 = math.sin(half) ** 2, math.cos(half) ** 2
    cross = o1 * o2 * math.sin(cfg.theta) * math.cos(cfg.phi - cfg.psi)
    alpha_p = (o2 * o2 * s2 + o1 * o1 * c2 + cross) / (o1 * o1 + o2 * o2)
    return min(max(alpha_p, 0.0), 1.0)

