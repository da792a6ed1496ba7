"""Secular spin Hamiltonian of an NV electron coupled to one 13C nucleus.

The electron spin-1 triplet with zero-field splitting D sits in an axial
magnetic field B; a nearby 13C couples through the secular part of the
hyperfine tensor (longitudinal a_zz plus anisotropic a_ani at azimuth phi).
Within each electron manifold m_s the nuclear spin sees a 2x2 block whose
mixing angle controls which microwave transitions are allowed and how
strongly, so the whole module reduces to closed-form 2x2 algebra.

Conventions: frequencies in MHz, field in G, angles in rad. The nuclear
Zeeman term enters with the sign that puts |up> at +gamma_n B / 2 in the
m_s = 0 manifold.

As the bottom layer, this module also holds the one parameter error of the
package: every parameter dataclass checks its own fields with
:func:`require`, which raises :class:`FieldError` naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "FieldError",
    "require",
    "PhysicalConstants",
    "HyperfineParams",
    "SpinSystemParams",
    "EigenSystem",
    "EsrLine",
    "mixing_angles",
    "eigensystem",
    "esr_lines",
]


class FieldError(ValueError):
    """A parameter value outside its rule; ``field`` names the parameter."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} must be {rule}")
        self.field = name


def require(ok: bool, name: str, rule: str) -> None:
    """Raise FieldError(name, rule) unless ``ok``.

    Write ``ok`` as the condition a valid value meets (``0 < x < math.inf``,
    not ``x <= 0``), so that NaN, which fails every comparison, fails it.
    """
    if not ok:
        raise FieldError(name, rule)


@dataclass(frozen=True)
class PhysicalConstants:
    """Zero-field splitting and gyromagnetic ratios.

    d in MHz, gamma_e and gamma_n in MHz/G. Defaults are the usual NV and
    13C values.
    """

    d: float = 2870.0
    gamma_e: float = 2.8
    gamma_n: float = 1.07e-3

    def __post_init__(self) -> None:
        for name in ("d", "gamma_e", "gamma_n"):
            require(0 < getattr(self, name) < math.inf, name, "finite and positive")


@dataclass(frozen=True)
class HyperfineParams:
    """Secular hyperfine couplings: longitudinal a_zz, anisotropic a_ani (MHz)."""

    a_zz: float = 1.0
    a_ani: float = 0.3
    phi: float = 0.0

    def __post_init__(self) -> None:
        require(0 < self.a_zz < math.inf, "a_zz", "finite and positive")
        require(0 <= self.a_ani < math.inf, "a_ani", "finite and nonnegative")
        require(0 <= self.phi < 2.0 * math.pi, "phi", "in [0, 2 pi)")


@dataclass(frozen=True)
class SpinSystemParams:
    """Full parameter set: constants, hyperfine couplings, axial field (G)."""

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    hyperfine: HyperfineParams = field(default_factory=HyperfineParams)
    b_field: float = 850.0

    def __post_init__(self) -> None:
        require(0 <= self.b_field < math.inf, "b_field", "finite and nonnegative")


@dataclass(frozen=True)
class EigenSystem:
    """Eigenstructure of the three electron manifolds.

    energies
        (nu_1 ... nu_6) in MHz: the m_s = 0 pair, the m_s = -1 pair, and the
        m_s = +1 pair, in that order.
    theta, theta_prime
        Nuclear mixing angles of the m_s = -1 and m_s = +1 manifolds (rad).
    """

    theta: float
    theta_prime: float
    energies: tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class EsrLine:
    """One allowed microwave transition: frequency (MHz), relative weight, label."""

    frequency: float
    weight: float
    label: str


def mixing_angles(params: SpinSystemParams) -> tuple[float, float]:
    """Nuclear mixing angles (theta, theta_prime) of the m_s = -1/+1 manifolds.

    theta = atan2(a_ani, a_zz - gamma_n B) and theta' = atan2(a_ani,
    a_zz + gamma_n B). atan2 keeps theta in (0, pi) and continuous through
    the a_zz = gamma_n B point, where the anisotropic coupling dominates and
    theta = pi/2 exactly.
    """
    hf = params.hyperfine
    nz = params.constants.gamma_n * params.b_field
    theta = math.atan2(hf.a_ani, hf.a_zz - nz)
    theta_prime = math.atan2(hf.a_ani, hf.a_zz + nz)
    return theta, theta_prime


def eigensystem(params: SpinSystemParams) -> EigenSystem:
    """Closed-form eigenenergies and nuclear mixing angles of all three manifolds.

    m_s = 0: pure |up>/|down> split by the nuclear Zeeman term.
    m_s = -1: states mixed by theta, split by sqrt(a_ani^2 + (a_zz - gamma_n B)^2).
    m_s = +1: states mixed by the exact theta'; the energy splitting uses the
    linearized form (a_zz + gamma_n B), which is the convention the transition
    frequencies below are quoted in. The exact splitting differs from it by
    a_ani^2/(2(a_zz + gamma_n B)) at most, about 0.02 MHz for typical inputs.
    """
    c, hf = params.constants, params.hyperfine
    theta, theta_prime = mixing_angles(params)
    nz = c.gamma_n * params.b_field
    ez = c.gamma_e * params.b_field

    split_m = math.hypot(hf.a_ani, hf.a_zz - nz)
    nu1 = nz / 2.0
    nu2 = -nz / 2.0
    nu3 = c.d - ez - split_m / 2.0
    nu4 = c.d - ez + split_m / 2.0
    nu5 = c.d + ez - (hf.a_zz + nz) / 2.0
    nu6 = c.d + ez + (hf.a_zz + nz) / 2.0

    return EigenSystem(
        theta=theta, theta_prime=theta_prime, energies=(nu1, nu2, nu3, nu4, nu5, nu6)
    )


def esr_lines(eig: EigenSystem) -> list[EsrLine]:
    """The six allowed transitions out of the m_s = 0 manifold.

    Four lines reach the m_s = -1 pair; their weights are the squared
    nuclear-spinor overlaps, i.e. cos^2(theta/2) for the spin-conserving
    pairs and sin^2(theta/2) for the spin-flipping ones, summing to 2.
    Two lines reach the m_s = +1 pair with weight cos^2(theta'/2), close to
    one because theta' is small whenever the field Zeeman shift adds to a_zz.
    """
    nu1, nu2, nu3, nu4, nu5, nu6 = eig.energies
    c2 = math.cos(eig.theta / 2.0) ** 2
    s2 = math.sin(eig.theta / 2.0) ** 2
    c2p = math.cos(eig.theta_prime / 2.0) ** 2
    return [
        EsrLine(frequency=nu3 - nu1, weight=c2, label="1: nu1 -> nu3"),
        EsrLine(frequency=nu3 - nu2, weight=s2, label="2: nu2 -> nu3"),
        EsrLine(frequency=nu4 - nu1, weight=s2, label="3: nu1 -> nu4"),
        EsrLine(frequency=nu4 - nu2, weight=c2, label="4: nu2 -> nu4"),
        EsrLine(frequency=nu5 - nu2, weight=c2p, label="5: nu2 -> nu5"),
        EsrLine(frequency=nu6 - nu1, weight=c2p, label="6: nu1 -> nu6"),
    ]
