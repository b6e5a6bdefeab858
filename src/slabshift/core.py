"""Domain types and assembly of physical energy shifts.

The geometry is a dielectric slab of refractive index ``n`` occupying
``-L/2 <= z <= L/2``, with a ground-state atom at height ``Z`` above the
near surface.  The atom is described by its dipole transitions; only the
components of the transition dipole moments parallel and perpendicular to
the slab surface enter.

All kernels downstream consume the dimensionless triple

    zeta = Z * E_ji,   lam = L * E_ji,   n,

and the physical shift is recovered from the dimensionless pair
``(W_par, W_z)`` through :func:`assemble_shift`:

    delta E = -(1/4 pi) sum_j (W_par |mu_par|^2 + W_z |mu_perp|^2)
              / (4 pi E_ji Z^4)

in natural units (hbar = c = epsilon_0 = 1).  ``W_par = W_z = 1``
corresponds to the retarded shift in front of a perfect mirror.

All types are immutable and all operations are pure, so everything here is
safe to use from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .units import FINE_STRUCTURE

__all__ = [
    "Slab",
    "Transition",
    "AtomSpec",
    "ReducedParams",
    "WPair",
    "EnergyShift",
    "reduce",
    "assemble_shift",
    "dipole_sq_from_momentum",
    "static_polarizability",
    "RETARDED_TWO_ZETA",
    "NONRETARDED_TWO_ZETA",
    "RegimeReport",
    "classify_regime",
]


@dataclass(frozen=True)
class Slab:
    """Non-dispersive dielectric slab: refractive index and thickness.

    ``L`` is in natural length units; ``math.inf`` is accepted and selects
    the half-space limit wherever it is meaningful.
    """

    n: float
    L: float

    def __post_init__(self):
        if not self.n >= 1.0:
            raise ValueError(f"refractive index must satisfy n >= 1, got {self.n}")
        if not self.L >= 0.0:
            raise ValueError(f"slab thickness must satisfy L >= 0, got {self.L}")


@dataclass(frozen=True)
class Transition:
    """One dipole transition: energy and squared dipole components.

    ``mu_par_sq`` is |mu_par|^2 = |<j|mu_x|i>|^2 + |<j|mu_y|i>|^2 and
    ``mu_perp_sq`` is |mu_perp|^2 = |<j|mu_z|i>|^2.
    """

    E_ji: float
    mu_par_sq: float
    mu_perp_sq: float

    def __post_init__(self):
        if not self.E_ji > 0.0:
            raise ValueError(f"transition energy must be positive, got {self.E_ji}")
        if self.mu_par_sq < 0.0 or self.mu_perp_sq < 0.0:
            raise ValueError("dipole-moment squares must be non-negative")
        if self.mu_par_sq == 0.0 and self.mu_perp_sq == 0.0:
            raise ValueError("at least one dipole-moment square must be nonzero")


@dataclass(frozen=True)
class AtomSpec:
    """Atom as an ordered list of dipole transitions from the ground state."""

    transitions: tuple[Transition, ...]

    def __init__(self, transitions: Sequence[Transition]):
        transitions = tuple(transitions)
        if not transitions:
            raise ValueError("an atom needs at least one transition")
        object.__setattr__(self, "transitions", transitions)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless parameter triple consumed by every kernel.

    ``zeta = Z*E_ji`` (atom-surface distance over transition wavelength),
    ``lam = L*E_ji`` (slab thickness over transition wavelength), and the
    refractive index.  ``lam = math.inf`` selects the half-space limit.
    """

    zeta: float
    lam: float
    n: float

    def __post_init__(self):
        if not 0.0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if not self.n >= 1.0:
            raise ValueError(f"refractive index must satisfy n >= 1, got {self.n}")


# Retardation is classified by the photon round-trip criterion 2*Z*E_ji
# against the atom's internal time scale.  The sharp thresholds of the regime
# tags are tool policy; the physics only distinguishes "much greater" from
# "much less" than one.
RETARDED_TWO_ZETA = 10.0
NONRETARDED_TWO_ZETA = 0.1


@dataclass(frozen=True)
class RegimeReport:
    """Retardation classification of one (zeta, lam) point."""

    two_zeta: float
    lambda_over_zeta: float
    regime: str  # "retarded" | "non-retarded" | "intermediate"


def classify_regime(p: ReducedParams) -> RegimeReport:
    """Tag a parameter point by the 2*zeta retardation criterion."""
    two_zeta = 2.0 * p.zeta
    if two_zeta >= RETARDED_TWO_ZETA:
        regime = "retarded"
    elif two_zeta <= NONRETARDED_TWO_ZETA:
        regime = "non-retarded"
    else:
        regime = "intermediate"
    return RegimeReport(two_zeta=two_zeta, lambda_over_zeta=p.lam / p.zeta,
                        regime=regime)


@dataclass(frozen=True)
class WPair:
    """Dimensionless shift functions (W_par, W_z) with a quadrature error bound."""

    w_par: float
    w_z: float
    err_est: float = 0.0

    def __post_init__(self):
        if self.err_est < 0.0:
            raise ValueError("err_est must be non-negative")


@dataclass(frozen=True)
class EnergyShift:
    """Total energy shift together with the per-transition contributions."""

    value: float
    per_transition: tuple[float, ...]

    def __post_init__(self):
        total = math.fsum(self.per_transition)
        scale = max(abs(total), abs(self.value), 1e-300)
        if abs(total - self.value) > 1e-12 * scale:
            raise ValueError("value must equal the sum of per_transition entries")

    @classmethod
    def from_contributions(cls, contributions: Sequence[float]) -> "EnergyShift":
        contributions = tuple(float(c) for c in contributions)
        return cls(value=math.fsum(contributions), per_transition=contributions)


def reduce(slab: Slab, transition: Transition, Z: float) -> ReducedParams:
    """Reduce (slab, transition, distance) to the dimensionless triple.

    ``Z`` is the atom-surface distance (not the distance from the slab
    centre) and must be positive.
    """
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    return ReducedParams(zeta=Z * transition.E_ji, lam=slab.L * transition.E_ji,
                         n=slab.n)


def assemble_shift(atom: AtomSpec, slab: Slab, Z: float,
                   wfun: Sequence[WPair]) -> EnergyShift:
    """Assemble the physical shift from per-transition (W_par, W_z) pairs.

    delta E = -(1/(16 pi^2)) sum_j (W_par |mu_par|^2 + W_z |mu_perp|^2)
              / (E_ji Z^4)
    """
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    if len(wfun) != len(atom.transitions):
        raise ValueError(
            f"need one WPair per transition: got {len(wfun)} pairs "
            f"for {len(atom.transitions)} transitions")
    pref = 1.0 / (16.0 * math.pi ** 2 * Z ** 4)
    contribs = [
        -pref * (w.w_par * tr.mu_par_sq + w.w_z * tr.mu_perp_sq) / tr.E_ji
        for tr, w in zip(atom.transitions, wfun)
    ]
    return EnergyShift.from_contributions(contribs)


def dipole_sq_from_momentum(p_sq: float, E_ji: float,
                            alpha_fs: float = FINE_STRUCTURE,
                            m: float = 1.0) -> float:
    """Convert a momentum-matrix-element square to a dipole-moment square.

    |mu_sigma|^2 = 4 pi alpha |p_sigma|^2 / (m^2 E_ji^2)   (epsilon_0 = 1)

    ``m`` is the electron mass in the same natural units as ``E_ji``.
    """
    if not E_ji > 0.0:
        raise ValueError(f"transition energy must be positive, got {E_ji}")
    if not m > 0.0:
        raise ValueError(f"electron mass must be positive, got {m}")
    return 4.0 * math.pi * alpha_fs * p_sq / (m * m * E_ji * E_ji)


def static_polarizability(atom: AtomSpec, rel_tol: float = 1e-12) -> float:
    """Static polarizability alpha(0) = 2 sum_j |mu_nu|^2 / E_ji of an isotropic atom.

    Isotropy means |mu_par|^2 = 2 |mu_perp|^2 for every transition (the three
    Cartesian components contribute equally, |mu_nu|^2 = |mu_perp|^2).
    Anisotropic atoms are not supported by this helper and raise ValueError.
    """
    total = 0.0
    for i, tr in enumerate(atom.transitions):
        scale = max(tr.mu_par_sq, 2.0 * tr.mu_perp_sq)
        if abs(tr.mu_par_sq - 2.0 * tr.mu_perp_sq) > rel_tol * scale:
            raise ValueError(
                f"transition {i} is anisotropic (|mu_par|^2 != 2|mu_perp|^2); "
                "static_polarizability supports isotropic atoms only")
        total += 2.0 * tr.mu_perp_sq / tr.E_ji
    return total
