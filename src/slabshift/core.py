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
import sys
from collections import namedtuple
from typing import Sequence

__all__ = [
    "Slab",
    "Transition",
    "AtomSpec",
    "QuadratureSpec",
    "ReducedParams",
    "WPair",
    "EnergyShift",
    "reduce",
    "assemble_shift",
    "finite_power",
    "finite_normal",
    "static_polarizability",
    "RETARDED_TWO_ZETA",
    "NONRETARDED_TWO_ZETA",
    "RegimeReport",
    "classify_regime",
]


def _positive_finite(x: float, what: str) -> None:
    """A ValueError naming ``what`` unless ``0 < x < inf``."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {x}")


def _index(n: float) -> None:
    """A ValueError unless the refractive index ``n`` is at least 1."""
    if not n >= 1.0:
        raise ValueError(f"refractive index must satisfy n >= 1, got {n}")


# The slab enters the shift only through these two forms of its index: every
# n^2 - 1, n^4 - 1, beta and 1 - beta^2 of the package is built from them.

def _contrast(n: float) -> float:
    """n^2 - 1 as (n - 1)(n + 1), which keeps its digits as n -> 1, where
    n * n - 1 keeps the rounding error of n * n; inf once n^2 overflows."""
    return (n - 1.0) * (n + 1.0)


def _beta(n: float) -> tuple[float, float]:
    """(beta, 1 - beta^2) with beta = (n^2 - 1)/(n^2 + 1), the image
    charges' ratio: beta from :func:`_contrast`, and 1 - beta^2 as
    (2n / (n^2 + 1))^2, so neither cancels.  Past the n whose n^2 overflows,
    beta rounds to 1 and 1 - beta^2 is (2/n)^2, 0 at n = inf."""
    n2 = n * n
    if math.isinf(n2):
        return 1.0, (2.0 / n) ** 2
    return _contrast(n) / (n2 + 1.0), (2.0 * n / (n2 + 1.0)) ** 2


class _Checked:
    """Base of a checked value type, listed before its namedtuple:
    :meth:`_check` runs on every construction, ``_make``, ``_replace`` and
    unpickling included (a plain namedtuple's ``_make`` skips ``__new__``).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self) -> None:
        """Raise ValueError unless every field is in range."""


class Slab(_Checked, namedtuple("Slab", "n L")):
    """Non-dispersive dielectric slab: refractive index and thickness.

    ``L`` is in natural length units; ``math.inf`` is accepted and selects
    the half-space limit wherever it is meaningful.
    """

    __slots__ = ()

    def _check(self):
        _index(self.n)
        if not self.L >= 0.0:
            raise ValueError(f"slab thickness must satisfy L >= 0, got {self.L}")


class Transition(_Checked, namedtuple("Transition",
                                      "E_ji mu_par_sq mu_perp_sq")):
    """One dipole transition: energy and squared dipole components.

    ``mu_par_sq`` is |mu_par|^2 = |<j|mu_x|i>|^2 + |<j|mu_y|i>|^2 and
    ``mu_perp_sq`` is |mu_perp|^2 = |<j|mu_z|i>|^2.
    """

    __slots__ = ()

    def _check(self):
        _positive_finite(self.E_ji, "transition energy")
        squares = (self.mu_par_sq, self.mu_perp_sq)
        if not all(0.0 <= sq < math.inf for sq in squares):
            raise ValueError(f"dipole-moment squares must be non-negative "
                             f"and finite, got {squares}")
        if self.mu_par_sq == 0.0 and self.mu_perp_sq == 0.0:
            raise ValueError("at least one dipole-moment square must be nonzero")


class AtomSpec(_Checked, namedtuple("AtomSpec", "transitions")):
    """Atom as an ordered list of dipole transitions from the ground state,
    stored as a tuple."""

    __slots__ = ()

    def __new__(cls, transitions: Sequence[Transition]):
        return super().__new__(cls, tuple(transitions))

    def _check(self):
        if not self.transitions:
            raise ValueError("an atom needs at least one transition")


class QuadratureSpec(_Checked, namedtuple(
        "QuadratureSpec", "rel_tol abs_tol", defaults=(1e-8, 1e-14))):
    """Tolerances for the shift quadrature.

    ``rel_tol`` alone ends W's cubature, whose integrands are
    non-negative; ``abs_tol`` floors the tolerance of the non-retarded k
    integral only.  The budget of cell splits beyond the seed cells and
    the cut-off of the exponential axis are the constants
    :data:`slabshift.quadrature.MAX_SUBDIVISIONS` and
    :data:`slabshift.quadrature.CUTOFF`.
    """

    __slots__ = ()

    def _check(self):
        _positive_finite(self.rel_tol, "rel_tol")
        _positive_finite(self.abs_tol, "abs_tol")


class ReducedParams(_Checked, namedtuple("ReducedParams", "zeta lam n")):
    """Dimensionless parameter triple consumed by every kernel.

    ``zeta = Z*E_ji`` (atom-surface distance over transition wavelength),
    ``lam = L*E_ji`` (slab thickness over transition wavelength), and the
    refractive index.  ``lam = math.inf`` selects the half-space limit.
    """

    __slots__ = ()

    def _check(self):
        _positive_finite(self.zeta, "zeta")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        _index(self.n)


# Retardation is classified by the photon round-trip criterion 2*Z*E_ji
# against the atom's internal time scale.  The sharp thresholds of the regime
# tags are tool policy; the physics only distinguishes "much greater" from
# "much less" than one.
RETARDED_TWO_ZETA = 10.0
NONRETARDED_TWO_ZETA = 0.1


class RegimeReport(namedtuple("RegimeReport",
                              "two_zeta lambda_over_zeta regime")):
    """Retardation classification of one (zeta, lam) point; ``regime`` is
    "retarded", "non-retarded" or "intermediate"."""

    __slots__ = ()


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


class WPair(_Checked, namedtuple("WPair", "w_par w_z err_par err_z",
                                 defaults=(0.0, 0.0))):
    """Dimensionless shift functions (W_par, W_z) with quadrature error bounds.

    ``err_par`` and ``err_z`` bound each component; ``err_est`` bounds both.
    """

    __slots__ = ()

    def _check(self):
        if not (self.err_par >= 0.0 and self.err_z >= 0.0):
            raise ValueError("error bounds must be non-negative")

    @property
    def err_est(self) -> float:
        return max(self.err_par, self.err_z)


class EnergyShift(_Checked, namedtuple("EnergyShift", "per_transition")):
    """Per-transition contributions, as a tuple, and their total ``value``,
    each finite and normal or exactly +0 (see :func:`finite_normal`)."""

    __slots__ = ()

    def __new__(cls, per_transition: Sequence[float]):
        return super().__new__(cls, tuple(
            finite_normal(float(c), f"the shift of transition {i}")
            for i, c in enumerate(per_transition)))

    @property
    def value(self) -> float:
        return math.fsum(self.per_transition)


def reduce(slab: Slab, transition: Transition, Z: float) -> ReducedParams:
    """Reduce (slab, transition, distance) to the dimensionless triple.

    ``Z`` is the atom-surface distance (not the distance from the slab
    centre) and must be positive.
    """
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    p = ReducedParams(zeta=Z * transition.E_ji, lam=slab.L * transition.E_ji,
                      n=slab.n)
    if p.lam == 0.0 and slab.L > 0.0:
        raise ValueError(f"lam = L*E_ji = {slab.L!r}*{transition.E_ji!r} "
                         "underflows to 0, below the normal doubles")
    return p


def finite_power(x: float, k: int, name: str, coef: float = 1.0) -> float:
    """``coef * x ** k``, or a ValueError naming ``x`` unless ``x > 0``,
    ``x ** k`` is a normal double and the product finite; ``name`` ends in
    ``x``'s symbol."""
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x}")
    try:
        power = x ** k
    except OverflowError:
        power = math.inf
    if not (sys.float_info.min <= power and coef * power < math.inf):
        factor = "" if coef == 1.0 else f"{coef:g}*"
        raise ValueError(f"{name} = {x!r} is out of range: {factor}"
                         f"{name.split()[-1]}**{k} must be a finite normal "
                         "double")
    return coef * power


def finite_normal(x: float, what: str) -> float:
    """``x`` if it is a finite normal double, +0.0 if it is a zero of either
    sign, else a ValueError naming ``what``: NaN, an overflow and a
    subnormal have lost the value."""
    if not math.isfinite(x):
        raise ValueError(f"{what} is {x}, not a finite double")
    if 0.0 < abs(x) < sys.float_info.min:
        raise ValueError(f"{what} is {x}, below the normal doubles")
    return x + 0.0  # -0.0 + 0.0 is +0.0


def _slab_nonzero(x: float, n: float, L: float, what: str) -> float:
    """:func:`finite_normal` for a slab's shift: only n = 1 or L = 0 give 0,
    so where the slab is there (n > 1, L > 0) a 0 has underflowed."""
    x = finite_normal(x, what)
    if x == 0.0 and n > 1.0 and L > 0.0:
        raise ValueError(f"{what} is 0 at n > 1 and L > 0: it underflowed, "
                         "below the normal doubles")
    return x


def _slab_shift(contribs: Sequence[float], slab: Slab) -> EnergyShift:
    """EnergyShift of ``slab``'s contributions, each checked by
    :func:`_slab_nonzero`."""
    return EnergyShift([_slab_nonzero(c, slab.n, slab.L,
                                      f"the shift of transition {i}")
                        for i, c in enumerate(contribs)])


def _nonretarded(atom: AtomSpec, slab: Slab, pref: float,
                 z4: float = 1.0) -> EnergyShift:
    """:func:`_slab_shift` of ``pref (2 |mu_perp|^2 + |mu_par|^2) / z4`` per
    transition: the dipole weighting of every non-retarded form, with
    ``z4`` dividing last."""
    return _slab_shift([pref * (2.0 * tr.mu_perp_sq + tr.mu_par_sq) / z4
                        for tr in atom.transitions], slab)


def assemble_shift(atom: AtomSpec, slab: Slab, Z: float,
                   wfun: Sequence[WPair]) -> EnergyShift:
    """Assemble the physical shift from per-transition (W_par, W_z) pairs.

    delta E = -(1/(16 pi^2)) sum_j (W_par |mu_par|^2 + W_z |mu_perp|^2)
              / (E_ji Z^4)
    """
    if len(wfun) != len(atom.transitions):
        raise ValueError(
            f"need one WPair per transition: got {len(wfun)} pairs "
            f"for {len(atom.transitions)} transitions")
    z4 = finite_power(Z, 4, "atom-surface distance Z")
    # Z^4 divides last: 16 pi^2 Z^4 overflows for Z^4 near the top
    pref = -1.0 / (16.0 * math.pi ** 2)
    contribs = [
        pref * (w.w_par * tr.mu_par_sq + w.w_z * tr.mu_perp_sq) / tr.E_ji / z4
        for tr, w in zip(atom.transitions, wfun)
    ]
    return _slab_shift(contribs, slab)


def static_polarizability(atom: AtomSpec) -> float:
    """Static polarizability alpha(0) = 2 sum_j |mu_nu|^2 / E_ji of an isotropic atom.

    Isotropy means |mu_par|^2 = 2 |mu_perp|^2 for every transition (the three
    Cartesian components contribute equally, |mu_nu|^2 = |mu_perp|^2).
    Anisotropic atoms are not supported by this helper and raise ValueError;
    the two squares must agree to a relative 1e-12.
    """
    total = 0.0
    for i, tr in enumerate(atom.transitions):
        scale = max(tr.mu_par_sq, 2.0 * tr.mu_perp_sq)
        if abs(tr.mu_par_sq - 2.0 * tr.mu_perp_sq) > 1e-12 * scale:
            raise ValueError(
                f"transition {i} is anisotropic (|mu_par|^2 != 2|mu_perp|^2); "
                "static_polarizability supports isotropic atoms only")
        total += 2.0 * tr.mu_perp_sq / tr.E_ji
    return total
