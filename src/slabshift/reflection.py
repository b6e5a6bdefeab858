"""Fresnel and slab reflection/transmission coefficients.

Two variable sets are used.  The mode-function machinery works in the
physical wave numbers ``(k_par, k_z, k_zd)`` related by Snell's law

    k_zd = sqrt((n^2 - 1) k_par^2 + n^2 k_z^2),

with the single-interface amplitudes

    r_TE = (k_z - k_zd) / (k_z + k_zd),
    r_TM = (n^2 k_z - k_zd) / (n^2 k_z + k_zd),

and slab amplitudes

    R = r (1 - e^{2 i k_zd L}) / (1 - r^2 e^{2 i k_zd L}) * e^{-i k_z L},
    T = (1 - r^2) / (1 - r^2 e^{2 i k_zd L}) * e^{i (k_zd - k_z) L}.

The shift quadrature instead works on the rotated frequency contour in the
dimensionless variables ``(s, t)``, where the reflection coefficients are
real:

    Rt_TE = -(n^2-1) t^2 / [2 + (n^2-1) t^2 + 2 g coth(Lam)],
    Rt_TM = [n^4-1-(n^2-1) t^2]
            / [n^4+1+(n^2-1) t^2 + 2 n^2 g coth(Lam)],

with g = sqrt(1 + (n^2-1) t^2) and Lam = lam * s * g.  ``lam = inf``
selects coth = 1, the half-space limit.  For finite lam, coth(Lam) is
written as (2 - e)/e with e = -expm1(-2 Lam), one form that keeps its
accuracy from Lam = 0 to Lam -> inf (see :func:`rtilde`).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

__all__ = [
    "Polarization",
    "WaveVectors",
    "snell_kzd",
    "snell_kz",
    "fresnel_r",
    "slab_denominator",
    "slab_R",
    "slab_T",
    "rtilde",
]

# |denominator| below this (relative to its terms) counts as a pole hit
_POLE_TOL = 1e-12


class Polarization(enum.Enum):
    """Transverse electric / transverse magnetic field polarization."""

    TE = "TE"
    TM = "TM"


def _as_wave_component(value: complex) -> complex | float:
    """Drop a zero imaginary part so real inputs give real outputs."""
    if isinstance(value, complex) and value.imag == 0.0:
        return value.real
    return value


def snell_kzd(k_par: float, k_z: complex, n: float) -> complex | float:
    """Normal wave number inside the dielectric from the vacuum one.

    Principal square root (Re >= 0); positive root for real positive input.
    """
    if not n >= 1.0:
        raise ValueError(f"refractive index must satisfy n >= 1, got {n}")
    val = cmath.sqrt((n * n - 1.0) * k_par * k_par + n * n * k_z * k_z)
    return _as_wave_component(val)


def snell_kz(k_par: float, k_zd: complex, n: float) -> complex | float:
    """Inverse of :func:`snell_kzd`: vacuum normal wave number from the slab one."""
    if not n >= 1.0:
        raise ValueError(f"refractive index must satisfy n >= 1, got {n}")
    val = cmath.sqrt(k_zd * k_zd - (n * n - 1.0) * k_par * k_par) / n
    return _as_wave_component(val)


@dataclass(frozen=True)
class WaveVectors:
    """Consistent triple (k_par, k_z, k_zd) for one plane-wave mode.

    ``k_z`` and ``k_zd`` may be complex (evanescent waves); ``kappa`` exposes
    the decay rate |Im k_z| for such cases.  Construction checks Snell
    consistency; use :meth:`from_vacuum` to build from (k_par, k_z, n).
    """

    k_par: float
    k_z: complex
    k_zd: complex

    def __post_init__(self):
        if self.k_par < 0.0:
            raise ValueError(f"k_par must be non-negative, got {self.k_par}")

    @classmethod
    def from_vacuum(cls, k_par: float, k_z: complex, n: float) -> "WaveVectors":
        return cls(k_par=k_par, k_z=k_z, k_zd=snell_kzd(k_par, k_z, n))

    def check_snell(self, n: float, rel_tol: float = 1e-12) -> None:
        lhs = complex(self.k_zd) ** 2
        rhs = (n * n - 1.0) * self.k_par ** 2 + n * n * complex(self.k_z) ** 2
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > rel_tol * scale:
            raise ValueError("wave numbers violate Snell consistency")

    @property
    def kappa(self) -> float:
        return abs(complex(self.k_z).imag)


def fresnel_r(pol: Polarization, k_z: complex, k_zd: complex,
              n: float) -> complex | float:
    """Single-interface Fresnel reflection amplitude vacuum -> dielectric."""
    if pol is Polarization.TE:
        num = k_z - k_zd
        den = k_z + k_zd
    else:
        num = n * n * k_z - k_zd
        den = n * n * k_z + k_zd
    scale = max(abs(k_z), abs(k_zd), 1.0)
    if abs(den) <= 1e-15 * scale:
        raise PoleError(f"vanishing Fresnel denominator for {pol.value}",
                        k_z=k_z)
    return _as_wave_component(num / den)


def slab_denominator(pol: Polarization, k_z: complex, k_par: float, L: float,
                     n: float) -> complex:
    """Multiple-reflection denominator 1 - r^2 exp(2 i k_zd L).

    Its zeros on the imaginary k_z axis are the trapped-mode poles.
    """
    k_zd = snell_kzd(k_par, k_z, n)
    r = fresnel_r(pol, k_z, k_zd, n)
    return 1.0 - r * r * cmath.exp(2.0j * k_zd * L)


def _slab_amplitudes(pol: Polarization, k_z: complex, k_par: float, L: float,
                     n: float) -> tuple[complex, complex]:
    k_zd = snell_kzd(k_par, k_z, n)
    r = fresnel_r(pol, k_z, k_zd, n)
    phase = cmath.exp(2.0j * k_zd * L)
    den = 1.0 - r * r * phase
    if abs(den) <= _POLE_TOL * (1.0 + abs(r * r * phase)):
        raise PoleError(
            f"slab coefficient evaluated at a trapped-mode pole "
            f"(k_z={k_z}, k_par={k_par})", k_z=k_z, k_par=k_par)
    R = r * (1.0 - phase) / den * cmath.exp(-1.0j * k_z * L)
    T = (1.0 - r * r) / den * cmath.exp(1.0j * (k_zd - k_z) * L)
    return R, T


def slab_R(pol: Polarization, k_z: complex, k_par: float, L: float,
           n: float) -> complex | float:
    """Slab reflection amplitude (vanishes for L = 0 or n = 1)."""
    if L == 0.0 or n == 1.0:
        return 0.0
    return _as_wave_component(_slab_amplitudes(pol, k_z, k_par, L, n)[0])


def slab_T(pol: Polarization, k_z: complex, k_par: float, L: float,
           n: float) -> complex | float:
    """Slab transmission amplitude (unity for L = 0 or n = 1)."""
    if L == 0.0 or n == 1.0:
        return 1.0
    return _as_wave_component(_slab_amplitudes(pol, k_z, k_par, L, n)[1])


def rtilde(pol: Polarization, s, t, lam: float, n: float):
    """Contour reflection coefficient in the quadrature variables (s, t).

    Vectorized over ``s`` and ``t`` (broadcast together).  Finite ``lam``
    gives ``num*e / (a*e + b*(2 - e)) = num / (a + b*coth(Lam))`` with
    ``e = -expm1(-2*Lam)`` in [0, 1]: an exact 0 at Lam = 0, and once e
    rounds to 1 the half-space value, which ``lam = math.inf`` selects.
    """
    if not n >= 1.0:
        raise ValueError(f"refractive index must satisfy n >= 1, got {n}")
    if not lam >= 0.0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    try:
        n4 = n ** 4
    except OverflowError:
        n4 = math.inf
    if not math.isfinite(n4):
        raise ValueError(f"n = {n!r} is out of range: n**4 must be a finite "
                         "double")
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    scalar = s_arr.ndim == 0 and t_arr.ndim == 0
    if np.any(s_arr < 0.0):
        raise ValueError("s must be non-negative")
    if np.any((t_arr < 0.0) | (t_arr > 1.0)):
        raise ValueError("t must lie in [0, 1]")

    s_arr, t_arr = np.broadcast_arrays(s_arr, t_arr)
    n2m1 = n * n - 1.0
    g2 = 1.0 + n2m1 * t_arr * t_arr
    g = np.sqrt(g2)
    if pol is Polarization.TE:
        num = -n2m1 * t_arr * t_arr
        a = 2.0 + n2m1 * t_arr * t_arr
        b = 2.0 * g
    else:
        num = n4 - 1.0 - n2m1 * t_arr * t_arr
        a = n4 + 1.0 + n2m1 * t_arr * t_arr
        b = 2.0 * n * n * g

    if lam == 0.0:
        out = np.zeros_like(g)
    elif math.isinf(lam):
        out = num / (a + b)
    else:
        e = -np.expm1(-2.0 * lam * s_arr * g)
        out = num * e / (a * e + b * (2.0 - e))

    if scalar:
        return float(out)
    return out
