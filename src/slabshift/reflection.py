"""Fresnel and slab reflection/transmission coefficients.

Two variable sets are used.  The mode-function machinery works in the
physical wave numbers ``k_par`` and ``k_z`` (vacuum); the normal wave
number inside the slab follows from Snell's law,

    k_zd = sqrt((n^2 - 1) k_par^2 + n^2 k_z^2),

with the single-interface amplitudes

    r_TE = (k_z - k_zd) / (k_z + k_zd),
    r_TM = (n^2 k_z - k_zd) / (n^2 k_z + k_zd),

and, for a wave e^{i k_z z} incident on the slab |z| <= L/2, the sums of
its multiple reflections, with D = 1 - r^2 e^{2 i k_zd L},

    R = r (1 - e^{2 i k_zd L}) / D * e^{-i k_z L},
    T = (1 - r^2) / D * e^{i (k_zd - k_z) L},
    I = (1 + r) / (v D) * e^{i (k_zd - k_z) L/2},
    J = -r (1 + r) / (v D) * e^{i (3 k_zd - k_z) L/2},

for the waves I e^{i k_zd z} and J e^{-i k_zd z} inside; v = n for TM,
whose mode scalar carries n in the slab, and 1 for TE.

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

import numpy as np

from .core import _index
from .errors import PoleError

__all__ = [
    "Polarization",
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
_OUT_OF_RANGE = ("the slab coefficients at k_z = {!r}, k_par = {!r}, L = {!r} "
                 "are not finite doubles")


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
    _index(n)
    val = cmath.sqrt((n * n - 1.0) * k_par * k_par + n * n * k_z * k_z)
    if not cmath.isfinite(val):
        raise ValueError(f"k_zd is {val} at k_par = {k_par!r}, k_z = {k_z!r}, "
                         f"n = {n!r}, not a finite wave number")
    return _as_wave_component(val)


def snell_kz(k_par: float, k_zd: complex, n: float) -> complex | float:
    """Inverse of :func:`snell_kzd`: vacuum normal wave number from the slab one."""
    _index(n)
    val = cmath.sqrt(k_zd * k_zd - (n * n - 1.0) * k_par * k_par) / n
    return _as_wave_component(val)


def fresnel_r(pol: Polarization, k_z: complex, k_zd: complex,
              n: float) -> complex | float:
    """Single-interface Fresnel reflection amplitude vacuum -> dielectric."""
    _index(n)
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
    _, r, phase = _interface(pol, k_z, k_par, L, n)
    return 1.0 - r * r * phase


def _interface(pol: Polarization, k_z: complex, k_par: float, L: float,
               n: float) -> tuple:
    """(k_zd, r, exp(2 i k_zd L)), or a ValueError unless 0 <= L < inf and
    the phase is finite."""
    if not 0.0 <= L < math.inf:
        raise ValueError(f"slab thickness L must be in [0, inf), got {L}")
    k_zd = snell_kzd(k_par, k_z, n)
    r = fresnel_r(pol, k_z, k_zd, n)
    try:
        return k_zd, r, cmath.exp(2.0j * k_zd * L)
    except (OverflowError, ValueError):
        raise ValueError(_OUT_OF_RANGE.format(k_z, k_par, L)) from None


def _slab_amplitudes(pol: Polarization, k_z: complex, k_par: float, L: float,
                     n: float) -> tuple:
    """(R, T, I, J, k_zd) of the closed forms above, or a ValueError where
    one of them is not a finite double."""
    k_zd, r, phase = _interface(pol, k_z, k_par, L, n)
    den = 1.0 - r * r * phase
    if abs(den) <= _POLE_TOL * (1.0 + abs(r * r * phase)):
        raise PoleError(
            f"slab coefficient evaluated at a trapped-mode pole "
            f"(k_z={k_z}, k_par={k_par})", k_z=k_z, k_par=k_par)
    inside = (1.0 + r) / (den * (1.0 if pol is Polarization.TE else n))
    try:
        amplitudes = (
            r * (1.0 - phase) / den * cmath.exp(-1.0j * k_z * L),
            (1.0 - r * r) / den * cmath.exp(1.0j * (k_zd - k_z) * L),
            inside * cmath.exp(0.5j * (k_zd - k_z) * L),
            -r * inside * cmath.exp(0.5j * (3.0 * k_zd - k_z) * L))
    except (OverflowError, ValueError):
        amplitudes = (math.nan,)
    if not all(map(cmath.isfinite, amplitudes)):
        raise ValueError(_OUT_OF_RANGE.format(k_z, k_par, L))
    return amplitudes + (k_zd,)


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


def rtilde(pol: Polarization | tuple[Polarization, ...], s, t, lam: float,
           n: float):
    """Contour reflection coefficient in the quadrature variables (s, t).

    Vectorized over ``s`` and ``t``, broadcast together; the terms that
    depend on t alone are formed before broadcasting.  ``pol`` is one
    :class:`Polarization`, or a tuple of them for one leading row per
    polarization, all from one ``g`` and one ``e``.  Finite ``lam`` gives
    ``num*e / (a*e + b*(2 - e)) = num / (a + b*coth(Lam))`` with
    ``e = -expm1(-2*Lam)`` in [0, 1]: an exact 0 at Lam = 0, and once e
    rounds to 1 the half-space value, which ``lam = math.inf`` selects.
    """
    _index(n)
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
    if not np.all(s_arr >= 0.0):
        raise ValueError("s must be non-negative")
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):
        raise ValueError("t must lie in [0, 1]")

    pols = pol if isinstance(pol, tuple) else (pol,)
    out = np.zeros((len(pols),) + np.broadcast_shapes(s_arr.shape,
                                                      t_arr.shape))
    tt = (n * n - 1.0) * t_arr * t_arr
    g = np.sqrt(1.0 + tt)
    if 0.0 < lam < math.inf:
        e = -np.expm1(-2.0 * lam * s_arr * g)
        rest = 2.0 - e
    for i, p in enumerate(pols):
        # R = num / (a + b coth(Lam)); num, a and b depend on t alone
        if p is Polarization.TE:
            num, a, b = -tt, 2.0 + tt, 2.0 * g
        elif p is Polarization.TM:
            num, a, b = n4 - 1.0 - tt, n4 + 1.0 + tt, 2.0 * n * n * g
        else:
            raise ValueError("pol must be a Polarization or a tuple of them, "
                             f"got {pol!r}")
        if math.isinf(lam):
            np.divide(num, a + b, out=out[i, ...])
        elif lam > 0.0:
            np.divide(num * e, a * e + b * rest, out=out[i, ...])

    if isinstance(pol, tuple):
        return out
    return float(out[0]) if scalar else out[0]
