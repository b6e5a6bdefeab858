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
import itertools
import math

from .core import _contrast, _index, finite_power
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
    val = cmath.sqrt(_contrast(n) * k_par * k_par + n * n * k_z * k_z)
    if not cmath.isfinite(val):
        raise ValueError(f"k_zd is {val} at k_par = {k_par!r}, k_z = {k_z!r}, "
                         f"n = {n!r}, not a finite wave number")
    return _as_wave_component(val)


def snell_kz(k_par: float, k_zd: complex, n: float) -> complex | float:
    """Inverse of :func:`snell_kzd`: vacuum normal wave number from the slab one."""
    _index(n)
    val = cmath.sqrt(k_zd * k_zd - _contrast(n) * k_par * k_par) / n
    if not cmath.isfinite(val):
        raise ValueError(f"k_z is {val} at k_par = {k_par!r}, k_zd = "
                         f"{k_zd!r}, n = {n!r}, not a finite wave number")
    return _as_wave_component(val)


def fresnel_r(pol: Polarization, k_z: complex, k_par: float,
              n: float) -> complex | float:
    """Single-interface Fresnel reflection amplitude vacuum -> dielectric."""
    return _as_wave_component(_fresnel(pol, k_z, k_par, n)[1])


def _fresnel(pol: Polarization, k_z: complex, k_par: float,
             n: float) -> tuple:
    """(k_zd, r) of one interface, or a PoleError where r's denominator
    vanishes.  r's numerator is a difference of squares over the
    denominator, -(n^2 - 1)(k_par^2 + k_z^2) for TE and
    (n^2 - 1)(n^2 k_z^2 - k_par^2) for TM, formed as products that keep
    their digits where k_zd -> k_z (TE) or n^2 k_z (TM)."""
    k_zd = snell_kzd(k_par, k_z, n)
    if pol is Polarization.TE:
        num = -_contrast(n) * (k_par + 1j * k_z) * (k_par - 1j * k_z)
        den = k_z + k_zd
    else:
        num = _contrast(n) * (n * k_z - k_par) * (n * k_z + k_par)
        den = n * n * k_z + k_zd
    if abs(den) <= 1e-15 * max(abs(k_z), abs(k_zd), 1.0):
        raise PoleError(f"vanishing Fresnel denominator for {pol.value}",
                        k_z=k_z)
    # den ** 2 overflows where |den| passes about 1.3e154, r does not
    return k_zd, num / den / den


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
    k_zd, r = _fresnel(pol, k_z, k_par, n)
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
            -r * _phase_minus_one(k_zd, L) / den * cmath.exp(-1.0j * k_z * L),
            (1.0 - r * r) / den * cmath.exp(1.0j * (k_zd - k_z) * L),
            inside * cmath.exp(0.5j * (k_zd - k_z) * L),
            -r * inside * cmath.exp(0.5j * (3.0 * k_zd - k_z) * L))
    except (OverflowError, ValueError):
        amplitudes = (math.nan,)
    if not all(map(cmath.isfinite, amplitudes)):
        raise ValueError(_OUT_OF_RANGE.format(k_z, k_par, L))
    return amplitudes + (k_zd,)


def _phase_minus_one(k_zd: complex, L: float) -> complex:
    """exp(2 i k_zd L) - 1, without the cancellation of small k_zd L:
    e^{x + i y} - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    x, y = -2.0 * L * k_zd.imag, 2.0 * L * k_zd.real
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y))


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

    ``s`` and ``t`` are each a float or a sequence of floats; sequences
    pair entry by entry, and a float pairs with every entry of the other.
    ``pol`` is one :class:`Polarization`, giving a float for two floats and
    a list otherwise, or a tuple of them, giving a tuple with one such
    result per polarization, all from one ``g`` and one ``e`` per node.
    Finite ``lam`` gives ``num*e / (a*e + b*(2 - e)) = num / (a +
    b*coth(Lam))`` with ``e = -expm1(-2*Lam)`` in [0, 1]: an exact 0 at
    Lam = 0, and once e rounds to 1 the half-space value, which
    ``lam = math.inf`` selects.  n^2 - 1 and n^4 - 1 are (n - 1)(n + 1) and
    that times n^2 + 1, which keep their digits as n -> 1; ``n ** 4`` must
    be a finite normal double (n up to about 1.16e77), else ValueError.
    """
    _index(n)
    if not lam >= 0.0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    n4 = finite_power(n, 4, "n")
    pols = pol if isinstance(pol, tuple) else (pol,)
    if not all(isinstance(p, Polarization) for p in pols):
        raise ValueError("pol must be a Polarization or a tuple of them, "
                         f"got {pol!r}")
    scalar = isinstance(s, float | int) and isinstance(t, float | int)
    s, t = ([x] if isinstance(x, float | int)
            else x if type(x) is list else list(map(float, x)) for x in (s, t))
    # min, max and sum run at C speed; a NaN anywhere makes the sum NaN
    if not (min(s, default=0.0) >= 0.0 and not math.isnan(sum(s))):
        raise ValueError("s must be non-negative")
    if not (min(t, default=0.0) >= 0.0 and max(t, default=0.0) <= 1.0
            and not math.isnan(sum(t))):
        raise ValueError("t must lie in [0, 1]")
    size = len(t) if len(t) != 1 else len(s)
    s, t = (x * size if len(x) == 1 else x for x in (s, t))
    if len(s) != len(t):
        raise ValueError("s and t must be floats or sequences of one length")

    if lam == 0.0:
        te, tm = [0.0] * size, [0.0] * size
    else:
        # R = num / (a + b coth(Lam)), with num = -tt, a = 2 + tt and
        # b = 2 g for TE, and n^4 - 1 - tt, n^4 + 1 + tt and 2 n^2 g for
        # TM; at lam = inf, e = -expm1(-inf) = 1 gives num / (a + b)
        c, k, b = _contrast(n), -2.0 * lam, 2.0 * n * n
        n4m, n4p = c * (n * n + 1.0), n4 + 1.0
        if math.isinf(lam):
            s = itertools.repeat(1.0)  # at s = 0, k s would be NaN
        te, tm = [], []
        te_add, tm_add = te.append, tm.append
        sqrt, expm1 = math.sqrt, math.expm1
        for x, y in zip(s, t):
            tt = c * y * y
            g = sqrt(1.0 + tt)
            e = -expm1(k * x * g)
            rest = 2.0 - e
            te_add(-tt * e / ((2.0 + tt) * e + 2.0 * g * rest))
            tm_add((n4m - tt) * e / ((n4p + tt) * e + b * g * rest))
    rows = {Polarization.TE: te, Polarization.TM: tm}
    out = tuple(rows[p][0] if scalar else rows[p] for p in pols)
    return out if isinstance(pol, tuple) else out[0]
