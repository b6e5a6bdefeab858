"""The contour reflection coefficient of the slab, W's integrand.

The shift quadrature works on the rotated frequency contour in the
dimensionless variables ``(s, t)``, where the reflection coefficients are
real:

    Rt_TE = -(n^2-1) t^2 / [2 + (n^2-1) t^2 + 2 g coth(Lam)],
    Rt_TM = [n^4-1-(n^2-1) t^2]
            / [n^4+1+(n^2-1) t^2 + 2 n^2 g coth(Lam)],

with g = sqrt(1 + (n^2-1) t^2) and Lam = lam * s * g.  ``lam = inf``
selects coth = 1, the half-space limit.  For finite lam, coth(Lam) is
written as (2 - e)/e with e = -expm1(-2 Lam), one form that keeps its
accuracy from Lam = 0 to Lam -> inf (see :func:`rtilde`).  With E_ji = 1,
Rt is the real-frequency amplitude :func:`slabshift.modes.slab_R` at
k_z = i s and k_par = s sqrt(1 - t^2), times e^{-s lam}, which moves its
reference plane from the slab centre to the near surface.
"""

from __future__ import annotations

import enum
import itertools
import math

from .core import _contrast, _index, finite_power

__all__ = ["Polarization", "rtilde"]


class Polarization(enum.Enum):
    """Transverse electric / transverse magnetic field polarization."""

    TE = "TE"
    TM = "TM"


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
