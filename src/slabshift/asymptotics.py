"""Closed-form and reduced-form limits of the slab shift.

These serve two purposes: quick estimates in their regimes of validity,
and independent oracles for the exact double integral.  Where they
apply is judged by :func:`slabshift.core.classify_regime`.
"""

from __future__ import annotations

import math

from .core import (AtomSpec, EnergyShift, QuadratureSpec, ReducedParams, Slab,
                   _beta, _contrast, _nonretarded, _positive_finite,
                   _slab_nonzero, _slab_shift, finite_power)
from .electrostatics import image_series_converges, image_series_shift
from .quadrature import CUTOFF, adaptive_quad, geometric_edges
from .shift import s_parallel, s_perp

__all__ = [
    "halfspace_S",
    "retarded_thin_shift",
    "buhmann_U",
    "nonretarded_shift",
    "nonretarded_k_integral",
    "nonretarded_thin_shift",
]


def halfspace_S(zeta: float, n: float,
                q: QuadratureSpec | None = None) -> tuple[float, float]:
    """(S_par, S_perp) for a dielectric half-space (coth -> 1 in the
    reflection coefficients, i.e. the infinite-thickness limit)."""
    p = ReducedParams(zeta=zeta, lam=math.inf, n=n)
    return s_parallel(p, q)[0], s_perp(p, q)[0]


def retarded_thin_shift(atom: AtomSpec, slab: Slab, Z: float) -> EnergyShift:
    """Leading retarded shift for a slab much thinner than the distance.

    delta E = -(n^2-1) L / (160 pi^2 n^2 Z^5)
              * sum_j [(5+9n^2)|mu_par|^2 + 2(4+5n^2)|mu_perp|^2] / E_ji

    Intended validity: 2*Z*E_ji >> 1 and L << Z (no separate restriction on
    L*E_ji).  The formula is evaluated for any inputs; use
    :func:`classify_regime` to judge applicability.
    """
    n2 = slab.n * slab.n
    z5 = finite_power(Z, 5, "atom-surface distance Z")
    # (n^2 - 1)/n^2 before the rest: 160 pi^2 n^2 overflows past n ~ 3.4e152;
    # Z^5 divides last: 160 pi^2 Z^5 overflows for Z^5 near the top
    pref = -(_contrast(slab.n) / n2) * slab.L / (160.0 * math.pi ** 2)
    contribs = [
        pref * ((5.0 + 9.0 * n2) * tr.mu_par_sq
                + 2.0 * (4.0 + 5.0 * n2) * tr.mu_perp_sq) / tr.E_ji / z5
        for tr in atom.transitions
    ]
    return _slab_shift(contribs, slab)


def buhmann_U(alpha0: float, n: float, L: float, Z: float) -> float:
    """Retarded thin-plate interaction energy of an isotropic atom.

    U = -alpha(0) L / (160 pi^2 Z^5) * [(14 eps^2 - 9)/eps - (6 mu^2 - 1)/mu]

    with the static responses of a non-dispersive dielectric, eps = n^2 and
    mu = 1, so the magnetic bracket is the constant 5.  Agrees exactly with
    :func:`retarded_thin_shift` for isotropic atoms, and like it raises
    ValueError where U is not a finite normal double, or is 0 although the
    slab is there (n > 1, L > 0).  ``alpha0`` must be positive and finite,
    and ``n`` and ``L`` make a valid :class:`Slab`.
    """
    _positive_finite(alpha0, "alpha0")
    Slab(n, L)
    # (14 eps^2 - 9)/eps - 5, without its cancellation as eps -> 1
    eps = n * n
    bracket = (14.0 * eps + 9.0) * _contrast(n) / eps
    z5 = finite_power(Z, 5, "atom-surface distance Z")
    return _slab_nonzero(-alpha0 * L * bracket / (160.0 * math.pi ** 2) / z5,
                         n, L, "the thin-plate energy U")


def nonretarded_shift(atom: AtomSpec, slab: Slab, Z: float,
                      q: QuadratureSpec | None = None) -> EnergyShift:
    """Non-retarded (electrostatic) shift.

    Delta E = -(1/16 pi) beta sum_j (2|mu_perp|^2 + |mu_par|^2)
              Int_0^inf dk k^2 e^{-2Zk} (1 - e^{-2kL}) / (1 - beta^2 e^{-2kL})

    with beta = (n^2-1)/(n^2+1), from the exact closed-form image series.
    Near a perfect mirror, where :func:`image_series_converges` finds that
    the series' term budget cannot suffice, it takes
    :func:`nonretarded_k_integral` with ``q`` instead.
    """
    if image_series_converges(slab, Z):
        return image_series_shift(atom, slab, Z)
    return nonretarded_k_integral(atom, slab, Z, q)


def nonretarded_k_integral(atom: AtomSpec, slab: Slab, Z: float,
                           q: QuadratureSpec | None = None) -> EnergyShift:
    """The non-retarded shift of :func:`nonretarded_shift`, with its k
    integral taken adaptively: the image series' independent check."""
    finite_power(Z, 3, "atom-surface distance Z")
    q = q or QuadratureSpec()
    # no slab: at L = 0 and beta^2 = 1 the integrand would be 0/0
    if slab.n == 1.0 or slab.L == 0.0:
        return EnergyShift([0.0] * len(atom.transitions))
    # gap = 1 - beta^2 from core: formed as a difference it rounds to 0
    # once n passes about 1e8.5, and the thickness drops out of the integrand
    beta, gap = _beta(slab.n)
    # where gap is 0 the slab is a mirror at any L > 0, as at L = inf, and
    # 2kL may underflow
    L = slab.L if gap else math.inf

    def integrand(k: list) -> tuple[list]:
        # (1 - e)/(1 - beta^2 e) with e = exp(-2kL) = 1 - g, free of
        # cancellation at small kL; g = 1 where 2kL overflows and at L = inf
        g = [-math.expm1(-2.0 * x * L) for x in k]
        return ([x * x * math.exp(-2.0 * Z * x) * (y / (gap + beta * beta * y))
                 for x, y in zip(k, g)],)

    # all 24 geometric seeds up to k = U / (2 Z)
    cells = [(x,) for x in geometric_edges(CUTOFF / (2.0 * Z))]
    res = adaptive_quad(integrand, cells[:-1], cells[1:], q.rel_tol, q.abs_tol)
    return _nonretarded(atom, slab, -beta / (16.0 * math.pi) * res.value[0])


def nonretarded_thin_shift(atom: AtomSpec, slab: Slab, Z: float) -> EnergyShift:
    """Leading non-retarded shift of a thin slab (L << Z):

    Delta E = -3 (n^4 - 1) L / (256 pi n^2 Z^4)
              * sum_j (2|mu_perp|^2 + |mu_par|^2)
    """
    n2 = slab.n * slab.n
    z4 = finite_power(Z, 4, "atom-surface distance Z")
    # Z^4 divides last: 256 pi n^2 Z^4 overflows for Z^4 near the top
    pref = (-3.0 * _contrast(slab.n) * (n2 + 1.0) * slab.L
            / (256.0 * math.pi * n2))
    return _nonretarded(atom, slab, pref, z4)
