"""Closed-form and reduced-form limits of the slab shift.

These serve two purposes: quick estimates in their regimes of validity,
and independent oracles for the exact double integral.

The retardation classification (:func:`classify_regime`, its
:class:`RegimeReport` and thresholds) lives in :mod:`slabshift.core`, which
loads no numpy, and is re-exported here.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (NONRETARDED_TWO_ZETA, RETARDED_TWO_ZETA, AtomSpec,
                   EnergyShift, ReducedParams, RegimeReport, Slab,
                   classify_regime)
from .electrostatics import (ImageSeriesSpec, image_series_converges,
                             image_series_shift)
from .quadrature import QuadratureSpec, adaptive_quad
from .shift import s_parallel, s_perp

__all__ = [
    "RETARDED_TWO_ZETA",
    "NONRETARDED_TWO_ZETA",
    "RegimeReport",
    "classify_regime",
    "halfspace_S",
    "retarded_thin_shift",
    "buhmann_U",
    "nonretarded_shift",
    "nonretarded_thin_shift",
]


def _z_power(Z: float, k: int) -> float:
    """``Z ** k`` of a positive distance, which must be a finite normal double."""
    try:
        power = Z ** k
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        raise ValueError(f"atom-surface distance Z = {Z!r} is out of range: "
                         f"Z**{k} must be a finite normal double")
    return power


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
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    n2 = slab.n * slab.n
    pref = -(n2 - 1.0) * slab.L / (160.0 * math.pi ** 2 * n2
                                  * _z_power(Z, 5))
    contribs = [
        pref * ((5.0 + 9.0 * n2) * tr.mu_par_sq
                + 2.0 * (4.0 + 5.0 * n2) * tr.mu_perp_sq) / tr.E_ji
        for tr in atom.transitions
    ]
    return EnergyShift.from_contributions(contribs)


def buhmann_U(alpha0: float, n: float, L: float, Z: float) -> float:
    """Retarded thin-plate interaction energy of an isotropic atom.

    U = -alpha(0) L / (160 pi^2 Z^5) * [(14 eps^2 - 9)/eps - (6 mu^2 - 1)/mu]

    with the static responses of a non-dispersive dielectric, eps = n^2 and
    mu = 1, so the magnetic bracket is the constant 5.  Agrees exactly with
    :func:`retarded_thin_shift` for isotropic atoms.
    """
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    if L < 0.0:
        raise ValueError(f"thickness must be non-negative, got {L}")
    if not n >= 1.0:
        raise ValueError(f"refractive index must satisfy n >= 1, got {n}")
    eps = n * n
    bracket = (14.0 * eps * eps - 9.0) / eps - 5.0
    return -alpha0 * L * bracket / (160.0 * math.pi ** 2 * _z_power(Z, 5))


def nonretarded_shift(atom: AtomSpec, slab: Slab, Z: float,
                      q: QuadratureSpec | None = None,
                      spec: ImageSeriesSpec | None = None,
                      method: str = "series") -> EnergyShift:
    """Non-retarded (electrostatic) shift.

    Delta E = -(1/16 pi) beta sum_j (2|mu_perp|^2 + |mu_par|^2)
              Int_0^inf dk k^2 e^{-2Zk} (1 - e^{-2kL}) / (1 - beta^2 e^{-2kL})

    with beta = (n^2-1)/(n^2+1).  ``method="series"`` (default) evaluates
    the exact closed-form image series; ``method="quadrature"`` integrates
    the k integral adaptively.  Both routes are exposed so they can check
    each other.  Near a perfect mirror, where :func:`image_series_converges`
    finds that ``spec.max_terms`` terms cannot suffice, ``method="series"``
    takes the k integral with ``q`` instead and logs that at DEBUG level.
    """
    if method not in ("series", "quadrature"):
        raise ValueError(f"method must be 'series' or 'quadrature', got {method!r}")
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    spec = spec or ImageSeriesSpec()
    if method == "series" and image_series_converges(slab, Z, spec):
        return image_series_shift(atom, slab, Z, spec)
    q = q or QuadratureSpec()
    if slab.n == 1.0:
        return EnergyShift.from_contributions([0.0] * len(atom.transitions))
    beta = (slab.n ** 2 - 1.0) / (slab.n ** 2 + 1.0)
    import logging  # not at package load: that raised the CLI's peak RSS 1%
    logging.getLogger(__name__).debug(
        "nonretarded_shift: k integral (method=%s), beta^2=%r, max_terms=%d",
        method, beta * beta, spec.max_terms)
    L = slab.L
    k_max = q.s_cutoff_decades * math.log(10.0) / (2.0 * Z)

    def integrand(k: np.ndarray) -> np.ndarray:
        if math.isinf(L):
            ratio = np.ones_like(k)
        else:
            e = np.exp(-2.0 * k * L)
            ratio = (1.0 - e) / (1.0 - beta * beta * e)
        return k * k * np.exp(-2.0 * Z * k) * ratio

    seeds = [k_max * 0.5 ** j for j in range(1, 24)]
    res = adaptive_quad(integrand, 0.0, k_max, q.rel_tol, q.abs_tol,
                        q.max_subdivisions, initial_edges=seeds)
    pref = -beta / (16.0 * math.pi) * res.value
    contribs = [pref * (2.0 * tr.mu_perp_sq + tr.mu_par_sq)
                for tr in atom.transitions]
    return EnergyShift.from_contributions(contribs)


def nonretarded_thin_shift(atom: AtomSpec, slab: Slab, Z: float) -> EnergyShift:
    """Leading non-retarded shift of a thin slab (L << Z):

    Delta E = -3 (n^4 - 1) L / (256 pi n^2 Z^4)
              * sum_j (2|mu_perp|^2 + |mu_par|^2)
    """
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    n2 = slab.n * slab.n
    pref = -3.0 * (n2 * n2 - 1.0) * slab.L / (256.0 * math.pi * n2
                                           * _z_power(Z, 4))
    contribs = [pref * (2.0 * tr.mu_perp_sq + tr.mu_par_sq)
                for tr in atom.transitions]
    return EnergyShift.from_contributions(contribs)
