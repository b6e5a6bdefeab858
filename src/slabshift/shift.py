"""Exact energy shift of a ground-state atom near a dielectric slab.

The per-transition shift is carried by two dimensionless double integrals
over the rotated frequency contour,

    S_par  = 1/4 Int_0^inf ds Int_0^1 dt  s^3/(s^2 t^2 + 1)
             (Rt_TM - t^2 Rt_TE) e^{-2 zeta s},
    S_perp = 1/2 Int_0^inf ds Int_0^1 dt  s^3/(s^2 t^2 + 1)
             (1 - t^2) Rt_TM e^{-2 zeta s},

functions of (zeta, lam, n) only.  The plotted dimensionless shift
functions are

    W_par = 8 zeta^4 S_par,    W_z = 8 zeta^4 S_perp,

normalized so that W_par = W_z = 1 is the retarded shift in front of a
perfect mirror, and the physical shift follows from
:func:`slabshift.core.assemble_shift`.

Numerically, the inner t integral (smooth, bounded) is evaluated first and
the outer s integral carries the exponential weight; both axes use the
adaptive bisection rule from :mod:`slabshift.quadrature`.  The outer rule
asks for its nodes a panel pair at a time (24 geometrically seeded panels,
360 s nodes, on the first pass).  The inner integrals of all the s nodes
of one outer call run as one batch of rows, not in blocks: each round
bisects the worst panel of every unconverged row and evaluates all the new
t nodes (at most about 10.8k) in one reflection coefficient call, and each
row gets exactly the panels a lone inner quadrature would use.  The outer
integral is truncated at s_max where the weight has fallen
``s_cutoff_decades`` decades below its peak; past that the integrand is
negligible at the default tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AtomSpec, EnergyShift, ReducedParams, Slab, WPair,
                   assemble_shift, reduce)
from .quadrature import QuadratureSpec, adaptive_quad, adaptive_quad_rows
from .reflection import Polarization, rtilde

__all__ = [
    "QuadratureSpec",
    "SDetail",
    "s_parallel",
    "s_perp",
    "s_parallel_detailed",
    "s_perp_detailed",
    "w_pair",
    "energy_shift",
]

# W = W_SCALE * zeta^4 * S; fixed by W -> 1 for a perfect mirror in the
# retarded limit
W_SCALE = 8.0

# shares of the total tolerance budget taken by the outer and inner rules
_OUTER_SHARE = 0.85
_INNER_SHARE = 0.1


@dataclass(frozen=True)
class SDetail:
    """Value and diagnostics of one S integral."""

    value: float
    err_est: float
    outer_panels: int
    inner_panels_max: int


def _inner_integrand(kind: str, s: np.ndarray, t: np.ndarray, lam: float,
                     n: float) -> np.ndarray:
    if kind == "par":
        combo = (rtilde(Polarization.TM, s, t, lam, n)
                 - t * t * rtilde(Polarization.TE, s, t, lam, n))
    else:
        combo = (1.0 - t * t) * rtilde(Polarization.TM, s, t, lam, n)
    return combo / (s * s * t * t + 1.0)


def _s_detail(kind: str, p: ReducedParams, q: QuadratureSpec) -> SDetail:
    if p.n == 1.0 or p.lam == 0.0:
        # transparent slab: the integrand vanishes identically
        return SDetail(0.0, 0.0, 0, 0)

    s_max = q.s_cutoff_decades * math.log(10.0) / (2.0 * p.zeta)
    rel_in = _INNER_SHARE * q.rel_tol
    abs_in = _INNER_SHARE * q.abs_tol / max(1.0, s_max)
    stats = {"inner_max": 0}

    def inner(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _inner_integrand(kind, s, t, p.lam, p.n)

    def outer_integrand(s_values: np.ndarray) -> np.ndarray:
        rows = adaptive_quad_rows(inner, s_values, 0.0, 1.0, rel_in, abs_in,
                                  q.max_subdivisions)
        stats["inner_max"] = max(stats["inner_max"],
                                 max(r.panels for r in rows))
        out = np.array([r.value for r in rows])
        return s_values ** 3 * np.exp(-2.0 * p.zeta * s_values) * out

    # seed panels geometrically so a narrow exponential peak inside a wide
    # interval is seen by the first pass
    seeds = [s_max * 0.5 ** k for k in range(1, 24)]
    outer = adaptive_quad(outer_integrand, 0.0, s_max,
                          _OUTER_SHARE * q.rel_tol, _OUTER_SHARE * q.abs_tol,
                          q.max_subdivisions, initial_edges=seeds)

    pref = 0.25 if kind == "par" else 0.5
    value = pref * outer.value
    # the integrand is non-negative, so the inner quadratures contribute at
    # most their relative share of the value plus the absolute floor
    err = pref * outer.err_est + rel_in * abs(value) + pref * abs_in * s_max
    return SDetail(value=value, err_est=err, outer_panels=outer.panels,
                   inner_panels_max=stats["inner_max"])


def s_parallel_detailed(p: ReducedParams,
                        q: QuadratureSpec | None = None) -> SDetail:
    return _s_detail("par", p, q or QuadratureSpec())


def s_perp_detailed(p: ReducedParams,
                    q: QuadratureSpec | None = None) -> SDetail:
    return _s_detail("perp", p, q or QuadratureSpec())


def s_parallel(p: ReducedParams,
               q: QuadratureSpec | None = None) -> tuple[float, float]:
    """Dimensionless S_par(zeta, lam, n) and its error bound."""
    d = s_parallel_detailed(p, q)
    return d.value, d.err_est


def s_perp(p: ReducedParams,
           q: QuadratureSpec | None = None) -> tuple[float, float]:
    """Dimensionless S_perp(zeta, lam, n) and its error bound."""
    d = s_perp_detailed(p, q)
    return d.value, d.err_est


def w_pair(p: ReducedParams, q: QuadratureSpec | None = None) -> WPair:
    """Dimensionless shift functions W_par = 8 zeta^4 S_par, W_z = 8 zeta^4 S_perp."""
    par = s_parallel_detailed(p, q)
    perp = s_perp_detailed(p, q)
    scale = W_SCALE * p.zeta ** 4
    return WPair(w_par=scale * par.value, w_z=scale * perp.value,
                 err_est=scale * max(par.err_est, perp.err_est))


def energy_shift(atom: AtomSpec, slab: Slab, Z: float,
                 q: QuadratureSpec | None = None) -> EnergyShift:
    """Full energy shift from the exact double integrals, one W pair per transition."""
    pairs = [w_pair(reduce(slab, tr, Z), q) for tr in atom.transitions]
    return assemble_shift(atom, slab, Z, pairs)
