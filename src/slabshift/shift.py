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
row gets exactly the panels a lone inner quadrature with its floor would
use.  The outer integral is truncated at s_max where the weight has fallen
``s_cutoff_decades`` decades below its peak; past that the integrand is
negligible at the default tolerances.

The inner rows' absolute floors follow the outer weight
``w = s^3 e^{-2 zeta s}`` (see :func:`_row_floors`): a row where the weight
is negligible stops at its seed panel instead of meeting the full relative
tolerance.  The floors are sized by a pilot estimate of S from the first
outer call, and ``err_est`` carries their weighted sum.  One
``w_pair(1, 1, 2)`` makes 15 reflection coefficient calls for 29,430 nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (AtomSpec, EnergyShift, ReducedParams, Slab, WPair,
                   assemble_shift, reduce)
from .quadrature import (_NODES, QuadratureSpec, adaptive_quad,
                         adaptive_quad_rows)
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

# shares of the total relative tolerance taken by the outer rule, by the
# inner rules' relative test and by the weighted inner floors; the rest
# absorbs the pilot estimate's error in the floors' share
_OUTER_SHARE = 0.8
_INNER_SHARE = 0.1
_FLOOR_SHARE = 0.04

# 3-point Gauss-Legendre rule on [0, 1] for the pilot estimate of S
_PILOT_U = 0.5 + 0.5 * math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_PILOT_W = np.array([5.0, 8.0, 5.0]) / 18.0
# smallest node of a one-panel inner row on [0, 1]
_T_FIRST = 0.5 * (1.0 - float(_NODES[-1]))


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


def _check_zeta(zeta: float, s_max: float) -> None:
    """Raise ValueError unless the powers of zeta that W takes are doubles.

    ``W = 8 zeta^4 S`` needs ``zeta^4`` finite and normal, and the outer
    weight needs ``s_max^3`` finite; past either end the float powers
    overflow or lose their precision.
    """
    try:
        ok = sys.float_info.min <= zeta ** 4 and math.isfinite(s_max ** 3)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"zeta = {zeta!r} is out of range: zeta**4 and "
                         "s_max**3 must be finite normal doubles")


def _s_detail(kind: str, p: ReducedParams, q: QuadratureSpec) -> SDetail:
    s_max = q.s_cutoff_decades * math.log(10.0) / (2.0 * p.zeta)
    _check_zeta(p.zeta, s_max)
    if p.n == 1.0 or p.lam == 0.0:
        # transparent slab: the integrand vanishes identically
        return SDetail(0.0, 0.0, 0, 0)

    rel_in = _INNER_SHARE * q.rel_tol
    abs_in = _INNER_SHARE * q.abs_tol / max(1.0, s_max)
    stats = {"inner_max": 0, "floor": None}

    def inner(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return _inner_integrand(kind, s, t, p.lam, p.n)

    def outer_integrand(s_values: np.ndarray) -> np.ndarray:
        weight = s_values ** 3 * np.exp(-2.0 * p.zeta * s_values)
        if stats["floor"] is None:
            # the first call holds the seed panels' nodes, in ascending s
            stats["floor"] = _FLOOR_SHARE * q.rel_tol * abs(
                _pilot_outer(inner, s_values, weight))
        value, _, panels = adaptive_quad_rows(
            inner, s_values, 0.0, 1.0, rel_in,
            _row_floors(s_values, weight, stats["floor"], abs_in, s_max),
            q.max_subdivisions)
        stats["inner_max"] = max(stats["inner_max"], int(panels.max()))
        return weight * value

    # seed panels geometrically so a narrow exponential peak inside a wide
    # interval is seen by the first pass
    seeds = [s_max * 0.5 ** k for k in range(1, 24)]
    outer = adaptive_quad(outer_integrand, 0.0, s_max,
                          _OUTER_SHARE * q.rel_tol, _OUTER_SHARE * q.abs_tol,
                          q.max_subdivisions, initial_edges=seeds)

    pref = 0.25 if kind == "par" else 0.5
    value = pref * outer.value
    # The integrand is non-negative and the outer weights sum to s_max, so
    # the inner quadratures contribute at most their relative share of the
    # value plus the weighted sum of their floors, which is at most
    # c + abs_in * Int_0^inf s^3 e^{-2 zeta s} ds = c + abs_in 3/(8 zeta^4).
    floors = stats["floor"] + abs_in * 0.375 * (1.0 / p.zeta) ** 4
    err = pref * outer.err_est + rel_in * abs(value) + pref * floors
    return SDetail(value=value, err_est=err, outer_panels=outer.panels,
                   inner_panels_max=stats["inner_max"])


def _pilot_outer(inner, s_values: np.ndarray, weight: np.ndarray) -> float:
    """Rough outer integral from 3 inner nodes per outer node.

    The inner integrand carries the factor ``1 / (1 + s^2 t^2)``, which is
    sharp in ``t`` at large ``s``; the substitution ``s t = tan(u atan s)``
    absorbs it, so the 3-point Gauss rule in ``u`` sees a smooth function.
    The outer nodes, in ascending order, are summed by the trapezoid rule.
    """
    arc = np.arctan(s_values)
    t = np.tan(arc[:, None] * _PILOT_U) / s_values[:, None]
    f = inner(np.repeat(s_values, _PILOT_U.size), t.ravel()).reshape(t.shape)
    st = s_values[:, None] * t
    rows = ((f * (1.0 + st * st)) @ _PILOT_W) * arc / s_values
    g = weight * rows
    return float(0.5 * np.sum((g[1:] + g[:-1]) * np.diff(s_values)))


def _row_floors(s_values: np.ndarray, weight: np.ndarray, c: float,
                abs_in: float, s_max: float) -> np.ndarray:
    """Absolute floor of each inner row, in inner units.

    A row's error enters the outer integral times its weight ``w_j``, and
    the outer weights sum to ``s_max``, so every row may add ``c / s_max``
    there: its floor is ``max(abs_in, c / (s_max w_j))``.  That floor is
    only as good as the row's error estimate, which a single panel gives
    honestly only while it resolves the ``1 / (1 + s^2 t^2)`` peak, that is
    ``s * t_1 <= 1`` for its first node ``t_1``.  A row past that is
    guarded: its floor is zero, so it meets the relative test alone,
    unless the whole row is negligible: both the row and its seed-panel
    value lie in ``[0, 2 max(atan(s) / s, 1 / (1 + (s t_1)^2))]`` (the
    reflection combination lies in [0, 2)), and a row whose weight times
    that bound is within ``c / s_max`` may stop at its seed panel.  A
    guarded row may not keep ``abs_in`` either: a seed panel that misses
    the peak sees only its ``1 / (s t)^2`` tail, and at small zeta or
    small ``n^2 - 1`` that panel's error estimate falls below ``abs_in``
    while the row's value, near ``pi / (2 s)`` times the reflection
    combination at ``t = 0``, is orders of magnitude larger.
    """
    budget = c / s_max
    bound = 2.0 * np.maximum(np.arctan(s_values) / s_values,
                             1.0 / (1.0 + (s_values * _T_FIRST) ** 2))
    with np.errstate(over="ignore"):
        floor = np.divide(budget, weight, out=np.full_like(weight, np.inf),
                          where=weight > 0.0)
    floor = np.maximum(abs_in, floor)
    floor[s_values * _T_FIRST > 1.0] = 0.0
    floor[weight * bound <= budget] = np.inf
    return floor


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
