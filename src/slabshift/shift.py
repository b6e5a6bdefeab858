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

Numerically, W is integrated directly, as one vector-valued integral over
``u = 2 zeta s`` in ``[0, U]`` and t in ``[0, 1]``:

    W_par = 1/8 Int Int u^3 e^{-u} (Rt_TM - t^2 Rt_TE) / (1 + s^2 t^2),
    W_z   = 1/4 Int Int u^3 e^{-u} (1 - t^2) Rt_TM / (1 + s^2 t^2),

both O(1), with ``U = 37 ln 10`` (:data:`slabshift.quadrature.CUTOFF`)
where the weight has fallen 37 decades below its peak.  At small zeta
``1 / (1 + s^2 t^2)`` is a peak of width ``1 / s`` at ``t = 0``, which the
variable v flattens (Davis & Rabinowitz, *Methods of Numerical
Integration*, 1984): with ``A = asinh(s)``,

    v = asinh(s t) / A in [0, 1],   dt / (1 + s^2 t^2) = A dv / (s cosh(v A)).

One call of the global GK15 x GK15 cubature of :mod:`slabshift.quadrature`
over (u, v) yields the pair, and each of its integrand calls (one per
round) takes both polarizations' reflection coefficients from one
:func:`rtilde` call.  All of it is plain Python on floats and lists.  The
seed cells are 8 u strips, ``0, U 2^-7, ..., U`` (the top 8 edges of
:func:`slabshift.quadrature.geometric_edges`), each all of ``[0, 1]`` in
v.  The rule stops when each component's error is at most
``max(rel_tol |W_k|, abs_tol min(1, 8 zeta^4))``: the GK15 bound
overstates the true error (at rel_tol 1e-6 to 1e-10 the worst true error
on a 120-point grid is 0.018 of it), and the floor shrinks with W's scale
at small zeta.
:data:`slabshift.quadrature.MAX_SUBDIVISIONS` bounds the cell splits
beyond the seeds.  ``W(1, 1, 2)`` ends on its 8 seed cells: 1,800 nodes
in one reflection coefficient call (3,600 coefficient values).

Only zeta sets a cell's node geometry: ``s``, ``t`` and the weight
``u^3 e^{-u} (A / s) / cosh(v A)`` of its 225 nodes (lam and n enter
through ``Rt`` alone).  The geometry memo keeps every cell of one zeta
at a time, keyed by the cell's exact 15 u and 15 v nodes; a new zeta
starts an empty memo.  A zeta's distinct cells level off however long
the sweep: at the default tolerance a lam sweep at n 2 holds 10 at zeta
1, 48 at 1e-3 and 96 at 1e-76 (about 1.7 MB, at 17.5 KB a cell), and at
rel_tol 1e-13 at most 288 (about 5 MB).  So the 13 W pairs of a 12-point
lam sweep build each distinct cell once, and a point of a zeta sweep
shares its cells with its half-space partner.  Each integrand call
joins its cells' geometry and makes one :func:`rtilde` call over every
node, so W's bits do not depend on what the memo holds.  Under threads
the memo stays consistent: a cell's entry is added whole, never
changed, and the same whoever builds it.

``S_par`` and ``S_perp`` are views of the same cubature, ``W / (8 zeta^4)``.
:func:`w_pair` reads W itself: the views underflow where W does not (at
``zeta = 1e70, lam = 1, n = 2``, ``S_par`` is 0.0 and ``W_par`` 3.075e-70).
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple

from .core import (AtomSpec, EnergyShift, QuadratureSpec, ReducedParams, Slab,
                   WPair, _slab_nonzero, assemble_shift, finite_power, reduce)
from .quadrature import CUTOFF, adaptive_quad, geometric_edges
from .reflection import Polarization, rtilde

__all__ = [
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

class SDetail(namedtuple("SDetail",
                         "w err_w scale outer_panels inner_panels_max")):
    """One S integral, as its W component and diagnostics.

    ``w`` and ``err_w`` are the cubature's W component and its bound, and
    ``scale`` is ``8 zeta^4``; the S value and bound are their quotients.
    ``outer_panels`` counts the distinct u intervals of the final cells,
    ``inner_panels_max`` the most v cells over one of them.
    """

    __slots__ = ()

    @property
    def value(self) -> float:
        return self.w / self.scale

    @property
    def err_est(self) -> float:
        return self.err_w / self.scale


@functools.lru_cache(maxsize=1)
def _geometry_memo(zeta: float) -> dict:
    """The cell geometries of one zeta, keyed by each cell's 15 u and 15 v
    nodes; empty when a new zeta first reads it."""
    return {}


def _cell_geometry(two_zeta: float, u_row: list,
                   v_row: list) -> tuple[list, list, list]:
    """s, t and the weight at one cell's 225 nodes, u-major.

    With ``s = u / 2 zeta`` and ``A = asinh(s)``, ``t = sinh(v A) / s``,
    clamped to 1 where ``sinh(asinh(s)) / s`` rounds above it, and the
    weight is ``u^3 e^-u (A / s) / cosh(v A)``.
    """
    s_cell, t_cell, w_cell = [], [], []
    s_add, t_add, w_add = s_cell.append, t_cell.append, w_cell.append
    for x in u_row:
        s = x / two_zeta
        a = math.asinh(s)
        w = x ** 3 * math.exp(-x) * (a / s)
        for y in v_row:
            y *= a
            s_add(s)
            t_add(math.sinh(y) / s)
            w_add(w / math.cosh(y))
    if max(t_cell) > 1.0:
        t_cell = [min(t, 1.0) for t in t_cell]
    return s_cell, t_cell, w_cell


@functools.lru_cache(maxsize=1)
def _s_pair(p: ReducedParams, q: QuadratureSpec) -> tuple[SDetail, SDetail]:
    """(S_par, S_perp) as two views of one cubature of (W_par, W_z).

    The last pair is kept, so reading both views of one point, as
    :func:`w_pair` and ``halfspace_S`` do, runs the cubature once.
    """
    # zeta^4 must be a normal double, and 8 zeta^4 finite, for the S views
    # W / (8 zeta^4) to be read back as W
    scale = finite_power(p.zeta, 4, "zeta", W_SCALE)
    if p.n == 1.0 or p.lam == 0.0:
        # transparent slab: the integrand vanishes identically
        return (SDetail(0.0, 0.0, scale, 0, 0),) * 2

    two_zeta, lam, n = 2.0 * p.zeta, p.lam, p.n
    memo = _geometry_memo(p.zeta)

    def integrand(u: list, v: list) -> tuple[list, list]:
        # 15 u and 15 v nodes per cell; each cell's geometry comes from
        # the memo, and R~ of every node from one rtilde call
        s_grid, t_grid, w_grid = [], [], []
        for c in range(0, len(u), 15):
            u_row, v_row = u[c:c + 15], v[c:c + 15]
            key = (*u_row, *v_row)
            cell = memo.get(key)
            if cell is None:
                cell = memo[key] = _cell_geometry(two_zeta, u_row, v_row)
            s_grid += cell[0]
            t_grid += cell[1]
            w_grid += cell[2]
        te, tm = rtilde((Polarization.TE, Polarization.TM), s_grid, t_grid,
                        lam, n)
        return ([0.125 * w * (m - t * t * e)
                 for w, t, e, m in zip(w_grid, t_grid, te, tm)],
                [0.25 * w * (1.0 - t * t) * m
                 for w, t, m in zip(w_grid, t_grid, tm)])

    # 8 u strips: 0, then U 2^-7 .. U, each all of [0, 1] in v; a lam
    # sweep evaluates fewer cells than with 4, 6, 10 or 12
    edges = [0.0] + geometric_edges(CUTOFF)[-8:]
    lo = [(x, 0.0) for x in edges[:-1]]
    hi = [(x, 1.0) for x in edges[1:]]
    # the GK15 bound overstates the true error, so W stops at rel_tol
    # itself; the floor shrinks as zeta^4 where W ~ zeta, so it never stops
    # a small W early
    res = adaptive_quad(integrand, lo, hi, q.rel_tol,
                        q.abs_tol * min(1.0, scale))
    per_u = Counter((a[0], b[0]) for a, b in zip(res.lo, res.hi))
    return tuple(SDetail(w, err, scale, len(per_u), max(per_u.values()))
                 for w, err in zip(res.value, res.err_est))


def s_parallel_detailed(p: ReducedParams,
                        q: QuadratureSpec | None = None) -> SDetail:
    return _s_pair(p, q or QuadratureSpec())[0]


def s_perp_detailed(p: ReducedParams,
                    q: QuadratureSpec | None = None) -> SDetail:
    return _s_pair(p, q or QuadratureSpec())[1]


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
    at = f"at (zeta, lam, n) = ({p.zeta!r}, {p.lam!r}, {p.n!r})"
    return WPair(w_par=_slab_nonzero(par.w, p.n, p.lam, f"W_par {at}"),
                 w_z=_slab_nonzero(perp.w, p.n, p.lam, f"W_z {at}"),
                 err_par=par.err_w, err_z=perp.err_w)


def energy_shift(atom: AtomSpec, slab: Slab, Z: float,
                 q: QuadratureSpec | None = None) -> EnergyShift:
    """Full energy shift from the exact double integrals, one W pair per transition."""
    pairs = [w_pair(reduce(slab, tr, Z), q) for tr in atom.transitions]
    return assemble_shift(atom, slab, Z, pairs)
