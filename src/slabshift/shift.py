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

    W_par = 1/8 Int Int u^3 e^{-u} (Rt_TM - t^2 Rt_TE) / (1 + (u t / 2 zeta)^2),
    W_z   = 1/4 Int Int u^3 e^{-u} (1 - t^2) Rt_TM / (1 + (u t / 2 zeta)^2),

both O(1), with ``U = s_cutoff_decades ln 10`` where the weight has
fallen that many decades below its peak.  One call of the global
GK15 x GK15 cubature of :mod:`slabshift.quadrature` yields the pair, and
each of its integrand calls (one per round, or per 48 cells of a larger
round) takes both polarizations' reflection coefficients from one
:func:`rtilde` call, on the u and t node rows of its cells.  The seed
cells (see :func:`_seed_cells`) are 24 geometric u strips, each cut in t
at powers of two so that the first node of every ``t = 0`` cell lies
inside the peak of ``1 / (1 + s^2 t^2)``.  The rule stops when each
component's error is at most
``max(0.1 rel_tol |W_k|, abs_tol min(1, 8 zeta^4))``: the floor shrinks
with W's scale at small zeta.  ``max_subdivisions`` bounds the cell
splits beyond the seeds.  ``W(1, 1, 2)`` takes 24 seed cells and
two rounds: 38 cells evaluated (31 final) at 8,550 nodes, in 3
reflection coefficient calls (17,100 coefficient values).

``S_par`` and ``S_perp`` are views of the same cubature, ``W / (8 zeta^4)``.
:func:`w_pair` reads W itself: the views underflow where W does not (at
``zeta = 1e70, lam = 1, n = 2``, ``S_par`` is 0.0 and ``W_par`` 3.075e-70).
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .core import (AtomSpec, EnergyShift, QuadratureSpec, ReducedParams, Slab,
                   WPair, _slab_nonzero, assemble_shift, finite_power, reduce)
from .quadrature import _NODES, adaptive_quad, geometric_edges
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

# smallest node of the GK15 rule on [0, 1]
_T_FIRST = 0.5 * (1.0 - float(_NODES[-1]))


class SDetail(namedtuple("SDetail",
                         "w err_w scale outer_panels inner_panels_max")):
    """One S integral, as its W component and diagnostics.

    ``w`` and ``err_w`` are the cubature's W component and its bound, and
    ``scale`` is ``8 zeta^4``; the S value and bound are their quotients.
    ``outer_panels`` counts the distinct u intervals of the final cells,
    ``inner_panels_max`` the most t cells over one of them.
    """

    __slots__ = ()

    @property
    def value(self) -> float:
        return self.w / self.scale

    @property
    def err_est(self) -> float:
        return self.err_w / self.scale


def _seed_cells(zeta: float, u_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper (u, t) corners of the seed cells of the W cubature.

    The 24 u strips of :func:`geometric_edges` up to ``U = q.cutoff``, so
    that the first pass sees the weight ``u^3 e^-u`` on every scale.
    Each strip has t edges at ``2^-k`` for ``k = 1..K``, with the smallest
    ``K`` (from ``frexp``, exact) for which ``s_hi 2^-K t_1 <= 1``, where
    ``s_hi = u_hi / (2 zeta)`` and ``t_1`` is the first GK15 node of
    ``[0, 1]``.  The first node of every ``t = 0`` cell then lies inside
    the peak of ``1 / (1 + s^2 t^2)``, of width ``1 / s``, at every s of
    its strip; a split along either axis keeps that, so the rule's error
    estimates there never miss the peak.
    """
    u_edges = geometric_edges(u_max)
    depth = np.maximum(0, np.frexp(u_edges[1:] / (2.0 * zeta) * _T_FIRST)[1])
    # cell j of a strip of depth K spans [2^-(K-j+1), 2^-(K-j)], and the
    # first one [0, 2^-K]
    strip = np.repeat(np.arange(depth.size), depth + 1)
    j = np.arange(strip.size) - np.repeat(np.cumsum(depth + 1) - depth - 1,
                                          depth + 1)
    t_hi = np.ldexp(1.0, j - depth[strip])
    t_lo = np.where(j == 0, 0.0, 0.5 * t_hi)
    return (np.stack((u_edges[strip], t_lo), axis=1),
            np.stack((u_edges[strip + 1], t_hi), axis=1))


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

    def integrand(u: np.ndarray, t: np.ndarray) -> np.ndarray:
        # u is (cells, 15, 1) and t (cells, 1, 15): the u-only and t-only
        # factors are formed once per node row
        s = u / (2.0 * p.zeta)
        te, tm = rtilde((Polarization.TE, Polarization.TM), s, t, p.lam, p.n)
        st = s * t
        weight = u ** 3 * np.exp(-u) / (1.0 + st * st)
        w = np.empty((2,) + weight.shape)
        np.multiply(0.125 * weight, tm - t * t * te, out=w[0])
        np.multiply(0.25 * weight * (1.0 - t * t), tm, out=w[1])
        return w

    lo, hi = _seed_cells(p.zeta, q.cutoff)
    # 0.1 rel_tol keeps the true error well inside rel_tol; the floor
    # shrinks as zeta^4 where W ~ zeta, so it never stops a small W early
    res = adaptive_quad(integrand, lo, hi, 0.1 * q.rel_tol,
                        q.abs_tol * min(1.0, scale), q.max_subdivisions)
    _, per_u = np.unique(np.stack((res.lo[:, 0], res.hi[:, 0]), axis=1),
                         axis=0, return_counts=True)
    return tuple(SDetail(w, err, scale, per_u.size, int(per_u.max()))
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
