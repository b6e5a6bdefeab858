"""Adaptive 1D quadrature with an embedded Gauss-Kronrod error estimate.

Each panel is integrated with the 15-point Gauss-Kronrod rule (QUADPACK
``qk15``), whose nodes include the 7 of the Gauss-Legendre rule: a panel
costs 15 integrand nodes, and the difference of the two sums serves as a
(conservative) local error estimate.  Panels are bisected worst-first
until the summed estimate meets the requested tolerance.  The contract is
the tolerance, not the rule: callers rely on ``err_est <= max(rel_tol *
|value|, abs_tol)`` of the returned result, and on
:class:`ConvergenceError` carrying the best estimate when the panel budget
runs out.

Integrands must accept and return 1D numpy arrays; every panel evaluated
in one step (both halves of a bisection, or all the initial panels) goes
to the integrand in a single call, so vectorized integrands keep the
Python overhead per panel constant.

:func:`adaptive_quad_rows` is the one implementation of the rule.  It
integrates many independent integrands ``x -> f(p, x)`` at once, one row
per parameter ``p``, over a shared interval.  A row's panels, value and
error bound depend on its own integrand only, but a refinement round
evaluates the new panels of all unconverged rows with one integrand call,
so the call count follows the deepest row instead of the number of rows.
The stopping test is decided round by round: the ``math.fsum`` sums of all
candidate rows come from one ``tolist`` of their block, and the
comparison, the dropping of converged rows and the results are numpy
arrays.  Each row may carry its own absolute floor.  :func:`adaptive_quad`
is its single row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["QuadratureSpec", "QuadResult", "adaptive_quad",
           "adaptive_quad_rows"]

# Gauss-Kronrod 15 (QUADPACK qk15, Piessens et al. 1983): the nodes x >= 0
# on [-1, 1], their Kronrod weights, and the Gauss-7 weights of _XGK[1::2]
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# mirrored to ascending order, where the Gauss-7 nodes are _NODES[1::2]
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS_KRONROD = np.array(_WGK + _WGK[-2::-1])
_WEIGHTS_GAUSS = np.array(_WG + _WG[-2::-1])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the shift quadrature.

    ``s_cutoff_decades`` truncates the outer integral where the exponential
    weight has fallen that many decades below its peak.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    s_cutoff_decades: float = 37.0
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.s_cutoff_decades <= 0.0:
            raise ValueError("s_cutoff_decades must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    panels: int


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, error) of every panel ``[lo[i], hi[i]]`` from one integrand call.

    The integrand sees the 15 Kronrod nodes of each panel in turn, panel
    by panel.  Each panel's weighted sums run over its own contiguous row,
    so a panel's value does not depend on how many panels share the call.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    v_hi = half * (y * _WEIGHTS_KRONROD).sum(axis=1)
    v_lo = half * (y[:, 1::2] * _WEIGHTS_GAUSS).sum(axis=1)
    return v_hi, np.abs(v_hi - v_lo)


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rel_tol: float, abs_tol: float, max_subdivisions: int,
                  initial_edges: Sequence[float] | None = None) -> QuadResult:
    """Integrate a vectorized integrand over [a, b] to the given tolerance.

    This is the single row ``adaptive_quad_rows(lambda p, x: f(x), ...)``.
    ``initial_edges`` optionally seeds the panel set (useful when the
    integrand lives on a scale much smaller than the interval).  Raises
    :class:`ConvergenceError` when ``max_subdivisions`` panels are not
    enough; the exception carries the best estimate and its error bound.
    """
    value, err_est, panels = adaptive_quad_rows(
        lambda p, x: f(x), np.zeros(1), a, b, rel_tol, abs_tol,
        max_subdivisions, initial_edges)
    return QuadResult(value=float(value[0]), err_est=float(err_est[0]),
                      panels=int(panels[0]))


def adaptive_quad_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       params: np.ndarray, a: float, b: float, rel_tol: float,
                       abs_tol: float | np.ndarray, max_subdivisions: int,
                       initial_edges: Sequence[float] | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate ``x -> f(p, x)`` over [a, b] for every ``p`` in ``params``.

    Returns the arrays ``(value, err_est, panels)``, one entry per row.
    Every row starts from the panels between ``a``, ``b`` and the
    ``initial_edges`` inside (a, b), and bisects its worst panel, ties
    going to the panel created first, until the ``math.fsum`` of its panel
    errors is at most ``max(rel_tol * |value|, abs_tol)``.  ``abs_tol`` is
    one floor for every row or an array of one floor per row.  A row
    depends only on its own ``p`` and floor: the rows are refined
    together, but each round evaluates the new panels of all unconverged
    rows with one call ``f(p, x)``, where ``p`` and ``x`` are equal length
    arrays holding each node's row parameter and abscissa, and decides the
    stopping test of all candidate rows at once.

    Raises :class:`ConvergenceError` for the first row, in ``params``
    order, that runs out of panels; it carries that row's best estimate
    and error bound.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if initial_edges is None:
        edges = [a, b]
    else:
        edges = sorted(set([a, b] + [x for x in initial_edges if a < x < b]))
    params = np.asarray(params, dtype=float)
    floor = np.broadcast_to(np.asarray(abs_tol, dtype=float), params.shape)
    value = np.empty(params.size)
    err_est = np.empty(params.size)
    panels = np.empty(params.size, dtype=int)
    row = np.arange(params.size)  # index into params of each active row

    # panel table of the active rows: column j holds the j-th panel
    # created, so argmax breaks ties towards the older panel; a bisected
    # panel keeps its column with zero value and error
    seeds = len(edges) - 1
    width = seeds
    lo = np.zeros((row.size, seeds + 8))
    hi = np.zeros_like(lo)
    val = np.zeros_like(lo)
    err = np.zeros_like(lo)
    lo[:, :seeds] = edges[:-1]
    hi[:, :seeds] = edges[1:]
    vals, errs = _eval_panels(
        lambda x: f(np.repeat(params, seeds * _NODES.size), x),
        lo[:, :seeds].ravel(), hi[:, :seeds].ravel())
    val[:, :seeds] = vals.reshape(-1, seeds)
    err[:, :seeds] = errs.reshape(-1, seeds)

    while True:
        used = seeds + (width - seeds) // 2
        spent = used >= max_subdivisions
        v, e = val[:, :width], err[:, :width]
        tol = floor[row]
        if spent:
            check = np.arange(row.size)
        else:
            # The stopping test is on math.fsum sums.  A row whose numpy
            # sums fail it by more than ``slack`` (a bound on their
            # rounding error relative to the summed magnitudes) would fail
            # it with fsum too, so it skips the exact test until the
            # budget is spent.
            slack = width * 2.0 ** -48
            bound = rel_tol * (1.0 + slack) * (np.abs(v.sum(axis=1))
                                               + slack * np.abs(v).sum(axis=1))
            check = np.flatnonzero(~(e.sum(axis=1) * (1.0 - slack)
                                     > np.maximum(bound, tol)))
        if check.size:
            sums = [math.fsum(r) for r in
                    np.concatenate((v[check], e[check])).tolist()]
            v_sum = np.array(sums[:check.size])
            e_sum = np.array(sums[check.size:])
            ok = e_sum <= np.maximum(rel_tol * np.abs(v_sum), tol[check])
            if spent and not ok.all():
                i = int(np.argmin(ok))
                raise _budget_error(max_subdivisions, sums[i],
                                    sums[check.size + i])
            hit = row[check[ok]]
            value[hit] = v_sum[ok]
            err_est[hit] = e_sum[ok]
            panels[hit] = used
            if hit.size == row.size:
                return value, err_est, panels
            if hit.size:
                keep = np.ones(row.size, dtype=bool)
                keep[check[ok]] = False
                row, lo, hi, val, err = (t[keep]
                                         for t in (row, lo, hi, val, err))

        if width + 2 > lo.shape[1]:
            lo, hi, val, err = (np.concatenate((t, np.zeros_like(t)), axis=1)
                                for t in (lo, hi, val, err))
        active = np.arange(row.size)
        worst = np.argmax(err[:, :width], axis=1)
        plo = lo[active, worst]
        phi = hi[active, worst]
        pmid = 0.5 * (plo + phi)
        val[active, worst] = 0.0
        err[active, worst] = 0.0
        new_lo = np.stack((plo, pmid), axis=1)
        new_hi = np.stack((pmid, phi), axis=1)
        p_nodes = np.repeat(params[row], 2 * _NODES.size)
        vals, errs = _eval_panels(lambda x: f(p_nodes, x), new_lo.ravel(),
                                  new_hi.ravel())
        lo[:, width:width + 2] = new_lo
        hi[:, width:width + 2] = new_hi
        val[:, width:width + 2] = vals.reshape(-1, 2)
        err[:, width:width + 2] = errs.reshape(-1, 2)
        width += 2


def _budget_error(max_subdivisions: int, value: float,
                  err_total: float) -> ConvergenceError:
    return ConvergenceError(
        f"quadrature needed more than {max_subdivisions} panels "
        f"(best estimate {value!r}, error bound {err_total!r})",
        estimate=value, err_est=err_total)
