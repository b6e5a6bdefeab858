"""Adaptive 1D quadrature with an embedded Gauss-Legendre error estimate.

Each panel is integrated with a 15-point Gauss-Legendre rule; the
difference from the embedded 7-point rule serves as a (conservative) local
error estimate.  Panels are bisected worst-first until the summed estimate
meets the requested tolerance.  The contract is the tolerance, not the
rule: callers rely on ``err_est <= max(rel_tol*|value|, abs_tol)`` of the
returned result, and on :class:`ConvergenceError` carrying the best
estimate when the panel budget runs out.

Integrands must accept and return 1D numpy arrays; every panel evaluated
in one step (both halves of a bisection, or all the initial panels) goes
to the integrand in a single call, so vectorized integrands keep the
Python overhead per panel constant.

:func:`adaptive_quad_rows` runs the same algorithm on many independent
integrands ``x -> f(p, x)`` at once, one row per parameter ``p``, over a
shared interval.  Every row gets the panels, value and error bound that
:func:`adaptive_quad` would give it alone, but a refinement round
evaluates the new panels of all unconverged rows with one integrand call,
so the call count follows the deepest row instead of the number of rows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["QuadratureSpec", "QuadResult", "adaptive_quad",
           "adaptive_quad_rows"]

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_PANEL_NODES = _NODES_HI.size + _NODES_LO.size


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

    The integrand sees the 15 + 7 nodes of each panel in turn, panel by
    panel.  Each panel's weighted sum runs over its own contiguous row, so
    a panel's value does not depend on how many panels share the call.
    """
    mid = (0.5 * (lo + hi))[:, None]
    half = 0.5 * (hi - lo)
    x = np.concatenate((mid + half[:, None] * _NODES_HI,
                        mid + half[:, None] * _NODES_LO), axis=1)
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    v_hi = half * (y[:, :_NODES_HI.size] * _WEIGHTS_HI).sum(axis=1)
    v_lo = half * (y[:, _NODES_HI.size:] * _WEIGHTS_LO).sum(axis=1)
    return v_hi, np.abs(v_hi - v_lo)


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  rel_tol: float, abs_tol: float, max_subdivisions: int,
                  initial_edges: Sequence[float] | None = None) -> QuadResult:
    """Integrate a vectorized integrand over [a, b] to the given tolerance.

    ``initial_edges`` optionally seeds the panel set (useful when the
    integrand lives on a scale much smaller than the interval).  Raises
    :class:`ConvergenceError` when ``max_subdivisions`` panels are not
    enough; the exception carries the best estimate and its error bound.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if initial_edges is None:
        edges = [a, b]
    else:
        edges = sorted(set([a, b] + [x for x in initial_edges if a < x < b]))

    vals, errs = _eval_panels(f, np.array(edges[:-1]), np.array(edges[1:]))

    # heap of (-err, counter, lo, hi, value, err); counter breaks ties
    # deterministically
    heap = []
    counter = 0
    for lo, hi, val, err in zip(edges[:-1], edges[1:], vals.tolist(),
                                errs.tolist()):
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    while True:
        value = math.fsum(item[4] for item in heap)
        err_total = math.fsum(item[5] for item in heap)
        if err_total <= max(rel_tol * abs(value), abs_tol):
            return QuadResult(value=value, err_est=err_total, panels=len(heap))
        if len(heap) >= max_subdivisions:
            raise _budget_error(max_subdivisions, value, err_total)
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, np.array([lo, mid]), np.array([mid, hi]))
        for plo, phi, val, err in zip((lo, mid), (mid, hi), vals.tolist(),
                                      errs.tolist()):
            heapq.heappush(heap, (-err, counter, plo, phi, val, err))
            counter += 1


def adaptive_quad_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       params: np.ndarray, a: float, b: float, rel_tol: float,
                       abs_tol: float,
                       max_subdivisions: int) -> list[QuadResult]:
    """Integrate ``x -> f(p, x)`` over [a, b] for every ``p`` in ``params``.

    Row ``i`` (``p = params[i]``) gets exactly the result of
    ``adaptive_quad(lambda x: f(p, x), a, b, rel_tol, abs_tol,
    max_subdivisions)``: the same rule, the same worst-first bisection
    with ties going to the panel created first, the same stopping test and
    the same panel budget.  The rows are refined together: each round
    bisects the worst panel of every unconverged row and evaluates all the
    new panels with one call ``f(p, x)``, where ``p`` and ``x`` are equal
    length arrays holding each node's row parameter and abscissa.

    Raises :class:`ConvergenceError` for the first row, in ``params``
    order, that runs out of panels; it carries that row's best estimate
    and error bound.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    params = np.asarray(params, dtype=float)
    results: list[QuadResult | None] = [None] * params.size
    row = np.arange(params.size)  # index into params of each active row

    # panel table of the active rows: column j holds the j-th panel
    # created, so argmax breaks ties towards the older panel as the heap
    # counter of adaptive_quad does; a bisected panel keeps its column
    # with zero value and error
    width = 1
    lo = np.full((row.size, 8), float(a))
    hi = np.full((row.size, 8), float(b))
    val = np.zeros((row.size, 8))
    err = np.zeros((row.size, 8))
    val[:, 0], err[:, 0] = _eval_panels(
        lambda x: f(np.repeat(params, _PANEL_NODES), x), lo[:, 0], hi[:, 0])

    while True:
        panels = (width + 1) // 2
        v, e = val[:, :width], err[:, :width]
        # The stopping test is adaptive_quad's, on math.fsum sums.  A row
        # whose numpy sums fail it by more than ``slack`` (a bound on their
        # rounding error relative to the summed magnitudes) would fail it
        # with fsum too, so it skips the exact test until the budget is
        # spent.
        slack = width * 2.0 ** -48
        bound = rel_tol * (1.0 + slack) * (np.abs(v.sum(axis=1))
                                           + slack * np.abs(v).sum(axis=1))
        fails = e.sum(axis=1) * (1.0 - slack) > np.maximum(bound, abs_tol)
        if panels >= max_subdivisions:
            check = range(row.size)
        else:
            check = np.flatnonzero(~fails).tolist()
        done = np.zeros(row.size, dtype=bool)
        for i in check:
            value = math.fsum(v[i].tolist())
            err_total = math.fsum(e[i].tolist())
            if err_total <= max(rel_tol * abs(value), abs_tol):
                results[row[i]] = QuadResult(value=value, err_est=err_total,
                                             panels=panels)
                done[i] = True
            elif panels >= max_subdivisions:
                raise _budget_error(max_subdivisions, value, err_total)
        if done.all():
            return results
        if done.any():
            keep = ~done
            row, lo, hi, val, err = (t[keep] for t in (row, lo, hi, val, err))

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
        p_nodes = np.repeat(params[row], 2 * _PANEL_NODES)
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
