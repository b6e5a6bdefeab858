"""Adaptive Gauss-Kronrod quadrature over an interval or a rectangle.

One rule serves both.  The domain is tiled by seed cells (intervals in
1D, rectangles in 2D; the shift's integrals seed every exponential axis
with :func:`geometric_edges` up to
:attr:`slabshift.core.QuadratureSpec.cutoff`), and each cell is
integrated with the 15-point Gauss-Kronrod rule (QUADPACK ``qk15``)
along every axis: 15 nodes per interval, the 225-node product
GK15 x GK15 per rectangle.  The Kronrod nodes include the 7 of the
Gauss-Legendre rule, so each axis has an embedded error estimate: the
difference between the Kronrod sum and the sum with that axis's weights
replaced by Gauss weights (``|K - G|`` in 1D; ``|K x K - G x K|`` and
``|K x K - K x G|`` in 2D).  A cell's error is the sum of its axis errors.

Refinement is global, in rounds, after DCUHRE (Berntsen, Espelid & Genz,
ACM TOMS 17 (1991) 437) and Genz & Malik (1980).  Each round ranks the
cells by error over tolerance and bisects the worst of them, each along
its axis of larger error, until the cells left unsplit fit in half the
tolerance.  All children of a round go to the integrand in one call (or
in calls of at most ``_MAX_NODES`` nodes), so the call count follows the
depth of the refinement, not the number of cells.

The contract is the tolerance, not the rule: callers rely on
``err_est <= max(rel_tol * |value|, abs_tol)`` of every component of the
returned result, both sides taken with ``math.fsum``, and on
:class:`ConvergenceError` carrying the best estimate when the budget of
``max_subdivisions`` splits beyond the seed cells runs out.

In 1D the integrand takes the flat node array, ``f(x)``.  In 2D it takes
the nodes of each axis as rows that broadcast to the cells' node grid,
``f(u, t)`` with ``u`` of shape ``(cells, 15, 1)`` and ``t`` of shape
``(cells, 1, 15)``, so factors of one variable are formed once per row.
What it returns is broadcast to the nodes, with any leading axes taken as
the components of a vector-valued integrand: an elementwise integrand,
a constant or a function of one variable alone all work.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = ["QuadResult", "adaptive_quad", "geometric_edges"]

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
# mirrored to ascending order, where the Gauss-7 nodes are _NODES[1::2];
# column 0 of _WEIGHTS holds the Kronrod weights, column 1 the Gauss
# weights at their nodes and zero elsewhere
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:, 0] = _WGK + _WGK[-2::-1]
_WEIGHTS[1::2, 1] = _WG + _WG[-2::-1]
# most nodes in one integrand call (48 cells of 225 nodes in 2D): larger
# rounds go in several calls, which bounds the memory of the temporaries
_MAX_NODES = 10_800


def geometric_edges(upper: float) -> np.ndarray:
    """Seed edges 0, then ``upper 2^-k`` for k = 23..0: the first pass sees
    an integrand such as ``u^3 e^-u`` on every scale of ``[0, upper]``."""
    edges = upper * np.ldexp(1.0, np.arange(-24, 1))
    edges[0] = 0.0
    return edges


class QuadResult(namedtuple("QuadResult", "value err_est lo hi")):
    """Value and error bound, floats or one tuple entry per component.

    The final cells' corners are the rows of the arrays ``lo`` and ``hi``;
    ``panels`` counts them.
    """

    __slots__ = ()

    @property
    def panels(self) -> int:
        return self.lo.shape[0]


def _eval_cells(f: Callable[..., np.ndarray], lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and per-axis errors of every cell ``[lo[i], hi[i]]``.

    ``lo`` and ``hi`` have one row per cell and one column per axis.  One
    integrand call sees the nodes of all the cells: flat, cell by cell, in
    1D, and as the rows ``(cells, 15, 1)`` and ``(cells, 1, 15)`` in 2D.
    The value array has the integrand's component axes (if any) followed
    by one entry per cell; the error array adds one entry per axis.  A
    cell's sums run over its own nodes only, so its value does not depend
    on which cells share the call.
    """
    cells, dims = lo.shape
    size = _NODES.size
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, :, None] + half[:, :, None] * _NODES
    if dims == 1:
        grid = (cells * size,)
        y = f(x[:, 0].ravel())
    else:
        grid = (cells, size, size)
        y = f(x[:, 0, :, None], x[:, 1, None, :])
    y = np.asarray(y, dtype=float)
    y = np.broadcast_to(y, np.broadcast_shapes(y.shape, grid))
    lead = y.shape[:-len(grid)]
    # the last axis with both weight sets, (..., nodes) -> (..., [K, G]);
    # in 2D then the first axis, -> (..., [KK, GK, KG, GG]) with the first
    # letter the rule along the first axis
    sums = (y.reshape(-1, size) @ _WEIGHTS).reshape(
        lead + (cells,) + (size,) * (dims - 1) + (2,))
    if dims == 2:
        sums = (np.swapaxes(sums, -1, -2) @ _WEIGHTS).reshape(
            lead + (cells, 4))
    volume = half.prod(axis=1)
    kk = sums[..., 0]
    return (kk * volume,
            np.abs(sums[..., 1:1 + dims] - kk[..., None]) * volume[:, None])


def _eval_round(f: Callable[..., np.ndarray], lo: np.ndarray,
                hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eval_cells` of all the cells of one round, in integrand
    calls of at most ``_MAX_NODES`` nodes each."""
    step = max(1, _MAX_NODES // _NODES.size ** lo.shape[1])
    parts = [_eval_cells(f, lo[i:i + step], hi[i:i + step])
             for i in range(0, lo.shape[0], step)]
    return (np.concatenate([v for v, _ in parts], axis=-1),
            np.concatenate([e for _, e in parts], axis=-2))


def adaptive_quad(f: Callable[..., np.ndarray], a, b, rel_tol: float,
                  abs_tol: float | Sequence[float],
                  max_subdivisions: int) -> QuadResult:
    """Integrate a vectorized integrand to the given tolerance.

    With floats ``a < b`` the domain is the interval [a, b], one seed
    cell.  With arrays, ``a`` and ``b`` are the lower and upper corners of
    the seed cells, one row per cell and one column per axis (1 or 2); the
    cells tile the domain.

    ``abs_tol`` is one floor for every component or one per component.
    ``max_subdivisions`` bounds the splits beyond the seed cells; when they
    are spent, :class:`ConvergenceError` carries the best estimate and
    error bound of the component furthest from its tolerance.
    """
    if np.ndim(a) == 0:
        a, b = [[a]], [[b]]
    lo = np.array(a, dtype=float)
    hi = np.array(b, dtype=float)
    if not (lo.ndim == 2 and lo.shape[1] in (1, 2)
            and lo.shape == hi.shape and np.all(hi > lo)):
        raise ValueError("need a < b, or seed cells with 1 or 2 axes and "
                         "lo < hi on every axis")
    val, err = _eval_round(f, lo, hi)
    scalar = val.ndim == 1
    val = val.reshape(-1, lo.shape[0])
    err = err.reshape(val.shape + (lo.shape[1],))
    floor = np.broadcast_to(np.asarray(abs_tol, dtype=float), val.shape[:1])
    splits = 0

    while True:
        cell_err = err.sum(axis=2)
        tol = np.maximum(rel_tol * np.abs(val.sum(axis=1)), floor)
        if np.all(cell_err.sum(axis=1) <= tol):
            # confirm the test on the exactly rounded sums it promises
            value = [math.fsum(row) for row in val.tolist()]
            err_est = [math.fsum(row) for row in cell_err.tolist()]
            if all(e <= max(rel_tol * abs(v), fl)
                   for v, e, fl in zip(value, err_est, floor)):
                if scalar:
                    value, err_est = value[0], err_est[0]
                else:
                    value, err_est = tuple(value), tuple(err_est)
                return QuadResult(value, err_est, lo, hi)

        # each cell's error over its component's tolerance, worst first;
        # split until the unsplit cells fit in half of every tolerance
        ratio = cell_err / np.maximum(tol, sys.float_info.min)[:, None]
        order = np.argsort(-ratio.max(axis=0), kind="stable")
        unsplit = np.cumsum(ratio[:, order[::-1]], axis=1)[:, ::-1]
        fits = np.append(np.all(unsplit <= 0.5, axis=0), True)
        count = min(max(1, int(np.argmax(fits))),
                    max_subdivisions - splits)
        if count <= 0:
            worst = int(np.argmax(ratio.sum(axis=1)))
            value, bound = math.fsum(val[worst]), math.fsum(cell_err[worst])
            raise ConvergenceError(
                f"quadrature needed more than {max_subdivisions} "
                f"subdivisions (best estimate {value!r}, error bound "
                f"{bound!r})", estimate=value, err_est=bound)
        pick = order[:count]
        rows = np.arange(count)
        # bisect along the larger axis error of the component driving
        # the cell
        driver = np.argmax(ratio[:, pick], axis=0)
        axis = np.argmax(err[driver, pick], axis=1)
        p_lo, p_hi = lo[pick], hi[pick]
        mid = 0.5 * (p_lo[rows, axis] + p_hi[rows, axis])
        left_hi, right_lo = p_hi.copy(), p_lo.copy()
        left_hi[rows, axis] = mid
        right_lo[rows, axis] = mid
        new_lo = np.concatenate((p_lo, right_lo))
        new_hi = np.concatenate((left_hi, p_hi))
        new_val, new_err = _eval_round(f, new_lo, new_hi)
        keep = np.ones(lo.shape[0], dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[:, keep], new_val.reshape(val.shape[0], -1)),
                             axis=1)
        err = np.concatenate((err[:, keep],
                              new_err.reshape(err.shape[0], -1, lo.shape[1])),
                             axis=1)
        splits += count

