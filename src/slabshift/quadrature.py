"""Adaptive Gauss-Kronrod quadrature over an interval or a rectangle.

One rule serves both.  The domain is tiled by seed cells (intervals in
1D, rectangles in 2D; the shift's integrals seed their exponential axis
with :func:`geometric_edges` up to :data:`CUTOFF`), and each cell is
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
tolerance.  All children of a round go to the integrand in one call, so
the call count follows the depth of the refinement, not the number of
cells.

The contract is the tolerance, not the rule: callers rely on
``err_est <= max(rel_tol * |value|, abs_tol)`` of every component of the
returned result, both sides taken with ``math.fsum``, and on
:class:`ConvergenceError` carrying the best estimate when the budget of
:data:`MAX_SUBDIVISIONS` splits beyond the seed cells runs out.

The module is plain Python on floats and lists.  In 1D the integrand
takes the list of nodes, ``f(x)``.  In 2D it takes each cell's 15 nodes
per axis as two lists, ``f(u, v)``, and returns its values on each
cell's grid, u-major: cell ``c``'s value at ``(u[15 c + i],
v[15 c + j])`` sits at ``225 c + 15 i + j``.  Every integrand returns a
tuple of such lists, one per component.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Callable, Sequence

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
# the 15 nodes in ascending order; the Gauss-7 nodes are _NODES[1::2]
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_SIZE = len(_NODES)
# splits allowed beyond the seed cells: at rel_tol 1e-14, W took at most
# 184 and the k integral 7 on the grids of README's numerical notes
MAX_SUBDIVISIONS = 2000
# where the weight e^-u has fallen 37 decades below its peak: the end of
# the u axis of W and of 2Zk in the non-retarded k integral
CUTOFF = 37.0 * math.log(10.0)


def geometric_edges(upper: float) -> list[float]:
    """Seed edges 0, then ``upper 2^-k`` for k = 23..0: the first pass sees
    an integrand such as ``u^3 e^-u`` on every scale of ``[0, upper]``."""
    return [0.0] + [math.ldexp(upper, -k) for k in range(23, -1, -1)]


class QuadResult(namedtuple("QuadResult", "value err_est lo hi")):
    """Value and error bound, tuples with one entry per component.

    The final cells' corners are the tuples of ``lo`` and ``hi``, one
    entry per axis; ``panels`` counts them.
    """

    __slots__ = ()

    @property
    def panels(self) -> int:
        return len(self.lo)


def _kronrod_gauss(y: Sequence[float], wk=_WGK, wg=_WG) -> tuple[float, float]:
    """The Kronrod and the Gauss sum of the values at the 15 nodes of one
    axis, each pair of mirrored nodes added first, as in ``qk15``."""
    a0, a1, a2, a3, a4, a5, a6, mid, b6, b5, b4, b3, b2, b1, b0 = y
    k0, k1, k2, k3, k4, k5, k6, k7 = wk
    g0, g1, g2, g3 = wg
    s1, s3, s5 = a1 + b1, a3 + b3, a5 + b5
    return (k0 * (a0 + b0) + k1 * s1 + k2 * (a2 + b2) + k3 * s3
            + k4 * (a4 + b4) + k5 * s5 + k6 * (a6 + b6) + k7 * mid,
            g0 * s1 + g1 * s3 + g2 * s5 + g3 * mid)


def _eval_cells(f: Callable[..., tuple], lo: list[tuple],
                hi: list[tuple]) -> tuple[list, list]:
    """Values and per-axis errors of every cell ``[lo[i], hi[i]]``.

    One integrand call sees the nodes of all the cells.  The values and
    errors have one list per component of the integrand, with one entry
    per cell: its value, and the tuple of its axis errors.  A cell's sums
    run over its own nodes only, so its value does not depend on which
    cells share the call.
    """
    dims = len(lo[0])
    halves = [tuple(0.5 * (b - a) for a, b in zip(l, h))
              for l, h in zip(lo, hi)]
    volumes = list(map(math.prod, halves))
    rows = [[c + w * x for c, w in ((0.5 * (l[k] + h[k]), half[k])
                                    for l, h, half in zip(lo, hi, halves))
             for x in _NODES] for k in range(dims)]
    y = f(*rows)
    if not (isinstance(y, tuple)
            and all(len(ys) == len(lo) * _SIZE ** dims for ys in y)):
        raise ValueError(f"the integrand must return a tuple with "
                         f"{_SIZE ** dims} values per cell for each component")
    vals, errs = [], []
    for ys in y:
        # the sums along the last axis, one pair per run of 15 values
        sums = list(map(_kronrod_gauss, [ys[i:i + _SIZE]
                                         for i in range(0, len(ys), _SIZE)]))
        if dims == 2:
            # then along u: K x K and G x K from the Kronrod sums of the
            # cell's 15 u rows, K x G from their Gauss sums
            cells = []
            for i in range(0, len(sums), _SIZE):
                k_rows, g_rows = zip(*sums[i:i + _SIZE])
                kk, gk = _kronrod_gauss(k_rows)
                cells.append((kk, gk, _kronrod_gauss(g_rows)[0]))
            sums = cells
        vals.append([kk * v for (kk, *_), v in zip(sums, volumes)])
        errs.append([tuple(abs(g - kk) * v for g in gs)
                     for (kk, *gs), v in zip(sums, volumes)])
    return vals, errs


def adaptive_quad(f: Callable[..., tuple], lo: Sequence[Sequence[float]],
                  hi: Sequence[Sequence[float]], rel_tol: float,
                  abs_tol: float) -> QuadResult:
    """Integrate a vector-valued integrand to the given tolerance.

    ``lo`` and ``hi`` are the lower and upper corners of the seed cells,
    one row per cell and one entry per axis (1 or 2); the cells tile the
    domain.  The integrand returns a tuple of value lists, one per
    component, and the result's ``value`` and ``err_est`` have one entry
    per component.  ``abs_tol`` is the floor of every component's
    tolerance.  When :data:`MAX_SUBDIVISIONS` splits beyond the seed cells
    are spent, :class:`ConvergenceError` carries the best estimate and
    error bound of the component furthest from its tolerance.
    """
    lo = [tuple(map(float, row)) for row in lo]
    hi = [tuple(map(float, row)) for row in hi]
    if not (lo and len(lo) == len(hi)
            and all(len(l) == len(h) == len(lo[0]) for l, h in zip(lo, hi))
            and len(lo[0]) in (1, 2)
            and all(y > x for l, h in zip(lo, hi) for x, y in zip(l, h))):
        raise ValueError("need seed cells with 1 or 2 axes and lo < hi on "
                         "every axis")
    dims = len(lo[0])
    val, err = _eval_cells(f, lo, hi)
    splits = 0

    while True:
        cell_err = [[sum(e) for e in ek] for ek in err]
        # the test on the exactly rounded sums it promises
        value = tuple(math.fsum(vk) for vk in val)
        err_est = tuple(math.fsum(ek) for ek in cell_err)
        tol = [max(rel_tol * abs(v), abs_tol) for v in value]
        if all(e <= t for e, t in zip(err_est, tol)):
            return QuadResult(value, err_est, tuple(lo), tuple(hi))

        # each cell's error over its component's tolerance, worst first;
        # split until the unsplit cells fit in half of every tolerance
        ratio = [[e / max(t, sys.float_info.min) for e in ek]
                 for ek, t in zip(cell_err, tol)]
        worst = [max(r) for r in zip(*ratio)]
        order = sorted(range(len(lo)), key=worst.__getitem__, reverse=True)
        unsplit = [0.0] * len(ratio)
        count = 1
        for j in range(len(order) - 1, -1, -1):
            unsplit = [acc + r[order[j]] for acc, r in zip(unsplit, ratio)]
            if not all(acc <= 0.5 for acc in unsplit):
                count = j + 1
                break
        count = min(count, MAX_SUBDIVISIONS - splits)
        if count <= 0:
            k = max(range(len(ratio)), key=lambda k: sum(ratio[k]))
            raise ConvergenceError(
                f"quadrature needed more than {MAX_SUBDIVISIONS} "
                f"subdivisions (best estimate {value[k]!r}, error bound "
                f"{err_est[k]!r})", estimate=value[k], err_est=err_est[k])
        pick = order[:count]
        left_hi, right_lo = [], []
        for c in pick:
            # bisect along the larger axis error of the component driving
            # the cell
            comp = max(range(len(ratio)), key=lambda k: ratio[k][c])
            cell = err[comp][c]
            axis = max(range(dims), key=cell.__getitem__)
            l, h = lo[c], hi[c]
            mid = (0.5 * (l[axis] + h[axis]),)
            left_hi.append(h[:axis] + mid + h[axis + 1:])
            right_lo.append(l[:axis] + mid + l[axis + 1:])
        new_lo = [lo[c] for c in pick] + right_lo
        new_hi = left_hi + [hi[c] for c in pick]
        new_val, new_err = _eval_cells(f, new_lo, new_hi)
        keep = sorted(order[count:])
        lo = [lo[c] for c in keep] + new_lo
        hi = [hi[c] for c in keep] + new_hi
        val = [[vk[c] for c in keep] + nv for vk, nv in zip(val, new_val)]
        err = [[ek[c] for c in keep] + ne for ek, ne in zip(err, new_err)]
        splits += count
