"""Print slabshift's cost ledger: exact counts of its work on a fixed panel.

Run from the repository root as ``PYTHONPATH=src python tests/make_cost_ledger.py``
(about a second).  It measures every point ``test_cost_ledger.py`` pins and
prints the Markdown tables that README's numerical notes quote.

:func:`cubature_costs` is the one reader of a cubature's work, here and in
the tests that count cells: it wraps a module's ``adaptive_quad`` and the
integrand each call is handed, so it sees the cells whatever the integrand
computes them with.  A cubature's triple is (final cells, cells evaluated,
integrand calls): the cells it ends on, the cells whose nodes it evaluated
(each split evaluates both halves), and the rounds in which it called the
integrand.  The ledger holds:

* W at n = 2, on an empty ``_s_pair`` cache;
* the non-retarded k integral at the benchmark's ``asympt-mirror`` entry
  (n 1e4, L 0.01, Z 1, unit E_ji, default tolerance), the one pool entry
  that takes it, through ``asymptotics.adaptive_quad`` (each cell an
  interval of 15 nodes);
* the trapped-mode solver at k_par 2000, n 2, L 1, over both
  polarizations and parities: roots, ``atan2`` calls and ``tan`` calls,
  read by wrapping ``modes.math``.

A change that moves a count edits its pin in ``test_cost_ledger.py`` and
pastes this script's output into README, where a test compares them.
"""

import contextlib
import math
from collections import Counter, namedtuple

import slabshift.asymptotics
import slabshift.modes
import slabshift.shift
from slabshift import (AtomSpec, Polarization, QuadratureSpec, ReducedParams,
                       Slab, Transition, w_pair)

ZETAS = (1e-76, 1e-20, 1e-7, 1e-3, 0.1, 1.0, 1e3)
# the (rel_tol, lam) of each column of W's table
W_COLUMNS = ((1e-8, 1.0), (1e-8, math.inf), (1e-8, 1e-3), (1e-10, 1.0))
MIRROR = (AtomSpec([Transition(1.0, 2.0, 1.0)]), Slab(1e4, 0.01), 1.0)
MODES_K_PAR, MODES_SLAB = 2000.0, Slab(2.0, 1.0)


class Cubature(namedtuple("Cubature", "lo hi result evaluated calls")):
    """One ``adaptive_quad`` call: the corners of its seed cells, its
    :class:`~slabshift.quadrature.QuadResult` (whose ``lo`` and ``hi`` are
    the final cells), the cells it evaluated and its integrand calls."""

    __slots__ = ()

    def strips(self) -> tuple[int, int]:
        """The distinct first-axis intervals of the final cells, and the
        most final cells over one of them."""
        per_strip = Counter((a[0], b[0])
                            for a, b in zip(self.result.lo, self.result.hi))
        return len(per_strip), max(per_strip.values())


@contextlib.contextmanager
def cubature_costs(module):
    """The list of every ``adaptive_quad`` call made through ``module``
    while the block runs, one :class:`Cubature` each, in call order."""
    cubature, costs = module.adaptive_quad, []

    def recording(f, lo, hi, *rest):
        work = [0, 0]

        def integrand(*nodes):
            # 15 nodes per cell along the first axis, in 1D and 2D alike
            work[0] += len(nodes[0]) // 15
            work[1] += 1
            return f(*nodes)

        res = cubature(integrand, lo, hi, *rest)
        costs.append(Cubature(lo, hi, res, *work))
        return res

    module.adaptive_quad = recording
    try:
        yield costs
    finally:
        module.adaptive_quad = cubature


def _triple(module, run) -> tuple[int, int, int]:
    """The triple of the one cubature that ``run()`` makes through
    ``module``."""
    with cubature_costs(module) as costs:
        run()
    (cost,) = costs
    return cost.result.panels, cost.evaluated, cost.calls


def w_cost(zeta: float, lam: float, rel_tol: float) -> tuple[int, int, int]:
    """The triple of one cold W at n = 2."""
    slabshift.shift._s_pair.cache_clear()
    return _triple(slabshift.shift, lambda: w_pair(
        ReducedParams(zeta, lam, 2.0), QuadratureSpec(rel_tol=rel_tol)))


def mirror_cost() -> tuple[int, int, int]:
    """The triple of the non-retarded k integral at the mirror entry."""
    return _triple(slabshift.asymptotics,
                   lambda: slabshift.asymptotics.nonretarded_shift(*MIRROR))


class _CountingMath:
    """``math`` with every ``atan2`` and ``tan`` call counted by name."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        function = getattr(math, name)
        if name not in ("atan2", "tan"):
            return function

        def counted(*args):
            self.calls[name] += 1
            return function(*args)
        return counted


def modes_cost() -> tuple[int, int, int]:
    """(roots, atan2 calls, tan calls) of the four trapped-mode relations."""
    counting = _CountingMath()
    slabshift.modes.math = counting
    try:
        roots = sum(len(slabshift.modes.find_trapped_modes(
            pol, parity, MODES_K_PAR, MODES_SLAB))
            for pol in Polarization for parity in "SA")
    finally:
        slabshift.modes.math = math
    return roots, counting.calls["atan2"], counting.calls["tan"]


def _counts(counts) -> str:
    return " / ".join(f"{c:,}" for c in counts)


def _num(x: float) -> str:
    return f"{x:g}".replace("e-0", "e-")


def table(w: dict, mirror: tuple, modes: tuple) -> str:
    """The ledger as README quotes it.  ``w`` maps each (rel_tol, lam) of
    :data:`W_COLUMNS` to its triples, one per zeta of :data:`ZETAS`."""
    lines = ["| W at n 2: zeta | "
             + " | ".join(f"`rel_tol` {_num(rel_tol)}, lam {_num(lam)}"
                          for rel_tol, lam in w) + " |",
             "|---" * (len(w) + 1) + "|"]
    lines += [f"| {_num(zeta)} | " + " | ".join(_counts(triples[i])
                                             for triples in w.values()) + " |"
              for i, zeta in enumerate(ZETAS)]
    lines += ["", "| other work | counts |", "|---|---|",
              "| k integral at the `asympt-mirror` entry: final cells / "
              f"cells evaluated / integrand calls | {_counts(mirror)} |",
              f"| trapped modes at k_par {MODES_K_PAR:g}, n "
              f"{MODES_SLAB.n:g}, L {MODES_SLAB.L:g}: roots / `atan2` calls "
              f"/ `tan` calls | {_counts(modes)} |"]
    return "\n".join(lines)


def ledger() -> str:
    """The table of every count, measured now."""
    return table({(rel_tol, lam): [w_cost(zeta, lam, rel_tol) for zeta in ZETAS]
                  for rel_tol, lam in W_COLUMNS}, mirror_cost(), modes_cost())


if __name__ == "__main__":
    print(ledger())
