"""Print slabshift's cost ledger: exact counts of its work on a fixed panel.

Run from the repository root as ``PYTHONPATH=src python tests/make_cost_ledger.py``
(about a second).  It measures every point ``test_cost_ledger.py`` pins and
prints the Markdown tables that README's numerical notes quote:

* W at n = 2, read by wrapping ``shift.adaptive_quad`` and the integrand
  it is handed, on an empty ``_s_pair`` cache.  A point's triple is
  (final cells, cells evaluated, integrand calls): the cells the cubature
  ends on, the cells whose 15 x 15 nodes it evaluated (each split
  evaluates both halves), and the rounds in which it called the
  integrand.
* The non-retarded k integral at the benchmark's ``asympt-mirror`` entry
  (n 1e4, L 0.01, Z 1, unit E_ji, default tolerance), the one pool entry
  that takes it, as the same triple through ``asymptotics.adaptive_quad``
  (each cell an interval of 15 nodes).
* The trapped-mode solver at k_par 2000, n 2, L 1, over both
  polarizations and parities: roots, ``atan2`` calls and ``tan`` calls,
  read by wrapping ``modes.math``.

A change that moves a count edits its pin in ``test_cost_ledger.py`` and
pastes this script's output into README, where a test compares them.
"""

import math
from collections import Counter

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


def _cubature_cost(module, run) -> tuple[int, int, int]:
    """(final cells, cells evaluated, integrand calls) of the one
    ``adaptive_quad`` call that ``run()`` makes through ``module``."""
    cubature = module.adaptive_quad
    evaluated, calls, final = [0], [0], []

    def counting(f):
        def integrand(*nodes):
            calls[0] += 1
            evaluated[0] += len(nodes[0]) // 15
            return f(*nodes)
        return integrand

    def recording(f, lo, hi, *rest):
        res = cubature(counting(f), lo, hi, *rest)
        final.append(len(res.lo))
        return res

    module.adaptive_quad = recording
    try:
        run()
    finally:
        module.adaptive_quad = cubature
    assert len(final) == 1
    return final[0], evaluated[0], calls[0]


def w_cost(zeta: float, lam: float, rel_tol: float) -> tuple[int, int, int]:
    """The triple of one cold W at n = 2."""
    slabshift.shift._s_pair.cache_clear()
    return _cubature_cost(slabshift.shift, lambda: w_pair(
        ReducedParams(zeta, lam, 2.0), QuadratureSpec(rel_tol=rel_tol)))


def mirror_cost() -> tuple[int, int, int]:
    """The triple of the non-retarded k integral at the mirror entry."""
    return _cubature_cost(slabshift.asymptotics,
                          lambda: slabshift.asymptotics.nonretarded_shift(
                              *MIRROR))


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
