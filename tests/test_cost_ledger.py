"""W's cost ledger: exact counts of the cubature's work on a fixed panel.

Each point is W at n = 2, read by wrapping ``shift.adaptive_quad`` and the
integrand it is handed, on an empty ``_s_pair`` cache.  A point's triple is
(final cells, cells evaluated, integrand calls): the cells the cubature
ends on, the cells whose 15 x 15 nodes it evaluated (each split evaluates
both halves), and the rounds in which it called the integrand.  The pins
are exact, so a change that moves W's work edits this table and states the
move.
"""

import math

import pytest

import slabshift.shift
from slabshift import QuadratureSpec, ReducedParams, w_pair

ZETAS = (1e-76, 1e-20, 1e-7, 1e-3, 0.1, 1.0, 1e3)
DEFAULT = [(52, 96, 8), (39, 70, 6), (30, 52, 5), (24, 40, 4), (14, 20, 2),
           (8, 8, 1), (8, 8, 1)]
# (rel_tol, lam): one triple per zeta of ZETAS
LEDGER = {
    (1e-8, 1.0): DEFAULT,
    (1e-8, math.inf): DEFAULT,
    (1e-8, 1e-3): DEFAULT[:3] + [(20, 32, 3), (12, 16, 2)] + DEFAULT[5:],
    (1e-10, 1.0): [(74, 140, 10), (65, 122, 9), (53, 98, 7), (47, 86, 7),
                   (25, 42, 4), (15, 22, 3), (10, 12, 2)],
}
POINTS = [(rel_tol, lam, zeta, triple)
          for (rel_tol, lam), triples in LEDGER.items()
          for zeta, triple in zip(ZETAS, triples)]


def _cost(zeta, lam, rel_tol, monkeypatch):
    """(final cells, cells evaluated, integrand calls) of one cold W."""
    cubature = slabshift.shift.adaptive_quad
    evaluated, calls, final = [0], [0], []

    def counting(f):
        def integrand(u, v):
            calls[0] += 1
            evaluated[0] += len(u) // 15
            return f(u, v)
        return integrand

    def recording(f, lo, hi, *rest):
        res = cubature(counting(f), lo, hi, *rest)
        final.append(len(res.lo))
        return res

    monkeypatch.setattr(slabshift.shift, "adaptive_quad", recording)
    slabshift.shift._s_pair.cache_clear()
    w_pair(ReducedParams(zeta, lam, 2.0), QuadratureSpec(rel_tol=rel_tol))
    monkeypatch.undo()
    assert len(final) == 1
    return final[0], evaluated[0], calls[0]


@pytest.mark.parametrize("rel_tol, lam, zeta, triple", POINTS)
def test_w_cost_ledger(rel_tol, lam, zeta, triple, monkeypatch):
    got = _cost(zeta, lam, rel_tol, monkeypatch)
    assert got == triple, (
        f"W at zeta {zeta}, lam {lam}, n 2, rel_tol {rel_tol}: "
        f"(final cells, cells evaluated, integrand calls) {got}, "
        f"ledger {triple}")
