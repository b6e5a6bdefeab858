"""The cost ledger: exact counts of slabshift's work on a fixed panel.

The counts are read as ``make_cost_ledger.py`` describes: W's (final
cells, cells evaluated, integrand calls) at n = 2, the same triple for the
non-retarded k integral at the ``asympt-mirror`` entry, and the trapped-mode
solver's roots, ``atan2`` calls and ``tan`` calls at k_par 2000.  The pins
are exact, so a change that moves a count edits this table, pastes the
generator's output into README and states the move.
"""

import math

import pytest

from helpers import README
from make_cost_ledger import (ZETAS, ledger, mirror_cost, modes_cost,
                              w_cost)

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
# the k integral's 24 seed cells take the mirror entry in one round
MIRROR = (24, 24, 1)
# about 3 atan2 steps per root, and one tan for its residual
MODES = (2206, 6621, 2206)


@pytest.mark.parametrize("rel_tol, lam, zeta, triple", POINTS)
def test_w_cost_ledger(rel_tol, lam, zeta, triple):
    got = w_cost(zeta, lam, rel_tol)
    assert got == triple, (
        f"W at zeta {zeta}, lam {lam}, n 2, rel_tol {rel_tol}: "
        f"(final cells, cells evaluated, integrand calls) {got}, "
        f"ledger {triple}")


def test_k_integral_cost_at_the_mirror_entry():
    assert mirror_cost() == MIRROR


def test_trapped_mode_cost_at_k_par_2000():
    assert modes_cost() == MODES


def test_readme_quotes_the_generated_ledger():
    table = ledger()
    assert table in README.read_text(), (
        "README's cost ledger differs from tests/make_cost_ledger.py:\n"
        + table)
