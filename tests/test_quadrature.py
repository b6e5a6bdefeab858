import math

import numpy as np
import pytest

from slabshift import ConvergenceError, QuadratureSpec, adaptive_quad
from slabshift.quadrature import CUTOFF, _eval_cells, geometric_edges


def test_gauss_kronrod_degrees_of_exactness():
    # one panel on [0, 1]: the 15-node Kronrod sum integrates x**k exactly
    # up to k = 22 and the embedded 7-node Gauss sum up to k = 13, so their
    # difference (the error estimate) vanishes there and not at k = 14
    for k in range(23):
        value, err = _eval_cells(lambda x: x ** k, np.array([[0.0]]),
                                 np.array([[1.0]]))
        assert value[0] == pytest.approx(1.0 / (k + 1), rel=4e-15, abs=0.0)
        if k <= 13:
            assert err[0] <= 4e-16
        else:
            assert err[0] > 1e-9


# three 2D cells, one of them long along u
CELLS_LO = np.array([[0.0, 0.0], [0.5, 0.25], [3.0, 0.0]])
CELLS_HI = np.array([[0.5, 0.25], [3.0, 1.0], [40.0, 1.0]])


def _bits(pair):
    return [np.asarray(a).tobytes() for a in pair]


def _on_flat_nodes(f):
    """``f`` fed the materialised node arrays, one value per node."""
    def g(u, t):
        u, t = np.broadcast_arrays(u, t)
        y = np.asarray(f(u.ravel(), t.ravel()))
        return y.reshape(y.shape[:-1] + u.shape)
    return g


def _on_full_grid(f):
    """``f``'s values broadcast to the node grid by the integrand itself."""
    def g(u, t):
        y = np.asarray(f(u, t), dtype=float)
        return np.broadcast_to(y, np.broadcast_shapes(y.shape, u.shape,
                                                      t.shape)).copy()
    return g


@pytest.mark.parametrize("f", [
    lambda u, t: u ** 3 * np.exp(-u) / (1.0 + (u * t) ** 2),
    lambda u, t: np.stack(np.broadcast_arrays(np.cos(u) * t, np.exp(-u * t))),
], ids=["scalar", "vector"])
def test_2d_cells_pass_node_rows_with_the_bits_of_flat_nodes(f):
    # u along (cells, 15, 1) and t along (cells, 1, 15), and the same
    # sums as the flat node arrays the integrand once received
    shapes = []
    rows = _eval_cells(lambda u, t: shapes.append((u.shape, t.shape))
                       or f(u, t), CELLS_LO, CELLS_HI)
    assert shapes == [((3, 15, 1), (3, 1, 15))]
    assert _bits(rows) == _bits(_eval_cells(_on_flat_nodes(f), CELLS_LO,
                                            CELLS_HI))


@pytest.mark.parametrize("f", [lambda u, t: 2.0, lambda u, t: u * u,
                               lambda u, t: np.cos(t)],
                         ids=["constant", "u-only", "t-only"])
def test_2d_integrand_values_broadcast_to_the_node_grid(f):
    got = _eval_cells(f, CELLS_LO, CELLS_HI)
    assert got[0].shape == (3,) and got[1].shape == (3, 2)
    assert _bits(got) == _bits(_eval_cells(_on_full_grid(f), CELLS_LO,
                                           CELLS_HI))


def test_constant_integrands_broadcast_to_the_nodes():
    area = np.prod(CELLS_HI - CELLS_LO, axis=1)
    value, _ = _eval_cells(lambda u, t: 2.0, CELLS_LO, CELLS_HI)
    assert value == pytest.approx(2.0 * area, rel=1e-14)
    res = adaptive_quad(lambda x: 3.0, 0.0, 2.0, 1e-12, 1e-15, 10)
    assert res.value == pytest.approx(6.0, rel=1e-14)
    assert res.panels == 1


def test_polynomial_exact():
    res = adaptive_quad(lambda x: x * x, 0.0, 1.0, 1e-12, 1e-15, 100)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.err_est <= max(1e-12 * abs(res.value), 1e-15)


def test_gaussian_tail():
    res = adaptive_quad(lambda x: np.exp(-x * x), 0.0, 30.0, 1e-12, 1e-15, 500)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_oscillatory():
    res = adaptive_quad(np.sin, 0.0, 10.0 * math.pi, 1e-11, 1e-14, 2000)
    assert res.value == pytest.approx(0.0, abs=1e-11)


def test_narrow_peak_with_seeding():
    # peak at scale 1e-4 inside [0, 1]; geometric seeds let the first pass
    # see it
    edges = geometric_edges(1.0)
    res = adaptive_quad(lambda x: np.exp(-x / 1e-4), edges[:-1, None],
                        edges[1:, None], 1e-10, 1e-16, 2000)
    assert res.value == pytest.approx(1e-4, rel=1e-9)


def test_err_est_is_a_bound():
    for f, exact in ((lambda x: np.cos(3.0 * x), math.sin(3.0) / 3.0),
                     (lambda x: 1.0 / (1.0 + x * x), math.atan(1.0))):
        res = adaptive_quad(f, 0.0, 1.0, 1e-9, 1e-14, 500)
        assert abs(res.value - exact) <= res.err_est + 1e-15


def test_budget_exhaustion_carries_estimate():
    with pytest.raises(ConvergenceError) as err:
        adaptive_quad(lambda x: np.sin(50.0 * x), 0.0, 20.0, 1e-14, 1e-16, 4)
    assert err.value.estimate is not None
    assert err.value.err_est is not None and err.value.err_est > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    q = QuadratureSpec()
    assert (q.rel_tol, q.abs_tol, q.max_subdivisions) == (1e-8, 1e-14, 2000)
    assert CUTOFF == 37.0 * math.log(10.0)


def test_bad_interval():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: x, 1.0, 1.0, 1e-8, 1e-14, 10)



def test_oscillatory_refines_in_few_calls():
    # every round splits all the cells it needs at once: the call count
    # follows the depth of the refinement, not the number of splits
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(50.0 * x)

    res = adaptive_quad(f, 0.0, 20.0, 1e-9, 1e-16, 2000)
    assert len(calls) <= 40
    assert res.panels > 100
    assert abs(res.value - (1.0 - math.cos(1000.0)) / 50.0) <= res.err_est


def test_2d_polynomial_of_degree_22_is_exact():
    # GK15 x GK15 integrates x^22 y^22 exactly on one cell; the embedded
    # Gauss sums are exact to degree 13 only, so the error estimate is
    # nonzero, and a loose tolerance stops the rule at its seed cell
    def f(x, y):
        return (x ** 22 + 3.0 * x ** 5) * (y ** 22 - y ** 11)

    res = adaptive_quad(f, [[0.0, 0.0]], [[1.0, 2.0]], 1e-2, 1e-300, 10)
    exact = (1.0 / 23.0 + 0.5) * (2.0 ** 23 / 23.0 - 2.0 ** 12 / 12.0)
    assert res.panels == 1
    assert res.value == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_2d_seed_cells_must_be_proper():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x, y: x * y, [[0.0, 0.0]], [[1.0, 0.0]], 1e-8,
                      1e-14, 10)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x, y, z: x, [[0.0] * 3], [[1.0] * 3], 1e-8,
                      1e-14, 10)


def test_vector_integrand_stops_when_every_component_meets_its_tolerance():
    # component 0 is exact on the seed cell, component 1 needs refinement;
    # the rule stops only once both meet max(rel_tol |value|, abs_tol)
    def f(x, y):
        return np.stack((x * y, np.cos(40.0 * x) * np.exp(-y)))

    res = adaptive_quad(f, [[0.0, 0.0]], [[1.0, 1.0]], 1e-10, 1e-300, 2000)
    exact = (0.25, math.sin(40.0) / 40.0 * (1.0 - math.exp(-1.0)))
    assert res.panels > 1
    for value, err_est, want in zip(res.value, res.err_est, exact):
        assert err_est <= 1e-10 * abs(value)
        assert abs(value - want) <= err_est + 1e-16 * abs(want)
    # with a floor that only the easy component meets, the hard one still
    # drives the refinement
    loose = adaptive_quad(f, [[0.0, 0.0]], [[1.0, 1.0]], 1e-10, [1.0, 1e-300],
                          2000)
    assert loose.panels == res.panels
