import math

import numpy as np
import pytest

from slabshift import ConvergenceError, QuadratureSpec, adaptive_quad
from slabshift.quadrature import _eval_cells, geometric_edges


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
    assert (q.rel_tol, q.abs_tol, q.s_cutoff_decades, q.max_subdivisions) == \
        (1e-8, 1e-14, 37.0, 2000)


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
