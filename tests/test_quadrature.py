import math

import pytest

from slabshift import ConvergenceError, QuadratureSpec, adaptive_quad
from slabshift import quadrature
from slabshift.quadrature import CUTOFF, _eval_cells, geometric_edges


def _nodewise(g):
    """A one-component integrand on a list of nodes from ``g`` of one."""
    return lambda x: ([g(y) for y in x],)


def _interval(a, b):
    """The seed-cell corners of the one interval [a, b]."""
    return [(a,)], [(b,)]


def test_gauss_kronrod_degrees_of_exactness():
    # one panel on [0, 1]: the 15-node Kronrod sum integrates x**k exactly
    # up to k = 22 and the embedded 7-node Gauss sum up to k = 13, so their
    # difference (the error estimate) vanishes there and not at k = 14
    for k in range(23):
        (value,), (err,) = _eval_cells(_nodewise(lambda y: y ** k),
                                       *_interval(0.0, 1.0))
        assert value[0] == pytest.approx(1.0 / (k + 1), rel=4e-15, abs=0.0)
        if k <= 13:
            assert err[0][0] <= 4e-16
        else:
            assert err[0][0] > 1e-9


# three 2D cells, one of them long along u
CELLS_LO = [(0.0, 0.0), (0.5, 0.25), (3.0, 0.0)]
CELLS_HI = [(0.5, 0.25), (3.0, 1.0), (40.0, 1.0)]


def _on_grid(f):
    """An integrand on node rows from ``f`` of one node: its values on
    each cell's 15 x 15 grid, u-major."""
    def g(u, v):
        values = [f(x, y) for c in range(0, len(u), 15)
                  for x in u[c:c + 15] for y in v[c:c + 15]]
        if isinstance(values[0], tuple):
            return tuple(map(list, zip(*values)))
        return (values,)
    return g


@pytest.mark.parametrize("f", [
    lambda u, t: u ** 3 * math.exp(-u) / (1.0 + (u * t) ** 2),
    lambda u, t: (math.cos(u) * t, math.exp(-u * t)),
], ids=["scalar", "vector"])
def test_2d_cells_pass_node_rows_with_the_bits_of_flat_nodes(f):
    # u and v as 15 nodes per cell each, the values u-major on the flat
    # node grid; a cell's sums do not depend on which cells share the call
    lengths = []
    together = _eval_cells(lambda u, v: lengths.append((len(u), len(v)))
                           or _on_grid(f)(u, v), CELLS_LO, CELLS_HI)
    assert lengths == [(45, 45)]
    alone = [_eval_cells(_on_grid(f), [lo], [hi])
             for lo, hi in zip(CELLS_LO, CELLS_HI)]
    for k, (values, errors) in enumerate(zip(*together)):
        assert values == [cell[0][k][0] for cell in alone]
        assert errors == [cell[1][k][0] for cell in alone]


@pytest.mark.parametrize("f, exact", [
    (lambda u, t: 2.0, lambda a, b, c, d: 2.0 * (b - a) * (d - c)),
    (lambda u, t: u * u, lambda a, b, c, d: (b ** 3 - a ** 3) / 3.0 * (d - c)),
    (lambda u, t: math.cos(t),
     lambda a, b, c, d: (b - a) * (math.sin(d) - math.sin(c))),
], ids=["constant", "u-only", "t-only"])
def test_2d_integrand_values_broadcast_to_the_node_grid(f, exact):
    # a constant or a function of one variable, spread over the grid,
    # integrates to its 1D integral times the other axis's width
    (values,), (errors,) = _eval_cells(_on_grid(f), CELLS_LO, CELLS_HI)
    assert len(values) == 3 and all(len(e) == 2 for e in errors)
    for value, lo, hi in zip(values, CELLS_LO, CELLS_HI):
        want = exact(lo[0], hi[0], lo[1], hi[1])
        assert value == pytest.approx(want, rel=1e-14)


def test_constant_integrands_broadcast_to_the_nodes():
    area = [(hi[0] - lo[0]) * (hi[1] - lo[1])
            for lo, hi in zip(CELLS_LO, CELLS_HI)]
    (value,), _ = _eval_cells(_on_grid(lambda u, t: 2.0), CELLS_LO,
                              CELLS_HI)
    assert value == pytest.approx([2.0 * a for a in area], rel=1e-14)
    res = adaptive_quad(lambda x: ([3.0] * len(x),), *_interval(0.0, 2.0),
                        1e-12, 1e-15)
    assert res.value == pytest.approx((6.0,), rel=1e-14)
    assert res.panels == 1


def test_polynomial_exact():
    (value,), (err_est,) = adaptive_quad(
        _nodewise(lambda y: y * y), *_interval(0.0, 1.0), 1e-12, 1e-15)[:2]
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert err_est <= max(1e-12 * abs(value), 1e-15)


def test_gaussian_tail():
    res = adaptive_quad(_nodewise(lambda y: math.exp(-y * y)),
                        *_interval(0.0, 30.0), 1e-12, 1e-15)
    assert res.value[0] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_oscillatory():
    res = adaptive_quad(_nodewise(math.sin), *_interval(0.0, 10.0 * math.pi),
                        1e-11, 1e-14)
    assert res.value[0] == pytest.approx(0.0, abs=1e-11)


def test_narrow_peak_with_seeding():
    # peak at scale 1e-4 inside [0, 1]; geometric seeds let the first pass
    # see it
    edges = geometric_edges(1.0)
    res = adaptive_quad(_nodewise(lambda y: math.exp(-y / 1e-4)),
                        [(e,) for e in edges[:-1]], [(e,) for e in edges[1:]],
                        1e-10, 1e-16)
    assert res.value[0] == pytest.approx(1e-4, rel=1e-9)


def test_err_est_is_a_bound():
    for g, exact in ((lambda y: math.cos(3.0 * y), math.sin(3.0) / 3.0),
                     (lambda y: 1.0 / (1.0 + y * y), math.atan(1.0))):
        (value,), (err_est,) = adaptive_quad(
            _nodewise(g), *_interval(0.0, 1.0), 1e-9, 1e-14)[:2]
        assert abs(value - exact) <= err_est + 1e-15


def test_budget_exhaustion_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
    with pytest.raises(ConvergenceError, match="more than 4 subdivisions") \
            as err:
        adaptive_quad(_nodewise(lambda y: math.sin(50.0 * y)),
                      *_interval(0.0, 20.0), 1e-14, 1e-16)
    assert err.value.estimate is not None
    assert err.value.err_est is not None and err.value.err_est > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    assert QuadratureSpec._fields == ("rel_tol", "abs_tol")
    q = QuadratureSpec()
    assert (q.rel_tol, q.abs_tol) == (1e-8, 1e-14)
    assert quadrature.MAX_SUBDIVISIONS == 2000
    assert CUTOFF == 37.0 * math.log(10.0)


def test_bad_interval():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: (x,), *_interval(1.0, 1.0), 1e-8, 1e-14)


def test_oscillatory_refines_in_few_calls():
    # every round splits all the cells it needs at once: the call count
    # follows the depth of the refinement, not the number of splits
    calls = []

    def f(x):
        calls.append(len(x))
        return ([math.sin(50.0 * y) for y in x],)

    res = adaptive_quad(f, *_interval(0.0, 20.0), 1e-9, 1e-16)
    assert len(calls) <= 40
    assert res.panels > 100
    assert abs(res.value[0] - (1.0 - math.cos(1000.0)) / 50.0) \
        <= res.err_est[0]


def test_2d_polynomial_of_degree_22_is_exact():
    # GK15 x GK15 integrates x^22 y^22 exactly on one cell; the embedded
    # Gauss sums are exact to degree 13 only, so the error estimate is
    # nonzero, and a loose tolerance stops the rule at its seed cell
    def f(x, y):
        return (x ** 22 + 3.0 * x ** 5) * (y ** 22 - y ** 11)

    res = adaptive_quad(_on_grid(f), [[0.0, 0.0]], [[1.0, 2.0]], 1e-2, 1e-300)
    exact = (1.0 / 23.0 + 0.5) * (2.0 ** 23 / 23.0 - 2.0 ** 12 / 12.0)
    assert res.panels == 1
    assert res.value[0] == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_2d_seed_cells_must_be_proper():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x, y: (x,), [[0.0, 0.0]], [[1.0, 0.0]], 1e-8,
                      1e-14)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x, y, z: (x,), [[0.0] * 3], [[1.0] * 3], 1e-8,
                      1e-14)


def test_vector_integrand_stops_when_every_component_meets_its_tolerance():
    # component 0 is exact on the seed cell, component 1 needs refinement;
    # the rule stops only once both meet max(rel_tol |value|, abs_tol)
    @_on_grid
    def f(x, y):
        return x * y, math.cos(40.0 * x) * math.exp(-y)

    res = adaptive_quad(f, [[0.0, 0.0]], [[1.0, 1.0]], 1e-10, 1e-300)
    exact = (0.25, math.sin(40.0) / 40.0 * (1.0 - math.exp(-1.0)))
    assert res.panels > 1
    for value, err_est, want in zip(res.value, res.err_est, exact):
        assert err_est <= 1e-10 * abs(value)
        assert abs(value - want) <= err_est + 1e-16 * abs(want)


def test_integrand_must_return_one_value_per_node():
    # values beyond or short of the nodes would be cut into 15-value runs
    # that belong to no cell, and a bare list is no tuple of components
    with pytest.raises(ValueError, match="15 values per cell"):
        adaptive_quad(lambda x: ([1.0] * (len(x) - 1),), *_interval(0.0, 1.0),
                      1e-8, 1e-14)
    with pytest.raises(ValueError, match="225 values per cell"):
        adaptive_quad(lambda u, v: ([1.0] * len(u), [1.0] * len(u)),
                      [[0.0, 0.0]], [[1.0, 1.0]], 1e-8, 1e-14)
    with pytest.raises(ValueError, match="must return a tuple"):
        adaptive_quad(lambda x: [1.0] * len(x), *_interval(0.0, 1.0), 1e-8,
                      1e-14)
