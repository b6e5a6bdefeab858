import heapq
import math

import numpy as np
import pytest

from slabshift import ConvergenceError, QuadratureSpec, adaptive_quad
from slabshift.quadrature import _eval_panels, adaptive_quad_rows


def test_gauss_kronrod_degrees_of_exactness():
    # one panel on [0, 1]: the 15-node Kronrod sum integrates x**k exactly
    # up to k = 22 and the embedded 7-node Gauss sum up to k = 13, so their
    # difference (the error estimate) vanishes there and not at k = 14
    for k in range(23):
        value, err = _eval_panels(lambda x: x ** k, np.array([0.0]),
                                  np.array([1.0]))
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
    seeds = [0.5 ** k for k in range(1, 24)]
    res = adaptive_quad(lambda x: np.exp(-x / 1e-4), 0.0, 1.0, 1e-10, 1e-16,
                        2000, initial_edges=seeds)
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
    with pytest.raises(ValueError):
        adaptive_quad_rows(lambda p, x: x, np.ones(1), 1.0, 1.0, 1e-8, 1e-14,
                           10)


# (integrand f(p, x), one row per p, a, b): each family has rows that
# converge in different refinement rounds
ROW_FAMILIES = {
    "polynomial": (lambda p, x: x ** p, [0.0, 2.0, 9.0, 29.0, 60.0], 0.0, 1.0),
    "cos": (lambda p, x: np.cos(p * x), [0.5, 3.0, 20.0, 80.0], 0.0, 2.0),
    "narrow-peak": (lambda p, x: np.exp(-x / p), [1e-4, 1e-3, 0.1, 1.0],
                    0.0, 1.0),
}


@pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
def test_rows_match_adaptive_quad_row_by_row(family):
    # each row against the plain heap loop below, run on that row alone
    f, params, a, b = ROW_FAMILIES[family]
    rows = adaptive_quad_rows(f, np.array(params), a, b, 1e-12, 1e-16, 2000)
    assert all(len(r) == len(params) for r in rows)
    for p, value, err_est, panels in zip(params, *rows):
        assert (value, err_est, panels) == _heap_fsum_quad(
            lambda x: f(p, x), a, b, 1e-12, 1e-16)
    assert len(set(rows[2].tolist())) > 1


@pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
def test_per_row_floor_stops_only_its_row(family):
    # a huge floor on one row stops it at its seed panel; every other row
    # gets exactly what the scalar floor gives it
    f, params, a, b = ROW_FAMILIES[family]
    params = np.array(params)
    scalar = adaptive_quad_rows(f, params, a, b, 1e-12, 1e-16, 2000)
    deep = int(np.argmax(scalar[2]))
    floors = np.full(params.size, 1e-16)
    floors[deep] = 1e300
    rows = adaptive_quad_rows(f, params, a, b, 1e-12, floors, 2000)
    assert scalar[2][deep] > 1 and rows[2][deep] == 1
    seed_value, seed_err = _eval_panels(lambda x: f(params[deep], x),
                                        np.array([a]), np.array([b]))
    assert (rows[0][deep], rows[1][deep]) == (seed_value[0], seed_err[0])
    others = np.arange(params.size) != deep
    for got, want in zip(rows, scalar):
        assert np.array_equal(got[others], want[others])


def test_rows_budget_exhaustion_reports_first_failing_row():
    # row 0 converges, rows 1 and 2 run out of panels in the same round;
    # the error is row 1's, as adaptive_quad reports it
    def f(p, x):
        return np.sin(p * x)

    with pytest.raises(ConvergenceError) as ref:
        adaptive_quad(lambda x: f(50.0, x), 0.0, 20.0, 1e-14, 1e-16, 4)
    with pytest.raises(ConvergenceError) as err:
        adaptive_quad_rows(f, np.array([0.01, 50.0, 70.0]), 0.0, 20.0, 1e-14,
                           1e-16, 4)
    assert err.value.estimate == pytest.approx(ref.value.estimate, rel=1e-15)
    assert err.value.err_est == pytest.approx(ref.value.err_est, rel=1e-15)
    assert err.value.err_est > 0.0


def _heap_fsum_quad(f, a, b, rel_tol, abs_tol, edges=None):
    """The bisection loop written plainly: re-sum the whole heap each round."""
    edges = sorted(set([a, b] + [x for x in (edges or []) if a < x < b]))
    vals, errs = _eval_panels(f, np.array(edges[:-1]), np.array(edges[1:]))
    heap = [(-err, i, lo, hi, val, err) for i, (lo, hi, val, err) in
            enumerate(zip(edges[:-1], edges[1:], vals.tolist(),
                          errs.tolist()))]
    heapq.heapify(heap)
    counter = len(heap)
    while True:
        value = math.fsum(item[4] for item in heap)
        err_total = math.fsum(item[5] for item in heap)
        if err_total <= max(rel_tol * abs(value), abs_tol):
            return value, err_total, len(heap)
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, np.array([lo, mid]), np.array([mid, hi]))
        for plo, phi, val, err in zip((lo, mid), (mid, hi), vals.tolist(),
                                      errs.tolist()):
            heapq.heappush(heap, (-err, counter, plo, phi, val, err))
            counter += 1


def test_running_sums_match_heap_fsum_bit_for_bit():
    cases = [(lambda x: np.sin(50.0 * x), 0.0, 20.0, 1e-9, 1e-16, None),
             (lambda x: np.exp(-x / 1e-4), 0.0, 1.0, 1e-10, 1e-16,
              [0.5 ** k for k in range(1, 24)])]
    for fam, params, a, b in ROW_FAMILIES.values():
        cases += [(lambda x, fam=fam, p=p: fam(p, x), a, b, 1e-12, 1e-16,
                   None) for p in params]
    for f, a, b, rel_tol, abs_tol, edges in cases:
        res = adaptive_quad(f, a, b, rel_tol, abs_tol, 2000,
                            initial_edges=edges)
        assert (res.value, res.err_est, res.panels) == \
            _heap_fsum_quad(f, a, b, rel_tol, abs_tol, edges)
    assert adaptive_quad(*cases[0][:5], 2000).panels > 300
