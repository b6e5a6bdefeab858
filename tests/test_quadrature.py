import math

import numpy as np
import pytest

from slabshift import ConvergenceError, QuadratureSpec, adaptive_quad
from slabshift.quadrature import adaptive_quad_rows


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
    f, params, a, b = ROW_FAMILIES[family]
    rows = adaptive_quad_rows(f, np.array(params), a, b, 1e-12, 1e-16, 2000)
    assert len(rows) == len(params)
    for p, row in zip(params, rows):
        ref = adaptive_quad(lambda x: f(p, x), a, b, 1e-12, 1e-16, 2000)
        assert row.panels == ref.panels
        assert row.value == pytest.approx(ref.value, rel=1e-15, abs=0.0)
        assert row.err_est == pytest.approx(ref.err_est, rel=1e-15, abs=0.0)
    assert len({row.panels for row in rows}) > 1


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
