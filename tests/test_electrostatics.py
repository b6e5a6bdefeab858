import math
import random

import numpy as np
import pytest

from helpers import dipole_energy_finite_difference, phi_hankel
from slabshift import (AtomSpec, ConvergenceError, ImageSeriesSpec, Slab,
                       Transition, image_series_shift, nonretarded_k_integral,
                       phi_H)
from slabshift.electrostatics import image_series_converges

ATOM = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])


def test_phi_transparent():
    assert phi_H(0.5, 1.0, 1.0, Slab(n=1.0, L=1.0)) == 0.0


@pytest.mark.parametrize("n", [2.0, 1e9])  # beta^2 rounds to 1 at 1e9
@pytest.mark.parametrize("Z", [1e-120, 0.7, 3.0])
def test_image_series_at_no_slab_and_a_half_space(n, Z):
    beta = (n * n - 1.0) / (n * n + 1.0)
    got = image_series_shift(ATOM, Slab(n=n, L=0.0), Z).per_transition
    assert got == (0.0,) and math.copysign(1.0, got[0]) == 1.0
    if Z > 1e-100:  # 1/Z^3 is a double
        assert image_series_shift(ATOM, Slab(n=n, L=math.inf), Z).value == \
            -beta / (64.0 * math.pi) * (1.0 / Z ** 3) * (2.0 * 1.0 + 2.0)


def test_phi_domain():
    with pytest.raises(ValueError):
        phi_H(0.5, 0.4, 1.0, Slab(n=2.0, L=1.0))
    with pytest.raises(ValueError):
        phi_H(-0.1, 1.0, 1.0, Slab(n=2.0, L=1.0))


def test_phi_halfspace_single_image():
    # very thick slab: only the first image survives, at distance z+z'-L
    # from the far mirror plane
    n, L = 2.0, 1e8
    beta = (n * n - 1.0) / (n * n + 1.0)
    z = zp = L / 2.0 + 0.5
    rho = 0.3
    got = phi_H(rho, z, zp, Slab(n=n, L=L))
    single = -beta / (4.0 * math.pi * math.hypot(rho, z + zp - L))
    assert got == pytest.approx(single, rel=1e-8)


def test_phi_matches_hankel_transform():
    slab = Slab(n=2.0, L=1.0)
    got = phi_H(0.5, 1.0, 1.0, slab)
    oracle = phi_hankel(0.5, 1.0, 1.0, slab)
    assert got == pytest.approx(oracle, rel=1e-8)
    # frozen from the same oracle
    assert got == pytest.approx(-0.029679375069501086, rel=1e-12)


def test_phi_symmetry_in_sources():
    slab = Slab(n=1.7, L=0.8)
    assert phi_H(0.4, 1.1, 0.6, slab) == pytest.approx(
        phi_H(0.4, 0.6, 1.1, slab), rel=1e-15)


def test_image_series_transparent():
    s = image_series_shift(ATOM, Slab(n=1.0, L=1.0), 1.0)
    assert s.value == 0.0


def test_image_series_halfspace_limit():
    n, Z = 2.0, 0.7
    beta = (n * n - 1.0) / (n * n + 1.0)
    expected = -beta * (2.0 + 2.0) / (64.0 * math.pi * Z ** 3)
    got = image_series_shift(ATOM, Slab(n=n, L=math.inf), Z)
    assert got.value == pytest.approx(expected, rel=1e-14)
    # large finite thickness converges to the same value
    got_fin = image_series_shift(ATOM, Slab(n=n, L=1e6), Z)
    assert got_fin.value == pytest.approx(expected, rel=1e-8)


def test_image_series_strictly_negative_and_monotone_partial_sums():
    shift = image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3)
    assert shift.value < 0.0
    # truncated partial sums grow monotonically in magnitude toward the
    # full value (every bracketed term is positive)
    partials = []
    for max_terms in range(1, 7):
        with pytest.raises(ConvergenceError) as err:
            image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3,
                               ImageSeriesSpec(max_terms=max_terms))
        partials.append(err.value.estimate)
    mags = [abs(p) for p in partials]
    assert all(a < b for a, b in zip(mags, mags[1:]))
    assert all(m < abs(shift.value) for m in mags)


def test_image_series_equals_quadrature_route():
    series = image_series_shift(ATOM, Slab(n=2.0, L=1.0), 1.0)
    quad = nonretarded_k_integral(ATOM, Slab(n=2.0, L=1.0), 1.0)
    assert quad.value == pytest.approx(series.value, rel=1e-10)


def test_image_series_matches_finite_difference_of_phi():
    rng = np.random.default_rng(23)
    for _ in range(5):
        slab = Slab(n=rng.uniform(1.2, 3.0), L=rng.uniform(0.3, 2.0))
        Z = rng.uniform(0.4, 2.0)
        fd = dipole_energy_finite_difference(ATOM, slab, Z)
        series = image_series_shift(ATOM, slab, Z)
        assert fd == pytest.approx(series.value, rel=1e-6)


def test_phi_budget_exhaustion():
    with pytest.raises(ConvergenceError) as err:
        phi_H(0.1, 0.6, 0.6, Slab(n=3.0, L=1.0),
              ImageSeriesSpec(max_terms=2))
    assert err.value.estimate is not None


def test_truncated_series_err_est_bounds_the_error():
    # a series cut off by max_terms reports its tail majorant as err_est;
    # the converged default run serves as the exact value
    cases = [
        lambda spec: phi_H(0.1, 0.6, 0.6, Slab(n=3.0, L=1.0), spec),
        # far off axis the brackets rise before they fall
        lambda spec: phi_H(10.0, 0.75, 0.75, Slab(n=3.0, L=1.0), spec),
        lambda spec: phi_H(30.0, 0.75, 0.75, Slab(n=3.0, L=1.0), spec),
        lambda spec: image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3,
                                        spec).value,
        lambda spec: image_series_shift(ATOM, Slab(n=10.0, L=0.1), 1.0,
                                        spec).value,
    ]
    for fn in cases:
        exact = fn(None)
        for max_terms in range(1, 7):
            with pytest.raises(ConvergenceError) as err:
                fn(ImageSeriesSpec(max_terms=max_terms))
            est, bound = err.value.estimate, err.value.err_est
            assert 0.0 < abs(exact - est) <= bound
            assert math.isfinite(bound)


def test_series_predictor_declines_only_certain_failures():
    # wherever the predictor says the series cannot meet TAIL_TOL within
    # max_terms, running it must indeed exhaust its terms
    rng = random.Random(1)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    declined = accepted = 0
    for _ in range(3000):
        n, Z = log_uniform(1.001, 1e5), log_uniform(1e-2, 1e2)
        slab = Slab(n=n, L=Z * log_uniform(1e-3, 10.0))
        spec = ImageSeriesSpec(max_terms=int(log_uniform(1.0, 1e3)))
        if image_series_converges(slab, Z, spec):
            accepted += 1
            continue
        declined += 1
        with pytest.raises(ConvergenceError):
            image_series_shift(ATOM, slab, Z, spec)
    assert declined > 1000 and accepted > 100


def test_image_series_domain():
    with pytest.raises(ValueError):
        image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.0)
    with pytest.raises(ValueError):
        ImageSeriesSpec(max_terms=0)


@pytest.mark.parametrize("n", [1e9, math.inf])
def test_series_without_a_tail_bound_is_a_value_error(n):
    # beta^2 rounds to 1 (or is NaN) at finite L > 0: 1 - beta^2 = 0 has
    # no tail majorant; nonretarded_shift takes its k integral there
    with pytest.raises(ValueError, match=r"beta\^2"):
        image_series_shift(ATOM, Slab(n=n, L=1.0), 1.0)
    with pytest.raises(ValueError, match=r"beta\^2"):
        phi_H(0.1, 1.0, 1.0, Slab(n=n, L=1.0))


@pytest.mark.parametrize("Z", [1e-120, 1e-105, 1e103, math.inf])
@pytest.mark.parametrize("L", [1.0, math.inf])
def test_image_series_distance_outside_the_doubles_is_a_value_error(Z, L):
    with pytest.raises(ValueError, match=r"Z\*\*3"):
        image_series_shift(ATOM, Slab(n=2.0, L=L), Z)
