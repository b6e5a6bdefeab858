import math
import random

import mpmath
import numpy as np
import pytest

from helpers import dipole_energy_finite_difference, phi_hankel
import slabshift.electrostatics as electrostatics
from slabshift import (AtomSpec, ConvergenceError, Slab, Transition,
                       image_series_shift, nonretarded_k_integral, phi_H)
from slabshift.electrostatics import image_series_converges

ATOM = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])


def test_phi_transparent():
    assert phi_H(0.5, 1.0, 1.0, Slab(n=1.0, L=1.0)) == 0.0


@pytest.mark.parametrize("rho, z, z_prime, L", [
    (0.0, 1e307, 1.7e308, 1.0),  # z + z' overflows: every image is at inf
    (0.0, 5e-324, 5e-324, 5e-324),  # 1/|(rho, d)| overflows
])
def test_phi_transparent_where_the_image_sum_leaves_the_doubles(rho, z,
                                                                z_prime, L):
    # the unscaled sum is nan or inf here at every n; summed in scaled
    # lengths it is finite, and its factor beta is 0 at n = 1
    got = phi_H(rho, z, z_prime, Slab(n=1.0, L=L))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


# each ran all 10^4 terms into a ConvergenceError with a NaN estimate and
# bound; the sums are from 40-digit mpmath, of the bracket form phi_H uses
@pytest.mark.parametrize("z, z_prime, L, want", [
    # z + z' overflows, and the sum, -2.2e-618, underflows to +0
    (1e307, 1.7e308, 1.0, 0.0),
    # an image distance a0 + 2L overflows
    (6e307, 6e307, 1e308, -1.4015718682950129e-309),
])
def test_phi_where_a_length_nears_the_largest_double(z, z_prime, L, want):
    got = phi_H(0.0, z, z_prime, Slab(n=1.5, L=L))
    assert abs(got - want) <= 5e-324  # one subnormal step
    assert got != 0.0 or math.copysign(1.0, got) == 1.0


def test_phi_beyond_the_largest_double_is_a_value_error():
    # the sum is about -4.26e321; it returned -inf
    with pytest.raises(ValueError, match="beyond the largest double"):
        phi_H(0.0, 5e-324, 5e-324, Slab(n=1.5, L=5e-324))


@pytest.mark.parametrize("rho, z, L, n", [(1e-170, 1e-200, 1e-200, 1.5),
                                          (1e-170, 1e-200, 1e-300, 2.0)])
def test_phi_where_rho_squared_underflows_matches_the_series(rho, z, L, n):
    # the brackets' bound before their turn divided by rho * rho, which
    # underflows to 0 here: a bare ZeroDivisionError
    got = phi_H(rho, z, z, Slab(n=n, L=L))
    with mpmath.workdps(40):
        rho_, z_, L_, n_ = map(mpmath.mpf, (rho, z, L, n))
        beta = (n_ ** 2 - 1) / (n_ ** 2 + 1)
        want = -beta / (4 * mpmath.pi) * mpmath.nsum(
            lambda m: beta ** (2 * m) * (
                1 / mpmath.hypot(rho_, 2 * z_ - L_ + 2 * m * L_)
                - 1 / mpmath.hypot(rho_, 2 * z_ + L_ + 2 * m * L_)),
            [0, mpmath.inf])
    assert got == pytest.approx(float(want), rel=1e-15)


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
    # NaN and inf ran all MAX_TERMS terms before a ConvergenceError, and
    # rho = inf gave -0.0
    for rho, z, z_prime, match in [
            (math.nan, 1.0, 1.0, "rho"), (math.inf, 1.0, 1.0, "rho"),
            (0.1, math.inf, 1.0, "height z "), (0.1, 1.0, math.nan, "z_prime")]:
        with pytest.raises(ValueError, match=match):
            phi_H(rho, z, z_prime, Slab(n=2.0, L=1.0))


def test_phi_stores_a_zero_as_positive_zero():
    # every bracket underflows far off axis, and the sum is 0 times -beta
    got = phi_H(1e200, 1.0, 1.0, Slab(n=2.0, L=1.0))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


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


def test_image_series_strictly_negative_and_monotone_partial_sums(monkeypatch):
    shift = image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3)
    assert shift.value < 0.0
    # truncated partial sums grow monotonically in magnitude toward the
    # full value (every bracketed term is positive)
    partials = []
    for max_terms in range(1, 7):
        monkeypatch.setattr(electrostatics, "MAX_TERMS", max_terms)
        with pytest.raises(ConvergenceError) as err:
            image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3)
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


def test_phi_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(electrostatics, "MAX_TERMS", 2)
    with pytest.raises(ConvergenceError) as err:
        phi_H(0.1, 0.6, 0.6, Slab(n=3.0, L=1.0))
    assert err.value.estimate is not None


def test_truncated_series_err_est_bounds_the_error(monkeypatch):
    # a series cut off by MAX_TERMS reports its tail majorant as err_est;
    # the converged default run serves as the exact value
    cases = [
        lambda: phi_H(0.1, 0.6, 0.6, Slab(n=3.0, L=1.0)),
        # far off axis the brackets rise before they fall
        lambda: phi_H(10.0, 0.75, 0.75, Slab(n=3.0, L=1.0)),
        lambda: phi_H(30.0, 0.75, 0.75, Slab(n=3.0, L=1.0)),
        lambda: image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.3).value,
        lambda: image_series_shift(ATOM, Slab(n=10.0, L=0.1), 1.0).value,
    ]
    for fn in cases:
        monkeypatch.undo()
        exact = fn()
        for max_terms in range(1, 7):
            monkeypatch.setattr(electrostatics, "MAX_TERMS", max_terms)
            with pytest.raises(ConvergenceError) as err:
                fn()
            est, bound = err.value.estimate, err.value.err_est
            assert 0.0 < abs(exact - est) <= bound
            assert math.isfinite(bound)


def test_series_predictor_declines_only_certain_failures(monkeypatch):
    # wherever the predictor says the series cannot meet TAIL_TOL within
    # MAX_TERMS, running it must indeed exhaust its terms
    rng = random.Random(1)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    declined = accepted = 0
    for _ in range(3000):
        n, Z = log_uniform(1.001, 1e5), log_uniform(1e-2, 1e2)
        slab = Slab(n=n, L=Z * log_uniform(1e-3, 10.0))
        monkeypatch.setattr(electrostatics, "MAX_TERMS",
                            int(log_uniform(1.0, 1e3)))
        if image_series_converges(slab, Z):
            accepted += 1
            continue
        declined += 1
        with pytest.raises(ConvergenceError):
            image_series_shift(ATOM, slab, Z)
    assert declined > 1000 and accepted > 100


def test_image_series_domain():
    with pytest.raises(ValueError):
        image_series_shift(ATOM, Slab(n=2.0, L=1.0), 0.0)
    # the predictor ended in a bare ZeroDivisionError from TAIL_TOL / Z**3
    with pytest.raises(ValueError, match="distance Z must be positive"):
        image_series_converges(Slab(n=2.0, L=1.0), 0.0)


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
    with pytest.raises(ValueError, match=r"Z\*\*3"):
        image_series_converges(Slab(n=2.0, L=L), Z)
