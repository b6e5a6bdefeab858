import logging
import math

import mpmath
import numpy as np
import pytest

from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, WPair, assemble_shift, buhmann_U,
                       classify_regime, energy_shift,
                       nonretarded_k_integral, nonretarded_shift,
                       nonretarded_thin_shift, phi_H,
                       retarded_thin_shift, static_polarizability, w_pair)
from slabshift.cli import main

ATOM = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])
# the two non-retarded routes: the image series (the default) and its
# independent check, the k integral
NONRETARDED_ROUTES = (nonretarded_shift, nonretarded_k_integral)
ROUTE_IDS = ("series", "quadrature")


def _isotropic_atom(rng):
    trs = []
    for _ in range(rng.integers(1, 4)):
        mu = rng.uniform(0.1, 3.0)
        trs.append(Transition(E_ji=rng.uniform(0.2, 5.0), mu_par_sq=2.0 * mu,
                              mu_perp_sq=mu))
    return AtomSpec(trs)


def test_classify_regime():
    assert classify_regime(ReducedParams(50.0, 1.0, 2.0)).regime == "retarded"
    assert classify_regime(ReducedParams(0.01, 1.0, 2.0)).regime == "non-retarded"
    assert classify_regime(ReducedParams(1.0, 1.0, 2.0)).regime == "intermediate"
    rep = classify_regime(ReducedParams(2.0, 3.0, 2.0))
    assert rep.two_zeta == 4.0
    assert rep.lambda_over_zeta == pytest.approx(1.5)


def test_halfspace_transparent():
    assert w_pair(ReducedParams(1.0, math.inf, 1.0)) == WPair(0.0, 0.0)


def test_halfspace_agrees_with_thick_slab():
    q = QuadratureSpec(rel_tol=1e-10)
    hs = w_pair(ReducedParams(1.0, math.inf, 2.0), q)
    thick = w_pair(ReducedParams(1.0, 200.0, 2.0), q)
    assert thick.w_par == pytest.approx(hs.w_par, rel=1e-6)
    assert thick.w_z == pytest.approx(hs.w_z, rel=1e-6)


def _retarded_halfspace_series(n):
    """W(zeta, inf, n) = W_inf + c2 / zeta^2 + c4 / zeta^4 + ..., with mpmath.

    With 1/(1 + s^2 t^2) = 1 - s^2 t^2 + s^4 t^4 - ... and
    Int_0^inf s^(3+2k) e^{-2 zeta s} ds = (3+2k)! / (2 zeta)^(4+2k), the
    term k of W_par = 2 zeta^4 Int Int s^3 e^{-2 zeta s} A / (1 + s^2 t^2)
    is (-1)^k 2 (3+2k)! / 2^(4+2k) zeta^(-2k) Int_0^1 t^(2k) A dt, where
    A = r_TM - t^2 r_TE; W_z has twice that with B = (1 - t^2) r_TM.
    So W_inf = (3/4 Int A, 3/2 Int B), c2 = (-15/4 Int t^2 A,
    -15/2 Int t^2 B) and c4 = (315/8 Int t^4 A, 315/4 Int t^4 B), with
    r_TE = (1 - g)/(1 + g), r_TM = (n^2 - g)/(n^2 + g) and
    g = sqrt(1 + (n^2 - 1) t^2).  The series is asymptotic, not
    convergent: each term's s integral runs past s t = 1, where the
    expansion diverges.
    """
    with mpmath.workdps(30):
        n2 = mpmath.mpf(n) ** 2

        def combos(t):
            g = mpmath.sqrt(1 + (n2 - 1) * t * t)
            r_te, r_tm = (1 - g) / (1 + g), (n2 - g) / (n2 + g)
            return r_tm - t * t * r_te, (1 - t * t) * r_tm

        def moments(k):
            return [mpmath.quad(lambda t: t ** (2 * k) * combos(t)[i], [0, 1])
                    for i in (0, 1)]

        terms = []
        for k, coef in ((0, mpmath.mpf(3) / 4), (1, mpmath.mpf(-15) / 4),
                        (2, mpmath.mpf(315) / 8)):
            a, b = moments(k)
            terms.append((float(coef * a), float(2 * coef * b)))
        return terms


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
def test_halfspace_w_approaches_the_retarded_limit_from_below(n):
    # 1/(1 + s^2 t^2) < 1 keeps W below the limit, and its next orders,
    # -s^2 t^2 + s^4 t^4, make zeta^2 (W - W_inf) tend to c2 and
    # zeta^4 (W - W_inf - c2 / zeta^2) to c4, per component
    limit, c2, c4 = _retarded_halfspace_series(n)
    q = QuadratureSpec(rel_tol=1e-12)
    scaled = []
    for zeta in (50.0, 100.0, 200.0):
        wp = w_pair(ReducedParams(zeta, math.inf, n), q)
        w = (wp.w_par, wp.w_z)
        assert all(w[i] < limit[i] for i in (0, 1))
        scaled.append([zeta ** 2 * (w[i] - limit[i]) for i in (0, 1)])
        remainder = [zeta ** 4 * (w[i] - limit[i] - c2[i] / zeta ** 2)
                     for i in (0, 1)]
        assert remainder == pytest.approx(c4, rel=0.01)
    for component in zip(*scaled):
        assert max(component) - min(component) < 0.01 * abs(component[-1])


def test_retarded_thin_transparent_and_linear_in_L():
    assert retarded_thin_shift(ATOM, Slab(n=1.0, L=1.0), 5.0).value == 0.0
    full = retarded_thin_shift(ATOM, Slab(n=2.0, L=1.0), 5.0).value
    half = retarded_thin_shift(ATOM, Slab(n=2.0, L=0.5), 5.0).value
    assert half == pytest.approx(full / 2.0, rel=1e-14)


def test_retarded_thin_smooth_zero_thickness_limit():
    # ratio shift/L must be L-independent (analytic L -> 0 limit)
    ratios = [retarded_thin_shift(ATOM, Slab(n=2.0, L=L), 5.0).value / L
              for L in (1e-6, 1e-8, 1e-10)]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-10)


def test_retarded_thin_isotropic_bracket():
    # isotropic atom, n = 2: per-transition bracket is
    # 2 (9 + 14 n^2) |mu_nu|^2 and (n^2-1)(9+14n^2) = 195
    n = 2.0
    assert (n * n - 1.0) * (9.0 + 14.0 * n * n) == 195.0
    mu = 0.8
    atom = AtomSpec([Transition(1.0, 2.0 * mu, mu)])
    got = retarded_thin_shift(atom, Slab(n=n, L=0.3), 4.0).value
    expected = -(n * n - 1.0) * 0.3 / (160.0 * math.pi ** 2 * n * n * 4.0 ** 5) \
        * 2.0 * (9.0 + 14.0 * n * n) * mu
    assert got == pytest.approx(expected, rel=1e-14)


def test_buhmann_bracket_values():
    # mu(0) = 1 leg contributes (6-1)/1 = 5; n = 2 bracket = 195/4
    n = 2.0
    bracket = (14.0 * n ** 4 - 9.0) / (n * n) - 5.0
    assert bracket == pytest.approx(195.0 / 4.0, rel=1e-14)
    assert bracket == pytest.approx((n * n - 1.0) * (9.0 + 14.0 * n * n) / (n * n),
                                    rel=1e-14)


def test_buhmann_equals_retarded_thin_for_isotropic():
    rng = np.random.default_rng(17)
    for _ in range(50):
        atom = _isotropic_atom(rng)
        n = rng.uniform(1.0, 5.0)
        L = rng.uniform(0.01, 10.0)
        Z = rng.uniform(0.1, 20.0)
        u = buhmann_U(static_polarizability(atom), n, L, Z)
        d = retarded_thin_shift(atom, Slab(n=n, L=L), Z).value
        assert u == pytest.approx(d, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("dn", [1e-12, 1e-8, 1e-4])
def test_thin_forms_keep_their_digits_near_n_one(dn):
    # n * n - 1 lost the (n - 1)^2 of n * n: buhmann_U was 2.6e-5 off,
    # the two thin-slab laws 5e-9 and 8e-9
    n, L, Z, mu = 1.0 + dn, 0.3, 4.0, 0.8
    atom = AtomSpec([Transition(1.0, 2.0 * mu, mu)])
    alpha0 = static_polarizability(atom)
    with mpmath.workdps(50):
        n2, L_, Z_ = mpmath.mpf(n) ** 2, mpmath.mpf(L), mpmath.mpf(Z)
        want = {
            "retarded": -(n2 - 1) * L_ / (160 * mpmath.pi ** 2 * n2 * Z_ ** 5)
            * ((5 + 9 * n2) * 2 * mu + 2 * (4 + 5 * n2) * mu),
            "U": -alpha0 * L_ / (160 * mpmath.pi ** 2 * Z_ ** 5)
            * ((14 * n2 * n2 - 9) / n2 - 5),
            "non-retarded": -3 * (n2 * n2 - 1) * L_
            / (256 * mpmath.pi * n2 * Z_ ** 4) * (2 * mu + 2 * mu),
        }
    got = {"retarded": retarded_thin_shift(atom, Slab(n, L), Z).value,
           "U": buhmann_U(alpha0, n, L, Z),
           "non-retarded": nonretarded_thin_shift(atom, Slab(n, L), Z).value}
    for form, value in got.items():
        assert value == pytest.approx(float(want[form]), rel=1e-14,
                                      abs=0.0), form


@pytest.mark.parametrize("n", [3e152, 1e153])
def test_retarded_thin_law_holds_where_160_pi2_n2_overflows(n):
    # 160 pi^2 n^2 overflowed past n ~ 3.4e152, and the shift read 0: an
    # "underflowed" ValueError; the thin-plate form and the non-retarded
    # thin law raised past n ~ 6.0e76 and 8.8e76, where 14 n^4 and
    # 3 (n^4 - 1) overflow
    alpha0 = static_polarizability(ATOM)
    got = {"retarded": retarded_thin_shift(ATOM, Slab(n=n, L=1.0), 1.0).value,
           "U": buhmann_U(alpha0, n, 1.0, 1.0),
           "non-retarded": nonretarded_thin_shift(ATOM, Slab(n=n, L=1.0),
                                                  1.0).value}
    with mpmath.workdps(40):
        n2 = mpmath.mpf(n) ** 2
        want = {
            "retarded": -(n2 - 1) / (160 * mpmath.pi ** 2 * n2) * (
                (5 + 9 * n2) * 2 + 2 * (4 + 5 * n2) * 1),
            "U": -alpha0 / (160 * mpmath.pi ** 2) * ((14 * n2 * n2 - 9) / n2
                                                     - 5),
            "non-retarded": -3 * (n2 * n2 - 1) / (256 * mpmath.pi * n2) * (
                2 * 1 + 2),
        }
    for form, value in got.items():
        assert value == pytest.approx(float(want[form]), rel=1e-15,
                                      abs=0.0), form


def test_thin_plate_form_outside_the_doubles_is_a_value_error():
    # alpha0 L overflows; the shift at this slab is finite
    with pytest.raises(ValueError, match="U is -inf, not a finite double"):
        buhmann_U(1.0, 10.0, 1.7e308, 1.0)
    with pytest.raises(ValueError, match="below the normal doubles"):
        buhmann_U(1.0, 2.0, 1e-320, 1.0)


def test_closed_forms_reject_a_slab_shift_that_underflows_to_zero():
    # every form is about 1e-340 here, and 0 only at n = 1 or L = 0
    slab, Z = Slab(n=2.0, L=1e-100), 1e60
    for form in (lambda: retarded_thin_shift(ATOM, slab, Z),
                 lambda: nonretarded_thin_shift(ATOM, slab, Z),
                 lambda: nonretarded_shift(ATOM, slab, Z),
                 lambda: nonretarded_k_integral(ATOM, slab, Z),
                 lambda: buhmann_U(1.0, slab.n, slab.L, Z)):
        with pytest.raises(ValueError, match="below the normal doubles"):
            form()


@pytest.mark.parametrize("alpha0", [-1.0, 0.0, math.nan, math.inf])
def test_thin_plate_form_takes_a_positive_finite_polarizability(alpha0):
    # alpha0 = -1 gave a repulsive U, and 0 a U reported as underflowed
    with pytest.raises(ValueError, match="alpha0 must be positive and finite"):
        buhmann_U(alpha0, 2.0, 1.0, 1.0)


@pytest.mark.parametrize("n, L", [(0.5, 1.0), (2.0, -1.0), (math.nan, 1.0),
                                  (2.0, math.nan)])
def test_thin_plate_form_checks_the_slab_as_slab_does(n, L):
    with pytest.raises(ValueError, match="must satisfy"):
        buhmann_U(1.0, n, L, 1.0)


SLAB = Slab(n=2.0, L=1.0)
SHIFTS_OF_Z = {
    "assemble_shift": lambda Z: assemble_shift(ATOM, SLAB, Z, [WPair(1.0, 1.0)]),
    "retarded_thin_shift": lambda Z: retarded_thin_shift(ATOM, SLAB, Z),
    "buhmann_U": lambda Z: buhmann_U(1.0, SLAB.n, SLAB.L, Z),
    "nonretarded_thin_shift": lambda Z: nonretarded_thin_shift(ATOM, SLAB, Z),
    "nonretarded_shift": lambda Z: nonretarded_shift(ATOM, SLAB, Z),
    "nonretarded_shift-quadrature":
        lambda Z: nonretarded_k_integral(ATOM, SLAB, Z),
}


@pytest.mark.parametrize("Z", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("form", sorted(SHIFTS_OF_Z))
def test_shifts_reject_a_distance_that_is_not_positive(form, Z):
    # the one positivity rule is finite_power's, on the power of Z each
    # form divides by
    with pytest.raises(ValueError, match="atom-surface distance Z must be "
                                         "positive"):
        SHIFTS_OF_Z[form](Z)


@pytest.mark.parametrize("n, L", [(1.0, 1.0), (2.0, 0.0)])
def test_thin_plate_form_is_positive_zero_without_a_slab(n, L):
    assert math.copysign(1.0, buhmann_U(1.0, n, L, 1.0)) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Z", [1e62, 1e-62, 1e70, 1e-70, 1e78, 1e-78,
                               math.inf])
def test_closed_forms_reject_powers_of_z_outside_the_doubles(Z):
    # Z**5 overflows, falls to a subnormal or to zero at every Z here; Z**4
    # of the non-retarded thin form only past about 1e77 and 1e-77
    slab = Slab(n=2.0, L=1.0)
    for form in (lambda: retarded_thin_shift(ATOM, slab, Z),
                 lambda: buhmann_U(1.0, 2.0, 1.0, Z)):
        with pytest.raises(ValueError, match="out of range"):
            form()
    if not 1e-77 < Z < 1e77:
        with pytest.raises(ValueError, match="out of range"):
            nonretarded_thin_shift(ATOM, slab, Z)


def test_nonretarded_halfspace_limit():
    # L -> inf: Delta E = -beta (2 mu_perp + mu_par) / (64 pi Z^3)
    n, Z = 2.0, 1.3
    beta = (n * n - 1.0) / (n * n + 1.0)
    expected = -beta * (2.0 * 1.0 + 2.0) / (64.0 * math.pi * Z ** 3)
    for route in NONRETARDED_ROUTES:
        got = route(ATOM, Slab(n=n, L=math.inf), Z)
        assert got.value == pytest.approx(expected, rel=1e-10)


def test_nonretarded_transparent():
    for route in NONRETARDED_ROUTES:
        got = route(ATOM, Slab(n=1.0, L=1.0), 1.0)
        assert got.value == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", NONRETARDED_ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("n", [2.0, 1e9])
def test_nonretarded_is_positive_zero_without_a_slab(n, route):
    # at n = 1e9, beta^2 rounds to 1, and the k integrand of L = 0 was
    # 0/0: a RuntimeWarning, then a ConvergenceError with a nan estimate
    got = route(ATOM, Slab(n=n, L=0.0), 1.0)
    assert got.per_transition == (0.0,)
    assert math.copysign(1.0, got.value) == 1.0


def test_nonretarded_series_equals_quadrature():
    s = nonretarded_shift(ATOM, Slab(n=2.0, L=1.0), 1.0)
    q = nonretarded_k_integral(ATOM, Slab(n=2.0, L=1.0), 1.0)
    assert q.value == pytest.approx(s.value, rel=1e-10)


def _lerch_nonretarded(n, L, Z):
    # sum_m beta^2m [1/(Z+mL)^3 - 1/(Z+(m+1)L)^3]
    #   = 1/Z^3 - (1 - beta^2) Phi(beta^2, 3, Z/L + 1) / L^3
    with mpmath.workdps(30):
        n2 = mpmath.mpf(n) ** 2
        beta = (n2 - 1) / (n2 + 1)
        L, Z = mpmath.mpf(L), mpmath.mpf(Z)
        series = (1 / Z ** 3 - (1 - beta ** 2)
                  * mpmath.lerchphi(beta ** 2, 3, Z / L + 1) / L ** 3)
        dipole_sum = 2 * 1.0 + 2.0  # 2 mu_perp^2 + mu_par^2 of ATOM
        return float(-beta / (64 * mpmath.pi) * series * dipole_sum)


def test_nonretarded_near_mirror_matches_lerch_closed_form():
    # near a perfect mirror the default route switches to the k integral
    # where the series would need more than about 1e4 terms; either way it
    # must hold
    Z = 1.0
    for n in (100.0, 300.0, 1e3, 1e4):
        for ratio in (0.01, 0.1, 1.0):
            got = nonretarded_shift(ATOM, Slab(n=n, L=ratio * Z), Z).value
            want = _lerch_nonretarded(n, ratio * Z, Z)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (n, ratio)


def test_nonretarded_where_beta_rounds_to_one():
    # n >= 1e8: beta^2 == 1.0 in floating point, the series' tail bound
    # divides by zero, and every slab reflects like a perfect mirror
    Z = 1.3
    expected = -(2.0 * 1.0 + 2.0) / (64.0 * math.pi * Z ** 3)
    got = nonretarded_shift(ATOM, Slab(n=1e9, L=0.01), Z).value
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n, L, Z", [(1e160, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                     (math.inf, 5e-324, 1e30)])
def test_k_integral_past_the_overflow_of_n_squared_is_a_mirror(n, L, Z):
    # beta was inf/inf = nan and the integral a ConvergenceError with a nan
    # estimate; at n = inf, where 1 - beta^2 is 0, a 2kL that underflows
    # must not make the integrand 0/0
    expected = -(2.0 * 1.0 + 2.0) / (64.0 * math.pi * Z ** 3)
    got = nonretarded_k_integral(ATOM, Slab(n=n, L=L), Z).value
    assert got == pytest.approx(expected, rel=1e-12)


def _mpmath_k_integral(n, L, Z):
    # the k integral of nonretarded_shift in 40 digits, split at each
    # decade of k from 1e-8 / Z on, so the knee where 2kL meets 1 - beta^2
    # falls inside a resolved piece
    with mpmath.workdps(40):
        n2 = mpmath.mpf(n) ** 2
        beta = (n2 - 1) / (n2 + 1)
        L, Z = mpmath.mpf(L), mpmath.mpf(Z)

        def f(k):
            e = mpmath.exp(-2 * k * L)
            return k * k * mpmath.exp(-2 * Z * k) * (1 - e) / (1 - beta ** 2 * e)

        edges = [0] + [mpmath.mpf(10) ** j / Z for j in range(-8, 3)]
        dipole_sum = 2 * 1.0 + 2.0  # 2 mu_perp^2 + mu_par^2 of ATOM
        return float(-beta / (16 * mpmath.pi) * dipole_sum
                     * mpmath.quad(f, edges + [mpmath.inf]))


@pytest.mark.parametrize("n, ratio", [(1e4, 0.01), (1e9, 1e-20),
                                      (1e9, 1e-16), (1e12, 1e-22)])
def test_k_integral_keeps_the_thickness_near_a_mirror(n, ratio):
    # past n of about 1e8.5, 1 - beta^2 formed as a difference rounds to 0
    # and the thickness dropped out: at n = 1e9 the shift was 134x too
    # large for L/Z = 1e-20 and 2% off for 1e-16
    Z = 1.0
    got = nonretarded_k_integral(ATOM, Slab(n=n, L=ratio * Z), Z).value
    assert got == pytest.approx(_mpmath_k_integral(n, ratio * Z, Z),
                                rel=1e-12, abs=0.0)


def test_nonretarded_k_integral_route_is_logged_silently(caplog, capfd):
    # near a mirror the default route takes the k integral: it prints
    # nothing on either stream and leaves no log record, even at DEBUG
    with caplog.at_level(logging.DEBUG, logger="slabshift"):
        got = nonretarded_shift(ATOM, Slab(n=1e4, L=0.01), 1.0)
    assert capfd.readouterr() == ("", "")
    assert caplog.records == []
    assert got == nonretarded_k_integral(ATOM, Slab(n=1e4, L=0.01), 1.0)


@pytest.mark.parametrize("route", NONRETARDED_ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("Z", [1e-200, 1e-308, 1e308])
def test_nonretarded_rejects_z_outside_the_doubles(Z, route):
    # the shift goes as 1/Z^3; without the guard the k integral raised
    # ConvergenceError or the quadrature's own message, naming no Z
    with pytest.raises(ValueError,
                       match=r"distance Z = .* is out of range: Z\*\*3 "):
        route(ATOM, Slab(n=2.0, L=1.0), Z)


@pytest.mark.parametrize("route", NONRETARDED_ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("atom, n, Z", [
    (AtomSpec([Transition(1.0, 2.0, 1.0)]), 2.0, 1.0),
    (AtomSpec([Transition(2.4338e94, 0.000257017, 2.20255e-52)]), 1.0000001,
     4.08874e-16),
])
def test_nonretarded_thickness_near_the_largest_double(atom, n, Z, route):
    # 2kL overflows in the k integrand: silently, since expm1(-inf) = -1
    # gives the half-space factor (a RuntimeWarning is an error here)
    thick = route(atom, Slab(n, 1.7e308), Z).value
    half = route(atom, Slab(n, math.inf), Z).value
    assert abs(thick - half) <= math.ulp(half)


def test_nonretarded_thin_transparent_and_linear():
    assert nonretarded_thin_shift(ATOM, Slab(n=1.0, L=1.0), 1.0).value == 0.0
    full = nonretarded_thin_shift(ATOM, Slab(n=2.0, L=0.02), 1.0).value
    half = nonretarded_thin_shift(ATOM, Slab(n=2.0, L=0.01), 1.0).value
    assert half == pytest.approx(full / 2.0, rel=1e-14)


def test_nonretarded_thin_converges_linearly():
    # the thin form deviates from the exact integral by
    # 2 (1+beta^2)/(1-beta^2) * (L/Z) + O((L/Z)^2); check the linear law
    n, Z = 2.0, 1.0
    beta = (n * n - 1.0) / (n * n + 1.0)
    coeff = 2.0 * (1.0 + beta * beta) / (1.0 - beta * beta)
    devs = []
    for ratio in (1e-2, 1e-3):
        exact = nonretarded_shift(ATOM, Slab(n=n, L=ratio * Z), Z).value
        thin = nonretarded_thin_shift(ATOM, Slab(n=n, L=ratio * Z), Z).value
        devs.append(abs(thin - exact) / abs(exact))
        assert devs[-1] == pytest.approx(coeff * ratio, rel=0.15)
    assert devs[1] == pytest.approx(devs[0] / 10.0, rel=0.15)


@pytest.mark.parametrize("n", [1.5, 2.0, 4.0])
def test_nonretarded_thin_slab_first_order_law(n):
    # (thin/exact - 1)/(L/Z) -> 2 (1+beta^2)/(1-beta^2) as L/Z -> 0, the
    # coefficient derived from the image series, not fitted
    Z = 1.0
    beta = (n * n - 1.0) / (n * n + 1.0)
    law = 2.0 * (1.0 + beta * beta) / (1.0 - beta * beta)
    gaps = []
    for ratio in (1e-2, 1e-3, 1e-4):
        slab = Slab(n=n, L=ratio * Z)
        exact = nonretarded_shift(ATOM, slab, Z).value
        thin = nonretarded_thin_shift(ATOM, slab, Z).value
        gaps.append(abs((thin / exact - 1.0) / ratio / law - 1.0))
    assert gaps[2] < 1e-3
    assert gaps[0] > gaps[1] > gaps[2]


def test_full_integral_approaches_retarded_thin():
    # relative deviation falls ~ 1/zeta at fixed lam = 0.5, n = 2
    slab = Slab(n=2.0, L=0.5)
    devs = []
    for Z in (25.0, 50.0, 100.0):
        full = energy_shift(ATOM, slab, Z).value
        thin = retarded_thin_shift(ATOM, slab, Z).value
        devs.append(abs(full - thin) / abs(thin))
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] / devs[0] == pytest.approx(0.5, abs=0.1)
    assert devs[2] / devs[1] == pytest.approx(0.5, abs=0.1)


def test_full_integral_approaches_nonretarded():
    slab = Slab(n=2.0, L=1.0)
    Z = 0.005
    full = energy_shift(ATOM, slab, Z).value
    nr = nonretarded_shift(ATOM, slab, Z).value
    assert abs(full - nr) / abs(nr) < 0.01


@pytest.mark.parametrize("L, Z", [(1e-14, 1e3), (1e-13, 1.0), (1e-10, 1.0),
                                  (1.0, 1e61)])
def test_nonretarded_thin_limit_without_cancellation(L, Z):
    # the thin form is exact to first order in L/Z, and both routes keep
    # it where 1/a^3 - 1/b^3 and 1 - exp(-2kL) would cancel to nothing
    slab = Slab(n=2.0, L=L)
    thin = nonretarded_thin_shift(ATOM, slab, Z).value
    for route in NONRETARDED_ROUTES:
        got = route(ATOM, slab, Z).value
        assert abs(got / thin - 1.0) <= 5.0 * L / Z + 1e-13, route.__name__


@pytest.mark.parametrize("Z", [1.6e76, 2e76, 3e76])
def test_nonretarded_thin_divides_by_z4_last(Z):
    # 256 pi n^2 Z^4 overflows here although Z^4 does not
    got = nonretarded_thin_shift(ATOM, Slab(n=2.0, L=1.0), Z).value
    with mpmath.workdps(30):
        n2, z = mpmath.mpf(4), mpmath.mpf(Z)
        want = (-3 * (n2 * n2 - 1) / (256 * mpmath.pi * n2 * z ** 4)
                * (2 * 1 + 2))
    assert got != 0.0
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_phi_h_on_axis_thin_slab():
    # rho = 0, z = z' = 1: every bracket is 2L/a0^2 to first order in L
    n, L = 2.0, 1e-14
    beta = (n * n - 1.0) / (n * n + 1.0)
    a0 = 2.0 - L
    want = -beta / (4.0 * math.pi) * 2.0 * L / (a0 * a0 * (1.0 - beta * beta))
    assert phi_H(0.0, 1.0, 1.0, Slab(n=n, L=L)) == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_asympt_far_distance_prints_no_zero(capsys):
    # 160 pi^2 n^2 Z^5 overflows at Z = 1e61 although Z^5 does not
    code = main(["asympt", "--n", "2", "--thickness", "1", "--distance",
                 "1e61", "--e-ji", "1", "--mu-par-sq", "2",
                 "--mu-perp-sq", "1"])
    assert code == 0
    values = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, rest = line.partition(": ")
        if not label.startswith(("transition", "non-retarded route")):
            values[label] = float(rest.split()[0])
    assert all(v != 0.0 for v in values.values())
    assert values["retarded thin slab"] == pytest.approx(
        values["thin-plate polarizability form"], rel=1e-12, abs=0.0)
