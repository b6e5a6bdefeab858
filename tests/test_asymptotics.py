import logging
import math

import mpmath
import numpy as np
import pytest

from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, buhmann_U, classify_regime, energy_shift,
                       halfspace_S, nonretarded_shift, nonretarded_thin_shift,
                       retarded_thin_shift, static_polarizability, w_pair)

ATOM = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])


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
    assert halfspace_S(1.0, 1.0) == (0.0, 0.0)


def test_halfspace_agrees_with_thick_slab():
    q = QuadratureSpec(rel_tol=1e-10)
    from slabshift import s_parallel, s_perp
    hs_par, hs_perp = halfspace_S(1.0, 2.0, q)
    thick_par = s_parallel(ReducedParams(1.0, 200.0, 2.0), q)[0]
    thick_perp = s_perp(ReducedParams(1.0, 200.0, 2.0), q)[0]
    assert thick_par == pytest.approx(hs_par, rel=1e-6)
    assert thick_perp == pytest.approx(hs_perp, rel=1e-6)


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
    for method in ("series", "quadrature"):
        got = nonretarded_shift(ATOM, Slab(n=n, L=math.inf), Z, method=method)
        assert got.value == pytest.approx(expected, rel=1e-10)


def test_nonretarded_transparent():
    for method in ("series", "quadrature"):
        got = nonretarded_shift(ATOM, Slab(n=1.0, L=1.0), 1.0, method=method)
        assert got.value == 0.0


def test_nonretarded_series_equals_quadrature():
    s = nonretarded_shift(ATOM, Slab(n=2.0, L=1.0), 1.0, method="series")
    q = nonretarded_shift(ATOM, Slab(n=2.0, L=1.0), 1.0, method="quadrature")
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


def test_nonretarded_k_integral_route_is_logged_silently(caplog, capfd):
    # unconfigured, the DEBUG record reaches neither stream
    nonretarded_shift(ATOM, Slab(n=1e4, L=0.01), 1.0)
    assert capfd.readouterr() == ("", "")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="slabshift"):
        nonretarded_shift(ATOM, Slab(n=2.0, L=0.5), 1.0)
        assert caplog.records == []
        nonretarded_shift(ATOM, Slab(n=1e4, L=0.01), 1.0)
    first = caplog.records[0]
    assert first.levelno == logging.DEBUG and first.name.startswith("slabshift")
    text = first.getMessage()
    beta = (1e8 - 1.0) / (1e8 + 1.0)
    assert "k integral" in text and f"beta^2={beta * beta!r}" in text
    assert "max_terms=1000000" in text


def test_nonretarded_rejects_unknown_method():
    with pytest.raises(ValueError):
        nonretarded_shift(ATOM, Slab(n=2.0, L=1.0), 1.0, method="fft")


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
