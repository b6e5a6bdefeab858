"""W at both ends of the index, against closed-form oracles.

As n -> inf at lam > 0, Rt_TE -> -1 and Rt_TM -> 1 whatever lam is, so W
tends to the perfect mirror's

    M_par(zeta) = 1/8 Int Int u^3 e^{-u} (1 + t^2) / (1 + s^2 t^2),
    M_z(zeta)   = 1/4 Int Int u^3 e^{-u} (1 - t^2) / (1 + s^2 t^2),

over u in (0, inf) and t in (0, 1), with s = u / 2 zeta.  The t integrals
are elementary: with a = atan(s)/s, Int (1 + t^2)/(1 + s^2 t^2) dt =
a + (1 - a)/s^2 and Int (1 - t^2)/(1 + s^2 t^2) dt = a - (1 - a)/s^2,
which leaves one u integral for mpmath.  M tends to (1, 1) as zeta -> inf
and to (pi zeta/4, pi zeta/2) as zeta -> 0.

As n -> 1, to first order in n^2 - 1,
Rt_TE ~ -(n^2 - 1) t^2 (1 - e^{-2 lam s})/4 and
Rt_TM ~ (n^2 - 1)(2 - t^2)(1 - e^{-2 lam s})/4, and since
e^{-2 zeta s}(1 - e^{-2 lam s}) = e^{-2 zeta s} - e^{-2 (zeta + lam) s} the
slab is the difference of two half-spaces (pairwise additivity):

    W1(zeta, lam) = H(zeta) - (zeta / (zeta + lam))^4 H(zeta + lam),
    H_par / (n^2 - 1) = 1/32 Int Int u^3 e^{-u} (2 - t^2 + t^4)/(1 + s^2 t^2),
    H_z / (n^2 - 1)   = 1/16 Int Int u^3 e^{-u} (2 - 3t^2 + t^4)/(1 + s^2 t^2).

H tends to (7/20, 9/20)(n^2 - 1) as zeta -> inf (isotropic 23/60, the
Casimir-Polder pairwise sum over a dilute half-space) and to
(pi zeta/8, pi zeta/4)(n^2 - 1) as zeta -> 0.

The tests assert the rate at which W reaches each oracle, and fit no
coefficient.  W/W1 - 1 is of first order in n^2 - 1, so it falls 10x per
decade of n - 1.  Where the retarded correction leads, 1 - W/M falls as
1/n; at small zeta the non-retarded image ratio beta = 1 - 2/(n^2 + 1) makes
it fall as 1/n^2.  Around zeta = 1e-5 the two cross (per-decade falls of
51-68, then 15-21), so no mirror point sits there.
"""
import functools
import math

import mpmath
import pytest

from slabshift import QuadratureSpec, ReducedParams, w_pair

INDICES = (1e3, 1e4, 1e5)
TIGHT = QuadratureSpec(rel_tol=1e-12)


def _mirror(zeta):
    """(M_par, M_z) in 25-digit mpmath."""
    with mpmath.workdps(25):
        two_zeta = 2 * mpmath.mpf(zeta)

        def t_integral(u, sign):
            s = u / two_zeta
            a = mpmath.atan(s) / s
            return u ** 3 * mpmath.exp(-u) * (a + sign * (1 - a) / s ** 2)

        edges = [0, 1, 10, 40, mpmath.inf]
        return (float(mpmath.quad(lambda u: t_integral(u, 1), edges) / 8),
                float(mpmath.quad(lambda u: t_integral(u, -1), edges) / 4))


def test_mirror_oracle_limits():
    assert _mirror(1.0) == pytest.approx((0.54601382, 0.68811159), abs=1e-8)
    assert _mirror(100.0) == pytest.approx((0.99980013, 0.99990004),
                                           abs=1e-8)
    assert _mirror(1e-7) == pytest.approx(
        (math.pi * 1e-7 / 4, math.pi * 1e-7 / 2), rel=1e-6)


# (zeta, lam, fall of 1 - W/M per decade of n); the smallest margin of
# |W - M| over W's err_est at each point, over n = 1e3, 1e4 and 1e5 and
# both components, is in the comment
@pytest.mark.parametrize("zeta, lam, fall", [
    (1.0, 1.0, 10.0),          # 7.9e6
    (1e-3, 1.0, 10.0),         # 1.7e5
    (0.1, 10.0, 10.0),         # 2.8e6
    (10.0, 1e3, 10.0),         # 1.6e7
    (1.0, math.inf, 10.0),     # 7.9e6
    (1e3, math.inf, 10.0),     # 1.6e7
    (1e3, 100.0, 10.0),        # 1.6e7
    (1e-7, 1.0, 100.0),        # 390, at n = 1e5
])
def test_w_reaches_the_perfect_mirror_as_n_grows(zeta, lam, fall):
    mirror = _mirror(zeta)
    gaps = []
    for n in INDICES:
        w = w_pair(ReducedParams(zeta=zeta, lam=lam, n=n), TIGHT)
        for value, err, m in zip((w.w_par, w.w_z), (w.err_par, w.err_z),
                                 mirror):
            # the gap is W's, not the cubature's
            assert abs(m - value) >= 100.0 * err, (n, value, err, m)
        gaps.append([1.0 - value / m
                     for value, m in zip((w.w_par, w.w_z), mirror)])
    for wider, narrower in zip(gaps, gaps[1:]):
        for a, b in zip(wider, narrower):
            assert 0.8 * fall <= a / b <= 1.2 * fall, (gaps, fall)


DILUTE_INDICES = (1.0 + 1e-2, 1.0 + 1e-3, 1.0 + 1e-4)


def _t_moments(s):
    """Int_0^1 t^(2k) / (1 + s^2 t^2) dt for k = 0, 1, 2; below s = 0.1 as
    the series in -s^2, where the closed forms cancel."""
    if s < 0.1:
        moments = []
        for k in range(3):
            total, term, m = mpmath.mpf(0), mpmath.mpf(1), 0
            while abs(term) >= mpmath.eps * abs(total):
                total += term / (2 * k + 2 * m + 1)
                term *= -s * s
                m += 1
            moments.append(total)
        return moments
    a = mpmath.atan(s) / s
    return [a, (1 - a) / s ** 2, 1 / (3 * s ** 2) - (1 - a) / s ** 4]


@functools.lru_cache(maxsize=None)
def _dilute(zeta):
    """(H_par, H_z) / (n^2 - 1) in 30-digit mpmath."""
    with mpmath.workdps(30):
        two_zeta = 2 * mpmath.mpf(zeta)

        def t_integral(u, c2):
            m0, m2, m4 = _t_moments(u / two_zeta)
            return u ** 3 * mpmath.exp(-u) * (2 * m0 + c2 * m2 + m4)

        edges = [0, 1, 10, 40, mpmath.inf]
        return (mpmath.quad(lambda u: t_integral(u, -1), edges) / 32,
                mpmath.quad(lambda u: t_integral(u, -3), edges) / 16)


def _first_order(zeta, lam, n):
    """(W1_par, W1_z) at index n."""
    with mpmath.workdps(30):
        contrast = (mpmath.mpf(n) - 1) * (mpmath.mpf(n) + 1)
        if math.isinf(lam):
            return tuple(float(contrast * h) for h in _dilute(zeta))
        far = (mpmath.mpf(zeta) / (mpmath.mpf(zeta) + lam)) ** 4
        return tuple(float(contrast * (h - far * g))
                     for h, g in zip(_dilute(zeta), _dilute(zeta + lam)))


def test_dilute_oracle_limits():
    assert [float(h) for h in _dilute(1e3)] == pytest.approx(
        (0.3499994, 0.4499996), abs=1e-7)
    assert [float(h) / 1e-5 for h in _dilute(1e-5)] == pytest.approx(
        (0.3926957, 0.7853865), abs=1e-7)
    assert [float(h) / 1e-7 for h in _dilute(1e-7)] == pytest.approx(
        (math.pi / 8, math.pi / 4), rel=1e-6)


# (zeta, lam); the smallest margin of |W - W1| over W's err_est at each
# point, over n - 1 = 1e-2, 1e-3 and 1e-4 and both components, is in the
# comment.  The per-decade falls read 9.87-10.0.
@pytest.mark.parametrize("zeta, lam", [
    (1e-7, 1.0),               # 1.7e4
    (1e-3, 0.1),               # 1.4e4
    (0.1, 1.0),                # 4.9e4
    (1.0, 1.0),                # 5.4e4
    (1.0, 0.01),               # 3.3e4
    (10.0, 3.0),               # 1.1e5
    (1e3, 10.0),               # 9.2e4
    (1.0, math.inf),           # 6.2e4
    (1e-7, 1e-3),              # 1.7e4
    (0.1, 1e-3),               # 1.5e4
    (1e-3, math.inf),          # 1.4e4
    (1e3, math.inf),           # 2.0e5
])
def test_w_reaches_pairwise_additivity_as_n_nears_one(zeta, lam):
    gaps = []
    for n in DILUTE_INDICES:
        w = w_pair(ReducedParams(zeta=zeta, lam=lam, n=n))
        first_order = _first_order(zeta, lam, n)
        for value, err, w1 in zip((w.w_par, w.w_z), (w.err_par, w.err_z),
                                  first_order):
            # the gap is W's, not the cubature's
            assert abs(value - w1) >= 100.0 * err, (n, value, err, w1)
        gaps.append([abs(value / w1 - 1.0) for value, w1 in
                     zip((w.w_par, w.w_z), first_order)])
    for wider, narrower in zip(gaps, gaps[1:]):
        for a, b in zip(wider, narrower):
            assert 8.0 <= a / b <= 12.0, gaps
