"""W at the mirror end of the index, against a closed-form oracle.

As n -> inf at lam > 0, Rt_TE -> -1 and Rt_TM -> 1 whatever lam is, so W
tends to the perfect mirror's

    M_par(zeta) = 1/8 Int Int u^3 e^{-u} (1 + t^2) / (1 + s^2 t^2),
    M_z(zeta)   = 1/4 Int Int u^3 e^{-u} (1 - t^2) / (1 + s^2 t^2),

over u in (0, inf) and t in (0, 1), with s = u / 2 zeta.  The t integrals
are elementary: with a = atan(s)/s, Int (1 + t^2)/(1 + s^2 t^2) dt =
a + (1 - a)/s^2 and Int (1 - t^2)/(1 + s^2 t^2) dt = a - (1 - a)/s^2,
which leaves one u integral for mpmath.  M tends to (1, 1) as zeta -> inf
and to (pi zeta/4, pi zeta/2) as zeta -> 0.

The test asserts the rate at which W reaches M, and fits no coefficient.
Where the retarded correction leads, 1 - W/M falls as 1/n; at small zeta
the non-retarded image ratio beta = 1 - 2/(n^2 + 1) makes it fall as 1/n^2.
Around zeta = 1e-5 the two cross (per-decade falls of 51-68, then 15-21),
so no point sits there.
"""

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
