import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helpers import brute_force_s
from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, energy_shift, halfspace_S, s_parallel,
                       s_perp, w_pair)
import slabshift.quadrature
import slabshift.shift
from slabshift.shift import W_SCALE, s_parallel_detailed, s_perp_detailed

# frozen via the brute-force tensor-product oracle at 10x the adaptive
# panel counts (agreement was at machine precision)
S_PAR_112 = 0.030522189679570592
S_PERP_112 = 0.04516275059509128

P112 = ReducedParams(zeta=1.0, lam=1.0, n=2.0)


def test_transparent_slab_is_exact_zero():
    p = ReducedParams(zeta=1.0, lam=1.0, n=1.0)
    assert s_parallel(p) == (0.0, 0.0)
    assert s_perp(p) == (0.0, 0.0)


def test_zero_thickness_is_exact_zero():
    p = ReducedParams(zeta=1.0, lam=0.0, n=2.0)
    assert s_parallel(p) == (0.0, 0.0)
    assert s_perp(p) == (0.0, 0.0)


def test_s_values_against_frozen_oracle():
    val_par, err_par = s_parallel(P112)
    val_perp, err_perp = s_perp(P112)
    assert val_par == pytest.approx(S_PAR_112, rel=1e-7)
    assert val_perp == pytest.approx(S_PERP_112, rel=1e-7)
    assert abs(val_par - S_PAR_112) <= err_par + 1e-15
    assert abs(val_perp - S_PERP_112) <= err_perp + 1e-15


def test_s_against_live_brute_force():
    d = s_parallel_detailed(P112)
    s_max = 37.0 * math.log(10.0) / 2.0
    # at least 4 x 7 t panels, whatever the adaptive rule uses, so the
    # oracle cannot coarsen with it
    brute = brute_force_s("par", 1.0, 1.0, 2.0, s_max,
                          4 * d.outer_panels, 4 * max(d.inner_panels_max, 7))
    assert d.value == pytest.approx(brute, rel=1e-9)


def test_inner_quadrature_is_batched(monkeypatch):
    # machine-independent guard: the cubature evaluates the cells of a
    # round (up to 48 per call) in one integrand call, with one rtilde call
    # for both polarizations: 24 seed cells and one refinement round, 28
    # cells of 225 nodes evaluated, two coefficients per node
    counts = {"calls": 0, "nodes": 0}
    rtilde = slabshift.shift.rtilde

    def counting(*args):
        out = rtilde(*args)
        counts["calls"] += 1
        counts["nodes"] += np.size(out)
        return out

    monkeypatch.setattr(slabshift.shift, "rtilde", counting)
    slabshift.shift._s_pair.cache_clear()
    w_pair(P112)
    assert counts["nodes"] == 12_600
    assert counts["calls"] == 2


@pytest.mark.parametrize("zeta", [1e-76, 1e-18, 1e-7, 1e-3, 1.0, 1e5])
def test_t_zero_cells_resolve_the_peak(zeta, monkeypatch):
    # the peak of 1 / (1 + s^2 t^2) at t = 0, of width 1 / s, is flattened
    # by v = asinh(s t) / asinh(s): the seeds are the 24 geometric u strips,
    # each all of [0, 1] in v, tiling [0, U] x [0, 1]; W meets its bound
    # and the cells evaluated stay few where the peak is narrowest
    u_max = 37.0 * math.log(10.0)
    seeds, evaluated = [], [0]
    cubature = slabshift.shift.adaptive_quad
    rtilde = slabshift.shift.rtilde

    def recording(f, lo, hi, *rest):
        seeds.append((lo, hi))
        return cubature(f, lo, hi, *rest)

    def counting(pol, s, t, *rest):
        out = rtilde(pol, s, t, *rest)
        evaluated[0] += out[0].size // 225
        return out

    monkeypatch.setattr(slabshift.shift, "adaptive_quad", recording)
    monkeypatch.setattr(slabshift.shift, "rtilde", counting)
    slabshift.shift._s_pair.cache_clear()
    p = ReducedParams(zeta, 1.0, 2.0)
    got = w_pair(p)
    (lo, hi), = seeds
    edges = slabshift.quadrature.geometric_edges(u_max)
    assert np.array_equal(lo, np.stack((edges[:-1], np.zeros(24)), axis=1))
    assert np.array_equal(hi, np.stack((edges[1:], np.ones(24)), axis=1))
    area = math.fsum(np.prod(hi - lo, axis=1))
    assert area == pytest.approx(u_max, rel=1e-14)
    assert evaluated[0] <= (230 if zeta < 1e-7 else 110)
    monkeypatch.undo()
    ref = w_pair(p, QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300))
    assert abs(got.w_par - ref.w_par) <= got.err_par
    assert abs(got.w_z - ref.w_z) <= got.err_z


def test_err_est_respects_tolerance_contract():
    q = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
    for fn in (s_parallel, s_perp):
        val, err = fn(P112, q)
        assert err <= max(q.rel_tol * abs(val), q.abs_tol)


# (zeta, lam, n) from the small-zeta rows that stop at their seed panel
# only when negligible, to the large-zeta end where every row converges in
# one panel
HONESTY_POINTS = [(1e-7, 1.0, 2.0), (1e-5, 0.01, 1.5), (1e-3, math.inf, 3.0),
                  (0.1, 0.01, 1e4), (0.3, 3.0, 1.5), (1.0, 1.0, 2.0),
                  (1.0, 0.01, 1e4), (8.0, 10.0, 1.5), (1e3, 1.0, 2.0),
                  (1e5, math.inf, 1e4)]


@pytest.mark.parametrize("zeta, lam, n", HONESTY_POINTS)
def test_err_est_bounds_the_true_error(zeta, lam, n):
    p = ReducedParams(zeta, lam, n)
    ref = w_pair(p, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300))
    got = w_pair(p)
    assert abs(got.w_par - ref.w_par) <= got.err_est
    assert abs(got.w_z - ref.w_z) <= got.err_est
    q = QuadratureSpec()
    for d in (s_parallel_detailed(p), s_perp_detailed(p)):
        assert d.err_est <= max(q.rel_tol * abs(d.value), q.abs_tol)


@pytest.mark.parametrize("lam", [1.0, math.inf])
@pytest.mark.parametrize("zeta, n", [(1e-18, 2.0), (1e-16, 1.01),
                                     (1e-13, 1.0 + 1e-6)])
def test_err_est_bounds_the_error_at_the_non_retarded_limit(zeta, n, lam):
    # where zeta (n^2 - 1) is tiny, inner rows at s ~ 1/zeta hold a peak
    # of width 1/s that their seed panel misses; W/zeta must still meet the
    # non-retarded half-space slope (pi/4, pi/2) beta within err_est
    beta = (n - 1.0) * (n + 1.0) / (n * n + 1.0)
    wp = w_pair(ReducedParams(zeta, lam, n))
    assert abs(wp.w_par - zeta * 0.25 * math.pi * beta) <= wp.err_est
    assert abs(wp.w_z - zeta * 0.5 * math.pi * beta) <= wp.err_est


def test_positivity():
    rng = np.random.default_rng(2)
    q = QuadratureSpec(rel_tol=1e-6)
    for _ in range(5):
        p = ReducedParams(zeta=rng.uniform(0.3, 5.0),
                          lam=rng.uniform(0.05, 10.0),
                          n=rng.uniform(1.05, 4.0))
        assert s_parallel(p, q)[0] > 0.0
        assert s_perp(p, q)[0] > 0.0


def test_monotone_in_lam_and_below_halfspace():
    q = QuadratureSpec(rel_tol=1e-9)
    vals = [s_perp(ReducedParams(1.0, lam, 2.0), q)[0]
            for lam in (0.2, 1.0, 5.0, 25.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    hs = halfspace_S(1.0, 2.0, q)[1]
    assert vals[-1] < hs


def test_monotone_in_n():
    q = QuadratureSpec(rel_tol=1e-9)
    vals = [s_perp(ReducedParams(1.0, 1.0, n), q)[0]
            for n in (1.2, 1.6, 2.5, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_w_pair_scaling_and_values():
    wp = w_pair(P112)
    par, _ = s_parallel(P112)
    perp, _ = s_perp(P112)
    assert wp.w_par == pytest.approx(W_SCALE * par, rel=1e-14)
    assert wp.w_z == pytest.approx(W_SCALE * perp, rel=1e-14)
    assert wp.err_est >= 0.0


def test_w_pair_below_halfspace_at_zeta8():
    q = QuadratureSpec(rel_tol=1e-8)
    wp = w_pair(ReducedParams(8.0, 1.0, 2.0), q)
    hs_par, hs_perp = halfspace_S(8.0, 2.0, q)
    scale = W_SCALE * 8.0 ** 4
    assert 0.0 < wp.w_par < scale * hs_par
    assert 0.0 < wp.w_z < scale * hs_perp
    assert 0.0 < wp.w_par < 1.0 and 0.0 < wp.w_z < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta, lam, n", [
    (1e200, 1.0, 2.0), (1e-200, 1.0, 2.0), (1e200, 0.0, 2.0),
    (1e-200, 1.0, 1.0), (1.0, 1.0, 1e78), (1.0, math.inf, 1e78),
    (6.9e76, 1.0, 2.0), (1e77, math.inf, 2.0),
])
def test_w_pair_rejects_powers_outside_the_doubles(zeta, lam, n):
    # zeta^4 and 8 zeta^4 (the W scale of the S views) and s_max^3 (the
    # outer weight) for zeta, n^4 (the TM coefficient) for n
    with pytest.raises(ValueError, match="out of range"):
        w_pair(ReducedParams(zeta, lam, n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta, n", [(1e76, 2.0), (1.0, 1e77)])
def test_w_pair_is_finite_below_the_upper_ends(zeta, n):
    wp = w_pair(ReducedParams(zeta, 1.0, n))
    assert all(math.isfinite(v) and v >= 0.0
               for v in (wp.w_par, wp.w_z, wp.err_est))


@pytest.mark.parametrize("zeta", [1e60, 1e70, 1e76])
def test_w_follows_the_retarded_thin_slab_law_at_large_zeta(zeta):
    # W zeta / lam tends to (n^2-1)(5+9n^2)/(10n^2) and (n^2-1)(4+5n^2)/(5n^2);
    # the S views W / (8 zeta^4) are subnormal past zeta = 1e61 and 0.0
    # from 1e66; W must not underflow
    n, lam = 2.0, 1.0
    wp = w_pair(ReducedParams(zeta, lam, n))
    n2 = n * n
    assert wp.w_par * zeta / lam == pytest.approx(
        (n2 - 1.0) * (5.0 + 9.0 * n2) / (10.0 * n2), rel=1e-9, abs=0.0)
    assert wp.w_z * zeta / lam == pytest.approx(
        (n2 - 1.0) * (4.0 + 5.0 * n2) / (5.0 * n2), rel=1e-9, abs=0.0)
    assert 0.0 < wp.err_est <= 1e-8 * wp.w_z


def test_energy_shift_transparent():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    s = energy_shift(atom, Slab(n=1.0, L=1.0), 1.0)
    assert s.value == 0.0


def test_energy_shift_matches_direct_s_form():
    # assembled W form must equal -(1/2 pi^2) sum_j E^3 (S_par mu_par
    # + S_perp mu_perp)
    atom = AtomSpec([Transition(E_ji=2.0, mu_par_sq=0.7, mu_perp_sq=1.3)])
    slab = Slab(n=2.0, L=0.5)
    Z = 0.5
    shift = energy_shift(atom, slab, Z)
    p = ReducedParams(zeta=1.0, lam=1.0, n=2.0)
    direct = -(1.0 / (2.0 * math.pi ** 2)) * 2.0 ** 3 * (
        s_parallel(p)[0] * 0.7 + s_perp(p)[0] * 1.3)
    assert shift.value == pytest.approx(direct, rel=1e-12)


def test_energy_shift_two_identical_transitions_double():
    tr = Transition(1.0, 1.0, 0.5)
    slab = Slab(n=2.0, L=1.0)
    q = QuadratureSpec(rel_tol=1e-7)
    one = energy_shift(AtomSpec([tr]), slab, 1.0, q)
    two = energy_shift(AtomSpec([tr, tr]), slab, 1.0, q)
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)


def test_energy_shift_monotone_toward_zero_in_distance():
    atom = AtomSpec([Transition(1.0, 2.0, 1.0)])
    slab = Slab(n=2.0, L=1.0)
    q = QuadratureSpec(rel_tol=1e-7)
    zs = np.geomspace(0.3, 30.0, 20)
    vals = [energy_shift(atom, slab, z, q).value for z in zs]
    assert all(v < 0.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_energy_shift_scale_invariance():
    # (L, Z, 1/E) -> (cL, cZ, c/E) leaves (zeta, lam) fixed and scales the
    # shift by c^-3
    c = 2.0
    base = energy_shift(AtomSpec([Transition(1.0, 2.0, 1.0)]),
                        Slab(n=2.0, L=1.0), 1.0)
    scaled = energy_shift(AtomSpec([Transition(1.0 / c, 2.0, 1.0)]),
                          Slab(n=2.0, L=c * 1.0), c * 1.0)
    assert scaled.value == pytest.approx(base.value / c ** 3, rel=1e-10)


def test_energy_shift_large_lam_matches_halfspace():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    q = QuadratureSpec(rel_tol=1e-10)
    full = energy_shift(atom, Slab(n=2.0, L=200.0), 1.0, q)
    hs_par, hs_perp = halfspace_S(1.0, 2.0, q)
    hs_val = -(1.0 / (2.0 * math.pi ** 2)) * (hs_par + hs_perp)
    assert full.value == pytest.approx(hs_val, rel=1e-6)


def _j(b):
    """Int_0^inf x^3 e^{-bx} / (1 + x^2) dx = 1/b^2 - g(b), with g the
    auxiliary function of A&S 5.2.13; past b = 200, where 1/b^2 and g
    cancel, its asymptotic series 6/b^4 - 120/b^6 + ..., stopped before
    the terms grow."""
    if b > 200:
        total, term, k = mpmath.mpf(0), 6 / b ** 4, 0
        while abs(term) >= mpmath.eps * abs(total):
            total += term
            following = -term * (2 * k + 4) * (2 * k + 5) / b ** 2
            if abs(following) >= abs(term):
                break
            term, k = following, k + 1
        return total
    g = (-mpmath.ci(b) * mpmath.cos(b)
         - (mpmath.si(b) - mpmath.pi / 2) * mpmath.sin(b))
    return 1 / b ** 2 - g


def _halfspace_w(zeta, n):
    """(W_par, W_z) of a half-space as 1D t integrals, in 30 digits.

    At lam = inf the reflection coefficients depend on t alone, the
    Fresnel forms (1 - g)/(1 + g) and (n^2 - g)/(n^2 + g), so the s
    integral is closed: Int_0^inf s^3 e^{-2 zeta s} / (1 + s^2 t^2) ds
    = t^-4 J(2 zeta / t).
    """
    with mpmath.workdps(30):
        zeta, n2 = mpmath.mpf(zeta), mpmath.mpf(n) ** 2

        def s_integral(t):
            return _j(2 * zeta / t) / t ** 4

        def fresnel(t):
            g = mpmath.sqrt(1 + (n2 - 1) * t * t)
            return (1 - g) / (1 + g), (n2 - g) / (n2 + g)

        def par(t):
            te, tm = fresnel(t)
            return (tm - t * t * te) * s_integral(t)

        def perp(t):
            return (1 - t * t) * fresnel(t)[1] * s_integral(t)

        # the integrand turns from 6/(2 zeta)^4 to 1/(2 zeta t)^2 near
        # t = 2 zeta
        points = ([mpmath.mpf(0)]
                  + [2 * zeta * mpmath.mpf(2) ** k for k in range(-6, 8)
                     if 2 * zeta * 2 ** k < 1] + [mpmath.mpf(1)])
        return (float(2 * zeta ** 4 * mpmath.quad(par, points)),
                float(4 * zeta ** 4 * mpmath.quad(perp, points)))


@pytest.mark.parametrize("zeta", [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3])
def test_halfspace_w_within_err_est_of_a_1d_oracle(zeta):
    # W = 8 zeta^4 S, with S_par = 1/4 and S_perp = 1/2 of their t integrals
    ref_par, ref_z = _halfspace_w(zeta, 2.0)
    for rel_tol in (1e-6, 1e-10):
        w = w_pair(ReducedParams(zeta, math.inf, 2.0),
                   QuadratureSpec(rel_tol=rel_tol))
        assert abs(w.w_par - ref_par) <= w.err_par, rel_tol
        assert abs(w.w_z - ref_z) <= w.err_z, rel_tol


# (zeta, lam, n, W_par, W_z) in 30 digits from the reflection series of
# tests/make_w_table.py, which shares no code with the cubature
W_TABLE = [tuple(map(float, line.split(","))) for line in
           Path(__file__).with_name("w_table.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("zeta, lam, n, ref_par, ref_z", W_TABLE,
                         ids=[f"{z!r}-{l!r}-{n!r}" for z, l, n, *_ in W_TABLE])
def test_w_within_err_est_of_the_reflection_series_table(zeta, lam, n,
                                                         ref_par, ref_z):
    for rel_tol in (1e-6, 1e-8, 1e-10):
        w = w_pair(ReducedParams(zeta, lam, n),
                   QuadratureSpec(rel_tol=rel_tol))
        assert abs(w.w_par - ref_par) <= w.err_par, rel_tol
        assert abs(w.w_z - ref_z) <= w.err_z, rel_tol
