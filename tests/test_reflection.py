import math

import mpmath
import numpy as np
import pytest

from helpers import rt_te, rt_tm, transfer_matrix_slab
from slabshift import (Polarization, PoleError, Slab, fresnel_r, rtilde, slab_R,
                       slab_T, slab_denominator, snell_kz, snell_kzd)
from slabshift.modes import find_trapped_modes, travelling_mode

TE, TM = Polarization.TE, Polarization.TM


def test_snell_vacuum():
    assert snell_kzd(0.7, 1.3, 1.0) == pytest.approx(1.3, rel=1e-15)


def test_snell_normal_incidence():
    assert snell_kzd(0.0, 1.3, 2.0) == pytest.approx(2.6, rel=1e-15)


def test_snell_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k_par, k_z = rng.uniform(0.01, 10.0, size=2)
        n = rng.uniform(1.0, 5.0)
        back = snell_kz(k_par, snell_kzd(k_par, k_z, n), n)
        assert back == pytest.approx(k_z, rel=1e-12)


def test_snell_principal_branch():
    # evanescent input: result must sit in the right half-plane
    val = complex(snell_kz(2.0, 0.5, 1.5))
    assert val.real >= 0.0


def test_fresnel_no_interface():
    assert fresnel_r(TE, 1.3, 0.7, 1.0) == 0.0
    assert fresnel_r(TM, 1.3, 0.7, 1.0) == 0.0


def test_fresnel_normal_incidence():
    # k_par = 0 so k_zd = n k_z
    k_z, n = 0.9, 2.0
    assert fresnel_r(TE, k_z, 0.0, n) == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert fresnel_r(TM, k_z, 0.0, n) == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("pol, want", [(TE, -0.2), (TM, 0.2)])
def test_fresnel_keeps_r_where_its_denominator_squared_overflows(pol, want):
    # |k_z + k_zd| = 1.5e154: its square leaves the doubles, and squaring it
    # raised OverflowError, although r = -/+(n - 1)/(n + 1) at normal
    # incidence
    assert fresnel_r(pol, 6e153, 0.0, 1.5) == pytest.approx(want, rel=1e-15)
    assert math.isfinite(abs(slab_R(pol, 6e153, 0.0, 1e-160, 1.5)))


def test_slab_no_slab_limits():
    assert slab_R(TE, 1.0, 0.5, 0.0, 2.0) == 0.0
    assert slab_T(TE, 1.0, 0.5, 0.0, 2.0) == 1.0
    assert slab_R(TM, 1.0, 0.5, 1.0, 1.0) == 0.0
    assert slab_T(TM, 1.0, 0.5, 1.0, 1.0) == 1.0


def test_slab_energy_conservation_and_transfer_matrix():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k_z, k_par = rng.uniform(0.05, 4.0, size=2)
        L = rng.uniform(0.1, 4.0)
        n = rng.uniform(1.05, 4.0)
        for pol in (TE, TM):
            R = complex(slab_R(pol, k_z, k_par, L, n))
            T = complex(slab_T(pol, k_z, k_par, L, n))
            assert abs(R) ** 2 + abs(T) ** 2 == pytest.approx(1.0, abs=1e-12)
            r_tmm, t_tmm = transfer_matrix_slab(pol.value, k_z, k_par, L, n)
            assert R * np.exp(1j * k_z * L) == pytest.approx(r_tmm, abs=1e-12)
            assert abs(T) == pytest.approx(abs(t_tmm), abs=1e-12)


def test_slab_pole_raises():
    slab = Slab(n=2.0, L=1.0)
    mode = find_trapped_modes(TE, "S", 4.0, slab)[0]
    with pytest.raises(PoleError) as err:
        slab_R(TE, 1j * mode.kappa, mode.k_par, slab.L, slab.n)
    assert err.value.k_par == 4.0


def test_no_poles_on_real_axis():
    # multiple-reflection denominator stays bounded away from zero for
    # propagating (real k_z) waves; poles live on the imaginary axis only
    rng = np.random.default_rng(13)
    for _ in range(200):
        k_z, k_par = rng.uniform(0.01, 6.0, size=2)
        L, n = rng.uniform(0.1, 4.0), rng.uniform(1.05, 4.0)
        for pol in (TE, TM):
            assert abs(slab_denominator(pol, k_z, k_par, L, n)) > 1e-6


def test_rtilde_transparent():
    s = np.linspace(0.0, 5.0, 7)
    t = np.linspace(0.0, 1.0, 7)
    assert all(r == 0.0 for r in rtilde(TE, s, t, 2.0, 1.0))
    assert all(r == 0.0 for r in rtilde(TM, s, t, 2.0, 1.0))


def test_rtilde_zero_thickness_and_zero_s():
    assert rtilde(TM, 1.0, 0.5, 0.0, 2.0) == 0.0
    assert rtilde(TM, 0.0, 0.5, 1.0, 2.0) == 0.0
    assert rtilde(TE, 0.0, 0.5, 1.0, 2.0) == 0.0


def test_rtilde_te_vanishes_at_normal_incidence():
    assert rtilde(TE, 1.7, 0.0, 3.0, 2.0) == 0.0


def test_rtilde_halfspace_tm_normal():
    # coth -> 1, t = 0, n = 2: (n^4-1)/(n^4+1+2n^2) = (n^2-1)/(n^2+1) = 3/5
    assert rtilde(TM, 1.0, 0.0, math.inf, 2.0) == pytest.approx(0.6, rel=1e-14)


def test_rtilde_bounds():
    rng = np.random.default_rng(5)
    s = rng.uniform(1e-6, 50.0, size=200)
    t = rng.uniform(0.0, 1.0, size=200)
    for lam in (0.01, 1.0, 100.0, math.inf):
        for n in (1.2, 2.0, 8.0):
            r_tm = np.asarray(rtilde(TM, s, t, lam, n))
            r_te = np.asarray(rtilde(TE, s, t, lam, n))
            assert np.all((r_tm >= 0.0) & (r_tm < 1.0))
            assert np.all((r_te <= 0.0) & (r_te > -1.0))


@pytest.mark.parametrize("n", [1e78, math.inf])
def test_rtilde_rejects_n_whose_fourth_power_is_not_a_double(n):
    for pol in (TE, TM):
        with pytest.raises(ValueError,
                           match="n\\*\\*4 must be a finite normal double"):
            rtilde(pol, 1.0, 0.5, 1.0, n)


def test_rtilde_monotone_in_lam():
    s = np.linspace(0.05, 5.0, 40)
    t = np.full_like(s, 0.4)
    lams = [0.1, 0.5, 2.0, 10.0, math.inf]
    prev_tm = prev_te = None
    for lam in lams:
        cur_tm = np.asarray(rtilde(TM, s, t, lam, 2.0))
        cur_te = np.abs(rtilde(TE, s, t, lam, 2.0))
        if prev_tm is not None:
            assert np.all(cur_tm >= prev_tm - 1e-15)
            assert np.all(cur_te >= prev_te - 1e-15)
        prev_tm, prev_te = cur_tm, cur_te


def test_rtilde_branch_continuity():
    # values on both sides of the Laurent/large-argument switch points agree
    for lam_arg_target, lam in ((1e-4, 1.0), (20.0, 10.0)):
        s0 = lam_arg_target / lam  # t = 0 gives g = 1 only for TE num 0; use TM
        lo = rtilde(TM, s0 * (1.0 - 1e-9), 0.0, lam, 2.0)
        hi = rtilde(TM, s0 * (1.0 + 1e-9), 0.0, lam, 2.0)
        assert lo == pytest.approx(hi, rel=1e-7)


# Lam = lam*s*g from deep in the thin-slab limit to far past the point where
# coth rounds to 1, at t values that put g near 1 and near n
RTILDE_LAMS = np.logspace(-12.0, 3.0, 16)
RTILDE_TS = (0.0, 1e-3, 0.3, 0.77, 1.0)


def _rtilde_at_lam(pol, big_lam, t, n):
    # lam = 1, with s chosen so that Lam = big_lam
    s = big_lam / math.sqrt(1.0 + (n - 1.0) * (n + 1.0) * t * t)
    return s, rtilde(pol, s, t, 1.0, n)


@pytest.mark.parametrize("n", [1.0001, 1.5, 2.0, 10.0, 1e2, 1e4])
def test_rtilde_matches_longhand_coth_form(n):
    for big_lam in RTILDE_LAMS:
        for t in RTILDE_TS:
            for pol, longhand in ((TE, rt_te), (TM, rt_tm)):
                s, got = _rtilde_at_lam(pol, big_lam, t, n)
                assert got == pytest.approx(float(longhand(s, t, 1.0, n)),
                                            rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1.0 + 1e-9, 1.0 + 1e-6, 1.0001, 1.5, 2.0, 10.0,
                               1e2, 1e4])
def test_rtilde_matches_40_digit_coth_form(n):
    mpmath.mp.dps = 40
    try:
        for big_lam in RTILDE_LAMS:
            for t in RTILDE_TS:
                for pol in (TE, TM):
                    s, got = _rtilde_at_lam(pol, big_lam, t, n)
                    nn, tt = mpmath.mpf(n), mpmath.mpf(t)
                    k = (nn * nn - 1) * tt * tt
                    g = mpmath.sqrt(1 + k)
                    coth = mpmath.coth(mpmath.mpf(s) * g)
                    if pol is TE:
                        exact = -k / (2 + k + 2 * g * coth)
                    else:
                        exact = ((nn ** 4 - 1 - k)
                                 / (nn ** 4 + 1 + k + 2 * nn * nn * g * coth))
                    assert got == pytest.approx(float(exact), rel=1e-14,
                                                abs=0.0)
    finally:
        mpmath.mp.dps = 15


def test_rtilde_is_the_wick_rotated_slab_amplitude():
    # with E_ji = 1 the contour coefficient is the physical amplitude at
    # imaginary frequency, k_z = i s and k_par = s sqrt(1 - t^2), with its
    # reference plane moved from the slab centre to the near surface.
    # slab_R's inputs round where rtilde's do not: the rounding of
    # k_par = s sqrt(1 - t^2) enters k_par^2 + k_z^2 = -s^2 t^2, to which
    # r_TE is proportional (condition ~ 1/t^2; r_TM's is n^2 / (n^2 - g)),
    # and 1 - exp(-2 Lam) is small at small Lam.  The tolerance is eps
    # times that condition number; where it exceeds 1e-12, slab_R's
    # formula in mpmath, 30 digits beyond those the cancellation takes,
    # must agree to 1e-13 as well
    rng = np.random.default_rng(2009)
    eps = np.finfo(float).eps
    for i in range(4000):
        s, lam = np.exp(rng.uniform(np.log([1e-3, 1e-3]),
                                    np.log([30.0, 10.0])))
        n = rng.uniform(1.01, 5.0)
        t = rng.uniform(0.0, 1.0) ** (3 if i % 2 else 1)
        g = math.sqrt(1.0 + (n * n - 1.0) * t * t)
        for pol, cond in ((TE, n * n / ((n * n - 1.0) * t * t)),
                          (TM, n * n / (n * n - g))):
            cond += 1.0 / -math.expm1(-2.0 * s * lam * g)
            got = rtilde(pol, s, t, lam, n)
            wick = slab_R(pol, 1j * s, s * math.sqrt(1.0 - t * t), lam, n)
            assert abs(wick * math.exp(-s * lam) - got) <= \
                8.0 * eps * cond * abs(got)
            if 8.0 * eps * cond > 1e-12:
                with mpmath.workdps(30 + math.ceil(math.log10(cond))):
                    exact = _wick_rotated_slab_R(pol, s, t, lam, n)
                assert abs(exact - got) <= 1e-13 * abs(got)


def _wick_rotated_slab_R(pol, s, t, lam, n):
    """slab_R(pol, i s, s sqrt(1 - t^2), lam, n) exp(-s lam) in mpmath."""
    s, t, L, n = (mpmath.mpf(x) for x in (s, t, lam, n))
    k_z = 1j * s
    k_zd = mpmath.sqrt((n * n - 1) * s * s * (1 - t * t) + n * n * k_z * k_z)
    m = 1 if pol is TE else n * n
    r = (m * k_z - k_zd) / (m * k_z + k_zd)
    phase = mpmath.exp(2j * k_zd * L)
    R = r * (1 - phase) / (1 - r * r * phase) * mpmath.exp(-1j * k_z * L)
    return float(mpmath.re(R * mpmath.exp(-s * L)))


def _r_and_slab_R_60_digits(pol, k_z, k_par, L, n):
    """fresnel_r's and slab_R's closed forms in 60-digit mpmath, the float
    inputs exact."""
    with mpmath.workdps(60):
        k_z = mpmath.mpc(k_z)
        k_par, L, n = (mpmath.mpf(x) for x in (k_par, L, n))
        k_zd = mpmath.sqrt((n * n - 1) * k_par * k_par + n * n * k_z * k_z)
        m = 1 if pol is TE else n * n
        r = (m * k_z - k_zd) / (m * k_z + k_zd)
        phase = mpmath.exp(2j * k_zd * L)
        return complex(r), complex(r * (1 - phase) / (1 - r * r * phase)
                                   * mpmath.exp(-1j * k_z * L))


@pytest.mark.parametrize("pol, k_z, k_par, L", [
    # k_z - k_zd cancels as k_z -> i k_par: slab_R and fresnel_r were off
    # by 1.7e-14, 2.6e-9 and 1.0e-12 before it was taken as a difference
    # of squares
    *[(TE, 1j, math.sqrt(1.0 - t * t), 1.0) for t in (1e-2, 1e-4, 1e-6)],
    # n^2 k_z - k_zd cancels as k_par -> n k_z: off by 8.5e-11 and 1.3e-10
    *[(TM, 0.6, 1.2 * (1.0 + d), 1.0) for d in (1e-6, 1e-9)],
    # 1 - exp(2 i k_zd L) cancels at small k_zd L: off by 4.7e-12 and
    # 1.6e-9 before it went through expm1
    *[(pol, 0.7, 0.4, L) for pol in (TE, TM) for L in (1e-6, 1e-9)],
])
def test_slab_r_keeps_its_digits_where_its_formula_cancels(pol, k_z, k_par,
                                                          L):
    want_r, want = _r_and_slab_R_60_digits(pol, k_z, k_par, L, 2.0)
    assert abs(slab_R(pol, k_z, k_par, L, 2.0) - want) <= 1e-15 * abs(want)
    assert abs(fresnel_r(pol, k_z, k_par, 2.0) - want_r) <= \
        1e-15 * abs(want_r)


def test_rtilde_reaches_halfspace_value_exactly():
    # once 1 - exp(-2 Lam) rounds to 1 the finite-lam form is the
    # half-space one, bit for bit
    t = np.linspace(0.0, 1.0, 9)
    for pol in (TE, TM):
        assert np.array_equal(rtilde(pol, 50.0, t, 1.0, 2.0),
                              rtilde(pol, 50.0, t, math.inf, 2.0))


# nodes as the cubature passes them: one s and one t per node
S_NODES = np.geomspace(1e-3, 30.0, 45).tolist()
T_NODES = np.linspace(0.0, 1.0, 45).tolist()
LAMS = [0.0, 1e-3, 1.0, 1e3, math.inf]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("n", [1.0, 1.5, 4.0])
def test_rtilde_of_both_polarizations_is_two_single_calls(lam, n):
    both = rtilde((TE, TM), S_NODES, T_NODES, lam, n)
    assert type(both) is tuple and [len(r) for r in both] == [45, 45]
    for row, pol in zip(both, (TE, TM)):
        assert _bits(row) == _bits(rtilde(pol, S_NODES, T_NODES, lam, n))
    # scalar nodes give one value per polarization
    pair = rtilde((TE, TM), 0.7, 0.3, lam, n)
    assert _bits(pair) == _bits([rtilde(TE, 0.7, 0.3, lam, n),
                                 rtilde(TM, 0.7, 0.3, lam, n)])


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("n", [1.0, 1.5, 4.0])
def test_rtilde_on_node_rows_matches_flat_nodes_bit_for_bit(lam, n):
    # sequences pair entry by entry, and a float (a row's one s) pairs
    # with every entry: the values are those of per-node float calls
    for pol in (TE, TM, (TE, TM)):
        nodes = rtilde(pol, S_NODES, T_NODES, lam, n)
        single = [rtilde(pol, s, t, lam, n)
                  for s, t in zip(S_NODES, T_NODES)]
        if isinstance(pol, tuple):
            single = list(zip(*single))
        assert _bits(nodes) == _bits(single)
        assert _bits(rtilde(pol, 0.7, T_NODES, lam, n)) == _bits(
            rtilde(pol, [0.7] * 45, T_NODES, lam, n))
        assert _bits(rtilde(pol, tuple(S_NODES), 0.5, lam, n)) == _bits(
            rtilde(pol, S_NODES, [0.5] * 45, lam, n))
    for pol in (TE, TM):
        assert type(rtilde(pol, 0.7, 0.3, lam, n)) is float
        assert type(rtilde(pol, [0.7], 0.3, lam, n)) is list
        assert rtilde(pol, [], 0.3, lam, n) == rtilde(pol, 0.7, (), lam, n) == []
    with pytest.raises(ValueError, match="one length"):
        rtilde(TE, S_NODES[:2], T_NODES[:3], lam, n)


@pytest.mark.parametrize("size", [22, 100_000])
@pytest.mark.parametrize("lam", [1.0, math.inf])
def test_rtilde_takes_the_tracers_linspace_rows(size, lam):
    # perfbench times rtilde(pol, 0.7, np.linspace(...), lam, 2.0) and
    # counts np.size of what it returns
    t = np.linspace(0.0, 1.0, size)
    single = [rtilde((TE, TM), 0.7, x, lam, 2.0) for x in t.tolist()]
    for k, pol in enumerate((TE, TM)):
        assert _bits(rtilde(pol, 0.7, t, lam, 2.0)) == _bits(
            [pair[k] for pair in single])
    both = rtilde((TE, TM), 0.7, t, lam, 2.0)
    assert _bits(both) == _bits(list(zip(*single)))
    assert np.size(both) == 2 * size
    for pol in (TE, TM, (TE, TM)):
        with pytest.raises(ValueError, match="s must be non-negative"):
            rtilde(pol, math.nan, t, lam, 2.0)
        bad = t.copy()
        bad[size // 2] = math.nan
        with pytest.raises(ValueError, match="t must lie in"):
            rtilde(pol, 0.7, bad, lam, 2.0)
        with pytest.raises(ValueError, match="s must be non-negative"):
            rtilde(pol, np.where(np.isnan(bad), math.nan, 0.7), t, lam, 2.0)


@pytest.mark.parametrize("pol", ["TE", [TE, TM], (TE, "TM"), None])
def test_rtilde_rejects_what_is_no_polarization(pol):
    # a string or a list was taken as TM, with no error
    with pytest.raises(ValueError, match="pol must be a Polarization"):
        rtilde(pol, 1.0, 0.5, 1.0, 2.0)


def test_rtilde_domain_errors():
    with pytest.raises(ValueError):
        rtilde(TM, -1.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        rtilde(TM, 1.0, 1.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        rtilde(TM, 1.0, 0.5, -1.0, 2.0)
    with pytest.raises(ValueError):
        rtilde(TM, 1.0, 0.5, 1.0, 0.9)
    # NaN passed the s < 0 and t < 0 | t > 1 tests and came back as NaN
    for s, t, match in [(math.nan, 0.5, "s must be non-negative"),
                        ([1.0, math.nan], 0.5, "s must be non-negative"),
                        (1.0, math.nan, "t must lie in"),
                        (1.0, [math.nan, 1.0], "t must lie in")]:
        with pytest.raises(ValueError, match=match):
            rtilde(TE, s, t, 1.0, 2.0)


@pytest.mark.parametrize("L", [-1.0, math.nan, math.inf])
def test_slab_amplitudes_reject_a_thickness_out_of_range(L):
    # -1 gave a number, NaN and inf gave nan+nanj
    for fn in (slab_R, slab_T, slab_denominator):
        with pytest.raises(ValueError, match="thickness L"):
            fn(TE, 1.0, 1.0, L, 2.0)


@pytest.mark.parametrize("call", [
    lambda: slab_R(TE, 1.0, 1e150, 1e160, 2.0),
    lambda: slab_denominator(TE, 1.0, 1e150, 1e160, 2.0),
    lambda: travelling_mode("L", TE, 1e150, 1.0, Slab(2.0, 1e160)),
    lambda: slab_R(TE, 800j, 0.0, 1.0, 2.0),
    lambda: slab_T(TM, 800j, 0.0, 1.0, 2.0),
], ids=["R", "denominator", "travelling_mode", "R_evanescent",
        "T_evanescent"])
def test_slab_phases_out_of_range_name_their_inputs(call):
    # exp(2 i k_zd L) at an infinite phase raised a bare math domain error,
    # and exp(-i k_z L) at an evanescent k_z with |k_z| L = 800 overflowed
    with pytest.raises(ValueError, match=r"k_z = .*, k_par = .*, L = "):
        call()


def test_fresnel_r_raises_at_its_pole():
    # TE's k_z + k_zd vanishes at k_z = -1j, k_par = 1, n = 2: k_zd = 1j
    with pytest.raises(PoleError, match="vanishing Fresnel denominator"):
        fresnel_r(TE, -1j, 1.0, 2.0)


def test_fresnel_r_rejects_an_index_below_one():
    # it returned 0.0 for n < 1 where snell_kzd raises
    for pol in (TE, TM):
        with pytest.raises(ValueError, match="n >= 1"):
            fresnel_r(pol, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("k_par, k_z", [
    (math.inf, 1.0), (1e200, 1.0), (1.0, math.inf), (math.nan, 1.0),
    (1.0, complex(math.nan, 0.0)),
])
def test_snell_kzd_rejects_a_wave_number_that_is_not_finite(k_par, k_z):
    with pytest.raises(ValueError, match="not a finite wave number"):
        snell_kzd(k_par, k_z, 2.0)


def test_snell_kz_rejects_a_wave_number_that_is_not_finite():
    # it returned (nan+infj), where snell_kzd raises for the same input
    with pytest.raises(ValueError, match="not a finite wave number"):
        snell_kz(1.0, 2.0, 1e200)
