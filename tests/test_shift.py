import functools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_w
from make_cost_ledger import cubature_costs
from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, WPair, energy_shift, w_pair)
import slabshift.quadrature
import slabshift.shift

# frozen via the brute-force tensor-product oracle at 10x the adaptive
# panel counts (agreement was at machine precision)
W_PAR_112 = 0.24417751743656474
W_Z_112 = 0.36130200476073027

P112 = ReducedParams(zeta=1.0, lam=1.0, n=2.0)
ZERO = WPair(0.0, 0.0)


def test_transparent_slab_is_exact_zero():
    assert w_pair(ReducedParams(zeta=1.0, lam=1.0, n=1.0)) == ZERO


def test_zero_thickness_is_exact_zero():
    assert w_pair(ReducedParams(zeta=1.0, lam=0.0, n=2.0)) == ZERO


def test_s_values_against_frozen_oracle():
    w = w_pair(P112)
    assert w.w_par == pytest.approx(W_PAR_112, rel=1e-7)
    assert w.w_z == pytest.approx(W_Z_112, rel=1e-7)
    assert abs(w.w_par - W_PAR_112) <= w.err_par + 8e-15
    assert abs(w.w_z - W_Z_112) <= w.err_z + 8e-15


def test_s_against_live_brute_force():
    with cubature_costs(slabshift.shift) as costs:
        w = w_pair(P112)
    strips, most = costs[0].strips()
    s_max = 37.0 * math.log(10.0) / 2.0
    # at least 4 x 7 t panels, whatever the adaptive rule uses, so the
    # oracle cannot coarsen with it
    brute = brute_force_w(1.0, 1.0, 2.0, s_max, 4 * strips, 4 * max(most, 7))
    assert (w.w_par, w.w_z) == pytest.approx(brute, rel=1e-9)


def test_inner_quadrature_is_batched(monkeypatch):
    # machine-independent guard: the cubature evaluates the cells of a
    # round (up to 48 per call) in one integrand call, with one rtilde call
    # for both polarizations: W(1, 1, 2) ends on its 8 seed cells, 1,800
    # nodes in one round, two coefficients per node
    counts = {"calls": 0, "nodes": 0}
    rtilde = slabshift.shift.rtilde

    def counting(*args):
        out = rtilde(*args)
        counts["calls"] += 1
        counts["nodes"] += np.size(out)
        return out

    monkeypatch.setattr(slabshift.shift, "rtilde", counting)
    w_pair(P112)
    assert counts["nodes"] == 3_600
    assert counts["calls"] == 1


def _lam_grid(points: int) -> list[float]:
    return [10.0 ** (-2.0 + 4.0 * i / (points - 1)) for i in range(points)]


def _count_builds(monkeypatch) -> Counter:
    """How often each cell's geometry is built, by its 15 u and 15 v
    nodes."""
    built = Counter()
    geometry = slabshift.shift._cell_geometry

    def counting(two_zeta, u_row, v_row):
        built[(*u_row, *v_row)] += 1
        return geometry(two_zeta, u_row, v_row)

    monkeypatch.setattr(slabshift.shift, "_cell_geometry", counting)
    return built


@pytest.mark.parametrize("zeta", [1e-76, 1e-3, 1.0, 1e6])
def test_geometry_memo_keeps_every_bit(zeta):
    # the memo holds what depends on zeta alone: W, its bounds and its
    # cells are the same on an empty memo and on one that other lam and n
    # at the same zeta filled
    def point():
        slabshift.shift._s_pair.cache_clear()
        with cubature_costs(slabshift.shift) as costs:
            w = w_pair(ReducedParams(zeta, 1.0, 2.0))
        return repr(w), costs[0].result.lo, costs[0].result.hi

    cold = point()
    slabshift.shift._geometry_memo.cache_clear()
    for lam, n in [(0.1, 2.0), (math.inf, 1.5), (10.0, 30.0), (1e-3, 2.0)]:
        w_pair(ReducedParams(zeta, lam, n))
    assert slabshift.shift._geometry_memo(zeta)
    assert point() == cold


def _lam_sweep_cells(zeta: float, q: QuadratureSpec) -> int:
    """The cells the 13 W pairs of a 12-point lam sweep at n 2 evaluate."""
    with cubature_costs(slabshift.shift) as costs:
        for lam in _lam_grid(12) + [math.inf]:
            w_pair(ReducedParams(zeta, lam, 2.0), q)
    return sum(cost.evaluated for cost in costs)


@pytest.mark.parametrize("zeta, rel_tol, cells", [
    (1.0, 1e-8, 10), (1e-3, 1e-10, 93), (1e-76, 1e-8, 96)])
def test_a_lam_sweep_builds_each_cell_geometry_once(zeta, rel_tol, cells,
                                                    monkeypatch):
    # the 13 W pairs of a 12-point lam sweep share one zeta: every
    # distinct cell's geometry is built once, however many pairs evaluate
    # it, and the memo keeps every one of them
    built = _count_builds(monkeypatch)
    evaluated = _lam_sweep_cells(zeta, QuadratureSpec(rel_tol=rel_tol))
    assert set(built.values()) == {1}
    assert set(slabshift.shift._geometry_memo(zeta)) == set(built)
    assert len(built) == cells
    assert evaluated > 5 * len(built)


def test_a_lam_sweep_evaluates_few_cells():
    # machine-independent guard on W's cost: the 13 W pairs of a 12-point
    # lam sweep at zeta 1, n 2 evaluate at most 110 cells (they take 106)
    assert _lam_sweep_cells(1.0, QuadratureSpec()) <= 110


@pytest.mark.parametrize("zeta", [1e-76, 1e-18, 1e-7, 1e-3, 1.0, 1e5])
def test_t_zero_cells_resolve_the_peak(zeta):
    # the peak of 1 / (1 + s^2 t^2) at t = 0, of width 1 / s, is flattened
    # by v = asinh(s t) / asinh(s): the seeds are the 8 u strips 0,
    # U 2^-7, ..., U, each all of [0, 1] in v, tiling [0, U] x [0, 1]; W
    # meets its bound and the cells evaluated stay few where the peak is
    # narrowest
    u_max = 37.0 * math.log(10.0)
    p = ReducedParams(zeta, 1.0, 2.0)
    with cubature_costs(slabshift.shift) as costs:
        got = w_pair(p)
    (cost,) = costs
    edges = [0.0] + [math.ldexp(u_max, -k) for k in range(7, -1, -1)]
    assert edges[1:] == slabshift.quadrature.geometric_edges(u_max)[-8:]
    assert cost.lo == [(e, 0.0) for e in edges[:-1]]
    assert cost.hi == [(e, 1.0) for e in edges[1:]]
    area = math.fsum((b[0] - a[0]) * (b[1] - a[1])
                     for a, b in zip(cost.lo, cost.hi))
    assert area == pytest.approx(u_max, rel=1e-14)
    assert cost.evaluated <= (170 if zeta < 1e-7 else 90)
    ref = w_pair(p, QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300))
    assert abs(got.w_par - ref.w_par) <= got.err_par
    assert abs(got.w_z - ref.w_z) <= got.err_z


def test_cell_geometry_clamps_t_to_one():
    # at v = 1, t = sinh(asinh(s)) / s is 1 in exact arithmetic but rounds
    # above it for about 40% of s; every such t comes back as 1.0
    two_zeta = 2e-3
    u_row = [3.0, 3.25, 3.5, 4.0, 4.25, 5.25, 7.25, 7.5, 8.0, 9.25, 9.5,
             9.75, 10.75, 11.25, 11.5]
    assert all(math.sinh(math.asinh(s)) / s > 1.0
               for s in (u / two_zeta for u in u_row))
    _, t, w = slabshift.shift._cell_geometry(two_zeta, u_row, [1.0] * 15)
    assert t == [1.0] * 225
    assert all(math.isfinite(x) for x in w)


@pytest.mark.parametrize("zeta", [1e-76, 1e-7, 1.0, 1e6])
def test_split_budget_has_headroom_at_the_corners(zeta):
    # the budget is a constant, so it must not be what stops a tight W:
    # at rel_tol 1e-13 the splits beyond the seeds stay within a quarter
    # of it (140 at zeta 1e-76)
    with cubature_costs(slabshift.shift) as costs:
        for lam in (1e-3, 1.0, math.inf):
            for n in (1.01, 30.0):
                w_pair(ReducedParams(zeta, lam, n),
                       QuadratureSpec(rel_tol=1e-13))
    assert len(costs) == 6
    assert max(cost.result.panels - len(cost.lo) for cost in costs) \
        <= slabshift.quadrature.MAX_SUBDIVISIONS // 4


def _meets_its_tolerance(w: WPair, q: QuadratureSpec) -> bool:
    """Each component's bound within ``rel_tol |W_k|``, the cubature's
    stopping test: W has no absolute floor."""
    return all(err <= q.rel_tol * abs(val)
               for val, err in ((w.w_par, w.err_par), (w.w_z, w.err_z)))


def test_err_est_respects_tolerance_contract():
    q = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
    assert _meets_its_tolerance(w_pair(P112, q), q)


def test_rel_tol_alone_bounds_w_near_n_1():
    # near n = 1, W ~ (n - 1) is far below the abs_tol of 1e-14, which no
    # longer floors W's tolerance: each bound is within rel_tol |W_k| (an
    # abs_tol floor let it reach 1.0e-5 |W|), and still bounds the error
    # against W at rel_tol 1e-13
    tight = QuadratureSpec(rel_tol=1e-13)
    for zeta in (0.01, 0.1, 0.3):
        for n_minus_1 in (1e-9, 1e-12, 1e-15):
            p = ReducedParams(zeta, 1.0, 1.0 + n_minus_1)
            got, ref = w_pair(p), w_pair(p, tight)
            assert _meets_its_tolerance(got, QuadratureSpec()), p
            assert abs(got.w_par - ref.w_par) <= got.err_est, p
            assert abs(got.w_z - ref.w_z) <= got.err_est, p


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
    assert _meets_its_tolerance(got, QuadratureSpec())


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1.5, 2.0, 30.0])
@pytest.mark.parametrize("lam", [1.0, math.inf])
@pytest.mark.parametrize("zeta", [1e-100, 1e-200, 1e-300])
def test_w_follows_the_non_retarded_law_far_below_the_s_views(zeta, lam, n):
    # W -> (pi/4, pi/2) beta zeta holds at any small zeta, down to where
    # W's nodes s = u / (2 zeta) leave the doubles, not only where the S
    # views' 8 zeta^4 is a normal double; each component within its bound
    beta = (n * n - 1.0) / (n * n + 1.0)
    wp = w_pair(ReducedParams(zeta, lam, n))
    assert abs(wp.w_par - 0.25 * math.pi * beta * zeta) <= wp.err_par
    assert abs(wp.w_z - 0.5 * math.pi * beta * zeta) <= wp.err_z


def test_positivity():
    rng = np.random.default_rng(2)
    q = QuadratureSpec(rel_tol=1e-6)
    for _ in range(5):
        p = ReducedParams(zeta=rng.uniform(0.3, 5.0),
                          lam=rng.uniform(0.05, 10.0),
                          n=rng.uniform(1.05, 4.0))
        w = w_pair(p, q)
        assert w.w_par > 0.0 and w.w_z > 0.0


def test_monotone_in_lam_and_below_halfspace():
    q = QuadratureSpec(rel_tol=1e-9)
    vals = [w_pair(ReducedParams(1.0, lam, 2.0), q).w_z
            for lam in (0.2, 1.0, 5.0, 25.0, math.inf)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_monotone_in_n():
    q = QuadratureSpec(rel_tol=1e-9)
    vals = [w_pair(ReducedParams(1.0, 1.0, n), q).w_z
            for n in (1.2, 1.6, 2.5, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


_LOG = {"allow_nan": False, "allow_infinity": False}


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(log_zeta=st.floats(-4.0, 3.0, **_LOG),
       log_lam=st.floats(-3.0, 3.0, **_LOG).flatmap(
           lambda a: st.tuples(st.just(a), st.floats(a, 3.0, **_LOG))),
       n=st.floats(1.01, 10.0, **_LOG).flatmap(
           lambda a: st.tuples(st.just(a), st.floats(a, 10.0, **_LOG))))
def test_w_is_monotone_in_lam_and_n_and_below_the_halfspace(log_zeta, log_lam,
                                                           n):
    # W grows with the slab's thickness and index, and stays positive and
    # below the half-space pair, each within the two results' summed bounds
    zeta = 10.0 ** log_zeta
    lam = tuple(10.0 ** x for x in log_lam)
    base = w_pair(ReducedParams(zeta, lam[0], n[0]))
    thicker = w_pair(ReducedParams(zeta, lam[1], n[0]))
    denser = w_pair(ReducedParams(zeta, lam[0], n[1]))
    half = w_pair(ReducedParams(zeta, math.inf, n[0]))
    assert base.w_par > 0.0 and base.w_z > 0.0
    for lo, hi in ((base, thicker), (base, denser), (base, half),
                   (thicker, half)):
        assert lo.w_par <= hi.w_par + lo.err_par + hi.err_par
        assert lo.w_z <= hi.w_z + lo.err_z + hi.err_z


def test_w_pair_scaling_and_values():
    # the one test of the S views: each is W / (8 zeta^4), value and bound,
    # bit for bit, at a slab, a transparent half-space, a half-space, and
    # zeta 1e70, where S_par underflows to 0.0 and W_par is 3.075e-70; and
    # where 8 zeta^4 leaves the doubles, W is returned and each view raises
    # its 8*zeta**4 error.  The detailed components are W's.  Each point is
    # read at the default spec, at rel_tol 1e-6 and at rel_tol 1e-10, whose
    # W differs below zeta 1e60, so a view that drops its spec reads the
    # wrong cubature
    from slabshift import halfspace_S, s_parallel, s_perp
    from slabshift.shift import s_parallel_detailed, s_perp_detailed

    specs = (None, QuadratureSpec(rel_tol=1e-6), QuadratureSpec(rel_tol=1e-10))
    for zeta, lam, n in [(1.0, 1.0, 2.0), (1.0, math.inf, 1.0),
                         (0.5, math.inf, 2.0), (1.25, math.inf, 2.0),
                         (2.0, math.inf, 2.0), (1e70, 1.0, 2.0)]:
        p = ReducedParams(zeta, lam, n)
        ws = []
        for q in specs:
            with cubature_costs(slabshift.shift) as costs:
                w = w_pair(p, q)
            ws.append(w)
            scale = 8.0 * zeta ** 4
            par = (w.w_par / scale, w.err_par / scale)
            perp = (w.w_z / scale, w.err_z / scale)
            detail = (s_parallel_detailed(p, q), s_perp_detailed(p, q))
            assert [d[:2] for d in detail] == [w[0::2], w[1::2]]
            assert s_parallel(p, q) == par
            assert s_perp(p, q) == perp
            if lam == math.inf:
                assert halfspace_S(zeta, n, q) == (par[0], perp[0])
            strips = costs[0].strips() if costs else (0, 0)
            assert all((d.outer_panels, d.inner_panels_max) == strips
                       for d in detail)
            assert w.err_est >= 0.0
        assert n == 1.0 or zeta > 1e60 or ws[2] != ws[0]
    assert par[0] == 0.0 < w.w_par

    for zeta in (1e-78, 6.9e76):
        p = ReducedParams(zeta, math.inf, 2.0)
        for q in specs:
            w = w_pair(p, q)
            assert w.w_par > 0.0 and w.w_z > 0.0
            assert [d[:2] for d in (s_parallel_detailed(p, q),
                                    s_perp_detailed(p, q))] == [w[0::2],
                                                                w[1::2]]
            for view in (s_parallel, s_perp,
                         lambda p, q=None: halfspace_S(p.zeta, p.n, q)):
                with pytest.raises(ValueError) as got:
                    view(p, q)
                assert str(got.value) == (f"zeta = {zeta!r} is out of range: "
                                          "8*zeta**4 must be a finite normal "
                                          "double")


def test_w_pair_below_halfspace_at_zeta8():
    q = QuadratureSpec(rel_tol=1e-8)
    wp = w_pair(ReducedParams(8.0, 1.0, 2.0), q)
    hs = w_pair(ReducedParams(8.0, math.inf, 2.0), q)
    assert 0.0 < wp.w_par < hs.w_par
    assert 0.0 < wp.w_z < hs.w_z
    assert 0.0 < wp.w_par < 1.0 and 0.0 < wp.w_z < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta, lam, n", [
    (5e-324, 1.0, 2.0), (1e-308, math.inf, 2.0), (1.7e308, 1.0, 2.0),
    (1e-308, 1.0, 1.0), (1.0, 1.0, 1e78), (1.0, math.inf, 1e78),
])
def test_w_pair_rejects_powers_outside_the_doubles(zeta, lam, n):
    # 2 zeta and U / (2 zeta) (the scale of W's nodes s = u / (2 zeta))
    # for zeta, transparent slab or not; n^4 (the TM coefficient) for n
    name = "zeta" if n < 1e78 else "n"
    with pytest.raises(ValueError, match=f"^{name} = .* is out of range: "):
        w_pair(ReducedParams(zeta, lam, n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta, lam, n", [
    (1e200, 1.0, 2.0), (1e-200, 1.0, 2.0), (1e200, 0.0, 2.0),
    (1e-200, 1.0, 1.0), (6.9e76, 1.0, 2.0), (1e77, math.inf, 2.0),
])
def test_w_pair_returns_w_where_the_s_views_leave_the_doubles(zeta, lam, n):
    # where 8 zeta^4 is not a finite normal double, W itself still is, or
    # is exactly 0 for a transparent slab
    wp = w_pair(ReducedParams(zeta, lam, n))
    if n == 1.0 or lam == 0.0:
        assert wp == ZERO
    else:
        assert wp.w_par > 0.0 and wp.w_z > 0.0
        assert _meets_its_tolerance(wp, QuadratureSpec())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-3, 1.0, math.inf])
def test_w_pair_gives_w_or_a_typed_error_across_the_doubles(lam):
    # on a log grid of zeta from 5e-324 to 1.7e308, w_pair gives W inside
    # W's range (2 zeta and U / (2 zeta) finite) and a ValueError naming
    # zeta outside it; inside, only W's own underflow may raise.  Never a
    # ZeroDivisionError, a ConvergenceError or rtilde's range error on t
    low = slabshift.quadrature.CUTOFF / 2.0 / sys.float_info.max
    ends = math.log(5e-324), math.log(1.7e308)
    zetas = [math.exp(ends[0] + (ends[1] - ends[0]) * i / 32)
             for i in range(1, 32)]
    zetas += [5e-324, math.nextafter(low, 0.0), low, 1e307, 8.9e307, 1.7e308]
    for zeta in zetas:
        inside = low <= zeta and 2.0 * zeta < math.inf
        try:
            wp = w_pair(ReducedParams(zeta, lam, 2.0))
        except ValueError as exc:
            pattern = (r"W_(par|z) at .* below the normal doubles" if inside
                       else r"zeta = .* is out of range: 2\*zeta")
            assert re.match(pattern, str(exc)), (zeta, str(exc))
        else:
            assert inside, zeta
            assert wp.w_par > 0.0 and wp.w_z > 0.0, zeta


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zeta, n", [(1e76, 2.0), (1.0, 1e77)])
def test_w_pair_is_finite_below_the_upper_ends(zeta, n):
    wp = w_pair(ReducedParams(zeta, 1.0, n))
    assert all(math.isfinite(v) and v >= 0.0
               for v in (wp.w_par, wp.w_z, wp.err_est))


@pytest.mark.parametrize("zeta", [1e60, 1e70, 1e76, 1e200, 1e300])
def test_w_follows_the_retarded_thin_slab_law_at_large_zeta(zeta):
    # W zeta / lam tends to (n^2-1)(5+9n^2)/(10n^2) and (n^2-1)(4+5n^2)/(5n^2);
    # the S views W / (8 zeta^4) are subnormal past zeta = 1e61, 0.0 from
    # 1e66 and raise past 6.9e76; W must not underflow
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
    # S = W / (8 zeta^4), at zeta 1
    w = w_pair(ReducedParams(zeta=1.0, lam=1.0, n=2.0))
    direct = -(1.0 / (2.0 * math.pi ** 2)) * 2.0 ** 3 * (
        w.w_par * 0.7 + w.w_z * 1.3) / 8.0
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
    hs = w_pair(ReducedParams(1.0, math.inf, 2.0), q)
    hs_val = -(1.0 / (2.0 * math.pi ** 2)) * (hs.w_par + hs.w_z) / 8.0
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


def _retarded_w(rho, n):
    """(W_par, W_z) in the retarded limit zeta -> inf at fixed rho = lam/zeta
    = L/Z, as 1D t integrals in 20 digits.

    There ``1/(1 + s^2 t^2) -> 1`` and ``Lam = rho u g / 2``, so each term
    of the reflection series of ``make_w_table.py``, ``Rt = num/(a + b)
    Sum_k q^k (x^k - x^{k+1})`` with ``x = e^{-2 Lam}``, has a closed u
    integral, ``Int u^3 e^{-u} x^k du = 6/(1 + k rho g)^4``:

        W_par -> 1/8 Int_0^1 (R_TM S_TM - t^2 R_TE S_TE) dt,
        W_z   -> 1/4 Int_0^1 (1 - t^2) R_TM S_TM dt,

    with ``R = num/(a + b)`` and ``S = Sum_k q^k [6/(1 + k rho g)^4 - 6/(1 +
    (k + 1) rho g)^4]`` per polarization.
    """
    with mpmath.workdps(20):
        rho, n2 = mpmath.mpf(rho), mpmath.mpf(n) ** 2

        @functools.cache
        def coefficients(t):
            g = mpmath.sqrt(1 + (n2 - 1) * t * t)
            tt = g * g - 1
            out = []
            for num, a, b in ((-tt, 2 + tt, 2 * g),
                              (n2 * n2 - 1 - tt, n2 * n2 + 1 + tt, 2 * n2 * g)):
                q = (a - b) / (a + b)
                total, k, f = mpmath.mpf(0), 0, mpmath.mpf(6)
                while True:
                    f_next = 6 / (1 + (k + 1) * rho * g) ** 4
                    total += q ** k * (f - f_next)
                    k, f = k + 1, f_next
                    # the tail is below q^k f / (1 - q), as f falls in k
                    if q ** k * f <= mpmath.eps * (1 - q) * abs(total):
                        break
                out.append(num / (a + b) * total)
            return out

        def par(t):
            te, tm = coefficients(t)
            return tm - t * t * te

        def perp(t):
            return (1 - t * t) * coefficients(t)[1]

        return (float(mpmath.quad(par, [0, 1]) / 8),
                float(mpmath.quad(perp, [0, 1]) / 4))


@pytest.mark.parametrize("n", [2.0, 5.0])
@pytest.mark.parametrize("rho", [0.01, 0.3, 3.0])
def test_w_approaches_the_retarded_limit_at_fixed_l_over_z(rho, n):
    # the next term of 1/(1 + s^2 t^2), with s = u / (2 zeta), is
    # -u^2 t^2 / (4 zeta^2): W / W_ret - 1 falls 100x per decade of zeta
    # (-2.52e-2, -2.73e-4, -2.73e-6 for W_par at n 2, rho 0.01)
    refs = _retarded_w(rho, n)
    devs, gaps = [], []
    for zeta in (10.0, 100.0, 1e3):
        w = w_pair(ReducedParams(zeta, rho * zeta, n),
                   QuadratureSpec(rel_tol=1e-10))
        devs.append([w.w_par / refs[0] - 1.0, w.w_z / refs[1] - 1.0])
        gaps.append([abs(w.w_par - refs[0]) / w.err_par,
                     abs(w.w_z - refs[1]) / w.err_z])
    falls = [[a / b for a, b in zip(*pair)] for pair in zip(devs, devs[1:])]
    note = f"W / W_ret - 1 {devs}, gaps {gaps} err_est"
    # the fall is W's, not its cubature error's: every gap spans many
    # err_est (at least 1.4e4 at zeta 1e3)
    assert min(min(g) for g in gaps) > 1e3, note
    assert all(80.0 <= f <= 120.0 for pair in falls for f in pair), note


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


# the 120-point grid: every zeta regime, lam from thin to a half-space, and
# n from glass to near a mirror
GRID_120 = [ReducedParams(zeta, lam, n)
            for zeta in (1e-7, 1e-5, 1e-3, 0.1, 10.0, 1e3)
            for lam in (1e-3, 0.1, 1.0, 10.0, math.inf)
            for n in (1.5, 2.0, 5.0, 30.0)]


@pytest.fixture(scope="module")
def grid_120_refs():
    tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    return [w_pair(p, tight) for p in GRID_120]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
def test_err_est_bounds_the_true_error_on_the_120_point_grid(rel_tol,
                                                             grid_120_refs):
    # |W - W_ref| <= err per component; the worst ratio found at the
    # default abs_tol was 0.0096, 0.018 and 0.0069 at these rel_tol
    worst = (0.0, None, None)
    for p, ref in zip(GRID_120, grid_120_refs):
        w = w_pair(p, QuadratureSpec(rel_tol=rel_tol))
        for name, got, want, err in (("W_par", w.w_par, ref.w_par, w.err_par),
                                     ("W_z", w.w_z, ref.w_z, w.err_z)):
            ratio = abs(got - want) / err if got != want else 0.0
            worst = max(worst, (ratio, p, name), key=lambda r: r[0])
    ratio, p, name = worst
    assert ratio <= 1.0, f"{name} at {tuple(p)}: |W - W_ref| = {ratio:.3g} err"
