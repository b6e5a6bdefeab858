import math

import numpy as np
import pytest

from helpers import brute_force_s
from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, energy_shift, halfspace_S, s_parallel,
                       s_perp, w_pair)
import slabshift.shift
from slabshift.shift import W_SCALE, s_parallel_detailed

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
    brute = brute_force_s("par", 1.0, 1.0, 2.0, s_max,
                          4 * d.outer_panels, 4 * max(d.inner_panels_max, 2))
    assert d.value == pytest.approx(brute, rel=1e-9)


def test_inner_quadrature_is_batched(monkeypatch):
    # machine-independent guard: one inner quadrature per s node, or per
    # block of s nodes, makes more rtilde calls, and a rule with more nodes
    # per panel (22 for a 15 + 7 Gauss-Legendre pair) makes more nodes
    counts = {"calls": 0, "nodes": 0}
    rtilde = slabshift.shift.rtilde

    def counting(*args):
        out = rtilde(*args)
        counts["calls"] += 1
        counts["nodes"] += np.size(out)
        return out

    monkeypatch.setattr(slabshift.shift, "rtilde", counting)
    w_pair(P112)
    assert counts["nodes"] == 39_210
    assert counts["calls"] <= 40


def test_err_est_respects_tolerance_contract():
    q = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
    for fn in (s_parallel, s_perp):
        val, err = fn(P112, q)
        assert err <= max(q.rel_tol * abs(val), q.abs_tol)


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
