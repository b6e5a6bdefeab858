"""Acceptance suite: one test per numbered criterion, each printed as a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them all).

Every tolerance is pinned here, not calibrated.  The two thin-slab criteria
(02 and 07) check leading-order formulas whose deviation is first order in
``L/Z``, so each asserts its tolerance at a point inside the formula's
stated regime, asserts that the deviation falls towards that point, and
prints the deviation at a coarser point as well.
"""

import math

import numpy as np

from helpers import brute_force_s, sign_scan_root_count
from slabshift import (AtomSpec, Polarization, QuadratureSpec, ReducedParams,
                       Slab, Transition, buhmann_U, energy_shift,
                       image_series_shift, nonretarded_k_integral,
                       nonretarded_shift, nonretarded_thin_shift,
                       retarded_thin_shift, s_parallel, s_perp,
                       static_polarizability, w_pair)
from slabshift.cli import main as cli_main
from slabshift.modes import (find_trapped_modes, pole_alignment_check,
                             trapped_mode, travelling_mode)
from slabshift.shift import s_parallel_detailed, s_perp_detailed

TE, TM = Polarization.TE, Polarization.TM
ATOM = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {desc}" +
          (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d}: {desc}  {detail}"


def test_criterion_01_perfect_reflector_limit():
    w = {}
    for zeta in (10.0, 20.0, 50.0):
        w[zeta] = w_pair(ReducedParams(zeta, math.inf, 1e4)).w_z
    in_band = 0.98 <= w[50.0] <= 1.02
    monotone = abs(1.0 - w[10.0]) > abs(1.0 - w[20.0]) > abs(1.0 - w[50.0])
    _report(1, "perfect-reflector limit W_z -> 1", in_band and monotone,
            f"W_z(50)={w[50.0]:.6f}, |1-W_z| over zeta=10,20,50: "
            f"{abs(1 - w[10.0]):.2e} > {abs(1 - w[20.0]):.2e} "
            f"> {abs(1 - w[50.0]):.2e}")


def test_criterion_02_retarded_thin_slab():
    # lam = 0.5 at every zeta, so L/Z = 0.01, 0.005, 0.0025, 6e-4, 1.6e-4.
    # The s expansion of R~ to second order in lam/zeta gives the signed
    # deviation -c lam/zeta for this atom (mu_par^2 = 2 mu_perp^2), with
    # c = 5(95n^6 + 101n^4 + 74n^2 + 52) / (28n^2 (14n^2 + 9)) = 2011/364
    # at n = 2; the next terms are of order (lam/zeta)^2 and 1/zeta^2
    n, lam = 2.0, 0.5
    c = 5.0 * (95 * n**6 + 101 * n**4 + 74 * n**2 + 52) / (
        28 * n**2 * (14 * n**2 + 9))
    slab = Slab(n=n, L=lam)
    devs, slopes = {}, {}
    for Z in (50.0, 100.0, 200.0, 800.0, 3200.0):
        full = energy_shift(ATOM, slab, Z).value
        thin = retarded_thin_shift(ATOM, slab, Z).value
        devs[Z] = abs(full - thin) / abs(thin)
        slopes[Z] = (full - thin) / thin * Z / lam
    gaps = [abs(slope + c) for slope in slopes.values()]
    ok = (devs[200.0] < 0.02 and devs[50.0] > devs[100.0] > devs[200.0]
          and abs(slopes[200.0] + c) < 0.02 * c
          and all(a > b for a, b in zip(gaps, gaps[1:])))
    _report(2, "retarded thin-slab formula within 2% at zeta=200, lam=0.5, "
               "n=2", ok,
            f"measured {devs[200.0]:.2%}; {devs[50.0]:.2%} at zeta=50 falls "
            f"to {devs[100.0]:.2%} at zeta=100; deviation*zeta/lam "
            f"{slopes[200.0]:.4f} at zeta=200 and {slopes[3200.0]:.4f} at "
            f"zeta=3200 tends to the derived -c = {-c:.4f}")


def test_criterion_03_nonretarded_limit():
    slab = Slab(n=2.0, L=200.0)
    Z = 1.0
    # zeta = 0.005, lam = 1 via E_ji = 0.005 at unit distance
    atom = AtomSpec([Transition(E_ji=0.005, mu_par_sq=2.0, mu_perp_sq=1.0)])
    full = energy_shift(atom, Slab(n=2.0, L=200.0), Z).value
    nr = nonretarded_shift(atom, Slab(n=2.0, L=200.0), Z).value
    dev = abs(full - nr) / abs(nr)
    _report(3, "non-retarded limit within 1% at zeta=0.005, lam=1, n=2",
            dev < 0.01, f"measured {dev:.3%}")


def test_criterion_04_dual_oracle_electrostatics():
    worst = 0.0
    cases = [(2.0, 1.0, 1.0)]
    rng = np.random.default_rng(101)
    for _ in range(20):
        cases.append((rng.uniform(1.05, 5.0), rng.uniform(0.05, 10.0),
                      rng.uniform(0.1, 5.0)))
    for n, L, Z in cases:
        slab = Slab(n=n, L=L)
        series = image_series_shift(ATOM, slab, Z).value
        quad = nonretarded_k_integral(ATOM, slab, Z).value
        worst = max(worst, abs(quad - series) / abs(series))
    _report(4, "quadrature equals image series to 1e-10 (21 cases)",
            worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_05_halfspace_convergence():
    q = QuadratureSpec(rel_tol=1e-10)
    worst = 0.0
    for fn in (s_parallel, s_perp):
        thick = fn(ReducedParams(1.0, 200.0, 2.0), q)[0]
        hs = fn(ReducedParams(1.0, math.inf, 2.0), q)[0]
        worst = max(worst, abs(thick - hs) / abs(hs))
    _report(5, "lam=200 matches coth=1 half-space to 1e-6, both polarizations",
            worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_06_buhmann_identity():
    n2 = 2.0
    anchor = (n2 * n2 - 1.0) * (9.0 + 14.0 * n2 * n2) == 195.0
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.1, 3.0)
        atom = AtomSpec([Transition(E_ji=rng.uniform(0.2, 5.0),
                                    mu_par_sq=2.0 * mu, mu_perp_sq=mu)])
        n = rng.uniform(1.0, 5.0)
        L = rng.uniform(0.01, 10.0)
        Z = rng.uniform(0.1, 20.0)
        u = buhmann_U(static_polarizability(atom), n, L, Z)
        d = retarded_thin_shift(atom, Slab(n=n, L=L), Z).value
        if d != 0.0:
            worst = max(worst, abs(u - d) / abs(d))
    _report(6, "thin-plate polarizability form == retarded thin shift "
               "(50 random isotropic atoms, 1e-12)",
            anchor and worst < 1e-12,
            f"worst {worst:.2e}, n=2 anchor bracket 195 exact: {anchor}")


def test_criterion_07_thin_nonretarded():
    Z = 1.0
    devs = {}
    for L in (0.01, 0.002):
        slab = Slab(n=2.0, L=L)
        exact = nonretarded_shift(ATOM, slab, Z).value
        thin = nonretarded_thin_shift(ATOM, slab, Z).value
        devs[L] = abs(thin - exact) / abs(exact)
    ok = devs[0.002] < 0.01 and devs[0.002] < devs[0.01]
    _report(7, "thin non-retarded formula within 1% at L/Z=0.002, n=2", ok,
            f"measured {devs[0.002]:.2%}; {devs[0.01]:.2%} at L/Z=0.01: the "
            f"first-order deviation law is 2(1+beta^2)/(1-beta^2)*(L/Z) = "
            f"4.25%*(L/Z)/0.01 at n=2")


def test_criterion_08_dispersion_pole_duality():
    rng = np.random.default_rng(107)
    worst_pole = 0.0
    count_mismatch = 0
    total_modes = 0
    for _ in range(100):
        slab = Slab(n=rng.uniform(1.1, 3.5), L=rng.uniform(0.2, 3.0))
        k_par = rng.uniform(0.3, 9.0)
        for pol in (TE, TM):
            for parity in ("S", "A"):
                modes = find_trapped_modes(pol, parity, k_par, slab)
                total_modes += len(modes)
                if len(modes) != sign_scan_root_count(pol, parity, k_par,
                                                      slab, 10000):
                    count_mismatch += 1
                for m in modes:
                    worst_pole = max(worst_pole,
                                     pole_alignment_check(m, slab))
    _report(8, "dispersion roots zero the slab_R denominator and match the "
               "sign-scan count (100 random draws)",
            worst_pole < 1e-8 and count_mismatch == 0,
            f"{total_modes} modes, worst pole residual {worst_pole:.2e}, "
            f"count mismatches {count_mismatch}")


def _continuity(field, slab, x=0.29, y=-0.53):
    worst = 0.0
    for z, vac in ((-slab.L / 2.0, "left_vacuum"),
                   (slab.L / 2.0, "right_vacuum")):
        e_vac = field.field_in(vac, x, y, z)
        e_slab = field.field_in("slab", x, y, z)
        scale = max(np.abs(e_vac).max(), np.abs(e_slab).max())
        tangential = max(abs(e_vac[0] - e_slab[0]), abs(e_vac[1] - e_slab[1]))
        normal_d = abs(e_vac[2] - slab.n ** 2 * e_slab[2])
        worst = max(worst, max(tangential, normal_d) / scale)
    return worst


def test_criterion_09_mode_continuity():
    rng = np.random.default_rng(109)
    worst_trav = 0.0
    done = 0
    while done < 50:
        slab = Slab(n=rng.uniform(1.05, 3.5), L=rng.uniform(0.2, 3.0))
        k_par, k_z = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        side = "L" if done % 2 == 0 else "R"
        for pol in (TE, TM):
            worst_trav = max(worst_trav, _continuity(
                travelling_mode(side, pol, k_par, k_z, slab), slab))
        done += 1
    worst_trap = 0.0
    done = 0
    while done < 50:
        slab = Slab(n=rng.uniform(1.2, 3.5), L=rng.uniform(0.4, 3.0))
        k_par = rng.uniform(0.5, 9.0)
        for pol in (TE, TM):
            for parity in ("S", "A"):
                for m in find_trapped_modes(pol, parity, k_par, slab):
                    worst_trap = max(worst_trap, _continuity(
                        trapped_mode(m, slab), slab))
                    done += 1
    ok = worst_trav < 1e-10 and worst_trap < 1e-10
    _report(9, "tangential-E/normal-D continuity below 1e-10 "
               "(50 travelling, 50 trapped, both polarizations)",
            ok, f"worst travelling {worst_trav:.2e}, trapped {worst_trap:.2e}")


# fewest panels of criterion 10's brute-force oracle: 240 along s and, per
# zeta, these along t, so a rule that uses fewer panels cannot coarsen it
ORACLE_T_PANELS = {0.5: 80, 1.0: 70, 8.0: 40}


def test_criterion_10_quadrature_oracle():
    worst = 0.0
    for zeta in (0.5, 1.0, 8.0):
        for lam in (0.5, 1.0, 10.0):
            for n in (1.5, 2.0, 5.0):
                p = ReducedParams(zeta, lam, n)
                s_max = 37.0 * math.log(10.0) / (2.0 * zeta)
                for kind, detailed in (("par", s_parallel_detailed),
                                       ("perp", s_perp_detailed)):
                    d = detailed(p)
                    brute = brute_force_s(
                        kind, zeta, lam, n, s_max,
                        max(10 * d.outer_panels, 240),
                        max(10 * d.inner_panels_max, ORACLE_T_PANELS[zeta]))
                    worst = max(worst, abs(d.value - brute) / abs(brute))
    _report(10, "adaptive S matches 10x fixed tensor rule to 1e-7 "
                "(27-point grid, both integrals)",
            worst < 1e-7, f"worst {worst:.2e}")


def test_criterion_11_small_zeta_slope():
    ratios = {}
    for zeta in (1e-3, 1e-4):
        ratios[zeta] = w_pair(ReducedParams(zeta, 1.0, 2.0)).w_z / zeta
    dev = abs(ratios[1e-3] / ratios[1e-4] - 1.0)
    _report(11, "W_z linear in zeta: slope constant to 2% between "
                "zeta=1e-3 and 1e-4",
            dev < 0.02, f"slope change {dev:.3%}")


def _sweep_rows(tmp_path, name, args):
    out = tmp_path / name
    code = cli_main(args + ["--output", str(out), "--rel-tol", "1e-7"])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_criterion_12_figure_shape_checks(tmp_path):
    # distance sweeps at n=2 for several thicknesses: W curves ordered in
    # lam with the half-space uppermost
    by_lam = {}
    for lam in ("0.1", "1", "10"):
        by_lam[lam] = _sweep_rows(
            tmp_path, f"zeta_lam{lam}.csv",
            ["sweep", "--axis", "zeta", "--lo", "0.5", "--hi", "8",
             "--points", "4", "--scale", "log", "--lam", lam, "--n", "2"])
    ordered = True
    for i in range(4):
        for col in ("w_par", "w_z"):
            seq = [float(by_lam[lam][i][col]) for lam in ("0.1", "1", "10")]
            hs = float(by_lam["1"][i][f"{col}_halfspace"])
            ordered &= seq[0] < seq[1] < seq[2] < hs

    # thickness sweep at fixed zeta=8: W_z monotone in lam
    rows = _sweep_rows(
        tmp_path, "lam_sweep.csv",
        ["sweep", "--axis", "lambda", "--lo", "0.1", "--hi", "10",
         "--points", "5", "--scale", "log", "--zeta", "8", "--n", "2"])
    w_z = [float(r["w_z"]) for r in rows]
    monotone_lam = all(a < b for a, b in zip(w_z, w_z[1:]))

    # index sweep at zeta=8, lam=1: W increasing in n
    rows = _sweep_rows(
        tmp_path, "n_sweep.csv",
        ["sweep", "--axis", "n", "--lo", "1.5", "--hi", "5",
         "--points", "3", "--zeta", "8", "--lam", "1"])
    w_z_n = [float(r["w_z"]) for r in rows]
    w_par_n = [float(r["w_par"]) for r in rows]
    monotone_n = (all(a < b for a, b in zip(w_z_n, w_z_n[1:]))
                  and all(a < b for a, b in zip(w_par_n, w_par_n[1:])))

    _report(12, "sweep outputs satisfy the figure orderings "
                "(half-space uppermost, monotone in lam and n)",
            ordered and monotone_lam and monotone_n,
            f"lam-ordering {ordered}, W_z(lam) monotone {monotone_lam}, "
            f"W(n) monotone {monotone_n}")
