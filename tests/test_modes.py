import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import bisect_roots_longhand, sign_scan_root_count
from slabshift import Polarization, Slab, slab_R, slab_T
from slabshift.modes import (find_trapped_modes, pole_alignment_check,
                             trapped_mode, travelling_mode)

TE, TM = Polarization.TE, Polarization.TM
SLAB = Slab(n=2.0, L=1.0)


def _continuity_mismatch(field, slab, z_interface, vacuum_tag, x=0.37, y=-0.21):
    e_vac = field.field_in(vacuum_tag, x, y, z_interface)
    e_slab = field.field_in("slab", x, y, z_interface)
    scale = max(np.abs(e_vac).max(), np.abs(e_slab).max())
    tangential = max(abs(e_vac[0] - e_slab[0]), abs(e_vac[1] - e_slab[1]))
    normal_d = abs(e_vac[2] - slab.n ** 2 * e_slab[2])
    return max(tangential, normal_d) / scale


def test_single_even_branch_has_one_root():
    # sqrt(n^2-1) * k_par * L / 2 < pi/2: one fundamental S root, no A root
    k_par = 1.0  # theta_max = sqrt(3)/2 ~ 0.87 < pi/2
    for pol in (TE, TM):
        assert len(find_trapped_modes(pol, "S", k_par, SLAB)) == 1
        assert len(find_trapped_modes(pol, "A", k_par, SLAB)) == 0


def test_root_count_grows_alternating_with_parity():
    # each pi/2 crossing of theta_max adds one root, alternating S/A
    for pol in (TE, TM):
        counts = []
        for theta_max_target in (0.8, 2.0, 3.5, 5.0):
            k_par = 2.0 * theta_max_target / (math.sqrt(3.0) * SLAB.L)
            n_s = len(find_trapped_modes(pol, "S", k_par, SLAB))
            n_a = len(find_trapped_modes(pol, "A", k_par, SLAB))
            counts.append((n_s, n_a))
        assert counts == [(1, 0), (1, 1), (2, 1), (2, 2)]


def test_no_modes_below_unity_index_or_zero_thickness():
    assert find_trapped_modes(TE, "S", 1.0, Slab(n=1.0, L=1.0)) == []
    assert find_trapped_modes(TE, "S", 1.0, Slab(n=2.0, L=0.0)) == []


def test_find_validates_input():
    with pytest.raises(ValueError):
        find_trapped_modes(TE, "X", 1.0, SLAB)
    with pytest.raises(ValueError):
        find_trapped_modes(TE, "S", 0.0, SLAB)
    with pytest.raises(ValueError):
        find_trapped_modes(TE, "S", math.inf, SLAB)


def test_roots_match_sign_scan():
    # counts against a sign scan, values against a scalar bisection
    rng = np.random.default_rng(31)
    for _ in range(25):
        slab = Slab(n=rng.uniform(1.1, 3.5), L=rng.uniform(0.2, 3.0))
        k_par = rng.uniform(0.3, 9.0)
        for pol in (TE, TM):
            for parity in ("S", "A"):
                found = find_trapped_modes(pol, parity, k_par, slab)
                assert len(found) == sign_scan_root_count(pol, parity, k_par,
                                                          slab, 4000)
                ref = bisect_roots_longhand(pol, parity, k_par, slab)
                assert [m.k_zd for m in found] == pytest.approx(ref, rel=1e-12)


def test_root_quality():
    for pol in (TE, TM):
        for parity in ("S", "A"):
            for m in find_trapped_modes(pol, parity, 6.0, SLAB):
                assert m.residual < 1e-10
                assert 0.0 < m.k_zd < math.sqrt(SLAB.n ** 2 - 1.0) * m.k_par
                # kappa-k_zd circle constraint
                circle = (m.kappa ** 2 * SLAB.n ** 2 + m.k_zd ** 2)
                assert circle == pytest.approx(
                    (SLAB.n ** 2 - 1.0) * m.k_par ** 2, rel=1e-12)
                assert 0.0 < m.kappa < math.sqrt(SLAB.n ** 2 - 1.0) \
                    * m.k_par / SLAB.n


def test_roots_sorted_ascending():
    modes = find_trapped_modes(TE, "S", 9.0, SLAB)
    assert len(modes) >= 2
    k = [m.k_zd for m in modes]
    assert k == sorted(k)


def test_many_branches_at_large_k_par():
    # 551 branches per (pol, parity): every root, ascending, refined to the
    # same level as at small k_par
    lists = [find_trapped_modes(pol, parity, 2000.0, SLAB)
             for pol in (TE, TM) for parity in ("S", "A")]
    assert sum(map(len, lists)) == 2206
    for modes in lists:
        k = [m.k_zd for m in modes]
        assert k == sorted(k)
        for m in modes:
            assert m.residual < 1e-10
            assert pole_alignment_check(m, SLAB) < 1e-8


def test_pole_alignment():
    modes = find_trapped_modes(TM, "S", 4.0, SLAB)
    assert modes
    for m in modes:
        assert pole_alignment_check(m, SLAB) < 1e-8


def test_pole_alignment_detects_perturbation():
    m = find_trapped_modes(TE, "S", 4.0, SLAB)[0]
    good = pole_alignment_check(m, SLAB)
    bad = m._replace(kappa=m.kappa * (1.0 + 1e-3))
    assert pole_alignment_check(bad, SLAB) > 1e4 * max(good, 1e-16)


# the first three roots of every polarization and parity at three slabs:
# 28 trapped modes
POLE_CASES = [(2.0, 1.0, 4.0), (1.5, 2.0, 6.0), (3.0, 0.7, 9.0)]
POLE_MODES = [(m, Slab(n, L)) for n, L, k_par in POLE_CASES
              for pol in Polarization for parity in "SA"
              for m in find_trapped_modes(pol, parity, k_par, Slab(n, L))[:3]]


def test_trapped_modes_are_normalised():
    # (2 pi)^2 Int n(z)^2 |E|^2 dz = 1, integrated region by region from
    # the field itself, without the M_TE, M_TM formulas
    assert len(POLE_MODES) == 28
    for m, slab in POLE_MODES:
        field = trapped_mode(m, slab)
        half = 0.5 * slab.L
        total = 0.0
        for tag, lo, hi, n2 in (("left_vacuum", -math.inf, -half, 1.0),
                                ("slab", -half, half, slab.n ** 2),
                                ("right_vacuum", half, math.inf, 1.0)):
            def density(z, tag=tag, n2=n2):
                return n2 * float(np.sum(np.abs(
                    field.field_in(tag, 0.0, 0.0, z)) ** 2))
            total += quad(density, lo, hi, epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
        assert abs((2.0 * math.pi) ** 2 * total - 1.0) <= 1e-12, m


def test_trapped_mode_is_the_residue_of_slab_r():
    # (1/2 pi i) of slab_R around its pole at k_z = i kappa is
    # i (2 pi)^2 |A|^2, with A the mode's left-vacuum amplitude: 64
    # trapezoid nodes on a circle of radius 1e-3 kappa
    phase = np.exp(2j * math.pi * np.arange(64) / 64)
    for m, slab in POLE_MODES:
        radius = 1e-3 * m.kappa
        values = [slab_R(m.pol, 1j * m.kappa + radius * w, m.k_par, slab.L,
                         slab.n) for w in phase]
        residue = radius / 64 * np.dot(values, phase)
        amplitude = trapped_mode(m, slab).regions[0][0][0]
        want = 1j * (2.0 * math.pi) ** 2 * abs(amplitude) ** 2
        assert abs(residue - want) <= 1e-10 * abs(want), m


def test_travelling_transparent_is_plane_wave():
    f = travelling_mode("L", TE, 1.0, 2.0, Slab(n=1.0, L=1.0))
    norm = (2.0 * math.pi) ** -1.5
    x, y = 0.3, 0.4
    ref = None
    for z in (-2.0, 0.2, 2.0):
        val = f.field(x, y, z)
        expected = norm * np.exp(1j * (1.0 * x + 2.0 * z))
        if ref is None:
            ref = val / expected
        assert np.allclose(val / expected, ref, atol=1e-12)
    # R ~ 0 and T ~ 1 for n = 1
    assert abs(slab_R(TE, 2.0, 1.0, 1.0, 1.0)) == 0.0
    assert slab_T(TE, 2.0, 1.0, 1.0, 1.0) == 1.0


def test_travelling_continuity_left_and_right_incidence():
    rng = np.random.default_rng(41)
    for _ in range(10):
        slab = Slab(n=rng.uniform(1.1, 3.0), L=rng.uniform(0.2, 2.5))
        k_par, k_z = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
        for pol in (TE, TM):
            for side in ("L", "R"):
                f = travelling_mode(side, pol, k_par, k_z, slab)
                for z, vac in ((-slab.L / 2.0, "left_vacuum"),
                               (slab.L / 2.0, "right_vacuum")):
                    assert _continuity_mismatch(f, slab, z, vac) < 1e-10


def test_travelling_te_curl_continuity():
    # all B components continuous at both interfaces (computed analytically
    # from each plane-wave piece)
    rng = np.random.default_rng(43)
    for _ in range(5):
        slab = Slab(n=rng.uniform(1.1, 3.0), L=rng.uniform(0.3, 2.0))
        k_par, k_z = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        f = travelling_mode("L", TE, k_par, k_z, slab)
        for z, vac in ((-slab.L / 2.0, "left_vacuum"),
                       (slab.L / 2.0, "right_vacuum")):
            b_vac = f.curl_in(vac, 0.1, 0.2, z)
            b_slab = f.curl_in("slab", 0.1, 0.2, z)
            scale = max(np.abs(b_vac).max(), np.abs(b_slab).max())
            assert np.abs(b_vac - b_slab).max() / scale < 1e-10


def test_slab_amplitudes_solve_the_interface_system():
    # rows: the scalar part and its z derivative match at z = -L/2 and
    # z = +L/2, tangential E and B for TE; for TM (tangential E and normal
    # D) the slab columns carry n in the value rows and 1/n in the
    # derivative rows
    from slabshift.reflection import _slab_amplitudes
    rng = np.random.default_rng(47)
    for _ in range(10):
        k_par, k_z = rng.uniform(0.05, 4.0, size=2)
        L, n = rng.uniform(0.2, 3.0), rng.uniform(1.05, 3.5)
        for pol in (TE, TM):
            R, T, I, J, k_zd = _slab_amplitudes(pol, k_z, k_par, L, n)
            val, der = (1.0, k_zd) if pol is TE else (n, k_zd / n)
            a, b = np.exp(-0.5j * k_z * L), np.exp(0.5j * k_z * L)
            c, d = np.exp(-0.5j * k_zd * L), np.exp(0.5j * k_zd * L)
            mat = np.array([[-b, val * c, val * d, 0.0],
                            [k_z * b, der * c, -der * d, 0.0],
                            [0.0, val * d, val * c, -b],
                            [0.0, der * d, -der * c, -k_z * b]])
            rhs = np.array([a, k_z * a, 0.0, 0.0])
            assert np.abs(mat @ [R, I, J, T] - rhs).max() <= 1e-12


def test_right_incident_is_mirrored_left_incident():
    # scalar parts mirror as they are; the vectors as E_R(x, y, z) =
    # s P E_L(x, y, -z), P = diag(1, 1, -1), s = +1 for TE and -1 for TM
    rng = np.random.default_rng(53)
    cases = [(SLAB, 0.8, 1.4)]
    for _ in range(4):
        slab = Slab(n=rng.uniform(1.1, 3.0), L=rng.uniform(0.2, 2.5))
        cases.append((slab, rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)))
    for slab, k_par, k_z in cases:
        for pol, s in ((TE, 1.0), (TM, -1.0)):
            fl = travelling_mode("L", pol, k_par, k_z, slab)
            fr = travelling_mode("R", pol, k_par, k_z, slab)
            for z in (-1.7, -0.2, 0.2, 1.7):
                assert fr.scalar(0.3, 0.5, z) == pytest.approx(
                    fl.scalar(0.3, 0.5, -z), rel=1e-12)
                e_r = fr.field(0.3, 0.5, z)
                mirrored = s * np.array([1.0, 1.0, -1.0]) \
                    * fl.field(0.3, 0.5, -z)
                assert np.abs(e_r - mirrored).max() \
                    <= 1e-12 * np.abs(e_r).max()


def test_trapped_continuity_all_branches():
    for pol in (TE, TM):
        for parity in ("S", "A"):
            for m in find_trapped_modes(pol, parity, 5.0, SLAB):
                f = trapped_mode(m, SLAB)
                for z, vac in ((-SLAB.L / 2.0, "left_vacuum"),
                               (SLAB.L / 2.0, "right_vacuum")):
                    assert _continuity_mismatch(f, SLAB, z, vac) < 1e-10


def test_trapped_evanescent_decay():
    m = find_trapped_modes(TE, "S", 4.0, SLAB)[0]
    f = trapped_mode(m, SLAB)
    za, zb = 0.9, 1.7
    ratio = abs(f.scalar(0.1, 0.2, zb) / f.scalar(0.1, 0.2, za))
    assert ratio == pytest.approx(math.exp(-m.kappa * (zb - za)), rel=1e-12)


def test_trapped_parity_of_scalar_part():
    for pol in (TE, TM):
        for parity, sign in (("S", 1.0), ("A", -1.0)):
            modes = find_trapped_modes(pol, parity, 6.0, SLAB)
            assert modes
            f = trapped_mode(modes[0], SLAB)
            for z in (0.12, 0.31, 0.9):
                plus = f.scalar(0.2, -0.4, z)
                minus = f.scalar(0.2, -0.4, -z)
                assert minus == pytest.approx(sign * plus, rel=1e-12)


def test_trapped_te_curl_continuity():
    for parity in ("S", "A"):
        modes = find_trapped_modes(TE, parity, 5.0, SLAB)
        assert modes
        f = trapped_mode(modes[0], SLAB)
        for z, vac in ((-SLAB.L / 2.0, "left_vacuum"),
                       (SLAB.L / 2.0, "right_vacuum")):
            b_vac = f.curl_in(vac, 0.0, 0.0, z)
            b_slab = f.curl_in("slab", 0.0, 0.0, z)
            scale = max(np.abs(b_vac).max(), np.abs(b_slab).max())
            assert np.abs(b_vac - b_slab).max() / scale < 1e-10


def test_region_tags():
    m = find_trapped_modes(TE, "S", 4.0, SLAB)[0]
    f = trapped_mode(m, SLAB)
    assert f.region_tag(-3.0) == "left_vacuum"
    assert f.region_tag(0.0) == "slab"
    assert f.region_tag(3.0) == "right_vacuum"
    # field and scalar evaluate the expansion of the region z lies in
    fields = [trapped_mode(m, SLAB) for pol in (TE, TM)
              for m in find_trapped_modes(pol, "A", 6.0, SLAB)[:1]]
    fields += [travelling_mode(side, pol, 0.8, 1.4, SLAB)
               for side in ("L", "R") for pol in (TE, TM)]
    for f in fields:
        for z in (-1.3, -0.5, -0.2, 0.0, 0.4, 0.5, 2.1):
            tag = f.region_tag(z)
            assert np.array_equal(f.field(0.3, -0.1, z),
                                  f.field_in(tag, 0.3, -0.1, z))
            assert f.scalar(0.3, -0.1, z) == f.scalar_in(tag, 0.3, -0.1, z)


def test_travelling_rejects_evanescent_kz():
    with pytest.raises(ValueError):
        travelling_mode("L", TE, 1.0, 0.5j, SLAB)
    with pytest.raises(ValueError):
        travelling_mode("X", TE, 1.0, 1.0, SLAB)
    with pytest.raises(ValueError, match="k_par must be non-negative"):
        travelling_mode("L", TE, -1.0, 1.0, SLAB)
