import math

import numpy as np
import pytest

from slabshift import (AtomSpec, EnergyShift, ReducedParams, Slab, Transition,
                       WPair, assemble_shift, dipole_sq_from_momentum, reduce,
                       static_polarizability)


def test_reduce_unit_inputs():
    p = reduce(Slab(n=2.0, L=1.0), Transition(1.0, 1.0, 1.0), Z=1.0)
    assert (p.zeta, p.lam, p.n) == (1.0, 1.0, 2.0)


def test_reduce_zero_thickness():
    p = reduce(Slab(n=2.0, L=0.0), Transition(3.0, 1.0, 1.0), Z=2.0)
    assert (p.zeta, p.lam, p.n) == (6.0, 0.0, 2.0)


def test_reduce_plain_multiplication():
    p = reduce(Slab(n=1.5, L=0.5), Transition(2.0, 1.0, 0.0), Z=4.0)
    assert (p.zeta, p.lam, p.n) == (8.0, 1.0, 1.5)


def test_reduce_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        reduce(Slab(n=2.0, L=1.0), Transition(1.0, 1.0, 1.0), Z=0.0)
    with pytest.raises(ValueError):
        reduce(Slab(n=2.0, L=1.0), Transition(1.0, 1.0, 1.0), Z=-1.0)


def test_type_validation():
    with pytest.raises(ValueError):
        Slab(n=0.5, L=1.0)
    with pytest.raises(ValueError):
        Slab(n=2.0, L=-1.0)
    with pytest.raises(ValueError):
        Transition(E_ji=0.0, mu_par_sq=1.0, mu_perp_sq=1.0)
    with pytest.raises(ValueError):
        Transition(E_ji=1.0, mu_par_sq=0.0, mu_perp_sq=0.0)
    with pytest.raises(ValueError):
        AtomSpec([])
    with pytest.raises(ValueError):
        ReducedParams(zeta=0.0, lam=1.0, n=2.0)
    with pytest.raises(ValueError):
        WPair(w_par=1.0, w_z=1.0, err_est=-1.0)


def test_energy_shift_invariant():
    with pytest.raises(ValueError):
        EnergyShift(value=1.0, per_transition=(0.4, 0.4))
    s = EnergyShift.from_contributions([0.4, 0.4])
    assert s.value == pytest.approx(0.8, rel=1e-15)


def test_assemble_transparent_slab_gives_zero():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    s = assemble_shift(atom, Slab(n=1.0, L=1.0), 1.0, [WPair(0.0, 0.0)])
    assert s.value == 0.0


def test_assemble_unit_plugin():
    # W_par = W_z = 1, both dipole squares 1, E_ji = Z = 1:
    # delta E = -2/(16 pi^2) = -1/(8 pi^2)
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    s = assemble_shift(atom, Slab(n=2.0, L=1.0), 1.0, [WPair(1.0, 1.0)])
    assert s.value == pytest.approx(-1.0 / (8.0 * math.pi ** 2), rel=1e-14)


def test_assemble_two_identical_transitions_doubles():
    tr = Transition(1.0, 1.0, 1.0)
    one = assemble_shift(AtomSpec([tr]), Slab(2.0, 1.0), 1.0, [WPair(0.7, 0.3)])
    two = assemble_shift(AtomSpec([tr, tr]), Slab(2.0, 1.0), 1.0,
                         [WPair(0.7, 0.3), WPair(0.7, 0.3)])
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-14)


def test_assemble_length_mismatch():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        assemble_shift(atom, Slab(2.0, 1.0), 1.0, [])


def test_assemble_linear_in_dipole_squares():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.uniform(0.1, 10.0)
        mu_par, mu_perp = rng.uniform(0.1, 3.0, size=2)
        w = WPair(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        base = assemble_shift(AtomSpec([Transition(1.0, mu_par, mu_perp)]),
                              Slab(2.0, 1.0), 1.0, [w])
        scaled = assemble_shift(
            AtomSpec([Transition(1.0, c * mu_par, c * mu_perp)]),
            Slab(2.0, 1.0), 1.0, [w])
        assert scaled.value == pytest.approx(c * base.value, rel=1e-12)


def test_shift_negative_for_positive_w():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    s = assemble_shift(atom, Slab(2.0, 1.0), 1.0, [WPair(0.3, 0.2)])
    assert s.value < 0.0


def test_dipole_sq_from_momentum_zero():
    assert dipole_sq_from_momentum(0.0, 1.0) == 0.0


def test_dipole_sq_quarter_at_double_energy():
    lo = dipole_sq_from_momentum(1.0, 1.0)
    hi = dipole_sq_from_momentum(1.0, 2.0)
    assert hi == pytest.approx(lo / 4.0, rel=1e-14)


def test_dipole_sq_round_trip():
    # invert |mu|^2 = 4 pi alpha |p|^2 / (m^2 E^2)
    alpha, m, E = 7.2973525693e-3, 3.1, 1.7
    p_sq = 0.42
    mu_sq = dipole_sq_from_momentum(p_sq, E, alpha, m)
    p_back = mu_sq * m * m * E * E / (4.0 * math.pi * alpha)
    assert p_back == pytest.approx(p_sq, rel=1e-14)


def test_dipole_sq_rejects_bad_domain():
    with pytest.raises(ValueError):
        dipole_sq_from_momentum(1.0, 0.0)
    with pytest.raises(ValueError):
        dipole_sq_from_momentum(1.0, 1.0, m=0.0)


def test_static_polarizability_plugin():
    atom = AtomSpec([Transition(E_ji=2.0, mu_par_sq=2.0, mu_perp_sq=1.0)])
    assert static_polarizability(atom) == pytest.approx(1.0, rel=1e-14)


def test_static_polarizability_sum():
    atom = AtomSpec([Transition(1.0, 2.0, 1.0), Transition(2.0, 2.0, 1.0)])
    assert static_polarizability(atom) == pytest.approx(3.0, rel=1e-14)


def test_static_polarizability_rejects_anisotropic():
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        static_polarizability(atom)


@pytest.mark.parametrize("zeta", [math.inf, math.nan, 0.0, -1.0])
def test_reduced_params_rejects_zeta_outside_the_positive_doubles(zeta):
    with pytest.raises(ValueError, match="zeta must be positive and finite"):
        ReducedParams(zeta=zeta, lam=1.0, n=2.0)
