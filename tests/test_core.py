import math
import pickle
import sys

import numpy as np
import pytest

from slabshift import (AtomSpec, EnergyShift, ImageSeriesSpec, QuadratureSpec,
                       ReducedParams, Slab, Transition, WPair, assemble_shift,
                       dipole_sq_from_momentum, reduce, static_polarizability)
from slabshift.core import finite_power
from slabshift.units import FINE_STRUCTURE


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


def test_reduce_rejects_a_lam_that_underflows_to_zero():
    # L*E_ji = 1e-330 rounds to 0, which would read as a transparent slab
    with pytest.raises(ValueError, match="underflows to 0"):
        reduce(Slab(n=2.0, L=1e-250), Transition(1e-80, 2.0, 1.0), Z=1e4)


def test_assemble_rejects_a_slab_shift_that_underflows_to_zero():
    # only n = 1 or L = 0 make a shift 0; W here is the one at
    # zeta = 1e60, lam = 1e-100
    atom = AtomSpec([Transition(1.0, 2.0, 1.0)])
    pairs = [WPair(3.07e-160, 3.07e-160)]
    with pytest.raises(ValueError, match="below the normal doubles"):
        assemble_shift(atom, Slab(n=2.0, L=1e-100), 1e60, pairs)
    for slab in (Slab(n=1.0, L=1e-100), Slab(n=2.0, L=0.0)):
        assert assemble_shift(atom, slab, 1e60, pairs).value == 0.0


def test_type_validation():
    with pytest.raises(ValueError):
        Slab(n=0.5, L=1.0)
    with pytest.raises(ValueError):
        Slab(n=2.0, L=-1.0)
    for E_ji in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="transition energy must be "
                                             "positive and finite"):
            Transition(E_ji=E_ji, mu_par_sq=1.0, mu_perp_sq=1.0)
    with pytest.raises(ValueError):
        Transition(E_ji=1.0, mu_par_sq=0.0, mu_perp_sq=0.0)
    with pytest.raises(ValueError):
        AtomSpec([])
    with pytest.raises(ValueError):
        ReducedParams(zeta=0.0, lam=1.0, n=2.0)
    with pytest.raises(ValueError):
        WPair(w_par=1.0, w_z=1.0, err_par=-1.0)


@pytest.mark.parametrize("squares", [(math.nan, 1.0), (1.0, math.inf),
                                     (math.inf, math.inf)])
def test_transition_rejects_non_finite_dipole_squares(squares):
    with pytest.raises(ValueError, match="non-negative and finite"):
        Transition(1.0, *squares)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_energy_shift_rejects_a_non_finite_contribution(bad):
    # one home for assemble_shift and every closed form
    with pytest.raises(ValueError, match="shift of transition 1 is"):
        EnergyShift([-1.0, bad])
    tr = Transition(1e-10, 1e300, 1.0)
    with pytest.raises(ValueError, match="not a finite double"):
        assemble_shift(AtomSpec([tr]), Slab(2.0, 1e-5), 1e-5, [WPair(0.4, 0.9)])


def test_wpair_component_bounds():
    # err_est is derived from the component bounds, which must be >= 0
    assert WPair(1.0, 1.0).err_est == 0.0
    wp = WPair(1.0, 1.0, err_par=0.5, err_z=0.25)
    assert (wp.err_par, wp.err_z, wp.err_est) == (0.5, 0.25, 0.5)
    assert WPair(1.0, 1.0, err_par=0.1, err_z=0.3).err_est == 0.3
    for bad in ({"err_par": -0.1}, {"err_z": -0.1}, {"err_z": math.nan}):
        with pytest.raises(ValueError, match="non-negative"):
            WPair(1.0, 1.0, **bad)


def test_energy_shift_invariant():
    # the total is derived from the contributions, so it cannot disagree
    s = EnergyShift([0.4, 0.4])
    assert s.per_transition == (0.4, 0.4)
    assert s.value == pytest.approx(0.8, rel=1e-15)
    assert EnergyShift([1.0, 1e-17, -1.0]).value == 1e-17
    assert EnergyShift([0.0, -0.0]).value == 0.0


@pytest.mark.parametrize("tiny", [5e-324, -1e-310, 0.5 * sys.float_info.min])
def test_energy_shift_rejects_a_subnormal_contribution(tiny):
    with pytest.raises(ValueError, match="shift of transition 1 is .* below "
                                         "the normal doubles"):
        EnergyShift([-1.0, tiny])
    assert EnergyShift([-1.0, sys.float_info.min]).value == -1.0


def test_energy_shift_stores_a_zero_as_positive_zero():
    s = EnergyShift([-0.0, 0.0])
    assert [math.copysign(1.0, c) for c in s.per_transition] == [1.0, 1.0]
    assert math.copysign(1.0, s.value) == 1.0


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


@pytest.mark.parametrize("Z", [1e-100, 1e-80, 1e78])
def test_assemble_rejects_z4_outside_the_normal_doubles(Z):
    # Z**4 is zero, subnormal or past the largest double
    atom = AtomSpec([Transition(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match=r"out of range: Z\*\*4 "):
        assemble_shift(atom, Slab(2.0, 1.0), Z, [WPair(0.3, 0.2)])


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
    mu_sq = dipole_sq_from_momentum(p_sq, E, m=m)
    p_back = mu_sq * m * m * E * E / (4.0 * math.pi * alpha)
    assert p_back == pytest.approx(p_sq, rel=1e-14)


def test_dipole_sq_rejects_bad_domain():
    with pytest.raises(ValueError):
        dipole_sq_from_momentum(1.0, 0.0)
    with pytest.raises(ValueError):
        dipole_sq_from_momentum(1.0, 1.0, m=0.0)
    # a negative p_sq gave a negative mu^2, and an infinite E_ji a 0
    for p_sq in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            dipole_sq_from_momentum(p_sq, 1.0)
    for E_ji in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            dipole_sq_from_momentum(1.0, E_ji)


@pytest.mark.parametrize("alpha_fs", [-1.0, 0.0, math.inf, math.nan])
def test_dipole_sq_rejects_a_fine_structure_constant_out_of_range(alpha_fs):
    # alpha_fs = -1 gave a negative dipole square, -12.57; the constant is
    # FINE_STRUCTURE now, and no caller can pass another
    with pytest.raises(TypeError, match="alpha_fs"):
        dipole_sq_from_momentum(1.0, 1.0, alpha_fs=alpha_fs)
    assert dipole_sq_from_momentum(1.0, 1.0) == 4.0 * math.pi * FINE_STRUCTURE


@pytest.mark.parametrize("m", [math.inf, math.nan, -1.0])
def test_dipole_sq_rejects_an_electron_mass_out_of_range(m):
    # m = inf gave a dipole square of 0.0
    with pytest.raises(ValueError, match="electron mass m must be positive "
                                         "and finite"):
        dipole_sq_from_momentum(1.0, 1.0, m=m)


@pytest.mark.parametrize("x, k", [(-2.0, 4), (-2.0, 3), (0.0, 4), (-0.0, 4),
                                  (math.nan, 4)])
def test_finite_power_rejects_a_base_that_is_not_positive(x, k):
    # (-2)^4 = 16 is a normal double, yet no distance is negative
    with pytest.raises(ValueError, match="atom-surface distance Z must be "
                                         "positive, got "):
        finite_power(x, k, "atom-surface distance Z")


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


@pytest.mark.parametrize("field, value, match", [
    ("rel_tol", math.inf, "rel_tol must be positive and finite"),
    ("rel_tol", math.nan, "rel_tol must be positive and finite"),
    ("rel_tol", 0.0, "rel_tol must be positive and finite"),
    ("abs_tol", math.inf, "abs_tol must be positive and finite"),
    ("abs_tol", -1e-14, "abs_tol must be positive and finite"),
    ("max_subdivisions", 1.5, "max_subdivisions must be an integer >= 1"),
    ("max_subdivisions", 0, "max_subdivisions must be an integer >= 1"),
    ("max_subdivisions", "10", "max_subdivisions must be an integer >= 1"),
])
def test_quadrature_spec_rejects_a_field_out_of_range(field, value, match):
    # 1.5 subdivisions ended in a bare TypeError, and an infinite
    # tolerance was accepted
    with pytest.raises(ValueError, match=match):
        QuadratureSpec(**{field: value})
    with pytest.raises(ValueError, match=match):
        QuadratureSpec()._replace(**{field: value})


@pytest.mark.parametrize("field, value, match", [
    ("max_terms", 2.5, "max_terms must be an integer >= 1"),
    ("max_terms", 0, "max_terms must be an integer >= 1"),
    ("max_terms", "10", "max_terms must be an integer >= 1"),
])
def test_image_series_spec_rejects_a_field_out_of_range(field, value, match):
    # 2.5 terms ended in a bare TypeError
    with pytest.raises(ValueError, match=match):
        ImageSeriesSpec(**{field: value})
    with pytest.raises(ValueError, match=match):
        ImageSeriesSpec()._replace(**{field: value})


# every value type with checks: a valid value, and a field that fails them
CHECKED = [
    (Slab(2.0, 1.0), {"n": 0.5}),
    (Transition(1.0, 2.0, 1.0), {"E_ji": math.inf}),
    (AtomSpec([Transition(1.0, 2.0, 1.0)]), {"transitions": []}),
    (QuadratureSpec(rel_tol=1e-6), {"max_subdivisions": 1.5}),
    (ReducedParams(1.0, math.inf, 2.0), {"zeta": 0.0}),
    (WPair(1.0, 0.5, 1e-9, 2e-9), {"err_z": -1.0}),
    (EnergyShift([-1.0, 0.0]), {"per_transition": [math.nan]}),
    (ImageSeriesSpec(max_terms=50), {"max_terms": 0}),
]


@pytest.mark.parametrize("value, bad", CHECKED,
                         ids=[type(v).__name__ for v, _ in CHECKED])
def test_value_types_check_every_construction(value, bad):
    cls = type(value)
    with pytest.raises(ValueError) as built:
        cls(**{**value._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        value._replace(**bad)
    assert str(replaced.value) == str(built.value)
    # the --jobs pool pickles the spec and the W pairs
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and again == value
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1.0
