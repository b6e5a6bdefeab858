"""The first retardation correction to the non-retarded shift.

At fixed ``rho = L/Z`` the reflection coefficients in W's ``(u, t)``
variables (``u = 2 zeta s``) depend on ``(u, t, rho, n)`` alone, as
``Lam = lam s g = rho u g / 2``; zeta enters only through ``1/(1 + s^2
t^2)``.  With ``F_par = (R_TM - t^2 R_TE)/8``, ``F_z = (1 - t^2) R_TM/4``
and ``F0_k(u) = F_k(u, 0)``, ``W_k = zeta A1_k + zeta^2 A2_k + O(zeta^3)``:

    A1_k = pi Int u^2 e^-u F0_k du,
    A2_k = 4 Int Int u e^-u (F_k - F0_k)/t^2 dt du - 4 Int u e^-u F0_k du,

from ``Int_0^1 dt/(1 + s^2 t^2) = atan(s)/s = pi/2s - 1/s^2 + O(s^-4)`` and
the tail ``1/(s^2 t^2)`` of the rest.  ``zeta A1`` is the non-retarded
shift, so its deviation from the full shift is ``C zeta + O(zeta^2)`` with
``C = -A2/A1``, A1 and A2 weighted as the atom's dipoles weight W.
"""

import math

import pytest
from scipy.integrate import dblquad, quad

from slabshift import (AtomSpec, QuadratureSpec, ReducedParams, Slab,
                       Transition, nonretarded_shift, w_pair)

# an isotropic atom: mu_par^2 = 2 mu_perp^2
MU_PAR_SQ, MU_PERP_SQ = 2.0, 1.0


def _weighted_f(u: float, t: float, rho: float, n: float) -> float:
    """``mu_par^2 F_par + mu_perp^2 F_z``, with the contour reflection
    coefficients written out from their formula: ``c = n^2 - 1``,
    ``g = sqrt(1 + c t^2)`` and ``coth(Lam)``."""
    c = (n - 1.0) * (n + 1.0)
    g = math.sqrt(1.0 + c * t * t)
    coth = 1.0 / math.tanh(0.5 * rho * u * g)
    te = -c * t * t / (2.0 + c * t * t + 2.0 * g * coth)
    tm = ((c * (n * n + 1.0) - c * t * t)
          / (n ** 4 + 1.0 + c * t * t + 2.0 * n * n * g * coth))
    return (MU_PAR_SQ * (tm - t * t * te) / 8.0
            + MU_PERP_SQ * (1.0 - t * t) * tm / 4.0)


def _a1_and_c(rho: float, n: float) -> tuple[float, float]:
    """The weighted A1 and ``C = -A2/A1``, from scipy's adaptive rules."""
    def line(power):
        return quad(lambda u: u ** power * math.exp(-u)
                    * _weighted_f(u, 0.0, rho, n),
                    0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    rest = dblquad(lambda t, u: u * math.exp(-u) * (
        _weighted_f(u, t, rho, n) - _weighted_f(u, 0.0, rho, n)) / (t * t),
        0.0, math.inf, 0.0, 1.0, epsabs=0.0, epsrel=1e-11)[0]
    a1 = math.pi * line(2)
    return a1, -(4.0 * rest - 4.0 * line(1)) / a1


@pytest.mark.parametrize("rho, n, expected", [
    (1.0, 1.5, 1.00426), (1.0, 2.0, 1.00747), (1.0, 4.0, 0.99680),
    (0.1, 1.5, 0.75094), (0.1, 2.0, 0.72209), (0.1, 4.0, 0.71422)])
def test_nonretarded_deviation_has_the_derived_slope(rho, n, expected):
    a1, c = _a1_and_c(rho, n)
    assert round(c, 5) == expected
    # zeta A1 is the library's non-retarded form (at E_ji = 1, Z = zeta)
    atom = AtomSpec([Transition(1.0, MU_PAR_SQ, MU_PERP_SQ)])
    nonretarded = nonretarded_shift(atom, Slab(n, rho), 1.0).value
    assert -16.0 * math.pi ** 2 * nonretarded == pytest.approx(a1, rel=1e-10)

    slopes, gaps = [], []
    for zeta in (1e-2, 1e-3, 1e-4):
        w = w_pair(ReducedParams(zeta, rho * zeta, n),
                   QuadratureSpec(rel_tol=1e-12))
        weighted = MU_PAR_SQ * w.w_par + MU_PERP_SQ * w.w_z
        err = MU_PAR_SQ * w.err_par + MU_PERP_SQ * w.err_z
        slopes.append((1.0 - weighted / (zeta * a1)) / zeta - c)
        gaps.append(abs(weighted - zeta * a1 * (1.0 - c * zeta)) / err)
    falls = [a / b for a, b in zip(slopes, slopes[1:])]
    note = (f"C {c:.6f}, dev/zeta - C {slopes}, falls {falls}, "
            f"gaps {gaps} err_est")
    # the fall is W's, not its cubature error's: each gap between W and
    # the two-term form spans many err_est (at least 7e3 at zeta 1e-4)
    assert min(gaps) > 1e3, note
    assert all(8.0 <= f <= 12.0 for f in falls), note
