"""Electrostatic image-charge treatment of the non-retarded shift.

For source and field points on the same side of the slab (z, z' > L/2) the
harmonic part of the unit-charge potential is a geometric series of image
charges generated by repeated reflections between the two interfaces:

    Phi_H = -(beta / 4 pi) sum_{m>=0} beta^{2m}
            [ 1/sqrt(rho^2 + (z+z'-L+2mL)^2)
              - 1/sqrt(rho^2 + (z+z'+L+2mL)^2) ],

with beta = (n^2-1)/(n^2+1).  Contracting the mixed second derivatives of
Phi_H with the dipole fluctuations at the atom's position gives the
non-retarded shift in closed form,

    Delta E = -(beta / 64 pi) sum_j (2 |mu_perp|^2 + |mu_par|^2)
              sum_{m>=0} beta^{2m} [ 1/(Z+mL)^3 - 1/(Z+(m+1)L)^3 ],

which doubles as the exact oracle for the non-retarded quadrature route.
The derivatives are carried out analytically term by term (each term is an
inverse distance); the finite-difference evaluation is kept in the test
suite only.

Truncation uses the geometric-tail majorant beta^{2(M+1)} * B / (1 - beta^2),
where B bounds every bracket b_m with m > M.  The brackets 1/|(rho, d)| -
1/|(rho, d + 2L)| fall with the image distance d once d >= rho/sqrt(2);
before that turn they may rise, up to at most 2L * 2/(3 sqrt(3) rho^2),
the peak slope of 1/|(rho, d)| times the step 2L.  So B is b_{M+1} past
the turn (always, for rho = 0) and that peak value before it.  The
majorant is the ``err_est`` of a series that runs out of terms, and
:func:`image_series_converges` predicts that failure from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AtomSpec, EnergyShift, Slab
from .errors import ConvergenceError

__all__ = ["ImageSeriesSpec", "phi_H", "image_series_shift",
           "image_series_converges"]


@dataclass(frozen=True)
class ImageSeriesSpec:
    """Truncation control for the image series."""

    tail_tol: float = 1e-14
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if not self.tail_tol > 0.0:
            raise ValueError("tail_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


# the most terms :func:`image_series_converges` lets the series run
_FEW_TERMS = 10 ** 4


def _beta(n: float) -> float:
    return (n * n - 1.0) / (n * n + 1.0)


def phi_H(rho: float, z: float, z_prime: float, slab: Slab,
          spec: ImageSeriesSpec | None = None) -> float:
    """Harmonic part of the unit-charge potential for z, z' > L/2."""
    spec = spec or ImageSeriesSpec()
    if rho < 0.0:
        raise ValueError(f"transverse separation must be non-negative, got {rho}")
    if not (z > slab.L / 2.0 and z_prime > slab.L / 2.0):
        raise ValueError("phi_H requires both heights above the near surface "
                         "(z, z' > L/2)")
    if slab.n == 1.0:
        return 0.0
    beta = _beta(slab.n)
    beta2 = beta * beta
    a0 = z + z_prime - slab.L
    L = slab.L

    def bracket(m: int) -> float:
        return (1.0 / math.hypot(rho, a0 + 2.0 * m * L)
                - 1.0 / math.hypot(rho, a0 + 2.0 * (m + 1) * L))

    total = 0.0
    weight = 1.0  # beta^(2m)
    for m in range(spec.max_terms):
        total += weight * bracket(m)
        weight *= beta2
        # the brackets after m fall from b_(m+1) only past the turn
        past_turn = math.sqrt(2.0) * (a0 + 2.0 * (m + 1) * L) >= rho
        tail = _tail_majorant(weight, bracket(m + 1) if past_turn else
                              4.0 * L / (3.0 * math.sqrt(3.0) * rho * rho),
                              beta2)
        if tail <= spec.tail_tol * abs(total):
            return -beta / (4.0 * math.pi) * total
    raise ConvergenceError(
        f"image series for phi_H did not converge within {spec.max_terms} terms",
        estimate=-beta / (4.0 * math.pi) * total,
        err_est=beta / (4.0 * math.pi) * tail)


def image_series_shift(atom: AtomSpec, slab: Slab, Z: float,
                       spec: ImageSeriesSpec | None = None) -> EnergyShift:
    """Non-retarded shift from the closed-form image series."""
    spec = spec or ImageSeriesSpec()
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    if slab.n == 1.0:
        return EnergyShift.from_contributions([0.0] * len(atom.transitions))
    beta = _beta(slab.n)
    dipole_sum = math.fsum(2.0 * tr.mu_perp_sq + tr.mu_par_sq
                           for tr in atom.transitions)
    try:
        series = _distance_series(Z, slab.L, beta, spec)
    except ConvergenceError as exc:
        scale = beta / (64.0 * math.pi) * dipole_sum
        raise ConvergenceError(str(exc), estimate=-scale * exc.estimate,
                               err_est=scale * exc.err_est) from None
    pref = -beta / (64.0 * math.pi) * series
    contribs = [pref * (2.0 * tr.mu_perp_sq + tr.mu_par_sq)
                for tr in atom.transitions]
    return EnergyShift.from_contributions(contribs)


def image_series_converges(slab: Slab, Z: float,
                           spec: ImageSeriesSpec | None = None) -> bool:
    """False if the distance series cannot meet ``tail_tol`` in few terms.

    Partial sums stay below 1/Z^3 (Z > 0) and the majorant falls with m, so
    a majorant above tail_tol/Z^3 at term M means the loop runs past M
    terms; the 1e-6 margin covers its rounding.  M is ``max_terms``, capped
    at ``_FEW_TERMS``: a longer series is still exact in principle, but near
    a mirror its running sum drifts by rounding (1.5e-13 to 9.7e-13
    relative at n = 300 to 1e4, L/Z = 0.1 or 1) and takes 26-300 ms.
    """
    spec = spec or ImageSeriesSpec()
    beta = _beta(slab.n)
    beta2 = beta * beta
    m = min(spec.max_terms, _FEW_TERMS)
    last = _tail_majorant(beta2 ** m, _bracket(Z, slab.L, m),
                          beta2) if beta2 < 1.0 else math.inf
    return last <= (1.0 + 1e-6) * spec.tail_tol / Z ** 3


def _bracket(Z: float, L: float, m: int) -> float:
    return 1.0 / (Z + m * L) ** 3 - 1.0 / (Z + (m + 1) * L) ** 3


def _tail_majorant(weight: float, bracket: float, beta2: float) -> float:
    """Bound on the terms after m, given beta^(2(m+1)) and b_(m+1)."""
    return weight * bracket / (1.0 - beta2)


def _distance_series(Z: float, L: float, beta: float,
                     spec: ImageSeriesSpec) -> float:
    """sum_m beta^(2m) [1/(Z+mL)^3 - 1/(Z+(m+1)L)^3], tail-bounded."""
    if L == 0.0:
        return 0.0
    if math.isinf(L):
        return 1.0 / Z ** 3
    beta2 = beta * beta
    total = 0.0
    weight = 1.0
    bracket = _bracket(Z, L, 0)
    for m in range(spec.max_terms):
        total += weight * bracket
        weight *= beta2
        bracket = _bracket(Z, L, m + 1)
        tail = _tail_majorant(weight, bracket, beta2)
        if tail <= spec.tail_tol * abs(total):
            return total
    raise ConvergenceError(
        f"image series did not converge within {spec.max_terms} terms",
        estimate=total, err_est=tail)
