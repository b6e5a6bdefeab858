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

Both series, phi_H's and the distance series, are summed by one loop that
stops on the geometric-tail majorant beta^{2(M+1)} * B / (1 - beta^2),
where B bounds every bracket b_m with m > M.  The distance brackets fall
with m, so B = b_{M+1}.  phi_H's brackets 1/|(rho, d)| - 1/|(rho, d + 2L)|
fall with the image distance d once d >= rho/sqrt(2); before that turn
they may rise, up to at most 2L * 2/(3 sqrt(3) rho^2), the peak slope of
1/|(rho, d)| times the step 2L.  So B is b_{M+1} past the turn (always,
for rho = 0) and that peak value before it.  The majorant is the
``err_est`` of a series that runs out of terms, and
:func:`image_series_converges` predicts that failure from it.  Where
beta^2 rounds to 1 (n above about 1e8) there is no majorant, and both
series raise ValueError; ``nonretarded_shift`` takes its k integral there.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (AtomSpec, EnergyShift, Slab, _Checked, _count,
                   _slab_shift, finite_power)
from .errors import ConvergenceError

__all__ = ["ImageSeriesSpec", "phi_H", "image_series_shift",
           "image_series_converges"]


class ImageSeriesSpec(_Checked, namedtuple("ImageSeriesSpec", "max_terms",
                                          defaults=(10 ** 6,))):
    """Term budget of the image series."""

    __slots__ = ()

    def _check(self):
        _count(self.max_terms, "max_terms")


# a series stops once its tail majorant is at most TAIL_TOL times its sum;
# :func:`image_series_converges` lets it run at most _FEW_TERMS terms
TAIL_TOL = 1e-14
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
    a0 = z + z_prime - slab.L
    L = slab.L

    def bracket(m: int) -> float:
        # 1/h1 - 1/h2 = (h2^2 - h1^2) / (h1 h2 (h1 + h2)), free of
        # cancellation, in an order that cannot overflow
        d = a0 + 2.0 * m * L
        h1, h2 = math.hypot(rho, d), math.hypot(rho, d + 2.0 * L)
        return 4.0 * (L / (h1 + h2)) * ((d + L) / h2) / h1

    def bound(m: int, b_m: float) -> float:
        # the brackets from m on fall from b_m only past the turn
        if math.sqrt(2.0) * (a0 + 2.0 * m * L) >= rho:
            return b_m
        return 4.0 * L / (3.0 * math.sqrt(3.0) * rho * rho)

    return _image_sum(bracket, bound, beta * beta, spec,
                      "image series for phi_H", scale=-beta / (4.0 * math.pi))


def image_series_shift(atom: AtomSpec, slab: Slab, Z: float,
                       spec: ImageSeriesSpec | None = None) -> EnergyShift:
    """Non-retarded shift from the closed-form image series."""
    spec = spec or ImageSeriesSpec()
    if not Z > 0.0:
        raise ValueError(f"atom-surface distance must be positive, got {Z}")
    if slab.n == 1.0 or slab.L == 0.0:
        return EnergyShift([0.0] * len(atom.transitions))
    # the brackets go as 1/Z^3
    finite_power(Z, 3, "atom-surface distance Z")
    beta = _beta(slab.n)
    dipole_sum = math.fsum(2.0 * tr.mu_perp_sq + tr.mu_par_sq
                           for tr in atom.transitions)
    try:
        # L = inf keeps one term: the loop's majorant is 0/0 for a mirror
        series = _bracket(Z, slab.L, 0) if math.isinf(slab.L) else \
            _image_sum(lambda m: _bracket(Z, slab.L, m), lambda m, b_m: b_m,
                       beta * beta, spec, "image series")
    except ConvergenceError as exc:
        scale = beta / (64.0 * math.pi) * dipole_sum
        raise ConvergenceError(str(exc), estimate=-scale * exc.estimate,
                               err_est=scale * exc.err_est) from None
    pref = -beta / (64.0 * math.pi) * series
    contribs = [pref * (2.0 * tr.mu_perp_sq + tr.mu_par_sq)
                for tr in atom.transitions]
    return _slab_shift(contribs, slab)


def image_series_converges(slab: Slab, Z: float,
                           spec: ImageSeriesSpec | None = None) -> bool:
    """False if the distance series cannot meet ``TAIL_TOL`` in few terms.

    Partial sums stay below 1/Z^3 (Z > 0) and the majorant falls with m, so
    a majorant above TAIL_TOL/Z^3 at term M means the loop runs past M
    terms; the 1e-6 margin covers its rounding.  M is ``max_terms``, capped
    at ``_FEW_TERMS``: a longer series is still exact in principle, but near
    a mirror its running sum drifts by rounding (1.5e-13 to 9.7e-13
    relative at n = 300 to 1e4, L/Z = 0.1 or 1) and takes 26-300 ms.
    """
    spec = spec or ImageSeriesSpec()
    beta = _beta(slab.n)
    beta2 = beta * beta
    m = min(spec.max_terms, _FEW_TERMS)
    last = beta2 ** m * _bracket(Z, slab.L, m) / (1.0 - beta2) \
        if beta2 < 1.0 else math.inf
    return last <= (1.0 + 1e-6) * TAIL_TOL / Z ** 3


def _bracket(Z: float, L: float, m: int) -> float:
    """1/a^3 - 1/b^3 with a = Z + mL and b = a + L.

    Written as (1 - q^3)/a^3 with q = a/b and 1 - q = L/b, so nothing
    cancels when L << a; as L/b <= 1 and 1 + q + q^2 <= 3, only a^3 can
    overflow, and only where the bracket is below the doubles anyway.
    """
    if math.isinf(L):  # a = b = inf past the first term
        return 0.0 if m else 1.0 / Z ** 3
    a = Z + m * L
    b = a + L
    q = a / b
    return (L / b) * (1.0 + q + q * q) / (a * a * a)


def _image_sum(bracket, bound, beta2: float, spec: ImageSeriesSpec,
               what: str, scale: float = 1.0) -> float:
    """``scale * sum_m beta2^m bracket(m)``, stopped by the tail majorant;
    ``bound(m, bracket(m))`` bounds every bracket from m on."""
    if not beta2 < 1.0:
        raise ValueError(f"{what}: beta^2 = {beta2!r} is not below 1 (n above "
                         "about 1e8), so its tail has no bound")
    total = 0.0
    weight = 1.0  # beta2^m
    b_next = bracket(0)
    for m in range(spec.max_terms):
        total += weight * b_next
        weight *= beta2
        b_next = bracket(m + 1)
        tail = weight * bound(m + 1, b_next) / (1.0 - beta2)
        if tail <= TAIL_TOL * abs(total):
            return scale * total
    raise ConvergenceError(
        f"{what} did not converge within {spec.max_terms} terms",
        estimate=scale * total, err_est=abs(scale) * tail)
