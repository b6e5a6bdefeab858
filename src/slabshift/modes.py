"""Electromagnetic field modes of the dielectric slab.

Travelling modes are incident/reflected/transmitted plane-wave solutions
of real vacuum wave numbers (k_par, k_z > 0), with the amplitudes R, T
and inside I, J of the closed forms in :mod:`slabshift.reflection`;
trapped modes are discrete solutions bound by total internal reflection,
oscillatory inside the slab and evanescent (e^{-kappa |z|}) outside.
Every mode is the product of a polarization vector and a piecewise scalar
function; the momentum-space polarization vectors are

    e_TE(k) = (k_y, -k_x, 0) / k_par,
    e_TM(k) = (k_x k_z, k_y k_z, -k_par^2) / (n_med * omega * k_par),

applied per plane-wave piece with that piece's wave vector and medium.
For trapped modes k_z = +-i*kappa outside the slab, so e_TM is complex and
deliberately not renormalized to unit length: the printed normalization
constants M_TE, M_TM assume the vectors exactly as written.

Trapped-mode wave numbers solve the transcendental dispersion relations

    kappa =  k_zd tan(k_zd L/2)          symmetric scalar part (S), TE
    kappa = -k_zd cot(k_zd L/2)          antisymmetric (A), TE
    kappa =  k_zd tan(k_zd L/2) / n^2    symmetric (S), TM
    kappa = -k_zd cot(k_zd L/2) / n^2    antisymmetric (A), TM

with kappa = sqrt((n^2-1) k_par^2 - k_zd^2) / n, pairing each parity with
the branch that the interface continuity conditions actually select (the
S/A label refers to the parity of the scalar part under z -> -z).  The
left side of each relation decreases and the right side increases along
every tan/cot branch, so each branch holds at most one root and plain
bisection between branch edges is complete and unconditionally robust.
The solver bisects the brackets of all branches together, as arrays.

Wave vectors are taken in the x-z plane (k_par along x); fields for any
other azimuth follow by rotation.  A mode is stored as one table: per
region (left vacuum, slab, right vacuum) its plane waves (amplitude, k_z,
polarization).  The right-incident travelling mode is the left-incident
table mirrored in z = 0: regions reversed and every k_z negated, so that
E_R(x, y, z) = s P E_L(x, y, -z) with P = diag(1, 1, -1) and s = +1 (TE)
or -1 (TM).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from .core import Slab, _positive_finite, finite_power
from .reflection import Polarization, _slab_amplitudes, slab_denominator

__all__ = [
    "TrappedMode",
    "ModeField",
    "dispersion_mismatch",
    "find_trapped_modes",
    "pole_alignment_check",
    "travelling_mode",
    "trapped_mode",
]

MODE_NORMALIZATION = (2.0 * math.pi) ** -1.5  # travelling-mode prefactor

# most branches bracketed per dispersion relation (10^6 modes over all four)
MAX_BRANCHES = 250_000

_REGION_TAGS = ("left_vacuum", "slab", "right_vacuum")


class TrappedMode(namedtuple("TrappedMode",
                             "pol parity k_par k_zd kappa residual")):
    """One root of a slab dispersion relation; ``parity`` is "S" or "A",
    that of the scalar part."""

    __slots__ = ()


def _dispersion_sides(pol: Polarization, parity: str, k_zd: np.ndarray,
                      k_par: float, slab: Slab) -> tuple[np.ndarray, np.ndarray]:
    """(kappa(k_zd), rhs(k_zd)) of one dispersion relation, elementwise."""
    n = slab.n
    kappa = np.sqrt(np.maximum((n * n - 1.0) * k_par * k_par - k_zd ** 2,
                               0.0)) / n
    theta = 0.5 * k_zd * slab.L
    if parity == "S":
        rhs = k_zd * np.tan(theta)
    elif parity == "A":
        rhs = -k_zd / np.tan(theta)
    else:
        raise ValueError(f"parity must be 'S' or 'A', got {parity!r}")
    if pol is Polarization.TM:
        rhs = rhs / (n * n)
    return kappa, rhs


def dispersion_mismatch(pol: Polarization, parity: str, k_zd, k_par: float,
                        slab: Slab):
    """kappa(k_zd) - rhs(k_zd); zero exactly on a trapped mode.

    Vectorized over ``k_zd`` for scanning.
    """
    kappa, rhs = _dispersion_sides(pol, parity, np.asarray(k_zd, dtype=float),
                                   k_par, slab)
    return kappa - rhs


def find_trapped_modes(pol: Polarization, parity: str, k_par: float,
                       slab: Slab) -> list[TrappedMode]:
    """All trapped modes of one polarization/parity at fixed k_par.

    Returns the complete, ascending-in-k_zd list of roots in
    (0, sqrt(n^2-1) k_par); the list is empty below cutoff.  Every branch
    is bracketed by its edges, and all the brackets are bisected together,
    one ``dispersion_mismatch`` call per step.
    """
    if parity not in ("S", "A"):
        raise ValueError(f"parity must be 'S' or 'A', got {parity!r}")
    _positive_finite(k_par, "k_par")
    n, L = slab.n, slab.L
    if n == 1.0 or L == 0.0 or math.isinf(L):
        return []
    k_zd_max = math.sqrt(n * n - 1.0) * k_par
    theta_max = 0.5 * k_zd_max * L
    kappa0 = k_zd_max / n

    # branch-opening angles below theta_max: tan branches for S, cot for A
    offset = 0.0 if parity == "S" else 0.5 * math.pi
    if not (theta_max - offset) / math.pi < MAX_BRANCHES:
        raise ValueError(f"k_par = {k_par!r}, n = {n!r}, L = {L!r} open "
                         f"{theta_max / math.pi:.3g} branches per dispersion "
                         f"relation, more than the {MAX_BRANCHES} allowed")
    # else the dispersion relations' (n^2 - 1) k_par^2 leaves the doubles
    finite_power(k_par, 2, "k_par", n * n - 1.0)
    theta_start = offset + math.pi * np.arange(
        math.ceil((theta_max - offset) / math.pi) + 1)
    theta_start = theta_start[theta_start < theta_max]
    theta_end = np.minimum(theta_start + 0.5 * math.pi, theta_max)
    lo = 2.0 * theta_start / L
    hi = 2.0 * theta_end / L
    # nudge off the branch edges where tan/cot are singular or zero
    eps = 1e-12 * (hi - lo) + 1e-300
    lo = lo + eps
    hi = np.minimum(np.where(theta_end < theta_max, hi - eps, hi), k_zd_max)
    lo, hi = lo[hi > lo], hi[hi > lo]

    def g(x: np.ndarray) -> np.ndarray:
        return dispersion_mismatch(pol, parity, x, k_par, slab)

    # no sign change on a branch means its root lies beyond cutoff
    crossing = (g(lo) > 0.0) & (g(hi) < 0.0)
    lo, hi = lo[crossing], hi[crossing]
    live = np.ones(lo.size, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        if not live.any():
            break
        up = g(mid) > 0.0
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
        live &= hi - lo > 1e-15 * hi
    root = 0.5 * (lo + hi)
    kappa, rhs = _dispersion_sides(pol, parity, root, k_par, slab)
    residual = np.abs(kappa - rhs) / np.maximum(np.maximum(kappa, np.abs(rhs)),
                                                kappa0)
    return [TrappedMode(pol=pol, parity=parity, k_par=k_par, k_zd=k, kappa=q,
                        residual=r)
            for k, q, r in zip(root.tolist(), kappa.tolist(),
                               residual.tolist())]


def pole_alignment_check(mode: TrappedMode, slab: Slab) -> float:
    """Scaled distance of the slab_R denominator from zero at k_z = i*kappa.

    Returns |D| / (|dD/dk_z| * kappa), a relative measure of how far the
    dispersion root sits from the reflection-coefficient pole; a true root
    scores at the root-refinement level (~1e-12).
    """
    k_z = 1j * mode.kappa
    d0 = slab_denominator(mode.pol, k_z, mode.k_par, slab.L, slab.n)
    h = 1e-6 * mode.kappa
    d_plus = slab_denominator(mode.pol, 1j * (mode.kappa + h), mode.k_par,
                              slab.L, slab.n)
    d_minus = slab_denominator(mode.pol, 1j * (mode.kappa - h), mode.k_par,
                               slab.L, slab.n)
    grad = abs(d_plus - d_minus) / (2.0 * h)
    return abs(d0) / (grad * mode.kappa)


class ModeField(namedtuple("ModeField", "slab k_par regions")):
    """Piecewise plane-wave electric mode function of the slab geometry.

    ``regions`` holds the waves of the left vacuum, the slab and the right
    vacuum, each wave as ``(amplitude, k_z, polarization)`` with the wave
    vector (k_par, 0, k_z).
    """

    __slots__ = ()

    def region_tag(self, z: float) -> str:
        half = 0.5 * self.slab.L
        return _REGION_TAGS[0 if z < -half else 2 if z > half else 1]

    def field(self, x: float, y: float, z: float) -> np.ndarray:
        """Complex electric mode vector at a point (region chosen by z)."""
        return self.field_in(self.region_tag(z), x, y, z)

    def field_in(self, tag: str, x: float, y: float, z: float) -> np.ndarray:
        """Evaluate one region's expansion regardless of z (for limits
        toward an interface)."""
        return self._sum(tag, x, z, lambda k_z, e: np.asarray(e, dtype=complex))

    def scalar(self, x: float, y: float, z: float) -> complex:
        """Scalar part of the mode (polarization vectors stripped)."""
        return self.scalar_in(self.region_tag(z), x, y, z)

    def scalar_in(self, tag: str, x: float, y: float, z: float) -> complex:
        return self._sum(tag, x, z, lambda k_z, e: 1.0)

    def curl_in(self, tag: str, x: float, y: float, z: float) -> np.ndarray:
        """Analytic curl of the region expansion: sum c (i k x e) exp(i k.r)."""
        return self._sum(tag, x, z, lambda k_z, e: 1j * np.cross(
            np.array([self.k_par, 0.0, k_z], dtype=complex),
            np.asarray(e, dtype=complex)))

    def _sum(self, tag: str, x: float, z: float, vector):
        """sum over the region's waves of amplitude * exp(i k.r) * vector."""
        out = 0.0j
        for amplitude, k_z, e in self.regions[_REGION_TAGS.index(tag)]:
            phase = cmath.exp(1j * (self.k_par * x + k_z * z))
            out = out + (amplitude * phase) * vector(k_z, e)
        return out


def _mode_field(pol: Polarization, k_par: float, omega: float, slab: Slab,
                regions) -> ModeField:
    """ModeField from per-region ``(amplitude, k_z)`` waves, each given the
    polarization vector of its own k_z and medium."""
    def wave(amplitude, k_z, n_medium):
        # transverse direction fixed along x; (1, 0) is the k_par -> 0 limit
        if pol is Polarization.TE:
            return amplitude, k_z, (0.0, -1.0, 0.0)
        return amplitude, k_z, (k_z / (n_medium * omega), 0.0,
                                -k_par / (n_medium * omega))

    return ModeField(slab=slab, k_par=k_par, regions=tuple(
        tuple(wave(amplitude, k_z, n_medium) for amplitude, k_z in waves)
        for waves, n_medium in zip(regions, (1.0, slab.n, 1.0))))


def travelling_mode(side: str, pol: Polarization, k_par: float, k_z: complex,
                    slab: Slab) -> ModeField:
    """Left- or right-incident travelling mode (side "L" or "R").

    Requires k_par >= 0 and a propagating vacuum wave: real k_z > 0.  The
    right-incident mode is the left-incident one mirrored in z = 0.
    """
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if not k_par >= 0.0:
        raise ValueError(f"k_par must be non-negative, got {k_par}")
    k_z = complex(k_z)
    if k_z.imag != 0.0 or not k_z.real > 0.0:
        raise ValueError("travelling modes need real k_z > 0")
    k_z = k_z.real
    R, T, I, J, k_zd = _slab_amplitudes(pol, k_z, k_par, slab.L, slab.n)
    N = MODE_NORMALIZATION
    regions = (((N, k_z), (N * R, -k_z)),
               ((N * I, k_zd), (N * J, -k_zd)),
               ((N * T, k_z),))
    if side == "R":
        regions = tuple(tuple((amp, -k_zc) for amp, k_zc in waves)
                        for waves in reversed(regions))
    omega = math.sqrt(k_par * k_par + k_z * k_z)
    return _mode_field(pol, k_par, omega, slab, regions)


def trapped_mode(mode: TrappedMode, slab: Slab) -> ModeField:
    """Field of one trapped mode, built from the printed coefficients.

    Inside: e^{i k_d+ . r} +- e^{i k_d- . r} (S/A); outside: evanescent
    tails with the interface coefficients

        L_TE^S = 2 cos(k_zd L/2) e^{kappa L/2},
        L_TE^A = 2 i sin(k_zd L/2) e^{kappa L/2},
        L_TM^{S,A} = n * L_TE^{S,A},

    all scaled by the normalization constants M_TE, M_TM.
    """
    n, L = slab.n, slab.L
    k_par, k_zd, kappa = mode.k_par, mode.k_zd, mode.kappa
    theta = 0.5 * k_zd * L
    omega = math.sqrt(k_par * k_par + k_zd * k_zd) / n
    sgn = 1.0 if mode.parity == "S" else -1.0

    if mode.parity == "S":
        L_coef = 2.0 * math.cos(theta) * math.exp(0.5 * kappa * L)
    else:
        L_coef = 2.0j * math.sin(theta) * math.exp(0.5 * kappa * L)
    if mode.pol is Polarization.TM:
        L_coef = n * L_coef

    if mode.pol is Polarization.TE:
        M = 1.0 / (4.0 * math.pi * math.sqrt(
            n * n * L / 2.0 + (k_par / omega) ** 2 / kappa))
    else:
        M = 1.0 / (4.0 * math.pi * math.sqrt(
            n * n * L / 2.0
            + n * n * k_par * k_par / (kappa * (k_par * k_par
                                                + n * n * kappa * kappa))))

    regions = (((M * sgn * L_coef, -1j * kappa),),
               ((M, k_zd), (M * sgn, -k_zd)),
               ((M * L_coef, 1j * kappa),))
    return _mode_field(mode.pol, k_par, omega, slab, regions)
