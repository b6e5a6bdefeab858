"""Electromagnetic field modes of the dielectric slab, and its
real-frequency reflection and transmission amplitudes.

The modes work in the physical wave numbers ``k_par`` and ``k_z``
(vacuum); the normal wave number inside the slab follows from Snell's
law,

    k_zd = sqrt((n^2 - 1) k_par^2 + n^2 k_z^2),

with the single-interface amplitudes

    r_TE = (k_z - k_zd) / (k_z + k_zd),
    r_TM = (n^2 k_z - k_zd) / (n^2 k_z + k_zd),

and, for a wave e^{i k_z z} incident on the slab |z| <= L/2, the sums of
its multiple reflections, with D = 1 - r^2 e^{2 i k_zd L},

    R = r (1 - e^{2 i k_zd L}) / D * e^{-i k_z L},
    T = (1 - r^2) / D * e^{i (k_zd - k_z) L},
    I = (1 + r) / (v D) * e^{i (k_zd - k_z) L/2},
    J = -r (1 + r) / (v D) * e^{i (3 k_zd - k_z) L/2},

for the waves I e^{i k_zd z} and J e^{-i k_zd z} inside; v = n for TM,
whose mode scalar carries n in the slab, and 1 for TE.  The shift itself
reads R only through its Wick rotation,
:func:`slabshift.reflection.rtilde`.

Travelling modes are incident/reflected/transmitted plane-wave solutions
of real vacuum wave numbers (k_par, k_z > 0), with the amplitudes R, T
and inside I, J above; trapped modes are discrete solutions bound by
total internal reflection, oscillatory inside the slab and evanescent
(e^{-kappa |z|}) outside.
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
every tan/cot branch, so each branch holds at most one root.  On branch m,
opening at theta_m = m pi (S) or m pi + pi/2 (A) with theta = k_zd L/2,
both parities read phi = atan(scale kappa / k_zd) for phi = theta -
theta_m, scale = n^2 (TM) or 1 (TE).  phi - atan(...) is negative at the
branch opening and positive at its end (phi = pi/2, or cutoff if that
comes first), and its slope is at least 1, so every branch that opens
below cutoff holds exactly one root.  The solver takes Newton steps on
that form, a bisection step wherever Newton would leave the bracket, in
plain Python: about three steps per root.

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

from .core import Slab, _contrast, _index, _positive_finite, finite_power
from .errors import PoleError
from .reflection import Polarization

__all__ = [
    "snell_kzd",
    "snell_kz",
    "fresnel_r",
    "slab_denominator",
    "slab_R",
    "slab_T",
    "TrappedMode",
    "ModeField",
    "find_trapped_modes",
    "pole_alignment_check",
    "travelling_mode",
    "trapped_mode",
]

MODE_NORMALIZATION = (2.0 * math.pi) ** -1.5  # travelling-mode prefactor

# most branches bracketed per dispersion relation (10^6 modes over all four)
MAX_BRANCHES = 250_000

_REGION_TAGS = ("left_vacuum", "slab", "right_vacuum")

# |denominator| below this (relative to its terms) counts as a pole hit
_POLE_TOL = 1e-12
_OUT_OF_RANGE = ("the slab coefficients at k_z = {!r}, k_par = {!r}, L = {!r} "
                 "are not finite doubles")


def _as_wave_component(value: complex) -> complex | float:
    """Drop a zero imaginary part so real inputs give real outputs."""
    if isinstance(value, complex) and value.imag == 0.0:
        return value.real
    return value


def snell_kzd(k_par: float, k_z: complex, n: float) -> complex | float:
    """Normal wave number inside the dielectric from the vacuum one.

    Principal square root (Re >= 0); positive root for real positive input.
    """
    _index(n)
    val = cmath.sqrt(_contrast(n) * k_par * k_par + n * n * k_z * k_z)
    if not cmath.isfinite(val):
        raise ValueError(f"k_zd is {val} at k_par = {k_par!r}, k_z = {k_z!r}, "
                         f"n = {n!r}, not a finite wave number")
    return _as_wave_component(val)


def snell_kz(k_par: float, k_zd: complex, n: float) -> complex | float:
    """Inverse of :func:`snell_kzd`: vacuum normal wave number from the slab one."""
    _index(n)
    val = cmath.sqrt(k_zd * k_zd - _contrast(n) * k_par * k_par) / n
    if not cmath.isfinite(val):
        raise ValueError(f"k_z is {val} at k_par = {k_par!r}, k_zd = "
                         f"{k_zd!r}, n = {n!r}, not a finite wave number")
    return _as_wave_component(val)


def fresnel_r(pol: Polarization, k_z: complex, k_par: float,
              n: float) -> complex | float:
    """Single-interface Fresnel reflection amplitude vacuum -> dielectric."""
    return _as_wave_component(_fresnel(pol, k_z, k_par, n)[1])


def _fresnel(pol: Polarization, k_z: complex, k_par: float,
             n: float) -> tuple:
    """(k_zd, r) of one interface, or a PoleError where r's denominator
    vanishes.  r's numerator is a difference of squares over the
    denominator, -(n^2 - 1)(k_par^2 + k_z^2) for TE and
    (n^2 - 1)(n^2 k_z^2 - k_par^2) for TM, formed as products that keep
    their digits where k_zd -> k_z (TE) or n^2 k_z (TM)."""
    k_zd = snell_kzd(k_par, k_z, n)
    if pol is Polarization.TE:
        num = -_contrast(n) * (k_par + 1j * k_z) * (k_par - 1j * k_z)
        den = k_z + k_zd
    else:
        num = _contrast(n) * (n * k_z - k_par) * (n * k_z + k_par)
        den = n * n * k_z + k_zd
    if abs(den) <= 1e-15 * max(abs(k_z), abs(k_zd), 1.0):
        raise PoleError(f"vanishing Fresnel denominator for {pol.value}",
                        k_z=k_z)
    # den ** 2 overflows where |den| passes about 1.3e154, r does not
    return k_zd, num / den / den


def slab_denominator(pol: Polarization, k_z: complex, k_par: float, L: float,
                     n: float) -> complex:
    """Multiple-reflection denominator 1 - r^2 exp(2 i k_zd L).

    Its zeros on the imaginary k_z axis are the trapped-mode poles.
    """
    _, r, phase = _interface(pol, k_z, k_par, L, n)
    return 1.0 - r * r * phase


def _interface(pol: Polarization, k_z: complex, k_par: float, L: float,
               n: float) -> tuple:
    """(k_zd, r, exp(2 i k_zd L)), or a ValueError unless 0 <= L < inf and
    the phase is finite."""
    if not 0.0 <= L < math.inf:
        raise ValueError(f"slab thickness L must be in [0, inf), got {L}")
    k_zd, r = _fresnel(pol, k_z, k_par, n)
    try:
        return k_zd, r, cmath.exp(2.0j * k_zd * L)
    except (OverflowError, ValueError):
        raise ValueError(_OUT_OF_RANGE.format(k_z, k_par, L)) from None


def _slab_amplitudes(pol: Polarization, k_z: complex, k_par: float, L: float,
                     n: float) -> tuple:
    """(R, T, I, J, k_zd) of the closed forms above, or a ValueError where
    one of them is not a finite double."""
    k_zd, r, phase = _interface(pol, k_z, k_par, L, n)
    den = 1.0 - r * r * phase
    if abs(den) <= _POLE_TOL * (1.0 + abs(r * r * phase)):
        raise PoleError(
            f"slab coefficient evaluated at a trapped-mode pole "
            f"(k_z={k_z}, k_par={k_par})", k_z=k_z, k_par=k_par)
    inside = (1.0 + r) / (den * (1.0 if pol is Polarization.TE else n))
    try:
        amplitudes = (
            -r * _phase_minus_one(k_zd, L) / den * cmath.exp(-1.0j * k_z * L),
            (1.0 - r * r) / den * cmath.exp(1.0j * (k_zd - k_z) * L),
            inside * cmath.exp(0.5j * (k_zd - k_z) * L),
            -r * inside * cmath.exp(0.5j * (3.0 * k_zd - k_z) * L))
    except (OverflowError, ValueError):
        amplitudes = (math.nan,)
    if not all(map(cmath.isfinite, amplitudes)):
        raise ValueError(_OUT_OF_RANGE.format(k_z, k_par, L))
    return amplitudes + (k_zd,)


def _phase_minus_one(k_zd: complex, L: float) -> complex:
    """exp(2 i k_zd L) - 1, without the cancellation of small k_zd L:
    e^{x + i y} - 1 = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    x, y = -2.0 * L * k_zd.imag, 2.0 * L * k_zd.real
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y))


def slab_R(pol: Polarization, k_z: complex, k_par: float, L: float,
           n: float) -> complex | float:
    """Slab reflection amplitude (vanishes for L = 0 or n = 1)."""
    if L == 0.0 or n == 1.0:
        return 0.0
    return _as_wave_component(_slab_amplitudes(pol, k_z, k_par, L, n)[0])


def slab_T(pol: Polarization, k_z: complex, k_par: float, L: float,
           n: float) -> complex | float:
    """Slab transmission amplitude (unity for L = 0 or n = 1)."""
    if L == 0.0 or n == 1.0:
        return 1.0
    return _as_wave_component(_slab_amplitudes(pol, k_z, k_par, L, n)[1])


class TrappedMode(namedtuple("TrappedMode",
                             "pol parity k_par k_zd kappa residual")):
    """One root of a slab dispersion relation; ``parity`` is "S" or "A",
    that of the scalar part.

    ``residual`` compares the two sides of the tan/cot relation at the
    root in kappa units, ``|kappa - rhs| / max(kappa, |rhs|, kappa0)``,
    with the kappa side formed as ``sqrt((n^2 - 1) k_par^2 - k_zd^2) / n``.
    Near cutoff it carries kappa's sensitivity to theta (``theta / q^2``
    per ulp of theta), not the root's error: at (n, L, k_par) =
    (1 + 1e-15, 1e-10, 1) it is 1.33e-8, while ``kappa`` matches that of a
    60-digit root to 1e-15.
    """

    __slots__ = ()


def find_trapped_modes(pol: Polarization, parity: str, k_par: float,
                       slab: Slab) -> list[TrappedMode]:
    """All trapped modes of one polarization/parity at fixed k_par.

    Returns the complete, ascending-in-k_zd list of roots in
    (0, sqrt(n^2-1) k_par); the list is empty below cutoff.  Every branch
    below cutoff holds exactly one root, found by Newton's method on the
    branch's arctangent form, kept inside the branch by bisection.
    """
    if parity not in ("S", "A"):
        raise ValueError(f"parity must be 'S' or 'A', got {parity!r}")
    _positive_finite(k_par, "k_par")
    n, L = slab.n, slab.L
    if n == 1.0 or L == 0.0 or math.isinf(L):
        return []
    k_zd_max = math.sqrt(_contrast(n)) * k_par
    theta_max = 0.5 * k_zd_max * L
    kappa0 = k_zd_max / n

    # branch-opening angles below theta_max: tan branches for S, cot for A
    offset = 0.0 if parity == "S" else 0.5 * math.pi
    if not (theta_max - offset) / math.pi < MAX_BRANCHES:
        raise ValueError(f"k_par = {k_par!r}, n = {n!r}, L = {L!r} open "
                         f"{theta_max / math.pi:.3g} branches per dispersion "
                         f"relation, more than the {MAX_BRANCHES} allowed")
    # else the dispersion relations' (n^2 - 1) k_par^2 leaves the doubles
    finite_power(k_par, 2, "k_par", _contrast(n))
    kappa_sq = _contrast(n) * k_par * k_par
    scale = n * n if pol is Polarization.TM else 1.0

    # in theta = k_zd L/2 = theta_m + phi on branch m, both parities read
    # h(phi) = phi - atan(w/theta) = 0 with w = scale q/n, q = kappa n L/2
    # = sqrt(theta_max^2 - theta^2); h(0) < 0 < h(phi_end) and h' >= 1
    w_per_q = n if pol is Polarization.TM else 1.0 / n
    modes = []
    for m in range(math.ceil((theta_max - offset) / math.pi) + 1):
        theta_m = offset + math.pi * m
        if not theta_m < theta_max:
            break
        lo, hi = 0.0, min(0.5 * math.pi, theta_max - theta_m)
        # at theta_m = 0, phi tan(phi) = w <= w(0) puts the root below
        # sqrt(w(0)); from phi = 0 Newton would only double phi per step
        phi = (min(math.sqrt(w_per_q * theta_max), hi) if theta_m == 0.0
               else 0.0)
        for _ in range(200):
            theta = theta_m + phi
            # two square roots, as q^2 underflows where theta_max is tiny
            q = (math.sqrt(max(theta_max - theta, 0.0))
                 * math.sqrt(theta_max + theta))
            w = w_per_q * q
            h = phi - math.atan2(w, theta)
            if h < 0.0:
                lo = phi
            elif h > 0.0:
                hi = phi
            else:
                break
            # Newton with h' = 1 + w theta_max^2 / (q^2 (theta^2 + w^2)),
            # in ratios that neither underflow to 0 nor overflow to nan;
            # bisect where it leaves the bracket or w = 0, and stop once
            # either step is below theta's resolution
            if w > 0.0:
                r = theta_max / math.hypot(theta, w)
                newton = -h / (1.0 + w_per_q * r / q * r)
            else:
                newton = math.nan
            step = newton if lo < phi + newton < hi else 0.5 * (lo + hi) - phi
            resolution = 0.5 * math.ulp(theta)
            if abs(newton) < resolution or abs(step) < resolution:
                break
            phi += step
        root = 2.0 * theta / L
        # the independent tan/cot check: both sides of the relation at root
        tan = math.tan(0.5 * root * L)
        kappa = math.sqrt(max(kappa_sq - root * root, 0.0)) / n
        rhs = (root * tan if parity == "S" else -root / tan) / scale
        residual = abs(kappa - rhs) / max(kappa, abs(rhs), kappa0)
        # kappa from the form less sensitive to theta's last ulp: d ln/d
        # theta is theta/q^2 for kappa0 q/theta_max and at most 1/theta +
        # 2/|sin 2 theta| for the tan/cot side, compared here times
        # q^2 theta |sin 2 theta|/theta_max^2, in ratios at most about 1;
        # the tan/cot side wins at q = 0, and the q form at theta = 0
        a, b = q / theta_max, theta / theta_max
        sin2 = abs(math.sin(2.0 * theta))
        kappa = (rhs if a * a * (sin2 + 2.0 * theta) < b * b * sin2
                 else kappa0 * a)
        modes.append(TrappedMode(pol=pol, parity=parity, k_par=k_par,
                                 k_zd=root, kappa=kappa, residual=residual))
    return modes


def pole_alignment_check(mode: TrappedMode, slab: Slab) -> float:
    """Scaled distance of the slab_R denominator from zero at k_z = i*kappa.

    Returns |D| / (|dD/dk_z| * kappa), a relative measure of how far the
    dispersion root sits from the reflection-coefficient pole; a true root
    scores at the root-refinement level (~1e-12).
    """
    def d(kappa: float) -> complex:
        return slab_denominator(mode.pol, 1j * kappa, mode.k_par, slab.L,
                                slab.n)

    h = 1e-6 * mode.kappa
    grad = abs(d(mode.kappa + h) - d(mode.kappa - h)) / (2.0 * h)
    return abs(d(mode.kappa)) / (grad * mode.kappa)


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

    def field(self, x: float, y: float, z: float) -> tuple:
        """Complex electric mode vector, a 3-tuple, at a point (region chosen
        by z)."""
        return self.field_in(self.region_tag(z), x, y, z)

    def field_in(self, tag: str, x: float, y: float, z: float) -> tuple:
        """Evaluate one region's expansion regardless of z (for limits
        toward an interface)."""
        return self._sum(tag, x, z, lambda k_z, e: e)

    def scalar(self, x: float, y: float, z: float) -> complex:
        """Scalar part of the mode (polarization vectors stripped)."""
        return self.scalar_in(self.region_tag(z), x, y, z)

    def scalar_in(self, tag: str, x: float, y: float, z: float) -> complex:
        return self._sum(tag, x, z, lambda k_z, e: (1.0,))[0]

    def curl_in(self, tag: str, x: float, y: float, z: float) -> tuple:
        """Analytic curl of the region expansion: sum c (i k x e) exp(i k.r)
        with k = (k_par, 0, k_z)."""
        k_par = self.k_par
        return self._sum(tag, x, z, lambda k_z, e: (
            -1j * k_z * e[1], 1j * (k_z * e[0] - k_par * e[2]),
            1j * k_par * e[1]))

    def _sum(self, tag: str, x: float, z: float, vector) -> tuple:
        """sum over the region's waves of amplitude * exp(i k.r) * vector,
        component by component."""
        waves = self.regions[_REGION_TAGS.index(tag)]
        terms = [[amplitude * cmath.exp(1j * (self.k_par * x + k_z * z)) * v
                  for v in vector(k_z, e)] for amplitude, k_z, e in waves]
        return tuple(sum(column, 0j) for column in zip(*terms))


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
    if mode.parity == "S":
        sgn, L_coef = 1.0, 2.0 * math.cos(theta) * math.exp(0.5 * kappa * L)
    else:
        sgn, L_coef = -1.0, 2.0j * math.sin(theta) * math.exp(0.5 * kappa * L)

    if mode.pol is Polarization.TE:
        M = 1.0 / (4.0 * math.pi * math.sqrt(
            n * n * L / 2.0 + (k_par / omega) ** 2 / kappa))
    else:
        L_coef = n * L_coef
        M = 1.0 / (4.0 * math.pi * math.sqrt(
            n * n * L / 2.0
            + n * n * k_par * k_par / (kappa * (k_par * k_par
                                                + n * n * kappa * kappa))))

    regions = (((M * sgn * L_coef, -1j * kappa),),
               ((M, k_zd), (M * sgn, -k_zd)),
               ((M * L_coef, 1j * kappa),))
    return _mode_field(mode.pol, k_par, omega, slab, regions)
