"""Independent oracles used across the test suite, and README's tables.

Every oracle here is deliberately written from the defining formulas with
fixed (non-adaptive) numerics, so it shares no code path with the package
implementations it checks.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header: str) -> dict[str, str]:
    """The README table under ``header``: first cell -> second cell."""
    lines = README.read_text().split(header + "\n", 1)[1].splitlines()
    rows = {}
    for line in lines[1:]:  # past the |---| line
        if not line.startswith("|"):
            break
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells[1]
    return rows

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def composite_gauss(f, a: float, b: float, panels: int) -> float:
    """Fixed composite 15-point Gauss-Legendre rule on uniform panels."""
    nodes, weights = _panel_nodes(np.linspace(a, b, panels + 1))
    return float(np.sum(weights * f(nodes)))


# ---------------------------------------------------------------------------
# contour reflection coefficients and the S double integrals, written out
# longhand and read as W

# n^2 - 1 as (n - 1)(n + 1): n * n - 1 keeps the rounding error of n * n,
# a large share of n^2 - 1 near n = 1; n^4 - 1 = (n^2 - 1)(n^2 + 1)

def rt_te(s, t, lam, n):
    c = (n - 1.0) * (n + 1.0)
    g = np.sqrt(1.0 + c * t * t)
    coth = 1.0 if math.isinf(lam) else 1.0 / np.tanh(lam * s * g)
    return -c * t * t / (2.0 + c * t * t + 2.0 * g * coth)


def rt_tm(s, t, lam, n):
    c = (n - 1.0) * (n + 1.0)
    g = np.sqrt(1.0 + c * t * t)
    coth = 1.0 if math.isinf(lam) else 1.0 / np.tanh(lam * s * g)
    return ((c * (n * n + 1.0) - c * t * t)
            / (n ** 4 + 1.0 + c * t * t + 2.0 * n * n * g * coth))


def brute_force_w(zeta: float, lam: float, n: float, s_max: float,
                  s_panels: int, t_panels: int,
                  chunk: int = 512) -> tuple[float, float]:
    """(W_par, W_z) = 8 zeta^4 (S_par, S_perp), both S integrals in one pass
    of a tensor-product fixed rule in (s, t)."""
    s_nodes, s_weights = _panel_nodes(np.linspace(0.0, s_max, s_panels + 1))
    t_nodes, t_weights = _panel_nodes(np.linspace(0.0, 1.0, t_panels + 1))
    t, par, perp = t_nodes[None, :], 0.0, 0.0
    for i0 in range(0, len(s_nodes), chunk):
        s = s_nodes[i0:i0 + chunk][:, None]
        weight = (s_weights[i0:i0 + chunk][:, None] * t_weights[None, :]
                  * s ** 3 / (s * s * t * t + 1.0) * np.exp(-2.0 * zeta * s))
        tm = rt_tm(s, t, lam, n)
        par += float(np.sum(weight * (tm - t * t * rt_te(s, t, lam, n))))
        perp += float(np.sum(weight * (1.0 - t * t) * tm))
    # S_par and S_perp are 1/4 and 1/2 of their sums
    return 2.0 * zeta ** 4 * par, 4.0 * zeta ** 4 * perp


# ---------------------------------------------------------------------------
# transfer-matrix slab coefficients (characteristic-matrix method)

def transfer_matrix_slab(pol: str, k_z: float, k_par: float, L: float,
                         n: float) -> tuple[complex, complex]:
    """(r, t) of a single slab referenced to its interfaces.

    Relation to the interface-coefficient convention used by the package:
    r = R * exp(i k_z L) and |t| = |T|.
    """
    k_zd = complex(np.sqrt(complex((n * n - 1.0) * k_par ** 2 + n * n * k_z ** 2)))
    p0 = k_z if pol == "TE" else k_z / 1.0
    p1 = k_zd if pol == "TE" else k_zd / (n * n)
    delta = k_zd * L
    m11 = np.cos(delta)
    m12 = -1j * np.sin(delta) / p1
    m21 = -1j * p1 * np.sin(delta)
    m22 = np.cos(delta)
    top = (m11 + m12 * p0) * p0 - (m21 + m22 * p0)
    bot = (m11 + m12 * p0) * p0 + (m21 + m22 * p0)
    return top / bot, 2.0 * p0 / bot


# ---------------------------------------------------------------------------
# dense sign-scan root counting for the trapped-mode dispersion relations

def sign_scan_root_count(pol, parity: str, k_par: float, slab,
                         points_per_branch: int = 10000) -> int:
    """Count dispersion-relation roots by dense sign scanning.

    Scans each continuity interval of the tan/cot branch structure
    separately so singularity jumps are never mistaken for crossings; the
    relations are written out with numpy, one array per interval.
    """
    n, L = slab.n, slab.L
    if n == 1.0 or L == 0.0:
        return 0
    scale = n * n if pol.value == "TM" else 1.0
    k_zd_max = math.sqrt(n * n - 1.0) * k_par
    theta_max = 0.5 * k_zd_max * L
    # tan singular at (m + 1/2) pi; -cot singular at m pi (m >= 1); theta = 0
    # is regular for both parities
    singular = []
    m = 0
    while True:
        theta = (m + 0.5) * math.pi if parity == "S" else (m + 1) * math.pi
        if theta >= theta_max:
            break
        singular.append(theta)
        m += 1
    edges = [0.0] + singular + [theta_max]
    count = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        pad = 1e-9 * (hi - lo)
        theta = np.linspace(lo + pad, hi - pad, points_per_branch)
        k_zd = 2.0 * theta / L
        kappa = np.sqrt(np.maximum((n * n - 1.0) * k_par ** 2 - k_zd ** 2,
                                   0.0)) / n
        rhs = (k_zd * np.tan(theta) if parity == "S"
               else -k_zd / np.tan(theta))
        g = kappa - rhs / scale
        count += int(np.sum(np.diff(np.sign(g)) != 0))
    return count


def bisect_roots_longhand(pol, parity: str, k_par: float, slab) -> list[float]:
    """Dispersion roots k_zd, one scalar bisection per tan/cot branch.

    The relations are written out with ``math`` from the module formulas;
    each branch (theta in (m pi, m pi + pi/2) for S, shifted by pi/2 for A)
    is bisected to adjacent floats when its ends differ in sign.  The ends
    sit 8 ulps of theta inside the branch edges: a pad relative to the
    branch width rounds away once theta passes about 1e4, which put the
    upper end on the tan pole and dropped the branch.
    """
    n, L = slab.n, slab.L
    k_zd_max = math.sqrt(n * n - 1.0) * k_par
    theta_max = 0.5 * k_zd_max * L
    scale = n * n if pol.value == "TM" else 1.0

    def g(k_zd):
        kappa = math.sqrt(max((n * n - 1.0) * k_par ** 2 - k_zd ** 2, 0.0)) / n
        theta = 0.5 * k_zd * L
        rhs = (k_zd * math.tan(theta) if parity == "S"
               else -k_zd / math.tan(theta))
        return kappa - rhs / scale

    roots = []
    offset = 0.0 if parity == "S" else 0.5 * math.pi
    m = 0
    while offset + m * math.pi < theta_max:
        start = offset + m * math.pi
        end = min(start + 0.5 * math.pi, theta_max)
        m += 1
        pad = 8.0 * math.ulp(end)
        lo, hi = 2.0 * (start + pad) / L, 2.0 * (end - pad) / L
        if g(lo) > 0.0 > g(hi):
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
            roots.append(0.5 * (lo + hi))
    return roots


# ---------------------------------------------------------------------------
# Hankel-transform evaluation of the image potential

def phi_hankel(rho: float, z: float, z_prime: float, slab,
               decades: float = 40.0, panels: int = 4000) -> float:
    from scipy.special import j0

    beta = (slab.n ** 2 - 1.0) / (slab.n ** 2 + 1.0)
    a0 = z + z_prime - slab.L

    def integrand(k):
        e = np.exp(-2.0 * k * slab.L)
        return (j0(k * rho) * np.exp(-k * a0) * (1.0 - e)
                / (1.0 - beta * beta * e))

    k_max = decades * math.log(10.0) / a0
    return -beta / (4.0 * math.pi) * composite_gauss(integrand, 0.0, k_max,
                                                     panels)


# ---------------------------------------------------------------------------
# finite-difference dipole energy from the image potential

def dipole_energy_finite_difference(atom, slab, Z: float,
                                    h_factor: float = 1e-4) -> float:
    """1/2 sum_i <mu_i^2> grad_i grad'_i Phi_H at r = r' = atom position.

    Second-order centered stencil; the x/y mixed derivative collapses to
    [Phi(rho=0) - Phi(rho=2h)] / (2 h^2) because Phi depends only on the
    transverse separation.
    """
    from slabshift.electrostatics import phi_H

    z0 = Z + slab.L / 2.0
    h = h_factor * Z
    d_trans = (phi_H(0.0, z0, z0, slab) - phi_H(2.0 * h, z0, z0, slab)) / (2.0 * h * h)
    d_norm = (phi_H(0.0, z0 + h, z0 + h, slab)
              - 2.0 * phi_H(0.0, z0 + h, z0 - h, slab)
              + phi_H(0.0, z0 - h, z0 - h, slab)) / (4.0 * h * h)
    total = 0.0
    for tr in atom.transitions:
        total += 0.5 * (tr.mu_par_sq * d_trans + tr.mu_perp_sq * d_norm)
    return total
