"""Write ``reference.json``: reference values for every pool entry.

Run from the repository root (takes several minutes on one core)::

    PYTHONPATH=src python3 perfbench/make_reference.py

The W functions, shifts and asymptotes come from the library at
``rel_tol=1e-11, abs_tol=1e-30``, far tighter than the CLI default, so the
gate's ``1e-8`` relative tolerance measures the CLI and not the reference.
The image-series asymptote is taken from the closed form
``L^-3 [Phi(b2, 3, Z/L) - Phi(b2, 3, Z/L + 1)]`` (Lerch Phi via mpmath at
30 digits), which also covers the near-mirror entry where the seed's
series stops at its term budget.  Mode tables are the seed's own roots.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath

from slabshift import (QuadratureSpec, ReducedParams, Slab, buhmann_U,
                       energy_shift, find_trapped_modes, halfspace_S,
                       inv_nm_to_ev, nonretarded_thin_shift, reduce,
                       retarded_thin_shift, static_polarizability, w_pair)
from slabshift.cli import _config_from_args, build_parser, build_run_input
from slabshift.reflection import Polarization
from slabshift.shift import W_SCALE

import workloads

TIGHT = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-30)
OUT = Path(__file__).resolve().parent / "reference.json"


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def ref_sweep(argv: tuple[str, ...]) -> dict:
    """A log sweep over lam; the half-space column is the same at every point."""
    lo, hi = float(_flag(argv, "--lo")), float(_flag(argv, "--hi"))
    points = int(_flag(argv, "--points"))
    zeta, n = float(_flag(argv, "--zeta")), float(_flag(argv, "--n"))
    ratio = (hi / lo) ** (1.0 / (points - 1))
    scale = W_SCALE * zeta ** 4
    hs_par, hs_perp = halfspace_S(zeta, n, TIGHT)
    rows = []
    for i in range(points):
        lam = lo * ratio ** i
        wp = w_pair(ReducedParams(zeta=zeta, lam=lam, n=n), TIGHT)
        rows.append({"value": lam, "w_par": wp.w_par, "w_z": wp.w_z,
                     "w_par_halfspace": scale * hs_par,
                     "w_z_halfspace": scale * hs_perp})
    return {"rows": rows}


def _run_input(argv: tuple[str, ...]):
    run = build_run_input(_config_from_args(build_parser().parse_args(argv)))
    return run.atom, run.slab, run.Z, run.units


def ref_shift(argv: tuple[str, ...]) -> dict:
    atom, slab, Z, units = _run_input(argv)
    total = energy_shift(atom, slab, Z, TIGHT).value
    totals = [total, inv_nm_to_ev(total)] if units == "eV-nm" else [total]
    pairs = [w_pair(reduce(slab, tr, Z), TIGHT) for tr in atom.transitions]
    return {"totals": totals, "w": [[p.w_par, p.w_z] for p in pairs]}


def ref_wfun(argv: tuple[str, ...]) -> dict:
    lam_raw = _flag(argv, "--lam")
    p = ReducedParams(zeta=float(_flag(argv, "--zeta")),
                      lam=math.inf if lam_raw == "inf" else float(lam_raw),
                      n=float(_flag(argv, "--n")))
    wp = w_pair(p, TIGHT)
    return {"w": [wp.w_par, wp.w_z]}


def ref_modes(argv: tuple[str, ...]) -> dict:
    k_par = float(_flag(argv, "--k-par"))
    slab = Slab(n=float(_flag(argv, "--n")), L=float(_flag(argv, "--thickness")))
    roots = [[pol.value, parity, m.k_zd]
             for pol in (Polarization.TE, Polarization.TM)
             for parity in ("S", "A")
             for m in find_trapped_modes(pol, parity, k_par, slab)]
    return {"roots": roots}


def image_series_closed_form(atom, slab, Z) -> float:
    """Non-retarded image-series shift via the Lerch transcendent."""
    mpmath.mp.dps = 30
    n2 = mpmath.mpf(slab.n) ** 2
    beta = (n2 - 1) / (n2 + 1)
    b2 = beta * beta
    a = mpmath.mpf(Z) / mpmath.mpf(slab.L)
    phi_a = mpmath.lerchphi(b2, 3, a)
    phi_a1 = (phi_a - 1 / a ** 3) / b2
    series = (phi_a - phi_a1) / mpmath.mpf(slab.L) ** 3
    dipole_sum = sum(2 * mpmath.mpf(tr.mu_perp_sq) + mpmath.mpf(tr.mu_par_sq)
                     for tr in atom.transitions)
    return float(-beta / (64 * mpmath.pi) * series * dipole_sum)


def ref_asympt(argv: tuple[str, ...]) -> dict:
    atom, slab, Z, _ = _run_input(argv)
    values = {
        "full integral": energy_shift(atom, slab, Z, TIGHT).value,
        "retarded thin slab": retarded_thin_shift(atom, slab, Z).value,
        "non-retarded (image series)": image_series_closed_form(atom, slab, Z),
        "non-retarded thin slab": nonretarded_thin_shift(atom, slab, Z).value,
    }
    try:
        alpha0 = static_polarizability(atom)
    except ValueError:
        pass
    else:
        values["thin-plate polarizability form"] = buhmann_U(
            alpha0, slab.n, slab.L, Z)
    return {"values": values}


REFS = {"sweep": ref_sweep, "shift": ref_shift, "wfun": ref_wfun,
        "modes": ref_modes, "asympt": ref_asympt}


def main() -> int:
    ops = {}
    for name in workloads.WORKLOADS:
        for op in workloads.pool(name):
            print(f"reference: {op.key}", file=sys.stderr, flush=True)
            ops[op.key] = REFS[op.kind](op.argv)
    doc = {"generator": {"rel_tol": TIGHT.rel_tol, "abs_tol": TIGHT.abs_tol,
                         "image_series": "lerchphi, 30 digits"},
           "ops": ops}
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
