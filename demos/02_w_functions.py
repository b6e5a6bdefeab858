#!/usr/bin/env python3
"""Dimensionless shift functions W_par and W_z across the parameter space.

These are the natural quantities to plot: W = 1 is the retarded shift in
front of a perfect mirror, and the physical shift is
-(W_par |mu_par|^2 + W_z |mu_perp|^2) / (16 pi^2 E_ji Z^4).

The script tabulates three families:
  1. W_z against distance zeta for several thicknesses lam (the
     half-space is the upper envelope),
  2. W_z against thickness lam at fixed zeta (saturates at the
     half-space value once lam >> 1),
  3. W_z against lam for increasing refractive index at zeta = 8; as
     n grows this curve steepens toward a unit step.

Writes w_functions.csv next to this script and, when matplotlib is
available, w_functions.png.
"""

import csv
import math
import pathlib

import numpy as np

from slabshift import QuadratureSpec, ReducedParams, w_pair

quad = QuadratureSpec(rel_tol=1e-8)
here = pathlib.Path(__file__).resolve().parent

zetas = np.geomspace(0.2, 10.0, 9)
lams = (0.1, 1.0, 10.0, math.inf)

print("W_z against zeta for n = 2 (columns: lam = 0.1, 1, 10, half-space)")
family1 = []
for zeta in zetas:
    row = [w_pair(ReducedParams(zeta, lam, 2.0), quad).w_z for lam in lams]
    family1.append(row)
    print(f"  zeta={zeta:7.3f}  " + "  ".join(f"{w:8.5f}" for w in row))

print()
print("W_z against lam at zeta = 8, n = 2 (half-space value "
      f"{w_pair(ReducedParams(8.0, math.inf, 2.0), quad).w_z:.5f})")
lam_axis = np.geomspace(0.05, 20.0, 9)
family2 = [w_pair(ReducedParams(8.0, lam, 2.0), quad).w_z for lam in lam_axis]
for lam, w in zip(lam_axis, family2):
    print(f"  lam={lam:7.3f}  W_z={w:8.5f}")

print()
print("W_z against lam at zeta = 8 for n = 1.5, 3, 5")
print("(the n -> infinity limit of this family is a unit step in lam)")
ns = (1.5, 3.0, 5.0)
family3 = []
for lam in lam_axis:
    row = [w_pair(ReducedParams(8.0, lam, n), quad).w_z for n in ns]
    family3.append(row)
    print(f"  lam={lam:7.3f}  " + "  ".join(f"{w:8.5f}" for w in row))

with open(here / "w_functions.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["zeta"] + [f"w_z_lam_{lam}" for lam in lams])
    for zeta, row in zip(zetas, family1):
        writer.writerow([zeta] + row)
print()
print(f"wrote {here / 'w_functions.csv'}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ModuleNotFoundError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for i, lam in enumerate(lams):
        label = "half-space" if math.isinf(lam) else f"lam = {lam}"
        ax1.semilogx(zetas, [row[i] for row in family1], marker="o",
                     label=label)
    ax1.set_xlabel("zeta = Z E_ji")
    ax1.set_ylabel("W_z")
    ax1.legend()
    for j, n in enumerate(ns):
        ax2.semilogx(lam_axis, [row[j] for row in family3], marker="o",
                     label=f"n = {n}")
    ax2.set_xlabel("lam = L E_ji")
    ax2.set_ylabel("W_z at zeta = 8")
    ax2.legend()
    fig.tight_layout()
    fig.savefig(here / "w_functions.png", dpi=150)
    print(f"wrote {here / 'w_functions.png'}")
