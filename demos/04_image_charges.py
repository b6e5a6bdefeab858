#!/usr/bin/env python3
"""Electrostatic picture of the non-retarded shift: image charges.

Close to the slab the interaction is an instantaneous dipole-image
interaction.  A slab (unlike a half-space) produces an infinite ladder of
images from repeated reflections between its two faces, with strengths
falling geometrically in beta^2 = ((n^2-1)/(n^2+1))^2.

The script prints the image-ladder potential, adds up the first images of
the shift's ladder in its own loop to show it converging term by term,
and cross-checks the library's closed-form series for the shift against
independent numerical integration.
"""

import math

from slabshift import (AtomSpec, Slab, Transition, image_series_shift,
                       nonretarded_k_integral, phi_H)

slab = Slab(n=2.0, L=1.0)
beta = (slab.n ** 2 - 1.0) / (slab.n ** 2 + 1.0)
print(f"slab: n = {slab.n}, L = {slab.L}; image strength beta = {beta:.3f}")
print()

z = zp = slab.L / 2.0 + 0.5
print(f"image potential Phi_H at height 0.5 above the surface:")
for rho in (0.0, 0.5, 1.0, 2.0, 4.0):
    print(f"  rho={rho:4.1f}  Phi_H={phi_H(rho, z, zp, slab):12.6e}")

atom = AtomSpec([Transition(E_ji=1.0, mu_par_sq=2.0, mu_perp_sq=1.0)])
Z = 0.4
print()
print(f"non-retarded shift at Z = {Z} as the image ladder is extended:")
# image m contributes beta^(2m) [(Z + mL)^-3 - (Z + (m+1)L)^-3]
pref = -beta / (64.0 * math.pi) * math.fsum(
    2.0 * tr.mu_perp_sq + tr.mu_par_sq for tr in atom.transitions)
partial = 0.0
for m in range(8):
    partial += beta ** (2 * m) * ((Z + m * slab.L) ** -3
                                  - (Z + (m + 1) * slab.L) ** -3)
    if m + 1 in (1, 2, 3, 5, 8):
        print(f"  {m + 1:2d} image terms: {pref * partial:14.8e}")

exact = image_series_shift(atom, slab, Z).value
quad = nonretarded_k_integral(atom, slab, Z).value
print(f"  full ladder:    {exact:14.8e}")
print(f"  k-integral:     {quad:14.8e}   "
      f"(route difference {abs(exact - quad) / abs(exact):.1e})")
print()
half = image_series_shift(atom, Slab(n=slab.n, L=math.inf), Z).value
print(f"half-space (single image) value: {half:14.8e}; the finite slab is "
      f"{exact / half:.1%} of it")
