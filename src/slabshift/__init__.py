"""Casimir-Polder energy shift of a ground-state atom near a dielectric slab.

The slab has finite thickness and is characterized by a single real
refractive index (non-dispersive, non-absorbing).  The package provides

* the exact shift as an adaptive double integral over the rotated
  frequency contour (:mod:`slabshift.shift`),
* slab reflection coefficients in physical and contour variables
  (:mod:`slabshift.reflection`),
* closed-form asymptotics: half-space, retarded thin slab, non-retarded,
  and the thin-plate polarizability form (:mod:`slabshift.asymptotics`),
* the electrostatic image-charge series used as the exact non-retarded
  oracle (:mod:`slabshift.electrostatics`),
* travelling/trapped mode fields and the trapped-mode dispersion solver
  (:mod:`slabshift.modes`),
* a CLI for single points, parameter sweeps and mode tables
  (:mod:`slabshift.cli`).

Natural units hbar = c = epsilon_0 = 1 throughout; see
:mod:`slabshift.units` for the eV-nm boundary conversions.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (AtomSpec, EnergyShift, ReducedParams, Slab, Transition,
                   WPair, assemble_shift, dipole_sq_from_momentum, reduce,
                   static_polarizability)
from .errors import ConvergenceError, PoleError
from .quadrature import QuadratureSpec, adaptive_quad
from .reflection import (Polarization, WaveVectors, fresnel_r, rtilde,
                         slab_R, slab_T, slab_denominator, snell_kz,
                         snell_kzd)
from .shift import (W_SCALE, energy_shift, s_parallel, s_perp, w_pair)
from .asymptotics import (buhmann_U, classify_regime, halfspace_S,
                          nonretarded_shift, nonretarded_thin_shift,
                          retarded_thin_shift)
from .electrostatics import ImageSeriesSpec, image_series_shift, phi_H
from .modes import (dispersion_mismatch, find_trapped_modes,
                    pole_alignment_check, trapped_mode, travelling_mode)
from .units import HBARC_EV_NM, inv_nm_to_ev

__all__ = [
    "__version__",
    "AtomSpec", "EnergyShift", "ReducedParams", "Slab", "Transition", "WPair",
    "assemble_shift", "dipole_sq_from_momentum", "reduce",
    "static_polarizability",
    "ConvergenceError", "PoleError", "QuadratureSpec", "adaptive_quad",
    "Polarization", "WaveVectors", "fresnel_r", "rtilde", "slab_R", "slab_T",
    "slab_denominator", "snell_kz", "snell_kzd",
    "W_SCALE", "energy_shift", "s_parallel", "s_perp", "w_pair",
    "buhmann_U", "classify_regime", "halfspace_S", "nonretarded_shift",
    "nonretarded_thin_shift", "retarded_thin_shift",
    "ImageSeriesSpec", "image_series_shift", "phi_H",
    "dispersion_mismatch", "find_trapped_modes", "pole_alignment_check",
    "trapped_mode", "travelling_mode", "HBARC_EV_NM", "inv_nm_to_ev",
]
