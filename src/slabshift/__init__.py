"""Casimir-Polder energy shift of a ground-state atom near a dielectric slab.

The slab has finite thickness and is characterized by a single real
refractive index (non-dispersive, non-absorbing).  The package provides

* the exact shift as an adaptive double integral over the rotated
  frequency contour (:mod:`slabshift.shift`),
* the contour reflection coefficient that W integrates
  (:mod:`slabshift.reflection`),
* closed-form asymptotics: half-space, retarded thin slab, non-retarded,
  and the thin-plate polarizability form (:mod:`slabshift.asymptotics`),
* the electrostatic image-charge series used as the exact non-retarded
  oracle (:mod:`slabshift.electrostatics`),
* the real-frequency slab amplitudes, travelling/trapped mode fields and
  the trapped-mode dispersion solver (:mod:`slabshift.modes`),
* a CLI for single points, parameter sweeps and mode tables
  (:mod:`slabshift.cli`).

Natural units hbar = c = epsilon_0 = 1 throughout; see
:mod:`slabshift.units` for the eV-nm boundary conversions and the
momentum-to-dipole conversion.

The package is plain Python on the standard library.  The namespace is
lazy: each name in ``__all__`` imports its home module on first access.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "core": ("AtomSpec", "EnergyShift", "QuadratureSpec", "ReducedParams",
             "Slab", "Transition", "WPair", "assemble_shift", "reduce",
             "static_polarizability", "classify_regime"),
    "errors": ("ConvergenceError", "PoleError"),
    "quadrature": ("adaptive_quad",),
    "reflection": ("Polarization", "rtilde"),
    "shift": ("W_SCALE", "energy_shift", "s_parallel", "s_perp", "w_pair"),
    "asymptotics": ("buhmann_U", "halfspace_S", "nonretarded_k_integral",
                    "nonretarded_shift", "nonretarded_thin_shift",
                    "retarded_thin_shift"),
    "electrostatics": ("image_series_shift", "phi_H"),
    "modes": ("find_trapped_modes", "fresnel_r", "pole_alignment_check",
              "slab_R", "slab_T", "slab_denominator", "snell_kz", "snell_kzd",
              "trapped_mode", "travelling_mode"),
    "units": ("HBARC_EV_NM", "dipole_sq_from_momentum", "inv_nm_to_ev"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
