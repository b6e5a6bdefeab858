"""Unit conventions and boundary conversions.

Everything inside the package is expressed in natural units

    hbar = c = 1,   epsilon_0 = 1,

so energies and inverse lengths share one unit and the Coulomb factor
1/(4 pi epsilon_0) reduces to 1/(4 pi).  Dipole-moment squares then carry
dimension [length]^2.

The optional ``eV-nm`` boundary mode (used by the command-line tool) keeps
lengths in nanometres and converts transition energies given in eV to
inverse nanometres through hbar*c.  In that mode dipole-moment squares are
supplied in nm^2 and computed energy shifts come out in 1/nm; multiply by
``HBARC_EV_NM`` to read them in eV.

:func:`dipole_sq_from_momentum` turns a momentum matrix element into the
dipole-moment square a :class:`~slabshift.core.Transition` takes.
"""

from __future__ import annotations

import math

from .core import _positive_finite, finite_normal

# hbar*c in eV*nm (CODATA)
HBARC_EV_NM = 197.3269804

# fine-structure constant (CODATA), for dipole_sq_from_momentum
FINE_STRUCTURE = 7.2973525693e-3


def ev_to_inv_nm(energy_ev: float) -> float:
    """Convert an energy in eV to an inverse length in 1/nm."""
    return energy_ev / HBARC_EV_NM


def inv_nm_to_ev(energy_inv_nm: float) -> float:
    """Convert an inverse length in 1/nm back to an energy in eV."""
    return energy_inv_nm * HBARC_EV_NM


def dipole_sq_from_momentum(p_sq: float, E_ji: float,
                            m: float = 1.0) -> float:
    """Convert a momentum-matrix-element square to a dipole-moment square.

    |mu_sigma|^2 = 4 pi alpha |p_sigma|^2 / (m^2 E_ji^2)   (epsilon_0 = 1)

    with alpha the fine-structure constant ``FINE_STRUCTURE``.  ``m`` is
    the electron mass in the same natural units as ``E_ji``.  A ValueError
    where the square is not a finite normal double (see
    :func:`slabshift.core.finite_normal`), or is 0 where ``p_sq`` is not.
    """
    if not 0.0 <= p_sq < math.inf:
        raise ValueError(f"momentum square must be non-negative and finite, "
                         f"got {p_sq}")
    _positive_finite(E_ji, "transition energy")
    _positive_finite(m, "electron mass m")
    # p_sq / (m E)^2 as two divisions by m E: each quotient lies between
    # p_sq and the result, so neither leaves the doubles before the result
    m_E = m * E_ji
    # an m E that underflows to 0 leaves a p_sq > 0 square past the doubles
    ratio = (p_sq / m_E / m_E if m_E > 0.0 else
             math.inf if p_sq > 0.0 else 0.0)
    mu_sq = 4.0 * math.pi * FINE_STRUCTURE * ratio
    if mu_sq == 0.0 and p_sq > 0.0:
        raise ValueError(f"the dipole-moment square is 0 at momentum square "
                         f"{p_sq!r} > 0: it left the doubles")
    return finite_normal(mu_sq, "the dipole-moment square")
