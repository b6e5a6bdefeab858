"""Write ``w_table.csv``: W at finite and infinite lam, in 30 digits.

Run from the repository root as ``PYTHONPATH=src python tests/make_w_table.py``
(about a minute per finite-lam point).  The values come from the
reflection series, which shares no code with the cubature it checks.
With ``a``, ``b`` and ``num`` the t-only parts of Rt = num / (a + b
coth(Lam)), ``q = (a - b) / (a + b)`` and ``x = e^{-2 Lam}``,

    Rt = num / (a + b) * Sum_k q^k (x^k - x^{k+1}),

and since ``Lam = lam s g`` each term's s integral is closed:

    Int_0^inf s^3 e^{-2 zeta s} x^k / (1 + s^2 t^2) ds = t^-4 J(b_k),
    b_k = (2 zeta + 2 k lam g) / t,

with ``J`` the half-space oracle's ``_j``.  ``q`` is ``((g - 1)/(g + 1))^2``
for TE and ``((n^2 - g)/(n^2 + g))^2`` for TM, in [0, 1), and ``J(b_k)``
falls with k, so the series is summed until its geometric tail majorant
``q^k J(b_k) / (1 - q)`` is below the working precision.  At lam = inf
only the k = 0 term is left, the half-space integrand; those rows are
checked against the existing half-space oracle ``_halfspace_w``.
"""

import functools
import math
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from test_shift import _halfspace_w, _j  # noqa: E402

TABLE = HERE / "w_table.csv"
DIGITS = 30
# (zeta, lam, n): zeta from 1e-3 to 1e3, every lam in {0.1, 1, 10, inf}
# and n in {2, 5}; and n = 1 + 3e-9 at zeta 1, lam 1 and inf, where n^2 - 1
# keeps its digits only as (n - 1)(n + 1)
POINTS = [(1e-3, 0.1, 2.0), (1e-3, math.inf, 5.0), (0.1, 10.0, 2.0),
          (0.1, 1.0, 5.0), (1.0, 1.0, 2.0), (10.0, 0.1, 5.0),
          (1e3, 10.0, 2.0), (1e3, math.inf, 5.0), (1.0, 1.0, 1.0 + 3e-9),
          (1.0, math.inf, 1.0 + 3e-9)]


def _series(t, zeta, lam, n2):
    """t^4 Int ds s^3 e^{-2 zeta s} (Rt_TE, Rt_TM) / (1 + s^2 t^2)."""
    g = mpmath.sqrt(1 + (n2 - 1) * t * t)
    tt = g * g - 1
    parts = ((-tt, 2 + tt, 2 * g), (n2 * n2 - 1 - tt, n2 * n2 + 1 + tt,
                                    2 * n2 * g))
    js = [_j(2 * zeta / t)]
    sums = []
    for num, a, b in parts:
        q = (a - b) / (a + b)
        total, k = mpmath.mpf(0), 0
        while True:
            if len(js) == k + 1:
                js.append(mpmath.mpf(0) if mpmath.isinf(lam)
                          else _j((2 * zeta + 2 * (k + 1) * lam * g) / t))
            total += q ** k * (js[k] - js[k + 1])
            k += 1
            if q ** k * js[k] <= mpmath.eps * (1 - q) * abs(total):
                break
        sums.append(num / (a + b) * total)
    return sums


def w_ref(zeta, lam, n):
    """(W_par, W_z) at (zeta, lam, n) as mpf, from the series above."""
    with mpmath.workdps(DIGITS + 5):
        zeta, n2 = mpmath.mpf(zeta), mpmath.mpf(n) ** 2
        lam = mpmath.inf if math.isinf(lam) else mpmath.mpf(lam)

        @functools.cache
        def coefficients(t):
            return _series(t, zeta, lam, n2)

        def par(t):
            te, tm = coefficients(t)
            return (tm - t * t * te) / t ** 4

        def perp(t):
            return (1 - t * t) * coefficients(t)[1] / t ** 4

        # the k-th term turns over near t = 2 zeta + 2 k lam g
        turns = [2 * zeta] + ([] if mpmath.isinf(lam) else [2 * lam])
        points = sorted({mpmath.mpf(0), mpmath.mpf(1)}
                        | {c * mpmath.mpf(2) ** k for c in turns
                           for k in range(-6, 8) if c * 2 ** k < 1})
        return (2 * zeta ** 4 * mpmath.quad(par, points),
                4 * zeta ** 4 * mpmath.quad(perp, points))


def main():
    lines = ["zeta,lam,n,w_par,w_z"]
    for zeta, lam, n in POINTS:
        w_par, w_z = w_ref(zeta, lam, n)
        if math.isinf(lam):
            for got, want in zip((w_par, w_z), _halfspace_w(zeta, n)):
                assert abs(got - want) <= 4e-16 * abs(want), (zeta, n)
        with mpmath.workdps(DIGITS + 5):
            values = [mpmath.nstr(w, DIGITS, min_fixed=1, max_fixed=0)
                      for w in (w_par, w_z)]
        lines.append(",".join([repr(zeta), repr(lam), repr(n)] + values))
        print(lines[-1], flush=True)
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
