"""Workload pools and the seeded draw of the slabshift benchmark.

Every input the benchmark sends to the CLI comes from a committed pool
below, and every pool entry has committed reference values in
``reference.json`` (written by ``make_reference.py``).  A workload's seed
only chooses which entries run and in what order; the same seed always
gives the same commands.

Pool entries of one workload, or of one stratum of ``point-queries``, are
chosen to cost about the same, so that runs with different seeds measure
the same amount of work and differ only in which inputs carry it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ATOM3_CFG = HERE / "atom3.cfg"

# sweep-lambda: 12 log points across all three coth branches of rtilde, at
# a pooled (zeta, n); the half-space column is the same at every point
SWEEP_LAMBDA_GRID = {"lo": 1e-2, "hi": 1e2, "points": 12}
SWEEP_LAMBDA_POOL = [(1.0, 2.0), (1.0, 2.5), (1.0, 3.0), (0.8, 2.0), (1.2, 2.0)]
SWEEP_LAMBDA_DRAW = 3

# point-queries: stratum -> (entries, how many one draw takes)
POINT_POOL: dict[str, tuple[list[tuple], int]] = {
    # 3-transition atom from atom3.cfg at distance Z
    "shift": ([(1.0,), (1.5,), (2.0,), (3.0,), (4.0,)], 3),
    # single transition in eV-nm mode at nanometre distance: (E_ji eV, Z nm)
    "shift-evnm": ([(2.0, 1.0), (2.0, 1.5), (1.5, 1.5)], 1),
    # (zeta, lam, n)
    "wfun": ([(8.0, 1.0, 2.0), (3.0, 0.5, 1.5), (2.0, 2.0, 3.0),
              (20.0, 5.0, 2.0), (5.0, 0.2, 2.0)], 4),
    # deep in the non-retarded regime (17 inner panels per outer node at
    # zeta 1e-3), where a kernel fast only at large zeta would fail
    "wfun-small": ([(1e-3, 1.0, 2.0), (2e-3, 0.5, 2.0), (1e-3, 1.0, 3.0)], 1),
    # (zeta, n) with --lam inf
    "wfun-inf": ([(1.0, 2.0), (3.0, 1.5), (5.0, 3.0)], 1),
    # (k_par, n, L)
    "modes": ([(50.0, 2.0, 1.0), (50.0, 1.5, 2.0), (60.0, 3.0, 0.5)], 1),
    "modes-large": ([(2000.0, 2.0, 1.0)], 1),
    # ordinary slab: (n, L, Z, E_ji, mu_par_sq, mu_perp_sq)
    "asympt": ([(2.0, 0.2, 5.0, 1.0, 2.0, 1.0), (1.5, 0.5, 3.0, 1.0, 1.0, 1.0),
                (3.0, 0.05, 8.0, 1.0, 2.0, 1.0)], 2),
    # near a perfect mirror, L/Z = 0.01: the image series runs out of terms
    # and the command exits 3 (ROADMAP item 3).  It is in every draw on
    # purpose, so the known defect shows in every run.
    "asympt-mirror": ([(1e4, 0.01, 1.0, 1.0, 2.0, 1.0)], 1),
}

WORKLOADS = ("sweep-lambda", "point-queries")

# A run stops after the command during which its time ran out, except in
# these workloads, which stop only at the end of a pass: there every pass
# holds the near-mirror failure once, so each run fails the same share.
WHOLE_PASSES = ("point-queries",)


@dataclass(frozen=True)
class Op:
    """One CLI command: its reference key, kind and arguments."""

    key: str
    kind: str  # sweep | shift | wfun | modes | asympt
    argv: tuple[str, ...]


def _num(x: float) -> str:
    return repr(float(x))


def sweep_op(zeta: float, n: float) -> Op:
    grid = SWEEP_LAMBDA_GRID
    argv = ["sweep", "--axis", "lambda", "--scale", "log",
            "--lo", _num(grid["lo"]), "--hi", _num(grid["hi"]),
            "--points", str(grid["points"]), "--zeta", _num(zeta),
            "--n", _num(n)]
    return Op(f"sweep-lambda/{zeta:g},{n:g}", "sweep", tuple(argv))


def point_op(stratum: str, entry: tuple) -> Op:
    key = f"{stratum}/" + ",".join(f"{x:g}" for x in entry)
    if stratum == "shift":
        argv = ["shift", "--config", str(ATOM3_CFG), "--distance", _num(entry[0])]
        return Op(key, "shift", tuple(argv))
    if stratum == "shift-evnm":
        e_ev, z_nm = entry
        argv = ["shift", "--units", "eV-nm", "--n", "2.0", "--thickness", "10.0",
                "--distance", _num(z_nm), "--e-ji", _num(e_ev),
                "--mu-par-sq", "0.01", "--mu-perp-sq", "0.005"]
        return Op(key, "shift", tuple(argv))
    if stratum in ("wfun", "wfun-small"):
        zeta, lam, n = entry
        return Op(key, "wfun", ("wfun", "--zeta", _num(zeta), "--lam", _num(lam),
                                "--n", _num(n)))
    if stratum == "wfun-inf":
        zeta, n = entry
        return Op(key, "wfun", ("wfun", "--zeta", _num(zeta), "--lam", "inf",
                                "--n", _num(n)))
    if stratum in ("modes", "modes-large"):
        k_par, n, L = entry
        return Op(key, "modes", ("modes", "--k-par", _num(k_par), "--n", _num(n),
                                 "--thickness", _num(L)))
    if stratum in ("asympt", "asympt-mirror"):
        n, L, Z, e_ji, mu_par, mu_perp = entry
        argv = ["asympt", "--n", _num(n), "--thickness", _num(L),
                "--distance", _num(Z), "--e-ji", _num(e_ji),
                "--mu-par-sq", _num(mu_par), "--mu-perp-sq", _num(mu_perp)]
        return Op(key, "asympt", tuple(argv))
    raise ValueError(f"unknown stratum {stratum!r}")


def pool(workload: str) -> list[Op]:
    """Every op a workload can draw (the set the reference must cover)."""
    if workload == "sweep-lambda":
        return [sweep_op(*f) for f in SWEEP_LAMBDA_POOL]
    if workload == "point-queries":
        return [point_op(name, e) for name, (entries, _) in POINT_POOL.items()
                for e in entries]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload`` for ``seed``, in run order.

    Every op runs with ``--jobs 1`` so the load is one CLI process on one
    core at a time.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-lambda":
        ops = [sweep_op(*f)
               for f in rng.sample(SWEEP_LAMBDA_POOL, SWEEP_LAMBDA_DRAW)]
    elif workload == "point-queries":
        ops = [point_op(name, e) for name, (entries, k) in POINT_POOL.items()
               for e in rng.sample(entries, k)]
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Op(op.key, op.kind, op.argv + ("--jobs", "1")) for op in ops]
