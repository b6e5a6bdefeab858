"""Command-line interface.

Subcommands, with the flags each takes besides ``--output FILE`` and
``--jobs N`` (every subcommand accepts those two; only ``sweep`` uses the
worker count)::

    shift   single-point energy shift: --config --units --n --thickness
            --distance --e-ji --mu-par-sq --mu-perp-sq --rel-tol --format
    wfun    dimensionless W functions: --zeta --lam --n --rel-tol --format
    sweep   W over a parameter grid: --axis --lo --hi --points --scale
            --zeta --lam --n --rel-tol --format
    modes   trapped-mode table: --k-par --n --thickness --format
    asympt  full integral against every asymptotic form: the flags of
            ``shift`` except --format

Any other flag is an input error.  Exit codes: 0 ok, 2 input error, 3 a
quadrature or the image series did not converge, 4 partial sweep failure.
``SLABSHIFT_JOBS`` sets the default worker count.  :func:`main` runs numpy's
OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is already set.

Config files are flat ``key = value`` text; ``#`` starts a comment::

    units = natural            # or eV-nm
    slab.n = 2.0
    slab.L = 1.0               # nm in eV-nm mode
    geometry.Z = 8.0
    atom.transitions[0].E_ji = 1.0        # eV in eV-nm mode
    atom.transitions[0].mu_par_sq = 2.0
    atom.transitions[0].mu_perp_sq = 1.0
    quad.rel_tol = 1e-8
    quad.abs_tol = 1e-14

Flags override file values.  In ``eV-nm`` mode energies are converted to
inverse nanometres on input (lengths stay in nm, dipole squares are nm^2)
and shift values are reported both in 1/nm and in eV.

CSV output is deterministic: 17-significant-digit scientific notation,
comma separated, with a ``#``-prefixed manifest block; only the manifest
timestamp varies between identical runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .core import (AtomSpec, ReducedParams, Slab, Transition, assemble_shift,
                   classify_regime, reduce, static_polarizability)
from .errors import ConvergenceError
from .units import ev_to_inv_nm, inv_nm_to_ev

# compute names by home module: each command binds the ones it runs, so
# --help and input errors load no numpy; a name already set here is kept
_LAZY = {"quadrature": ("QuadratureSpec",), "reflection": ("Polarization",),
         "shift": ("W_SCALE", "energy_shift", "w_pair"),
         "asymptotics": ("buhmann_U", "halfspace_S", "nonretarded_shift",
                         "nonretarded_thin_shift", "retarded_thin_shift"),
         "modes": ("find_trapped_modes",)}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind their compute names where still unset."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """A compute name read as a module attribute binds its module."""
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_PARTIAL = 4


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _fmt(x: float) -> str:
    return f"{x:.16e}"


# ---------------------------------------------------------------------------
# config handling

_KEY_RE = re.compile(r"^[A-Za-z_.\[\]0-9]+$")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat 'key = value' lines into a dict of strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        out[key] = value
    return out


def _get_float(cfg: dict[str, str], key: str) -> float:
    if key not in cfg:
        raise ConfigError(f"missing required field: {key}")
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"field {key} is not a number: {cfg[key]!r}") from None


@dataclass(frozen=True)
class RunInput:
    """A fully validated single-point problem in natural units."""

    atom: AtomSpec
    slab: Slab
    Z: float
    quad: QuadratureSpec
    units: str  # "natural" | "eV-nm"


def _transition_indices(cfg: dict[str, str]) -> list[int]:
    pat = re.compile(r"^atom\.transitions\[(\d+)\]\.")
    return sorted({int(m.group(1)) for m in map(pat.match, cfg) if m})


def build_run_input(cfg: dict[str, str]) -> RunInput:
    units = cfg.get("units", "natural")
    if units not in ("natural", "eV-nm"):
        raise ConfigError(f"units must be 'natural' or 'eV-nm', got {units!r}")
    n = _get_float(cfg, "slab.n")
    L = _get_float(cfg, "slab.L")
    Z = _get_float(cfg, "geometry.Z")
    indices = _transition_indices(cfg)
    if not indices:
        raise ConfigError("missing required field: atom.transitions[0].E_ji")
    if indices != list(range(len(indices))):
        raise ConfigError("atom.transitions indices must be contiguous from 0")
    transitions = []
    for i in indices:
        base = f"atom.transitions[{i}]"
        E = _get_float(cfg, f"{base}.E_ji")
        mu_par = _get_float(cfg, f"{base}.mu_par_sq")
        mu_perp = _get_float(cfg, f"{base}.mu_perp_sq")
        if units == "eV-nm":
            E = ev_to_inv_nm(E)
        try:
            transitions.append(Transition(E_ji=E, mu_par_sq=mu_par,
                                          mu_perp_sq=mu_perp))
        except ValueError as exc:
            raise ConfigError(f"{base}: {exc}") from None
    try:
        slab = Slab(n=n, L=L)
        if not Z > 0.0:
            raise ValueError(f"geometry.Z must be positive, got {Z}")
        atom = AtomSpec(transitions)
        _bind("quadrature")
        quad = QuadratureSpec(
            rel_tol=float(cfg.get("quad.rel_tol", QuadratureSpec.rel_tol)),
            abs_tol=float(cfg.get("quad.abs_tol", QuadratureSpec.abs_tol)),
            s_cutoff_decades=float(cfg.get("quad.s_cutoff_decades",
                                           QuadratureSpec.s_cutoff_decades)),
            max_subdivisions=int(cfg.get("quad.max_subdivisions",
                                         QuadratureSpec.max_subdivisions)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunInput(atom=atom, slab=slab, Z=Z, quad=quad, units=units)


def _config_from_args(args: argparse.Namespace) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    # inline single-transition flags override the file
    overrides = {
        "slab.n": args.n,
        "slab.L": args.thickness,
        "geometry.Z": args.distance,
        "atom.transitions[0].E_ji": args.e_ji,
        "atom.transitions[0].mu_par_sq": args.mu_par_sq,
        "atom.transitions[0].mu_perp_sq": args.mu_perp_sq,
    }
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = str(val)
    if args.rel_tol is not None:
        cfg["quad.rel_tol"] = str(args.rel_tol)
    if args.units is not None:
        cfg["units"] = args.units
    return cfg


# ---------------------------------------------------------------------------
# the report document

def _report(fmt: str, command: str, inputs: dict[str, object],
            quad: QuadratureSpec | None, header: list[str],
            rows: list[dict[str, object]]) -> str:
    """One table as a CSV or JSON document under one manifest.

    The manifest holds the command, version, timestamp, sorted inputs and,
    for a command that integrates, the quadrature spec.  CSV prints it as
    ``#`` lines, then the ``header`` columns of each row; JSON adds the
    rows whole, with NaN as null.
    """
    from datetime import datetime, timezone

    manifest = {"command": command, "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "inputs": {k: str(inputs[k]) for k in sorted(inputs)}}
    if quad is not None:
        manifest["quad"] = asdict(quad)
    if fmt == "json":
        import json

        manifest["rows"] = [
            {k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in row.items()} for row in rows]
        return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    lines = [f"# slabshift {command}", f"# version = {__version__}",
             f"# timestamp = {manifest['timestamp']}"]
    lines += [f"# {k} = {v}" for k, v in manifest["inputs"].items()]
    lines += [f"# quad.{k} = {v:g}" if isinstance(v, float)
              else f"# quad.{k} = {v}"
              for k, v in manifest.get("quad", {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) if isinstance(row[col], float)
                              else str(row[col]) for col in header))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns its report text and exit code

def cmd_shift(args: argparse.Namespace) -> tuple[str, int]:
    run = build_run_input(_config_from_args(args))
    _bind("shift")
    try:
        params = [reduce(run.slab, tr, run.Z) for tr in run.atom.transitions]
        pairs = [w_pair(p, run.quad) for p in params]
    except ValueError as exc:  # a point outside the range W can be taken at
        raise ConfigError(str(exc)) from None
    shift = assemble_shift(run.atom, run.slab, run.Z, pairs)
    rows = []
    for i, (tr, p, wp) in enumerate(zip(run.atom.transitions, params, pairs)):
        regime = classify_regime(p)
        rows.append({
            "transition": i,
            "E_ji": tr.E_ji,
            "zeta": p.zeta,
            "lam": p.lam,
            "w_par": wp.w_par,
            "w_z": wp.w_z,
            "err_est": wp.err_est,
            "contribution": shift.per_transition[i],
            "regime": regime.regime,
            "two_zeta": regime.two_zeta,
        })

    if args.format == "json":
        return _report("json", "shift", _input_echo(run), run.quad, [],
                       rows + [{"total_shift": shift.value}]), EXIT_OK

    out = [f"energy shift: {_fmt(shift.value)}"
           + (" (1/nm)" if run.units == "eV-nm" else " (natural units)")]
    if run.units == "eV-nm":
        out.append(f"energy shift: {_fmt(inv_nm_to_ev(shift.value))} (eV)")
    for row in rows:
        out.append(
            f"transition {row['transition']}: E_ji={_fmt(row['E_ji'])} "
            f"zeta={_fmt(row['zeta'])} lam={_fmt(row['lam'])}")
        out.append(
            f"  W_par={_fmt(row['w_par'])} W_z={_fmt(row['w_z'])} "
            f"err_est={_fmt(row['err_est'])}")
        out.append(
            f"  contribution={_fmt(row['contribution'])} "
            f"regime={row['regime']} (2*zeta={_fmt(row['two_zeta'])})")
    return "\n".join(out) + "\n", EXIT_OK


def _input_echo(run: RunInput) -> dict[str, object]:
    echo: dict[str, object] = {
        "slab.n": run.slab.n,
        "slab.L": run.slab.L,
        "geometry.Z": run.Z,
        "units": run.units,
    }
    for i, tr in enumerate(run.atom.transitions):
        echo[f"atom.transitions[{i}].E_ji"] = tr.E_ji
        echo[f"atom.transitions[{i}].mu_par_sq"] = tr.mu_par_sq
        echo[f"atom.transitions[{i}].mu_perp_sq"] = tr.mu_perp_sq
    return echo


def cmd_wfun(args: argparse.Namespace) -> tuple[str, int]:
    try:
        p = ReducedParams(zeta=args.zeta, lam=args.lam, n=args.n)
        _bind("quadrature", "shift")
        quad = QuadratureSpec(rel_tol=args.rel_tol) if args.rel_tol else QuadratureSpec()
        wp = w_pair(p, quad)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.format == "json":
        row = {"zeta": p.zeta, "lam": p.lam, "n": p.n,
               "w_par": wp.w_par, "w_z": wp.w_z, "err_est": wp.err_est}
        return _report("json", "wfun", {}, quad, [], [row]), EXIT_OK
    return (f"W_par={_fmt(wp.w_par)} W_z={_fmt(wp.w_z)} "
            f"err_est={_fmt(wp.err_est)}\n"), EXIT_OK


def _sweep_grid(lo: float, hi: float, points: int, scale: str) -> list[float]:
    if points < 2:
        raise ConfigError(f"points must be >= 2, got {points}")
    if not lo < hi:
        raise ConfigError(f"need lo < hi, got [{lo}, {hi}]")
    if scale == "linear":
        step = (hi - lo) / (points - 1)
        inner = [lo + i * step for i in range(1, points - 1)]
    else:
        if lo <= 0.0:
            raise ConfigError("log scale needs lo > 0")
        ratio = (hi / lo) ** (1.0 / (points - 1))
        inner = [lo * ratio ** i for i in range(1, points - 1)]
    # the endpoints are the given bounds: lo*ratio**(points-1) can miss hi
    # by a few ulp
    return [lo] + inner + [hi]


def _sweep_point(task: tuple[float, dict[str, float], QuadratureSpec,
                             tuple[float, float] | Exception | None]) -> dict:
    """Evaluate one sweep grid point (top level so worker pools can pickle it).

    The task is the grid value, the point's ``ReducedParams`` fields, the
    spec, and the half-space pair ``halfspace_S(zeta, n)`` when the sweep
    computed it once for every point, or the exception that computing it
    raised; ``None`` means this point computes its own.  At ``lam = inf``
    the point's own W pair is the half-space column.
    """
    _bind("shift", "asymptotics")
    value, point, quad, hs = task
    row: dict[str, object] = {"value": value}
    try:
        p = ReducedParams(**point)
        wp = w_pair(p, quad)
        if isinstance(hs, Exception):
            raise hs
        if math.isinf(p.lam):
            hs_w = (wp.w_par, wp.w_z)
        else:
            scale = W_SCALE * p.zeta ** 4
            hs_par, hs_perp = hs or halfspace_S(p.zeta, p.n, quad)
            hs_w = (scale * hs_par, scale * hs_perp)
        row.update(w_par=wp.w_par, w_z=wp.w_z, w_par_halfspace=hs_w[0],
                   w_z_halfspace=hs_w[1], err_est=wp.err_est, status="ok")
    except Exception as exc:  # per-point failures stay in-row
        row.update(w_par=math.nan, w_z=math.nan,
                   w_par_halfspace=math.nan, w_z_halfspace=math.nan,
                   err_est=math.nan,
                   status="failed: " + str(exc).replace(",", ";"))
    return row


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    fixed = {"zeta": args.zeta, "lambda": args.lam, "n": args.n}
    flag = {"zeta": "--zeta", "lambda": "--lam", "n": "--n"}
    if fixed.pop(args.axis) is not None:
        raise ConfigError(f"{flag[args.axis]} "
                          "must not be given when it is the sweep axis")
    missing = [flag[name] for name, value in fixed.items() if value is None]
    if missing:
        raise ConfigError(f"missing fixed value: {missing[0]}")
    inputs: dict[str, object] = {
        "axis": args.axis, "lo": args.lo, "hi": args.hi,
        "points": args.points, "scale": args.scale,
        **{f"fixed.{name}": value for name, value in fixed.items()},
    }

    grid = _sweep_grid(args.lo, args.hi, args.points, args.scale)
    _bind("quadrature", "shift", "asymptotics")
    quad = QuadratureSpec(rel_tol=args.rel_tol) if args.rel_tol else QuadratureSpec()
    hs = None
    if args.axis == "lambda":
        # the half-space column depends on zeta and n only
        try:
            hs = halfspace_S(args.zeta, args.n, quad)
        except Exception as exc:  # reported in every row, as per point
            hs = exc
    field = "lam" if args.axis == "lambda" else args.axis
    point = {"zeta": args.zeta, "lam": args.lam, "n": args.n}
    tasks = [(v, {**point, field: v}, quad, hs) for v in grid]

    if args.jobs > 1:
        import concurrent.futures  # pulls in logging; only pools need it
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    header = ["value", "w_par", "w_z", "w_par_halfspace", "w_z_halfspace",
              "err_est", "status"]
    failed = any(row["status"] != "ok" for row in rows)
    return (_report(args.format, "sweep", inputs, quad, header, rows),
            EXIT_PARTIAL if failed else EXIT_OK)


def cmd_modes(args: argparse.Namespace) -> tuple[str, int]:
    if not 0.0 < args.k_par < math.inf:
        raise ConfigError(
            f"k_par must be positive and finite, got {args.k_par}")
    try:
        slab = Slab(n=args.n, L=args.thickness)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _bind("reflection", "modes")
    rows = []
    for pol in (Polarization.TE, Polarization.TM):
        for parity in ("S", "A"):
            for mode in find_trapped_modes(pol, parity, args.k_par, slab):
                rows.append({"pol": pol.value, "parity": parity,
                             "k_zd": mode.k_zd, "kappa": mode.kappa,
                             "residual": mode.residual})
    inputs = {"k_par": args.k_par, "slab.n": args.n, "slab.L": args.thickness}
    header = ["pol", "parity", "k_zd", "kappa", "residual"]
    return _report(args.format, "modes", inputs, None, header, rows), EXIT_OK


def cmd_asympt(args: argparse.Namespace) -> tuple[str, int]:
    run = build_run_input(_config_from_args(args))
    _bind("shift", "asymptotics")
    try:
        alpha0 = static_polarizability(run.atom)
    except ValueError:  # the thin-plate form takes isotropic atoms only
        alpha0 = None
    try:
        # the closed forms first: a distance whose powers leave the doubles
        # is an input error before the full integral runs
        comparisons = [
            ("retarded thin slab",
             retarded_thin_shift(run.atom, run.slab, run.Z).value),
            ("non-retarded (image series)",
             nonretarded_shift(run.atom, run.slab, run.Z).value),
            ("non-retarded thin slab",
             nonretarded_thin_shift(run.atom, run.slab, run.Z).value)]
        if alpha0 is not None:
            comparisons.append(("thin-plate polarizability form",
                                buhmann_U(alpha0, run.slab.n, run.slab.L,
                                          run.Z)))
        full = energy_shift(run.atom, run.slab, run.Z, run.quad)
    except ValueError as exc:  # a point outside the range W can be taken at
        raise ConfigError(str(exc)) from None

    def rel_dev(approx: float) -> float:
        if full.value == 0.0:
            return math.nan
        return abs(approx - full.value) / abs(full.value)

    lines = [f"full integral: {_fmt(full.value)}"]
    if alpha0 is None:
        lines.append("thin-plate polarizability form: skipped "
                     "(anisotropic atom)")
    for label, value in comparisons:
        lines.append(f"{label}: {_fmt(value)} "
                     f"rel_deviation={_fmt(rel_dev(value))}")
    for i, tr in enumerate(run.atom.transitions):
        regime = classify_regime(reduce(run.slab, tr, run.Z))
        lines.append(
            f"transition {i}: regime={regime.regime} "
            f"2*zeta={_fmt(regime.two_zeta)} L/Z={_fmt(regime.lambda_over_zeta)}"
            + (" (no validity claim)" if regime.regime == "intermediate" else ""))
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing: each subcommand registers only the flags it reads

def _positive(kind: type):
    """An argparse type: ``kind(text)``, which must be positive."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"need a positive {kind.__name__}, got {text!r}")
        return value
    return parse


def _add_common(parser: argparse.ArgumentParser, *, fmt: bool = True,
                rel_tol: bool = True) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    # only sweep reads --jobs, yet every subcommand accepts it:
    # perfbench/workloads.draw appends --jobs 1 to every command it runs
    parser.add_argument("--jobs", type=_positive(int),
                        default=os.environ.get("SLABSHIFT_JOBS", "1"),
                        help="worker processes for sweeps "
                             "(default: SLABSHIFT_JOBS or 1)")
    if rel_tol:
        parser.add_argument("--rel-tol", type=_positive(float), default=None,
                            help="quadrature relative tolerance override")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--units", choices=("natural", "eV-nm"), default=None)
    parser.add_argument("--n", type=float, default=None, help="refractive index")
    parser.add_argument("--thickness", type=float, default=None,
                        help="slab thickness L")
    parser.add_argument("--distance", type=float, default=None,
                        help="atom-surface distance Z")
    parser.add_argument("--e-ji", type=float, default=None,
                        help="transition energy (single-transition shortcut)")
    parser.add_argument("--mu-par-sq", type=float, default=None)
    parser.add_argument("--mu-perp-sq", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabshift",
        description="Casimir-Polder shift of a ground-state atom near a "
                    "dielectric slab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_shift = sub.add_parser("shift", help="single-point energy shift")
    _add_common(p_shift)
    _add_problem_flags(p_shift)
    p_shift.set_defaults(func=cmd_shift)

    p_wfun = sub.add_parser("wfun", help="dimensionless W functions at one point")
    _add_common(p_wfun)
    p_wfun.add_argument("--zeta", type=float, required=True)
    p_wfun.add_argument("--lam", type=float, required=True,
                        help="L*E_ji, or 'inf' for the half-space")
    p_wfun.add_argument("--n", type=float, required=True)
    p_wfun.set_defaults(func=cmd_wfun)

    p_sweep = sub.add_parser("sweep", help="tabulate W over a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=("zeta", "lambda", "n"))
    p_sweep.add_argument("--lo", type=float, required=True)
    p_sweep.add_argument("--hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    p_sweep.add_argument("--zeta", type=float, default=None,
                         help="fixed zeta (when not the axis)")
    p_sweep.add_argument("--lam", type=float, default=None,
                         help="fixed L*E_ji, or 'inf' (when not the axis)")
    p_sweep.add_argument("--n", type=float, default=None,
                         help="fixed refractive index (when not the axis)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_modes = sub.add_parser("modes", help="trapped-mode table at fixed k_par")
    _add_common(p_modes, rel_tol=False)
    p_modes.add_argument("--k-par", type=float, required=True)
    p_modes.add_argument("--n", type=float, required=True)
    p_modes.add_argument("--thickness", type=float, required=True)
    p_modes.set_defaults(func=cmd_modes)

    p_asympt = sub.add_parser("asympt",
                              help="full integral against every asymptotic form")
    _add_common(p_asympt, fmt=False)
    _add_problem_flags(p_asympt)
    p_asympt.set_defaults(func=cmd_asympt)

    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # one BLAS thread per CLI process (the --jobs workers inherit it):
        # numpy's OpenBLAS otherwise starts a worker at import that burns
        # CPU and that slabshift's 3-term dot products never use
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
    except ConfigError as exc:
        print(f"slabshift: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"slabshift: did not converge: {exc}", file=sys.stderr)
        if exc.estimate is not None:
            print(f"slabshift: best estimate {_fmt(exc.estimate)} "
                  f"(error bound {_fmt(exc.err_est or math.nan)})",
                  file=sys.stderr)
        return EXIT_CONVERGENCE
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"slabshift: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
