"""Command-line interface.

Subcommands: ``shift`` (single-point energy shift), ``wfun`` (dimensionless
W functions), ``sweep`` (W over a parameter grid), ``modes`` (trapped-mode
table) and ``asympt`` (full integral against every asymptotic form).  Each
takes ``--output FILE`` and ``--jobs N`` (only ``sweep`` uses the worker
count) and the flags it reads, as :func:`build_parser` registers them and
README's table lists them; any other flag is an input error.  Exit codes:
0 ok, 2 input error, 3 a quadrature or the image series did not converge,
4 partial sweep failure.

:func:`run` is the process entry point, of ``python -m slabshift.cli`` and
of the ``slabshift`` console script: it turns the cyclic garbage collector
off before :func:`main` runs, and exits with its code after freezing the
collector's heap, so interpreter shutdown does not walk every object the
command left behind.  :func:`main` returns its code and touches neither,
for callers in a process that goes on.

The module itself loads only the standard library that the parser needs,
the package's lazy namespace and :mod:`slabshift.errors`: ``--help`` and
flag errors load no ``core``.  Each command binds the library names it
runs (:func:`_bind`) when it runs, so an input error found before any
integral loads no compute module either.  The value types are
namedtuples: their ``_fields``, ``_field_defaults`` and ``_asdict()`` are
the config keys and the manifest's ``quad`` entry.

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

Each problem flag's argparse dest is the key it overrides, and ``--help``
shows it (``--n SLAB.N``).  Any other key is an input error: the
``quad.*`` keys are the fields of ``QuadratureSpec``.  In ``eV-nm`` mode
energies are converted to inverse nanometres on input (lengths stay in
nm, dipole squares are nm^2) and shift values are reported in 1/nm and eV.

CSV output is deterministic: 17-significant-digit scientific notation,
comma separated, with a ``#``-prefixed manifest block; only the manifest
timestamp varies between identical runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import re
import sys
from collections import namedtuple

from . import _HOME, __version__
from .errors import ConvergenceError


def _bind(*names: str) -> None:
    """Bind package names here, where still unset, from their home modules:
    each command binds the ones it runs, so the parser loads no library
    module and input errors load no compute module."""
    for name in names:
        module = importlib.import_module(f"{__package__}.{_HOME[name]}")
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """A package name read as a module attribute binds it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_PARTIAL = 4
# a sweep holds its grid and two tuples per point before any point runs
MAX_POINTS = 10 ** 6


def _fmt(x: float) -> str:
    return f"{x:.16e}"


# ---------------------------------------------------------------------------
# config handling

# patterns, compiled (and cached by re) on first use: --help reads no config
_KEY_RE = r"^[A-Za-z_.\[\]0-9]+$"
_TRANSITION_RE = r"^atom\.transitions\[(\d+)\]\."


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat 'key = value' lines into a dict of strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not re.match(_KEY_RE, key):
            raise ValueError(f"line {lineno}: malformed key {key!r}")
        out[key] = value
    return out


def _get_number(cfg: dict[str, object], key: str) -> float:
    """``cfg[key]`` as a float; errors name the key."""
    if key not in cfg:
        raise ValueError(f"missing required field: {key}")
    try:
        return float(cfg[key])
    except ValueError:
        raise ValueError(f"field {key} is not a number: {cfg[key]!r}") from None


class RunInput(namedtuple("RunInput", "atom slab Z quad inputs")):
    """A fully validated single-point problem in natural units.

    ``inputs`` holds every problem key parsed and its value (``E_ji`` after
    the eV conversion): the table of known keys besides ``quad.*``, and the
    manifest's echo.
    """

    __slots__ = ()

    @property
    def units(self) -> str:  # "natural" | "eV-nm"
        return self.inputs["units"]


def build_run_input(cfg: dict[str, str]) -> RunInput:
    from .units import ev_to_inv_nm

    _bind("AtomSpec", "Slab", "Transition")
    units = cfg.get("units", "natural")
    if units not in ("natural", "eV-nm"):
        raise ValueError(f"units must be 'natural' or 'eV-nm', got {units!r}")
    inputs: dict[str, object] = {"units": units}
    inputs.update((key, _get_number(cfg, key))
                  for key in ("slab.n", "slab.L", "geometry.Z"))
    transition = re.compile(_TRANSITION_RE)
    indices = sorted({int(m[1]) for m in map(transition.match, cfg) if m})
    if not indices:
        raise ValueError("missing required field: atom.transitions[0].E_ji")
    if indices != list(range(len(indices))):
        raise ValueError("atom.transitions indices must be contiguous from 0")
    # the fields of Transition and of QuadratureSpec are the tables of keys
    transitions = []
    for i in indices:
        base = f"atom.transitions[{i}]"
        tr = {name: _get_number(cfg, f"{base}.{name}")
              for name in Transition._fields}
        if units == "eV-nm":
            tr["E_ji"] = ev_to_inv_nm(tr["E_ji"])
        inputs.update((f"{base}.{name}", value) for name, value in tr.items())
        try:
            transitions.append(Transition(**tr))
        except ValueError as exc:
            raise ValueError(f"{base}: {exc}") from None
    slab = Slab(n=inputs["slab.n"], L=inputs["slab.L"])
    Z = inputs["geometry.Z"]
    if not Z > 0.0:
        raise ValueError(f"geometry.Z must be positive, got {Z}")
    atom = AtomSpec(transitions)
    quad = _quad_spec(cfg)
    unknown = set(cfg) - set(inputs) - {f"quad.{name}"
                                        for name in QuadratureSpec._fields}
    if unknown:
        raise ValueError(f"unknown config key: {min(unknown)}")
    return RunInput(atom=atom, slab=slab, Z=Z, quad=quad, inputs=inputs)


def _quad_spec(cfg: dict[str, object]) -> QuadratureSpec:
    """The spec's fields are the one table of ``quad.*`` keys, each a
    float; a field ``cfg`` does not set keeps its default."""
    _bind("QuadratureSpec")
    return QuadratureSpec(**{
        name: _get_number(cfg, f"quad.{name}")
        for name in QuadratureSpec._fields
        if cfg.get(f"quad.{name}") is not None})


def _config_from_args(args: argparse.Namespace) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config_text(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
    # a problem flag's dest is the key it overrides: dotted, or units
    cfg.update((key, str(val)) for key, val in vars(args).items()
               if val is not None and ("." in key or key == "units"))
    return cfg


# ---------------------------------------------------------------------------
# the report document

def _utc_now() -> str:
    """The time now in UTC, as ``datetime.now(timezone.utc).isoformat()``
    writes it (microseconds dropped when zero), without loading
    :mod:`datetime`."""
    import time

    seconds, micro = divmod(time.time_ns() // 1000, 10 ** 6)
    return (time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
            + (f".{micro:06d}" if micro else "") + "+00:00")


def _report(fmt: str, command: str, inputs: dict[str, object],
            quad: QuadratureSpec | None, header: list[str],
            rows: list[dict[str, object]]) -> str:
    """One table as a CSV or JSON document under one manifest.

    The manifest holds the command, version, timestamp, sorted inputs and,
    for a command that integrates, the quadrature spec.  CSV prints it as
    ``#`` lines, then the ``header`` columns of each row; JSON adds the
    rows whole, with NaN as null.
    """
    manifest = {"command": command, "version": __version__,
                "timestamp": _utc_now(),
                "inputs": {k: str(inputs[k]) for k in sorted(inputs)}}
    if quad is not None:
        manifest["quad"] = quad._asdict()
    if fmt == "json":
        import json

        manifest["rows"] = [
            {k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in row.items()} for row in rows]
        return json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    lines = [f"# slabshift {command}", f"# version = {__version__}",
             f"# timestamp = {manifest['timestamp']}"]
    lines += [f"# {k} = {v}" for k, v in manifest["inputs"].items()]
    lines += [f"# quad.{k} = {v!r}"
              for k, v in manifest.get("quad", {}).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) if isinstance(row[col], float)
                              else str(row[col]) for col in header))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns its report text and exit code

# the text report of one row of ``shift``, from the row's JSON keys
_SHIFT_TEXT = ("transition {transition}: E_ji={E_ji} zeta={zeta} lam={lam}\n"
               "  W_par={w_par} W_z={w_z} err_est={err_est}\n"
               "  contribution={contribution} regime={regime} "
               "(2*zeta={two_zeta})\n")


def cmd_shift(args: argparse.Namespace) -> tuple[str, int]:
    run = build_run_input(_config_from_args(args))
    _bind("reduce", "w_pair", "assemble_shift", "classify_regime")
    params = [reduce(run.slab, tr, run.Z) for tr in run.atom.transitions]
    pairs = [w_pair(p, run.quad) for p in params]
    shift = assemble_shift(run.atom, run.slab, run.Z, pairs)
    if run.units == "eV-nm":
        _bind("inv_nm_to_ev")
        text = (f"energy shift: {_fmt(shift.value)} (1/nm)\n"
                f"energy shift: {_fmt(inv_nm_to_ev(shift.value))} (eV)\n")
    else:
        text = f"energy shift: {_fmt(shift.value)} (natural units)\n"
    rows = []
    for i, (tr, p, wp) in enumerate(zip(run.atom.transitions, params, pairs)):
        regime = classify_regime(p)
        row = {"transition": i, "E_ji": tr.E_ji, "zeta": p.zeta, "lam": p.lam,
               "w_par": wp.w_par, "w_z": wp.w_z, "err_est": wp.err_est,
               "contribution": shift.per_transition[i],
               "regime": regime.regime, "two_zeta": regime.two_zeta}
        rows.append(row)
        text += _SHIFT_TEXT.format_map({
            k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})
    if args.format == "json":
        return _report("json", "shift", run.inputs, run.quad, [],
                       rows + [{"total_shift": shift.value}]), EXIT_OK
    return text, EXIT_OK


def cmd_wfun(args: argparse.Namespace) -> tuple[str, int]:
    _bind("ReducedParams")
    p = ReducedParams(zeta=args.zeta, lam=args.lam, n=args.n)
    quad = _quad_spec(vars(args))
    _bind("w_pair")
    wp = w_pair(p, quad)
    if args.format == "json":
        row = {"zeta": p.zeta, "lam": p.lam, "n": p.n,
               "w_par": wp.w_par, "w_z": wp.w_z, "err_est": wp.err_est}
        return _report("json", "wfun", {}, quad, [], [row]), EXIT_OK
    return (f"W_par={_fmt(wp.w_par)} W_z={_fmt(wp.w_z)} "
            f"err_est={_fmt(wp.err_est)}\n"), EXIT_OK


def _sweep_grid(lo: float, hi: float, points: int, scale: str) -> list[float]:
    if not 2 <= points <= MAX_POINTS:
        raise ValueError(f"points must be in [2, {MAX_POINTS}], got {points}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if scale == "linear":
        step = (hi - lo) / (points - 1)
        inner = [lo + i * step for i in range(1, points - 1)]
    else:
        if lo <= 0.0:
            raise ValueError("log scale needs lo > 0")
        ratio = (hi / lo) ** (1.0 / (points - 1))
        inner = [lo * ratio ** i for i in range(1, points - 1)]
    # the endpoints are the given bounds: lo*ratio**(points-1) can miss hi
    # by a few ulp
    return [lo] + inner + [hi]


def _sweep_point(point: tuple[float, float, float],
                 quad: QuadratureSpec) -> WPair | str:
    """``w_pair`` at one ``(zeta, lam, n)`` point of a sweep, or the failure
    text of the rows that need it (top level so worker pools can pickle it)."""
    _bind("ReducedParams", "w_pair")
    try:
        return w_pair(ReducedParams(*point), quad)
    except Exception as exc:  # per-point failures stay in-row
        return "failed: " + str(exc).replace(",", ";")


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    fixed = {"zeta": args.zeta, "lambda": args.lam, "n": args.n}
    flag = {"zeta": "--zeta", "lambda": "--lam", "n": "--n"}
    if fixed.pop(args.axis) is not None:
        raise ValueError(f"{flag[args.axis]} "
                         "must not be given when it is the sweep axis")
    missing = [flag[name] for name, value in fixed.items() if value is None]
    if missing:
        raise ValueError(f"missing fixed value: {missing[0]}")
    inputs: dict[str, object] = {
        "axis": args.axis, "lo": args.lo, "hi": args.hi,
        "points": args.points, "scale": args.scale,
        **{f"fixed.{name}": value for name, value in fixed.items()},
    }

    grid = _sweep_grid(args.lo, args.hi, args.points, args.scale)
    quad = _quad_spec(vars(args))
    # each grid point and its half-space point (zeta, inf, n); each distinct
    # one is computed once, so the lambda axis shares one half-space pair
    field = "lam" if args.axis == "lambda" else args.axis
    base = {"zeta": args.zeta, "lam": args.lam, "n": args.n}
    pairs = [((p["zeta"], p["lam"], p["n"]), (p["zeta"], math.inf, p["n"]))
             for p in ({**base, field: v} for v in grid)]
    points = list(dict.fromkeys(point for pair in pairs for point in pair))
    if args.jobs > 1:
        import concurrent.futures  # pulls in logging; only pools need it
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, points,
                                    [quad] * len(points)))
    else:
        results = [_sweep_point(point, quad) for point in points]
    by_point = dict(zip(points, results))

    header = ["value", "w_par", "w_z", "w_par_halfspace", "w_z_halfspace",
              "err_est", "status"]
    rows = []
    for value, (point, halfspace) in zip(grid, pairs):
        wp, hs = by_point[point], by_point[halfspace]
        failure = next((r for r in (wp, hs) if isinstance(r, str)), None)
        numbers = ((math.nan,) * 5 if failure else
                   (wp.w_par, wp.w_z, hs.w_par, hs.w_z,
                    max(wp.err_est, hs.err_est)))
        rows.append(dict(zip(header, (value, *numbers, failure or "ok"))))
    failed = any(row["status"] != "ok" for row in rows)
    return (_report(args.format, "sweep", inputs, quad, header, rows),
            EXIT_PARTIAL if failed else EXIT_OK)


def cmd_modes(args: argparse.Namespace) -> tuple[str, int]:
    from .core import _positive_finite

    # find_trapped_modes checks k_par too, but only once slabshift.modes
    # is loaded: an input error loads no compute module
    _positive_finite(args.k_par, "k_par")
    _bind("Slab")
    slab = Slab(n=args.n, L=args.thickness)
    _bind("Polarization", "find_trapped_modes")
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
    from .core import finite_power

    _bind("static_polarizability", "reduce", "classify_regime",
          "energy_shift", "retarded_thin_shift", "nonretarded_shift",
          "nonretarded_thin_shift", "buhmann_U")
    # Z^5 is the highest power of Z a form divides by: a distance past it is
    # an input error before anything runs
    finite_power(run.Z, 5, "atom-surface distance Z")
    full = energy_shift(run.atom, run.slab, run.Z, run.quad).value
    lines = [f"full integral: {_fmt(full)}"]
    forms = [
        ("retarded thin slab",
         lambda: retarded_thin_shift(run.atom, run.slab, run.Z).value),
        ("non-retarded (image series)",
         lambda: nonretarded_shift(run.atom, run.slab, run.Z, run.quad).value),
        ("non-retarded thin slab",
         lambda: nonretarded_thin_shift(run.atom, run.slab, run.Z).value)]
    try:
        alpha0 = static_polarizability(run.atom)
    except ValueError:  # the thin-plate form takes isotropic atoms only
        lines.append("thin-plate polarizability form: skipped "
                     "(anisotropic atom)")
    else:
        forms.append(("thin-plate polarizability form",
                      lambda: buhmann_U(alpha0, run.slab.n, run.slab.L, run.Z)))

    def finite(x: float) -> str:
        # a diagnostic that leaves the doubles, as a closed form may
        return _fmt(x) if math.isfinite(x) else "out of range"

    for label, form in forms:
        try:
            value = form()
        except ValueError:  # the form leaves the doubles; the integral may not
            lines.append(f"{label}: out of range")
        else:
            # equal values deviate by 0: at n = 1 or L = 0 both are 0
            dev = 0.0 if value == full else abs(value - full) / abs(full)
            lines.append(f"{label}: {_fmt(value)} rel_deviation={finite(dev)}")
        if label == "non-retarded (image series)":
            # the label names the form, this line the route that
            # nonretarded_shift took; it holds no number, so it adds no
            # `label: value` line
            from .electrostatics import image_series_converges

            lines.append("non-retarded route: " + (
                "image series" if image_series_converges(run.slab, run.Z)
                else "k integral"))
    for i, tr in enumerate(run.atom.transitions):
        regime = classify_regime(reduce(run.slab, tr, run.Z))
        # a half-space's L/Z is inf; a finite L's may leave the doubles
        l_over_z = regime.lambda_over_zeta
        lines.append(
            f"transition {i}: regime={regime.regime} "
            f"2*zeta={_fmt(regime.two_zeta)} L/Z="
            + (_fmt(l_over_z) if math.isinf(run.slab.L) else finite(l_over_z))
            + (" (no validity claim)" if regime.regime == "intermediate" else ""))
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing: each subcommand registers only the flags it reads

def _positive(kind: type):
    """An argparse type: ``kind(text)``, which must be positive and
    finite."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"need a finite positive {kind.__name__}, got {text!r}")
        return value
    return parse


def _add_common(parser: argparse.ArgumentParser, *, fmt: bool = True,
                rel_tol: bool = True) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    # only sweep reads --jobs, yet every subcommand accepts it:
    # perfbench/workloads.draw appends --jobs 1 to every command it runs
    parser.add_argument("--jobs", type=_positive(int), default=1,
                        help="worker processes for sweeps (default: 1)")
    if rel_tol:
        parser.add_argument("--rel-tol", dest="quad.rel_tol",
                            type=_positive(float),
                            help="quadrature relative tolerance override")


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    """The problem flags: each one's dest is the config key it overrides,
    which ``--help`` shows as its metavar."""
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--units", choices=("natural", "eV-nm"))
    parser.add_argument("--n", dest="slab.n", type=float,
                        help="refractive index")
    parser.add_argument("--thickness", dest="slab.L", type=float,
                        help="slab thickness L")
    parser.add_argument("--distance", dest="geometry.Z", type=float,
                        help="atom-surface distance Z")
    parser.add_argument("--e-ji", dest="atom.transitions[0].E_ji", type=float,
                        help="transition energy (single-transition shortcut)")
    parser.add_argument("--mu-par-sq", dest="atom.transitions[0].mu_par_sq",
                        type=float)
    parser.add_argument("--mu-perp-sq", dest="atom.transitions[0].mu_perp_sq",
                        type=float)


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
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code; the process environment is left as it is."""
    args = build_parser().parse_args(argv)
    # an input error is a ValueError, from the CLI's checks or from the
    # library's, such as a point outside the range W can be taken at
    try:
        text, code = args.func(args)
    except ValueError as exc:
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


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit with its code.

    The cyclic garbage collector is off for the whole command: reference
    counting still frees every list and tuple, and the collections that
    a command's allocations would trigger find next to nothing in a
    process this short.
    Freezing the heap moves every tracked object into the permanent
    generation, which the collections of interpreter shutdown skip; atexit
    handlers and the flushing of stdout still run.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
