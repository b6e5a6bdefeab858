"""Traced in-process replay and per-layer metrics.

The traced run calls ``slabshift.cli.main(argv)`` in this process, once
untraced and once with every layer boundary wrapped.  Wrappers are set on
the module attributes the callers look up (``slabshift.shift.rtilde``,
``slabshift.shift.adaptive_quad`` and the integrand passed to it, the
``*_detailed`` S integrals, ``w_pair``, and the library names imported into
``slabshift.cli`` and ``slabshift.asymptotics``), so no file under ``src/``
changes and the originals are restored afterwards.

Each wrapped call records a span (name, start, end, parent, op id) in
memory; self time is a span's duration minus that of its direct children.
A wrapped name that saw no calls reports ``calls = 0`` and ``null`` for
every other metric, never a zero time: after a change routes the hot path
around a wrapped name, its layer has to be measured some other way, and
the direct ``rtilde`` kernel timings below keep the reflection layer
measurable when that happens.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Replay:
    """Result of one in-process CLI call."""

    rc: int
    stdout: str
    stderr: str
    wall: float


def call_main(main, argv) -> Replay:
    """Run a CLI ``main(argv)`` in-process, capturing its streams.

    An exception that escapes ``main`` is a failed command, reported with
    its traceback on the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return Replay(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def strip_timestamp(text: str) -> str:
    """Drop the manifest timestamp, the only line allowed to differ."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp = "))


class Tracer:
    """Spans and counters kept in memory for the whole traced replay."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None, on_error=None, wrap_args=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the block."""
    import slabshift.asymptotics as asym
    import slabshift.cli as cli
    import slabshift.shift as shift
    from slabshift.errors import ConvergenceError

    t = tracer

    def nodes(args, result):
        t.add("reflection.rtilde.nodes", np.size(result))

    def panels(args, result):
        t.add("quadrature.panels", result.panels)

    def s_detail(args, result):
        t.add("shift.outer_panels", result.outer_panels)
        t.counts["shift.inner_panels_max"] = max(
            t.counts.get("shift.inner_panels_max", 0), result.inner_panels_max)

    # useful = distinct points within one command: separate CLI processes
    # cannot share work
    def w_pair_point(args, result):
        p = args[0]
        t.distinct.setdefault("shift.w_pair", set()).add(
            (t.op_id, p.zeta, p.lam, p.n))

    def halfspace_point(args, result):
        t.distinct.setdefault("asymptotics.halfspace_S", set()).add(
            (t.op_id,) + tuple(args[:2]))

    def roots(args, result):
        t.add("modes.find_trapped_modes.roots", len(result))

    def series_failed(exc):
        if isinstance(exc, ConvergenceError):
            t.add("electrostatics.image_series_shift.failed", 1)

    def integrand_nodes(args, result):
        t.add("quadrature.integrand_nodes", len(args[0]))

    def quad_of(caller: str):
        integrand = f"{caller}.integrand"

        def wrap_integrand(args):
            return (t.wrap(integrand, args[0], after=integrand_nodes),) + args[1:]
        return wrap_integrand

    # (span name, module, attribute, hooks)
    sites = [
        ("reflection.rtilde", shift, "rtilde", {"after": nodes}),
        ("quadrature.adaptive_quad", shift, "adaptive_quad",
         {"after": panels, "wrap_args": quad_of("shift")}),
        ("quadrature.adaptive_quad", asym, "adaptive_quad",
         {"after": panels, "wrap_args": quad_of("asymptotics")}),
        ("shift.s_parallel_detailed", shift, "s_parallel_detailed",
         {"after": s_detail}),
        ("shift.s_perp_detailed", shift, "s_perp_detailed", {"after": s_detail}),
        ("shift.w_pair", shift, "w_pair", {"after": w_pair_point}),
        ("shift.w_pair", cli, "w_pair", {"after": w_pair_point}),
        ("shift.energy_shift", cli, "energy_shift", {}),
        ("shift.s_parallel", asym, "s_parallel", {}),
        ("shift.s_perp", asym, "s_perp", {}),
        ("asymptotics.halfspace_S", cli, "halfspace_S",
         {"after": halfspace_point}),
        ("asymptotics.nonretarded_shift", cli, "nonretarded_shift", {}),
        ("asymptotics.retarded_thin_shift", cli, "retarded_thin_shift", {}),
        ("asymptotics.nonretarded_thin_shift", cli, "nonretarded_thin_shift",
         {}),
        ("asymptotics.buhmann_U", cli, "buhmann_U", {}),
        ("asymptotics.classify_regime", cli, "classify_regime", {}),
        ("electrostatics.image_series_shift", asym, "image_series_shift",
         {"on_error": series_failed}),
        ("modes.find_trapped_modes", cli, "find_trapped_modes",
         {"after": roots}),
    ]
    saved = []
    try:
        for name, module, attr, hooks in sites:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, t.wrap(name, original, **hooks))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def replay_traced(tracer: Tracer, cli, ops) -> list[Replay]:
    """Run every op through ``cli.main`` with spans, one op id per op."""
    results = []
    with instrumented(tracer):
        main = tracer.wrap("cli.main", cli.main)
        for i, op in enumerate(ops):
            tracer.op_id = i
            results.append(call_main(main, op.argv))
    return results


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics from the spans and counters of one traced replay.

    Every metric of a wrapped name with no calls is ``None`` except its
    ``calls``, which is 0.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=dur, minlength=n_names)
    self_total = np.bincount(a["name"], weights=self_t, minlength=n_names)

    def stats(name: str):
        i = tracer._ids.get(name)
        if i is None or calls[i] == 0:
            return 0, None, None
        return int(calls[i]), float(total[i]), float(self_total[i])

    def per_call(name: str):
        i = tracer._ids.get(name)
        if i is None or calls[i] == 0:
            return None
        return dur[a["name"] == i]

    def ratio(num, den, scale=1.0):
        if num is None or den is None or den == 0:
            return None
        return scale * num / den

    c = tracer.counts
    m: dict[str, float | None] = {}

    n_rt, _, self_rt = stats("reflection.rtilde")
    nodes = c.get("reflection.rtilde.nodes") if n_rt else None
    m["reflection.rtilde.calls"] = n_rt
    m["reflection.rtilde.nodes"] = nodes
    m["reflection.rtilde.self_s"] = self_rt
    m["reflection.rtilde.ns_per_node"] = ratio(self_rt, nodes, 1e9)

    n_q, _, self_q = stats("quadrature.adaptive_quad")
    m["quadrature.adaptive_quad.calls"] = n_q
    m["quadrature.adaptive_quad.self_s"] = self_q
    m["quadrature.panels"] = c.get("quadrature.panels") if n_q else None
    m["quadrature.integrand_nodes"] = (c.get("quadrature.integrand_nodes")
                                       if n_q else None)

    n_w, time_w, _ = stats("shift.w_pair")
    w_durs = per_call("shift.w_pair")
    n_s = (stats("shift.s_parallel_detailed")[0]
           + stats("shift.s_perp_detailed")[0])
    m["shift.w_pair.calls"] = n_w
    m["shift.w_pair.time_s"] = time_w
    m["shift.w_pair.p50_ms"] = (None if w_durs is None
                                else 1e3 * float(np.median(w_durs)))
    m["shift.integrand.self_s"] = stats("shift.integrand")[2]
    m["shift.outer_panels"] = c.get("shift.outer_panels") if n_s else None
    m["shift.inner_panels_max"] = (c.get("shift.inner_panels_max")
                                   if n_s else None)
    m["shift.w_pair.useful_ratio"] = ratio(
        len(tracer.distinct.get("shift.w_pair", ())), n_w or None)

    n_h, time_h, _ = stats("asymptotics.halfspace_S")
    m["asymptotics.halfspace_S.calls"] = n_h
    m["asymptotics.halfspace_S.time_s"] = time_h
    m["asymptotics.halfspace_S.useful_ratio"] = ratio(
        len(tracer.distinct.get("asymptotics.halfspace_S", ())), n_h or None)
    n_nr, time_nr, _ = stats("asymptotics.nonretarded_shift")
    m["asymptotics.nonretarded_shift.calls"] = n_nr
    m["asymptotics.nonretarded_shift.time_s"] = time_nr

    n_e, time_e, _ = stats("electrostatics.image_series_shift")
    m["electrostatics.image_series_shift.calls"] = n_e
    m["electrostatics.image_series_shift.time_s"] = time_e
    m["electrostatics.image_series_shift.failed"] = (
        c.get("electrostatics.image_series_shift.failed", 0) if n_e else None)

    n_m, time_m, _ = stats("modes.find_trapped_modes")
    n_roots = c.get("modes.find_trapped_modes.roots") if n_m else None
    m["modes.find_trapped_modes.calls"] = n_m
    m["modes.find_trapped_modes.roots"] = n_roots
    m["modes.find_trapped_modes.time_s"] = time_m
    m["modes.us_per_root"] = ratio(time_m, n_roots, 1e6)

    m["cli.self_s"] = stats("cli.main")[2]
    return m


def _median_time(fn, repeats: int, inner: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def kernel_timings() -> dict[str, float]:
    """Direct, untraced ``rtilde`` timings at 22 and 1e5 nodes.

    22 nodes is one 15+7-point panel of the inner quadrature; 1e5 nodes
    shows the per-node cost once call overhead is amortised.  Both are
    taken for TE and TM, at finite ``lam`` and at ``lam = inf``.
    """
    from slabshift.reflection import Polarization, rtilde

    out: dict[str, float] = {}
    small = np.linspace(0.005, 0.995, 22)
    large = np.linspace(0.0, 1.0, 100_000)
    per_call_22, per_node_1e5 = [], []
    for pol in (Polarization.TE, Polarization.TM):
        for label, lam in (("lam_finite", 1.0), ("lam_inf", math.inf)):
            us = 1e6 * _median_time(lambda: rtilde(pol, 0.7, small, lam, 2.0),
                                    repeats=5, inner=400)
            ns = 1e9 * _median_time(lambda: rtilde(pol, 0.7, large, lam, 2.0),
                                    repeats=5, inner=3) / large.size
            out[f"reflection.kernel22.{pol.value}.{label}.us_per_call"] = us
            out[f"reflection.kernel1e5.{pol.value}.{label}.ns_per_node"] = ns
            per_call_22.append(us)
            per_node_1e5.append(ns)
    out["reflection.kernel22.us_per_call"] = statistics.fmean(per_call_22)
    out["reflection.kernel1e5.ns_per_node"] = statistics.fmean(per_node_1e5)
    return out
