"""Benchmark of the slabshift CLI: one closed-loop client, one core.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-lambda --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the load is the working tree's CLI
(``python -m slabshift.cli`` with ``PYTHONPATH=src``), one process at a
time with ``--jobs 1`` and ``SLABSHIFT_JOBS`` removed from its
environment.  Passes over the seed's draw (see ``workloads.py``) repeat
until ``--seconds`` have passed (see ``workloads.WHOLE_PASSES``); every
output goes through the correctness gate (``gate.py``) against
``reference.json``.  The end-to-end metrics are printed by name with
their units, and the last line is one JSON object.

With ``--trace 1`` the first pass is replayed in-process through
``slabshift.cli.main``, once untraced and once traced (``tracing.py``);
the two must agree byte for byte apart from the manifest timestamp.  It
reports the per-layer metrics, the direct ``rtilde`` kernel timings and
the tracing overhead, and writes the spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

# end-to-end metrics (trace 0): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cmd_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_KERNELS = {f"reflection.{size}.{pol}.{lam}.{metric}": unit
            for size, metric, unit in (("kernel22", "us_per_call", "us"),
                                       ("kernel1e5", "ns_per_node", "ns"))
            for pol in ("TE", "TM") for lam in ("lam_finite", "lam_inf")}

# per-layer metrics (trace 1) that every workload reports as a number at
# this commit: name -> unit.  The full set, with null for names a workload
# never calls, is printed above the JSON line and saved in .perfbench-out/.
PER_LAYER = {
    "reflection.rtilde.calls": "count",
    "reflection.rtilde.nodes": "count",
    "reflection.rtilde.self_s": "s",
    "reflection.rtilde.ns_per_node": "ns",
    "reflection.kernel22.us_per_call": "us",
    "reflection.kernel1e5.ns_per_node": "ns",
    **_KERNELS,
    "quadrature.adaptive_quad.calls": "count",
    "quadrature.adaptive_quad.self_s": "s",
    "quadrature.panels": "count",
    "quadrature.integrand_nodes": "count",
    "shift.w_pair.calls": "count",
    "shift.w_pair.time_s": "s",
    "shift.w_pair.p50_ms": "ms",
    "shift.integrand.self_s": "s",
    "shift.outer_panels": "count",
    "shift.inner_panels_max": "count",
    "shift.w_pair.useful_ratio": "ratio",
    "asymptotics.halfspace_S.calls": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "tracing.overhead_frac": "ratio",
}

SETUP_REPEATS = 7
# Host speed on shared machines drifts by 20-50% over minutes, and bare
# interpreter start-up drifts with it.  Every end-to-end time is scaled to
# a reference start-up of REFERENCE_START_S, using the run's median of
# START_SAMPLES bare starts taken every START_EVERY_S between commands.
REFERENCE_START_S = 0.05
START_SAMPLES = 5
START_EVERY_S = 3.0
IMPORT_REPEATS = 5
CMD_TIMEOUT_S = 60.0
# stop starting commands after this long, so a run always ends in time
HARD_LIMIT_S = 100.0
# the traced run replays at most the commands that fit in this many
# untraced seconds
TRACE_BUDGET_S = 50.0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SLABSHIFT_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli_raw(args, env) -> float:
    """Wall time of one process that must succeed."""
    t0 = time.perf_counter()
    subprocess.run(args, cwd=ROOT, env=env, capture_output=True, check=True,
                   timeout=CMD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_cli(argv, env) -> tuple[int | None, str, float, float]:
    """One CLI process: (exit code or None on timeout, stdout, wall s, cpu s)."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "slabshift.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CMD_TIMEOUT_S)
        rc, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        rc, stdout = None, ""
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return rc, stdout, wall, cpu


def measure_setup(env) -> float:
    """Median wall time of ``slabshift --help`` (start, import, parser)."""
    run_cli(["--help"], env)  # let bytecode caches fill
    return statistics.median(run_cli(["--help"], env)[2]
                             for _ in range(SETUP_REPEATS))


class Tally:
    """Gate outcomes summed over a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.notes: list[str] = []

    def add(self, key: str, outcome: gate.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.notes += [f"{key}: {note}" for note in outcome.notes]


def interpreter_start(env) -> list[float]:
    """Wall times of bare ``python3 -c pass`` processes (no slabshift)."""
    return [run_cli_raw([sys.executable, "-c", "pass"], env)
            for _ in range(START_SAMPLES)]


def run_load(name: str, seed: int, seconds: float, refs: dict):
    env = child_env()
    starts = interpreter_start(env)
    setup_raw = measure_setup(env)
    ops = workloads.draw(name, seed)
    tally = Tally()
    walls, cpu, sampling = [], 0.0, 0.0
    t0 = last_sample = time.perf_counter()
    for i, op in enumerate(itertools.cycle(ops), start=1):
        rc, stdout, wall, op_cpu = run_cli(op.argv, env)
        walls.append(wall)
        cpu += op_cpu
        tally.add(op.key, gate.check(op.kind, -1 if rc is None else rc,
                                     stdout, refs[op.key]))
        if time.perf_counter() - last_sample >= START_EVERY_S:
            s0 = time.perf_counter()
            starts += interpreter_start(env)
            last_sample = time.perf_counter()
            sampling += last_sample - s0
        elapsed = time.perf_counter() - t0 - sampling
        may_stop = name not in workloads.WHOLE_PASSES or i % len(ops) == 0
        if elapsed > HARD_LIMIT_S or (elapsed >= seconds and may_stop):
            break
    starts += interpreter_start(env)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ok = tally.attempted - tally.failed
    start_s = statistics.median(starts)
    raw = {"setup_s": setup_raw, "ops_per_s": ok / elapsed,
           "cmd_p50_s": statistics.median(walls), "cpu_s": cpu / len(walls)}
    scale = REFERENCE_START_S / start_s
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "cmd_p50_s": raw["cmd_p50_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": ok / tally.attempted,
    }
    info = [f"commands {len(walls)} ({len(ops)} per pass), "
            f"elapsed {elapsed:.3f} s",
            f"failed_frac {tally.failed / tally.attempted:.6g} "
            f"({tally.failed} of {tally.attempted} operations)",
            f"interpreter start {start_s * 1e3:.2f} ms (median of "
            f"{len(starts)}); timings scaled by {scale:.4f}"]
    info += [f"raw {key} = {value:.6g}" for key, value in raw.items()]
    return metrics, END_TO_END, tally, info


def measure_import(env) -> float:
    code = ("import time; t = time.perf_counter(); import slabshift.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CMD_TIMEOUT_S)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def run_traced(name: str, seed: int, refs: dict):
    import tracing

    os.environ.pop("SLABSHIFT_JOBS", None)
    sys.path.insert(0, str(SRC))
    import slabshift.cli as cli

    ops = workloads.draw(name, seed)
    plain = []
    for op in ops:
        plain.append(tracing.call_main(cli.main, op.argv))
        if sum(r.wall for r in plain) > TRACE_BUDGET_S:
            break
    ops = ops[:len(plain)]
    tracer = tracing.Tracer()
    traced = tracing.replay_traced(tracer, cli, ops)

    tally = Tally()
    info = []
    for op, a, b in zip(ops, plain, traced):
        tally.add(op.key, gate.check(op.kind, b.rc, b.stdout, refs[op.key]))
        same = (a.rc == b.rc and a.stderr == b.stderr and
                tracing.strip_timestamp(a.stdout) ==
                tracing.strip_timestamp(b.stdout))
        if not same:
            tally.wrong += 1
            tally.notes.append(f"{op.key}: traced output differs from untraced")
    layers = tracing.layer_metrics(tracer)
    layers.update(tracing.kernel_timings())
    layers["cli.import_s"] = measure_import(child_env())
    untraced_s = sum(r.wall for r in plain)
    layers["tracing.overhead_frac"] = (
        sum(r.wall for r in traced) - untraced_s) / untraced_s

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{name}.npz")
    (OUT_DIR / f"layers-{name}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "metrics": layers},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    info.append(f"replayed {len(ops)} commands in-process "
                f"({untraced_s:.3f} s untraced)")
    for key in sorted(set(layers) - set(PER_LAYER)):
        value = layers[key]
        shown = ("null (no calls on this workload)" if value is None
                 else f"{value:.6g}")
        info.append(f"{key} = {shown}")
    return layers, PER_LAYER, tally, info


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict) -> dict:
    if trace:
        values, units, tally, info = run_traced(name, seed, refs)
    else:
        values, units, tally, info = run_load(name, seed, seconds, refs)
    print(f"== {name} (seed {seed}, trace {int(trace)})")
    for line in info + tally.notes:
        print(f"  {line}")
    for key, unit in units.items():
        value = values[key]
        print(f"  {key} = {'null' if value is None else f'{value:.6g}'} {unit}")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slabshift" / "cli.py").is_file():
        return _fail(f"no slabshift sources under {SRC}")
    if not REFERENCE.is_file():
        return _fail(f"missing {REFERENCE}")
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["ops"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), refs) for name in names}
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
