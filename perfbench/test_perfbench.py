"""Tests of the benchmark itself: gate, names, draws and span arithmetic.

They read only the committed reference and never run the CLI, so they
take well under a second.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["ops"]
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _wfun_stdout(w_par: float, w_z: float) -> str:
    return f"W_par={_fmt(w_par)} W_z={_fmt(w_z)} err_est={_fmt(1e-12)}\n"


def _sweep_stdout(rows: list[dict]) -> str:
    lines = ["# slabshift sweep", "# timestamp = now",
             "value,w_par,w_z,w_par_halfspace,w_z_halfspace,err_est,status"]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in ("value",) + gate.SWEEP_COLUMNS)
                     + f",{_fmt(1e-12)},ok")
    return "\n".join(lines) + "\n"


def _modes_stdout(roots: list) -> str:
    lines = ["# slabshift modes", "pol,parity,k_zd,kappa,residual"]
    lines += [f"{pol},{parity},{_fmt(k)},{_fmt(1.0)},{_fmt(0.0)}"
              for pol, parity, k in roots]
    return "\n".join(lines) + "\n"


def test_gate_passes_reference_and_flags_perturbed_w():
    ref = REFS["wfun/8,1,2"]
    w_par, w_z = ref["w"]
    assert gate.check("wfun", 0, _wfun_stdout(w_par, w_z), ref).failed == 0
    out = gate.check("wfun", 0, _wfun_stdout(w_par * (1 + 1e-6), w_z), ref)
    assert (out.failed, out.wrong) == (1, 1)


def test_gate_flags_one_perturbed_sweep_point():
    ref = REFS["sweep-lambda/1,2"]
    rows = [dict(r) for r in ref["rows"]]
    assert gate.check("sweep", 0, _sweep_stdout(rows), ref).failed == 0
    rows[3]["w_z"] *= 1 + 1e-6
    out = gate.check("sweep", 0, _sweep_stdout(rows), ref)
    assert (out.attempted, out.failed, out.wrong) == (len(rows), 1, 1)


def test_gate_flags_missing_mode_root():
    ref = REFS["modes-large/2000,2,1"]
    roots = ref["roots"]
    assert gate.check("modes", 0, _modes_stdout(roots), ref).failed == 0
    out = gate.check("modes", 0, _modes_stdout(roots[:-1]), ref)
    assert (out.failed, out.wrong) == (1, 1)


def test_gate_counts_nonzero_exit_as_failed_not_wrong():
    ref = REFS["asympt-mirror/10000,0.01,1,1,2,1"]
    out = gate.check("asympt", 3, "full integral: -1.0\n", ref)
    assert (out.attempted, out.failed, out.wrong) == (1, 1, 0)


def test_names_are_well_formed_and_match_the_runner():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
             + list(run.END_TO_END) + list(run.PER_LAYER)
             + list(tracing.layer_metrics(tracing.Tracer())))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_draw_is_deterministic_and_covered_by_reference(name):
    first = workloads.draw(name, 7)
    assert first == workloads.draw(name, 7)
    assert {op.key for op in workloads.pool(name)} <= set(REFS)
    keys = {tuple(op.key for op in workloads.draw(name, s)) for s in range(20)}
    assert len(keys) > 1
    assert all(op.argv[-2:] == ("--jobs", "1") for op in first)


def test_point_queries_always_draw_the_near_mirror_case():
    for seed in range(50):
        ops = workloads.draw("point-queries", seed)
        assert 12 <= len(ops) <= 16
        assert sum(op.key.startswith("asympt-mirror/") for op in ops) == 1


def test_self_time_and_null_for_names_never_called():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    inner = tracer.wrap("reflection.rtilde", leaf)
    outer = tracer.wrap("cli.main", lambda x: inner(inner(x)))
    assert outer(1) == 3
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["reflection.rtilde.calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert metrics["shift.w_pair.calls"] == 0
    assert metrics["shift.w_pair.time_s"] is None
    assert metrics["modes.us_per_root"] is None
