"""The benchmark's traced replay and correctness gate, run as tests.

``perfbench/run.py --trace 1`` wraps named layer boundaries of the library
(see ``perfbench/tracing.py``) and reports the metrics listed in
``run.PER_LAYER``.  A change that routes the hot path around one of those
names leaves its metric ``None``, and the benchmark's JSON line malformed.
This replays one ``wfun`` and one small lambda sweep through the same
tracer and checks that every reported layer saw its calls.  It also passes
every pool op of every workload through ``perfbench/gate.py`` against
``perfbench/reference.json``, and counts which ``asympt`` entries of
``point-queries`` still run the image series.
"""

from __future__ import annotations

import json
import numbers
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import slabshift.asymptotics  # noqa: E402
import slabshift.cli  # noqa: E402
from slabshift import (AtomSpec, Slab, Transition,  # noqa: E402
                       image_series_shift, nonretarded_shift)

REFS = json.loads((PERFBENCH / "reference.json").read_text(
    encoding="utf-8"))["ops"]
POOL_OPS = [op for workload in workloads.WORKLOADS
            for op in workloads.pool(workload)]
ASYMPT_STRATA = ("asympt", "asympt-mirror")
ASYMPT_ENTRIES = [(stratum, entry) for stratum in ASYMPT_STRATA
                  for entry in workloads.POINT_POOL[stratum][0]]

OPS = [
    workloads.Op("wfun", "wfun", ("wfun", "--zeta", "1", "--lam", "1",
                                  "--n", "2")),
    workloads.Op("sweep", "sweep", ("sweep", "--axis", "lambda", "--scale",
                                    "log", "--lo", "0.1", "--hi", "10",
                                    "--points", "3", "--zeta", "1", "--n", "2",
                                    "--jobs", "1")),
]

# PER_LAYER entries that run.py measures outside the traced replay
OUTSIDE_REPLAY = ("reflection.kernel", "cli.import_s", "tracing.overhead_frac")


def test_traced_replay_reports_every_layer():
    # an untraced pass first, as run.py makes: it binds the compute names of
    # slabshift.cli, which the tracer would otherwise bind from the modules
    # it has already wrapped, and count those calls twice
    for op in OPS:
        tracing.call_main(slabshift.cli.main, op.argv)
    tracer = tracing.Tracer()
    replays = tracing.replay_traced(tracer, slabshift.cli, OPS)
    assert [r.rc for r in replays] == [0, 0], [r.stderr for r in replays]
    metrics = tracing.layer_metrics(tracer)

    reported = [key for key in run.PER_LAYER if key in metrics]
    assert reported
    assert all(key.startswith(OUTSIDE_REPLAY)
               for key in run.PER_LAYER if key not in metrics)
    missing = [key for key in reported
               if not isinstance(metrics[key], numbers.Real)]
    assert missing == []
    assert metrics["reflection.rtilde.calls"] > 0
    assert metrics["shift.w_pair.calls"] == 4


@pytest.mark.parametrize("op", POOL_OPS, ids=lambda op: op.key)
def test_pool_op_passes_the_benchmark_gate(op):
    # a change that moves any benchmark answer off its reference fails
    # here, not only in the benchmark run
    replay = tracing.call_main(slabshift.cli.main, op.argv + ("--jobs", "1"))
    outcome = gate.check(op.kind, replay.rc, replay.stdout, REFS[op.key])
    assert (outcome.failed, outcome.wrong) == (0, 0), (
        outcome.notes, replay.stderr)


@pytest.mark.parametrize("stratum, entry", ASYMPT_ENTRIES)
def test_image_series_runs_only_where_it_can_converge(stratum, entry,
                                                      monkeypatch):
    n, L, Z, e_ji, mu_par_sq, mu_perp_sq = entry
    atom = AtomSpec([Transition(E_ji=e_ji, mu_par_sq=mu_par_sq,
                                mu_perp_sq=mu_perp_sq)])
    slab = Slab(n=n, L=L)
    seen = []

    def counted(*args, **kwargs):
        seen.append(image_series_shift(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(slabshift.asymptotics, "image_series_shift", counted)
    got = nonretarded_shift(atom, slab, Z)
    if stratum == "asympt-mirror":
        assert seen == []
    else:
        direct = image_series_shift(atom, slab, Z)
        assert len(seen) == 1
        assert (got.value, got.per_transition) == (direct.value,
                                                  direct.per_transition)
