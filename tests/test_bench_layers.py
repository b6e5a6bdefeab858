"""The benchmark's traced replay still finds every layer it reports.

``perfbench/run.py --trace 1`` wraps named layer boundaries of the library
(see ``perfbench/tracing.py``) and reports the metrics listed in
``run.PER_LAYER``.  A change that routes the hot path around one of those
names leaves its metric ``None``, and the benchmark's JSON line malformed.
This replays one ``wfun`` and one small lambda sweep through the same
tracer and checks that every reported layer saw its calls.
"""

from __future__ import annotations

import numbers
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import slabshift.cli  # noqa: E402

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
