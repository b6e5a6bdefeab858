"""W against the benchmark's reference values, within the reported bounds.

``perfbench/reference.json`` holds every W pair that the benchmark's pool
ops reach, computed by the nested 1D rule at ``rel_tol = 1e-11`` (see
``perfbench/make_reference.py``), so it shares no cubature with the
library today.  Each W the library returns at default tolerance for those
points must lie within its own per-component error bound of them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from slabshift import ReducedParams, reduce, w_pair  # noqa: E402
from slabshift.cli import (_config_from_args, build_parser,  # noqa: E402
                           build_run_input)

REFS = json.loads((PERFBENCH / "reference.json").read_text(
    encoding="utf-8"))["ops"]
W_OPS = [op for workload in workloads.WORKLOADS
         for op in workloads.pool(workload)
         if op.kind in ("sweep", "shift", "wfun")]


def _flag(argv, name):
    return float(argv[argv.index(name) + 1])


def _cases(op):
    """(ReducedParams, reference (W_par, W_z)) of every W the op reaches."""
    ref = REFS[op.key]
    if op.kind == "wfun":
        yield (ReducedParams(_flag(op.argv, "--zeta"), _flag(op.argv, "--lam"),
                             _flag(op.argv, "--n")), ref["w"])
    elif op.kind == "shift":
        run = build_run_input(_config_from_args(
            build_parser().parse_args(op.argv)))
        for tr, w in zip(run.atom.transitions, ref["w"], strict=True):
            yield reduce(run.slab, tr, run.Z), w
    else:
        zeta, n = _flag(op.argv, "--zeta"), _flag(op.argv, "--n")
        rows = ref["rows"]
        for row in rows:
            yield (ReducedParams(zeta, row["value"], n),
                   (row["w_par"], row["w_z"]))
        # the half-space columns hold one pair, the same in every row
        yield (ReducedParams(zeta, math.inf, n),
               (rows[0]["w_par_halfspace"], rows[0]["w_z_halfspace"]))


@pytest.mark.parametrize("op", W_OPS, ids=lambda op: op.key)
def test_w_within_its_bound_of_the_reference(op):
    seen = 0
    for p, (ref_par, ref_z) in _cases(op):
        wp = w_pair(p)
        assert abs(wp.w_par - ref_par) <= wp.err_par, p
        assert abs(wp.w_z - ref_z) <= wp.err_z, p
        seen += 1
    assert seen > 0
