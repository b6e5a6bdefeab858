"""Correctness gate: compare one CLI command's output with its reference.

An operation is one sweep grid point or one other command.  It fails when

* the command's exit code is nonzero (for a sweep, exit 4 fails only the
  rows whose status is not ``ok``);
* a W value, shift total or asymptote differs from its reference by more
  than ``W_REL_TOL * |ref|``;
* a mode table's root count differs from the reference, or any ``k_zd``
  differs by more than ``KZD_REL_TOL`` relative.

A failure of the second or third kind is a wrong answer and makes the run
incorrect; a command that exits nonzero has reported its own failure.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

W_REL_TOL = 1e-8
KZD_REL_TOL = 1e-12
# sweep grid values may change in their last bits (exact endpoints) without
# changing the point
GRID_REL_TOL = 1e-12

SWEEP_COLUMNS = ("w_par", "w_z", "w_par_halfspace", "w_z_halfspace")


@dataclass
class Outcome:
    """Gate verdict for one command."""

    attempted: int
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, wrong: bool = True, count: int = 1) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        self.notes.append(note)


def _close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def _floats_after(label: str, text: str) -> list[float]:
    pat = re.compile(re.escape(label) + r"=?\s*([-+0-9.eE]+|nan|inf)")
    return [float(m.group(1)) for m in pat.finditer(text)]


def _csv_rows(stdout: str) -> list[dict[str, str]]:
    body = "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _check_sweep(rc: int, stdout: str, ref: dict) -> Outcome:
    ref_rows = ref["rows"]
    out = Outcome(attempted=len(ref_rows))
    if rc not in (0, 4):
        out.fail(f"exit {rc}", wrong=False, count=len(ref_rows))
        return out
    rows = _csv_rows(stdout)
    if len(rows) != len(ref_rows):
        out.fail(f"{len(rows)} rows, reference has {len(ref_rows)}",
                 count=len(ref_rows))
        return out
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        if row["status"] != "ok":
            out.fail(f"row {i}: {row['status']}", wrong=False)
        elif not _close(float(row["value"]), want["value"], GRID_REL_TOL):
            out.fail(f"row {i}: grid value {row['value']} != {want['value']!r}")
        else:
            bad = [c for c in SWEEP_COLUMNS
                   if not _close(float(row[c]), want[c], W_REL_TOL)]
            if bad:
                out.fail(f"row {i}: {','.join(bad)} off reference")
    return out


def _check_shift(stdout: str, ref: dict) -> Outcome:
    out = Outcome(attempted=1)
    totals = _floats_after("energy shift:", stdout)
    w_par = _floats_after("W_par", stdout)
    w_z = _floats_after("W_z", stdout)
    got = totals + [x for pair in zip(w_par, w_z) for x in pair]
    want = ref["totals"] + [x for pair in ref["w"] for x in pair]
    if len(got) != len(want) or not all(
            _close(g, w, W_REL_TOL) for g, w in zip(got, want)):
        out.fail("shift total or W value off reference")
    return out


def _check_wfun(stdout: str, ref: dict) -> Outcome:
    out = Outcome(attempted=1)
    got = _floats_after("W_par", stdout) + _floats_after("W_z", stdout)
    if len(got) != 2 or not all(
            _close(g, w, W_REL_TOL) for g, w in zip(got, ref["w"])):
        out.fail("W value off reference")
    return out


def _check_modes(stdout: str, ref: dict) -> Outcome:
    out = Outcome(attempted=1)
    rows = _csv_rows(stdout)
    want = ref["roots"]
    if len(rows) != len(want):
        out.fail(f"{len(rows)} roots, reference has {len(want)}")
        return out
    for row, (pol, parity, k_zd) in zip(rows, want):
        if (row["pol"], row["parity"]) != (pol, parity) or not _close(
                float(row["k_zd"]), k_zd, KZD_REL_TOL):
            out.fail(f"root {pol}/{parity} k_zd={row['k_zd']} != {k_zd!r}")
            break
    return out


_ASYMPT_LINE = re.compile(r"^([A-Za-z][^:]*): ([-+0-9.eE]+|nan|inf)"
                          r"(?: rel_deviation=.*)?$")


def _check_asympt(stdout: str, ref: dict) -> Outcome:
    out = Outcome(attempted=1)
    got = {}
    for line in stdout.splitlines():
        m = _ASYMPT_LINE.match(line)
        if m:
            got[m.group(1)] = float(m.group(2))
    want = ref["values"]
    if set(got) != set(want) or not all(
            _close(got[k], want[k], W_REL_TOL) for k in want):
        out.fail("full integral or asymptote off reference")
    return out


_CHECKS = {"shift": _check_shift, "wfun": _check_wfun,
           "modes": _check_modes, "asympt": _check_asympt}


def check(kind: str, rc: int, stdout: str, ref: dict) -> Outcome:
    """Gate one command's exit code and stdout against its reference entry."""
    if kind == "sweep":
        return _check_sweep(rc, stdout, ref)
    if rc != 0:
        out = Outcome(attempted=1)
        out.fail(f"exit {rc}", wrong=False)
        return out
    return _CHECKS[kind](stdout, ref)
