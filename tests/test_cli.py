import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from helpers import README, readme_table
from slabshift import (AtomSpec, HBARC_EV_NM, QuadratureSpec, ReducedParams,
                       Slab, Transition, energy_shift, halfspace_S, reduce,
                       w_pair)
import slabshift.asymptotics
import slabshift.cli
import slabshift.electrostatics
import slabshift.quadrature
import slabshift.shift
from slabshift.cli import (EXIT_INPUT, EXIT_OK, EXIT_PARTIAL,
                           _config_from_args, _fmt, _sweep_grid, build_parser,
                           build_run_input, main, parse_config_text)
from slabshift.shift import W_SCALE

CONFIG = """\
units = natural
slab.n = 2.0
slab.L = 1.0
geometry.Z = 8.0
atom.transitions[0].E_ji = 1.0
atom.transitions[0].mu_par_sq = 2.0
atom.transitions[0].mu_perp_sq = 1.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG)
    return str(path)


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _manifest(text):
    return dict(ln[2:].split(" = ", 1) for ln in text.splitlines()
                if ln.startswith("# ") and " = " in ln)


def _exit_code(argv):
    # argparse rejects a flag by raising SystemExit(2)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_parser_roundtrip():
    cfg = parse_config_text(CONFIG + "# trailing comment\n\n")
    assert cfg["slab.n"] == "2.0"
    assert cfg["atom.transitions[0].mu_perp_sq"] == "1.0"


def test_shift_transparent_slab(config_path, capsys):
    code = main(["shift", "--config", config_path, "--n", "1.0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"energy shift: {0.0:.16e}" in out


def test_shift_missing_field_names_it(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("slab.n = 2.0\nslab.L = 1.0\ngeometry.Z = 1.0\n"
                    "atom.transitions[0].mu_par_sq = 1.0\n"
                    "atom.transitions[0].mu_perp_sq = 1.0\n")
    code = main(["shift", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "atom.transitions[0].E_ji" in err


def test_shift_matches_library_bit_for_bit(config_path, capsys):
    code = main(["shift", "--config", config_path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    atom = AtomSpec([Transition(1.0, 2.0, 1.0)])
    slab = Slab(n=2.0, L=1.0)
    lib = energy_shift(atom, slab, 8.0)
    wp = w_pair(reduce(slab, atom.transitions[0], 8.0))
    assert f"energy shift: {lib.value:.16e}" in out
    assert f"W_par={wp.w_par:.16e}" in out
    assert f"W_z={wp.w_z:.16e}" in out
    assert "regime=retarded" in out


def test_shift_computes_each_w_pair_once(config_path, monkeypatch):
    calls = []
    for module in (slabshift.cli, slabshift.shift):
        monkeypatch.setattr(module, "w_pair",
                            lambda p, q: calls.append(p) or w_pair(p, q))
    assert main(["shift", "--config", config_path]) == EXIT_OK
    assert len(calls) == 1


def test_shift_ev_nm_units(config_path, capsys):
    code = main(["shift", "--config", config_path, "--units", "eV-nm",
                 "--e-ji", "1.5", "--distance", "100", "--thickness", "10"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    atom = AtomSpec([Transition(1.5 / HBARC_EV_NM, 2.0, 1.0)])
    lib = energy_shift(atom, Slab(n=2.0, L=10.0), 100.0)
    assert f"energy shift: {lib.value:.16e} (1/nm)" in out
    assert f"energy shift: {lib.value * HBARC_EV_NM:.16e} (eV)" in out


def test_wfun_matches_library(capsys):
    code = main(["wfun", "--zeta", "8", "--lam", "1", "--n", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    wp = w_pair(ReducedParams(8.0, 1.0, 2.0))
    assert f"W_par={wp.w_par:.16e}" in out


def test_wfun_halfspace_spelling(capsys):
    code = main(["wfun", "--zeta", "2", "--lam", "inf", "--n", "2",
                 "--rel-tol", "1e-6"])
    assert code == EXIT_OK
    assert "W_z=" in capsys.readouterr().out


def test_sweep_transparent_all_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "zeta", "--lo", "1", "--hi", "2",
                 "--points", "2", "--lam", "1", "--n", "1",
                 "--output", str(out)])
    assert code == EXIT_OK
    rows = _csv_rows(out.read_text())
    assert len(rows) == 2
    for row in rows:
        assert float(row["w_par"]) == 0.0
        assert float(row["w_z"]) == 0.0
        assert row["status"] == "ok"


def test_sweep_partial_failure_exit_code(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "zeta", "--lo", "-1", "--hi", "1",
                 "--points", "3", "--lam", "1", "--n", "2",
                 "--output", str(out)])
    assert code == EXIT_PARTIAL
    rows = _csv_rows(out.read_text())
    statuses = [row["status"] for row in rows]
    assert statuses[0].startswith("failed:")
    assert statuses[1].startswith("failed:")
    assert statuses[2] == "ok"


def test_sweep_axis_validation(capsys):
    code = main(["sweep", "--axis", "zeta", "--lo", "1", "--hi", "2",
                 "--points", "2", "--zeta", "1", "--lam", "1", "--n", "2"])
    assert code == EXIT_INPUT
    code = main(["sweep", "--axis", "zeta", "--lo", "1", "--hi", "2",
                 "--points", "2", "--lam", "1"])
    assert code == EXIT_INPUT
    assert "--n" in capsys.readouterr().err


def test_sweep_deterministic_across_worker_counts(tmp_path):
    args = ["sweep", "--axis", "lambda", "--lo", "0.5", "--hi", "2",
            "--points", "3", "--zeta", "1", "--n", "2",
            "--rel-tol", "1e-6"]
    out1 = tmp_path / "jobs1.csv"
    out2 = tmp_path / "jobs2.csv"
    assert main(args + ["--jobs", "1", "--output", str(out1)]) == EXIT_OK
    assert main(args + ["--jobs", "2", "--output", str(out2)]) == EXIT_OK

    def strip_timestamp(text):
        return "\n".join(ln for ln in text.splitlines()
                         if not ln.startswith("# timestamp"))

    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())


def test_lambda_sweep_computes_halfspace_once(monkeypatch, tmp_path):
    calls = []
    w_pair = slabshift.cli.w_pair
    monkeypatch.setattr(slabshift.cli, "w_pair",
                        lambda p, q: calls.append(p) or w_pair(p, q))
    assert main(["sweep", "--axis", "lambda", "--lo", "0.5", "--hi", "2",
                 "--points", "3", "--zeta", "1", "--n", "2", "--rel-tol",
                 "1e-6", "--output", str(tmp_path / "s.csv")]) == EXIT_OK
    assert [p.lam for p in calls].count(math.inf) == 1


def test_sweep_err_est_covers_the_halfspace_columns(tmp_path):
    # lam = 0.01 has a far smaller W, and bound, than its half-space point
    out = tmp_path / "s.json"
    assert main(["sweep", "--axis", "lambda", "--lo", "0.01", "--hi", "1",
                 "--points", "3", "--scale", "log", "--zeta", "1", "--n", "2",
                 "--rel-tol", "1e-6", "--format", "json",
                 "--output", str(out)]) == EXIT_OK
    q = QuadratureSpec(rel_tol=1e-6)
    hs = w_pair(ReducedParams(zeta=1.0, lam=math.inf, n=2.0), q)
    rows = json.loads(out.read_text())["rows"]
    assert [row["err_est"] for row in rows] == [
        max(w_pair(ReducedParams(zeta=1.0, lam=row["value"], n=2.0),
                   q).err_est, hs.err_est) for row in rows]
    assert rows[0]["err_est"] == hs.err_est


def test_halfspace_sweep_computes_each_s_integral_once(monkeypatch,
                                                       tmp_path):
    # at lam = inf the W pair is the half-space column: one cubature of
    # (W_par, W_z) per point, not three
    calls = []
    cubature = slabshift.shift.adaptive_quad
    monkeypatch.setattr(slabshift.shift, "adaptive_quad",
                        lambda *a: calls.append(a) or cubature(*a))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--axis", "zeta", "--lo", "0.5", "--hi", "2",
                 "--points", "3", "--lam", "inf", "--n", "2", "--rel-tol",
                 "1e-6", "--jobs", "1", "--output", str(out)]) == EXIT_OK
    assert len(calls) == 3
    monkeypatch.undo()

    # both column pairs are the half-space W pair, bit for bit, and the
    # separate half-space route reads the same cubature as W / (8 zeta^4);
    # 8 zeta^4 halfspace_S is not checked, as it need not round back to W
    q = QuadratureSpec(rel_tol=1e-6)
    rows = []
    for zeta in _sweep_grid(0.5, 2.0, 3, "linear"):
        wp = w_pair(ReducedParams(zeta=zeta, lam=math.inf, n=2.0), q)
        scale = W_SCALE * zeta ** 4
        assert halfspace_S(zeta, 2.0, q) == (wp.w_par / scale,
                                             wp.w_z / scale)
        rows.append(",".join(
            [_fmt(x) for x in (zeta, wp.w_par, wp.w_z, wp.w_par, wp.w_z,
                               wp.err_est)] + ["ok"]))
    table = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert table[1:] == rows


@pytest.mark.parametrize("scale", ["linear", "log"])
def test_sweep_grid_endpoints_are_exact(scale):
    for lo, hi, points in ((0.1, 10.0, 20), (0.3, 0.7, 7), (1e-2, 1e2, 12)):
        grid = _sweep_grid(lo, hi, points, scale)
        assert len(grid) == points
        assert grid[0] == lo and grid[-1] == hi
        assert all(a < b for a, b in zip(grid, grid[1:]))


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--axis", "zeta", "--lo", "0.5", "--hi", "1",
                 "--points", "2", "--lam", "1", "--n", "2",
                 "--rel-tol", "1e-6", "--format", "json",
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["command"] == "sweep"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["status"] == "ok"
    assert doc["rows"][1]["w_z"] > doc["rows"][0]["w_z"] > 0.0


def test_modes_table(tmp_path):
    out = tmp_path / "modes.csv"
    code = main(["modes", "--k-par", "4", "--n", "2", "--thickness", "1",
                 "--output", str(out)])
    assert code == EXIT_OK
    rows = _csv_rows(out.read_text())
    assert {(r["pol"], r["parity"]) for r in rows} == \
        {("TE", "S"), ("TE", "A"), ("TM", "S"), ("TM", "A")}
    assert all(float(r["residual"]) < 1e-10 for r in rows)


def test_modes_rejects_bad_kpar(capsys):
    for k_par in ("-1", "inf"):
        assert main(["modes", "--k-par", k_par, "--n", "2", "--thickness",
                     "1"]) == EXIT_INPUT
        assert "k_par" in capsys.readouterr().err


def test_asympt_intermediate_regime(config_path, capsys):
    code = main(["asympt", "--config", config_path, "--distance", "1.0",
                 "--rel-tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "regime=intermediate" in out
    assert "(no validity claim)" in out
    assert "full integral:" in out
    assert "retarded thin slab:" in out
    assert "non-retarded (image series):" in out


def test_asympt_retarded_deviation_reported(config_path, capsys):
    code = main(["asympt", "--config", config_path, "--distance", "50.0",
                 "--thickness", "0.5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "regime=retarded" in out
    for line in out.splitlines():
        if line.startswith("retarded thin slab:"):
            dev = float(line.split("rel_deviation=")[1])
            assert dev < 0.1
            break
    else:
        raise AssertionError("no retarded-thin line in report")


def test_convergence_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tight.txt"
    path.write_text(CONFIG + "quad.rel_tol = 1e-15\n")
    monkeypatch.setattr(slabshift.quadrature, "MAX_SUBDIVISIONS", 4)
    slabshift.shift._s_pair.cache_clear()
    code = main(["shift", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "best estimate" in err


def test_series_failure_reports_a_finite_bound(monkeypatch, capsys):
    # an image series that runs out of terms names no quadrature and
    # prints its tail majorant as the error bound
    def short_series(atom, slab, Z, q=None):
        return slabshift.electrostatics.image_series_shift(atom, slab, Z)
    monkeypatch.setattr(slabshift.electrostatics, "MAX_TERMS", 3)
    monkeypatch.setattr(slabshift.cli, "nonretarded_shift", short_series)
    code = main(["asympt", "--n", "2", "--thickness", "0.2", "--distance", "5",
                 "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("slabshift: did not converge: image series did not "
                          "converge within 3 terms\n")
    bound = float(err.split("error bound ")[1].rstrip(")\n"))
    assert math.isfinite(bound) and bound > 0.0


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "slabshift.cli", "wfun", "--zeta", "1",
         "--lam", "0", "--n", "1", "--rel-tol", "1e-6"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "W_par=" in proc.stdout


WFUN = ["wfun", "--zeta", "8", "--lam", "1", "--n", "2"]
SWEEP = ["sweep", "--axis", "zeta", "--lo", "1", "--hi", "2", "--points", "2",
         "--lam", "1", "--n", "2"]
MODES = ["modes", "--k-par", "4", "--n", "2", "--thickness", "1"]
ASYMPT = ["asympt", "--n", "2", "--thickness", "1", "--distance", "8",
          "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["wfun", "--zeta", "8", "--lam", "abc", "--n", "2"], "--lam"),
    (SWEEP[:-4] + ["--n", "2", "--lam", "abc"], "--lam"),
    (WFUN + ["--jobs", "abc"], "--jobs"),
    (MODES + ["--jobs", "2.5"], "--jobs"),
    (SWEEP + ["--jobs", "0"], "--jobs"),
    (SWEEP + ["--jobs", "-3"], "--jobs"),
    (WFUN + ["--rel-tol", "0"], "--rel-tol"),
    (WFUN + ["--rel-tol", "-0.001"], "--rel-tol"),
    (ASYMPT + ["--rel-tol", "nan"], "--rel-tol"),
    (["wfun", "--zeta", "1e-7", "--lam", "1", "--n", "2", "--rel-tol", "inf"],
     "--rel-tol"),
])
def test_outside_input_is_an_input_error(argv, flag, capsys):
    assert _exit_code(argv) == EXIT_INPUT
    assert f"error: argument {flag}" in capsys.readouterr().err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.txt"
    assert main(WFUN + ["--output", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("slabshift: cannot write output: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["wfun", "--zeta", "1e200", "--lam", "1", "--n", "2"],
    ["wfun", "--zeta", "1e-200", "--lam", "1", "--n", "2"],
    ["wfun", "--zeta", "inf", "--lam", "1", "--n", "2"],
    ["wfun", "--zeta", "1", "--lam", "1", "--n", "1e78"],
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1e80",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["asympt", "--n", "2", "--thickness", "1", "--distance", "inf",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["asympt", "--n", "2", "--thickness", "1", "--distance", "1e70",
     "--e-ji", "1", "--mu-par-sq", "1", "--mu-perp-sq", "1"],
    ["asympt", "--n", "2", "--thickness", "1", "--distance", "1e-70",
     "--e-ji", "1", "--mu-par-sq", "1", "--mu-perp-sq", "1"],
    ["wfun", "--zeta", "1", "--lam", "-1", "--n", "2"],
    ["modes", "--k-par", "1", "--n", "0.5", "--thickness", "1"],
    # k_par * L = 1 has two modes, yet k_par^2 leaves the doubles
    ["modes", "--k-par", "1e160", "--n", "2", "--thickness", "1e-160"],
    ["modes", "--k-par", "1e-170", "--n", "2", "--thickness", "1e170"],
    # zeta is 1 or 10, and Z**4 of the assembly leaves the doubles
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1e-100",
     "--e-ji", "1e100", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1e78",
     "--e-ji", "1e-77", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1e-80",
     "--e-ji", "1e80", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    # beta^2 rounds to 1 and 2kL underflows: the k integrand was 0/0, a
    # ZeroDivisionError traceback; now W's underflow is the input error
    ["asympt", "--n", "1e30", "--thickness", "5e-324", "--distance", "1e30",
     "--e-ji", "1e8", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    # n^2 overflows: beta was inf/inf = nan, and the k integral's nan an
    # exit 3; now W's n**4 is the input error
    ["asympt", "--n", "1e160", "--thickness", "1", "--distance", "1",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
])
def test_extreme_input_is_an_input_error(argv):
    # where the float powers of zeta or n leave the doubles: every warning
    # is an error, and the command still ends in a typed input error
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "slabshift.cli", *argv],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith("slabshift: input error: ")
    assert proc.stderr.count("\n") == 1 and "nan" not in proc.stderr


def test_shift_divides_by_z4_last(capsys):
    # 16 pi^2 Z^4 overflows at Z = 3.5e76, yet Z^4 and the shift are normal
    # doubles: the total is the assembly of the library's W pair, taken in
    # 30 digits
    Z, E = 3.5e76, 1e-77
    assert main(["shift", "--n", "2", "--thickness", "1", "--distance",
                 repr(Z), "--e-ji", repr(E), "--mu-par-sq", "200",
                 "--mu-perp-sq", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    total = float(out.split("energy shift: ")[1].split()[0])
    wp = w_pair(reduce(Slab(n=2.0, L=1.0), Transition(E, 200.0, 100.0), Z))
    with mpmath.workdps(30):
        exact = -(mpmath.mpf(wp.w_par) * 200 + mpmath.mpf(wp.w_z) * 100) / (
            16 * mpmath.pi ** 2 * mpmath.mpf(E) * mpmath.mpf(Z) ** 4)
        assert abs(total - exact) <= 1e-13 * abs(exact)
    assert 1e-307 < -total < 1e-305


@pytest.mark.parametrize("line", ["quad.max_subdivision = 1",
                                  "slab.thickness = 1",
                                  "atom.transitions[0].mu_z_sq = 1",
                                  "geometry.z = 8"])
def test_unknown_config_key_is_an_input_error(line, tmp_path, capsys):
    # a misspelt key would otherwise leave its default in force unseen
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG + line + "\n")
    assert main(["shift", "--config", str(path)]) == EXIT_INPUT
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (
        f"slabshift: input error: unknown config key: {key}\n")


def test_documented_config_keys_are_accepted():
    # the README's config block and the benchmark's three-transition atom,
    # with every quadrature key
    readme = README.read_text()
    block = readme.split("Config files are flat `key = value` text:")[1]
    cfg = parse_config_text(block.split("```")[1])
    assert "quad.rel_tol" in cfg and "units" in cfg
    build_run_input(cfg)
    atom3 = Path(__file__).resolve().parents[1] / "perfbench" / "atom3.cfg"
    cfg = parse_config_text(atom3.read_text())
    cfg.update({f"quad.{k}": str(v) for k, v in QuadratureSpec()._asdict().items()})
    assert len(build_run_input(cfg).atom.transitions) == 3


def test_asympt_passes_its_quadrature_to_the_k_integral(monkeypatch, capsys):
    # near a perfect mirror the non-retarded line comes from the k integral,
    # which takes --rel-tol as the full integral does
    seen = []
    k_integral = slabshift.asymptotics.adaptive_quad
    monkeypatch.setattr(slabshift.asymptotics, "adaptive_quad",
                        lambda f, a, b, rel_tol, *rest: seen.append(rel_tol)
                        or k_integral(f, a, b, rel_tol, *rest))
    assert main(["asympt", "--n", "1e4", "--thickness", "0.01", "--distance",
                 "1", "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1",
                 "--rel-tol", "1e-10"]) == EXIT_OK
    assert seen == [1e-10]


@pytest.mark.parametrize("distance", ["1e70", "1e-70"])
@pytest.mark.parametrize("mu_par_sq", ["1", "2"])  # anisotropic, isotropic
def test_asympt_rejects_a_distance_before_the_full_integral(
        distance, mu_par_sq, monkeypatch, capsys):
    # Z**5 of the thin-slab forms leaves the doubles although W's zeta**4
    # does not; the thin-plate form of an isotropic atom raises the same
    def full_integral(*args):
        raise AssertionError("the full integral ran")
    monkeypatch.setattr(slabshift.cli, "energy_shift", full_integral)
    code = main(["asympt", "--n", "2", "--thickness", "1", "--distance",
                 distance, "--e-ji", "1", "--mu-par-sq", mu_par_sq,
                 "--mu-perp-sq", "1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"slabshift: input error: atom-surface distance Z = {float(distance)!r}"
        " is out of range: Z**5 ")


@pytest.mark.parametrize("mu_par_sq", ["1", "2"])  # anisotropic, isotropic
def test_asympt_prints_a_form_outside_the_doubles_as_out_of_range(
        mu_par_sq, capsys):
    # L = 1.7e308 takes the thin-slab forms past the doubles, not the full
    # integral: asympt prints the total that shift prints
    problem = ["--n", "10", "--thickness", "1.7e308", "--distance", "1",
               "--e-ji", "1", "--mu-par-sq", mu_par_sq, "--mu-perp-sq", "1"]
    assert main(["shift", *problem]) == EXIT_OK
    total = capsys.readouterr().out.split()[2]
    assert main(["asympt", *problem]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"full integral: {total}"
    out_of_range = {"retarded thin slab", "non-retarded thin slab"}
    if mu_par_sq == "2":
        out_of_range.add("thin-plate polarizability form")
    assert {ln.split(":")[0] for ln in lines
            if ln.endswith(": out of range")} == out_of_range
    assert any(ln.startswith("non-retarded (image series): -") for ln in lines)


def test_asympt_full_integral_outside_the_doubles_names_zeta(capsys):
    # the non-retarded thin form overflows here too; the full integral's
    # zeta = Z E_ji = 9.95e78 is the input error
    assert main(["asympt", "--n", "1.0000001", "--thickness", "1.7e308",
                 "--distance", "4.08874e-16", "--e-ji", "2.4338e+94",
                 "--mu-par-sq", "0.000257017",
                 "--mu-perp-sq", "2.20255e-52"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "slabshift: input error: zeta = 9.95")


def test_asympt_prints_a_diagnostic_outside_the_doubles_as_out_of_range(
        capsys):
    # lam = L E_ji overflows to inf, a half-space, so L/Z reads inf for a
    # finite L; the thin form's deviation 3.4e269 / 3.8e-56 overflows
    assert main(["asympt", "--n", "1.00002206", "--thickness", "1.7e308",
                 "--distance", "7.46689e-17", "--e-ji", "1.44915e+92",
                 "--mu-par-sq", "1.73361e-21",
                 "--mu-perp-sq", "6.31114e-102"]) == EXIT_OK
    out = capsys.readouterr().out
    # 50-digit mpmath gives -3.42712523522274572e+269: these digits are 3e-17
    # from it, where n * n - 1 made -3.4271252352238565e+269, 3.2e-13 off
    assert "retarded thin slab: -3.4271252352227456e+269 " \
           "rel_deviation=out of range\n" in out
    assert out.endswith(" L/Z=out of range\n")
    assert "inf" not in out and "nan" not in out
    # a half-space's L/Z is inf, not out of range
    assert main(["asympt", "--n", "2", "--thickness", "inf", "--distance",
                 "8", "--e-ji", "1", "--mu-par-sq", "2",
                 "--mu-perp-sq", "1"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(" L/Z=inf\n")


@pytest.mark.parametrize("slab", [["--n", "1", "--thickness", "1"],
                                  ["--n", "2", "--thickness", "0"]],
                         ids=["n=1", "L=0"])
def test_exact_zero_shift_prints_no_negative_zero(slab, capsys):
    problem = slab + ["--distance", "1", "--e-ji", "1", "--mu-par-sq", "2",
                      "--mu-perp-sq", "1"]
    outs = []
    for argv in (["shift", *problem], ["shift", *problem, "--format", "json"],
                 ["asympt", *problem]):
        assert main(argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    numbers = [float(x) for out in outs
               for x in re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?", out)]
    assert 0.0 in numbers
    assert all(math.copysign(1.0, x) == 1.0 for x in numbers if x == 0.0)
    # every form equals the full integral 0 exactly
    deviations = re.findall(r"rel_deviation=(\S+)", outs[2])
    assert deviations == [_fmt(0.0)] * 4


@pytest.mark.parametrize("line", ["quad.rel_tol = abc",
                                  "quad.abs_tol = 0"])
def test_bad_quadrature_config_is_an_input_error(line, tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG + line + "\n")
    assert main(["shift", "--config", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("slabshift: input error: ")


NO_TRANSITIONS = "".join(line + "\n" for line in CONFIG.splitlines()
                         if not line.startswith("atom."))
# (config text, the error it gives); CONFIG's seven lines come first
CONFIG_ERRORS = [
    (CONFIG + "slab.n 2.0\n",
     "line 8: expected 'key = value', got 'slab.n 2.0'"),
    (CONFIG + "slab n = 2.0\n", "line 8: malformed key 'slab n'"),
    (CONFIG + "units = SI\n", "units must be 'natural' or 'eV-nm', got 'SI'"),
    (NO_TRANSITIONS, "missing required field: atom.transitions[0].E_ji"),
    (CONFIG + "atom.transitions[2].E_ji = 1.0\n",
     "atom.transitions indices must be contiguous from 0"),
    (CONFIG + "geometry.Z = 0\n", "geometry.Z must be positive, got 0.0"),
    (CONFIG + "geometry.Z = -1\n", "geometry.Z must be positive, got -1.0"),
]


@pytest.mark.parametrize("text, message", CONFIG_ERRORS,
                         ids=["no-equals", "malformed-key", "units",
                              "no-transition", "gap-in-indices", "zero-Z",
                              "negative-Z"])
def test_config_faults_are_input_errors_that_name_them(text, message,
                                                       tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["shift", "--config", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"slabshift: input error: {message}\n"


def test_unreadable_config_and_log_grid_from_zero_are_input_errors(tmp_path,
                                                                   capsys):
    assert main(["shift", "--config", str(tmp_path / "none.cfg")]) == \
        EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "slabshift: input error: cannot read config file: ")
    assert main(["sweep", "--axis", "zeta", "--scale", "log", "--lo", "0",
                 "--hi", "2", "--points", "3", "--lam", "1", "--n", "2"]) == \
        EXIT_INPUT
    assert capsys.readouterr().err == \
        "slabshift: input error: log scale needs lo > 0\n"


QUAD_CONFIG_ERRORS = [
    ("rel_tol", "inf", "rel_tol must be positive and finite, got inf"),
    ("abs_tol", "inf", "abs_tol must be positive and finite, got inf"),
    # the cut-off and the split budget are constants now, and their old
    # keys unknown ones
    ("s_cutoff_decades", "nan", "unknown config key: quad.s_cutoff_decades"),
    ("s_cutoff_decades", "inf", "unknown config key: quad.s_cutoff_decades"),
    ("s_cutoff_decades", "37", "unknown config key: quad.s_cutoff_decades"),
    ("max_subdivisions", "0", "unknown config key: quad.max_subdivisions"),
    ("max_subdivisions", "1.5", "unknown config key: quad.max_subdivisions"),
    ("rel_tol", "abc", "field quad.rel_tol is not a number: 'abc'"),
]


@pytest.mark.parametrize("key, value, message", QUAD_CONFIG_ERRORS,
                         ids=[f"{k}-{v}" for k, v, _ in QUAD_CONFIG_ERRORS])
def test_quadrature_config_out_of_range_names_its_key(key, value, message,
                                                      tmp_path, capsys):
    # an infinite tolerance ran with exit 0, nan cut-off decades failed
    # with a quadrature message that did not name the key, and a value
    # that is no number printed only the conversion's own message
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG + f"quad.{key} = {value}\n")
    assert main(["shift", "--config", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"slabshift: input error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (WFUN, ["--config", "cfg.txt"]), (WFUN, ["--units", "natural"]),
    (SWEEP, ["--config", "cfg.txt"]), (SWEEP, ["--units", "eV-nm"]),
    (MODES, ["--config", "cfg.txt"]), (MODES, ["--units", "natural"]),
    (MODES, ["--rel-tol", "1e-6"]), (ASYMPT, ["--format", "json"]),
])
def test_flags_a_subcommand_ignores_are_rejected(argv, flag, capsys):
    assert _exit_code(argv + flag) == EXIT_INPUT
    assert "unrecognized arguments: " + " ".join(flag) in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "zeta", "--lo", "-1", "--hi", "1", "--points", "3",
     "--lam", "1", "--n", "2", "--rel-tol", "1e-6"],
    ["sweep", "--axis", "lambda", "--lo", "0.5", "--hi", "2", "--points", "2",
     "--zeta", "1", "--n", "2", "--rel-tol", "1e-6", "--scale", "log"],
    MODES,
])
def test_csv_and_json_carry_one_document(argv, tmp_path):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    code = main(argv + ["--output", str(csv_out)])
    assert main(argv + ["--format", "json", "--output", str(json_out)]) == code
    text, doc = csv_out.read_text(), json.loads(json_out.read_text())
    manifest = _manifest(text)
    assert text.startswith(f"# slabshift {doc['command']}\n")
    assert doc["command"] == argv[0]
    assert manifest["version"] == doc["version"]
    # the mode solver reads no quadrature spec, so its manifest has none
    assert ("quad" in doc) == (argv[0] != "modes")
    quad = doc.get("quad", {})
    assert set(manifest) == {"version", "timestamp", *doc["inputs"],
                             *(f"quad.{k}" for k in quad)}
    assert {k: manifest[k] for k in doc["inputs"]} == doc["inputs"]
    assert {k: float(manifest[f"quad.{k}"]) for k in quad} == quad
    rows = _csv_rows(text)
    assert len(rows) == len(doc["rows"]) > 0
    for row, jrow in zip(rows, doc["rows"]):
        assert set(row) == set(jrow)
        for key, value in jrow.items():
            if value is None:
                assert math.isnan(float(row[key]))
            elif isinstance(value, float):
                assert float(row[key]) == value
            else:
                assert row[key] == str(value)


@pytest.mark.parametrize("flag, written", [
    ([], {"quad.rel_tol": "1e-08", "quad.abs_tol": "1e-14"}),
    (["--rel-tol", "1.23456789e-7"],
     {"quad.rel_tol": "1.23456789e-07", "quad.abs_tol": "1e-14"}),
])
def test_csv_manifest_writes_every_digit_of_the_spec(flag, written,
                                                     tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "lambda", "--lo", "0.5", "--hi", "2",
                 "--points", "2", "--zeta", "1", "--n", "2", *flag,
                 "--output", str(out)]) == EXIT_OK
    manifest = _manifest(out.read_text())
    assert {k: manifest[k] for k in written} == written


@pytest.mark.parametrize("ns", [0, 1_600_000_000_123_456_789,
                                1_700_000_000_000_000_999,
                                4_102_444_799_999_999_000])
def test_manifest_timestamp_is_what_datetime_writes(ns, monkeypatch):
    import time
    from datetime import datetime, timezone

    monkeypatch.setattr(time, "time_ns", lambda: ns)
    seconds, micro = divmod(ns // 1000, 10 ** 6)
    expected = datetime.fromtimestamp(seconds, timezone.utc).replace(
        microsecond=micro).isoformat()
    assert slabshift.cli._utc_now() == expected


def test_manifest_timestamp_is_now_in_utc(tmp_path):
    from datetime import datetime, timezone

    out = tmp_path / "modes.csv"
    before = datetime.now(timezone.utc)
    assert main(MODES + ["--output", str(out)]) == EXIT_OK
    stamp = datetime.fromisoformat(_manifest(out.read_text())["timestamp"])
    assert stamp.utcoffset().total_seconds() == 0.0
    assert before.replace(microsecond=0) <= stamp <= datetime.now(timezone.utc)


def test_shift_json_document_matches_library(config_path, tmp_path):
    out = tmp_path / "shift.json"
    assert main(["shift", "--config", config_path, "--format", "json",
                 "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    atom = AtomSpec([Transition(1.0, 2.0, 1.0)])
    slab = Slab(n=2.0, L=1.0)
    lib = energy_shift(atom, slab, 8.0)
    p = reduce(slab, atom.transitions[0], 8.0)
    wp = w_pair(p)
    assert doc["command"] == "shift"
    assert doc["inputs"] == {
        "slab.n": "2.0", "slab.L": "1.0", "geometry.Z": "8.0",
        "units": "natural", "atom.transitions[0].E_ji": "1.0",
        "atom.transitions[0].mu_par_sq": "2.0",
        "atom.transitions[0].mu_perp_sq": "1.0"}
    assert doc["quad"] == QuadratureSpec()._asdict()
    row, total = doc["rows"]
    assert total == {"total_shift": lib.value}
    assert (row["zeta"], row["lam"], row["w_par"], row["w_z"],
            row["err_est"], row["contribution"]) == \
        (p.zeta, p.lam, wp.w_par, wp.w_z, wp.err_est, lib.per_transition[0])


def test_wfun_json_document_matches_library(capsys):
    argv = ["wfun", "--zeta", "2", "--lam", "inf", "--n", "2",
            "--rel-tol", "1e-6", "--format", "json"]
    # the subcommand returns its report; only main writes it
    args = build_parser().parse_args(argv)
    text, code = args.func(args)
    assert code == EXIT_OK and capsys.readouterr().out == ""
    assert main(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert json.loads(text)["rows"] == doc["rows"]
    q = QuadratureSpec(rel_tol=1e-6)
    wp = w_pair(ReducedParams(2.0, math.inf, 2.0), q)
    assert (doc["command"], doc["inputs"], doc["quad"]) == \
        ("wfun", {}, q._asdict())
    assert doc["rows"] == [{"zeta": 2.0, "lam": math.inf, "n": 2.0,
                            "w_par": wp.w_par, "w_z": wp.w_z,
                            "err_est": wp.err_est}]


# each problem flag, the config key it overrides, and a value the file lacks
PROBLEM_FLAGS = [
    ("--units", "units", "eV-nm"),
    ("--n", "slab.n", "3.0"),
    ("--thickness", "slab.L", "0.5"),
    ("--distance", "geometry.Z", "4.0"),
    ("--e-ji", "atom.transitions[0].E_ji", "0.5"),
    ("--mu-par-sq", "atom.transitions[0].mu_par_sq", "3.0"),
    ("--mu-perp-sq", "atom.transitions[0].mu_perp_sq", "0.5"),
]


@pytest.mark.parametrize("flag, key, value", PROBLEM_FLAGS)
def test_each_problem_flag_overrides_its_config_key(flag, key, value,
                                                    config_path, capsys):
    assert parse_config_text(CONFIG)[key] != value
    assert main(["shift", "--config", config_path, flag, value,
                 "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["inputs"][key] == value


@pytest.mark.parametrize("argv", [
    ["shift", "--config"], WFUN, SWEEP, ["asympt", "--config"]])
def test_rel_tol_reaches_the_quadrature_spec(argv, tmp_path, capsys):
    # over the file's quad.rel_tol where the subcommand reads a file
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG + "quad.rel_tol = 1e-9\n")
    if argv[-1] == "--config":
        argv = argv + [str(path)]
    argv = argv + ["--rel-tol", "1e-6"]
    if argv[0] == "asympt":  # text only: no manifest
        run = build_run_input(_config_from_args(build_parser().parse_args(argv)))
        assert run.quad == QuadratureSpec(rel_tol=1e-6)
        return
    assert main(argv + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["quad"] == \
        QuadratureSpec(rel_tol=1e-6)._asdict()


@pytest.mark.parametrize("argv", [
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1", "--e-ji",
     "1", "--mu-par-sq", "nan", "--mu-perp-sq", "1"],
    ["shift", "--n", "2", "--thickness", "1", "--distance", "1", "--e-ji",
     "1", "--mu-par-sq", "inf", "--mu-perp-sq", "1"],
    # every input finite, the contribution past the doubles
    ["shift", "--n", "2", "--thickness", "1e-5", "--distance", "1e-5",
     "--e-ji", "1e-10", "--mu-par-sq", "1e300", "--mu-perp-sq", "1"],
    ASYMPT[:-4] + ["--mu-par-sq", "nan", "--mu-perp-sq", "1"],
    ASYMPT[:-2] + ["--mu-perp-sq", "inf"],
])
def test_non_finite_results_are_input_errors(argv, capsys):
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("slabshift: input error: ")


@pytest.mark.parametrize("argv", [
    ["shift", "--n", "1.0415955", "--thickness", "15426.8", "--distance",
     "9.04059e+67", "--e-ji", "12307.2", "--mu-par-sq", "8.693e+34",
     "--mu-perp-sq", "22.0497"],
    ["wfun", "--zeta", "3.51398e-09", "--lam", "1e-320", "--n", "1.0001103"],
    ["wfun", "--zeta", "9.54618e+18", "--lam", "1e-320", "--n", "1.0000019"],
    ["asympt", "--n", "2", "--thickness", "1", "--distance", "1", "--e-ji",
     "1", "--mu-par-sq", "2e-320", "--mu-perp-sq", "1e-320"],
    # a 0 where the slab is there (n > 1, L > 0): lam = L E_ji = 1e-330
    # rounds to 0, and a contribution of W_par = 3.07e-160 over Z^4 = 1e240
    ["shift", "--n", "2", "--thickness", "1e-250", "--distance", "1e4",
     "--e-ji", "1e-80", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["asympt", "--n", "2", "--thickness", "1e-250", "--distance", "1e4",
     "--e-ji", "1e-80", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["shift", "--n", "2", "--thickness", "1e-100", "--distance", "1e60",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ["asympt", "--n", "2", "--thickness", "1e-100", "--distance", "1e60",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
])
def test_subnormal_results_are_input_errors(argv, capsys):
    # a shift or a W component that underflowed past the normal doubles
    # has lost its digits
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("slabshift: input error: ")
    assert "below the normal doubles" in err


@pytest.mark.parametrize("argv", [["--lam", "0", "--n", "2"],
                                  ["--lam", "1e-320", "--n", "1"]])
def test_exact_zero_w_is_not_an_underflow(argv, capsys):
    assert main(["wfun", "--zeta", "1", *argv]) == EXIT_OK
    assert capsys.readouterr().out == (f"W_par={_fmt(0.0)} W_z={_fmt(0.0)} "
                                       f"err_est={_fmt(0.0)}\n")


def test_modes_beyond_the_branch_budget_is_an_input_error(capsys):
    # 3.1e6 branches per relation: 8.9M rows without the budget
    assert main(["modes", "--k-par", "534.7", "--n", "1e4", "--thickness",
                 "3.615"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("slabshift: input error: k_par = 534.7, n = "
                          "10000.0, L = 3.615 ")


def _subcommands():
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_readme_flag_table_matches_the_parser():
    table = readme_table("| subcommand | flags |")
    subcommands = _subcommands()
    assert set(table) == set(subcommands)
    for name, flags in table.items():
        options = {option for action in subcommands[name]._actions
                   for option in action.option_strings}
        assert sorted(flags.split()) == sorted(
            options - {"-h", "--help", "--output", "--jobs"}), name


def test_readme_key_table_matches_the_dests():
    # every flag whose dest is a config key, on every subcommand, is a row,
    # and shift and asympt take them all
    table = readme_table("| flag | config key |")
    for name, sub in _subcommands().items():
        keys = {action.option_strings[0]: action.dest
                for action in sub._actions
                if "." in action.dest or action.dest == "units"}
        assert keys == {flag: table[flag] for flag in keys}, name
        if name in ("shift", "asympt"):
            assert keys == table
