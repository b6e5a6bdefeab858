"""Which modules each entry point loads, checked in fresh interpreters.

The package namespace and the CLI import their compute modules lazily, so
these tests cannot run in the test process, where earlier tests have
already imported everything: each one starts a new interpreter and reads
``sys.modules`` there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slabshift

SRC = str(Path(slabshift.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": SRC}
ENV.pop("SLABSHIFT_JOBS", None)

# the names perfbench/tracing.py wraps on slabshift.cli and the tests
# replace there; the commands of ARGV call each of them
TRACED = ("w_pair", "energy_shift", "halfspace_S", "nonretarded_shift",
          "retarded_thin_shift", "nonretarded_thin_shift", "buhmann_U",
          "classify_regime", "find_trapped_modes")
ARGV = {
    "wfun": ["wfun", "--zeta", "8", "--lam", "1", "--n", "2",
             "--rel-tol", "1e-6"],
    "sweep": ["sweep", "--axis", "lambda", "--lo", "0.5", "--hi", "2",
              "--points", "2", "--zeta", "1", "--n", "2", "--rel-tol", "1e-6"],
    "shift": ["shift", "--n", "2", "--thickness", "1", "--distance", "8",
              "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1",
              "--rel-tol", "1e-6"],
    "modes": ["modes", "--k-par", "4", "--n", "2", "--thickness", "1"],
    "asympt": ["asympt", "--n", "2", "--thickness", "1", "--distance", "8",
               "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1",
               "--rel-tol", "1e-6"],
}
COMPUTE = {"numpy", "slabshift.quadrature", "slabshift.reflection",
           "slabshift.shift", "slabshift.asymptotics",
           "slabshift.electrostatics", "slabshift.modes"}


def _python(code: str, env: dict[str, str] = ENV
            ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _loaded(code: str) -> set[str]:
    """Modules loaded after ``code`` runs in a fresh interpreter."""
    proc = _python(code + "\nimport sys\nprint(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _after_main(argv: list[str]) -> str:
    return ("from slabshift.cli import main\n"
            f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass")


@pytest.mark.parametrize("code", [
    "import slabshift",
    "import slabshift.cli",
    _after_main(["--help"]),
    _after_main(["wfun", "--zeta", "-1", "--lam", "1", "--n", "2"]),
    _after_main(["sweep", "--axis", "zeta", "--lo", "2", "--hi", "1",
                 "--points", "3", "--lam", "1", "--n", "2"]),
    _after_main(["modes", "--k-par", "0", "--n", "2", "--thickness", "1"]),
    _after_main(["shift", "--n", "0.5", "--thickness", "1", "--distance", "8",
                 "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"]),
])
def test_start_up_and_input_errors_load_no_compute_module(code):
    assert not _loaded(code) & COMPUTE


def test_wfun_loads_no_modes_asymptotics_or_electrostatics():
    loaded = _loaded(_after_main(ARGV["wfun"]))
    assert "slabshift.shift" in loaded
    assert not loaded & {"slabshift.modes", "slabshift.asymptotics",
                         "slabshift.electrostatics"}


def test_modes_loads_no_shift_or_quadrature():
    loaded = _loaded(_after_main(ARGV["modes"]))
    assert "slabshift.modes" in loaded
    assert not loaded & {"slabshift.shift", "slabshift.quadrature"}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("axis, fixed", [
    ("zeta", ["--lam", "1", "--n", "2"]),
    ("n", ["--zeta", "1", "--lam", "1"]),
    ("lambda", ["--zeta", "1", "--n", "2"]),
])
def test_sweep_runs_in_a_fresh_process(axis, fixed, jobs):
    # a compute name a sweep point misses would only show as a failed row
    proc = subprocess.run(
        [sys.executable, "-m", "slabshift.cli", "sweep", "--axis", axis,
         "--lo", "1.5", "--hi", "3", "--points", "3", *fixed,
         "--rel-tol", "1e-6", "--jobs", jobs],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line and not line.startswith(("#", "value,"))]
    assert len(rows) == 3
    assert all(row.endswith(",ok") for row in rows)


def test_sweep_point_binds_its_own_names():
    # a worker that starts a new interpreter (spawn, forkserver) runs the
    # point function without the command that bound the names in the parent
    proc = _python(
        "from slabshift.cli import _sweep_point\n"
        "from slabshift.quadrature import QuadratureSpec\n"
        "point = {'zeta': 1.0, 'lam': 1.0, 'n': 2.0}\n"
        "print(_sweep_point((1.0, point, QuadratureSpec(rel_tol=1e-6), None))"
        "['status'])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_lazy_namespace_resolves_every_public_name():
    proc = _python(
        "import slabshift\n"
        "missing = [n for n in slabshift.__all__ if n not in dir(slabshift)]\n"
        "assert not missing, missing\n"
        "values = {n: getattr(slabshift, n) for n in slabshift.__all__}\n"
        "namespace = {}\n"
        "exec('from slabshift import *', namespace)\n"
        "assert all(namespace[n] is values[n] for n in slabshift.__all__)\n"
        "from slabshift import classify_regime, w_pair\n"
        "from slabshift.asymptotics import classify_regime as again\n"
        "assert again is classify_regime\n"
        "try:\n"
        "    slabshift.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_traced_names_are_cli_attributes_that_commands_call():
    # read and replace each name before any command runs, as perfbench's
    # tracer does; every command must call the replacement
    proc = _python(
        "import slabshift.cli as cli\n"
        "calls = dict.fromkeys(%r, 0)\n"
        "def counting(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "for name in calls:\n"
        "    setattr(cli, name, counting(name, getattr(cli, name)))\n"
        "for argv in %r:\n"
        "    assert cli.main(argv + ['--output', %r]) == 0, argv\n"
        "print(calls)\n" % (TRACED, list(ARGV.values()), os.devnull))
    assert proc.returncode == 0, proc.stderr
    calls = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert all(calls[name] > 0 for name in TRACED), calls


# A CLI process pins numpy's OpenBLAS to one thread before numpy loads;
# these run with no thread count set unless a test sets one.
NO_BLAS_ENV = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
WFUN_SMALL = ["wfun", "--zeta", "1", "--lam", "1", "--n", "2"]


def _stdout(code: str, env: dict[str, str]) -> str:
    proc = _python(code, env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_process_runs_one_thread():
    out = _stdout(
        "import os\n"
        "from slabshift.cli import main\n"
        f"rc = main({WFUN_SMALL!r} + ['--output', {os.devnull!r}])\n"
        "print(rc, len(os.listdir('/proc/self/task')),"
        " os.environ['OPENBLAS_NUM_THREADS'])\n", NO_BLAS_ENV)
    assert out == "0 1 1\n"


def test_cli_keeps_a_thread_count_the_user_set():
    out = _stdout(
        "import os\n"
        "from slabshift.cli import main\n"
        f"rc = main({WFUN_SMALL!r} + ['--output', {os.devnull!r}])\n"
        "print(rc, os.environ['OPENBLAS_NUM_THREADS'])\n",
        {**NO_BLAS_ENV, "OPENBLAS_NUM_THREADS": "2"})
    assert out == "0 2\n"


def test_in_process_main_after_numpy_leaves_the_environment_alone():
    out = _stdout(
        "import os\n"
        "import numpy\n"
        "from slabshift.cli import main\n"
        "before = dict(os.environ)\n"
        f"rc = main({WFUN_SMALL!r} + ['--output', {os.devnull!r}])\n"
        "print(rc, dict(os.environ) == before)\n", NO_BLAS_ENV)
    assert out == "0 True\n"


def test_one_thread_sweep_is_the_same_for_any_worker_count():
    # the workers of --jobs 2 inherit the one-thread setting
    argv = [sys.executable, "-m", "slabshift.cli", "sweep", "--axis", "zeta",
            "--lo", "0.5", "--hi", "2", "--points", "3", "--lam", "1",
            "--n", "2", "--rel-tol", "1e-6"]
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(argv + ["--jobs", jobs], env=NO_BLAS_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append([line for line in proc.stdout.splitlines()
                     if not line.startswith("# timestamp = ")])
    assert outs[0] == outs[1]
