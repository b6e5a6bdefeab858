"""Which modules each entry point loads, checked in fresh interpreters.

The package namespace and the CLI import their compute modules lazily, so
these tests cannot run in the test process, where earlier tests have
already imported everything: each one starts a new interpreter and reads
``sys.modules`` there.  The process entry point ``cli.run`` is checked the
same way, since it acts when the interpreter exits.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slabshift
from helpers import readme_table

SRC = str(Path(slabshift.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": SRC}

# the names perfbench/tracing.py wraps on slabshift.cli that the commands
# of ARGV call, each of them; the tracer also wraps halfspace_S there,
# which no command calls
TRACED = ("w_pair", "energy_shift", "nonretarded_shift",
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


# a complete problem but for its quad.* keys: a misspelt key, and a value
# that is no number
CONFIG = ("slab.n = 2\nslab.L = 1\ngeometry.Z = 8\n"
          "atom.transitions[0].E_ji = 1\natom.transitions[0].mu_par_sq = 2\n"
          "atom.transitions[0].mu_perp_sq = 1\n")


@pytest.mark.parametrize("quad", ["quad.max_subdivision = 10",
                                  "quad.rel_tol = tight"])
def test_bad_quad_key_exits_2_before_any_compute_module(tmp_path, quad):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG + quad + "\n")
    loaded = _loaded("from slabshift.cli import main\n"
                     f"assert main(['shift', '--config', {str(config)!r}]) "
                     "== 2\n")
    assert not loaded & COMPUTE


def test_sweep_of_more_than_a_million_points_exits_2_before_numpy():
    # the grid and two tuples per point were built before any point ran,
    # with no bound on their number
    argv = ["sweep", "--axis", "zeta", "--lo", "1", "--hi", "2", "--points",
            "1000001", "--lam", "1", "--n", "2"]
    loaded = _loaded("from slabshift.cli import main\n"
                     f"assert main({argv!r}) == 2\n")
    assert not loaded & COMPUTE


@pytest.mark.parametrize("code", [
    "import slabshift.cli",
    _after_main(["--help"]),
    _after_main(["shift", "--help"]),
    _after_main(ARGV["wfun"] + ["--no-such-flag"]),
    _after_main(["wfun", "--zeta", "1", "--n", "2"]),
    _after_main([]),
])
def test_parser_loads_neither_core_nor_dataclasses(code):
    # --help and flag errors end in the parser, before any command binds a
    # library name
    assert not _loaded(code) & {"slabshift.core", "slabshift.units",
                                "dataclasses"}


@pytest.mark.parametrize("command", sorted(ARGV))
def test_no_subcommand_loads_dataclasses_or_datetime(command):
    # the value types are namedtuples, and the manifest writes its
    # timestamp with the time module
    loaded = _loaded(_after_main(ARGV[command] + ["--output", os.devnull]))
    assert not loaded & {"dataclasses", "datetime"}


def test_readme_import_table_matches_what_each_subcommand_loads():
    table = readme_table("| subcommand | imports |")
    assert set(table) == set(ARGV)
    parser_only = _loaded("import slabshift.cli")
    for command, argv in ARGV.items():
        loaded = _loaded(_after_main(argv + ["--output", os.devnull]))
        modules = {name.removeprefix("slabshift.")
                   for name in loaded - parser_only
                   if name.startswith("slabshift.")}
        assert sorted(table[command].split()) == sorted(modules), command


def test_wfun_loads_no_modes_asymptotics_or_electrostatics():
    loaded = _loaded(_after_main(ARGV["wfun"]))
    assert "slabshift.shift" in loaded
    assert not loaded & {"slabshift.modes", "slabshift.asymptotics",
                         "slabshift.electrostatics"}


@pytest.mark.parametrize("axis, fixed", [
    ("zeta", ["--lam", "1", "--n", "2"]),
    ("n", ["--zeta", "1", "--lam", "1"]),
    ("lambda", ["--zeta", "1", "--n", "2"]),
])
def test_sweep_loads_no_asymptotics_or_electrostatics(axis, fixed):
    # the half-space column is w_pair at lam = inf
    loaded = _loaded(_after_main(
        ["sweep", "--axis", axis, "--lo", "1.5", "--hi", "3", "--points", "2",
         *fixed, "--rel-tol", "1e-6", "--output", os.devnull]))
    assert "slabshift.shift" in loaded
    assert not loaded & {"slabshift.asymptotics", "slabshift.electrostatics"}


def test_modes_loads_no_shift_or_quadrature():
    loaded = _loaded(_after_main(ARGV["modes"]))
    assert "slabshift.modes" in loaded
    assert not loaded & {"slabshift.shift", "slabshift.quadrature"}


@pytest.mark.parametrize("argv", [
    ARGV["wfun"], ARGV["shift"], ARGV["sweep"] + ["--jobs", "1"],
    ARGV["asympt"],
    ["asympt", "--n", "1e4", "--thickness", "0.01", "--distance", "1",
     "--e-ji", "1", "--mu-par-sq", "2", "--mu-perp-sq", "1"],
    ARGV["modes"],
], ids=["wfun", "shift", "sweep", "asympt", "asympt-k-integral", "modes"])
def test_no_command_loads_numpy(argv):
    # the W cubature, the reflection coefficients, the k integral and the
    # mode solver are plain Python, so no command pays numpy's import
    loaded = _loaded("from slabshift.cli import main\n"
                     f"assert main({argv + ['--output', os.devnull]!r}) "
                     "== 0\n")
    assert "slabshift.reflection" in loaded
    assert "numpy" not in loaded


def test_no_module_imports_numpy():
    # the package has no runtime dependency
    package = Path(slabshift.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert package / "modes.py" in sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert "numpy" not in roots, source.name


def test_no_module_reads_the_environment():
    # every setting is a flag or a config key, which the manifest records
    for source in sorted(Path(slabshift.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute):
                read = (getattr(node.value, "id", None), node.attr)
                assert read not in {("os", "environ"), ("os", "getenv")}, \
                    source.name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, source.name


MODULE_SOURCES = sorted(Path(slabshift.__file__).parent.glob("*.py"))


def _top_level_names(tree) -> set[str]:
    """The names a module binds in its own body, imports excluded."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for target in node.targets
                      for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


# the package's __all__ is the lazy namespace, which __getattr__ resolves
@pytest.mark.parametrize("source", [p for p in MODULE_SOURCES
                                    if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_all_lists_only_names_the_module_defines(source):
    # a name re-exported from another module has two import paths, and the
    # lazy namespace would load the module it was taken from
    tree = ast.parse(source.read_text())
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)]
    for names in listed:
        assert set(names) <= _top_level_names(tree), \
            sorted(set(names) - _top_level_names(tree))


@pytest.mark.parametrize("source", MODULE_SOURCES, ids=lambda p: p.name)
def test_private_names_are_imported_only_from_core_or_the_package(source):
    # core holds the shared private helpers; any other module's private
    # name is its own layer's, and a second module that reads it straddles
    # two layers
    for node in ast.walk(ast.parse(source.read_text())):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        private = [alias.name for alias in node.names
                   if alias.name.startswith("_")
                   and not alias.name.startswith("__")]
        assert not private or node.module in (None, "core"), \
            f"{source.name}:{node.lineno}: {node.module}.{private}"


def _index_power(node, powers: set[str]) -> bool:
    """Whether ``node`` is a power of the slab index ``n`` (or ``x.n``):
    a product of the index and such powers, ``n ** 2``, ``n ** 4``, or a
    name in ``powers``."""
    if isinstance(node, ast.Name) and node.id in powers:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return all(_is_index(x) or _index_power(x, powers)
                   for x in (node.left, node.right))
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and _is_index(node.left)
            and getattr(node.right, "value", None) in (2, 4))


def _is_index(node) -> bool:
    return (getattr(node, "id", None) == "n"
            or isinstance(node, ast.Attribute) and node.attr == "n")


def _index_power_names(tree) -> set[str]:
    """The names a module binds to a power of the index, n2 = n * n and
    n4 = n2 * n2 alike, tuple assignments included."""
    powers: set[str] = set()
    while True:
        found = set(powers)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                found |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and _index_power(v, powers)}
        if found == powers:
            return powers
        powers = found


@pytest.mark.parametrize("source", sorted(
    p.name for p in Path(slabshift.__file__).parent.glob("*.py")
    if p.name != "core.py"))
def test_the_index_arithmetic_has_one_home_in_core(source):
    # n * n - 1 keeps the rounding error of n * n, a large share of n^2 - 1
    # near n = 1, and (n^2 - 1)/(n^2 + 1) is nan once n^2 overflows: core's
    # _contrast and _beta form both, and every other module reads them
    tree = ast.parse((Path(slabshift.__file__).parent / source).read_text())
    powers = _index_power_names(tree)
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.FunctionDef)
                    and node.name == "_beta"), f"{source}:{node.lineno}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            assert not (getattr(node.right, "value", None) == 1
                        and _index_power(node.left, powers)), \
                f"{source}:{node.lineno}: {ast.unparse(node)}"


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
        "from slabshift import QuadratureSpec\n"
        "wp = _sweep_point((1.0, 1.0, 2.0), QuadratureSpec(rel_tol=1e-6))\n"
        "print(type(wp).__name__)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "WPair\n"


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
        "from slabshift.core import classify_regime as again\n"
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


WFUN_SMALL = ["wfun", "--zeta", "1", "--lam", "1", "--n", "2"]


def _stdout(code: str, env: dict[str, str]) -> str:
    proc = _python(code, env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_process_runs_one_thread():
    # ... and sets no environment variable for it
    out = _stdout(
        "import os\n"
        "from slabshift.cli import main\n"
        "before = dict(os.environ)\n"
        f"for argv in ({WFUN_SMALL!r}, {ARGV['modes']!r}):\n"
        f"    assert main(argv + ['--output', {os.devnull!r}]) == 0\n"
        "print(len(os.listdir('/proc/self/task')),"
        " dict(os.environ) == before)\n", ENV)
    assert out == "1 True\n"


def test_one_thread_sweep_is_the_same_for_any_worker_count():
    # a sweep's rows do not depend on how many processes compute them
    argv = [sys.executable, "-m", "slabshift.cli", "sweep", "--axis", "zeta",
            "--lo", "0.5", "--hi", "2", "--points", "3", "--lam", "1",
            "--n", "2", "--rel-tol", "1e-6"]
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(argv + ["--jobs", jobs], env=ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append([line for line in proc.stdout.splitlines()
                     if not line.startswith("# timestamp = ")])
    assert outs[0] == outs[1]


# The process entry point: ``run()`` exits with ``main()``'s code after
# freezing the heap, and ``main()`` itself never freezes.
def _run(argv: list[str], before: str = "") -> subprocess.CompletedProcess:
    return _python(before + "import sys\n"
                   f"sys.argv = ['slabshift', *{argv!r}]\n"
                   "from slabshift.cli import run\n"
                   "run()\n")


@pytest.mark.parametrize("argv, code", [
    (ARGV["wfun"], 0),
    (["wfun", "--zeta", "-1", "--lam", "1", "--n", "2"], 2),
    (ARGV["wfun"] + ["--no-such-flag"], 2),
    (["sweep", "--axis", "zeta", "--lo", "-1", "--hi", "1", "--points", "3",
      "--lam", "1", "--n", "2", "--rel-tol", "1e-6"], 4),
])
def test_run_exits_with_the_code_of_main(argv, code):
    proc = _run(argv + ["--output", os.devnull])
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""


def test_atexit_handlers_run_after_the_heap_is_frozen():
    proc = _run(ARGV["wfun"] + ["--output", os.devnull],
                before="import atexit, gc\n"
                       "atexit.register(lambda: print("
                       "'frozen', gc.get_freeze_count() > 0))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "frozen True\n"


def test_run_makes_no_cyclic_collection_once_main_starts():
    # loading numpy inside main() set off about 30 collections that found
    # next to nothing to free
    proc = _run(ARGV["sweep"] + ["--output", os.devnull],
                before="import atexit, gc\n"
                       "import slabshift.cli as cli\n"
                       "phases = []\n"
                       "gc.callbacks.append(lambda phase, info: "
                       "phases.append(phase))\n"
                       "def main(argv=None, _main=cli.main):\n"
                       "    phases.clear()\n"
                       "    return _main(argv)\n"
                       "cli.main = main\n"
                       "atexit.register(lambda: print("
                       "'collections', phases.count('stop')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "collections 0\n"


def test_in_process_main_leaves_the_heap_unfrozen():
    # ... and the cyclic collector as it found it, on or off
    out = _stdout(
        "import gc\n"
        "from slabshift.cli import main\n"
        "before = gc.get_freeze_count()\n"
        f"rc = main({ARGV['wfun']!r} + ['--output', {os.devnull!r}])\n"
        "print(rc, gc.get_freeze_count() == before, gc.isenabled())\n"
        "gc.disable()\n"
        f"rc = main({ARGV['wfun']!r} + ['--output', {os.devnull!r}])\n"
        "print(rc, gc.isenabled())\n", ENV)
    assert out == "0 True True\n0 False\n"


def _untimed(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("# timestamp = ")]


@pytest.mark.parametrize("command", sorted(ARGV))
def test_module_entry_point_prints_what_main_prints(command):
    proc = subprocess.run(
        [sys.executable, "-m", "slabshift.cli", *ARGV[command]],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    in_process = _stdout(
        "from slabshift.cli import main\n"
        f"assert main({ARGV[command]!r}) == 0\n", ENV)
    assert _untimed(proc.stdout) == _untimed(in_process)


def test_console_script_is_a_callable_of_the_cli():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["slabshift"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert module == "slabshift.cli" and callable(entry)
    assert entry is slabshift.cli.run
