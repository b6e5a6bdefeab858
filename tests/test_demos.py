"""Every demo script, and every ``python`` block of README.md, runs to
completion in a fresh interpreter with warnings as errors.

Each demo is copied into a temporary directory first, so files a demo
writes beside itself stay out of the source tree; README blocks run there
too.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.DOTALL | re.MULTILINE)


def _run(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    proc = _run([str(copy)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # a doc example that the API has outgrown fails here
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
