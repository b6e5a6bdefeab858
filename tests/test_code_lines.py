"""The code-line counter of ``tests/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

TOOL = Path(__file__).resolve().parent / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

NOTE = """a string that is not a statement
keeps both of its lines"""


def hypot(x, y):
    """A function docstring."""
    # a comment line
    return math.sqrt(x * x
                     + y * y)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, both lines of NOTE, def, and both lines of the return
    assert code_lines(FIXTURE) == 6


def test_the_tool_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("y = 1\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["6", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")],
        ["7", "total"]]
