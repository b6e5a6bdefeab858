"""Count the code lines of Python modules.

A code line holds a token other than a comment or a statement-level
docstring (a string literal that is a statement on its own): blank lines,
comment lines and docstrings do not count, and a statement over several
lines counts each of them.  Run on a package directory, it prints the count
of each module and the total::

    python tests/code_lines.py src/slabshift
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = {(node.lineno, node.col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    counts = {}
    for arg in argv:
        path = Path(arg)
        for module in sorted(path.glob("*.py")) if path.is_dir() else [path]:
            counts[module] = code_lines(module.read_text(encoding="utf-8"))
    for module, count in counts.items():
        print(f"{count:6d}  {module}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
