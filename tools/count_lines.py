"""Count total and code lines per Python module.

    python tools/count_lines.py [PATH ...]

PATH is a file or a directory searched for *.py files (default: the
src/modunfold next to this directory, from any working directory; a missing
PATH exits 2).  "Code" lines are those that are not blank, comment-only or
part of a docstring (the first string statement of a module, class or
function).  A line is code if any token other than a comment or a line
break sits on it; lines spanned by a multi-line token count once each.
Prints one line per module and a total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modunfold"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        default=[Path(os.path.relpath(_PACKAGE))])
    paths = parser.parse_args(argv).paths
    files = []
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    totals = [0, 0]
    print(f"{'total':>7} {'code':>6}  module")
    for path in files:
        lines = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:7d} {lines[1]:6d}  {path}")
    print(f"{totals[0]:7d} {totals[1]:6d}  all {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
