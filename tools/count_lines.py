"""Count total and code lines per Python module.

    python tools/count_lines.py [--rev REV] [PATH ...]

PATH is a file or a directory searched for *.py files (default: the
src/modunfold next to this directory, from any working directory; a missing
PATH exits 2).  With --rev, the files are read as they are at git revision
REV of the repository in the working directory (git ls-tree and git show,
touching no worktree), so `--rev HEAD~1` and no option give a change's
before and after; an unknown REV, a failing git or a PATH with no *.py
files at REV exits 2.  "Code" lines are those that are not blank,
comment-only or part of a docstring (the first string statement of a
module, class or function).  A line is code if any token other than a
comment or a line break sits on it; lines spanned by a multi-line token
count once each.  Prints one line per module and a total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
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


def _git(parser: argparse.ArgumentParser, *args: str) -> str:
    try:
        done = subprocess.run(["git", *args], capture_output=True, text=True)
    except OSError as err:
        parser.error(f"cannot run git: {err}")
    if done.returncode != 0:
        parser.error(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def _sources(parser: argparse.ArgumentParser, paths: list[Path], rev: str | None):
    """(path, source) of every *.py file under paths, in the worktree or at rev."""
    for path in paths:
        if rev is None:
            if not path.exists():
                parser.error(f"no such file or directory: {path}")
            for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
                yield file, file.read_text(encoding="utf-8")
            continue
        listed = _git(parser, "ls-tree", "-r", "--name-only", rev, "--", str(path)).split("\n")
        files = sorted(Path(name) for name in listed if name.endswith(".py"))
        if not files:
            parser.error(f"no *.py files at {rev}: {path}")
        for file in files:
            yield file, _git(parser, "show", f"{rev}:./{file.as_posix()}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="count the files as they are at this git revision")
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        default=[Path(os.path.relpath(_PACKAGE))])
    args = parser.parse_args(argv)
    sources = list(_sources(parser, args.paths, args.rev))
    totals = [0, 0]
    print(f"{'total':>7} {'code':>6}  module")
    for path, source in sources:
        lines = count(source)
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:7d} {lines[1]:6d}  {path}")
    print(f"{totals[0]:7d} {totals[1]:6d}  all {len(sources)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
