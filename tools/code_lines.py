"""Count the code lines of Python sources: not blank, not comment, not docstring.

    python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for them
(default ``src/aapt``).  A line counts when a token other than a comment
starts, ends or continues on it, so every physical line of a multi-line
expression counts.  Docstrings (the leading string statement of a module,
class or function body, found with ``ast``) do not.  One line per module
gives its count, and a last line the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths: list[Path]) -> list[Path]:
    return [m for p in paths for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]


def main(argv=None) -> int:
    paths = [Path(a) for a in (sys.argv[1:] if argv is None else argv)] or [Path("src/aapt")]
    total = 0
    for module in _modules(paths):
        n = count_code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
