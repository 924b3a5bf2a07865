"""List the statements of ``src/aapt`` that a pytest run never executes.

    python tools/line_coverage.py [PYTEST ARGS ...]

Runs ``pytest.main(PYTEST ARGS)`` in this process with a ``sys.settrace``
line tracer (also set for new threads with ``threading.settrace``) that
records the lines run in ``src/aapt``, which it puts first on ``sys.path``.
The statements are read with ``ast``: every statement but function and
class definitions, imports and docstrings.  A simple statement counts as
run when any of its lines ran; a compound one (``if``, ``for``, ``try``, ...)
when a line of its header ran or any statement in its body did.

Each statement that never ran is printed as ``path:line: source``, then
one count per module and a total.  Child processes (the tests that run
``python -m aapt`` or a tool as a subprocess) are not traced, so a line that
only they reach is listed too.  The exit code is pytest's; the report
itself never fails.  Tracing makes the run about half again as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aapt"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly nested in ``node`` (its bodies, branches and handlers)."""
    out = []
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, None) or ():
            out.extend(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) else [child])
    return out


def unrun_statements(tree: ast.Module, ran: set[int]) -> tuple[int, list[int]]:
    """The number of statements in ``tree`` and the first lines of those that no line of ``ran`` reaches."""
    total, missed = 0, []

    def visit(node: ast.stmt, parent: ast.AST) -> bool:
        nonlocal total
        children = _children(node)
        nested = [visit(child, node) for child in children]
        if isinstance(node, _SKIPPED) or _is_docstring(node, parent):
            return False
        header_end = max(min((c.lineno for c in children), default=node.end_lineno + 1) - 1, node.lineno)
        run = any(nested) or any(line in ran for line in range(node.lineno, header_end + 1))
        total += 1
        if not run:
            missed.append(node.lineno)
        return run

    for node in tree.body:
        visit(node, tree)
    return total, sorted(missed)


def main(argv: list[str] | None = None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    wanted: dict[object, bool] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code not in wanted:
            wanted[code] = code.co_filename.startswith(prefix)
            if wanted[code]:
                ran.setdefault(code.co_filename, set())
        return trace_lines if wanted[code] else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nstatements of src/aapt that never ran (child processes are not traced):")
    counts = []
    for module in sorted(PACKAGE.rglob("*.py")):
        source = module.read_text(encoding="utf-8")
        total, missed = unrun_statements(ast.parse(source), ran.get(str(module), set()))
        lines = source.splitlines()
        for lineno in missed:
            print(f"{module.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
        counts.append((module, total, len(missed)))
    for module, total, missing in counts:
        print(f"{total - missing:6d} of {total:4d} run  {module.relative_to(ROOT)}")
    total, missing = sum(c[1] for c in counts), sum(c[2] for c in counts)
    print(f"{total - missing:6d} of {total:4d} run  total")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
