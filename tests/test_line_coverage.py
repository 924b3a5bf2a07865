import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

FIXTURE = '''"""Module docstring."""

import os

LIMIT = 3


def check(x):
    """Function docstring."""
    if x > LIMIT:
        raise ValueError(
            "too large"
        )
    try:
        y = os.sep
    except AttributeError:
        y = None
    return y
'''


def _unrun(ran: set[int]) -> tuple[int, list[int]]:
    return line_coverage.unrun_statements(ast.parse(FIXTURE), ran)


def test_statements_leave_out_defs_imports_and_docstrings():
    # LIMIT, if, raise, try, y = os.sep, y = None, return
    assert _unrun(set()) == (7, [5, 10, 11, 14, 15, 17, 18])


def test_a_multi_line_statement_runs_when_any_of_its_lines_ran():
    assert _unrun({5, 10, 12, 15, 18})[1] == [17]  # the try ran through its body; only the handler did not


def test_a_compound_statement_runs_when_a_statement_in_its_body_ran():
    # line 13 is the closing parenthesis of the raise: the raise ran, so the if around it did
    assert _unrun({13})[1] == [5, 14, 15, 17, 18]
