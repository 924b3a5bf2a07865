import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class Box:
    """Class docstring."""

    def total(self, x):
        """Function docstring."""
        s = (
            x
            + 1
        )
        return s
'''
# code: import, class, def, the four lines of the parenthesised sum, return
FIXTURE_CODE_LINES = 8


def test_counts_code_lines_only():
    assert code_lines.count_code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines.count_code_lines('x = 1\ny = """a\n\nb"""\n') == 4


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(FIXTURE_CODE_LINES), "1", str(FIXTURE_CODE_LINES + 1)]
    assert lines[-1].split()[1] == "total"
