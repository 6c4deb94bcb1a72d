"""The code-line count of tools/code_lines.py, which the simplicity changes
quote: its rule on a small source, and its per-module report."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""
import os  # a trailing comment


# a comment line
def f(a,
      b):
    """A function docstring."""
    x = ("a string that is not"
         "a docstring")
    return [a,

            b, x, os]


class C:
    """A class docstring."""

    def g(self): """A one-line docstring."""
'''


def test_counts_lines_with_code_outside_docstrings():
    # import; def f( and b):; the two lines of x; return [ and b] (not
    # the blank line inside the brackets); class C; def g
    assert code_lines.code_lines(SOURCE) == 9


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "two.py").write_text("# only a comment\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9  one.py", "     1  sub/two.py", "    10  total", ""]
