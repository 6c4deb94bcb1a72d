"""Count the code lines of the fiolab package, module by module.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, outside the docstrings of modules, classes and
functions: blank lines, comment lines and docstrings do not count, and
each line of a statement that spans several lines does.

    python3 tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to the package, src/fiolab; every *.py below it is
counted, and the total printed last.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree) -> set:
    """(line, column) of the first token of every module, class and
    function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _HOLDERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (tok.type == tokenize.STRING
                                    and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "fiolab")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
