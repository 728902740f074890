"""Line counts of the package: lines and code lines per module of ``src/sqkd``.

    python3 tests/code_lines.py

A code line holds at least one token of code.  Blank lines, comment lines
and the lines of docstrings (a string that opens a module, class or
function body) are not code lines; every line of any other multi-line
string or bracket is.  The file name keeps it out of the test suite, which
checks the counting itself (``test_code_lines.py``).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqkd"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Number of lines of the Python source ``text`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def counts(package: Path = PACKAGE) -> dict:
    """Module name -> (lines, code lines) for each module of ``package``."""
    table = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        table[path.stem] = (len(text.splitlines()), code_lines(text))
    return table


def main() -> int:
    table = counts()
    print(f"{'module':<12}{'lines':>7}{'code':>7}")
    for name, (lines, code) in table.items():
        print(f"{name:<12}{lines:>7}{code:>7}")
    lines, code = (sum(column) for column in zip(*table.values()))
    print(f"{'total':<12}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
