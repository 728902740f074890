"""The code-line counter of ``code_lines.py`` counts what it says it counts."""

import code_lines


def test_docstrings_and_comments_are_not_code(capsys):
    snippet = ('"""Module docstring,\n\nover three lines."""\n'
               "# a comment\n"
               "\n"
               "    # an indented comment\n")
    assert code_lines.code_lines(snippet) == 0
    # A string that opens no body is code, every line of it.
    assert code_lines.code_lines(snippet + 'x = """a\nb"""  # c\n') == 2

    assert code_lines.main() == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code"]
    modules = {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}
    assert set(modules) == {path.stem for path in code_lines.PACKAGE.glob("*.py")}
    assert total.split() == ["total", *(str(sum(column)) for column in zip(*modules.values()))]
