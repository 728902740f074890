"""The README's library example, run against the current API."""

import functools
import importlib
import re
import shlex
from pathlib import Path

import pytest

from sqkd import cli
from test_acceptance import MC_SEED

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md: Library example", "exec"), {})
    assert capsys.readouterr().out.startswith("0.324")


def test_cited_names_exist():
    # A backticked `module.name` (such as `attack.audit` or
    # `attack.statistics(atk)`) must name something the package defines, so
    # the prose cannot outlive a rename or a deletion.
    cited = set(re.findall(r"`(linalg|keyrate|attack|simulate|cli)((?:\.\w+)+)",
                           README.read_text(encoding="utf-8")))
    assert len(cited) >= 15
    for module, path in cited:
        root = importlib.import_module(f"sqkd.{module}")
        try:
            functools.reduce(getattr, path[1:].split("."), root)
        except AttributeError:
            raise AssertionError(f"README cites `{module}{path}`, which does not exist") from None


def test_command_line_comments_match_output(capsys):
    # Lines such as `sqkd threshold ... # -> 0.053495` state what sqkd prints.
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    claims = re.findall(r"^sqkd (.*?)\s+# -> (\S+)$", block, re.MULTILINE)
    assert len(claims) == 2
    for argv, printed in claims:
        assert cli.main(shlex.split(argv)) == 0
        assert capsys.readouterr().out == printed + "\n"


def test_exit_codes_documented():
    # The README and the cli docstring state the codes main returns, and the
    # stderr prefix it prints with each error code.
    meanings = {cli.EXIT_OK: "success / positive rate", cli.EXIT_INPUT: "input error",
                cli.EXIT_NONPOSITIVE: "non-positive rate", cli.EXIT_ABORT: "abort",
                cli.EXIT_VALIDATION: "validation failure"}
    for text in (README.read_text(encoding="utf-8"), cli.__doc__):
        stated = re.search(r"Exit codes:\s(.*?)\.\n", text, re.DOTALL).group(1)
        stated = " ".join(re.sub(r"\([^)]*\)", "", stated).split())
        items = [re.fullmatch(r"(\d+) (.*?)", item.strip()).groups()
                 for item in stated.split(",")]
        assert {int(code): meaning for code, meaning in items} == meanings
        for prefix, code in (("error", cli.EXIT_INPUT), ("abort", cli.EXIT_ABORT)):
            assert re.search(rf"`{prefix}: \.\.\.`\D*exit {code}\b", text), prefix


@pytest.mark.parametrize("spec", ["random:32", "symmetric:0.05,0.05", "zmeasure"])
def test_simulate_file_rates_the_same_with_or_without_normalize(tmp_path, capsys, spec):
    # "A `simulate` file needs no rescaling": criterion 7's runs, whose
    # blocks are counts over their totals.
    path = str(tmp_path / "stats.txt")
    assert cli.main(["simulate", "--attack", spec, "--iterations", "200000",
                     "--seed", str(MC_SEED), "--out", path]) == 0
    capsys.readouterr()
    runs = [(cli.main(["rate", "--stats", path, *flag]), capsys.readouterr())
            for flag in ([], ["--normalize"])]
    assert runs[0] == runs[1] and runs[0][1].out
