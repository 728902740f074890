"""The mutation list of ``mutations.py`` still applies to the code.

Only the text checks run here; ``python3 tests/mutations.py`` runs the
mutations themselves.
"""

import ast

import pytest

from mutations import MUTATIONS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTATIONS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutation):
    assert (ROOT / mutation.path).read_text(encoding="utf-8").count(mutation.old) == 1
    assert mutation.old != mutation.new
    for path in mutation.tests:
        assert (ROOT / path).is_file(), path
    assert mutation.expect.split("::")[0] in mutation.tests


def test_every_code_module_has_an_entry():
    # Each module of the package that defines a function has tests shown to
    # fail on at least one known-bad copy of it.
    modules = {f"src/sqkd/{path.name}" for path in (ROOT / "src" / "sqkd").glob("*.py")
               if any(isinstance(node, ast.FunctionDef)
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert len(modules) >= 5
    assert modules - {m.path for m in MUTATIONS} == set()


def defined_tests(path: str) -> set:
    """``Class::function`` and ``function`` ids of the tests a file defines."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    ids = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        ids.update(f"{cls.name}::{node.name}" for node in cls.body
                   if isinstance(node, ast.FunctionDef))
    return ids


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_expected_test_is_defined(mutation):
    # A renamed test would otherwise surface only when the script is run.
    path, _, test = mutation.expect.partition("::")
    assert test.split("[")[0] in defined_tests(path), mutation.expect
