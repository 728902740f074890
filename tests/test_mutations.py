"""The mutation list of ``mutations.py`` still applies to the code.

Only the text checks run here; ``python3 tests/mutations.py`` runs the
mutations themselves.
"""

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
