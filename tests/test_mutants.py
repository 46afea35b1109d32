"""The mutation manifest of tests/mutants.py still applies to the code.

Each mutant's old text occurs exactly once in its file, its new text
differs, and every test it names is defined in the file it names, so
the list cannot go stale without notice.  Running the mutants takes
`python tests/mutants.py` and is not part of this check.
"""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    text = (mutants.ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.work_only == (not mutant.tests)
    for test in mutant.tests:
        path, name = test.split("::")
        assert re.search(rf"^def {name}\(", (mutants.ROOT / path).read_text(), re.M), test


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
