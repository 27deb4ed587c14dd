"""The mutant table of tests/mutants.py still fits the code.

Running the mutants takes a pytest run each (see tests/mutants.py and the
CI workflow); this only checks that every substitution applies exactly
once to src/ and that every test it names exists, so the table cannot rot
unnoticed between those runs.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert (REPO / "src" / "wakesim" / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (REPO / path).read_text(), re.M), node
