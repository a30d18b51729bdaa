"""Each recorded mutant of `mutants.py` still names text that occurs once in its module, so the
replay plants every fault where it was recorded.  The replay itself runs outside tier-1."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.fault)
def test_old_text_occurs_once(mutant):
    assert mutants.occurrences(mutant) == 1
