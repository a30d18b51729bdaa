"""Each recorded mutant of `mutants.py` still names text that occurs once in its module, so the
replay plants every fault where it was recorded, and names a CHANGES.md entry that exists.  The
replay itself runs outside tier-1."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.fault)
def test_old_text_occurs_once(mutant):
    assert mutants.occurrences(mutant) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.fault)
def test_recorded_title_starts_a_changes_entry(mutant):
    entries = (mutants.ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    assert any(line.startswith(f"- **{mutant.recorded}") for line in entries)
