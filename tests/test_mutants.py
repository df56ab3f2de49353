"""Every entry of the mutation catalogue (``mutants.py``) still applies: its
old text occurs exactly once in its file, and its test files exist.  The
catalogue itself runs outside tier-1."""

import pytest

from mutants import CATALOGUE, ROOT


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.label for m in CATALOGUE])
def test_entry_applies_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert all((ROOT / f).is_file() for f in mutant.tests)
