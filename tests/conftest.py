import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

# CLI tests run `python -m ordext` in a child process; hand it the source
# tree that pyproject's `pythonpath` gives this one.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def digit_cap_untouched(monkeypatch):
    """Fails a test that changes the interpreter's process-wide cap on the digits of an int
    converted to or from text, where the interpreter has one."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        def refuse(value):
            raise AssertionError("the process-wide digit cap was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    yield
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
