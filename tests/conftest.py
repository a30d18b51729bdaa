import os
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# CLI tests run `python -m ordext` in a child process; hand it the source
# tree that pyproject's `pythonpath` gives this one.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Every property test draws the same examples on every run and has no deadline.  `tests/mutants.py`
# runs its tests under `replay`, which stops at the first failing example and does not shrink it: a
# planted fault then fails in seconds, even one whose examples end in `MemoryError`.
settings.register_profile("ordext", derandomize=True, deadline=None)
settings.register_profile("replay", settings.get_profile("ordext"),
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("ordext")


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
