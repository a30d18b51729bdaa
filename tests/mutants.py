"""Replay the recorded mutants: each planted fault must fail the tests chosen to catch it.

    python3 tests/mutants.py

Each entry of `MUTANTS` names a module of `src/ordext`, an exact old text
that occurs once in it, the new text that replaces it, the tests that
must catch the fault, the fault in words, and the CHANGES.md entry that
recorded it (the start of its bold title).  Each mutant is
planted in a temporary copy of `src/` (with `tests/` and `pyproject.toml`
beside it, so that the tests and the CLI processes they start import the
copy), never in the checkout, and its tests are run there by pytest.  A
mutant is killed when that run ends with a failed test (exit status 1).
The script exits 1 when an old text does not occur exactly once or a
mutant is not killed, else 0.  A
change that rewrites a mutated line edits its entry here in the same
change; a surviving mutant is a finding about the tests, not an entry to
delete.  `test_mutants.py` checks the old texts alone, in tier-1.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # under src/ordext
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the root of the tree
    fault: str
    recorded: str


MUTANTS = [
    Mutant("core.py", "        raise UnknownElement(token) from None\n", "        return None\n",
           ("tests/test_core.py", "tests/test_constructions.py"), "the lookup helper returns None",
           "One missing-element lookup"),
    Mutant("constructions.py", "UnknownElement(missing.args[0])", "UnknownElement(seq[0])",
           ("tests/test_constructions.py", "-k", "test_unknown_member"),
           "`_in_ground_order` names its first token, not the first unknown",
           "One missing-element lookup"),
    Mutant("formats.py", 'numbered[cut + 1 + body.index("---")]', 'numbered[cut + body.index("---")]',
           ("tests/test_formats.py",), "a second separator named one line early", "One missing-element lookup"),
    Mutant("formats.py", "if not _valid_tokens(ground):", "if True:",
           ("tests/test_formats.py", "-k", "test_each_distinct_token_checked_once"),
           "the error path walks a valid header again", "One missing-element lookup"),
    Mutant("core.py", "[*dict.fromkeys(reversed(node_order))][::-1]", "[*dict.fromkeys(node_order)]",
           ("tests/test_core.py", "-k", "test_node_order_picks_the_cycle_witness"),
           "a repeated node keeps its first position (library)", "One missing-element lookup"),
    Mutant("core.py", "[*dict.fromkeys(reversed(node_order))][::-1]", "[*dict.fromkeys(node_order)]",
           ("tests/test_cli.py", "-k", "TestClosure and test_error_bytes"),
           "a repeated node keeps its first position (CLI)", "One missing-element lookup"),
    Mutant("errors.py", "(type(self), *self.args), vars(self)", "(type(self), *self.args)",
           ("tests/test_core.py", "-k", "TestErrorWitness"), "a rebuilt error drops its witness",
           "One missing-element lookup"),
    Mutant("core.py", "x, y = min(stray)", "x, y = stray[0]",
           ("tests/test_core.py", "-k", "Stray"), "the first stray read, not the least",
           "One front end for raw pairs"),
    Mutant("extension.py", "        out.append(g[i])\n        placed |= 1 << i\n", "        out.append(g[i])\n",
           ("tests/test_extension.py", "-k", "TestLinearExtensionMatchesKahnOracle"),
           "`linear_extension` never marks a placed element", "One order builder and a Kahn step"),
    Mutant("core.py", 'object.__setattr__(self, "sequence", check_ground(sequence))',
           "vars(self).update(sequence=check_ground(sequence))",
           ("tests/test_core.py", "-k", "test_public_orders_weigh_what_batch_built_ones_do"),
           "a public order stores its sequence in an instance dict",
           "One order builder and a Kahn step"),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its module of the checkout."""
    return (ROOT / "src" / "ordext" / mutant.module).read_text(encoding="utf-8").count(mutant.old)


def outcome(mutant: Mutant) -> str:
    """`killed` when the mutant's tests fail on a temporary copy of the tree with the mutant planted,
    `SURVIVED` when they pass, and pytest's exit status for any other end, such as no test selected."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        target = root / "src" / "ordext" / mutant.module
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        code = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        found = occurrences(mutant)
        verdict = outcome(mutant) if found == 1 else f"old text found {found} times"
        bad += verdict != "killed"
        print(f"{verdict:>8}  {time.perf_counter() - start:5.1f} s  {mutant.module}: {mutant.fault}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
