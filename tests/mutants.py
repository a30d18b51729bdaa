"""Replay the recorded mutants: each planted fault must fail the tests chosen to catch it.

    python3 tests/mutants.py

Each entry of `MUTANTS` names a module of `src/ordext`, an exact old text
that occurs once in it, the new text that replaces it, the tests that
must catch the fault, the fault in words, and the CHANGES.md entry that
recorded it (the start of its bold title).  Each mutant is
planted in a temporary copy of `src/` (with `tests/` and `pyproject.toml`
beside it, so that the tests and the CLI processes they start import the
copy), never in the checkout, and its tests are run there by pytest under
the `replay` Hypothesis profile of `conftest.py`, which does not shrink a
failing example, so a fault fails its test once it is met.  A
mutant is killed when that run ends with a failed test (exit status 1)
within `TIMEOUT` seconds; one that runs longer is stopped and not killed.
The run may map at most `MEMORY` bytes, so a fault that grows a list
without end fails its test rather than the machine.
The script exits 1 when an old text does not occur exactly once or a
mutant is not killed, else 0.  A
change that rewrites a mutated line edits its entry here in the same
change; a surviving mutant is a finding about the tests, not an entry to
delete.  `test_mutants.py` checks the old texts alone, in tier-1.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180  # seconds one mutant's tests may run; a mutant that makes them loop is not killed
MEMORY = 1 << 30  # bytes of address space they may map, so a loop that fills a list ends in MemoryError


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
    # The batch relation reader and the partition reader's sections.
    Mutant("formats.py", "Partition(blocks if len(blocks)", "Partition(blocks[not blocks[0] :] if len(blocks)",
           ("tests/test_formats.py", "-k", "test_lone_separator_makes_empty_first_block"),
           "a partition's empty first block dropped", "One section reader for relation and partition files"),
    Mutant("formats.py", "    return left.strip(), right.strip()\n", "    return right.strip(), left.strip()\n",
           ("tests/test_formats.py", "-k", "TestParseRelation or TestReadersMatchReference"),
           "a relation line's right token checked before its left",
           "One section reader for relation and partition files"),
    Mutant("formats.py", '    if not angle or "<" in right:\n',
           '    check_token(left.strip())\n    if not angle or "<" in right:\n',
           ("tests/test_formats.py", "-k", "TestParseRelation or TestReadersMatchReference"),
           "a relation line's tokens checked before its `<` structure",
           "One section reader for relation and partition files"),
    Mutant("formats.py",
           '        if "---" in body:\n'
           '            raise ParseError("more than one \'---\' separator", path, numbered[cut + 1 + body.index("---")][0])\n'
           "        if not _valid_tokens(ground):  # also keeps a file with no header (cut -1) from walking numbered[:-1]\n"
           "            _walk(numbered[:cut], path, _one_token)\n",
           "        if not _valid_tokens(ground):\n"
           "            _walk(numbered[:cut], path, _one_token)\n"
           '        if "---" in body:\n'
           '            raise ParseError("more than one \'---\' separator", path, numbered[cut + 1 + body.index("---")][0])\n',
           ("tests/test_formats.py", "-k", "TestParseRelation or TestReadersMatchReference"),
           "a second `---` found only after the header's tokens",
           "One section reader for relation and partition files"),
    Mutant("formats.py", "    return left.strip(), right.strip()\n", "    return (left.strip(),)\n",
           ("tests/test_formats.py", "-k", "TestParseRelation or TestReadersMatchReference"),
           "a relation line's right token left unchecked", "One section reader for relation and partition files"),
    # `errors._integer`, reading numbers of any length.
    Mutant("errors.py", 'text[:cut].removesuffix("_")', "text[:cut]",
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` keeps a `_` before its cut",
           "One reader each for long numbers and seeded draws"),
    Mutant("errors.py", "if not high[-1:].isdecimal():", "if not high:",
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` cuts between non-digits",
           "One reader each for long numbers and seeded draws"),
    Mutant("errors.py", "cut = digits[len(digits) // 2] if", "cut = digits[len(digits) // 2] + 1 if",
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` cuts one character late",
           "One reader each for long numbers and seeded draws"),
    Mutant("errors.py", 'return -n if "-" in high else n', 'return -n if high.startswith("-") else n',
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` reads the sign by `startswith`",
           "One reader each for long numbers and seeded draws"),
    Mutant("errors.py", "abs(_integer(high))", "_integer(high)",
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` drops `abs` on the high half",
           "One reader each for long numbers and seeded draws"),
    Mutant("errors.py", "10 ** (len(digits) - len(digits) // 2)", "10 ** (len(digits) // 2)",
           ("tests/test_extension.py", "-k", "TestIntegerReader"), "`_integer` takes the power from the high half",
           "One reader each for long numbers and seeded draws"),
    # `is_dense` and the orders it reads.
    Mutant("constructions.py", "labels = a | b if strict else b | a", "labels = b | a if strict else a | b",
           ("tests/test_constructions.py", "-k", "IsDense"), "`is_dense` swaps the label precedence",
           "Enumerated orders built in C, density decided by one label string"),
    Mutant("constructions.py",
           '    for tokens, label in ((t1, "a"), (t2, "b")):\n        seq = check_ground(tokens)\n',
           '    for seq, label in ((check_ground(t1), "a"), (check_ground(t2), "b")):\n',
           ("tests/test_constructions.py", "-k", "IsDense"), "`is_dense` checks T2 before T1's unknowns",
           "Enumerated orders built in C, density decided by one label string"),
    Mutant("constructions.py", "UnknownElement(next(tok for tok in seq if tok not in known))",
           "UnknownElement(min(tok for tok in seq if tok not in known))",
           ("tests/test_constructions.py", "-k", "IsDense"), "`is_dense` names the least unknown, not the first",
           "Enumerated orders built in C, density decided by one label string"),
    Mutant("core.py", 'repeat("sequence"), sequences)', 'repeat("sequence"), map(list, sequences))',
           ("tests/test_extension.py", "-k", "TestEnumeratedOrdersMatchVerifiedOnes"),
           "batch-built orders store a list as `sequence`",
           "Enumerated orders built in C, density decided by one label string"),
    # The stray rule of `_masks`.
    Mutant("core.py", "InvalidToken(min(odd, key=repr),", "InvalidToken(odd[0],",
           ("tests/test_core.py", "-k", "Stray"), "the first non-string named, not the least by repr",
           "One front end for raw pairs"),
    Mutant("core.py", "if i == j and not loops:", "if i == j:",
           ("tests/test_core.py", "-k", "Stray"), "`_masks` ignores `loops`", "One front end for raw pairs"),
    # Seeded and plain picks in `linear_extension`.
    Mutant("policy.py", "p = swaps[-1] = i", "p = i",
           ("tests/test_policy.py", "-k", "test_seeded_is_first_of_reference_shuffle or test_calls_follow_the_reference"),
           "`_first` leaves its stop slot stale", "`TieBreaker.pick` deleted"),
    Mutant("policy.py", "draws(k - 1), range(k, 1, -1))]", "draws(k - 1), range(k - 1, 0, -1))]",
           ("tests/test_policy.py", "-k", "test_seeded_is_first_of_reference_shuffle or test_calls_follow_the_reference"),
           "`_first` shifts its moduli", "`TieBreaker.pick` deleted"),
    Mutant("extension.py", 'sorted(range(len(g)), key=g.__getitem__) if kind == "lexicographic" else range(len(g))',
           "range(len(g))",
           ("tests/test_policy.py", "-k", "test_pick_is_first_of_arrangement or test_plain_kinds"),
           "lexicographic order ranked as input order", "`TieBreaker.pick` deleted"),
    # `restrict` through `_masks`.
    Mutant("core.py", "for j in bits(poset.succ[i]) if j in new]", "for j in bits(poset.succ[i])]",
           ("tests/test_core.py", "-k", "TestRestrict"), "`restrict` hands `_masks` pairs with an end dropped",
           "`restrict` reads its kept pairs through `_masks`"),
    Mutant("core.py", "for j in bits(poset.succ[i]) if j in new]", "for j in bits(poset.pred[i]) if j in new]",
           ("tests/test_core.py", "-k", "TestRestrict"), "`restrict` reads the kept rows of `pred`",
           "`restrict` reads its kept pairs through `_masks`"),
    Mutant("core.py", "_reach(succ, range(len(sub)), rows)", "_reach(succ, range(len(sub)), [[]] * len(sub))",
           ("tests/test_core.py", "-k", "TestRestrict"), "`restrict`'s reach pass reads no rows",
           "`restrict` reads its kept pairs through `_masks`"),
    # Incomparable rows written one at a time, relation bodies split one line at a time.
    Mutant("core.py", "full & ~((2 << i) - 1)", "full & ~((1 << i) - 1)",
           ("tests/test_core.py", "-k", "incomparable"), "an incomparable row starts at its own element",
           "Incomparable pairs written a row at a time"),
    Mutant("cli.py", 'head + f"\\n{head}".join(row)', 'f"\\n{head}".join(row)',
           ("tests/test_cli.py", "-k", "TestIncomparable"), "a row's first pair written without its head",
           "Incomparable pairs written a row at a time"),
    Mutant("formats.py", "(left.strip(), right.strip()) for left", "(left.strip(), right) for left",
           ("tests/test_formats.py", "-k", "TestParseRelation or TestReadersMatchReference"),
           "a pair's right token kept unstripped", "Incomparable pairs written a row at a time"),
    # The enumeration walk's table of tails.
    Mutant("extension.py", "for m in bits(up) if not pred[m] & up", "for m in reversed(bits(up)) if not pred[m] & up",
           ("tests/test_extension.py", "-k", "TestWalkMatchesTheStepwiseWalk"),
           "a tail's first element taken in descending position", "Tails of at most four unplaced elements"),
    Mutant("extension.py", "for m in bits(up) if not pred[m] & up for rest", "for m in bits(up) for rest",
           ("tests/test_extension.py", "-k", "TestWalkMatchesTheStepwiseWalk"),
           "a tail may start at an element that is not minimal", "Tails of at most four unplaced elements"),
    Mutant("extension.py", "lru_cache(_TAILS_CAP)", "lru_cache(None)",
           ("tests/test_extension.py", "-k", "TestTheTableOfTailsIsBounded"),
           "the table of tails is unbounded", "Hand-kept caches and twice-kept state dropped"),
    # Library results assembled without a second verification (`TestVerifyOnce`).
    Mutant("core.py", "        return _closed_poset(nodes, succ, pred, _reach(succ, order, rows))\n",
           "        _reach(succ, order, rows)\n"
           "        return Poset(nodes, [(nodes[i], nodes[j]) for i, row in enumerate(succ) for j in bits(row)])\n",
           ("tests/test_core.py", "-k", "TestVerifyOnce"), "`_close` builds its poset through `Poset(...)`",
           "One search names a cycle inside `_close`"),
    Mutant("core.py", "    return _closed_poset(sub, succ, pred, _reach(succ, range(len(sub)), rows))\n",
           "    return Poset(sub, [(sub[i], sub[j]) for i, row in enumerate(succ) for j in bits(row)])\n",
           ("tests/test_core.py", "-k", "TestVerifyOnce"), "`restrict` builds its poset through `Poset(...)`",
           "Tails of at most four unplaced elements"),
    Mutant("extension.py", "    return _closed_poset(poset.ground, succ, pred, cover)\n",
           "    g = poset.ground\n    return Poset(g, [(g[i], g[j]) for i, row in enumerate(succ) for j in bits(row)])\n",
           ("tests/test_core.py", "-k", "TestVerifyOnce"), "`extend_with_pair` builds its poset through `Poset(...)`",
           "Tails of at most four unplaced elements"),
    Mutant("core.py", "        return Poset(ground, pairs)\n", "        return Poset(Poset(ground, pairs).ground, pairs)\n",
           ("tests/test_core.py", "-k", "TestVerifyOnce"), "`validate` without closing verifies twice",
           "Tails of at most four unplaced elements"),
    # State read off what is kept once: the stream's position off its seed, the count's placed
    # elements off the unassigned mask.
    Mutant("policy.py", "(self._made + 1) * _GOLDEN", "self._made * _GOLDEN",
           ("tests/test_policy.py", "-k", "reference"), "a block starts one draw early",
           "Hand-kept caches and twice-kept state dropped"),
    Mutant("extension.py", "comb(n - unassigned.bit_count(), len(members))", "comb(n, len(members))",
           ("tests/test_extension.py", "-k", "TestCount"), "a component interleaved with the whole ground",
           "Hand-kept caches and twice-kept state dropped"),
    # The walk's one stack of tokens, and incomparable pairs built in C.
    Mutant("extension.py", "i = index[tokens.pop()]", "i = index[tokens.pop()] + 1",
           ("tests/test_extension.py", "-k", "TestWalkMatchesTheStepwiseWalk"),
           "a backtrack resumes the scan one position late", "One stack for the enumeration walk"),
    Mutant("core.py", "zip(repeat(x), row) for x, row", "zip(row, repeat(x)) for x, row",
           ("tests/test_core.py", "-k", "incomparable"), "each incomparable pair listed in reverse",
           "One stack for the enumeration walk"),
    Mutant("extension.py", "            placed ^= 1 << i\n            i += 1\n", "            placed ^= 1 << i\n",
           ("tests/test_extension.py", "-k", "TestWalkMatchesTheStepwiseWalk"),
           "a backtrack resumes the scan at the position it popped", "One search names a cycle inside `_close`"),
    # `LinearOrder.contains` is strict.
    Mutant("core.py", "self.position(x) < self.position(y) for x, y in pairs",
           "self.position(x) <= self.position(y) for x, y in pairs",
           ("tests/test_core.py", "-k", "test_contains"), "an order contains a reflexive pair",
           "One rule names a cycle"),
    # The cycle search inside `_close`.
    Mutant("core.py", "        leaving.append(start)\n", "",
           ("tests/test_core.py", "-k", "TestCycleSearchWork"), "a searched start stays in the core",
           "One rule names a cycle"),
    Mutant("core.py", "core ^= 1 << i", "core |= 1 << i",
           ("tests/test_core.py", "-k", "TestCycleSearchWork"), "no node leaves the core", "One rule names a cycle"),
    Mutant("core.py", "or not pred[j] & core", "or pred[j] & core",
           ("tests/test_core.py", "-k", "TestLongCycles"), "a node with a predecessor in the core leaves it",
           "One rule names a cycle"),
    Mutant("core.py", "(succ[i] | pred[i])", "succ[i]",
           ("tests/test_core.py", "-k", "TestCycleSearchWork"),
           "only a leaving node's successors are tested for leaving", "One rule names a cycle"),
    Mutant("core.py", "if not succ[j] & core or not", "if not succ[j] & core and not",
           ("tests/test_core.py", "-k", "TestCycleSearchWork"),
           "a node leaves only with no successor and no predecessor in the core", "One rule names a cycle"),
    Mutant("core.py", "len(back) + 2 < len(best)", "len(back) + 2 <= len(best)",
           ("tests/test_core.py", "-k", "TestClosure and cycle"), "a later cycle of equal length wins",
           "One search names a cycle inside `_close`"),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its module of the checkout."""
    return (ROOT / "src" / "ordext" / mutant.module).read_text(encoding="utf-8").count(mutant.old)


def outcome(mutant: Mutant) -> str:
    """`killed` when the mutant's tests fail on a temporary copy of the tree with the mutant planted,
    `SURVIVED` when they pass, `timed out` when they run past `TIMEOUT`, and pytest's exit status for
    any other end, such as no test selected."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        target = root / "src" / "ordext" / mutant.module
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=replay",
                *mutant.tests]
        try:
            code = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT,
                                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))).returncode
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        found = occurrences(mutant)
        verdict = outcome(mutant) if found == 1 else f"old text found {found} times"
        bad += verdict != "killed"
        print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {mutant.module}: {mutant.fault}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
