"""A seeded corpus of CLI and library cases, each pinned by the sha256 of its bytes.

    PYTHONPATH=src python3 tests/corpus.py
    PYTHONPATH=src python3 tests/corpus.py --check
    PYTHONPATH=src python3 tests/corpus.py --kept BASE.json

The first records the digest of every case in tests/corpus.json; the
second, like `test_corpus.py` but with the standard library alone, runs
each case again, names every case whose digest differs from the recorded
one and exits 1 if there is any.  The third compares two recordings: it
names every case of BASE.json (an older corpus.json) that corpus.json
drops or records with another digest, and exits 1 if there is any, so a
change may add cases but never rewrite one.  Re-record only for a
deliberate change in behaviour, and name that change in CHANGES.md.
Any other arguments print a usage line and exit 2, writing nothing.

A CLI case runs `ordext.cli.main` in-process from a temporary directory
that holds its files under relative names, and its bytes are the exit
code, stdout and stderr.  A library case calls one public function or
constructor, building the poset, partition, bijection, forced pair or
policy it takes from plain data first, and its bytes are the value (sets
sorted, records spelled out field by field, a poset by its ground and
sorted pairs) or the error's class, message and witness attributes.
Argparse help and usage text is left out: its bytes depend on the
terminal width and the Python version, so an argparse error keeps only
its last line, the error itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from ordext import (
    Bijection,
    ForcedPair,
    Partition,
    Poset,
    TieBreakPolicy,
    bipartition_order,
    count_linear_extensions,
    dense_interleave,
    enumerate_linear_extensions,
    extend_with_pair,
    linear_extension,
    parse_relation,
    partition_block_order,
    restrict,
    szpilrajn,
    transitive_closure,
    validate,
)
from ordext.cli import ENV_ENUM_LIMIT, main as cli_main

DIGESTS = Path(__file__).resolve().parent / "corpus.json"

SEED = 20161

# Tokens of the generated files: plain, punctuated and non-ASCII.
_NAMES = ["a", "b", "c", "n1", "n2", "x.y", "p-q", "_", "7", "é", "μν", "k:v", "A"]

# One kind of bad relation file each: (name, text).
_BAD_RELATIONS = [
    ("cyclic", "a < b\nb < c\nc < a\n"),
    ("self-loop", "a < b\nb < b\n"),
    ("missing-angle", "a < b\nb c\n"),
    ("two-angles", "a < b < c\n"),
    ("two-separators", "a\n---\na < b\n---\n"),
    ("empty-token", "a < b\nb <\n"),
    ("hash-token", "a < b\nb < #c\n"),
    ("separator-token", "a < b\n--- < a\n"),
    ("whitespace-token", "a < b\nb c < d\n"),
    ("nbsp-token", "a < b\nb\xa0c < d\n"),
    ("bad-header-token", "a\nb c\n---\na < b\n"),
    ("duplicate-header", "a\nb\na\n---\na < b\n"),
    ("not-closed", "a\nb\nc\n---\na < b\nb < c\n"),
    ("empty", ""),
    ("comments-only", "# nothing\n\n  # here\n"),
]

# Defects for the generated files, by where their error is found.
_BAD_TOKEN_LINES = ["x < #y", "x <", "< y", "--- < y", "x y < z", "x < y\tz", "#", "x\xa0y < z"]
_BAD_STRUCTURE_LINES = ["x y", "x < y < z", "x", "<<", "x << y"]


def _relation(rng: random.Random, names: list[str], header: bool) -> str:
    """Acyclic pairs over `names` in a hidden order, with comments, blanks and uneven spacing."""
    topo = rng.sample(names, len(names))
    pairs = [(x, y) for i, x in enumerate(topo) for y in topo[i + 1 :] if rng.random() < 0.4]
    rng.shuffle(pairs)
    lines = [rng.choice(["{} < {}", "{}<{}", "  {}   <  {} "]).format(x, y) for x, y in pairs]
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "   "]))
    if header:
        lines = rng.sample(names, len(names)) + ["---"] + lines
    return "\n".join(lines) + rng.choice(["\n", ""])


def _with_defects(rng: random.Random, text: str) -> str:
    """`text` with one or two bad lines put in its body: a bad token, a bad structure or both."""
    lines = text.splitlines()
    start = lines.index("---") + 1 if "---" in lines else 0
    pool = rng.choice([[_BAD_TOKEN_LINES], [_BAD_STRUCTURE_LINES], [_BAD_TOKEN_LINES, _BAD_STRUCTURE_LINES]])
    for kind in pool:
        lines.insert(rng.randrange(start, len(lines) + 1), rng.choice(kind))
    return "\n".join(lines) + "\n"


def _relation_files(rng: random.Random) -> dict[str, bytes]:
    files = {f"{name}.rel": text.encode() for name, text in _BAD_RELATIONS}
    files["non-utf8.rel"] = b"a < b\n\xff < c\n"
    files["closed.rel"] = b"a\nb\nc\nd\n---\na < b\na < c\nb < c\n"
    for i in range(6):
        names = rng.sample(_NAMES, rng.randrange(3, 7))
        files[f"good{i}.rel"] = _relation(rng, names, header=i % 2 == 0).encode()
    for i in range(8):
        names = rng.sample(_NAMES, rng.randrange(3, 7))
        files[f"defect{i}.rel"] = _with_defects(rng, _relation(rng, names, header=i % 2 == 0)).encode()
    return files


def _subset_files(rng: random.Random, tokens: list[str]) -> dict[str, bytes]:
    return {
        "subset.seq": "".join(tok + "\n" for tok in rng.sample(tokens, min(3, len(tokens)))).encode(),
        "unknown.seq": b"a\nzz\n",
        "bad.seq": b"a\nb c\n",
        "repeated.seq": b"a\na\n",
    }


def _cli_cases(rng: random.Random) -> dict[str, tuple]:
    """CLI cases: (argv, files, environment), by case name."""
    relations = _relation_files(rng)
    cases: dict[str, tuple] = {}
    for i, (rel, text) in enumerate(relations.items()):
        files = {rel: text}
        tokens = sorted(set(text.decode(errors="replace").replace("<", " ").split()) - {"---"})
        subsets = _subset_files(rng, tokens)
        pair = rng.sample(tokens, 2) if len(tokens) > 1 else ["a", "b"]
        tie = rng.choice(["input", "lex", f"seed:{rng.getrandbits(64)}"])
        subset = rng.choice(sorted(subsets))
        variants = {
            "validate": ["validate", rel],
            "validate-auto": ["validate", "--auto-close", rel],
            f"validate-auto-{subset}": ["validate", "--auto-close", rel, subset],
            "validate-strict-subset": ["validate", rel, "subset.seq"],
            "closure": ["closure", rel],
            "linearize": ["linearize", rel],
            "linearize-input": ["linearize", rel, "--tie-break", "input"],
            "linearize-lex": ["linearize", rel, "--tie-break", "lex"],
            "linearize-seed": ["linearize", rel, "--tie-break", f"seed:{rng.getrandbits(64)}"],
            "szpilrajn": ["szpilrajn", rel, "--tie-break", tie],
            "szpilrajn-force": ["szpilrajn", rel, "--force", *pair, "--tie-break", tie],
            "enumerate": ["enumerate", rel],
            "enumerate-limit": ["enumerate", rel, "--limit", str(rng.randrange(4))],
            "count": ["count", rel],
            "count-cap": ["count", rel, "--cap", str(rng.randrange(3, 7))],
            "incomparable": ["incomparable", rel],
            "incomparable-pair": ["incomparable", rel, *pair],
            "incomparable-one": ["incomparable", rel, pair[0]],
        }
        if not rel.startswith(("good", "closed")):  # most of a bad file's cases fail the same way
            variants = dict(rng.sample(sorted(variants.items()), 8))
        for j, (variant, argv) in enumerate(variants.items()):
            needed = {**files, **{name: subsets[name] for name in argv if name in subsets}}
            mode = ("human", "machine")[(i + j) % 2]  # across files, each variant runs in both modes
            cases[f"cli/{rel}/{variant}/{mode}"] = ([*argv, "--output", mode], needed, {})
    good = {"good0.rel": relations["good0.rel"]}
    for raw in ("0", "2", "x", "-1", ""):
        cases[f"cli/good0.rel/enumerate-env-{raw!r}"] = (["enumerate", "good0.rel"], good, {ENV_ENUM_LIMIT: raw})
    cases["cli/missing-file"] = (["linearize", "missing.rel"], {}, {})
    # Numbers past the interpreter's default cap of 4,300 digits on int/str conversion:
    # 1700! has 4,756 digits, and each option is given 5,000.
    wide = {"anti1700.rel": "".join(f"a{i}\n" for i in range(1700)).encode() + b"---\n"}
    cases["cli/anti1700.rel/count-cap-2000"] = (["count", "anti1700.rel", "--cap", "2000"], wide, {})
    # Seeded runs whose draws cross many refills of the draw buffer, and a walk over a
    # ground that lists tops first (two chains of four).
    seeded = "seed:16045690984833335023"
    cases["cli/anti1700.rel/linearize-seed"] = (["linearize", "anti1700.rel", "--tie-break", seeded], wide, {})
    cases["cli/anti1700.rel/szpilrajn-force-seed"] = (
        ["szpilrajn", "anti1700.rel", "--force", "a1699", "a3", "--tie-break", seeded], wide, {})
    ground = [f"g{i}" for i in range(3000)]
    a = set(ground[7::4])
    split = {"bip-ground.seq": ground, "bip-a.seq": ground[7::4], "bip-b.seq": [t for t in ground[-3::-5] if t not in a]}
    split = {name: "".join(f"{tok}\n" for tok in seq).encode() for name, seq in split.items()}
    cases["cli/bipartition-3000/seed"] = (["bipartition", *split, "--tie-break", seeded], split, {})
    tops = "".join(f"c{i}_{j}\n" for i in (1, 0) for j in (3, 2, 1, 0)) + "---\n"
    tops += "".join(f"c{i}_{j} < c{i}_{j + 1}\n" for i in (0, 1) for j in range(3))
    cases["cli/tops8.rel/enumerate-limit"] = (
        ["enumerate", "tops8.rel", "--limit", "50"], {"tops8.rel": tops.encode()}, {})
    huge = "9" * 5000
    cases["cli/good0.rel/enumerate-limit-5000-digits"] = (["enumerate", "good0.rel", "--limit", huge], good, {})
    cases["cli/good0.rel/count-cap-5000-digits"] = (["count", "good0.rel", "--cap", huge], good, {})
    cases["cli/good0.rel/enumerate-env-5000-digits"] = (["enumerate", "good0.rel"], good, {ENV_ENUM_LIMIT: huge})
    # A seed is read like every other number: 5,000 zeros then 7 is seed 7, and 5,000 nines are out of range.
    for name, seed in (("zero-padded-5001-digits", "0" * 5000 + "7"), ("5000-digits", huge)):
        argv = ["linearize", "good0.rel", "--tie-break", f"seed:{seed}"]
        cases[f"cli/good0.rel/linearize-seed-{name}"] = (argv, good, {})
    padded = "seed:" + "0" * 5000 + "7"
    anti = {"anti12.rel": "".join(f"a{i}\n" for i in range(12)).encode() + b"---\n"}
    cases["cli/anti12.rel/linearize-seed-zero-padded-5001-digits"] = (
        ["linearize", "anti12.rel", "--tie-break", padded], anti, {})
    cases["cli/anti12.rel/szpilrajn-force-seed-zero-padded-5001-digits"] = (
        ["szpilrajn", "anti12.rel", "--force", "a9", "a2", "--tie-break", padded], anti, {})
    cases["cli/bipartition-3000/seed-zero-padded-5001-digits"] = (
        ["bipartition", *split, "--tie-break", padded], split, {})
    tops8 = {"tops8.rel": tops.encode()}
    cases["cli/tops8.rel/enumerate-limit-5000-digits"] = (["enumerate", "tops8.rel", "--limit", huge], tops8, {})
    cases["cli/tops8.rel/count-cap-5000-digits"] = (["count", "tops8.rel", "--cap", huge], tops8, {})
    # Three segments of a 1,100-element ground whose draws cross several refills of the draw buffer.
    ground = [f"h{i}" for i in range(1100)]
    a = set(ground[2::3])
    split = {"bip-ground.seq": ground, "bip-a.seq": ground[2::3], "bip-b.seq": [t for t in ground[::-7] if t not in a]}
    split = {name: "".join(f"{tok}\n" for tok in seq).encode() for name, seq in split.items()}
    cases["cli/bipartition-1100/seed"] = (["bipartition", *split, "--tie-break", "seed:9"], split, {})
    # Walks whose last levels are one free maximal tail: three chains of three listing the tops
    # first (1,680 orders), a limit that stops inside the 8! orders of one tail, and the
    # smallest grounds.
    tops = "".join(f"c{i}_{j}\n" for i in (2, 1, 0) for j in (2, 1, 0)) + "---\n"
    tops += "".join(f"c{i}_{j} < c{i}_{j + 1}\n" for i in range(3) for j in range(2))
    cases["cli/tops9.rel/enumerate"] = (["enumerate", "tops9.rel"], {"tops9.rel": tops.encode()}, {})
    anti = {"anti8.rel": "".join(f"a{i}\n" for i in range(8)).encode() + b"---\n"}
    cases["cli/anti8.rel/enumerate-limit-5000/machine"] = (
        ["enumerate", "anti8.rel", "--limit", "5000", "--output", "machine"], anti, {})
    for name, data in (("one-element.rel", b"a\n---\n"), ("no-lines.rel", b"")):
        for mode in ("human", "machine"):
            cases[f"cli/{name}/enumerate/{mode}"] = (["enumerate", name, "--output", mode], {name: data}, {})
    return cases


# Defects put in a long relation body, by name: (the body line before which it goes, or None
# for the end; blank and comment lines count; the line).
_LONG_DEFECTS = {
    "structure-first": (0, "x y"),
    "token-second-block": (1030, "x < y z"),
    "separator-second-block": (1100, "---"),
    "structure-at-block-end": (1023, "x < y < z"),
    "token-last": (None, "x < #y"),
}


def _long_relation_cases(rng: random.Random) -> dict[str, tuple]:
    """CLI cases on relation files of 1,100-5,200 pair lines, longer than the blocks the reader
    splits a body into: a 5 x 60 grid where (k, a) < (l, b) when k < l and |a - b| <= 2(l - k),
    as its covers with and without a header and as the whole closed relation, and the covers
    with one defect each."""
    name = "v{}_{}".format
    grid = [(k, a) for k in range(5) for a in range(60)]
    ground = [name(*v) for v in rng.sample(grid, len(grid))]
    closed = [(name(k, a), name(l, b)) for k, a in grid for l, b in grid if k < l and abs(a - b) <= 2 * (l - k)]
    covers = [(name(k, a), name(k + 1, b)) for k, a in grid for b in range(60) if k < 4 and abs(a - b) <= 2]
    rng.shuffle(closed)
    rng.shuffle(covers)
    body = [rng.choice(["{} < {}", "{}<{}", "  {}   <  {} "]).format(x, y) for x, y in covers]
    for at in sorted(rng.sample(range(len(body)), 6), reverse=True):
        body.insert(at, rng.choice(["", "# note", "   "]))
    files = {
        "grid-covers.rel": "\n".join([*ground, "---", *body]) + "\n",
        "grid-closed.rel": "".join(f"{line}\n" for line in [*ground, "---", *map(" < ".join, closed)]),
        "grid-covers-no-header.rel": "\r\n".join(body) + "\r\n",
    }
    for name, (at, line) in _LONG_DEFECTS.items():
        spoiled = list(body)
        spoiled.insert(len(spoiled) if at is None else at, line)
        files[f"grid-{name}.rel"] = "\n".join([*ground, "---", *spoiled]) + "\n"
    cases: dict[str, tuple] = {}
    for rel, text in files.items():
        good = rel.startswith(("grid-covers", "grid-closed"))
        variants = {"validate": ["validate", rel], "closure": ["closure", rel]}
        if good:
            variants |= {"validate-auto": ["validate", "--auto-close", rel], "incomparable": ["incomparable", rel]}
        for j, (variant, argv) in enumerate(variants.items()):
            for mode in ("human", "machine") if good else [("human", "machine")[j % 2]]:  # a bad file fails alike in both
                cases[f"cli/{rel}/{variant}/{mode}"] = ([*argv, "--output", mode], {rel: text.encode()}, {})
    return cases


def _cycle_cases(rng: random.Random) -> dict[str, tuple]:
    """CLI cases that name one long cycle: a cycle through 1,001 nodes under a shuffled header, and a
    1,200-chain with one back edge, from its 900th node to its 100th, with no header.  Pairs are listed
    in shuffled order."""
    cycle = [f"c{k}" for k in rng.sample(range(10**6), 1001)]
    chain = [f"v{k}" for k in rng.sample(range(10**6), 1200)]
    files = {"cycle-1001.rel": ([(cycle[k - 1], cycle[k]) for k in range(1001)], [*rng.sample(cycle, 1001), "---"]),
             "chain-1200-back-edge.rel": ([*zip(chain, chain[1:]), (chain[900], chain[100])], [])}
    return _relation_cases(rng, files)


def _shape_cases(rng: random.Random) -> dict[str, tuple]:
    """CLI cases that name the shortest of several cycles, each file under a shuffled header: a cycle
    through 1,001 nodes with one chord and with 21, a hub on 30 cycles of 21-50 nodes through it, and
    two cycles a and b of 600 nodes joined by a_i < b_i, with and without a path of three nodes out of
    each b_i.  Each chord a < b skips at least one node, so it closes a shorter cycle."""
    names = iter(f"s{k}" for k in rng.sample(range(10**6), 7238))  # 2 * 1,001 + 1 + 1,035 + 2 * 1,200 + 1,800
    files = {}
    for chords in (1, 21):
        cycle = [next(names) for _ in range(1001)]
        body = [(cycle[k - 1], cycle[k]) for k in range(1001)]
        for a in (rng.randrange(1001) for _ in range(chords)):
            body.append((cycle[a], cycle[(a + rng.randint(2, 1000)) % 1001]))
        files[f"cycle-1001-{chords}-chords.rel"] = body
    hub, body = next(names), []
    for length in rng.sample(range(20, 50), 30):
        petal = [hub, *(next(names) for _ in range(length))]
        body += zip(petal, [*petal[1:], hub])
    files["hub-30-petals.rel"] = body
    for tails in (0, 3):
        a, b = [next(names) for _ in range(600)], [next(names) for _ in range(600)]
        body = [*zip(a, a[1:] + a[:1]), *zip(b, b[1:] + b[:1]), *zip(a, b)]
        for end in b:
            path = [end, *(next(names) for _ in range(tails))]
            body += zip(path, path[1:])
        files[f"joined-600-tails-{tails}.rel"] = body
    for rel, body in files.items():
        nodes = [*dict.fromkeys(tok for pair in body for tok in pair)]
        files[rel] = body, [*rng.sample(nodes, len(nodes)), "---"]
    return _relation_cases(rng, files)


def _relation_cases(rng: random.Random, files: dict[str, tuple]) -> dict[str, tuple]:
    """A `linearize`, a `validate --auto-close` and a `closure` case for each relation file, given by
    name as its pairs, listed in shuffled order, and its header lines."""
    cases: dict[str, tuple] = {}
    for rel, (body, header) in files.items():
        rng.shuffle(body)
        text = "".join(f"{line}\n" for line in [*header, *map(" < ".join, body)])
        for variant, argv in {"linearize": ["linearize", rel], "validate-auto": ["validate", "--auto-close", rel],
                              "closure": ["closure", rel]}.items():
            cases[f"cli/{rel}/{variant}/human"] = (argv, {rel: text.encode()}, {})
    return cases


# Lines a generated relation text is made of, good and malformed.
_LINES = [
    "a", "b", "c", " a ", "a b", "#x", "# note", "", "\t", "---", " --- ", "é",
    "a < b", "b<c", "c < a", "a < a", "a < #x", "#x < a", "a <", "< b", "<<", "a < ---",
    "a < b < c", "a b < c", "--- < a", "a\xa0b < c", "　c", "-", "a < é", "x < y",
]

# Tokens of the pairs handed to `transitive_closure`, valid and not.
_TOKENS = [
    "a", "b", "c", "d", "e", "é", "", " ", "a b", "x<y", "#c", "---", "-", "\xa0",
    7, None, 1.5, b"a", ("t",), [1],
]


def _library_cases(rng: random.Random) -> dict[str, tuple]:
    """Library cases: (function name, arguments), by case name."""
    cases: dict[str, tuple] = {}
    for i in range(150):
        text = "\n".join(rng.choice(_LINES) for _ in range(rng.randrange(8)))
        cases[f"lib/parse_relation/{i}"] = ("parse_relation", (text, rng.choice([None, "f.rel"])))
    for i in range(150):
        good = _TOKENS[:6]
        pool = good if i % 3 == 0 else _TOKENS
        pairs = [tuple(rng.choice(pool) for _ in range(2)) for _ in range(rng.randrange(7))]
        node_order = None if rng.random() < 0.5 else rng.choices(good, k=rng.randrange(7))
        cases[f"lib/transitive_closure/{i}"] = ("transitive_closure", (pairs, node_order))
    return cases


# Sequence files that fail to parse, or cannot be read, whatever slot they fill.
_BAD_SEQUENCES = {
    "dup.seq": b"a\nb\na\n",
    "two-per-line.seq": b"a\nb c\n",
    "angle.seq": b"a\nx<y\n",
    "separator.seq": b"a\n---\n",
    "nbsp.seq": "a\nb\xa0c\n".encode(),
    "empty.seq": b"",
    "non-utf8.seq": b"a\n\xff\n",
    "missing.seq": None,
}

_BAD_PARTITIONS = {
    "dup.part": b"a\na\n---\nb\n",
    "overlap.part": b"a\n---\nb\na\n",
    "empty-block.part": b"a\n---\n",
    "two-per-line.part": b"a b\n",
    "hash.part": b"a\n---\n b\n#c\n---\nd e\n",
    "separators-only.part": b"---\n",
    "empty.part": b"",
    "non-utf8.part": b"a\n---\n\xff\n",
    "missing.part": None,
}

_BAD_BIJECTIONS = {
    "two-images.bij": b"a -> x\na -> y\n",
    "two-preimages.bij": b"a -> x\nb -> x\n",
    "no-arrow.bij": b"a x\n",
    "reversed-arrow.bij": b"a <- x\n",
    "bad-token.bij": b"a -> x\nb -> x<y\n",
    "bad-then-malformed.bij": b"a -> #x\nb x\n",
    "empty.bij": b"",
    "non-utf8.bij": b"a -> \xff\n",
    "missing.bij": None,
}


def _lines(rng: random.Random, tokens: list[str]) -> bytes:
    """One token a line, with comments, blanks and uneven spacing put in."""
    lines = [rng.choice(["{}", " {}", "{}\t"]).format(tok) for tok in tokens]
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  "]))
    return ("\n".join(lines) + "\n").encode()


def _blocks(rng: random.Random, tokens: list[str]) -> bytes:
    cuts = sorted(rng.sample(range(1, len(tokens)), rng.randrange(len(tokens)))) if len(tokens) > 1 else []
    blocks = [tokens[i:j] for i, j in zip([0, *cuts], [*cuts, len(tokens)])]
    return b"---\n".join(_lines(rng, block) for block in blocks)


def _construction_instance(rng: random.Random, command: str) -> list[bytes]:
    """Good files for one run of `command`, in argument order; sometimes one of them
    breaks a domain rule (overlap, an unknown or missing element, a size mismatch)."""
    names = rng.sample(_NAMES, rng.randrange(4, 9))
    odd = rng.random() < 0.3
    if command == "bipartition":
        k = rng.randrange(1, len(names) - 1)
        a = rng.sample(names[:k], rng.randrange(1, k + 1))
        b = rng.sample(names[k:], rng.randrange(1, len(names) - k + 1))
        if odd:
            (a if rng.random() < 0.5 else b).append(rng.choice([*a, *b, "zz"]))
        return [_lines(rng, names), _lines(rng, a), _lines(rng, b)]
    if command == "blocks":
        placed = rng.sample(names, rng.randrange(1, len(names) + 1))
        if odd:
            placed.append(rng.choice(["zz", *placed]))
        return [_lines(rng, names), _blocks(rng, placed)]
    if command == "interleave":
        half = len(names) // 2
        ys, xs = names[:half], names[half:2 * half]
        pairs = list(zip(ys, rng.sample(xs, half)))
        rng.shuffle(pairs)
        if odd:
            rng.choice([pairs, ys, xs]).pop()
        phi = "".join(rng.choice(["{} -> {}\n", "  {}\t->  {}\n"]).format(*pair) for pair in pairs)
        return [_lines(rng, ys), _lines(rng, xs), phi.encode()]
    order = names[:]
    if odd:
        order.pop(rng.randrange(len(order)))
    t1 = rng.sample(names, rng.randrange(len(names) + 1))
    t2 = rng.sample(names, rng.randrange(len(names) + 1))
    return [_lines(rng, order), _lines(rng, t1), _lines(rng, t2)]


# Per construction command: the file kind of each positional slot.
_SLOTS = {
    "bipartition": ("seq", "seq", "seq"),
    "blocks": ("seq", "part"),
    "interleave": ("seq", "seq", "bij"),
    "dense-check": ("seq", "seq", "seq"),
}

_BAD_FILES = {"seq": _BAD_SEQUENCES, "part": _BAD_PARTITIONS, "bij": _BAD_BIJECTIONS}


def _construction_cases(rng: random.Random) -> dict[str, tuple]:
    """CLI cases of the four construction commands: good and domain-breaking
    instances under every tie-break kind and output mode, then each slot
    filled in turn with every file that fails to parse or cannot be read."""
    cases: dict[str, tuple] = {}
    for command, slots in _SLOTS.items():
        flag_sets = [[], ["--non-strict"]] if command == "dense-check" else [
            [], ["--tie-break", "input"], ["--tie-break", "lex"], ["--tie-break", f"seed:{rng.getrandbits(64)}"]]
        runs = [(i, flags) for i in range(3) for flags in flag_sets]
        for j, (i, flags) in enumerate(runs + [(3 + k, rng.choice(flag_sets)) for k in range(6)]):
            data = _construction_instance(rng, command)
            files = {f"{slot}{n}.{kind}": text for n, (slot, kind, text) in
                     enumerate(zip("fgh", slots, data))}
            mode = ("human", "machine")[(i + j) % 2]
            argv = [command, *files, *flags, "--output", mode]
            cases[f"cli/{command}/instance{j}/{mode}"] = (argv, files, {})
        good = dict(zip([f"{slot}{n}.{kind}" for n, (slot, kind) in enumerate(zip("fgh", slots))],
                        _construction_instance(rng, command)))
        for n, kind in enumerate(slots):
            for bad, text in _BAD_FILES[kind].items():
                names = list(good)
                names[n] = bad
                files = {name: good.get(name, text) for name in names if good.get(name, text) is not None}
                flags = [] if command == "dense-check" else ["--tie-break", rng.choice(["input", "lex", "seed:7"])]
                mode = rng.choice(["human", "machine"])
                cases[f"cli/{command}/slot{n}-{bad}/{mode}"] = ([command, *names, *flags, "--output", mode], files, {})
    return cases


# Tokens that fail `check_token`, non-strings among them, and one no ground holds.
_BAD_TOKENS = ["", "a b", "x<y", "#c", "---", "\xa0", 7, None, b"a", ("t",), [1]]
_UNKNOWN = "zz"


def _closed(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Acyclic `pairs` with every pair they imply, sorted."""
    closed = set(pairs)
    while grown := {(x, z) for x, y in closed for w, z in closed if y == w} - closed:
        closed |= grown
    return sorted(closed)


def _acyclic(rng: random.Random, names: list[str]) -> list[tuple[str, str]]:
    """Random pairs over `names` along a hidden order, unclosed."""
    topo = rng.sample(names, len(names))
    density = rng.random()
    return [(x, y) for i, x in enumerate(topo) for y in topo[i + 1 :] if rng.random() < density]


def _spoiled(rng: random.Random, tokens: list) -> list:
    """`tokens` as given, or with a repeated, a bad or an unknown token put in."""
    tokens = list(tokens)
    extra = rng.choice([[], [rng.choice(_BAD_TOKENS)], [_UNKNOWN], *([[rng.choice(tokens)]] if tokens else [])])
    at = rng.randrange(len(tokens) + 1)
    return tokens[:at] + extra + tokens[at:]


def _raw_relation(rng: random.Random) -> tuple[list, list]:
    """A ground and pairs over it, closed or not, with up to two defects: a bad, repeated or
    unknown token, a self-loop, a two- or three-element cycle, or a repeated pair."""
    names = rng.sample(_NAMES, rng.randrange(2, 7))
    pairs = _acyclic(rng, names)
    if rng.random() < 0.5:
        pairs = _closed(pairs)
    ground = names[:]
    for _ in range(rng.choice([0, 1, 1, 2])):
        defect = rng.randrange(6)
        x, y, z = rng.sample(names, 2) + [rng.choice(names)]
        if defect == 0:
            ground = _spoiled(rng, ground)
        elif defect == 1:
            pairs.append(rng.choice([(x, rng.choice(_BAD_TOKENS)), (rng.choice(_BAD_TOKENS), y), (x, _UNKNOWN)]))
        elif defect == 2:
            pairs.append((x, x))
        elif defect == 3:
            pairs += [(x, y), (y, x)] if z in (x, y) else [(x, y), (y, z), (z, x)]
        elif pairs:
            pairs.append(rng.choice(pairs))
    rng.shuffle(pairs)
    return ground, pairs


def _poset_spec(rng: random.Random, how: str | None = None) -> tuple:
    """A good poset as `_poset` builds it: auto-closed from raw pairs, verified from closed
    pairs, or auto-closed and then restricted to a subset of its ground."""
    names = rng.sample(_NAMES, rng.randrange(1, 8))
    pairs = _acyclic(rng, names)
    how = how or rng.choice(["validate", "Poset", "restrict"])
    if how == "Poset":
        pairs = _closed(pairs)
    rng.shuffle(pairs)
    subset = tuple(rng.sample(names, rng.randrange(len(names) + 1))) if how == "restrict" else None
    return how, tuple(names), pairs, subset


def _poset(how: str, ground: tuple, pairs: list, subset: tuple | None) -> Poset:
    if how == "Poset":
        return Poset(ground, pairs)
    poset = validate(ground, pairs, auto_close=True)
    return poset if subset is None else restrict(poset, subset)


def _policy(spec: str | None) -> TieBreakPolicy | None:
    return None if spec is None else TieBreakPolicy.parse(spec)


def _library_call_cases(rng: random.Random) -> dict[str, tuple]:
    """Library cases of the public calls beyond the two readers: raw relations into `Poset`
    and `validate`, good posets through restriction, extension, linearization, enumeration
    and counting, and bad inputs into the constructions and their record types."""
    cases: dict[str, tuple] = {}
    for i in range(60):
        ground, pairs = _raw_relation(rng)
        cases[f"lib/Poset/{i}"] = ("Poset", (ground, pairs))
        cases[f"lib/validate/{i}"] = ("validate", (ground, pairs, False))
        cases[f"lib/validate-auto/{i}"] = ("validate", (ground, pairs, True))
    for i in range(30):
        spec = _poset_spec(rng, rng.choice(["validate", "Poset"]))
        subset = _spoiled(rng, rng.sample(spec[1], rng.randrange(len(spec[1]) + 1)))
        cases[f"lib/restrict/{i}"] = ("restrict", (spec, tuple(subset)))
    for i in range(40):
        spec = _poset_spec(rng, rng.choice(["validate", "Poset"]))
        names, closed = spec[1], set(_closed(spec[2]))
        x, y = rng.choice(names), rng.choice(names)
        free = [(a, b) for a in names for b in names if a != b and (a, b) not in closed and (b, a) not in closed]
        pair = rng.choice([
            (x, y), (x, x), (x, _UNKNOWN), (_UNKNOWN, y), (x, rng.choice(_BAD_TOKENS)),
            *([rng.choice(sorted(closed))] if closed else []), *([rng.choice(free)] * 3 if free else []),
        ])
        cases[f"lib/extend_with_pair/{i}"] = ("extend_with_pair", (spec, *pair))
    for i in range(24):
        spec = _poset_spec(rng)
        names = list(spec[3] if spec[0] == "restrict" else spec[1])
        policies = [None, "input", "lex", f"seed:{rng.getrandbits(64)}", f"seed:{rng.getrandbits(64)}"]
        for policy in policies:
            forced = rng.choice([None, tuple(rng.sample(names, 2)) if len(names) > 1 else None])
            cases[f"lib/linear_extension/{i}/{policy}"] = ("linear_extension", (spec, policy))
            cases[f"lib/szpilrajn/{i}/{policy}"] = ("szpilrajn", (spec, forced, policy))
        cases[f"lib/enumerate_linear_extensions/{i}"] = ("enumerate_linear_extensions", (spec, rng.randrange(6)))
        cases[f"lib/count_linear_extensions/{i}"] = ("count_linear_extensions", (spec, rng.choice([None, 3, 6])))
    policies = [None, "input", "lex", "seed:5", "seed:18446744073709551615"]
    for i in range(25):
        names = rng.sample(_NAMES, rng.randrange(3, 9))
        k = rng.randrange(1, len(names))
        a = rng.sample(names[:k], rng.randrange(k + 1))
        parts = [names, a, rng.sample(names[k:], rng.randrange(len(names) - k + 1))]
        if parts[2] and rng.random() < 0.3:  # overlap
            parts[1].append(rng.choice(parts[2]))
        n = rng.randrange(3)
        parts[n] = _spoiled(rng, parts[n])
        cases[f"lib/bipartition_order/{i}"] = ("bipartition_order", (*map(tuple, parts), rng.choice(policies)))
    for i in range(25):
        names = rng.sample(_NAMES, rng.randrange(2, 9))
        placed = rng.sample(names, rng.randrange(len(names) + 1))
        cuts = sorted(rng.sample(range(1, len(placed)), rng.randrange(len(placed)))) if len(placed) > 1 else []
        blocks = [placed[a:b] for a, b in zip([0, *cuts], [*cuts, len(placed)])] if placed else []
        defect = rng.randrange(5)
        if defect == 0:
            blocks.insert(rng.randrange(len(blocks) + 1), [])
        elif defect == 1 and len(blocks) > 1:  # overlap
            a, b = rng.sample(range(len(blocks)), 2)
            blocks[a].append(rng.choice(blocks[b]))
        elif defect == 2 and blocks:
            n = rng.randrange(len(blocks))
            blocks[n] = _spoiled(rng, blocks[n])
        elif defect < 4:
            names = _spoiled(rng, names)
        blocks = tuple(map(tuple, blocks))
        policy = rng.choice(policies)
        cases[f"lib/partition_block_order/{i}"] = ("partition_block_order", (tuple(names), blocks, policy))
        cases[f"lib/Partition/{i}"] = ("Partition", (blocks,))
    for i in range(25):
        names = rng.sample(_NAMES, 2 * rng.randrange(1, 5))
        ys, xs = names[: len(names) // 2], names[len(names) // 2 :]
        phi = list(zip(ys, rng.sample(xs, len(xs))))
        defect = rng.randrange(6)
        if defect == 0:
            rng.choice([ys, xs, phi]).pop()
        elif defect == 1:  # two images or two preimages
            phi.append((rng.choice(ys), rng.choice(xs)))
        elif defect == 2:  # overlap
            ys.append(rng.choice(xs))
        elif defect == 3:
            phi.append((rng.choice(ys), rng.choice(_BAD_TOKENS)))
        elif defect == 4:
            k = rng.randrange(len(phi))
            phi[k] = (_UNKNOWN, phi[k][1]) if rng.random() < 0.5 else (phi[k][0], _UNKNOWN)
        rng.shuffle(phi)
        phi = tuple(phi)
        cases[f"lib/dense_interleave/{i}"] = ("dense_interleave", (tuple(ys), tuple(xs), phi, rng.choice(policies)))
        cases[f"lib/Bijection/{i}"] = ("Bijection", (phi,))
    # `TieBreakPolicy.parse` reads a seed of 5,001 digits as the CLI does: 5,000 zeros then 7 is seed 7.
    spec = ("validate", tuple(f"a{i}" for i in range(12)), [("a3", "a8"), ("a8", "a1")], None)
    cases["lib/linear_extension/seed-zero-padded-5001-digits"] = ("linear_extension", (spec, "seed:" + "0" * 5000 + "7"))
    return cases


def cases() -> dict[str, tuple]:
    """Every case by name, built from SEED alone."""
    rng = random.Random(SEED)
    return {**_cli_cases(rng), **_library_cases(rng), **_construction_cases(rng),
            **_library_call_cases(random.Random(SEED + 1)), **_long_relation_cases(random.Random(SEED + 2)),
            **_cycle_cases(random.Random(SEED + 3)), **_shape_cases(random.Random(SEED + 4))}


# Each library case's function, by name; the ones taking a poset, a partition, a
# bijection, a forced pair or a policy build it from the case's plain data.
_CALLS = {
    "parse_relation": parse_relation,
    "transitive_closure": transitive_closure,
    "Poset": Poset,
    "validate": validate,
    "restrict": lambda spec, subset: restrict(_poset(*spec), subset),
    "extend_with_pair": lambda spec, a, b: extend_with_pair(_poset(*spec), ForcedPair(a, b)),
    "linear_extension": lambda spec, policy: linear_extension(_poset(*spec), _policy(policy)),
    "szpilrajn": lambda spec, forced, policy: szpilrajn(
        _poset(*spec), forced and ForcedPair(*forced), _policy(policy)),
    "enumerate_linear_extensions": lambda spec, limit: enumerate_linear_extensions(_poset(*spec), limit),
    "count_linear_extensions": lambda spec, cap: count_linear_extensions(_poset(*spec), cap),
    "bipartition_order": lambda ground, a, b, policy: bipartition_order(ground, a, b, _policy(policy)),
    "partition_block_order": lambda ground, blocks, policy: partition_block_order(
        ground, Partition(blocks), _policy(policy)),
    "dense_interleave": lambda ys, xs, phi, policy: dense_interleave(ys, xs, Bijection(phi), _policy(policy)),
    "Partition": Partition,
    "Bijection": Bijection,
}


def _shown(value: object) -> object:
    """`value` with every set sorted and every record spelled out by its fields (a poset by
    its ground and sorted pairs), so its repr is the same under any hash seed."""
    if isinstance(value, (set, frozenset)):
        return sorted(map(_shown, value))
    if isinstance(value, (tuple, list)):
        return type(value)(map(_shown, value))
    if isinstance(value, Poset):
        return "Poset", value.ground, value.sorted_pairs()
    if hasattr(value, "_fields"):
        return (type(value).__name__, *[_shown(getattr(value, name)) for name in value._fields])
    return value


def _library(name: str, args: tuple) -> bytes:
    try:
        value = _CALLS[name](*args)
    except Exception as exc:
        witness = sorted(vars(exc).items())
        return f"{type(exc).__name__}: {exc}\n{witness!r}\n".encode()
    return f"{_shown(value)!r}\n".encode()


def _cli(argv: list[str], files: dict[str, bytes], env: dict[str, str], root: Path) -> bytes:
    for name, data in files.items():
        (root / name).write_bytes(data)
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    errors = err.getvalue()
    if errors.startswith("usage:"):  # an argparse error: keep its last line, not the wrapped usage
        errors = errors.splitlines(keepends=True)[-1]
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{errors}".encode()


def outputs(selected: dict[str, tuple]) -> dict[str, bytes]:
    """The bytes of each selected case, CLI cases run from one temporary directory."""
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, case in selected.items():
                if name.startswith("cli/"):
                    result[name] = _cli(*case, Path(tmp))
                else:
                    result[name] = _library(*case)
        finally:
            os.chdir(cwd)
    return result


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record() -> int:
    table = {name: digest(data) for name, data in outputs(cases()).items()}
    DIGESTS.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases in {DIGESTS.name}", file=sys.stderr)
    return 0


def check() -> int:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    table = {name: digest(data) for name, data in outputs(cases()).items()}
    wrong = sorted(name for name in recorded.keys() | table.keys() if recorded.get(name) != table.get(name))
    for name in wrong:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(wrong)} of {len(table)} cases differ from {DIGESTS.name}", file=sys.stderr)
    return 1 if wrong else 0


def kept(base: Path) -> int:
    """1 when corpus.json drops a case of the recording `base` or gives it another digest, else 0."""
    old = json.loads(base.read_text(encoding="utf-8"))
    now = json.loads(DIGESTS.read_text(encoding="utf-8"))
    lost = sorted(name for name in old if now.get(name) != old[name])
    for name in lost:
        print(f"{'changed' if name in now else 'dropped'}: {name}", file=sys.stderr)
    print(f"{len(lost)} of {len(old)} cases of {base} changed or dropped in {DIGESTS.name}", file=sys.stderr)
    return 1 if lost else 0


def main(argv: list[str]) -> int:
    """The exit status of the run that `argv`, the arguments after the script's name, asks for."""
    if not argv:
        return record()
    if argv == ["--check"]:
        return check()
    if argv[:1] == ["--kept"] and len(argv) == 2:
        return kept(Path(argv[1]))
    print("usage: corpus.py [--check | --kept BASE.json]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
