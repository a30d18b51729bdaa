"""A seeded corpus of CLI and library cases, each pinned by the sha256 of its bytes.

    PYTHONPATH=src python3 tests/corpus.py
    PYTHONPATH=src python3 tests/corpus.py --check

The first records the digest of every case in tests/corpus.json; the
second, like `test_corpus.py` but with the standard library alone, runs
each case again, names every case whose digest differs from the recorded
one and exits 1 if there is any.  Re-record only for a deliberate change
in behaviour, and name that change in CHANGES.md.

A CLI case runs `ordext.cli.main` in-process from a temporary directory
that holds its files under relative names, and its bytes are the exit
code, stdout and stderr.  A library case calls `parse_relation` or
`transitive_closure`, and its bytes are the value, or the error's class,
message and witness attributes.  Argparse help and usage text is left
out: its bytes depend on the terminal width and the Python version.
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

from ordext import parse_relation, transitive_closure
from ordext.cli import ENV_ENUM_LIMIT, main

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


def cases() -> dict[str, tuple]:
    """Every case by name, built from SEED alone."""
    rng = random.Random(SEED)
    return {**_cli_cases(rng), **_library_cases(rng), **_construction_cases(rng)}


def _library(name: str, args: tuple) -> bytes:
    try:
        value = {"parse_relation": parse_relation, "transitive_closure": transitive_closure}[name](*args)
    except Exception as exc:
        witness = sorted(vars(exc).items())
        return f"{type(exc).__name__}: {exc}\n{witness!r}\n".encode()
    if isinstance(value, frozenset):
        value = sorted(value)
    return f"{value!r}\n".encode()


def _cli(argv: list[str], files: dict[str, bytes], env: dict[str, str], root: Path) -> bytes:
    for name, data in files.items():
        (root / name).write_bytes(data)
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


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


if __name__ == "__main__":
    sys.exit(check() if sys.argv[1:] == ["--check"] else record())
