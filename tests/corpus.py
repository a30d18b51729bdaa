"""A seeded corpus of CLI and library cases, each pinned by the sha256 of its bytes.

    PYTHONPATH=src python3 tests/corpus.py

records the digest of every case in tests/corpus.json; `test_corpus.py`
runs each case again and compares.  Re-record only for a deliberate change
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


def cases() -> dict[str, tuple]:
    """Every case by name, built from SEED alone."""
    rng = random.Random(SEED)
    return {**_cli_cases(rng), **_library_cases(rng)}


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


if __name__ == "__main__":
    sys.exit(record())
