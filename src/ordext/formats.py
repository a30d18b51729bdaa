"""Text formats for relations, sequences, partitions, and bijections.

All four formats share one lexical layer: UTF-8 text, blank lines and
lines starting with `#` ignored, `---` on a line of its own as the only
structural separator.  Parsers raise :class:`ParseError` (exit 2 at the
CLI) for malformed text; whether the parsed object makes sense is the
library's business and surfaces as a domain error (exit 1).  A file is
read as a batch: lines stripped and filtered, a relation body split at
`<` a line at a time, all tokens checked by one `_valid_tokens` call,
which a malformed pair line fails too; only a failed check walks the
numbered lines, to name the first bad token or malformed line, a line's
structure before its tokens.

- relation: optional ground header, one element per line, then `---`,
  then one pair per line as `x < y`.  Without a separator every line is
  a pair.  Elements seen only in pairs join the ground in order of first
  appearance.
- sequence: one element per line.
- partition: blocks of one-element lines separated by `---` lines.
- bijection: one mapping per line as `y -> x`, whitespace-separated.
"""

from itertools import chain, compress, count, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .core import Pair, Poset, _valid_tokens, bits, check_token
from .errors import InvalidToken, ParseError

if TYPE_CHECKING:  # imported by the two readers that build them, so the others never load constructions
    from .constructions import Bijection, Partition


def _lines(text: str) -> list[str]:
    """The meaningful lines, stripped: blank lines and `#` lines dropped."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _one_token(line: str) -> list[str]:
    fields = line.split()
    if len(fields) != 1:
        raise ValueError("expected one element per line")
    return fields


def _pair(line: str) -> tuple[str, str]:
    left, angle, right = line.partition("<")
    if not angle or "<" in right:
        raise ValueError("more than one '<' on the line" if angle else "expected a pair written as 'x < y'")
    return left.strip(), right.strip()


def _mapping(line: str) -> tuple[str, str]:
    fields = line.split()
    if len(fields) != 3 or fields[1] != "->":
        raise ValueError("expected a mapping written as 'y -> x'")
    return fields[0], fields[2]


def _numbered(text: str) -> list[tuple[int, str]]:
    """`_lines(text)` with their line numbers, read only to name where a batch check failed."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), 1) for line in _lines(raw)]


def _walk(lines: list[tuple[int, str]], path: str | None, split: Callable[[str], Iterable[str]]) -> None:
    """Raise at the first of `lines` that `split` rejects or that holds a bad token, a line's
    structure before its tokens: the error path of a reader whose batch check failed."""
    for lineno, line in lines:
        try:
            for token in split(line):
                check_token(token)
        except (ValueError, InvalidToken) as exc:
            raise ParseError(str(exc), path, lineno) from None


def parse_relation(text: str, path: str | None = None) -> tuple[tuple[str, ...], list[Pair]]:
    """Read a relation file into (ground sequence, pair list).

    The ground keeps the header order; elements appearing only in pairs
    are appended in first-appearance order.  Duplicates and order-axiom
    problems are left for validation, which reports them as domain
    errors with witnesses.
    """
    lines = _lines(text)
    cut = lines.index("---") if "---" in lines else -1  # -1: no header, every line a pair
    ground, body = tuple(lines[: max(cut, 0)]), lines[cut + 1 :]
    # Split a line at a time, so a line's halves are dropped once stripped.
    pairs = [(left.strip(), right.strip()) for left, _, right in map(str.partition, body, repeat("<"))]
    tokens = (*ground, *chain.from_iterable(pairs))
    # A malformed line fails the token check too: a line with no `<` (a second `---` among
    # them) leaves an empty right token, a line with a second `<` a `<` in its right token.
    if not _valid_tokens(tokens):
        # The error path: a second `---`, then a bad header line, then the body line by line.
        numbered = _numbered(text)  # one entry per item of `lines`, so `cut` splits both alike
        if "---" in body:
            raise ParseError("more than one '---' separator", path, numbered[cut + 1 + body.index("---")][0])
        if not _valid_tokens(ground):  # also keeps a file with no header (cut -1) from walking numbered[:-1]
            _walk(numbered[:cut], path, _one_token)
        _walk(numbered[cut + 1 :], path, _pair)
    return ground + tuple(dict.fromkeys(tokens))[len(set(ground)) :], pairs


def parse_sequence(text: str, path: str | None = None) -> tuple[str, ...]:
    """Read a sequence file: one element per line, order preserved."""
    tokens = tuple(_lines(text))
    if not _valid_tokens(tokens):
        _walk(_numbered(text), path, _one_token)
    return tokens


def parse_partition(text: str, path: str | None = None) -> "Partition":
    """Read a partition file: blocks of elements separated by `---` lines.

    A file with no content and no separator is the empty partition.
    Once a separator appears, every segment must be a nonempty block;
    the Partition type rejects empty ones.
    """
    from .constructions import Partition

    lines = _lines(text)
    cuts = list(compress(count(), map("---".__eq__, lines)))
    blocks = tuple(tuple(lines[start + 1 : cut]) for start, cut in zip([-1, *cuts], [*cuts, len(lines)]))
    if not _valid_tokens(tuple(chain.from_iterable(blocks))):
        _walk([(n, line) for n, line in _numbered(text) if line != "---"], path, _one_token)
    return Partition(blocks if len(blocks) > 1 or blocks[0] else ())


def parse_bijection(text: str, path: str | None = None) -> "Bijection":
    """Read a bijection file: one mapping per line as `y -> x`."""
    from .constructions import Bijection

    rows = list(map(str.split, _lines(text)))
    ys, arrows, xs = tuple(zip(*rows)) if set(map(len, rows)) == {3} else ((), (), ())
    if len(ys) != len(rows) or set(arrows) - {"->"} or not _valid_tokens(ys + xs):
        _walk(_numbered(text), path, _mapping)
    return Bijection(tuple(zip(ys, xs)))


def _relation_text(poset: Poset) -> Iterator[str]:
    """`format_relation(poset)` in pieces: the header, each nonempty row of the successor masks
    (one join, its lines' common head `x < ` as the separator), and the final line break."""
    g = poset.ground
    yield "\n".join([*g, "---"])
    for x, mask in zip(g, poset.succ):
        if mask:
            head = f"\n{x} < "
            yield head + head.join([g[j] for j in bits(mask)])
    yield "\n"


def format_relation(poset: Poset) -> str:
    """Canonical relation text: full ground header, separator, sorted pairs.

    Pairs are ordered by ground position of both endpoints, so equal
    posets serialize to identical bytes.  Output re-parses to the same
    ground and relation.
    """
    return "".join(_relation_text(poset))
