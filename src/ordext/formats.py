"""Text formats for relations, sequences, partitions, and bijections.

All four formats share one lexical layer: UTF-8 text, blank lines and
lines starting with `#` ignored, `---` on a line of its own as the only
structural separator.  Parsers raise :class:`ParseError` (exit 2 at the
CLI) for malformed text; whether the parsed object makes sense is the
library's business and surfaces as a domain error (exit 1).  Every
reader checks its tokens as one batch and walks them in file order only
when the batch fails, so the error named is the first bad token or
malformed line, a line's structure before its tokens.

- relation: optional ground header, one element per line, then `---`,
  then one pair per line as `x < y`.  Without a separator every line is
  a pair.  Elements seen only in pairs join the ground in order of first
  appearance.
- sequence: one element per line.
- partition: blocks of one-element lines separated by `---` lines.
- bijection: one mapping per line as `y -> x`, whitespace-separated.
"""

from typing import TYPE_CHECKING

from .core import Pair, Poset, _valid_tokens, bits, check_token
from .errors import InvalidToken, ParseError

if TYPE_CHECKING:  # imported by the two readers that build them, so the others never load constructions
    from .constructions import Bijection, Partition


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _sections(text: str) -> tuple[list[list[tuple[int, str]]], list[int]]:
    """The meaningful lines cut at each `---` line, and those lines' numbers."""
    sections: list[list[tuple[int, str]]] = [[]]
    cuts: list[int] = []
    for lineno, line in _meaningful_lines(text):
        if line == "---":
            cuts.append(lineno)
            sections.append([])
        else:
            sections[-1].append((lineno, line))
    return sections, cuts


def _checked(token: str, path: str | None, lineno: int) -> str:
    """`token` checked; a bad one is a parse error at `lineno`."""
    try:
        return check_token(token)
    except InvalidToken as exc:
        raise ParseError(str(exc), path, lineno) from None


def _line_tokens(lines: list[tuple[int, str]], path: str | None) -> tuple[str, ...]:
    """The one token of each line, checked as one batch and walked line by line only if it fails."""
    tokens = tuple(line for _, line in lines)
    if not _valid_tokens(tokens):
        for lineno, line in lines:
            fields = line.split()
            if len(fields) != 1:
                raise ParseError("expected one element per line", path, lineno)
            _checked(fields[0], path, lineno)
    return tokens


def _check_two_per_line(tokens: list[str], lines: list[tuple[int, str]], path: str | None) -> None:
    """Check the first lines' tokens, two to a line, as one batch, walked only if it fails."""
    if not _valid_tokens(tuple(tokens)):
        for i, tok in enumerate(tokens):
            _checked(tok, path, lines[i // 2][0])


def parse_relation(
    text: str, path: str | None = None
) -> tuple[tuple[str, ...], list[Pair]]:
    """Read a relation file into (ground sequence, pair list).

    The ground keeps the header order; elements appearing only in pairs
    are appended in first-appearance order.  Duplicates and order-axiom
    problems are left for validation, which reports them as domain
    errors with witnesses.
    """
    sections, cuts = _sections(text)
    if len(cuts) > 1:
        raise ParseError("more than one '---' separator", path, cuts[1])
    header, body = sections if cuts else ([], sections[0])

    ground = _line_tokens(header, path)
    tokens: list[str] = []
    for lineno, line in body:
        left, angle, right = line.partition("<")
        if not angle or "<" in right:
            _check_two_per_line(tokens, body, path)  # a bad token on an earlier line comes first
            problem = "more than one '<' on the line" if angle else "expected a pair written as 'x < y'"
            raise ParseError(problem, path, lineno)
        tokens += (left.strip(), right.strip())
    _check_two_per_line(tokens, body, path)
    known = set(ground)
    ground += tuple(tok for tok in dict.fromkeys(tokens) if tok not in known)
    return ground, list(zip(tokens[::2], tokens[1::2]))


def parse_sequence(text: str, path: str | None = None) -> tuple[str, ...]:
    """Read a sequence file: one element per line, order preserved."""
    return _line_tokens(_meaningful_lines(text), path)


def parse_partition(text: str, path: str | None = None) -> "Partition":
    """Read a partition file: blocks of elements separated by `---` lines.

    A file with no content and no separator is the empty partition.
    Once a separator appears, every segment must be a nonempty block;
    the Partition type rejects empty ones.
    """
    from .constructions import Partition

    sections, cuts = _sections(text)
    blocks = tuple(_line_tokens(section, path) for section in sections)
    return Partition(blocks if cuts or blocks[0] else ())


def parse_bijection(text: str, path: str | None = None) -> "Bijection":
    """Read a bijection file: one mapping per line as `y -> x`."""
    from .constructions import Bijection

    lines = _meaningful_lines(text)
    tokens: list[str] = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            _check_two_per_line(tokens, lines, path)  # a bad token on an earlier line comes first
            raise ParseError("expected a mapping written as 'y -> x'", path, lineno)
        tokens += (fields[0], fields[2])
    _check_two_per_line(tokens, lines, path)
    return Bijection(tuple(zip(tokens[::2], tokens[1::2])))


def format_relation(poset: Poset) -> str:
    """Canonical relation text: full ground header, separator, sorted pairs.

    Pairs are ordered by ground position of both endpoints, so equal
    posets serialize to identical bytes.  Output re-parses to the same
    ground and relation.  Each nonempty row of the successor masks is
    written by one join, its lines' common head `x < ` as the separator.
    """
    g = poset.ground
    rows = []
    for x, mask in zip(g, poset.succ):
        if mask:
            head = f"\n{x} < "
            rows.append(head + head.join([g[j] for j in bits(mask)]))
    return "\n".join([*g, "---"]) + "".join(rows) + "\n"
