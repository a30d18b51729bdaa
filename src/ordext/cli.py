"""Command-line front end.

One subcommand per task; every subcommand takes `--output`, and every
other flag belongs to the subcommand that uses it.  Exit status 0 on
success, 1 for domain errors (cycles, comparable forced pairs,
non-disjoint subsets, broken bijections), 2 for malformed or unreadable
files, bad usage, output that cannot be written (`error: cannot write
output: ...`, say on a full disk) and running out of memory (`error: out
of memory`).  A reader that closes the pipe early ends the run quietly
with status 1; one path in `main` ends every failed write, also to a
stdout closed before the run.  A stderr that is closed or refuses writes
drops the messages, not the status.  Numbers,
read or written, have no digit limit, `--tie-break seed:` included, and
are read without touching interpreter state (`errors._integer`).
Output is a pure function of the inputs: identical files, flags, and
seeds produce byte-identical bytes on every run.

A run builds the parser of its command alone, and imports the modules
that command uses; `--help`, usage errors and an unknown command build
the parser of every command.  Each handler returns its stdout as an
iterable of strings (a generator for enumerated orders, incomparable
pairs and relation text, so they are written as they are made, and a
poset's masks, 2n² bits, are the only memory quadratic in its n
elements); `main` alone writes it, flushes it and returns 0.  One
handler serves `linearize` and `szpilrajn`: a linear extension is a
Szpilrajn extension with no forced pair.

The `validate` command checks a relation file exactly as given (opt-in
closure via --auto-close).  The operating commands (linearize,
szpilrajn, enumerate, count, incomparable) treat the file as a generator
of a poset and always close it first; raw dependency files are rarely
closed by hand.
"""

import argparse
import errno
import os
import sys
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Iterable

from .core import (
    DEFAULT_COUNT_CAP,
    DEFAULT_ENUM_LIMIT,
    Poset,
    _closure,
    check_ground,
    incomparable_pairs,
    is_comparable,
    order_from_enumeration,
    restrict,
    validate,
)
from .errors import OrderError, ParseError, _decimal, _integer
from .formats import (
    _relation_text,
    parse_bijection,
    parse_partition,
    parse_relation,
    parse_sequence,
)

if TYPE_CHECKING:  # `_policy_arg` imports it when a tie-break is given, as handlers import `extension`
    from .policy import TieBreakPolicy

ENV_ENUM_LIMIT = "ORDEXT_ENUM_LIMIT"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_poset(path: str, auto_close: bool = True) -> Poset:
    ground, pairs = parse_relation(_read(path), path)
    return validate(ground, pairs, auto_close=auto_close)


def _policy_arg(text: str) -> "TieBreakPolicy":
    from .policy import TieBreakPolicy

    try:
        return TieBreakPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_arg(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _emit(sequence: tuple[str, ...], mode: str) -> str:
    if mode == "machine":
        return "\t".join(sequence) + "\n"
    return "\n".join(sequence) + "\n" if sequence else ""


def cmd_validate(args: argparse.Namespace) -> Iterable[str]:
    poset = _load_poset(args.relation, args.auto_close)
    if args.subset is not None:
        subset = parse_sequence(_read(args.subset), args.subset)
        poset = restrict(poset, subset)
    return _relation_text(poset)


def cmd_closure(args: argparse.Namespace) -> Iterable[str]:
    ground, pairs = parse_relation(_read(args.relation), args.relation)
    closed = _closure(pairs, ground)
    check_ground(ground)  # after closing, so a cycle is reported before a repeated header element
    return _relation_text(closed)


def cmd_szpilrajn(args: argparse.Namespace) -> Iterable[str]:
    from .extension import ForcedPair, szpilrajn

    poset = _load_poset(args.relation)
    force = vars(args).get("force")  # None for linearize, which has no --force
    forced = ForcedPair(*force) if force else None
    return [_emit(szpilrajn(poset, forced, args.tie_break).output_order.sequence, args.output)]


def cmd_enumerate(args: argparse.Namespace) -> Iterable[str]:
    from .extension import _extensions

    poset = _load_poset(args.relation)
    limit = args.limit
    if limit is None:
        raw = os.environ.get(ENV_ENUM_LIMIT, str(DEFAULT_ENUM_LIMIT))
        try:
            limit = _integer(raw)
        except ValueError:
            raise ParseError(f"{ENV_ENUM_LIMIT} is not an integer: {raw!r}") from None
        if limit < 0:
            raise ParseError(f"{ENV_ENUM_LIMIT} must be nonnegative: {raw}")
    # The same walk as enumerate_linear_extensions, handed out as it goes.
    walk = _extensions(poset)
    texts = map(_emit, islice(walk, min(limit, sys.maxsize)), repeat(args.output))
    if args.output == "human":  # a blank line opens every order but the first
        texts = chain(islice(texts, 1), map("\n".__add__, texts))
    yield from texts
    if next(walk, None) is not None:
        _stderr(f"note: enumeration truncated at limit {limit}\n")


def cmd_count(args: argparse.Namespace) -> Iterable[str]:
    from .extension import count_linear_extensions

    poset = _load_poset(args.relation)
    return [_decimal(count_linear_extensions(poset, args.cap)) + "\n"]


def cmd_incomparable(args: argparse.Namespace) -> Iterable[str]:
    poset = _load_poset(args.relation)
    if args.pair:
        if len(args.pair) != 2:
            raise ParseError("expected exactly two elements after the file")
        return ["false\n" if is_comparable(poset, *args.pair) else "true\n"]
    separator = "\t" if args.output == "machine" else " "
    return (f"{x}{separator}{y}\n" for x, y in incomparable_pairs(poset))


def cmd_bipartition(args: argparse.Namespace) -> Iterable[str]:
    from .constructions import bipartition_order

    ground = parse_sequence(_read(args.ground), args.ground)
    first = parse_sequence(_read(args.a), args.a)
    second = parse_sequence(_read(args.b), args.b)
    return [_emit(bipartition_order(ground, first, second, args.tie_break).sequence, args.output)]


def cmd_blocks(args: argparse.Namespace) -> Iterable[str]:
    from .constructions import partition_block_order

    ground = parse_sequence(_read(args.ground), args.ground)
    partition = parse_partition(_read(args.partition), args.partition)
    return [_emit(partition_block_order(ground, partition, args.tie_break).sequence, args.output)]


def cmd_interleave(args: argparse.Namespace) -> Iterable[str]:
    from .constructions import dense_interleave

    ys = parse_sequence(_read(args.y), args.y)
    xs = parse_sequence(_read(args.x), args.x)
    phi = parse_bijection(_read(args.phi), args.phi)
    return [_emit(dense_interleave(ys, xs, phi, args.tie_break).sequence, args.output)]


def cmd_dense_check(args: argparse.Namespace) -> Iterable[str]:
    from .constructions import is_dense

    order = order_from_enumeration(parse_sequence(_read(args.order), args.order))
    t1 = parse_sequence(_read(args.t1), args.t1)
    t2 = parse_sequence(_read(args.t2), args.t2)
    return ["true\n" if is_dense(t1, t2, order, strict=not args.non_strict) else "false\n"]


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_RELATION = _arg("relation", help="relation file")

_TIE_BREAK = _arg(
    "--tie-break",
    type=_policy_arg,
    default=None,
    metavar="input|lex|seed:<u64>",
    help="how free choices are resolved (default: input order)",
)

# Each command's handler, help text and arguments besides --output, in help order.
COMMANDS = {
    "validate": (cmd_validate, "check a relation file against the order axioms", [
        _RELATION,
        _arg("subset", nargs="?", default=None, help="optional sequence file; restrict to it"),
        _arg("--auto-close", action="store_true", help="close the relation instead of requiring closedness"),
    ]),
    "closure": (cmd_closure, "print the transitive closure of a relation file", [_RELATION]),
    "linearize": (cmd_szpilrajn, "print one linear extension", [_RELATION, _TIE_BREAK]),
    "szpilrajn": (cmd_szpilrajn, "linear extension, optionally through a forced pair", [
        _RELATION,
        _arg("--force", nargs=2, metavar=("A", "B"), help="require A before B; they must be incomparable"),
        _TIE_BREAK,
    ]),
    "enumerate": (cmd_enumerate, "list all linear extensions up to a limit", [
        _RELATION,
        _arg("--limit", type=_nonnegative_arg, default=None,
             help=f"maximum number of orders (default {DEFAULT_ENUM_LIMIT}, env {ENV_ENUM_LIMIT})"),
    ]),
    "count": (cmd_count, "count all linear extensions exactly", [
        _RELATION,
        _arg("--cap", type=_nonnegative_arg, default=None,
             help=f"largest allowed ground size (default {DEFAULT_COUNT_CAP})"),
    ]),
    "incomparable": (cmd_incomparable, "list incomparable pairs, or test one pair", [
        _RELATION,
        _arg("pair", nargs="*", help="optional: two elements to test"),
    ]),
    "bipartition": (cmd_bipartition, "order with all of A first and all of B last", [
        _arg("ground", help="sequence file"),
        _arg("a", help="sequence file for A"),
        _arg("b", help="sequence file for B"),
        _TIE_BREAK,
    ]),
    "blocks": (cmd_blocks, "order with each partition block contiguous, leftover last", [
        _arg("ground", help="sequence file"),
        _arg("partition", help="partition file"),
        _TIE_BREAK,
    ]),
    "interleave": (cmd_interleave, "alternate Y with its image under a bijection", [
        _arg("y", help="sequence file for Y"),
        _arg("x", help="sequence file for X"),
        _arg("phi", help="bijection file mapping Y onto X"),
        _TIE_BREAK,
    ]),
    "dense-check": (cmd_dense_check, "is T1 dense in T2 under a given total order?", [
        _arg("order", help="sequence file: the total order"),
        _arg("t1", help="sequence file for T1"),
        _arg("t2", help="sequence file for T2"),
        _arg("--non-strict", action="store_true", help="allow the witness to equal an endpoint"),
    ]),
}


def build_parser(*names: str) -> argparse.ArgumentParser:
    """The parser with a subparser for each named command, or for every command when none is named."""
    parser = argparse.ArgumentParser(
        prog="ordext",
        description="Finite partial orders: validation, linear extension, "
        "and structured total-order constructions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in names or COMMANDS:
        handler, help_text, arguments = COMMANDS[name]
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.add_argument(
            "--output",
            choices=("human", "machine"),
            default="human",
            help="human: one element per line; machine: tab-separated lines",
        )
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(func=handler)
    return parser


def _stderr(text: str) -> None:
    """Write `text` to stderr; one closed before the run (None) or refusing writes drops it."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:  # say a full device: the status alone tells
            pass


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command's own parser gives the same bytes as the full one, help and errors
    # included; any other start (none, a flag, an unknown name) needs every command.
    parser = build_parser(*[name for name in argv[:1] if name in COMMANDS])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.writelines(args.func(args))
            sys.stdout.flush()
        elif any(args.func(args)):  # stdout was closed before the run: the output fails as a write would
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return 0
    except OSError as exc:
        # Files are read through _read, so this is a failed write to stdout: the reader left
        # early (`ordext enumerate ... | head`; quietly), the disk is full or stdout is closed.
        # Drop the unwritten rest, so the flush at exit reports nothing a second time.
        if sys.stdout is not None:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 1
        code, message = 2, f"cannot write output: {exc.strerror or exc}"
    except MemoryError:
        code, message = 2, "out of memory"
    except (ParseError, OrderError) as exc:
        code, message = 2 if isinstance(exc, ParseError) else 1, exc
    _stderr(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
