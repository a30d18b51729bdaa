"""Command-line front end.

One subcommand per task; every flag belongs to the subcommand that uses
it.  Exit status 0 on success, 1 for domain errors (cycles, comparable
forced pairs, non-disjoint subsets, broken bijections), 2 for malformed
files or bad usage.  Output is a pure function of the inputs: identical
files, flags, and seeds produce byte-identical bytes on every run.

The `validate` command checks a relation file exactly as given (opt-in
closure via --auto-close).  The operating commands (linearize,
szpilrajn, enumerate, count, incomparable) treat the file as a generator
of a poset and always close it first; raw dependency files are rarely
closed by hand.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .constructions import bipartition_order, dense_interleave, is_dense, partition_block_order
from .core import (
    Poset,
    incomparable_pairs,
    is_comparable,
    order_from_enumeration,
    restrict,
    transitive_closure,
    validate,
)
from .errors import OrderError, ParseError
from .extension import (
    DEFAULT_COUNT_CAP,
    DEFAULT_ENUM_LIMIT,
    ForcedPair,
    _extensions,
    count_linear_extensions,
    linear_extension,
    szpilrajn,
)
from .formats import (
    format_relation,
    parse_bijection,
    parse_partition,
    parse_relation,
    parse_sequence,
)
from .policy import TieBreakPolicy

ENV_ENUM_LIMIT = "ORDEXT_ENUM_LIMIT"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_poset(path: str) -> Poset:
    ground, pairs = parse_relation(_read(path), path)
    return validate(ground, pairs, auto_close=True)


def _policy_arg(text: str) -> TieBreakPolicy:
    try:
        return TieBreakPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_arg(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _emit(sequence: tuple[str, ...], mode: str) -> None:
    if mode == "machine":
        sys.stdout.write("\t".join(sequence) + "\n")
    else:
        for token in sequence:
            sys.stdout.write(token + "\n")


def cmd_validate(args: argparse.Namespace) -> int:
    ground, pairs = parse_relation(_read(args.relation), args.relation)
    poset = validate(ground, pairs, auto_close=args.auto_close)
    if args.subset is not None:
        subset = parse_sequence(_read(args.subset), args.subset)
        poset = restrict(poset, subset)
    sys.stdout.write(format_relation(poset))
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    ground, pairs = parse_relation(_read(args.relation), args.relation)
    closed = transitive_closure(pairs, node_order=ground)
    sys.stdout.write(format_relation(Poset(ground, closed)))
    return 0


def cmd_linearize(args: argparse.Namespace) -> int:
    order = linear_extension(_load_poset(args.relation), args.tie_break)
    _emit(order.sequence, args.output)
    return 0


def cmd_szpilrajn(args: argparse.Namespace) -> int:
    poset = _load_poset(args.relation)
    forced = ForcedPair(*args.force) if args.force else None
    certificate = szpilrajn(poset, forced, args.tie_break)
    _emit(certificate.output_order.sequence, args.output)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    poset = _load_poset(args.relation)
    limit = args.limit
    if limit is None:
        raw = os.environ.get(ENV_ENUM_LIMIT, str(DEFAULT_ENUM_LIMIT))
        try:
            limit = int(raw, 10)
        except ValueError:
            raise ParseError(
                f"{ENV_ENUM_LIMIT} is not an integer: {raw!r}"
            ) from None
        if limit < 0:
            raise ParseError(f"{ENV_ENUM_LIMIT} must be nonnegative: {raw}")
    # The same walk as enumerate_linear_extensions, written out as it goes.
    walk = _extensions(poset)
    for i, sequence in enumerate(islice(walk, min(limit, sys.maxsize))):
        if i and args.output == "human":
            sys.stdout.write("\n")
        _emit(sequence, args.output)
    if next(walk, None) is not None:
        sys.stderr.write(f"note: enumeration truncated at limit {limit}\n")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    poset = _load_poset(args.relation)
    sys.stdout.write(f"{count_linear_extensions(poset, args.cap)}\n")
    return 0


def cmd_incomparable(args: argparse.Namespace) -> int:
    poset = _load_poset(args.relation)
    if args.pair:
        if len(args.pair) != 2:
            raise ParseError("expected exactly two elements after the file")
        x, y = args.pair
        answer = not is_comparable(poset, x, y)
        sys.stdout.write("true\n" if answer else "false\n")
        return 0
    separator = "\t" if args.output == "machine" else " "
    for x, y in incomparable_pairs(poset):
        sys.stdout.write(f"{x}{separator}{y}\n")
    return 0


def cmd_bipartition(args: argparse.Namespace) -> int:
    ground = parse_sequence(_read(args.ground), args.ground)
    first = parse_sequence(_read(args.a), args.a)
    second = parse_sequence(_read(args.b), args.b)
    order = bipartition_order(ground, first, second, args.tie_break)
    _emit(order.sequence, args.output)
    return 0


def cmd_blocks(args: argparse.Namespace) -> int:
    ground = parse_sequence(_read(args.ground), args.ground)
    partition = parse_partition(_read(args.partition), args.partition)
    order = partition_block_order(ground, partition, args.tie_break)
    _emit(order.sequence, args.output)
    return 0


def cmd_interleave(args: argparse.Namespace) -> int:
    ys = parse_sequence(_read(args.y), args.y)
    xs = parse_sequence(_read(args.x), args.x)
    phi = parse_bijection(_read(args.phi), args.phi)
    order = dense_interleave(ys, xs, phi, args.tie_break)
    _emit(order.sequence, args.output)
    return 0


def cmd_dense_check(args: argparse.Namespace) -> int:
    order = order_from_enumeration(parse_sequence(_read(args.order), args.order))
    t1 = parse_sequence(_read(args.t1), args.t1)
    t2 = parse_sequence(_read(args.t2), args.t2)
    answer = is_dense(t1, t2, order, strict=not args.non_strict)
    sys.stdout.write("true\n" if answer else "false\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordext",
        description="Finite partial orders: validation, linear extension, "
        "and structured total-order constructions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.add_argument(
            "--output",
            choices=("human", "machine"),
            default="human",
            help="human: one element per line; machine: tab-separated lines",
        )
        sub.set_defaults(func=handler)
        return sub

    def tie_break(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--tie-break",
            type=_policy_arg,
            default=None,
            metavar="input|lex|seed:<u64>",
            help="how free choices are resolved (default: input order)",
        )

    sub = command("validate", cmd_validate, "check a relation file against the order axioms")
    sub.add_argument("relation", help="relation file")
    sub.add_argument("subset", nargs="?", default=None, help="optional sequence file; restrict to it")
    sub.add_argument("--auto-close", action="store_true", help="close the relation instead of requiring closedness")

    sub = command("closure", cmd_closure, "print the transitive closure of a relation file")
    sub.add_argument("relation", help="relation file")

    sub = command("linearize", cmd_linearize, "print one linear extension")
    sub.add_argument("relation", help="relation file")
    tie_break(sub)

    sub = command("szpilrajn", cmd_szpilrajn, "linear extension, optionally through a forced pair")
    sub.add_argument("relation", help="relation file")
    sub.add_argument("--force", nargs=2, metavar=("A", "B"), help="require A before B; they must be incomparable")
    tie_break(sub)

    sub = command("enumerate", cmd_enumerate, "list all linear extensions up to a limit")
    sub.add_argument("relation", help="relation file")
    sub.add_argument("--limit", type=_nonnegative_arg, default=None,
                     help=f"maximum number of orders (default {DEFAULT_ENUM_LIMIT}, env {ENV_ENUM_LIMIT})")

    sub = command("count", cmd_count, "count all linear extensions exactly")
    sub.add_argument("relation", help="relation file")
    sub.add_argument("--cap", type=_nonnegative_arg, default=None,
                     help=f"largest allowed ground size (default {DEFAULT_COUNT_CAP})")

    sub = command("incomparable", cmd_incomparable, "list incomparable pairs, or test one pair")
    sub.add_argument("relation", help="relation file")
    sub.add_argument("pair", nargs="*", help="optional: two elements to test")

    sub = command("bipartition", cmd_bipartition, "order with all of A first and all of B last")
    sub.add_argument("ground", help="sequence file")
    sub.add_argument("a", help="sequence file for A")
    sub.add_argument("b", help="sequence file for B")
    tie_break(sub)

    sub = command("blocks", cmd_blocks, "order with each partition block contiguous, leftover last")
    sub.add_argument("ground", help="sequence file")
    sub.add_argument("partition", help="partition file")
    tie_break(sub)

    sub = command("interleave", cmd_interleave, "alternate Y with its image under a bijection")
    sub.add_argument("y", help="sequence file for Y")
    sub.add_argument("x", help="sequence file for X")
    sub.add_argument("phi", help="bijection file mapping Y onto X")
    tie_break(sub)

    sub = command("dense-check", cmd_dense_check, "is T1 dense in T2 under a given total order?")
    sub.add_argument("order", help="sequence file: the total order")
    sub.add_argument("t1", help="sequence file for T1")
    sub.add_argument("t2", help="sequence file for T2")
    sub.add_argument("--non-strict", action="store_true",
                     help="allow the witness to equal an endpoint")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (`ordext enumerate ... | head`); drop the rest quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, OrderError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ParseError) else 1


if __name__ == "__main__":
    sys.exit(main())
