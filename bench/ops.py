"""In-process counterparts of the CLI commands.

Each function parses the file text, runs the library operation that the
README's command-to-operation map names, and builds the bytes the CLI
would print.  Library calls go through the `ordext` package attributes
and through `emit` and `emit_pairs`, so the traced replay can wrap them
in place.
"""

from __future__ import annotations

import ordext

from gen import Op


def emit(orders, machine: bool) -> str:
    """Stdout text of one or more orders, as the CLI writes it."""
    if machine:
        return "".join("\t".join(order.sequence) + "\n" for order in orders)
    return "\n".join("".join(tok + "\n" for tok in order.sequence) for order in orders)


def emit_pairs(pairs, machine: bool) -> str:
    """Stdout text of a list of element pairs, as `incomparable` writes it."""
    sep = "\t" if machine else " "
    return "".join(f"{x}{sep}{y}\n" for x, y in pairs)


def _policy(op: Op) -> ordext.TieBreakPolicy:
    if op.tie_break is None:
        return ordext.TieBreakPolicy.input_order()
    return ordext.TieBreakPolicy.parse(op.tie_break)


def _relation(op: Op, texts: dict[str, str]):
    path = op.files[0]
    return ordext.parse_relation(texts[path], path)


def _poset(op: Op, texts: dict[str, str]):
    return ordext.validate(*_relation(op, texts), auto_close=True)


def _sequence(op: Op, texts: dict[str, str], k: int):
    path = op.files[k]
    return ordext.parse_sequence(texts[path], path)


def _validate(op, texts):
    ground, pairs = _relation(op, texts)
    return ordext.format_relation(ordext.validate(ground, pairs, auto_close=op.auto_close))


def _closure(op, texts):
    ground, pairs = _relation(op, texts)
    closed = ordext.transitive_closure(pairs, node_order=ground)
    return ordext.format_relation(ordext.Poset(ground, closed))


def _linearize(op, texts):
    return emit([ordext.linear_extension(_poset(op, texts), _policy(op))], op.machine)


def _szpilrajn(op, texts):
    poset = _poset(op, texts)
    certificate = ordext.szpilrajn(poset, ordext.ForcedPair(*op.force), _policy(op))
    return emit([certificate.output_order], op.machine)


def _enumerate(op, texts):
    limit = ordext.DEFAULT_ENUM_LIMIT if op.limit is None else op.limit
    result = ordext.enumerate_linear_extensions(_poset(op, texts), limit)
    return emit(result.orders, op.machine)


def _count(op, texts):
    return f"{ordext.count_linear_extensions(_poset(op, texts))}\n"


def _incomparable(op, texts):
    poset = _poset(op, texts)
    if op.pair is not None:
        return "false\n" if ordext.is_comparable(poset, *op.pair) else "true\n"
    return emit_pairs(ordext.incomparable_pairs(poset), op.machine)


def _bipartition(op, texts):
    ground, a, b = (_sequence(op, texts, k) for k in range(3))
    return emit([ordext.bipartition_order(ground, a, b, _policy(op))], op.machine)


def _blocks(op, texts):
    ground = _sequence(op, texts, 0)
    path = op.files[1]
    partition = ordext.parse_partition(texts[path], path)
    return emit([ordext.partition_block_order(ground, partition, _policy(op))], op.machine)


def _interleave(op, texts):
    ys, xs = _sequence(op, texts, 0), _sequence(op, texts, 1)
    path = op.files[2]
    phi = ordext.parse_bijection(texts[path], path)
    return emit([ordext.dense_interleave(ys, xs, phi, _policy(op))], op.machine)


def _dense_check(op, texts):
    order = ordext.order_from_enumeration(_sequence(op, texts, 0))
    t1, t2 = _sequence(op, texts, 1), _sequence(op, texts, 2)
    return "true\n" if ordext.is_dense(t1, t2, order, strict=True) else "false\n"


COMMANDS = {
    "validate": _validate,
    "closure": _closure,
    "linearize": _linearize,
    "szpilrajn": _szpilrajn,
    "enumerate": _enumerate,
    "count": _count,
    "incomparable": _incomparable,
    "bipartition": _bipartition,
    "blocks": _blocks,
    "interleave": _interleave,
    "dense-check": _dense_check,
}


def run(op: Op, texts: dict[str, str]) -> str:
    """Stdout text of `op`; ordext errors propagate to the caller."""
    return COMMANDS[op.command](op, texts)
