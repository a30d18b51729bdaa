"""Independent correctness checks, one per command kind.

Nothing here calls ordext.  Expected answers come from the generator's
own facts: the closure it computed with bitsets, the chain lengths it
chose, the subsets it drew.  `expect` runs during set-up; `check` runs
after the timed loops on one output per operation.
"""

from __future__ import annotations

from math import factorial

from gen import Op, Workload, bits, canonical_text, extension_memo


def multinomial(lengths: tuple[int, ...]) -> int:
    out = factorial(sum(lengths))
    for length in lengths:
        out //= factorial(length)
    return out


def _incomparable_text(rel, machine: bool) -> str:
    sep = "\t" if machine else " "
    g, succ = rel.ground, rel.succ
    lines = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not (succ[i] >> j) & 1 and not (succ[j] >> i) & 1:
                lines.append(f"{g[i]}{sep}{g[j]}\n")
    return "".join(lines)


def expect(w: Workload) -> list[object]:
    """The expected answer of every operation that has a closed form.

    Relation outputs (closure, validate) must equal the canonical text of
    the independently computed closure; counts and enumeration lengths
    come from the multinomial for disjoint chains or from
    `extension_memo`; incomparability answers from the closure bitsets.
    """
    out: list[object] = []
    for op in w.ops:
        rel = w.relations.get(op.files[0])
        if op.command in ("closure", "validate"):
            out.append(canonical_text(rel))
        elif op.command in ("count", "enumerate"):
            full = (1 << len(rel.ground)) - 1
            out.append(multinomial(rel.chains) if rel.chains else extension_memo(rel.succ)[full])
        elif op.command == "incomparable" and op.pair is None:
            out.append(_incomparable_text(rel, op.machine))
        elif op.command == "incomparable":
            i, j = (rel.index[tok] for tok in op.pair)
            comparable = (rel.succ[i] >> j) & 1 or (rel.succ[j] >> i) & 1
            out.append("false\n" if comparable else "true\n")
        elif op.command == "dense-check":
            out.append("true\n")
        else:
            out.append(None)
    return out


def _extension_error(seq: list[str], rel, forced=None) -> str | None:
    """Why `seq` is not a linear extension of `rel` (through `forced`), or None."""
    if sorted(seq) != sorted(rel.ground):
        return "not a permutation of the ground"
    pos = {tok: i for i, tok in enumerate(seq)}
    for x, y in rel.pairs:
        if pos[x] >= pos[y]:
            return f"input pair {x} < {y} reversed"
    if forced is not None and pos[forced[0]] >= pos[forced[1]]:
        return f"forced pair {forced[0]} < {forced[1]} reversed"
    return None


def _check_enumeration(op: Op, out: str, rel, total: int) -> str | None:
    orders = [line.split("\t") for line in out.splitlines()]
    want = total if op.limit is None else min(total, op.limit)
    if len(orders) != want:
        return f"{len(orders)} orders, expected {want}"
    index = rel.index
    keys = [[index[tok] for tok in order] for order in orders]
    for prev, cur in zip(keys, keys[1:]):
        if not prev < cur:
            return "orders not distinct and ascending by ground position"
    for order in orders:
        why = _extension_error(order, rel)
        if why:
            return why
    return None


def _check_segments(out: str, ground: list[str], segments: list[list[str]]) -> str | None:
    """`out` lists the ground with each segment filling the next interval."""
    seq = out.splitlines()
    if sorted(seq) != sorted(ground):
        return "not a permutation of the ground"
    start = 0
    for segment in segments:
        if set(seq[start:start + len(segment)]) != set(segment):
            return f"segment at position {start} not contiguous"
        start += len(segment)
    return None


def check(op: Op, out: str, w: Workload, expected: object) -> str | None:
    """Why `out` is a wrong answer to `op`, or None when it is right."""
    cmd = op.command
    rel = w.relations.get(op.files[0])
    facts = w.facts.get(op.files[0])
    if cmd in ("closure", "validate", "incomparable", "dense-check"):
        return None if out == expected else "output differs from the independent answer"
    if cmd == "count":
        return None if out == f"{expected}\n" else f"count {out.strip()}, expected {expected}"
    if cmd == "enumerate":
        return _check_enumeration(op, out, rel, expected)
    if cmd in ("linearize", "szpilrajn"):
        return _extension_error(out.splitlines(), rel, op.force)
    if cmd == "bipartition":
        a, b = facts["a"], facts["b"]
        middle = [tok for tok in facts["ground"] if tok not in a and tok not in b]
        return _check_segments(out, facts["ground"], [list(a), middle, list(b)])
    if cmd == "blocks":
        placed = {tok for block in facts["blocks"] for tok in block}
        leftover = [tok for tok in facts["ground"] if tok not in placed]
        return _check_segments(out, facts["ground"], [*facts["blocks"], leftover])
    if cmd == "interleave":
        seq = out.splitlines()
        ys, phi = facts["ys"], facts["phi"]
        if sorted(seq[0::2]) != sorted(ys):
            return "even positions are not a permutation of Y"
        if any(phi[y] != x for y, x in zip(seq[0::2], seq[1::2])):
            return "an image does not follow its element"
        return None
    raise ValueError(f"no check for {cmd}")
