"""Structured total orders: bipartitions, block intervals, dense interleavings.

Each construction returns a plain :class:`LinearOrder` decided entirely
by its inputs and a tie-break policy, built from tokens its own checks
have passed, without checking them again.  Subset inputs are sets: segments
are normalized to ground order, then :func:`policy._layout` starts one
breaker and arranges them in output order, its stream running on from
one segment into the next, so the line order of a subset file never
leaks into the output.  The density predicate asks a betweenness
question about one existing order, answered by one pass over it: the
members of T1 and T2 are labelled, and the labels joined along the
order must never show two T2 members with no T1 member between them.
"""

from functools import cached_property
from itertools import chain, repeat
from typing import Iterable

from .core import LinearOrder, _linear_orders, _look_up, _Record, _valid_tokens, check_ground, check_token
from .errors import (
    DuplicateElement,
    EmptyBlock,
    EmptySubset,
    NotBijective,
    NotDisjoint,
    UnknownElement,
)
from .policy import TieBreakPolicy, _layout


class Partition(_Record):
    """An ordered sequence of nonempty, pairwise disjoint blocks.

    Block order is meaningful: constructions lay blocks out in the order
    given here.  Indices in diagnostics are 1-based.
    """

    _fields = ("blocks",)
    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        vars(self).update(blocks=tuple(tuple(block) for block in blocks))
        tokens = tuple(chain.from_iterable(self.blocks))
        if all(self.blocks) and _valid_tokens(tokens) and len(set(tokens)) == len(tokens):
            return
        owner: dict[str, int] = {}
        for i, block in enumerate(self.blocks, start=1):
            if not block:
                raise EmptyBlock(i)
            for tok in block:
                check_token(tok)
                if owner.get(tok) == i:
                    raise DuplicateElement(tok)
                if tok in owner:
                    raise NotDisjoint(tok, f"blocks {owner[tok]} and {i}")
                owner[tok] = i

    def members(self) -> set[str]:
        return {tok for block in self.blocks for tok in block}


class Bijection(_Record):
    """A one-one map, stored as (domain, image) pairs in input order.

    Construction rejects a repeated domain element (two images) or a
    repeated image element (not injective); totality and the exact
    domain/codomain are checked where the bijection gets used.
    """

    _fields = ("pairs",)
    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: tuple[tuple[str, str], ...]):
        vars(self).update(pairs=tuple((y, x) for y, x in pairs))
        tokens = tuple(chain.from_iterable(self.pairs))
        if _valid_tokens(tokens) and len(set(tokens[::2])) == len(set(tokens[1::2])) == len(self.pairs):
            return
        seen_domain: set[str] = set()
        seen_image: set[str] = set()
        for y, x in self.pairs:
            check_token(y)
            check_token(x)
            if y in seen_domain:
                raise NotBijective(f"{y!r} has two images", y)
            if x in seen_image:
                raise NotBijective(f"two elements map to {x!r}", x)
            seen_domain.add(y)
            seen_image.add(x)

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, token: str) -> str:
        return _look_up(self.as_dict, token)


def _in_ground_order(seq: tuple[str, ...], ground_index: dict[str, int]) -> list[str]:
    """Checked tokens sorted by ground position; `sorted` keys them in order, so the first unknown is named."""
    try:
        return sorted(seq, key=ground_index.__getitem__)
    except KeyError as missing:
        raise UnknownElement(missing.args[0]) from None


def _subset_in_ground_order(
    name: str, tokens: Iterable[str], ground_index: dict[str, int]
) -> list[str]:
    """Validate one subset and return its members sorted by ground position."""
    seq = check_ground(tokens)
    if not seq:
        raise EmptySubset(name)
    return _in_ground_order(seq, ground_index)


def bipartition_order(
    ground: Iterable[str],
    a: Iterable[str],
    b: Iterable[str],
    policy: TieBreakPolicy | None = None,
) -> LinearOrder:
    """Total order with all of A first, all of B last, the rest between.

    Guarantees x before y for every x in A and y in B.  The three
    segments are arranged one after another by a single tie-breaker, A's
    segment first, so a seeded policy spends its stream in a fixed order.
    """
    seq = check_ground(ground)
    gi = {tok: i for i, tok in enumerate(seq)}
    a_seg = _subset_in_ground_order("A", a, gi)
    b_seg = _subset_in_ground_order("B", b, gi)
    b_set = set(b_seg)
    for tok in a_seg:
        if tok in b_set:
            raise NotDisjoint(tok, "A and B")
    taken = set(a_seg) | b_set
    middle = [tok for tok in seq if tok not in taken]
    return _linear_orders([_layout(policy, (a_seg, middle, b_seg))])[0]


def partition_block_order(
    ground: Iterable[str],
    partition: Partition,
    policy: TieBreakPolicy | None = None,
) -> LinearOrder:
    """Total order where each block fills a contiguous interval.

    Blocks appear in the partition's given order; ground elements in no
    block form one final interval.  Within a block (and within the
    leftover) the policy arranges the members from a ground-order base,
    all segments sharing one tie-breaker, first block first.
    """
    seq = check_ground(ground)
    gi = {tok: i for i, tok in enumerate(seq)}
    blocks = [_in_ground_order(block, gi) for block in partition.blocks]
    placed = partition.members()
    leftover = [tok for tok in seq if tok not in placed]
    return _linear_orders([_layout(policy, blocks + [leftover])])[0]


def dense_interleave(
    y_seq: Iterable[str],
    x_seq: Iterable[str],
    phi: Bijection,
    policy: TieBreakPolicy | None = None,
) -> LinearOrder:
    """Alternate each y with its image: y, phi(y), y', phi(y'), and so on.

    The policy orders Y (from its given sequence as the base); the
    output then places phi(y) immediately after each y, so some image
    element lies strictly between any two Y elements.  Y and X must be
    disjoint and phi must map Y onto X one-one.
    """
    ys = check_ground(y_seq)
    xs = check_ground(x_seq)
    x_set = set(xs)
    for tok in ys:
        if tok in x_set:
            raise NotDisjoint(tok, "Y and X")
    if len(ys) != len(xs):
        raise NotBijective(
            f"domain has {len(ys)} elements but codomain has {len(xs)}"
        )
    y_set = set(ys)
    for y, x in phi.pairs:
        if y not in y_set:
            raise UnknownElement(y)
        if x not in x_set:
            raise UnknownElement(x)
    mapping = phi.as_dict
    for y in ys:
        if y not in mapping:
            raise NotBijective(f"no image for {y!r}", y)
    return _linear_orders([tuple(tok for y in _layout(policy, [ys]) for tok in (y, mapping[y]))])[0]


def is_dense(
    t1: Iterable[str],
    t2: Iterable[str],
    order: LinearOrder,
    strict: bool = True,
) -> bool:
    """Does T1 sit (strictly) densely inside T2 under `order`?

    True when every pair a before b in T2 has some c in T1 with
    a < c < b (strict) or a <= c <= b (non-strict, c may equal an
    endpoint).  Checking consecutive T2 members suffices: a witness for
    a consecutive gap works for every wider pair around it.  So each
    member gets a label, "a" for T1 and "b" for T2, and T1 is dense
    exactly when the labels read along the order never hold "bb".  A
    member of both is labelled "b" when strict, since it cannot lie
    strictly inside a gap it bounds, and "a" when not, since it then
    witnesses both gaps it bounds.  Each call reads the whole order once,
    in C: O(|order|) however small T1 and T2 are, and nothing is cached
    on `order` (the CLI builds its order afresh on every call anyway).
    T1 is checked and looked up before T2; the first member outside the
    order is unknown.
    """
    known = set(order.sequence)
    labelled = []
    for tokens, label in ((t1, "a"), (t2, "b")):
        seq = check_ground(tokens)
        if not known.issuperset(seq):
            raise UnknownElement(next(tok for tok in seq if tok not in known))
        labelled.append(dict.fromkeys(seq, label))
    a, b = labelled
    labels = a | b if strict else b | a  # the later label wins on a member of both
    return "bb" not in "".join(map(labels.get, order.sequence, repeat("")))
