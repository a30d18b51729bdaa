"""Order extension: adjoin one forced pair, then linearize.

The pipeline keeps its two stages separate.  `extend_with_pair` ORs one
incomparable pair, and the pairs it forces, into the closed masks;
`linear_extension` removes sources one at a time with a tie-break policy
deciding among candidates; `szpilrajn` chains the two and returns a
certificate a caller can re-check.  Enumeration tries every such removal
order with one iterative walk, and a downset-counting dynamic program
counts them one comparability component at a time; both cross-examine
the fast path.  Results are correct by construction and are built
without a second verification.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from math import comb
from typing import Iterator

from .core import LinearOrder, Pair, Poset, _closed_poset, _Record, _linear_order, bits, check_token, source_order
from .errors import CapExceeded, NotIncomparable
from .policy import TieBreakPolicy, _breaker

DEFAULT_ENUM_LIMIT = 10**6

DEFAULT_COUNT_CAP = 20


class ForcedPair(_Record):
    """An ordered pair the output order must realize: first before second."""

    _fields = ("first", "second")
    first: str
    second: str

    def __init__(self, first: str, second: str):
        vars(self).update(first=first, second=second)
        check_token(first)
        check_token(second)
        if first == second:
            raise NotIncomparable(first, second)


class ExtensionCertificate(_Record):
    """A linear extension together with what it extends.

    `verify` re-checks the claim from scratch: every input pair runs
    forward in the output order and, when a pair was forced, its first
    element precedes its second.
    """

    _fields = ("input_relation", "output_order", "forced")
    input_relation: frozenset[Pair]
    output_order: LinearOrder
    forced: ForcedPair | None

    def __init__(self, input_relation: frozenset[Pair], output_order: LinearOrder, forced: ForcedPair | None = None):
        vars(self).update(input_relation=input_relation, output_order=output_order, forced=forced)

    def verify(self) -> bool:
        pos = self.output_order.positions
        forced = () if self.forced is None else ((self.forced.first, self.forced.second),)
        return all(
            x in pos and y in pos and pos[x] < pos[y]
            for x, y in chain(self.input_relation, forced)
        )


class Enumeration(_Record):
    """Enumeration result: the orders found plus a truncation marker.

    Hitting the limit is not an error; `truncated` says whether more
    extensions exist beyond the ones returned.
    """

    _fields = ("orders", "truncated", "limit")
    orders: tuple[LinearOrder, ...]
    truncated: bool
    limit: int

    def __init__(self, orders: tuple[LinearOrder, ...], truncated: bool, limit: int):
        vars(self).update(orders=orders, truncated=truncated, limit=limit)

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self) -> Iterator[LinearOrder]:
        return iter(self.orders)


def extend_with_pair(poset: Poset, pair: ForcedPair) -> Poset:
    """Adjoin one incomparable pair to the closed masks, keeping them closed.

    The result's relation is exactly the transitive closure of
    relation ∪ {(first, second)}: every element at or below `first`
    goes before every element at or above `second`, and nothing else
    changes.  No new pair can close a cycle, because the two were
    incomparable, so those pairs are ORed into the masks directly.
    """
    a, b = pair.first, pair.second
    i, j = poset.index(a), poset.index(b)
    for x, y in ((i, j), (j, i)):
        if poset.succ[x] >> y & 1:
            raise NotIncomparable(a, b, held=(poset.ground[x], poset.ground[y]))
    below, above = poset.pred[i] | 1 << i, poset.succ[j] | 1 << j
    succ, pred = list(poset.succ), list(poset.pred)
    for x in bits(below):
        succ[x] |= above
    for y in bits(above):
        pred[y] |= below
    return _closed_poset(poset.ground, succ, pred)


def linear_extension(
    poset: Poset, policy: TieBreakPolicy | None = None
) -> LinearOrder:
    """Linearize by repeated source removal.

    At each step the elements with no remaining predecessors form the
    candidate set, held in ground order; `policy` picks which one leaves
    next.  The loop is :func:`core.source_order`, which the closure uses
    too.  Output is a pure function of (poset, policy).
    """
    order = source_order(poset.ground, poset.succ, poset.pred, _breaker(policy).pick)
    return _linear_order(tuple([poset.ground[i] for i in order]))


def szpilrajn(
    poset: Poset,
    forced: ForcedPair | None = None,
    policy: TieBreakPolicy | None = None,
) -> ExtensionCertificate:
    """Extend to a linear order, optionally through one forced pair.

    Exactly the two-stage pipeline: adjoin the forced pair and close
    (when present), then linearize.  The certificate records the original
    relation, the forced pair, and the resulting order.
    """
    augmented = poset if forced is None else extend_with_pair(poset, forced)
    order = linear_extension(augmented, policy)
    return ExtensionCertificate(
        input_relation=poset.relation, output_order=order, forced=forced
    )


def _extensions(poset: Poset) -> Iterator[tuple[str, ...]]:
    """Token tuples of all linear extensions, lexicographic by ground position.

    The prefix of placed positions is the only stack.  It grows by the
    first position i that is unplaced with every predecessor placed,
    `placed & down[i] == pred[i]`; to backtrack, pop the last position k
    and resume the scan at k + 1.  Each order is found when it is asked
    for, in O(n) memory and with no depth limit.
    """
    g, pred = poset.ground, poset.pred
    n = len(g)
    down = [mask | 1 << i for i, mask in enumerate(pred)]
    prefix: list[int] = []
    placed = 0
    i = 0
    while True:
        if len(prefix) == n:
            yield tuple([g[k] for k in prefix])
            i = n
        while i < n and placed & down[i] != pred[i]:
            i += 1
        if i < n:
            prefix.append(i)
            placed |= 1 << i
            i = 0
        elif prefix:
            i = prefix.pop()
            placed ^= 1 << i
            i += 1
        else:
            return


def enumerate_linear_extensions(
    poset: Poset, limit: int | None = None
) -> Enumeration:
    """The first `limit` linear extensions, lexicographic by ground position.

    Slices :func:`_extensions`, the walk the CLI streams, at `limit`
    (default 10^6); `truncated` says whether one more order exists.  No
    walk reaches `sys.maxsize` orders, so a larger limit takes them all.
    """
    if limit is None:
        limit = DEFAULT_ENUM_LIMIT
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    walk = _extensions(poset)
    orders = tuple(map(_linear_order, islice(walk, min(limit, sys.maxsize))))
    return Enumeration(orders=orders, truncated=next(walk, None) is not None, limit=limit)


def count_linear_extensions(poset: Poset, cap: int | None = None) -> int:
    """Exact extension count, one comparability component at a time.

    A component grows from the lowest unassigned position through the
    `succ | pred` masks.  Dynamic programming over its downsets, one
    bitmask each, counts its extensions, and interleaving disjoint parts
    multiplies: e(P+Q) = e(P)·e(Q)·C(|P|+|Q|, |P|).  The DP holds the
    downsets of one component at a time, at most 2^k for a largest
    component of k elements; `cap` still bounds the whole ground
    (default 20) and is checked before any work.  Always equals the
    untruncated enumeration length (tests enforce it).
    """
    if cap is None:
        cap = DEFAULT_COUNT_CAP
    n = len(poset.ground)
    if n > cap:
        raise CapExceeded(n, cap)
    succ, pred = poset.succ, poset.pred
    down = [mask | 1 << i for i, mask in enumerate(pred)]

    total, placed, unassigned = 1, 0, (1 << n) - 1
    while unassigned:
        component = frontier = unassigned & -unassigned
        while frontier:
            reach = 0
            for i in bits(frontier):
                reach |= succ[i] | pred[i]
            frontier = reach & ~component
            component |= frontier
        unassigned &= ~component
        members = bits(component)

        current: dict[int, int] = {0: 1}
        for _ in members:
            nxt: dict[int, int] = {}
            for mask, ways in current.items():
                for i in members:
                    if mask & down[i] == pred[i]:
                        grown = mask | 1 << i
                        nxt[grown] = nxt.get(grown, 0) + ways
            current = nxt
        placed += len(members)
        total *= current[component] * comb(placed, len(members))
    return total
