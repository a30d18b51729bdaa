"""Order extension: adjoin one forced pair, then linearize.

The pipeline keeps its two stages separate.  `extend_with_pair` ORs one
incomparable pair, and the pairs it forces, into the closed masks and
updates the covers; `linear_extension` removes sources one at a time
along the covers with a tie-break policy deciding among candidates;
`szpilrajn` chains the two and returns a certificate a caller can
re-check, whose input relation is built when first read.  Enumeration
walks every removal order, listing each free maximal tail (an unplaced
upset that is an antichain) by `permutations` and the orders of any
other upset of at most four elements from a table of tails kept for
one walk, at most 1,024 upsets of at most 12 tails each, the least
recently used dropped when full; a downset DP counts them per
comparability component.  Both cross-examine the fast path, whose
results are correct by construction, built without a second check.
"""

import sys
from bisect import insort
from functools import cached_property, lru_cache
from itertools import chain, islice, permutations
from math import comb
from typing import TYPE_CHECKING, Iterator

from .core import DEFAULT_COUNT_CAP, DEFAULT_ENUM_LIMIT  # noqa: F401  (public names of this module too)
from .core import LinearOrder, Pair, Poset, _closed_poset, _Record, _linear_orders, bits, check_token
from .errors import CapExceeded, NotIncomparable, _decimal

if TYPE_CHECKING:  # a policy given is already loaded, and without one none is needed
    from .policy import TieBreakPolicy

_TAIL = 4  # the enumeration walk reads orders of at most this many unplaced positions from its table
_TAILS_CAP = 1024  # upsets the table holds; past it the least recently used is dropped


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

    @cached_property
    def input_relation(self) -> frozenset[Pair]:
        """Read, the first time, off the poset a certificate of :func:`szpilrajn` extends."""
        return self._poset.relation

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
    succ, pred, cover = list(poset.succ), list(poset.pred), list(poset._cover)
    for x in bits(below):
        succ[x] |= above
        cover[x] &= ~above  # a cover from below(a) to above(b) now runs through a < b
    for y in bits(above):
        pred[y] |= below
    cover[i] |= 1 << j
    return _closed_poset(poset.ground, succ, pred, cover)


def linear_extension(
    poset: Poset, policy: "TieBreakPolicy | None" = None
) -> LinearOrder:
    """Linearize by repeated source removal (Kahn 1962) along the covers.

    At each step the elements with no remaining predecessors form the
    candidate set; `policy` picks which one leaves next.  An element joins
    the candidates once every element of its `pred` mask is placed, which
    along the covers happens when its last cover from below is placed, so
    the candidates are those of removal over every pair.  The candidates
    are a list of negated ranks, ascending, so the least rank is last:
    input order and lexicographic order rank by ground position and by
    token and take the least rank; seeded draws a position among the
    candidates in ground order, which counts from the end of the list.
    Output is a pure function of (poset, policy).
    """
    g, cover, pred = poset.ground, poset._cover, poset.pred
    kind = "input-order" if policy is None else policy.kind
    ranked = sorted(range(len(g)), key=g.__getitem__) if kind == "lexicographic" else range(len(g))
    first = policy.start()._first if kind == "seeded" else None
    rank = sorted(range(len(g)), key=ranked.__getitem__) if kind == "lexicographic" else ranked  # its inverse
    frontier = sorted([-rank[i] for i, mask in enumerate(pred) if not mask])
    out: list[str] = []
    placed = 0
    while frontier:
        r = frontier.pop() if first is None else frontier.pop(-1 - first(len(frontier)))
        i = ranked[-r]
        out.append(g[i])
        placed |= 1 << i
        above = cover[i]
        while above:  # its covers, top first: in input order these ranks mostly append
            j = above.bit_length() - 1
            above ^= 1 << j
            if pred[j] & placed == pred[j]:
                insort(frontier, -rank[j])
    return _linear_orders([tuple(out)])[0]


def szpilrajn(
    poset: Poset,
    forced: ForcedPair | None = None,
    policy: "TieBreakPolicy | None" = None,
) -> ExtensionCertificate:
    """Extend to a linear order, optionally through one forced pair.

    Exactly the two-stage pipeline: adjoin the forced pair and close
    (when present), then linearize.  The certificate records the original
    relation, the forced pair, and the resulting order; the relation is
    built from `poset` when it is first read.
    """
    augmented = poset if forced is None else extend_with_pair(poset, forced)
    certificate = object.__new__(ExtensionCertificate)
    vars(certificate).update(_poset=poset, output_order=linear_extension(augmented, policy), forced=forced)
    return certificate


def _extensions(poset: Poset) -> Iterator[tuple[str, ...]]:
    """Token tuples of all linear extensions, lexicographic by ground position.

    The placed tokens are the only stack.  It grows by the token of the
    first unplaced position i with every predecessor placed, `placed &
    down[i] == pred[i]`; positions below the lowest unplaced one are
    placed and fail that test, so after a push the scan starts there.  To
    backtrack, pop the last token, read its position k off the ground
    index (tokens are distinct), and resume the scan at k + 1.  The placed
    set is a downset, so the unplaced set U is an upset, and an antichain
    exactly when every `inner` (non-maximal) position is placed.  Then the
    scan admits all of U at every level, so the orders below are
    `permutations` of U's tokens in ascending position, handed out in C.
    Otherwise, once at most `_TAIL` positions are unplaced, the orders
    below depend on U alone (Stanley, EC1 ch. 3), so they are read from a
    table of tails private to the walk: each minimal element of U,
    ascending, before each tail of U without it.  The table holds at most
    `_TAILS_CAP` upsets, each of at most 4!/2 = 12 tails of at most
    `_TAIL` tokens, and drops the least recently used upset when full.
    Each order is found when it is asked for, in O(n) memory and with no
    depth limit.
    """
    g, pred, index = poset.ground, poset.pred, poset.ground_index
    n = len(g)
    down = [mask | 1 << i for i, mask in enumerate(pred)]
    inner = sum(1 << i for i, mask in enumerate(poset.succ) if mask)
    full = (1 << n) - 1

    @lru_cache(_TAILS_CAP)
    def tails(up: int) -> list[tuple[str, ...]]:
        return [(g[m], *rest) for m in bits(up) if not pred[m] & up for rest in tails(up ^ 1 << m)] if up else [()]

    tokens: list[str] = []
    placed = 0
    i = 0
    while True:
        if placed & inner == inner or len(tokens) >= n - _TAIL:
            up = placed ^ full
            yield from map(tuple(tokens).__add__, tails(up) if up & inner else permutations([g[j] for j in bits(up)]))
            i = n
        while i < n and placed & down[i] != pred[i]:
            i += 1
        if i < n:
            tokens.append(g[i])
            placed |= 1 << i
            i = (~placed & (placed + 1)).bit_length() - 1
        elif tokens:
            i = index[tokens.pop()]
            placed ^= 1 << i
            i += 1
        else:
            return


def enumerate_linear_extensions(
    poset: Poset, limit: int | None = None
) -> Enumeration:
    """The first `limit` linear extensions, lexicographic by ground position.

    Slices :func:`_extensions`, the walk the CLI streams, at `limit`
    (default 10^6) and builds the orders in one batch in C
    (`core._linear_orders`); `truncated` says whether one more order
    exists.  No walk reaches `sys.maxsize` orders, so a larger limit
    takes them all.
    """
    if limit is None:
        limit = DEFAULT_ENUM_LIMIT
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {_decimal(limit)}")
    walk = _extensions(poset)
    orders = _linear_orders(list(islice(walk, min(limit, sys.maxsize))))
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

    total, unassigned = 1, (1 << n) - 1
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
        total *= current[component] * comb(n - unassigned.bit_count(), len(members))
    return total
