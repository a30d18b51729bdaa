"""Order extension: adjoin one forced pair, then linearize.

The pipeline keeps its two stages separate.  `extend_with_pair` adds one
incomparable pair and closes minimally; `linear_extension` removes
sources one at a time with a tie-break policy deciding among candidates;
`szpilrajn` chains the two and returns a certificate a caller can
re-check.  Two independent oracles, exhaustive enumeration and a
downset-counting dynamic program, exist to cross-examine the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import LinearOrder, Pair, Poset, bits, check_token, source_order
from .errors import CapExceeded, NotIncomparable
from .policy import TieBreakPolicy

DEFAULT_ENUM_LIMIT = 10**6

DEFAULT_COUNT_CAP = 20


@dataclass(frozen=True)
class ForcedPair:
    """An ordered pair the output order must realize: first before second."""

    first: str
    second: str

    def __post_init__(self):
        check_token(self.first)
        check_token(self.second)
        if self.first == self.second:
            raise NotIncomparable(self.first, self.second)


@dataclass(frozen=True)
class ExtensionCertificate:
    """A linear extension together with what it extends.

    `verify` re-checks the claim from scratch: every input pair runs
    forward in the output order and, when a pair was forced, its first
    element precedes its second.
    """

    input_relation: frozenset[Pair]
    output_order: LinearOrder
    forced: ForcedPair | None = None

    def verify(self) -> bool:
        pos = self.output_order.positions
        for x, y in self.input_relation:
            if x not in pos or y not in pos or pos[x] >= pos[y]:
                return False
        if self.forced is not None:
            f, s = self.forced.first, self.forced.second
            if f not in pos or s not in pos or pos[f] >= pos[s]:
                return False
        return True


@dataclass(frozen=True)
class Enumeration:
    """Enumeration result: the orders found plus a truncation marker.

    Hitting the limit is not an error; `truncated` says whether more
    extensions exist beyond the ones returned.
    """

    orders: tuple[LinearOrder, ...]
    truncated: bool
    limit: int

    def __len__(self) -> int:
        return len(self.orders)

    def __iter__(self) -> Iterator[LinearOrder]:
        return iter(self.orders)


def extend_with_pair(poset: Poset, pair: ForcedPair) -> Poset:
    """Adjoin one incomparable pair and close minimally.

    The result's relation is exactly the transitive closure of
    relation ∪ {(first, second)}: every element at or below `first`
    goes before every element at or above `second`, and nothing else
    changes.
    """
    a, b = pair.first, pair.second
    i, j = poset.index(a), poset.index(b)
    for held in ((a, b), (b, a)):
        if held in poset.relation:
            raise NotIncomparable(a, b, held=held)
    g = poset.ground
    above = [g[y] for y in bits(poset.succ[j] | 1 << j)]
    extended = set(poset.relation)
    for x in bits(poset.pred[i] | 1 << i):
        extended.update((g[x], y) for y in above)
    return Poset(g, frozenset(extended))


def linear_extension(
    poset: Poset, policy: TieBreakPolicy | None = None
) -> LinearOrder:
    """Linearize by repeated source removal.

    At each step the elements with no remaining predecessors form the
    candidate set, held in ground order; `policy` picks which one leaves
    next.  The loop is :func:`core.source_order`, which the closure uses
    too.  Output is a pure function of (poset, policy).
    """
    if policy is None:
        policy = TieBreakPolicy.input_order()
    order = source_order(poset.ground, poset.succ, poset.pred, policy.start().pick)
    return LinearOrder(tuple(poset.ground[i] for i in order))


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


def enumerate_linear_extensions(
    poset: Poset, limit: int | None = None
) -> Enumeration:
    """All linear extensions, lexicographic by ground position.

    Backtracking over minimal-element choices, candidates tried in
    ground order, which makes the output order canonical.  Stops after
    `limit` orders and flags truncation when more exist.
    """
    if limit is None:
        limit = DEFAULT_ENUM_LIMIT
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    n = len(poset.ground)
    preds = poset.pred

    found: list[LinearOrder] = []
    prefix: list[str] = []

    def walk(placed: int) -> bool:
        # Returns True when the limit cut the walk short.
        if len(prefix) == n:
            if len(found) == limit:
                return True
            found.append(LinearOrder(tuple(prefix)))
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (preds[i] & placed) != preds[i]:
                continue
            prefix.append(poset.ground[i])
            cut = walk(placed | bit)
            prefix.pop()
            if cut:
                return True
        return False

    truncated = walk(0)
    return Enumeration(orders=tuple(found), truncated=truncated, limit=limit)


def count_linear_extensions(poset: Poset, cap: int | None = None) -> int:
    """Exact extension count by dynamic programming over downsets.

    State space is the predecessor-closed subsets of the ground, one
    bitmask each, grown through the poset's `pred` masks, so memory grows
    with the downset count; `cap` bounds the ground size (default 20).
    Always equals the untruncated enumeration length (tests enforce it).
    """
    if cap is None:
        cap = DEFAULT_COUNT_CAP
    n = len(poset.ground)
    if n > cap:
        raise CapExceeded(n, cap)
    preds = poset.pred

    current: dict[int, int] = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, ways in current.items():
            for i in range(n):
                bit = 1 << i
                if mask & bit or (preds[i] & mask) != preds[i]:
                    continue
                grown = mask | bit
                nxt[grown] = nxt.get(grown, 0) + ways
        current = nxt
    return current.get((1 << n) - 1, 0)
