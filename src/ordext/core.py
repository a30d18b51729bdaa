"""Finite strict partial and total orders over named elements.

Relations are stored in strict form: reflexive pairs stay implicit, so a
valid relation is an irreflexive, antisymmetric, transitively closed set
of ordered pairs over a ground sequence.  The ground keeps its input
order and doubles as the default tie-break source.  A `Poset` stores
the relation only as successor and predecessor bitmasks indexed by
ground position, verified when `Poset` builds them from pairs and closed
by construction in `_close`; its pairs are built on request.  The public
constructors verify everything they are given; results correct by
construction are assembled by `_closed_poset` and `_linear_order`
without a second check.  Tokens are checked as one batch by `_valid_tokens`
and walked one by one only to name a witness.  All values are immutable
after construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    AntisymmetryViolation,
    ClosureCreatesReflexivePair,
    DuplicateElement,
    InvalidToken,
    NotClosed,
    UnknownElement,
)

Pair = tuple[str, str]


def check_token(token: object) -> str:
    """Reject tokens the element grammar or the file formats cannot carry."""
    if not isinstance(token, str):
        raise InvalidToken(token, "not a string")
    if token == "":
        raise InvalidToken(token, "empty")
    if token.split() != [token]:
        raise InvalidToken(token, "contains whitespace")
    if "<" in token:
        raise InvalidToken(token, "contains '<'")
    if token.startswith("#"):
        raise InvalidToken(token, "starts with '#', reserved for comments")
    if token == "---":
        raise InvalidToken(token, "reserved as a section separator")
    return token


def _valid_tokens(seq: tuple) -> bool:
    """True exactly when every item of `seq` would pass `check_token`, decided in C over one
    `<`-join: it fails on a non-string, and once its only `<` are the len(seq) - 1 separators,
    an empty token shows as `<<` or a `<` at an end, and a `#` prefix as `<#` or a leading `#`."""
    if not seq:
        return True
    try:
        joined = "<".join(seq)
    except TypeError:
        return False
    return (
        joined.split() == [joined]
        and joined.count("<") == len(seq) - 1
        and "<<" not in joined
        and not joined.startswith(("<", "#"))
        and not joined.endswith("<")
        and "<#" not in joined
        and "---" not in seq
    )


def check_ground(tokens: Iterable[str]) -> tuple[str, ...]:
    """Validate a ground sequence: well-formed tokens, pairwise distinct."""
    seq = tuple(tokens)
    if _valid_tokens(seq) and len(set(seq)) == len(seq):
        return seq
    seen = set()
    for tok in seq:
        check_token(tok)
        if tok in seen:
            raise DuplicateElement(tok)
        seen.add(tok)
    return seq


def bits(mask: int) -> list[int]:
    """Set-bit positions of `mask`, ascending; taken top first, so each step works on a shorter int."""
    out = []
    while mask:
        out.append(mask.bit_length() - 1)
        mask ^= 1 << out[-1]
    return out[::-1]


def _masks(pairs: Iterable[Pair], index: dict[str, int]) -> tuple[list[int], list[int], list[Pair]]:
    """Successor and predecessor bitmasks of `pairs` over the positions in `index`,
    plus the pairs a strict relation cannot hold: self-loops and pairs with an
    endpoint outside `index` (which alone get no bit)."""
    succ = [0] * len(index)
    pred = [0] * len(index)
    stray = []
    for x, y in pairs:
        try:
            i, j = index[x], index[y]
        except (KeyError, TypeError):  # TypeError: an unhashable token, a stray like any non-string
            stray.append((x, y))
            continue
        succ[i] |= 1 << j
        pred[j] |= 1 << i
        if i == j:
            stray.append((x, y))
    return succ, pred, stray


def _reject(stray: list[Pair], index: dict[str, int]) -> None:
    """Raise for the non-string token with the least repr, else for the
    lexicographically first stray pair, if there is one."""
    if stray:
        odd = [tok for pair in stray for tok in pair if not isinstance(tok, str)]
        if odd:
            raise InvalidToken(min(odd, key=repr), "not a string")
        x, y = min(stray)
        for tok in (x, y):
            if tok not in index:
                raise UnknownElement(tok)
        raise AntisymmetryViolation((x, x))


def source_order(nodes: Sequence[str], succ: Sequence[int], pred: Sequence[int], pick: Callable) -> list[int]:
    """Positions of `nodes` in source-removal order (Kahn 1962): each step hands `pick` the
    elements left without a predecessor, in ground order, and removes the one it returns.
    A result shorter than `nodes` means the masks hold a cycle."""
    index = {tok: i for i, tok in enumerate(nodes)}
    indegree = [mask.bit_count() for mask in pred]
    available = [tok for tok, d in zip(nodes, indegree) if not d]
    out: list[int] = []
    while available:
        chosen = pick(available)
        available.remove(chosen)
        i = index[chosen]
        out.append(i)
        for j in bits(succ[i]):
            indegree[j] -= 1
            if not indegree[j]:
                insort(available, nodes[j], key=index.__getitem__)
    return out


@dataclass(frozen=True, init=False)
class Poset:
    """A ground sequence plus a strict, antisymmetric, transitively closed relation.

    `Poset(ground, relation)` verifies every invariant and raises a
    witness-carrying error otherwise; use :func:`validate` to build from
    raw pairs, optionally closing them first.  The stored form is `succ`
    and `pred`, for each ground position the bitmask of the positions
    strictly above and below it; `relation` is built from them on request.
    """

    ground: tuple[str, ...]
    succ: tuple[int, ...]
    pred: tuple[int, ...] = field(compare=False)

    def __init__(self, ground: Iterable[str], relation: Iterable[Pair]):
        # Hand-written: a dataclass InitVar `relation` would take the view below as its default.
        self.__post_init__(ground, relation)

    def __post_init__(self, ground: Iterable[str], relation: Iterable[Pair]):
        object.__setattr__(self, "ground", check_ground(ground))
        g = self.ground
        succ, pred, stray = _masks(relation, self.ground_index)
        _reject(stray, self.ground_index)
        for i, mask in enumerate(succ):
            both = mask & pred[i]
            if both:
                raise AntisymmetryViolation((g[i], g[bits(both)[0]], g[i]))
        for i, mask in enumerate(succ):
            outside = ~mask
            for j in bits(mask):
                missing = succ[j] & outside
                if missing:
                    raise NotClosed((g[i], g[j], g[bits(missing)[0]]))
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "pred", tuple(pred))

    @cached_property
    def ground_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.ground)}

    def index(self, token: str) -> int:
        try:
            return self.ground_index[token]
        except KeyError:
            raise UnknownElement(token) from None

    def sorted_pairs(self) -> list[Pair]:
        """Relation pairs ordered by ground position; the canonical serialization order."""
        return [(x, self.ground[j]) for x, mask in zip(self.ground, self.succ) for j in bits(mask)]

    @cached_property
    def relation(self) -> frozenset[Pair]:
        """The relation as a set of pairs, built from `succ` the first time it is read."""
        return frozenset(self.sorted_pairs())

    def __repr__(self) -> str:
        return f"Poset(ground={self.ground!r}, relation={self.relation!r})"


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of its ground; position decides every comparison."""

    sequence: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequence", check_ground(self.sequence))

    @cached_property
    def positions(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.sequence)}

    def position(self, token: str) -> int:
        try:
            return self.positions[token]
        except KeyError:
            raise UnknownElement(token) from None

    def before(self, x: str, y: str) -> bool:
        """True when x strictly precedes y."""
        return self.position(x) < self.position(y)

    @cached_property
    def induced_pairs(self) -> frozenset[Pair]:
        """All forward pairs (s_i, s_j) with i < j; the strict relation this order carries."""
        return frozenset(combinations(self.sequence, 2))

    def contains(self, pairs: Iterable[Pair]) -> bool:
        """True when every given pair runs forward in this order."""
        return all(self.position(x) < self.position(y) for x, y in pairs)

    def __len__(self) -> int:
        return len(self.sequence)


def _linear_order(sequence: tuple[str, ...]) -> LinearOrder:
    """The order of a tuple of distinct, checked tokens, taken without verification."""
    order = object.__new__(LinearOrder)
    object.__setattr__(order, "sequence", sequence)
    return order


def _shortest_cycle(nodes: Sequence[str], succ: Sequence[int], starts: Iterable[int]) -> list[str]:
    """A shortest cycle x, ..., x of masks that hold one: breadth-first search
    from each start in turn, neighbours by position, first shortest kept."""
    best: list[int] | None = None
    for start in starts:
        parent = {start: start}
        queue = [start]
        for node in queue:
            if succ[node] >> start & 1:
                back = []
                while node != start:
                    back.append(node)
                    node = parent[node]
                if best is None or len(back) + 2 < len(best):
                    best = [start, *reversed(back), start]
                break
            for nxt in bits(succ[node]):
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    return [nodes[i] for i in best]


def _close(nodes: Sequence[str], succ: list[int], pred: list[int]) -> Poset | None:
    """The poset of the reachability closure, or None on a cycle, found before any mask changes;
    `succ` and its transpose `pred` are closed in place along one topological order."""
    order = source_order(nodes, succ, pred, itemgetter(0))
    if len(order) < len(nodes):
        return None
    # Backwards a node reaches its successors and all they reach; forwards, its predecessors'.
    for masks, walk in ((succ, order[::-1]), (pred, order)):
        for i in walk:
            for j in bits(masks[i]):
                masks[i] |= masks[j]
    return _closed_poset(nodes, succ, pred)


def _closed_poset(nodes: Sequence[str], succ: Sequence[int], pred: Sequence[int]) -> Poset:
    """The poset of masks already closed, acyclic and transposed, taken without verification."""
    poset = object.__new__(Poset)
    vars(poset).update(ground=tuple(nodes), succ=tuple(succ), pred=tuple(pred))
    return poset


def _closure(pairs: Sequence[Pair], node_order: Iterable[str] | None) -> Poset:
    """The closed poset of `pairs`, whose tokens are checked, over `node_order` (default: lexicographic)."""
    node_order = tuple(sorted({tok for pair in pairs for tok in pair}) if node_order is None else node_order)
    # A repeated node takes its last position, which orders its neighbours.
    last = {tok: i for i, tok in enumerate(node_order)}
    nodes = sorted(last, key=last.__getitem__)
    index = {tok: i for i, tok in enumerate(nodes)}
    succ, pred, stray = _masks(pairs, index)
    # Self-loops are cycles here, reported like any other.
    _reject([p for p in stray if p[0] not in index or p[1] not in index], index)
    closed = _close(nodes, succ, pred)
    if closed is None:
        raise ClosureCreatesReflexivePair(_shortest_cycle(nodes, succ, map(index.get, node_order)))
    return closed


def transitive_closure(
    pairs: Iterable[Pair], node_order: Iterable[str] | None = None
) -> frozenset[Pair]:
    """Smallest transitively closed superset of `pairs`; idempotent.

    Raises :class:`InvalidToken` for the least bad token (non-strings
    first, by repr) and :class:`ClosureCreatesReflexivePair` on a cycle,
    naming a shortest one; `node_order`, lexicographic by default, fixes which.
    """
    plist = list(pairs)
    try:
        for x, y in plist:
            check_token(x)
            check_token(y)
    except InvalidToken:  # name the least bad token, not the first one read
        tokens = (tok for pair in plist for tok in pair)
        for tok in sorted(tokens, key=lambda t: (True, t) if isinstance(t, str) else (False, repr(t))):
            check_token(tok)
    return _closure(plist, node_order).relation


def validate(
    ground: Iterable[str], pairs: Iterable[Pair], auto_close: bool = False
) -> Poset:
    """Check raw pairs over a ground sequence and build the poset.

    Without `auto_close` this is `Poset(ground, pairs)`; with it the pairs
    pass the same checks and are then closed.  Every failure names a
    witness: a bad or duplicate ground token, the least non-string or stray
    pair, a shortest cycle, or the missing pair's triple.
    """
    if not auto_close:
        return Poset(ground, pairs)
    seq = check_ground(ground)
    index = {tok: i for i, tok in enumerate(seq)}
    succ, pred, stray = _masks(pairs, index)
    _reject(stray, index)
    closed = _close(seq, succ, pred)
    if closed is None:
        raise AntisymmetryViolation(_shortest_cycle(seq, succ, range(len(seq))))
    return closed


def restrict(poset: Poset, subset: Iterable[str]) -> Poset:
    """Sub-poset on `subset`: the relation intersected with subset x subset.

    Restriction of a closed relation is closed, so the result is read off
    the masks of the kept positions without a second verification.
    """
    sub = check_ground(subset)
    new = {poset.index(tok): k for k, tok in enumerate(sub)}
    succ = [sum(1 << new[j] for j in bits(poset.succ[i]) if j in new) for i in new]
    pred = [sum(1 << new[j] for j in bits(poset.pred[i]) if j in new) for i in new]
    return _closed_poset(sub, succ, pred)


def order_from_enumeration(sequence: Iterable[str]) -> LinearOrder:
    """Total order induced by an enumeration: earlier entries precede later ones.

    The induced strict pair set is exactly {(s_i, s_j) : i < j}; reflexive
    pairs stay implicit under the strict storage convention.
    """
    return LinearOrder(tuple(sequence))


def is_comparable(poset: Poset, x: str, y: str) -> bool:
    """True when x equals y or the relation orders them one way."""
    i, j = poset.index(x), poset.index(y)
    return x == y or bool((poset.succ[i] | poset.pred[i]) >> j & 1)


def incomparable_pairs(poset: Poset) -> list[Pair]:
    """Unordered incomparable pairs, normalized to ground order.

    Empty exactly when the poset is already total.
    """
    g = poset.ground
    full = (1 << len(g)) - 1
    return [
        (x, g[j])
        for i, x in enumerate(g)
        for j in bits(full & ~((2 << i) - 1) & ~(poset.succ[i] | poset.pred[i]))
    ]
