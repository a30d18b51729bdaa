"""Finite strict partial and total orders over named elements.

Relations are stored in strict form: reflexive pairs stay implicit, so a
valid relation is an irreflexive, antisymmetric, transitively closed set
of ordered pairs over a ground sequence.  The ground keeps its input
order and doubles as the default tie-break source.  A `Poset` stores the
relation only as successor and predecessor bitmasks indexed by ground
position, plus each position's covers (the transitive reduction, which
linearization walks); its pairs are built on request.  Raw pairs are read
once, by `_masks`, which also lists each position's row (its distinct
successors in input order) and rejects the least stray after reading
them all; closing and verifying OR along those rows.  One reach pass,
`_reach`, gives successor masks and covers alike: `_close` closes `pred`
inside its plain Kahn queue, then runs the pass back along the queue's
order, or, when the queue stops short, raises its caller's error class
with a shortest cycle as witness before any successor mask changes;
`Poset` runs it over a copy of the masks it verifies, which are closed
exactly when the pass changes none, and `restrict` over the masks it
keeps.  Closing and linearizing keep separate loops:
`extension.linear_extension` ranks its frontier, which closing has no
use for.  The public constructors verify everything they are given;
results correct by construction are assembled by `_closed_poset` and
`_linear_order` (a batch of orders by `_linear_orders`) without a
second check.  Tokens are checked as one batch by `_valid_tokens` and
walked one by one only to name a witness.  All values are immutable
after construction and every operation is a pure function of its inputs.
"""

from collections import deque
from functools import cached_property
from itertools import combinations, compress, repeat
from typing import Iterable, Sequence

from .errors import (
    AntisymmetryViolation,
    ClosureCreatesReflexivePair,
    DuplicateElement,
    InvalidToken,
    NotClosed,
    UnknownElement,
    _decimal,
)

Pair = tuple[str, str]

DEFAULT_ENUM_LIMIT = 10**6

DEFAULT_COUNT_CAP = 20


class _Record:
    """Base of the frozen value types: `==` and `hash` over the values of `_fields`
    (for the same class only), a repr that names them, and no assignment or deletion
    of any attribute, raising `dataclasses.FrozenInstanceError` as a frozen dataclass
    does.  Constructors store their values in the instance dict directly."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={_decimal(value) if type(value) is int else repr(value)}"
            for name, value in zip(self._fields, self._values())
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded only when it is raised

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


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


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> list[int]:
    """Set-bit positions of `mask`, ascending; taken top first, so each step works on a shorter int."""
    out = []
    while mask:
        out.append(mask.bit_length() - 1)
        mask ^= 1 << out[-1]
    return out[::-1]


def _masks(pairs: Iterable[Pair], index: dict[str, int], loops: bool = False
           ) -> tuple[list[int], list[int], list[list[int]]]:
    """Successor and predecessor bitmasks of `pairs` over the positions in `index`, and each position's row:
    the distinct positions above it, in input order.  All are read before the least stray is rejected: the
    non-string with the least repr, else the least stray pair's first endpoint outside `index`, else its
    self-loop, which `loops` lets through as a cycle for the closing routine to name."""
    succ = [0] * len(index)
    pred = [0] * len(index)
    rows = [[] for _ in succ]
    stray = []
    for x, y in pairs:
        try:
            i, j = index[x], index[y]
        except (KeyError, TypeError):  # TypeError: an unhashable token, a stray like any non-string
            stray.append((x, y))
            continue
        succ[i] |= 1 << j
        pred[j] |= 1 << i
        rows[i].append(j)
        if i == j and not loops:
            stray.append((x, y))
    if stray:
        odd = [tok for pair in stray for tok in pair if not isinstance(tok, str)]
        if odd:
            raise InvalidToken(min(odd, key=repr), "not a string")
        x, y = min(stray)
        for tok in (x, y):
            if tok not in index:
                raise UnknownElement(tok)
        raise AntisymmetryViolation((x, x))
    # A repeated pair keeps only its first entry: Kahn's in-degrees are the `pred` popcounts.
    return succ, pred, [row if len(row) == mask.bit_count() else [*dict.fromkeys(row)] for row, mask in zip(rows, succ)]


def _reach(succ: list[int], order: Iterable[int], rows: Iterable[Iterable[int]]) -> list[int]:
    """Along `order`, OR into each mask, in place, the masks of its successors, which `rows` lists in
    step with `order`, and return each position's covers: the successors no other successor reaches.
    Along a reverse topological order this closes the masks; on closed masks it changes nothing."""
    cover = [0] * len(succ)
    for i, row in zip(order, rows):
        reach = 0
        for j in row:
            reach |= succ[j]
        cover[i] = succ[i] & ~reach
        succ[i] |= reach
    return cover


class Poset(_Record):
    """A ground sequence plus a strict, antisymmetric, transitively closed relation.

    `Poset(ground, relation)` verifies every invariant and raises a
    witness-carrying error otherwise; use :func:`validate` to build from
    raw pairs, optionally closing them first.  The stored form is `succ`,
    `pred` and `_cover`, for each ground position the bitmask of the
    positions strictly above, below and directly above it; `relation` is
    built on request.  Equality and hashing read `ground` and `succ`.
    """

    _fields = ("ground", "succ")
    ground: tuple[str, ...]
    succ: tuple[int, ...]
    pred: tuple[int, ...]
    _cover: tuple[int, ...]

    def __init__(self, ground: Iterable[str], relation: Iterable[Pair]):
        self.__post_init__(ground, relation)

    def __post_init__(self, ground: Iterable[str], relation: Iterable[Pair]):
        object.__setattr__(self, "ground", check_ground(ground))
        g = self.ground
        succ, pred, rows = _masks(relation, self.ground_index)
        for i, mask in enumerate(succ):
            if both := mask & pred[i]:
                raise AntisymmetryViolation((g[i], g[bits(both)[0]], g[i]))
        reached = succ.copy()
        cover = _reach(reached, range(len(g)), rows)
        if reached != succ:  # not closed: name the first missing pair's triple
            for i, mask in enumerate(succ):
                for j in bits(mask):
                    if missing := succ[j] & ~mask:
                        raise NotClosed((g[i], g[j], g[bits(missing)[0]]))
        vars(self).update(succ=tuple(succ), pred=tuple(pred), _cover=tuple(cover))

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


class LinearOrder(_Record):
    """A permutation of its ground; position decides every comparison."""

    _fields = ("sequence",)
    sequence: tuple[str, ...]

    def __init__(self, sequence: tuple[str, ...]):
        vars(self).update(sequence=check_ground(sequence))

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


def _linear_orders(sequences: list[tuple[str, ...]]) -> tuple[LinearOrder, ...]:
    """The orders of `sequences`, each as :func:`_linear_order` builds it, made and filled in C:
    no Python frame runs per order, and the fill is drained by a zero-length `deque`."""
    orders = tuple(map(object.__new__, repeat(LinearOrder, len(sequences))))
    deque(map(object.__setattr__, orders, repeat("sequence"), sequences), maxlen=0)
    return orders


def _shortest_cycle(nodes: Sequence[str], succ: Sequence[int], pred: Sequence[int], left: list[int],
                    starts: Iterable[int]) -> list[str]:
    """A shortest cycle x, ..., x of masks that hold one: breadth-first search
    from each start in turn, neighbours by position, first shortest kept.

    Only the core is searched: `left`, the nodes Kahn's queue left out,
    ascending, minus the sinks a reverse Kahn pass strips.  Every cycle lies
    in the core, and so does every node on a path from a core node back to
    it, so no node left out changes a search's parents or the cycle it
    returns.  `pred` within `left` is the input's: only queued nodes' masks
    were ORed into it.
    """
    core = sum(1 << i for i in left)
    outdegree = {i: (succ[i] & core).bit_count() for i in left}
    sinks = [i for i in left if not outdegree[i]]
    for i in sinks:
        core ^= 1 << i
        for j in bits(pred[i] & core):
            outdegree[j] -= 1
            if not outdegree[j]:
                sinks.append(j)
    best: list[int] | None = None
    for start in starts:
        if not core >> start & 1:
            continue
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
            for nxt in bits(succ[node] & core):
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    return [nodes[i] for i in best]


def _close(nodes: Sequence[str], succ: list[int], pred: list[int], rows: list[list[int]], cycle: type,
           starts: Iterable[int]) -> Poset:
    """The poset of the reachability closure, or `cycle` raised on a shortest cycle from `starts`, found
    before any successor mask changes.  A node joins the plain queue once its last predecessor has, so
    `pred[i]` is closed when `i` is dequeued and ORed into its successors' there; `succ` is then closed
    in place back along the queue's topological order; `rows` are `succ`'s, as `_masks` lists them."""
    order = [i for i, mask in enumerate(pred) if not mask]
    indegree = [mask.bit_count() for mask in pred]
    for i in order:
        for j in rows[i]:
            pred[j] |= pred[i]
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < len(nodes):
        raise cycle(_shortest_cycle(nodes, succ, pred, [i for i, d in enumerate(indegree) if d], starts))
    order.reverse()
    cover = _reach(succ, order, map(rows.__getitem__, order))
    return _closed_poset(nodes, succ, pred, cover)


def _closed_poset(nodes: Sequence[str], succ: Sequence[int], pred: Sequence[int], cover: Sequence[int]) -> Poset:
    """The poset of masks already closed, acyclic and transposed, taken without verification;
    `cover`, its transitive reduction, comes from the reach pass or updates a poset's covers."""
    poset = object.__new__(Poset)
    vars(poset).update(ground=tuple(nodes), succ=tuple(succ), pred=tuple(pred), _cover=tuple(cover))
    return poset


def _closure(pairs: Sequence[Pair], node_order: Iterable[str] | None) -> Poset:
    """The closed poset of `pairs`, whose tokens are checked, over `node_order` (default: lexicographic)."""
    node_order = tuple(sorted({tok for pair in pairs for tok in pair}) if node_order is None else node_order)
    # A repeated node takes its last position, which orders its neighbours.
    last = {tok: i for i, tok in enumerate(node_order)}
    nodes = sorted(last, key=last.__getitem__)
    index = {tok: i for i, tok in enumerate(nodes)}
    succ, pred, rows = _masks(pairs, index, loops=True)  # a self-loop is a cycle here, named like any other
    return _close(nodes, succ, pred, rows, ClosureCreatesReflexivePair, map(index.get, node_order))


def transitive_closure(
    pairs: Iterable[Pair], node_order: Iterable[str] | None = None
) -> frozenset[Pair]:
    """Smallest transitively closed superset of `pairs`; idempotent.

    Raises :class:`InvalidToken` for the least bad token (non-strings
    first, by repr) and :class:`ClosureCreatesReflexivePair` on a cycle,
    naming a shortest one; `node_order`, lexicographic by default, fixes which.
    """
    plist = list(pairs)
    tokens = [tok for x, y in plist for tok in (x, y)]
    if not _valid_tokens(tuple(tokens)):  # name the least bad token, not the first one read
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
    return _close(seq, *_masks(pairs, index), AntisymmetryViolation, range(len(seq)))


def restrict(poset: Poset, subset: Iterable[str]) -> Poset:
    """Sub-poset on `subset`: the relation intersected with subset x subset.

    Restriction of a closed relation is closed, so the result is read off
    the masks of the kept positions without a second verification; one
    reach pass over them, which changes none, gives its covers.
    """
    sub = check_ground(subset)
    new = {poset.index(tok): k for k, tok in enumerate(sub)}
    succ = [sum(1 << new[j] for j in bits(poset.succ[i]) if j in new) for i in new]
    pred = [sum(1 << new[j] for j in bits(poset.pred[i]) if j in new) for i in new]
    return _closed_poset(sub, succ, pred, _reach(succ, range(len(sub)), map(bits, succ)))


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
    out: list[Pair] = []
    for i, x in enumerate(g):
        row = full & ~((2 << i) - 1) & ~(poset.succ[i] | poset.pred[i])
        if row:  # decoded in C: the row's binary digits, lowest first, select from the ground
            out += zip(repeat(x), compress(g, bin(row)[:1:-1].encode().translate(_DIGITS)))
    return out
