"""Independent reference implementations.

Each oracle takes a different route than the library: closure by
repeated relational composition instead of reachability search,
extension enumeration by filtering whole permutations instead of
backtracking, and by the walk that steps through every level one
position at a time instead of listing each free maximal tail with
`permutations`, extension counting by one dynamic program over the
downsets of the whole ground instead of one per comparability
component, density by a full double loop instead of consecutive-gap
checks and by bisecting sorted positions (`is_dense_by_bisect`, the
library's former routine, which also names the same witnesses) instead
of reading member labels along the order, incomparable pairs and
order-axiom witnesses by scanning pairs and triples of the pair set
instead of bitmasks, the seeded generator
one draw at a time instead of in lanes, linearization by shuffling
each candidate list in full instead of following one position through
the swaps (by counting unplaced predecessors, and by rescanning the
ground each step, which anchors the first), the relation and partition readers by checking every
token occurrence, collecting the ground in a second pass and cutting
partition blocks in their own `---` loop instead of one shared section
reader, and the ground check, the sequence and bijection readers and
the `Partition` and `Bijection` constructors by checking one token at a
time instead of one batch, the shortest-cycle witness of an acyclic
relation plus one back edge by distances from the edge's two ends and
a greedy walk instead of a breadth-first search from each start, the
shortest cycle of any digraph by searching every node instead of its
cyclic core alone, the front end for raw pairs by collecting every
stray pair and rejecting the least in a second function (`core._masks`
and `core._reject` before `_masks` rejected its own strays), and
the eight record classes by frozen dataclasses instead of one
hand-written base.  Agreement between the
routes is what the property tests assert.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import field, make_dataclass
from itertools import chain, islice, permutations
from typing import Iterator

from ordext import (
    AntisymmetryViolation,
    DuplicateElement,
    EmptyBlock,
    InvalidToken,
    LinearOrder,
    NotBijective,
    NotDisjoint,
    ParseError,
    Poset,
    TieBreakPolicy,
    UnknownElement,
    check_ground,
    check_token,
)

_MASK64 = (1 << 64) - 1


def reference_draws(seed):
    """The committed splitmix64 stream, one draw at a time, without end."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def reference_stream(seed, count):
    """The first `count` draws of the stream from `seed`."""
    return list(islice(reference_draws(seed), count))


def reference_shuffle(items, stream):
    """The committed Fisher-Yates pass, taking len(items) - 1 draws from `stream`."""
    items = list(items)
    draws = iter(stream)
    for i in range(len(items) - 1, 0, -1):
        j = next(draws) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def linearize_by_kahn(poset: Poset, policy: TieBreakPolicy) -> tuple[str, ...]:
    """Source removal over the pair set: an element is ready once every element
    paired below it is placed; each step lists the ready elements in ground order
    and takes the first of the policy's full arrangement of them (for the
    lexicographic kind the least token, which the full sort puts first)."""
    draws = reference_draws(policy.seed) if policy.kind == "seeded" else None
    position = {tok: i for i, tok in enumerate(poset.ground)}
    waiting = dict.fromkeys(poset.ground, 0)
    above: dict[str, list[str]] = {tok: [] for tok in poset.ground}
    for x, y in poset.relation:
        waiting[y] += 1
        above[x].append(y)
    ready = [tok for tok in poset.ground if not waiting[tok]]
    out: list[str] = []
    while ready:
        if policy.kind == "lexicographic":
            tok = min(ready)
        elif policy.kind == "seeded":
            tok = reference_shuffle(ready, draws)[0]
        else:
            tok = ready[0]
        ready.remove(tok)
        out.append(tok)
        for y in above[tok]:
            waiting[y] -= 1
            if not waiting[y]:
                insort(ready, y, key=position.__getitem__)
    return tuple(out)


def linearize_by_scan(poset: Poset, policy: TieBreakPolicy) -> tuple[str, ...]:
    """Source removal as plainly as it reads: each step rescans the whole ground for
    the unplaced elements with no unplaced predecessor and takes the first of the
    policy's full arrangement of them.  Quadratic; it anchors `linearize_by_kahn`."""
    draws = reference_draws(policy.seed) if policy.kind == "seeded" else None
    preds = {tok: set() for tok in poset.ground}
    for x, y in poset.relation:
        preds[y].add(x)
    out: list[str] = []
    placed: set[str] = set()
    while len(out) < len(poset.ground):
        ready = [tok for tok in poset.ground if tok not in placed and preds[tok] <= placed]
        if policy.kind == "lexicographic":
            ready = sorted(ready)
        elif policy.kind == "seeded":
            ready = reference_shuffle(ready, draws)
        out.append(ready[0])
        placed.add(ready[0])
    return tuple(out)


def shortest_cycle_by_search(nodes, succ, starts) -> list[str]:
    """A shortest cycle x, ..., x of the masks `succ`: a breadth-first search over
    every node from each start in turn, neighbours by position, first shortest kept."""
    best = None
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
            for nxt in range(len(nodes)):
                if succ[node] >> nxt & 1 and nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    return [nodes[i] for i in best]


def masks_and_strays(pairs, index):
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


def reject_stray(stray, index) -> None:
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


def stray_error(pairs, index, loops=False) -> Exception | None:
    """The error `reject_stray` raises for the strays of `pairs` over `index`, or None.  With
    `loops`, a self-loop on an element of `index` is no stray: it is a cycle, named elsewhere."""
    stray = masks_and_strays(pairs, index)[2]
    if loops:
        stray = [(x, y) for x, y in stray if not (isinstance(x, str) and x == y and x in index)]
    try:
        reject_stray(stray, index)
    except (InvalidToken, UnknownElement, AntisymmetryViolation) as exc:
        return exc
    return None


def closure_fixpoint(pairs) -> set[tuple[str, str]]:
    """Compose the relation with itself until nothing new appears."""
    rel = set(pairs)
    while True:
        new = {(x, z) for x, y in rel for w, z in rel if y == w} - rel
        if not new:
            return rel
        rel |= new


def closure_text(ground, pairs) -> str:
    """The canonical relation text of the closure of `pairs`, by a depth-first search from every
    element: the ground, `---`, then `x < y` for each x and each y it reaches, both in ground order."""
    position = {v: k for k, v in enumerate(ground)}
    succ = {v: set() for v in ground}
    for a, b in pairs:
        succ[a].add(b)
    lines = [*ground, "---"]
    for x in ground:
        reached, stack = set(), [x]
        while stack:
            for w in succ[stack.pop()] - reached:
                reached.add(w)
                stack.append(w)
        lines += [f"{x} < {y}" for y in sorted(reached, key=position.__getitem__)]
    return "\n".join(lines) + "\n"


def back_edge_cycle(nodes, pairs, back) -> tuple[str, ...]:
    """The shortest cycle a closure names when the back edge (y, x), x below y, joins the acyclic
    `pairs` over `nodes`, breadth-first searches starting at each node in turn.  Every cycle runs
    through the edge, so the shortest have 1 + d(x, y) edges and pass exactly the nodes s with
    d(x, s) + d(s, y) = d(x, y).  The first such s in `nodes` starts the witness, which is the
    shortest cycle through s whose nodes, by position in `nodes`, are lexicographically least."""
    position = {v: k for k, v in enumerate(nodes)}
    succ = {v: [] for v in nodes}
    pred = {v: [] for v in nodes}
    for a, b in chain(pairs, [back]):
        succ[a].append(b)
        pred[b].append(a)

    def distances(source, step):
        """Edge counts from `source` along `step`, layer by layer."""
        dist, frontier = {source: 0}, [source]
        while frontier:
            reached = []
            for v in frontier:
                for w in step[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        reached.append(w)
            frontier = reached
        return dist

    y, x = back
    from_x, to_y = distances(x, succ), distances(y, pred)
    length = from_x[y] + 1
    start = next(s for s in nodes if from_x.get(s, length) + to_y.get(s, length) == length - 1)
    to_start = distances(start, pred)
    cycle = [start]
    for left in range(length - 1, -1, -1):
        cycle.append(min((w for w in succ[cycle[-1]] if to_start.get(w) == left), key=position.__getitem__))
    return tuple(cycle)


def transitive_reduction(poset: Poset) -> set[tuple[str, str]]:
    """The closed pairs minus the two-step ones: the pairs with nothing strictly between."""
    rel = poset.relation
    after = {}
    for w, z in rel:
        after.setdefault(w, []).append(z)
    return set(rel) - {(x, z) for x, y in rel for z in after.get(y, ())}


def extensions_by_filter(poset: Poset) -> set[tuple[str, ...]]:
    """All linear extensions, found by filtering every permutation."""
    out = set()
    rel = poset.relation
    for perm in permutations(sorted(poset.ground)):
        pos = {tok: i for i, tok in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in rel):
            out.add(perm)
    return out


def extensions_by_walk(poset: Poset) -> Iterator[tuple[str, ...]]:
    """Token tuples of all linear extensions, lexicographic by ground position.

    The prefix of placed positions is the only stack, and the list of
    their tokens is pushed and popped with it.  It grows by the first
    position i that is unplaced with every predecessor placed,
    `placed & down[i] == pred[i]`; every position below the lowest
    unplaced one is placed and fails that test, so after a push the scan
    starts at the lowest unplaced position.  To backtrack, pop the last
    position k and resume the scan at k + 1.  Each order is found when it
    is asked for, in O(n) memory and with no depth limit.
    """
    g, pred = poset.ground, poset.pred
    n = len(g)
    down = [mask | 1 << i for i, mask in enumerate(pred)]
    prefix: list[int] = []
    tokens: list[str] = []
    placed = 0
    i = 0
    while True:
        if len(prefix) == n:
            yield tuple(tokens)
            i = n
        while i < n and placed & down[i] != pred[i]:
            i += 1
        if i < n:
            prefix.append(i)
            tokens.append(g[i])
            placed |= 1 << i
            i = (~placed & (placed + 1)).bit_length() - 1
        elif prefix:
            i = prefix.pop()
            del tokens[-1]
            placed ^= 1 << i
            i += 1
        else:
            return


def count_by_downsets(poset: Poset) -> int:
    """Extension count by dynamic programming over the downsets of the whole ground."""
    n = len(poset.ground)
    pred = poset.pred
    down = [mask | 1 << i for i, mask in enumerate(pred)]

    current: dict[int, int] = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, ways in current.items():
            for i in range(n):
                if mask & down[i] == pred[i]:
                    grown = mask | 1 << i
                    nxt[grown] = nxt.get(grown, 0) + ways
        current = nxt
    return current.get((1 << n) - 1, 0)


def dense_double_loop(t1, t2, order: LinearOrder, strict: bool) -> bool:
    """Density checked over every T2 pair, not just consecutive ones."""
    pos = order.positions
    witnesses = [pos[c] for c in t1]
    for a in t2:
        for b in t2:
            if pos[a] >= pos[b]:
                continue
            if strict:
                ok = any(pos[a] < w < pos[b] for w in witnesses)
            else:
                ok = any(pos[a] <= w <= pos[b] for w in witnesses)
            if not ok:
                return False
    return True


def is_dense_by_bisect(t1, t2, order: LinearOrder, strict: bool = True) -> bool:
    """Density over consecutive T2 positions, counting the T1 positions in each gap by
    bisection of the sorted positions; it raises what the library does, in the same order."""
    p1 = sorted(order.position(tok) for tok in check_ground(t1))
    p2 = sorted(order.position(tok) for tok in check_ground(t2))
    # hi(p1, right) - lo(p1, left) counts the T1 positions in the gap, open when strict.
    lo, hi = (bisect_right, bisect_left) if strict else (bisect_left, bisect_right)
    return all(lo(p1, left) < hi(p1, right) for left, right in zip(p2, p2[1:]))


def strict_order_axioms_hold(ground, rel) -> bool:
    """Irreflexivity, antisymmetry, transitivity by exhaustive triple scan."""
    for x in ground:
        if (x, x) in rel:
            return False
    for x in ground:
        for y in ground:
            if x != y and (x, y) in rel and (y, x) in rel:
                return False
    for x in ground:
        for y in ground:
            for z in ground:
                if (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                    return False
    return True


def incomparable_by_double_loop(poset: Poset) -> list[tuple[str, str]]:
    """Unordered incomparable pairs, the earlier ground element first."""
    g, rel = poset.ground, poset.relation
    return [
        (g[i], g[j])
        for i in range(len(g))
        for j in range(i + 1, len(g))
        if (g[i], g[j]) not in rel and (g[j], g[i]) not in rel
    ]


def first_two_cycle(ground, rel):
    """First (x, y, x) with x < y and y < x both in rel, x then y by ground index."""
    for x in ground:
        for y in ground:
            if x != y and (x, y) in rel and (y, x) in rel:
                return (x, y, x)
    return None


def first_unclosed_triple(ground, rel):
    """First (x, y, z) by ground index with x < y and y < z in rel but not x < z."""
    for x in ground:
        for y in ground:
            for z in ground:
                if (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                    return (x, y, z)
    return None


def is_total(ground, rel) -> bool:
    return all(
        x == y or (x, y) in rel or (y, x) in rel for x in ground for y in ground
    )


def _reference_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _reference_checked(tokens, path, lineno):
    try:
        return tuple(map(check_token, tokens))
    except InvalidToken as exc:
        raise ParseError(str(exc), path, lineno) from None


def _reference_one_token(line, path, lineno):
    fields = line.split()
    if len(fields) != 1:
        raise ParseError("expected one element per line", path, lineno)
    return _reference_checked(fields, path, lineno)[0]


def _reference_pair(line, path, lineno):
    if "<" not in line:
        raise ParseError("expected a pair written as 'x < y'", path, lineno)
    left, _, right = line.partition("<")
    if "<" in right:
        raise ParseError("more than one '<' on the line", path, lineno)
    return _reference_checked((left.strip(), right.strip()), path, lineno)


def parse_relation_reference(text, path=None):
    """The relation reader checking every token occurrence, ground in a second pass."""
    lines = _reference_lines(text)
    separators = [i for i, (_, line) in enumerate(lines) if line == "---"]
    if len(separators) > 1:
        lineno = lines[separators[1]][0]
        raise ParseError("more than one '---' separator", path, lineno)
    if separators:
        cut = separators[0]
        header, body = lines[:cut], lines[cut + 1 :]
    else:
        header, body = [], lines
    ground = [_reference_one_token(line, path, lineno) for lineno, line in header]
    pairs = [_reference_pair(line, path, lineno) for lineno, line in body]
    seen = set(ground)
    for tok in chain.from_iterable(pairs):
        if tok not in seen:
            ground.append(tok)
            seen.add(tok)
    return tuple(ground), pairs


def parse_partition_reference(text, path=None):
    """The partition reader cutting blocks in its own `---` loop."""
    lines = _reference_lines(text)
    blocks = []
    current = []
    for lineno, line in lines:
        if line == "---":
            blocks.append(tuple(current))
            current = []
        else:
            current.append(_reference_one_token(line, path, lineno))
    if lines:
        blocks.append(tuple(current))
    return partition_blocks_reference(blocks)


def check_ground_reference(tokens):
    """The ground check one token at a time, each token checked, then tested for a repeat."""
    seq = tuple(tokens)
    seen = set()
    for tok in seq:
        check_token(tok)
        if tok in seen:
            raise DuplicateElement(tok)
        seen.add(tok)
    return seq


def partition_blocks_reference(blocks):
    """The blocks `Partition` keeps, checked one token at a time in block order."""
    blocks = tuple(tuple(block) for block in blocks)
    owner = {}
    for i, block in enumerate(blocks, start=1):
        if not block:
            raise EmptyBlock(i)
        for tok in block:
            check_token(tok)
            if owner.get(tok) == i:
                raise DuplicateElement(tok)
            if tok in owner:
                raise NotDisjoint(tok, f"blocks {owner[tok]} and {i}")
            owner[tok] = i
    return blocks


def bijection_pairs_reference(pairs):
    """The pairs `Bijection` keeps, checked one pair at a time in input order."""
    pairs = tuple((y, x) for y, x in pairs)
    seen_domain = set()
    seen_image = set()
    for y, x in pairs:
        check_token(y)
        check_token(x)
        if y in seen_domain:
            raise NotBijective(f"{y!r} has two images", y)
        if x in seen_image:
            raise NotBijective(f"two elements map to {x!r}", x)
        seen_domain.add(y)
        seen_image.add(x)
    return pairs


def parse_sequence_reference(text, path=None):
    """The sequence reader checking each line's token as it reads it."""
    return tuple(_reference_one_token(line, path, lineno) for lineno, line in _reference_lines(text))


def parse_bijection_reference(text, path=None):
    """The bijection reader checking each mapping's tokens as it reads the line."""
    pairs = []
    for lineno, line in _reference_lines(text):
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            raise ParseError("expected a mapping written as 'y -> x'", path, lineno)
        pairs.append(_reference_checked((fields[0], fields[2]), path, lineno))
    return bijection_pairs_reference(pairs)


def _frozen(name, *fields):
    return make_dataclass(name, [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields], frozen=True)


# `@dataclass(frozen=True)` twins of the record classes, by class name.  A
# `Poset` compares and hashes by ground and successor masks and shows its
# ground and relation.
RECORD_REFERENCES = {
    "Poset": _frozen(
        "Poset", "ground", ("succ", field(repr=False)), ("pred", field(repr=False, compare=False)),
        ("relation", field(compare=False)),
    ),
    "LinearOrder": _frozen("LinearOrder", "sequence"),
    "ForcedPair": _frozen("ForcedPair", "first", "second"),
    "ExtensionCertificate": _frozen(
        "ExtensionCertificate", "input_relation", "output_order", ("forced", field(default=None))
    ),
    "Enumeration": _frozen("Enumeration", "orders", "truncated", "limit"),
    "Partition": _frozen("Partition", "blocks"),
    "Bijection": _frozen("Bijection", "pairs"),
    "TieBreakPolicy": _frozen("TieBreakPolicy", "kind", ("seed", field(default=None))),
}
