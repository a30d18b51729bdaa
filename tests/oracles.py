"""Independent reference implementations.

Each oracle takes a different route than the library: closure by
repeated relational composition instead of reachability search,
extension enumeration by filtering whole permutations instead of
backtracking, extension counting by one dynamic program over the
downsets of the whole ground instead of one per comparability
component, density by a full double loop instead of consecutive-gap
checks, incomparable pairs and order-axiom witnesses by scanning pairs
and triples of the pair set instead of bitmasks.  Agreement between the routes is what the property tests assert.
"""

from __future__ import annotations

from itertools import permutations

from ordext import LinearOrder, Poset


def closure_fixpoint(pairs) -> set[tuple[str, str]]:
    """Compose the relation with itself until nothing new appears."""
    rel = set(pairs)
    while True:
        new = {(x, z) for x, y in rel for w, z in rel if y == w} - rel
        if not new:
            return rel
        rel |= new


def extensions_by_filter(poset: Poset) -> set[tuple[str, ...]]:
    """All linear extensions, found by filtering every permutation."""
    out = set()
    rel = poset.relation
    for perm in permutations(sorted(poset.ground)):
        pos = {tok: i for i, tok in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in rel):
            out.add(perm)
    return out


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
