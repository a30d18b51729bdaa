"""Deterministic random instance generators shared by the test modules,
plus the checks that a poset or an order matches its verified twin and
the outcome of a call that is compared with a reference.

Everything is driven by a caller-supplied `random.Random`, so a fixed
seed reproduces the exact same instances.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from math import factorial, prod

import pytest

from ordext import LinearOrder, Poset, TieBreakPolicy, validate


def random_pairs(
    rng: random.Random, n: int, density: float | None = None
) -> tuple[list[str], list[tuple[str, str]]]:
    """A shuffled ground sequence of n elements and raw acyclic pairs over it.

    Edges are drawn over a hidden topological order, which keeps the
    input acyclic; the ground sequence is shuffled independently so the
    ground order carries no information about the relation.
    """
    if density is None:
        density = rng.random()
    topo = [f"e{i}" for i in range(n)]
    rng.shuffle(topo)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((topo[i], topo[j]))
    ground = [f"e{i}" for i in range(n)]
    rng.shuffle(ground)
    return ground, pairs


def random_poset(rng: random.Random, n: int, density: float | None = None) -> Poset:
    """A random poset on n elements: the closure of :func:`random_pairs`."""
    return validate(*random_pairs(rng, n, density), auto_close=True)


def scale_input(rng: random.Random, family: str, n: int):
    """A seeded input of `family` on n elements: its shuffled ground, its pairs in random order
    with two-step (redundant) and repeated ones mixed in, and the covers it is built from."""
    hidden = [f"v{k}" for k in rng.sample(range(10**6), n)]  # the order the pairs follow
    if family == "chain":
        covers = list(zip(hidden, hidden[1:]))
    elif family == "broom":  # a 20-element handle with every other element above its top
        covers = [*zip(hidden[:19], hidden[1:20]), *((hidden[19], leaf) for leaf in hidden[20:])]
    elif family == "layers":  # 4 layers, each element above 1-3 of the layer below
        layers = [hidden[k * n // 4 : (k + 1) * n // 4] for k in range(4)]
        covers = list(dict.fromkeys(
            (rng.choice(low), v) for low, high in zip(layers, layers[1:]) for v in high for _ in range(rng.randint(1, 3))
        ))
    elif family == "chains":  # disjoint chains of 30
        covers = [pair for k in range(0, n, 30) for pair in zip(hidden[k : k + 29], hidden[k + 1 : k + 30])]
    else:
        covers = []
    above = {}
    for a, b in covers:
        above.setdefault(a, []).append(b)
    two_step = [(a, c) for a, b in rng.sample(covers, len(covers) // 4) for c in above.get(b, [])[:1]]
    pairs = covers + two_step + rng.sample(covers, len(covers) // 10)
    rng.shuffle(pairs)
    ground = hidden.copy()
    rng.shuffle(ground)
    return ground, pairs, set(covers)


def chorded_cycle(rng: random.Random, n: int, chords: int):
    """Edges of one cycle through positions 0, ..., n - 1 plus `chords` chords across it, and cycles,
    each a list of positions along it: the long one, and for each chord the shorter one it closes,
    which with one chord are all its cycles."""
    edges, cycles = [((k - 1) % n, k) for k in range(n)], [[*range(n)]]
    for _ in range(chords):
        a = rng.randrange(n)
        b = (a + rng.randint(2, n - 1)) % n  # neither a nor the next position: a chord, no edge of the cycle
        edges.append((a, b))
        cycles.append([(b + k) % n for k in range((a - b) % n + 1)])
    return edges, cycles


def petal_hub(lengths: list[int]):
    """Edges of one cycle through position 0 and `length` other positions for each of `lengths`,
    and those cycles, which are all its cycles."""
    edges, cycles, n = [], [], 1
    for length in lengths:
        cycles.append([0, *range(n, n + length)])
        edges += zip(cycles[-1], [*cycles[-1][1:], 0])
        n += length
    return edges, cycles


def joined_cycles(m: int, tails: int):
    """Edges of two cycles a = 0, ..., m - 1 and b = m, ..., 2m - 1, joined by a_i -> b_i, with a path
    of `tails` further positions out of each b_i, and the two cycles, which are all its cycles."""
    a, b = [*range(m)], [*range(m, 2 * m)]
    edges = [*zip(a, a[1:] + a[:1]), *zip(b, b[1:] + b[:1]), *zip(a, b)]
    for k, j in enumerate(b):
        path = [j, *range(2 * m + k * tails, 2 * m + (k + 1) * tails)]
        edges += zip(path, path[1:])
    return edges, [a, b]


def named_digraph(rng: random.Random, edges: list[tuple[int, int]]):
    """Random names for the positions of `edges`: the names by position, a shuffled ground of
    them, and the named pairs in random order."""
    n = 1 + max(map(max, edges))
    names = [f"v{k}" for k in rng.sample(range(10**6), n)]
    pairs = [(names[i], names[j]) for i, j in edges]
    rng.shuffle(pairs)
    return names, rng.sample(names, n), pairs


def ordinal_sum_of_antichains(rng: random.Random, n: int, largest: int):
    """An ordinal sum of antichains of 1 to `largest` elements, n elements in all: its shuffled
    ground, the covers from each part to the next, and its count, the product of the parts'
    factorials."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(largest, n - sum(sizes))))
    names = iter(f"o{k}" for k in range(n))
    parts = [[next(names) for _ in range(size)] for size in sizes]
    covers = [(x, y) for low, high in zip(parts, parts[1:]) for x in low for y in high]
    return rng.sample([x for part in parts for x in part], n), covers, prod(map(factorial, sizes))


def assert_matches_verified(poset: Poset) -> None:
    """`poset` equals, hashes like, and holds the same masks, covers, pairs and
    repr as `Poset(ground, relation)`, which rebuilds the masks from the pairs
    and verifies every axiom."""
    verified = Poset(poset.ground, poset.relation)
    assert poset == verified
    assert hash(poset) == hash(verified)
    assert (poset.succ, poset.pred, poset._cover) == (verified.succ, verified.pred, verified._cover)
    assert poset.relation == verified.relation
    assert repr(poset) == repr(verified)


def assert_order_matches_verified(order: LinearOrder) -> None:
    """`order` holds a tuple, equals and hashes like `LinearOrder(sequence)`, which
    checks every token and rejects a repeated one, answers `positions` and `before`
    as that order does, and refuses assignment."""
    assert type(order.sequence) is tuple
    verified = LinearOrder(order.sequence)
    assert order == verified
    assert hash(order) == hash(verified)
    assert order.positions == verified.positions
    seq = order.sequence
    assert all(order.before(x, y) and not order.before(y, x) for x, y in zip(seq, seq[1:]))
    with pytest.raises(FrozenInstanceError):
        order.sequence = ()


def outcome(make, *args):
    """What `make(*args)` gives: its value (a partition's blocks, a bijection's
    pairs) or its error's class and message."""
    try:
        value = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return getattr(value, "blocks", getattr(value, "pairs", value))


def random_policy(rng: random.Random) -> TieBreakPolicy:
    roll = rng.randrange(3)
    if roll == 0:
        return TieBreakPolicy.input_order()
    if roll == 1:
        return TieBreakPolicy.lexicographic()
    return TieBreakPolicy.seeded(rng.getrandbits(64))


def diamond() -> Poset:
    return validate(
        ("0", "x", "y", "1"),
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
        auto_close=True,
    )


def chain(n: int) -> Poset:
    ground = tuple(f"c{i}" for i in range(n))
    pairs = [(ground[i], ground[i + 1]) for i in range(n - 1)]
    return validate(ground, pairs, auto_close=True)


def antichain(n: int) -> Poset:
    return validate(tuple(f"a{i}" for i in range(n)), [])
