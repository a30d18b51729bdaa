"""Deterministic random instance generators shared by the test modules,
plus the checks that a poset or an order matches its verified twin and
the outcome of a call that is compared with a reference.

Everything is driven by a caller-supplied `random.Random`, so a fixed
seed reproduces the exact same instances.
"""

from __future__ import annotations

import random

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


def assert_matches_verified(poset: Poset) -> None:
    """`poset` equals, hashes like, and holds the same masks, pairs and repr as
    `Poset(ground, relation)`, which rebuilds the masks from the pairs and
    verifies every axiom."""
    verified = Poset(poset.ground, poset.relation)
    assert poset == verified
    assert hash(poset) == hash(verified)
    assert (poset.succ, poset.pred) == (verified.succ, verified.pred)
    assert poset.relation == verified.relation
    assert repr(poset) == repr(verified)


def assert_order_matches_verified(order: LinearOrder) -> None:
    """`order` holds a tuple and equals and hashes like `LinearOrder(sequence)`,
    which checks every token and rejects a repeated one."""
    assert type(order.sequence) is tuple
    verified = LinearOrder(order.sequence)
    assert order == verified
    assert hash(order) == hash(verified)


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
