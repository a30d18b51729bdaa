"""Extension pipeline and its two oracles."""

import gc
import random
import sys
import tracemalloc
from collections import deque
from contextlib import contextmanager
from itertools import islice
from math import comb, factorial, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ordext import (
    CapExceeded,
    Enumeration,
    ExtensionCertificate,
    ForcedPair,
    LinearOrder,
    NotIncomparable,
    Poset,
    TieBreakPolicy,
    UnknownElement,
    count_linear_extensions,
    enumerate_linear_extensions,
    extend_with_pair,
    incomparable_pairs,
    is_comparable,
    linear_extension,
    restrict,
    szpilrajn,
    transitive_closure,
    validate,
)
from ordext.core import bits
from ordext.errors import _decimal, _integer
from ordext.extension import _TAILS_CAP, _extensions

from helpers import (
    antichain,
    assert_matches_verified,
    assert_order_matches_verified,
    chain,
    diamond,
    ordinal_sum_of_antichains,
    random_policy,
    random_poset,
    scale_input,
)
from oracles import (
    closure_fixpoint,
    count_by_downsets,
    extensions_by_filter,
    extensions_by_walk,
    is_total,
    linearize_by_kahn,
    linearize_by_scan,
    strict_order_axioms_hold,
    transitive_reduction,
)

def disjoint_chain_lengths(rng, n, max_downsets=4000):
    """Random chain lengths summing to n with at most `max_downsets` downsets."""
    while True:
        longest = rng.randrange(1, n + 1)
        lengths = []
        while sum(lengths) < n:
            lengths.append(rng.randrange(1, min(longest, n - sum(lengths)) + 1))
        if prod(length + 1 for length in lengths) <= max_downsets:
            return lengths


def disjoint_chains(lengths):
    ground, pairs = [], []
    for c, length in enumerate(lengths):
        links = [f"c{c}_{i}" for i in range(length)]
        ground.extend(links)
        pairs.extend(zip(links, links[1:]))
    return validate(ground, pairs, auto_close=True)


def ordinal_sum(parts):
    """The parts stacked in order: every element of a part below every later one."""
    ground, pairs = [], []
    for k, part in enumerate(parts):
        names = [f"p{k}_{tok}" for tok in part.ground]
        rename = dict(zip(part.ground, names))
        pairs.extend((rename[x], rename[y]) for x, y in part.relation)
        pairs.extend((x, y) for x in ground for y in names)
        ground.extend(names)
    return validate(ground, pairs)


def rooted_forest(rng, n, max_downsets):
    """A random forest on n elements, each parent below its children: its covers, with the
    ground shuffled, and its count by the hook-length formula, n! / ∏ subtree sizes.  Drawn
    again until the forest has at most `max_downsets` downsets."""
    while True:
        parent = [rng.choice([None, *range(max(0, i - 3), i)]) for i in range(n)]
        size, downsets = [1] * n, [1] * n  # a subtree's downsets: none of it, or its root and some of each child's
        for i in reversed(range(n)):
            downsets[i] += 1
            if parent[i] is not None:
                size[parent[i]] += size[i]
                downsets[parent[i]] *= downsets[i]
        if prod(d for d, p in zip(downsets, parent) if p is None) <= max_downsets:
            break
    ground = [f"t{i}" for i in range(n)]
    covers = [(ground[p], ground[i]) for i, p in enumerate(parent) if p is not None]
    return rng.sample(ground, n), covers, factorial(n) // prod(size)


def series_parallel(rng, n, max_downsets):
    """A random series-parallel poset on n elements: its closed pairs, with the ground
    shuffled, and its count by the decomposition, e(P)·e(Q) for an ordinal sum and
    e(P)·e(Q)·C(|P| + |Q|, |P|) for a disjoint one.  Drawn again until it has at most
    `max_downsets` downsets, D(P) + D(Q) - 1 for a sum and D(P)·D(Q) for a union."""

    def build(lo, hi):
        if hi - lo == 1:
            return [], 1, 2
        cut = rng.randrange(lo + 1, hi)
        (lower, e_lower, d_lower), (upper, e_upper, d_upper) = build(lo, cut), build(cut, hi)
        if rng.random() < 0.6:
            across = [(x, y) for x in range(lo, cut) for y in range(cut, hi)]
            return lower + upper + across, e_lower * e_upper, d_lower + d_upper - 1
        return lower + upper, e_lower * e_upper * comb(hi - lo, cut - lo), d_lower * d_upper

    while True:
        pairs, count, downsets = build(0, n) if n else ([], 1, 1)
        if downsets <= max_downsets:
            break
    ground = [f"s{i}" for i in range(n)]
    return rng.sample(ground, n), [(ground[x], ground[y]) for x, y in pairs], count


def verified_enumeration(sequences, limit):
    """The enumeration that keeps the first `limit` of all the `sequences`, in order, each a
    verified `LinearOrder`, truncated when some are left."""
    sequences = list(sequences)
    return Enumeration(tuple(map(LinearOrder, sequences[:limit])), limit < len(sequences), limit)


@st.composite
def composed_pairs(draw, size):
    """Pairs over range(size): a random relation, or a disjoint union or
    ordinal sum of two smaller composed relations, lower labels first."""
    kind = draw(st.sampled_from(("random", "union", "sum"))) if size > 1 else "random"
    if kind == "random":
        topo = draw(st.permutations(range(size)))
        return {
            (topo[i], topo[j])
            for i in range(size)
            for j in range(i + 1, size)
            if draw(st.booleans())
        }
    left = draw(st.integers(1, size - 1))
    lower = draw(composed_pairs(left))
    upper = {(x + left, y + left) for x, y in draw(composed_pairs(size - left))}
    across = set() if kind == "union" else {(x, y) for x in range(left) for y in range(left, size)}
    return lower | upper | across


@st.composite
def composed_posets(draw, max_size):
    """A closed composed relation whose labels land at shuffled ground positions,
    so a component's members are scattered across the ground."""
    size = draw(st.integers(0, max_size))
    pairs = draw(composed_pairs(size))
    ground = [f"e{i}" for i in range(size)]
    name = draw(st.permutations(ground))
    return validate(ground, [(name[x], name[y]) for x, y in pairs], auto_close=True)


POLICIES = (
    TieBreakPolicy.input_order(),
    TieBreakPolicy.lexicographic(),
    TieBreakPolicy.seeded(99),
)


class TestForcedPair:
    def test_equal_endpoints_rejected(self):
        with pytest.raises(NotIncomparable):
            ForcedPair("a", "a")

    def test_fields(self):
        pair = ForcedPair("a", "b")
        assert (pair.first, pair.second) == ("a", "b")


class TestExtendWithPair:
    def test_adds_pair_only(self):
        poset = validate(("a", "b", "c"), [("a", "c")])
        out = extend_with_pair(poset, ForcedPair("a", "b"))
        assert out.relation == frozenset({("a", "c"), ("a", "b")})

    def test_closure_pulls_in_consequences(self):
        poset = validate(("a", "b", "c"), [("a", "c")])
        out = extend_with_pair(poset, ForcedPair("b", "a"))
        assert out.relation == frozenset({("a", "c"), ("b", "a"), ("b", "c")})

    def test_comparable_pair_rejected(self):
        poset = validate(("a", "b", "c"), [("a", "c")])
        with pytest.raises(NotIncomparable) as info:
            extend_with_pair(poset, ForcedPair("a", "c"))
        assert info.value.held == ("a", "c")

    def test_reverse_comparable_rejected(self):
        poset = validate(("a", "b"), [("a", "b")])
        with pytest.raises(NotIncomparable) as info:
            extend_with_pair(poset, ForcedPair("b", "a"))
        assert info.value.held == ("a", "b")

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownElement):
            extend_with_pair(validate(("a", "b"), []), ForcedPair("a", "z"))

    def test_ground_unchanged(self):
        poset = validate(("c", "a", "b"), [])
        assert extend_with_pair(poset, ForcedPair("b", "a")).ground == ("c", "a", "b")

    def test_minimality_matches_closure_oracle(self):
        rng = random.Random(30)
        for _ in range(150):
            poset = random_poset(rng, rng.randrange(2, 8))
            free = incomparable_pairs(poset)
            if not free:
                continue
            a, b = free[rng.randrange(len(free))]
            if rng.random() < 0.5:
                a, b = b, a
            out = extend_with_pair(poset, ForcedPair(a, b))
            want = closure_fixpoint(set(poset.relation) | {(a, b)})
            assert set(out.relation) == want
            assert set(out.relation) == set(
                transitive_closure(set(poset.relation) | {(a, b)})
            )


class TestAgainstOraclesAtSize:
    """Seeded cross-checks of the bitmask paths at up to 40 elements."""

    def test_extend_with_pair_matches_fixpoint(self):
        rng = random.Random(43)
        for _ in range(60):
            poset = random_poset(rng, rng.randrange(10, 41), rng.random() * 0.15)
            free = incomparable_pairs(poset)
            if not free:
                continue
            a, b = free[rng.randrange(len(free))]
            if rng.random() < 0.5:
                a, b = b, a
            out = extend_with_pair(poset, ForcedPair(a, b))
            assert set(out.relation) == closure_fixpoint(set(poset.relation) | {(a, b)})

    def test_linear_extension_contains_relation(self):
        rng = random.Random(44)
        for _ in range(40):
            poset = random_poset(rng, rng.randrange(10, 41))
            for policy in POLICIES:
                order = linear_extension(poset, policy)
                assert sorted(order.sequence) == sorted(poset.ground)
                assert order.contains(poset.relation)


class TestExtendedPosetsMatchVerifiedOnes:
    """`extend_with_pair` assembles its poset from the closed masks, not verified;
    the verifying constructor must agree with it at up to 60 elements."""

    @settings(max_examples=200)
    @given(st.integers(2, 60), st.floats(0, 0.2), st.integers(0, 2**32))
    def test_extend_with_pair(self, n, density, seed):
        rng = random.Random(seed)
        poset = random_poset(rng, n, density)
        free = incomparable_pairs(poset)
        assume(free)
        a, b = rng.choice(free)
        if rng.random() < 0.5:
            a, b = b, a
        out = extend_with_pair(poset, ForcedPair(a, b))
        assert_matches_verified(out)
        if n <= 30:
            assert set(out.relation) == closure_fixpoint(set(poset.relation) | {(a, b)})


class TestLinearExtensionMatchesKahnOracle:
    """`linear_extension` picks the seeded shuffle's first element without shuffling and
    builds its order unverified; the oracle shuffles every candidate list in full
    over the pair set, and the verifying constructor must agree with the order."""

    @staticmethod
    def check(poset, policy_seed):
        for policy in POLICIES + (TieBreakPolicy.seeded(policy_seed),):
            order = linear_extension(poset, policy)
            assert order.sequence == linearize_by_kahn(poset, policy)
            assert_order_matches_verified(order)

    @settings(max_examples=150)
    @given(st.integers(0, 60), st.floats(0, 0.3), st.integers(0, 2**32), st.integers(0, 2**64 - 1))
    def test_random_posets(self, n, density, seed, policy_seed):
        self.check(random_poset(random.Random(seed), n, density), policy_seed)

    @settings(max_examples=8)
    @given(st.integers(100, 300), st.integers(0, 2**64 - 1))
    def test_antichains(self, n, policy_seed):
        self.check(antichain(n), policy_seed)


    @settings(max_examples=100)
    @given(st.integers(0, 60), st.floats(0, 0.5), st.integers(0, 2**32), st.integers(0, 2**64 - 1))
    def test_kahn_oracle_matches_the_rescan(self, n, density, seed, policy_seed):
        """The incremental oracle keeps its ready list by counting predecessors; the
        rescan rebuilds it from the whole ground each step."""
        poset = random_poset(random.Random(seed), n, density)
        for policy in POLICIES + (TieBreakPolicy.seeded(policy_seed),):
            assert linearize_by_kahn(poset, policy) == linearize_by_scan(poset, policy)

class TestPolicyScaleTier:
    """Every policy against the Kahn oracle at 1,000-3,000 elements.  The broom is left
    out of the seeded kind, whose oracle would draw about 4.5M times there."""

    @pytest.mark.parametrize("family, n, kinds", [
        ("antichain", 1000, ("input-order", "lexicographic", "seeded")),
        ("layers", 2000, ("input-order", "lexicographic", "seeded")),
        ("broom", 3000, ("input-order", "lexicographic")),
    ])
    def test_linearize(self, family, n, kinds):
        poset = validate(*scale_input(random.Random(n), family, n)[:2], auto_close=True)
        for policy in POLICIES:
            if policy.kind in kinds:
                assert linear_extension(poset, policy).sequence == linearize_by_kahn(poset, policy)


class TestCoversAreTheTransitiveReduction:
    """`linear_extension` runs over the covers, and every poset is built with them: the one
    reach pass gives them to closed, verified and restricted posets alike, and
    `extend_with_pair` updates them."""

    @staticmethod
    def covers(poset):
        g = poset.ground
        return {(g[i], g[j]) for i, mask in enumerate(poset._cover) for j in bits(mask)}

    @settings(max_examples=150)
    @given(st.integers(0, 25), st.floats(0, 0.5), st.integers(0, 2**32), st.floats(0, 1))
    def test_every_way_a_poset_is_built(self, n, density, seed, keep):
        rng = random.Random(seed)
        closed = random_poset(rng, n, density)
        built = [closed, Poset(closed.ground, closed.relation)]
        built.append(restrict(closed, [tok for tok in closed.ground if rng.random() < keep]))
        for poset in built:  # closed, verified, restricted
            assert "_cover" in vars(poset)
        extended = rng.choice(built)
        while len(built) < 7 and (free := incomparable_pairs(extended)):
            extended = extend_with_pair(extended, ForcedPair(*rng.choice(free)[::rng.choice((1, -1))]))
            assert "_cover" in vars(extended)
            built.append(extended)
        for poset in built:
            assert self.covers(poset) == transitive_reduction(poset)


class TestTransferStep:
    """The finite shadow of the source paper's proof, which extends the order restricted to a
    finite set and transfers the result to the whole ground: a linear extension L_S of P
    restricted to S is the restriction of a linear extension of P, built by forcing each
    consecutive pair of L_S that is still incomparable, then linearizing."""

    @settings(max_examples=300)
    @given(st.integers(0, 60), st.floats(0, 0.12), st.integers(0, 2**32), st.floats(0, 1))
    def test_extension_of_a_restriction_transfers(self, n, density, seed, keep):
        rng = random.Random(seed)
        poset = random_poset(rng, n, density)
        subset = [tok for tok in rng.sample(poset.ground, n) if rng.random() < keep]
        local = linear_extension(restrict(poset, subset), random_policy(rng)).sequence
        chained = poset
        for x, y in zip(local, local[1:]):
            if not is_comparable(chained, x, y):
                chained = extend_with_pair(chained, ForcedPair(x, y))
        order = linear_extension(chained, random_policy(rng)).sequence
        kept = set(subset)
        assert tuple(tok for tok in order if tok in kept) == local
        position = {tok: k for k, tok in enumerate(order)}
        assert all(position[x] < position[y] for x, y in poset.relation)
        assert_matches_verified(chained)  # equal to Poset(ground, relation), masks and covers too
        assert TestCoversAreTheTransitiveReduction.covers(chained) == transitive_reduction(chained)


class TestWideAntichains:
    def test_lexicographic_and_input_order(self):
        rng = random.Random(36)
        ground = list(dict.fromkeys(f"t{rng.randrange(10**9)}" for _ in range(3000)))
        poset = validate(ground, [])
        assert linear_extension(poset, TieBreakPolicy.lexicographic()).sequence == tuple(sorted(ground))
        assert linear_extension(poset).sequence == tuple(ground)


class TestWalkMatchesTheStepwiseWalk:
    """Listing each free maximal tail by `permutations`, and reading each other tail of at most
    four positions from the walk's table, hands out exactly the orders, in the same order, of
    the walk that steps through every level one position at a time."""

    @staticmethod
    def poset(n, density, seed, tops_first):
        poset = random_poset(random.Random(seed), n, density)
        if tops_first:  # the ground listed in the reverse of a linear extension: maximal elements first
            poset = validate(linear_extension(poset).sequence[::-1], poset.relation)
        return poset

    @settings(max_examples=100)
    @given(st.integers(0, 9), st.floats(0, 0.6), st.integers(0, 2**32), st.booleans())
    def test_random_posets(self, n, density, seed, tops_first):
        poset = self.poset(n, density, seed, tops_first)
        assert list(_extensions(poset)) == list(extensions_by_walk(poset))

    @settings(max_examples=60)
    @given(st.integers(10, 16), st.floats(0, 0.6), st.integers(0, 2**32), st.booleans())
    def test_first_orders_of_larger_posets(self, n, density, seed, tops_first):
        poset = self.poset(n, density, seed, tops_first)
        assert list(islice(_extensions(poset), 3000)) == list(islice(extensions_by_walk(poset), 3000))

    def test_a_table_cleared_at_every_insert(self, monkeypatch):
        rng = random.Random(40)
        posets = [self.poset(rng.randrange(4, 17), rng.uniform(0, 0.6), rng.randrange(2**32), rng.random() < 0.5)
                  for _ in range(40)]
        want = [list(islice(_extensions(poset), 3000)) for poset in posets]
        monkeypatch.setattr("ordext.extension._TAILS_CAP", 1)
        assert [list(islice(_extensions(poset), 3000)) for poset in posets] == want


class TestTheTableOfTailsIsBounded:
    """The walk keeps at most `_TAILS_CAP` upsets in its table of tails, however many orders it
    hands out, so a streamed enumeration's memory does not grow with the orders it lists."""

    @staticmethod
    def hashes_and_table(poset, count):
        """The hash of each of the walk's first `count` orders, with its table's `cache_info()` after it."""
        walk = _extensions(poset)
        first = next(walk)
        info = walk.gi_frame.f_locals["tails"].cache_info  # made before the first order
        return [(hash(first), info()), *((hash(order), info()) for order in islice(walk, count - 1))]

    def test_the_table_drops_upsets_at_the_cap(self, monkeypatch):
        # 40 disjoint 2-chains: their first 10^5 orders reach 91 upsets of at most four positions.
        poset = disjoint_chains([2] * 40)
        want = self.hashes_and_table(poset, 10**5)
        assert {info.maxsize for _, info in want} == {_TAILS_CAP}
        assert 16 < max(info.currsize for _, info in want) <= _TAILS_CAP
        monkeypatch.setattr("ordext.extension._TAILS_CAP", 16)
        got = self.hashes_and_table(poset, 10**5)
        assert [order for order, _ in got] == [order for order, _ in want]
        assert max(info.currsize for _, info in got) == 16

    def test_streaming_holds_no_more_than_the_table(self):
        # Each order is dropped before the next is drawn, so the 10^5 orders, about 70 MB in all,
        # never add up.  A full table of 1,024 upsets, each of at most 12 tails of four tokens,
        # takes about 1.2 MB; with the 91 upsets of these orders the walk peaks at about 65 KB.
        poset = disjoint_chains([2] * 40)
        tracemalloc.start()
        try:
            deque(islice(_extensions(poset), 10**5), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000

    def test_the_walk_holds_only_its_table_after_streaming(self):
        # The peak above also counts the interpreter's free lists of tuples.  A full collection
        # empties them, so what is still allocated then is what the live walk keeps: its table of
        # 91 upsets and its stack, about 72 KB on Python 3.11, bounded here with 28 KB to spare.
        poset = disjoint_chains([2] * 40)
        gc.collect()  # so that no tuple the walk makes comes off a free list filled before tracing
        tracemalloc.start()
        try:
            walk = _extensions(poset)
            deque(islice(walk, 10**5), maxlen=0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert next(walk)  # the walk was alive while it was measured
        assert held < 100_000


class TestEnumeratedOrdersMatchVerifiedOnes:
    """The orders an enumeration builds in one batch are laid out as `LinearOrder` lays out one."""

    @settings(max_examples=60)
    @given(st.integers(0, 7), st.floats(0, 0.5), st.integers(0, 2**32))
    def test_enumerate(self, n, density, seed):
        for order in enumerate_linear_extensions(random_poset(random.Random(seed), n, density)):
            assert type(order) is LinearOrder
            assert vars(order) == vars(LinearOrder(order.sequence))
            assert_order_matches_verified(order)


class TestLinearExtension:
    def test_chain_is_rigid(self):
        poset = validate(("a", "b", "c"), [("a", "b"), ("b", "c")], auto_close=True)
        for policy in POLICIES:
            assert linear_extension(poset, policy).sequence == ("a", "b", "c")

    def test_antichain_lexicographic(self):
        poset = validate(("c", "a", "b"), [])
        order = linear_extension(poset, TieBreakPolicy.lexicographic())
        assert order.sequence == ("a", "b", "c")

    def test_antichain_input_order(self):
        poset = validate(("c", "a", "b"), [])
        assert linear_extension(poset).sequence == ("c", "a", "b")

    def test_diamond_lexicographic_is_valid_extension(self):
        got = linear_extension(diamond(), TieBreakPolicy.lexicographic()).sequence
        allowed = {o.sequence for o in enumerate_linear_extensions(diamond())}
        assert got in allowed

    def test_member_of_enumeration_for_all_policies(self):
        rng = random.Random(31)
        for _ in range(80):
            poset = random_poset(rng, rng.randrange(0, 8))
            allowed = {o.sequence for o in enumerate_linear_extensions(poset)}
            for policy in POLICIES + (TieBreakPolicy.seeded(rng.getrandbits(64)),):
                assert linear_extension(poset, policy).sequence in allowed

    def test_contains_input_relation(self):
        rng = random.Random(32)
        for _ in range(100):
            poset = random_poset(rng, rng.randrange(0, 10))
            order = linear_extension(poset, random_policy(rng))
            assert order.contains(poset.relation)
            assert sorted(order.sequence) == sorted(poset.ground)

    def test_deterministic_per_policy(self):
        poset = random_poset(random.Random(33), 9)
        for policy in POLICIES:
            assert linear_extension(poset, policy) == linear_extension(poset, policy)

    def test_seeds_reach_different_orders(self):
        poset = antichain(6)
        outputs = {
            linear_extension(poset, TieBreakPolicy.seeded(seed)).sequence
            for seed in range(20)
        }
        assert len(outputs) > 1


class TestSzpilrajn:
    def test_two_element_forced(self):
        cert = szpilrajn(validate(("a", "b"), []), ForcedPair("a", "b"))
        assert cert.output_order.sequence == ("a", "b")
        assert cert.verify()

    def test_comparable_forced_rejected(self):
        poset = validate(("a", "b"), [("a", "b")])
        with pytest.raises(NotIncomparable):
            szpilrajn(poset, ForcedPair("b", "a"))

    def test_diamond_forced_reversal(self):
        cert = szpilrajn(diamond(), ForcedPair("y", "x"))
        order = cert.output_order
        assert order.before("y", "x")
        assert order.contains(diamond().relation)
        assert cert.verify()

    def test_certificate_records_original_relation(self):
        poset = diamond()
        cert = szpilrajn(poset, ForcedPair("y", "x"))
        assert cert.input_relation == poset.relation
        assert cert.forced == ForcedPair("y", "x")

    @pytest.mark.parametrize("read", [lambda c, e: c == e, lambda c, e: hash(c) == hash(e),
                                      lambda c, e: repr(c) == repr(e), lambda c, e: c.verify() == e.verify()],
                             ids=["eq", "hash", "repr", "verify"])
    def test_certificate_builds_the_input_relation_when_read(self, read):
        rng = random.Random(37)
        for _ in range(20):
            poset = random_poset(rng, rng.randrange(2, 9))
            free = incomparable_pairs(poset)
            forced = ForcedPair(*free[0]) if free else None
            cert = szpilrajn(poset, forced, random_policy(rng))
            assert "input_relation" not in vars(cert)
            eager = ExtensionCertificate(poset.relation, cert.output_order, forced)
            assert read(cert, eager)
            assert vars(cert)["input_relation"] is poset.relation

    def test_no_forced_pair(self):
        poset = diamond()
        cert = szpilrajn(poset)
        assert cert.forced is None
        assert cert.verify()
        assert is_total(poset.ground, cert.output_order.induced_pairs)

    def test_pipeline_is_exactly_two_stages(self):
        rng = random.Random(34)
        for _ in range(60):
            poset = random_poset(rng, rng.randrange(2, 8))
            free = incomparable_pairs(poset)
            if not free:
                continue
            a, b = free[rng.randrange(len(free))]
            policy = random_policy(rng)
            forced = ForcedPair(a, b)
            cert = szpilrajn(poset, forced, policy)
            staged = linear_extension(extend_with_pair(poset, forced), policy)
            assert cert.output_order == staged

    def test_output_satisfies_total_order_axioms(self):
        rng = random.Random(35)
        for _ in range(60):
            poset = random_poset(rng, rng.randrange(0, 9))
            order = szpilrajn(poset, None, random_policy(rng)).output_order
            rel = order.induced_pairs
            assert strict_order_axioms_hold(order.sequence, rel)
            assert is_total(order.sequence, rel)


class TestCertificateVerify:
    def test_detects_missing_containment(self):
        cert = ExtensionCertificate(
            input_relation=frozenset({("a", "b")}),
            output_order=LinearOrder(("b", "a")),
        )
        assert not cert.verify()

    def test_detects_backward_forced_pair(self):
        cert = ExtensionCertificate(
            input_relation=frozenset(),
            output_order=LinearOrder(("a", "b")),
            forced=ForcedPair("b", "a"),
        )
        assert not cert.verify()

    def test_detects_foreign_elements(self):
        cert = ExtensionCertificate(
            input_relation=frozenset({("a", "z")}),
            output_order=LinearOrder(("a", "b")),
        )
        assert not cert.verify()


class TestEnumerate:
    def test_chain_of_five(self):
        result = enumerate_linear_extensions(chain(5))
        assert len(result) == 1
        assert not result.truncated

    def test_antichain_of_three(self):
        result = enumerate_linear_extensions(antichain(3))
        assert len(result) == 6
        assert not result.truncated

    def test_diamond(self):
        result = enumerate_linear_extensions(diamond())
        assert [o.sequence for o in result] == [
            ("0", "x", "y", "1"),
            ("0", "y", "x", "1"),
        ]

    def test_empty_poset_has_one_extension(self):
        result = enumerate_linear_extensions(validate((), []))
        assert [o.sequence for o in result] == [()]

    def test_canonical_order_is_lexicographic_by_ground_position(self):
        poset = antichain(4)
        gi = poset.ground_index
        seqs = [
            tuple(gi[t] for t in o.sequence)
            for o in enumerate_linear_extensions(poset)
        ]
        assert seqs == sorted(seqs)

    def test_truncation(self):
        result = enumerate_linear_extensions(antichain(4), limit=10)
        assert len(result) == 10
        assert result.truncated
        assert result.limit == 10

    def test_limit_exactly_total_is_not_truncated(self):
        result = enumerate_linear_extensions(antichain(3), limit=6)
        assert len(result) == 6
        assert not result.truncated

    def test_limit_zero(self):
        result = enumerate_linear_extensions(antichain(2), limit=0)
        assert len(result) == 0
        assert result.truncated
        assert result == Enumeration((), True, 0)

    def test_limit_past_maxsize_is_no_limit(self):
        poset = antichain(3)
        result = enumerate_linear_extensions(poset, limit=2**70)
        assert len(result) == 6
        assert not result.truncated
        assert result.limit == 2**70
        assert result == verified_enumeration(extensions_by_walk(poset), 2**70)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            enumerate_linear_extensions(antichain(2), limit=-1)

    def test_matches_permutation_filter_oracle(self):
        rng = random.Random(36)
        for _ in range(60):
            poset = random_poset(rng, rng.randrange(0, 7))
            got = {o.sequence for o in enumerate_linear_extensions(poset)}
            assert got == extensions_by_filter(poset)

    def test_limits_around_the_count_match_the_oracle(self):
        rng = random.Random(38)
        for n in [*range(10), *(rng.randrange(3, 8) for _ in range(20))]:
            poset = random_poset(rng, n)
            gi = poset.ground_index
            want = sorted(extensions_by_filter(poset), key=lambda seq: [gi[t] for t in seq])
            for limit in (len(want) - 1, len(want), len(want) + 1):
                result = enumerate_linear_extensions(poset, limit)
                assert [o.sequence for o in result] == want[:limit]
                assert result.truncated == (limit < len(want))

    @pytest.mark.parametrize("shape", ["2x4 chains", "3x3 chains", "sparse 12"])
    def test_limits_around_the_count_on_grounds_listing_tops_first(self, shape):
        # After a push the walk's scan starts at the lowest unplaced position, which stays low
        # while the tops listed first wait for what lies below them.
        if shape == "sparse 12":
            rng = random.Random(25)
            names = [f"s{i}" for i in range(12)]
            pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1:] if rng.random() < 0.3]
        else:
            k, length = (2, 4) if shape == "2x4 chains" else (3, 3)
            names = [f"c{i}_{j}" for i in range(k) for j in range(length)]
            pairs = [(f"c{i}_{j}", f"c{i}_{j + 1}") for i in range(k) for j in range(length - 1)]
        poset = validate(names[::-1], pairs, auto_close=True)
        gi = poset.ground_index
        if len(names) > 8:
            # Past 8! permutations the filter oracle is slow.  Distinct extensions, as many as the
            # downset count, ascending by ground position, are the whole sorted list.
            want = [o.sequence for o in enumerate_linear_extensions(poset)]
            assert len(set(want)) == len(want) == count_by_downsets(poset) > 1000
            assert all(LinearOrder(seq).contains(poset.relation) for seq in want)
            assert want == sorted(want, key=lambda seq: [gi[t] for t in seq])
        else:
            want = sorted(extensions_by_filter(poset), key=lambda seq: [gi[t] for t in seq])
        for limit in (len(want) - 1, len(want), len(want) + 1):
            result = enumerate_linear_extensions(poset, limit)
            assert [o.sequence for o in result] == want[:limit]
            assert result.truncated == (limit < len(want))

    def test_long_chain_needs_no_recursion(self):
        poset = chain(1500)
        result = enumerate_linear_extensions(poset, limit=1)
        assert [o.sequence for o in result] == [poset.ground]
        assert not result.truncated

    def test_limits_inside_a_free_tail(self):
        # Once a is placed, b and the five free elements are maximal: one tail of 6! = 720
        # orders; once c is placed first, a tail of 5! = 120 follows a.  2,520 orders in all.
        poset = validate(list("abcdefg"), [("a", "b")])
        want = list(extensions_by_walk(poset))
        assert len(want) == 2520
        for limit in (0, 1, 2, 719, 720, 721, 780, 2519, 2520, 2521):
            result = enumerate_linear_extensions(poset, limit)
            assert [o.sequence for o in result] == want[:limit]
            assert result.truncated == (limit < len(want))
            assert result == verified_enumeration(want, limit)
            assert hash(result) == hash(verified_enumeration(want, limit))

    def test_first_order_arrives_without_the_rest(self):
        # 30! orders: only a walk that stops when asked can return.
        poset = antichain(30)
        assert next(_extensions(poset)) == poset.ground
        result = enumerate_linear_extensions(poset, limit=2)
        assert [o.sequence[-2:] for o in result] == [("a28", "a29"), ("a29", "a28")]
        assert result.truncated

    def test_first_order_of_a_tail_partway_arrives_at_once(self):
        # Below a29 lies a0: once a0 is placed, the 29! orders of the rest are one free tail.
        poset = validate([f"a{i}" for i in range(30)], [("a0", "a29")])
        walk = _extensions(poset)
        assert next(walk) == poset.ground
        assert next(walk)[-2:] == ("a29", "a28")


class TestCount:
    def test_antichain_six(self):
        assert count_linear_extensions(antichain(6)) == 720

    def test_chain_plus_isolated(self):
        poset = validate(("a", "b", "c"), [("a", "b")])
        assert count_linear_extensions(poset) == 3

    def test_diamond(self):
        assert count_linear_extensions(diamond()) == 2

    def test_empty(self):
        assert count_linear_extensions(validate((), [])) == 1

    def test_cap_enforced(self):
        poset = chain(21)
        with pytest.raises(CapExceeded) as info:
            count_linear_extensions(poset)
        assert (info.value.size, info.value.cap) == (21, 20)

    def test_cap_override(self):
        assert count_linear_extensions(chain(21), cap=25) == 1

    def test_antichain_at_the_default_cap(self):
        assert count_linear_extensions(antichain(20)) == factorial(20)

    def test_ten_disjoint_two_chains(self):
        assert count_linear_extensions(disjoint_chains([2] * 10)) == factorial(20) // 2**10

    def test_dp_states_are_bounded_per_component(self):
        # 2^60 downsets of the whole ground; 60 one-element components.
        assert count_linear_extensions(antichain(60), cap=60) == factorial(60)

    @settings(max_examples=150)
    @given(composed_posets(max_size=14))
    def test_composed_posets_match_the_whole_ground_dp(self, poset):
        assert count_linear_extensions(poset) == count_by_downsets(poset)

    @settings(max_examples=100)
    @given(composed_posets(max_size=8))
    def test_composed_posets_match_both_enumerations(self, poset):
        got = count_linear_extensions(poset)
        assert got == count_by_downsets(poset)
        assert got == len(extensions_by_filter(poset))
        assert got == len(enumerate_linear_extensions(poset))

    def test_disjoint_chains_count_the_multinomial(self):
        # Interleavings of chains of lengths l_i: n! / prod(l_i!).  Chains
        # of lengths l_i have prod(l_i + 1) downsets, kept to a few thousand.
        rng = random.Random(38)
        for n in range(1, 21):
            for _ in range(3):
                lengths = disjoint_chain_lengths(rng, n)
                want = factorial(n)
                for length in lengths:
                    want //= factorial(length)
                assert count_linear_extensions(disjoint_chains(lengths)) == want

    @pytest.mark.parametrize("n", [500, 1500, 3000])
    def test_disjoint_chains_at_scale(self, n):
        # Chains of 30 (the last one shorter), the cap raised to the ground: the multinomial.
        poset = validate(*scale_input(random.Random(n), "chains", n)[:2], auto_close=True)
        want = factorial(n)
        for k in range(0, n, 30):
            want //= factorial(min(30, n - k))
        assert count_linear_extensions(poset, cap=n) == want

    def test_ordinal_sum_counts_the_product(self):
        rng = random.Random(39)
        for _ in range(40):
            parts = [random_poset(rng, rng.randrange(0, 7)) for _ in range(rng.randrange(1, 4))]
            want = prod(len(extensions_by_filter(part)) for part in parts)
            assert count_linear_extensions(ordinal_sum(parts)) == want

    # The closed forms below hold at any size.  At n = 17-20 the shapes are drawn with few
    # downsets, so the DP finishes quickly; at n <= 9 the enumeration, whose tails of at most
    # four elements come from its table, must list as many orders.
    CLOSED_FORM_SIZES = [*range(17, 21), *range(17, 21), *range(17, 21), *range(0, 10)]

    @staticmethod
    def check_closed_form(poset, want):
        assert count_linear_extensions(poset) == want
        if len(poset.ground) <= 9:
            assert len(enumerate_linear_extensions(poset)) == want

    def test_rooted_forests_and_their_duals_count_the_hook_length(self):
        rng = random.Random(41)
        for n in self.CLOSED_FORM_SIZES:
            ground, covers, want = rooted_forest(rng, n, max_downsets=20_000)
            self.check_closed_form(validate(ground, covers, auto_close=True), want)
            self.check_closed_form(validate(ground, [(y, x) for x, y in covers], auto_close=True), want)

    def test_ordinal_sums_of_antichains_count_the_product_of_factorials(self):
        rng = random.Random(42)
        for n in self.CLOSED_FORM_SIZES:
            ground, covers, want = ordinal_sum_of_antichains(rng, n, 8)
            self.check_closed_form(validate(ground, covers, auto_close=True), want)

    def test_series_parallel_posets_count_by_their_decomposition(self):
        rng = random.Random(43)
        for n in self.CLOSED_FORM_SIZES:
            ground, pairs, want = series_parallel(rng, n, max_downsets=20_000)
            self.check_closed_form(validate(ground, pairs), want)

    # Past the default cap: one component of up to 1,500 elements, the last a chain (parts of one
    # element).  An ordinal sum of parts of at most three elements has fewer than 8n downsets, so
    # the DP takes at most about 0.1 s.
    @pytest.mark.parametrize("n, largest", [(150, 3), (300, 3), (450, 3), (600, 3), (1500, 1)])
    def test_ordinal_sums_of_small_antichains_past_the_cap(self, n, largest):
        ground, covers, want = ordinal_sum_of_antichains(random.Random(n), n, largest)
        assert count_linear_extensions(validate(ground, covers, auto_close=True), cap=n) == want

    def test_agrees_with_enumeration(self):
        rng = random.Random(37)
        for _ in range(100):
            poset = random_poset(rng, rng.randrange(0, 9))
            assert count_linear_extensions(poset) == len(
                enumerate_linear_extensions(poset)
            )


@pytest.mark.usefixtures("digit_cap_untouched")
class TestNumbersOfAnyLength:
    """Limits and caps past the interpreter's default cap of 4,300 digits on int-to-str conversion
    are written in full, and the cap, where it exists, is never changed."""

    HUGE = 10**5000 + 7
    DIGITS = "1" + "0" * 4999 + "7"

    def test_enumeration_repr(self):
        assert repr(enumerate_linear_extensions(chain(2), self.HUGE)) == (
            "Enumeration(orders=(LinearOrder(sequence=('c0', 'c1')),), truncated=False, limit=" + self.DIGITS + ")"
        )

    def test_negative_cap_is_exceeded(self):
        with pytest.raises(CapExceeded) as info:
            count_linear_extensions(chain(2), cap=-self.HUGE)
        assert str(info.value) == "ground size 2 exceeds the counting cap -" + self.DIGITS
        assert (info.value.size, info.value.cap) == (2, -self.HUGE)

    def test_negative_limit(self):
        with pytest.raises(ValueError, match="^limit must be nonnegative, got -" + self.DIGITS + "$"):
            enumerate_linear_extensions(chain(2), -self.HUGE)

    def test_digits_match_str_in_chunks(self):
        rng = random.Random(43)
        for size in (1, 639, 640, 641, 4300, 4301, 9000, 20000):
            digits = str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(size - 1))
            n = 0
            for k in range(0, size, 600):  # read 600 digits at a time, within any cap
                chunk = digits[k : k + 600]
                n = n * 10 ** len(chunk) + int(chunk)
            assert (_decimal(n), _decimal(-n)) == (digits, "-" + digits)
        assert (_decimal(0), _decimal(10**640), _decimal(10**640 - 1)) == ("0", "1" + "0" * 640, "9" * 640)


@contextmanager
def digit_cap(cap):
    """The interpreter's cap on the digits of an int converted to or from text set to `cap`
    (0: no cap) and then restored, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_digits_under_the_least_digit_cap():
    with digit_cap(640):
        assert _decimal(10**5000 + 7) == "1" + "0" * 4999 + "7"


def int_or_error(read, text):
    try:
        return read(text)
    except ValueError:
        return ValueError


# What a number's text is made of: digits (ASCII and not), signs, whitespace `int` strips and
# whitespace it does not (\x1c), single and double underscores, and letters.
_DIGITS = "0123456789"
_EXTRAS = [" ", "\t", "\n", "\x1c", "\xa0", "\u3000", "+", "-", "_", "__", "\u0663", "\u0967", "a", "x"]
_PREFIXES = ["", "", "-", "+", " -", "\u3000-", "\n+", "\x1c", "-_", "--", "_"]
_SUFFIXES = ["", "", "", " ", "\t\n", "\xa0", "\x1c", "_"]


@st.composite
def numeric_texts(draw):
    """A text of 1-9,000 characters: a run of digits, mostly long, between a prefix and a suffix
    of signs and whitespace, with a few extras put in at multiples of a sixteenth of its length,
    mostly the middle, where a reader cutting it into halves, quarters and so on cuts it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # the digits, drawn outside Hypothesis
    size = draw(st.one_of(st.integers(1, 30), st.integers(600, 8980)))
    text = rng.choices(_DIGITS, k=size)
    for _ in range(draw(st.integers(0, 4))):
        text.insert(len(text) * draw(st.one_of(st.just(8), st.integers(0, 16))) // 16, draw(st.sampled_from(_EXTRAS)))
    return draw(st.sampled_from(_PREFIXES)) + "".join(text) + draw(st.sampled_from(_SUFFIXES))


class TestIntegerReader:
    """`_integer` reads what `int` reads with no digit cap, and refuses what it refuses, under
    the default cap and the least one."""

    @settings(max_examples=400)
    @given(numeric_texts())
    @example("-" + "8" * 1301)  # a negative high half, one digit shorter than the low one
    @example(" -" + "9" * 1300)  # a sign after whitespace
    @example("7" * 700 + "_" + "3" * 700)  # a `_` just before the middle digit, where the cut falls
    @example("7" * 700 + " " + "3" * 700)  # a space there, which `int` refuses
    def test_matches_int_without_a_cap(self, text):
        with digit_cap(0):
            want = int_or_error(int, text)
        for cap in (4300, 640):
            with digit_cap(cap):
                assert int_or_error(_integer, text) == want
