"""Bipartition, block-interval, and interleave constructions, plus density."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ordext import (
    Bijection,
    DuplicateElement,
    EmptyBlock,
    EmptySubset,
    NotBijective,
    NotDisjoint,
    OrderError,
    Partition,
    TieBreakPolicy,
    UnknownElement,
    bipartition_order,
    dense_interleave,
    is_dense,
    order_from_enumeration,
    partition_block_order,
)

from helpers import assert_order_matches_verified, outcome, random_policy
from oracles import (
    bijection_pairs_reference,
    dense_double_loop,
    is_dense_by_bisect,
    partition_blocks_reference,
)


class TestPartitionType:
    def test_blocks_kept_in_order(self):
        part = Partition((("a", "b"), ("c",)))
        assert part.blocks == (("a", "b"), ("c",))
        assert part.members() == {"a", "b", "c"}

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock) as info:
            Partition((("a",), ()))
        assert info.value.index == 2

    def test_overlap_rejected(self):
        with pytest.raises(NotDisjoint) as info:
            Partition((("a", "b"), ("b", "c")))
        assert info.value.token == "b"
        assert "blocks 1 and 2" in str(info.value)

    def test_duplicate_inside_block_rejected(self):
        with pytest.raises(DuplicateElement):
            Partition((("a", "a"),))

    def test_first_offending_token_decides_the_error(self):
        # Tokens are checked in order: an overlap met first wins over a
        # later duplicate, and a duplicate met first wins over a later overlap.
        with pytest.raises(NotDisjoint) as info:
            Partition((("x",), ("y", "x", "y")))
        assert info.value.token == "x"
        with pytest.raises(DuplicateElement) as info:
            Partition((("x",), ("y", "y", "x")))
        assert info.value.token == "y"


class TestBijectionType:
    def test_lookup(self):
        phi = Bijection((("y1", "x1"), ("y2", "x2")))
        assert phi("y1") == "x1"
        assert phi.as_dict == {"y1": "x1", "y2": "x2"}

    def test_double_image_rejected(self):
        with pytest.raises(NotBijective):
            Bijection((("y1", "x1"), ("y1", "x2")))

    def test_collision_rejected(self):
        with pytest.raises(NotBijective):
            Bijection((("y1", "x1"), ("y2", "x1")))

    def test_unknown_lookup(self):
        with pytest.raises(UnknownElement):
            Bijection((("y1", "x1"),))("y9")


# Block and pair members: good tokens, repeats, and ones `check_token` rejects.
_MEMBERS = st.sampled_from(["a", "b", "c", "d", "", "a b", "#x", "x<y", "---", None])


class TestTypesMatchReference:
    """`Partition` and `Bijection` against the `oracles` loops, which check one token at a time."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.lists(st.lists(_MEMBERS, max_size=4), max_size=4))
    def test_partition(self, blocks):
        assert outcome(Partition, blocks) == outcome(partition_blocks_reference, blocks)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.lists(st.tuples(_MEMBERS, _MEMBERS), max_size=5))
    def test_bijection(self, pairs):
        assert outcome(Bijection, pairs) == outcome(bijection_pairs_reference, pairs)


class TestBipartition:
    def test_single_elements(self):
        order = bipartition_order(("1", "2", "3", "4"), ("1",), ("2",))
        assert order.sequence == ("1", "3", "4", "2")

    def test_every_a_before_every_b(self):
        order = bipartition_order(
            ("1", "2", "3", "4", "5"), ("1", "2"), ("4", "5")
        )
        for x in ("1", "2"):
            for y in ("4", "5"):
                assert order.before(x, y)

    def test_overlap_rejected(self):
        with pytest.raises(NotDisjoint) as info:
            bipartition_order(("1", "2", "3"), ("1", "2"), ("2", "3"))
        assert info.value.token == "2"

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset) as info:
            bipartition_order(("1", "2"), (), ("2",))
        assert info.value.name == "A"
        with pytest.raises(EmptySubset):
            bipartition_order(("1", "2"), ("1",), ())

    def test_unknown_member(self):
        # The first unknown member in the subset's own order is named.
        with pytest.raises(UnknownElement) as info:
            bipartition_order(("1", "2", "3"), ("1", "9", "8"), ("2",))
        assert info.value.token == "9"

    def test_subset_file_order_does_not_matter(self):
        base = bipartition_order(("1", "2", "3", "4"), ("1", "2"), ("3", "4"))
        swapped = bipartition_order(("1", "2", "3", "4"), ("2", "1"), ("4", "3"))
        assert base == swapped

    def test_property_over_random_instances(self):
        rng = random.Random(40)
        for _ in range(150):
            n = rng.randrange(2, 12)
            ground = [f"g{i}" for i in range(n)]
            rng.shuffle(ground)
            picks = rng.sample(ground, rng.randrange(2, n + 1))
            cut = rng.randrange(1, len(picks))
            a, b = picks[:cut], picks[cut:]
            order = bipartition_order(ground, a, b, random_policy(rng))
            assert sorted(order.sequence) == sorted(ground)
            assert_order_matches_verified(order)
            for x in a:
                for y in b:
                    assert order.before(x, y)

    def test_seeded_is_deterministic(self):
        policy = TieBreakPolicy.seeded(5)
        args = (("1", "2", "3", "4", "5"), ("1", "2"), ("4", "5"))
        assert bipartition_order(*args, policy) == bipartition_order(*args, policy)

    def test_equals_block_order_of_a_middle_b(self):
        # With a nonempty middle, A | middle | B is a partition whose
        # leftover is empty, so both constructions lay out the same
        # segments with one breaker and must agree under every policy.
        rng = random.Random(42)
        for _ in range(2000):
            n = rng.randrange(3, 14)
            ground = [f"g{i}" for i in range(n)]
            rng.shuffle(ground)
            picks = rng.sample(ground, rng.randrange(2, n))
            cut = rng.randrange(1, len(picks))
            a, b = picks[:cut], picks[cut:]
            middle = tuple(t for t in ground if t not in picks)
            rng.shuffle(a)
            blocks = Partition((tuple(a), middle, tuple(b)))
            for policy in (
                TieBreakPolicy.input_order(),
                TieBreakPolicy.lexicographic(),
                TieBreakPolicy.seeded(rng.getrandbits(64)),
            ):
                assert bipartition_order(ground, a, b, policy) == partition_block_order(
                    ground, blocks, policy
                )


class TestBlockOrder:
    def test_example(self):
        order = partition_block_order(
            ("a", "b", "c", "d"), Partition((("a", "b"), ("c",)))
        )
        assert order.sequence == ("a", "b", "c", "d")

    def test_unknown_member(self):
        with pytest.raises(UnknownElement) as info:
            partition_block_order(("a", "b"), Partition((("a",), ("b", "z", "y"))))
        assert info.value.token == "z"

    def test_empty_partition_keeps_ground(self):
        order = partition_block_order(("b", "a"), Partition(()))
        assert order.sequence == ("b", "a")

    def test_blocks_are_ordered_intervals_with_leftover_last(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randrange(1, 12)
            ground = [f"g{i}" for i in range(n)]
            rng.shuffle(ground)
            pool = rng.sample(ground, rng.randrange(0, n + 1))
            blocks = []
            while pool:
                size = rng.randrange(1, len(pool) + 1)
                blocks.append(tuple(pool[:size]))
                pool = pool[size:]
            part = Partition(tuple(blocks))
            order = partition_block_order(ground, part, random_policy(rng))
            assert sorted(order.sequence) == sorted(ground)
            assert_order_matches_verified(order)
            leftover = tuple(t for t in ground if t not in part.members())
            ranges = []
            for group in [g for g in part.blocks + (leftover,) if g]:
                positions = sorted(order.position(t) for t in group)
                assert positions == list(range(positions[0], positions[0] + len(group)))
                ranges.append((positions[0], positions[-1]))
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi < lo


class TestInterleave:
    def test_example(self):
        phi = Bijection((("y1", "x1"), ("y2", "x2")))
        order = dense_interleave(("y1", "y2"), ("x1", "x2"), phi)
        assert order.sequence == ("y1", "x1", "y2", "x2")

    def test_density_on_example(self):
        phi = Bijection((("y1", "x1"), ("y2", "x2")))
        order = dense_interleave(("y1", "y2"), ("x1", "x2"), phi)
        assert is_dense(("x1", "x2"), ("y1", "y2"), order, strict=True)

    def test_cardinality_mismatch(self):
        phi = Bijection((("y1", "x1"),))
        with pytest.raises(NotBijective):
            dense_interleave(("y1", "y2"), ("x1",), phi)

    def test_overlap_rejected(self):
        phi = Bijection((("a", "a"),))
        with pytest.raises(NotDisjoint):
            dense_interleave(("a",), ("a",), phi)

    def test_missing_image(self):
        phi = Bijection((("y1", "x1"),))
        with pytest.raises(NotBijective) as info:
            dense_interleave(("y1", "y2"), ("x1", "x2"), phi)
        assert "y2" in str(info.value)

    def test_foreign_domain_key(self):
        phi = Bijection((("y9", "x1"),))
        with pytest.raises(UnknownElement):
            dense_interleave(("y1",), ("x1",), phi)

    def test_foreign_image_value(self):
        phi = Bijection((("y1", "x9"),))
        with pytest.raises(UnknownElement):
            dense_interleave(("y1",), ("x1",), phi)

    def test_y_occupies_alternating_positions(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(0, 20)
            ys = [f"y{i}" for i in range(n)]
            xs = [f"x{i}" for i in range(n)]
            images = xs[:]
            rng.shuffle(images)
            phi = Bijection(tuple(zip(ys, images)))
            order = dense_interleave(ys, xs, phi, random_policy(rng))
            assert len(order) == 2 * n
            assert_order_matches_verified(order)
            for pos, tok in enumerate(order.sequence):
                expected = "y" if pos % 2 == 0 else "x"
                assert tok.startswith(expected)
                if pos % 2 == 0:
                    assert order.sequence[pos + 1] == phi(tok)

    def test_density_for_random_bijections(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randrange(1, 51)
            ys = [f"y{i}" for i in range(n)]
            xs = [f"x{i}" for i in range(n)]
            images = xs[:]
            rng.shuffle(images)
            phi = Bijection(tuple(zip(ys, images)))
            order = dense_interleave(ys, xs, phi, random_policy(rng))
            assert is_dense(xs, ys, order, strict=True)


class TestIsDense:
    def test_vacuous_cases(self):
        order = order_from_enumeration(("a", "b", "c"))
        assert is_dense((), ("a",), order, strict=True)
        assert is_dense((), (), order, strict=True)
        assert is_dense(("b",), ("c",), order, strict=True)

    def test_adjacent_pair_strict_false(self):
        order = order_from_enumeration(("a", "b"))
        assert not is_dense(("a",), ("a", "b"), order, strict=True)

    def test_adjacent_pair_non_strict_true(self):
        order = order_from_enumeration(("a", "b"))
        assert is_dense(("a",), ("a", "b"), order, strict=False)

    def test_unknown_member(self):
        order = order_from_enumeration(("a", "b"))
        with pytest.raises(UnknownElement) as info:
            is_dense(("z",), ("a", "b"), order, strict=True)
        assert info.value.token == "z"

    def test_strict_between(self):
        order = order_from_enumeration(("a", "m", "b"))
        assert is_dense(("m",), ("a", "b"), order, strict=True)

    def test_agrees_with_double_loop(self):
        rng = random.Random(44)
        for _ in range(300):
            n = rng.randrange(1, 13)
            seq = [f"g{i}" for i in range(n)]
            rng.shuffle(seq)
            order = order_from_enumeration(seq)
            t1 = rng.sample(seq, rng.randrange(0, n + 1))
            t2 = rng.sample(seq, rng.randrange(0, n + 1))
            strict = rng.random() < 0.5
            assert is_dense(t1, t2, order, strict) == dense_double_loop(
                t1, t2, order, strict
            )

    def test_strict_implies_non_strict(self):
        rng = random.Random(45)
        for _ in range(100):
            n = rng.randrange(1, 13)
            seq = [f"g{i}" for i in range(n)]
            rng.shuffle(seq)
            order = order_from_enumeration(seq)
            t1 = rng.sample(seq, rng.randrange(0, n + 1))
            t2 = rng.sample(seq, rng.randrange(0, n + 1))
            if is_dense(t1, t2, order, strict=True):
                assert is_dense(t1, t2, order, strict=False)


@st.composite
def dense_cases(draw, faults):
    """An order of 0-12 elements with T1 and T2 drawn from it independently, so they often
    overlap; with `faults`, up to two unknown members may join T1 and T2 each, and T2 may
    repeat a member or hold a token no ground can."""
    n = draw(st.integers(0, 12))
    seq = draw(st.permutations([f"g{i}" for i in range(n)]))
    members = st.lists(st.sampled_from(seq), unique=True) if seq else st.builds(list)
    t1, t2 = draw(members), draw(members)
    if faults:
        for chosen, unknowns in ((t1, ("u1", "w1")), (t2, ("u2", "w2"))):
            for unknown in unknowns:
                if draw(st.booleans()):
                    chosen.insert(draw(st.integers(0, len(chosen))), unknown)
        bad = draw(st.sampled_from([None, "repeat", "", "a b", "#c", "x<y", "---", 7]))
        if bad == "repeat" and t2:
            t2.insert(draw(st.integers(0, len(t2))), draw(st.sampled_from(t2)))
        elif bad not in (None, "repeat"):
            t2.insert(draw(st.integers(0, len(t2))), bad)
    return order_from_enumeration(seq), t1, t2


def dense_outcome(check, t1, t2, order, strict):
    try:
        return check(t1, t2, order, strict)
    except OrderError as exc:
        return type(exc), exc.token, str(exc)


class TestIsDenseMatchesBisect:
    """Member labels read along the order decide density as bisecting sorted positions did,
    and a bad T1 or T2 raises the same class with the same token."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(dense_cases(faults=False), st.booleans())
    def test_random_cases(self, case, strict):
        order, t1, t2 = case
        assert is_dense(t1, t2, order, strict) == is_dense_by_bisect(t1, t2, order, strict)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(dense_cases(faults=True), st.booleans())
    def test_injected_faults(self, case, strict):
        order, t1, t2 = case
        got = dense_outcome(is_dense, t1, t2, order, strict)
        assert got == dense_outcome(is_dense_by_bisect, t1, t2, order, strict)
