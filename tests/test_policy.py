"""The tie-break contract: parsing, validation, and the committed generator."""

import random

import pytest

from ordext import TieBreakPolicy
from ordext.policy import _MASK64, _SplitMix64, _breaker, _layout


def reference_stream(seed, count):
    # Independent restatement of the committed generator, kept in the
    # tests so any drift in the implementation fails loudly.
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_shuffle(items, stream):
    items = list(items)
    draws = iter(stream)
    for i in range(len(items) - 1, 0, -1):
        j = next(draws) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class TestParsing:
    def test_input(self):
        assert TieBreakPolicy.parse("input") == TieBreakPolicy.input_order()

    def test_lex(self):
        assert TieBreakPolicy.parse("lex") == TieBreakPolicy.lexicographic()

    def test_seed(self):
        assert TieBreakPolicy.parse("seed:42") == TieBreakPolicy.seeded(42)

    def test_seed_max(self):
        top = (1 << 64) - 1
        assert TieBreakPolicy.parse(f"seed:{top}").seed == top

    @pytest.mark.parametrize(
        "text",
        ["", "random", "seed:", "seed:abc", "seed:-1", "seed:18446744073709551616", "lexicographic"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            TieBreakPolicy.parse(text)


class TestConstruction:
    def test_seeded_requires_seed(self):
        with pytest.raises(ValueError):
            TieBreakPolicy("seeded")

    def test_plain_kinds_take_no_seed(self):
        with pytest.raises(ValueError):
            TieBreakPolicy("input-order", seed=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TieBreakPolicy("alphabetical")

    def test_seed_range(self):
        with pytest.raises(ValueError):
            TieBreakPolicy("seeded", seed=1 << 64)
        with pytest.raises(ValueError):
            TieBreakPolicy("seeded", seed=-1)


class TestGenerator:
    def test_frozen_vectors_seed_zero(self):
        gen = _SplitMix64(0)
        assert [gen.next() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_matches_reference_restatement(self):
        for seed in (0, 1, 42, 1234567, (1 << 64) - 1):
            gen = _SplitMix64(seed)
            assert [gen.next() for _ in range(20)] == reference_stream(seed, 20)


class TestArrange:
    def test_input_order_is_identity(self):
        breaker = TieBreakPolicy.input_order().start()
        assert breaker.arrange(["c", "a", "b"]) == ["c", "a", "b"]

    def test_lexicographic_sorts(self):
        breaker = TieBreakPolicy.lexicographic().start()
        assert breaker.arrange(["c", "a", "b"]) == ["a", "b", "c"]

    def test_seeded_frozen_value(self):
        breaker = TieBreakPolicy.seeded(42).start()
        assert breaker.arrange(["a", "b", "c", "d", "e"]) == ["b", "c", "a", "e", "d"]

    def test_seeded_matches_reference_shuffle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(0, 12)
            items = [f"t{i}" for i in range(n)]
            seed = rng.getrandbits(64)
            got = TieBreakPolicy.seeded(seed).start().arrange(items)
            want = reference_shuffle(items, reference_stream(seed, max(n - 1, 0)))
            assert got == want

    def test_seeded_stream_is_shared_across_calls(self):
        # Two calls on one breaker advance one stream; a fresh breaker
        # replays from the top.
        one = TieBreakPolicy.seeded(42).start()
        first, second = one.arrange("abcde"), one.arrange("abcde")
        again = TieBreakPolicy.seeded(42).start()
        assert again.arrange("abcde") == first
        stream = reference_stream(42, 8)
        assert second == reference_shuffle(list("abcde"), stream[4:])

    def test_seeded_is_permutation(self):
        rng = random.Random(11)
        for _ in range(30):
            items = [f"t{i}" for i in range(rng.randrange(0, 20))]
            got = TieBreakPolicy.seeded(rng.getrandbits(64)).start().arrange(items)
            assert sorted(got) == sorted(items)

    def test_pick_is_first_of_arrangement(self):
        breaker = TieBreakPolicy.lexicographic().start()
        assert breaker.pick(["c", "a", "b"]) == "a"

    def test_arrange_does_not_mutate_input(self):
        items = ["c", "a", "b"]
        TieBreakPolicy.seeded(3).start().arrange(items)
        assert items == ["c", "a", "b"]


class TestLayout:
    def test_no_policy_is_input_order(self):
        assert _breaker(None).policy == TieBreakPolicy.input_order()
        assert _layout(None, (["c", "a"], [], ["b"])) == ("c", "a", "b")

    def test_segments_share_one_stream_in_order(self):
        segments = (list("abcd"), [], list("efg"), list("hij"))
        breaker = TieBreakPolicy.seeded(42).start()
        want = tuple(tok for segment in segments for tok in breaker.arrange(segment))
        assert _layout(TieBreakPolicy.seeded(42), segments) == want
        assert _layout(TieBreakPolicy.seeded(42), segments[2:]) != want[4:]
