"""The tie-break contract: parsing, validation, and the committed generator."""

import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from ordext import TieBreakPolicy, linear_extension, validate
from ordext.policy import _BLOCK, _IN_ORDER, _SplitMix64, _layout

from oracles import reference_draws, reference_shuffle, reference_stream


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

    def test_zero_padded_seed_past_the_digit_cap(self):
        # 5,001 digits, past the interpreter's default cap of 4,300, read as the CLI reads them.
        assert TieBreakPolicy.parse("seed:" + "0" * 5000 + "7") == TieBreakPolicy.seeded(7)

    def test_long_seed_names_the_range(self):
        huge = "9" * 5000
        with pytest.raises(ValueError, match="^seed out of unsigned 64-bit range: " + huge + "$"):
            TieBreakPolicy.parse("seed:" + huge)


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

    @pytest.mark.parametrize("seed", [1.5, 5.0, "5"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            TieBreakPolicy("seeded", seed)


class TestGenerator:
    def test_frozen_vectors_seed_zero(self):
        gen = _SplitMix64(0)
        assert [gen.draws(1)[0] for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_matches_reference_restatement(self):
        for seed in (0, 1, 42, 1234567, (1 << 64) - 1):
            gen = _SplitMix64(seed)
            assert [gen.draws(1)[0] for _ in range(20)] == reference_stream(seed, 20)

    @pytest.mark.parametrize("m", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_draws_match_reference(self, m):
        for seed in (0, 42, (1 << 64) - 1):
            gen = _SplitMix64(seed)
            assert gen.draws(m) == reference_stream(seed, m)
            assert gen.draws(m) == reference_stream(seed, 2 * m)[m:]

    def test_draws_interleave_with_next(self):
        # One-draw steps, draws(1), mixed with batches of other sizes.
        rng = random.Random(5)
        for _ in range(5):
            seed = rng.getrandbits(64)
            gen = _SplitMix64(seed)
            got = []
            for _ in range(30):
                if rng.random() < 0.5:
                    got += gen.draws(1)
                else:
                    got += gen.draws(rng.choice([0, 1, 2, 3, 17, _BLOCK + 1]))
            assert got == reference_stream(seed, len(got))

    @pytest.mark.parametrize("lanes", [1, 2, 16, 1024])
    def test_low_words_in_stream_order_in_both_byte_orders(self, lanes):
        # Each byte order's slice, on the 64-bit words a machine of that order reads from
        # the int's bytes: the other order's words are the native ones byte-swapped.
        rng = random.Random(lanes)
        lane = [rng.getrandbits(128) for _ in range(lanes)]
        z = sum(value << 128 * t for t, value in enumerate(lane))
        want = [value & (1 << 64) - 1 for value in lane]
        for order, words in _IN_ORDER.items():
            seen = array("Q", z.to_bytes(16 * lanes, order))
            if order != sys.byteorder:
                seen.byteswap()
            assert seen[words].tolist() == want

    def test_import_builds_no_lane_constants(self):
        # The lane constants are built on the first seeded draw, not at start-up.
        code = "import ordext.cli, ordext.policy; print(ordext.policy._lanes.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout == "0\n"


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
        # The element `linear_extension` places first among incomparable ones is the first
        # element of a fresh breaker's arrangement of the ground, for every kind.
        items = [f"t{i}" for i in range(30, 0, -1)]
        poset = validate(items, [])
        for policy in (TieBreakPolicy.input_order(), TieBreakPolicy.lexicographic(), TieBreakPolicy.seeded(3)):
            assert linear_extension(poset, policy).sequence[0] == policy.start().arrange(items)[0]

    def test_arrange_does_not_mutate_input(self):
        items = ["c", "a", "b"]
        TieBreakPolicy.seeded(3).start().arrange(items)
        assert items == ["c", "a", "b"]


class TestPick:
    """The pick among incomparable elements: `_first` names the position the reference
    shuffle puts first, and `linear_extension` takes the least rank for the plain kinds."""

    def test_seeded_is_first_of_reference_shuffle(self):
        rng = random.Random(13)
        for k in range(1, 41):
            for _ in range(5):
                seed = rng.getrandbits(64)
                items = [f"t{i}" for i in range(k)]
                rng.shuffle(items)
                breaker = TieBreakPolicy.seeded(seed).start()
                stream = reference_stream(seed, k - 1 + 5)
                assert items[breaker._first(len(items))] == reference_shuffle(items, stream)[0]
                # The next call reads on from draw k - 1: the choice spent exactly k - 1 draws.
                assert breaker.arrange("abcdef") == reference_shuffle("abcdef", stream[k - 1:])

    def test_plain_kinds(self):
        # Among incomparable elements, `linear_extension` places first the least token under
        # lexicographic order and the first in the ground under input order.
        rng = random.Random(17)
        for _ in range(50):
            items = rng.sample([f"t{i}" for i in range(100)], rng.randrange(1, 20))
            poset = validate(items, [])
            assert linear_extension(poset, TieBreakPolicy.lexicographic()).sequence[0] == min(items)
            assert linear_extension(poset, TieBreakPolicy.input_order()).sequence[0] == items[0]

    @pytest.mark.parametrize("policy", [
        TieBreakPolicy.input_order(), TieBreakPolicy.lexicographic(), TieBreakPolicy.seeded(9),
    ])
    def test_pick_does_not_mutate_input(self, policy):
        items = [f"t{i}" for i in range(30, 0, -1)]
        before = list(items)
        policy.start().arrange(items)
        linear_extension(validate(items, []), policy)
        assert items == before


class TestOneStream:
    """Draws, picks and arrangements on one breaker spend one stream in call order,
    at sizes that cross the refill sizes and _BLOCK, however the calls are mixed."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(st.tuples(st.sampled_from(["draws", "pick", "arrange"]),
                           st.one_of(st.integers(0, 40), st.integers(0, 3000))), max_size=8),
    )
    def test_calls_follow_the_reference(self, seed, calls):
        breaker = TieBreakPolicy.seeded(seed).start()
        stream = reference_draws(seed)
        for call, size in calls:
            if call == "draws":
                assert breaker._rng.draws(size) == [next(stream) for _ in range(size)]
                continue
            items = [f"t{i}" for i in range(max(size, 1))]
            want = reference_shuffle(items, stream)
            got = items[breaker._first(len(items))] if call == "pick" else breaker.arrange(items)
            assert got == (want[0] if call == "pick" else want)


class TestLayout:
    def test_no_policy_is_input_order(self):
        assert _layout(None, (["c", "a"], [], ["b"])) == ("c", "a", "b")

    def test_segments_share_one_stream_in_order(self):
        segments = (list("abcd"), [], list("efg"), list("hij"))
        breaker = TieBreakPolicy.seeded(42).start()
        want = tuple(tok for segment in segments for tok in breaker.arrange(segment))
        assert _layout(TieBreakPolicy.seeded(42), segments) == want
        assert _layout(TieBreakPolicy.seeded(42), segments[2:]) != want[4:]
