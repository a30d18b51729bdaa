"""Core types and operations: validation, closure, restriction, queries."""

import random
from dataclasses import FrozenInstanceError
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from ordext import errors
from ordext import (
    AntisymmetryViolation,
    ClosureCreatesReflexivePair,
    DuplicateElement,
    ForcedPair,
    InvalidToken,
    LinearOrder,
    NotClosed,
    Poset,
    UnknownElement,
    check_ground,
    check_token,
    count_linear_extensions,
    enumerate_linear_extensions,
    extend_with_pair,
    format_relation,
    incomparable_pairs,
    is_comparable,
    linear_extension,
    order_from_enumeration,
    restrict,
    szpilrajn,
    transitive_closure,
    validate,
)
from ordext.cli import main
from ordext.core import _close, _closure, _masks, _valid_tokens, bits

from helpers import antichain, assert_matches_verified, chain, diamond, outcome, random_pairs, random_poset, scale_input
from oracles import (
    back_edge_cycle,
    check_ground_reference,
    closure_fixpoint,
    first_two_cycle,
    first_unclosed_triple,
    incomparable_by_double_loop,
    shortest_cycle_by_search,
    stray_error,
    strict_order_axioms_hold,
    transitive_reduction,
)


class TestTokens:
    @pytest.mark.parametrize("token", ["a", "node-1", "β", "x.y", "0", "->", "has#inside"])
    def test_accepts(self, token):
        assert check_token(token) == token

    @pytest.mark.parametrize(
        "token", ["", " ", "a b", "a\tb", "a\n", "x<y", "<", "#note", "---", 3, None]
    )
    def test_rejects(self, token):
        with pytest.raises(InvalidToken):
            check_token(token)

    def test_whitespace_verdict_matches_isspace_for_every_code_point(self):
        for code in range(0x110000):
            ch = chr(code)
            try:
                check_token("a" + ch)
                reason = None
            except InvalidToken as exc:
                reason = exc.reason
            assert (reason == "contains whitespace") == ch.isspace(), hex(code)

    def test_ground_rejects_duplicates(self):
        with pytest.raises(DuplicateElement) as info:
            check_ground(("a", "b", "a"))
        assert info.value.token == "a"

    def test_ground_keeps_order(self):
        assert check_ground(["c", "a", "b"]) == ("c", "a", "b")


class TestValidate:
    def test_single_element_empty_relation(self):
        poset = validate(("a",), [])
        assert poset.ground == ("a",)
        assert poset.relation == frozenset()

    def test_empty_ground(self):
        assert validate((), []).ground == ()

    def test_two_cycle_rejected(self):
        with pytest.raises(AntisymmetryViolation) as info:
            validate(("a", "b"), [("a", "b"), ("b", "a")])
        assert info.value.cycle == ("a", "b", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(AntisymmetryViolation) as info:
            validate(("a",), [("a", "a")])
        assert info.value.cycle == ("a", "a")

    def test_auto_close_example(self):
        poset = validate(("a", "b", "c"), [("a", "b"), ("b", "c")], auto_close=True)
        assert poset.relation == frozenset({("a", "b"), ("b", "c"), ("a", "c")})

    def test_auto_close_matches_fixpoint_oracle(self):
        rng = random.Random(20)
        for _ in range(200):
            poset = random_poset(rng, rng.randrange(0, 9))
            assert set(poset.relation) == closure_fixpoint(poset.relation)

    def test_not_closed_witness(self):
        with pytest.raises(NotClosed) as info:
            validate(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert info.value.triple == ("a", "b", "c")

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownElement) as info:
            validate(("a", "b"), [("a", "z")])
        assert info.value.token == "z"

    def test_duplicate_ground(self):
        with pytest.raises(DuplicateElement):
            validate(("a", "a"), [])

    @pytest.mark.parametrize("auto_close", [False, True])
    @pytest.mark.parametrize(
        "pairs, error, witness",
        [
            # Every ground token is valid, so a malformed pair token is a foreign endpoint.
            ([("a", "x<y")], UnknownElement, "x<y"),
            ([("a", "x<y"), ("a", "p q"), ("a", "#c")], UnknownElement, "#c"),
            ([("a", "x<y"), (None, "a"), (3, "a")], InvalidToken, 3),
            ([("a", "z"), ("b", "b"), ("a", "a")], AntisymmetryViolation, ("a", "a")),
        ],
    )
    def test_several_bad_pairs_name_one_witness_in_any_order(self, auto_close, pairs, error, witness):
        # The least non-string by repr, else the least stray pair, never the first one read.
        for order in permutations(pairs):
            with pytest.raises(error) as info:
                validate(("a", "b"), order, auto_close=auto_close)
            assert getattr(info.value, "cycle" if error is AntisymmetryViolation else "token") == witness

    def test_auto_close_cycle_names_shortest(self):
        with pytest.raises(AntisymmetryViolation) as info:
            validate(
                ("a", "b", "c", "d"),
                [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
                auto_close=True,
            )
        cycle = info.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}
        assert len(cycle) == 4

    def test_auto_close_self_loops_name_the_least_pair(self):
        with pytest.raises(AntisymmetryViolation) as info:
            validate(("b", "a"), [("a", "a"), ("b", "b")], auto_close=True)
        assert info.value.cycle == ("a", "a")

    def test_witness_is_stable_across_calls(self):
        def grab():
            with pytest.raises(NotClosed) as info:
                validate(
                    ("d", "c", "b", "a"),
                    [("d", "c"), ("c", "b"), ("b", "a")],
                )
            return info.value.triple

        assert len({grab() for _ in range(5)}) == 1

    def test_accepted_posets_satisfy_axioms(self):
        rng = random.Random(21)
        for _ in range(100):
            poset = random_poset(rng, rng.randrange(0, 9))
            assert strict_order_axioms_hold(poset.ground, poset.relation)


class Token(str):
    """A `str` subclass: a valid token like any other string."""


def _passes(token):
    try:
        check_token(token)
    except InvalidToken:
        return False
    return True


# Pieces of tokens: what `check_token` rejects, next to ASCII and Unicode whitespace.
_PIECES = [
    "a", "b", "-", "#", "<", "---", "", " ", "\t", "\n", "\r", "\x0b", "\x0c",
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
]
_STRINGS = st.lists(st.sampled_from(_PIECES), max_size=3).map("".join)
_ITEMS = st.one_of(_STRINGS, _STRINGS.map(Token), st.sampled_from([None, 1, b"a", ["a"]]))
_GOOD = st.sampled_from(["a", "b", "a-b", "a#", "--", "-", Token("c")])


class TestBatchTokenCheck:
    """The one-batch token check against `check_token` and the token-by-token ground loop of `oracles`."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.lists(_GOOD, max_size=6), st.lists(_ITEMS, max_size=2), st.integers(0, 6))
    def test_matches_check_token(self, good, items, at):
        # Up to six items: at most two from the whole alphabet, set among good ones.
        seq = tuple(good[:at] + items + good[at:])[:6]
        assert _valid_tokens(seq) == all(map(_passes, seq))
        assert outcome(check_ground, seq) == outcome(check_ground_reference, seq)


BUILDERS = pytest.mark.parametrize(
    "build", [Poset, validate, partial(validate, auto_close=True)], ids=["poset", "validate", "auto-close"]
)


class TestPosetType:
    @pytest.mark.parametrize(
        "rel, token",
        [({(3, "a"), ("b", "a")}, 3), ({(None, "a"), ("a", 7), (3, "b")}, 3), ({("a", None)}, None)],
    )
    def test_non_string_relation_token_is_invalid(self, rel, token):
        # Reported by least repr, so the witness does not depend on set order.
        with pytest.raises(InvalidToken) as info:
            Poset(("a",), frozenset(rel))
        assert (info.value.token, info.value.reason) == (token, "not a string")

    @BUILDERS
    @pytest.mark.parametrize(
        "rel, token",
        [
            ({(3, "a"), ("b", "a")}, 3),
            ({(None, "a"), ("a", 7), (3, "b")}, 3),
            ({("a", None)}, None),
            # An unhashable token is a stray like any non-string; a str subclass is no stray.
            ([(Token("a"), "b"), (["x"], "a")], ["x"]),
        ],
    )
    def test_non_string_relation_token_is_invalid_for_every_builder(self, build, rel, token):
        # Reported by least repr, so the witness does not depend on set order.
        with pytest.raises(InvalidToken) as info:
            build(("a",), rel)
        assert (info.value.token, info.value.reason) == (token, "not a string")

    @BUILDERS
    def test_str_subclass_tokens_are_tokens(self, build):
        poset = build((Token("a"), "b"), [(Token("a"), "b"), ("a", Token("b"))])
        assert poset.sorted_pairs() == [("a", "b")]

    def test_direct_construction_checks_closure(self):
        with pytest.raises(NotClosed):
            Poset(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))

    def test_sorted_pairs_follow_ground(self):
        poset = validate(("c", "b", "a"), [("c", "b"), ("b", "a"), ("c", "a")])
        assert poset.sorted_pairs() == [("c", "b"), ("c", "a"), ("b", "a")]

    def test_index(self):
        poset = validate(("b", "a"), [])
        assert poset.index("a") == 1
        with pytest.raises(UnknownElement):
            poset.index("z")

    def test_equality_is_structural(self):
        assert validate(("a", "b"), [("a", "b")]) == validate(("a", "b"), [("a", "b")])


def _raised(make, *args):
    """The error `make(*args)` raises, or None."""
    try:
        make(*args)
    except Exception as exc:
        return exc
    return None


def _named(exc):
    """An error's class, message and witness."""
    return type(exc), str(exc), getattr(exc, "token", None), getattr(exc, "cycle", None)


_ABC = ("a", "b", "c")
# Endpoints: the ground, foreign strings (some malformed), non-strings and unhashable lists.
_STRAY_STRINGS = ["a", "b", "c", "z", "x<y", "p q", "#c", ""]
_ENDPOINTS = st.sampled_from(_STRAY_STRINGS + [None, 0, 7, b"a", ["a"], ["b", 1]])
_RAW_PAIRS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_ABC), st.sampled_from(_ABC)),  # good pairs and self-loops
        st.sampled_from(_ABC).map(lambda tok: (tok, tok)),
        st.tuples(_ENDPOINTS, _ENDPOINTS),
    ),
    max_size=12,
)


class TestStrayRule:
    """Every builder names the stray `oracles.stray_error` names, the least after reading every
    pair, whatever the order of the pairs; a self-loop is a stray except where closing names it."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_RAW_PAIRS)
    def test_builders_name_the_least_stray(self, pairs):
        want = stray_error(pairs, {tok: i for i, tok in enumerate(_ABC)})
        for build in (Poset, validate, partial(validate, auto_close=True)):
            got = _raised(build, _ABC, pairs)
            if want is not None:
                assert _named(got) == _named(want)
            else:  # no stray, so no token error and no self-loop as a witness
                assert not isinstance(got, (InvalidToken, UnknownElement))
                assert not isinstance(got, AntisymmetryViolation) or len(got.cycle) > 2

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_RAW_PAIRS, st.lists(st.sampled_from(_STRAY_STRINGS), max_size=8))
    def test_closing_names_an_unknown_endpoint_before_any_cycle(self, pairs, node_order):
        want = stray_error(pairs, {tok: i for i, tok in enumerate(dict.fromkeys(node_order))}, loops=True)
        got = _raised(_closure, pairs, node_order)
        if want is not None:
            assert _named(got) == _named(want)
        else:
            assert got is None or isinstance(got, ClosureCreatesReflexivePair)
        # `transitive_closure` names a bad token first, so only an unknown endpoint is left.
        got = _raised(transitive_closure, pairs, node_order)
        if not _valid_tokens(tuple(tok for pair in pairs for tok in pair)):
            assert isinstance(got, InvalidToken)
        elif want is not None:
            assert isinstance(want, UnknownElement) and _named(got) == _named(want)
        else:
            assert got is None or isinstance(got, ClosureCreatesReflexivePair)


class TestClosure:
    def test_empty(self):
        assert transitive_closure([]) == frozenset()

    def test_single_step(self):
        assert transitive_closure([("a", "b"), ("b", "c")]) == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")}
        )

    def test_chain_gives_all_forward_pairs(self):
        pairs = [("x1", "x2"), ("x2", "x3"), ("x3", "x4")]
        names = ["x1", "x2", "x3", "x4"]
        expected = {
            (names[i], names[j]) for i in range(4) for j in range(i + 1, 4)
        }
        assert transitive_closure(pairs) == frozenset(expected)

    def test_idempotent(self):
        rng = random.Random(22)
        for _ in range(100):
            poset = random_poset(rng, rng.randrange(0, 9))
            once = transitive_closure(poset.relation)
            assert transitive_closure(once) == once

    def test_matches_fixpoint_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randrange(0, 9)
            topo = [f"e{i}" for i in range(n)]
            rng.shuffle(topo)
            pairs = [
                (topo[i], topo[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            assert transitive_closure(pairs) == frozenset(closure_fixpoint(pairs))

    def test_cycle_raises_with_witness(self):
        with pytest.raises(ClosureCreatesReflexivePair) as info:
            transitive_closure([("a", "b"), ("b", "a")])
        assert info.value.cycle[0] == info.value.cycle[-1]

    def test_bad_token(self):
        with pytest.raises(InvalidToken):
            transitive_closure([("a", "x<y")])

    @pytest.mark.parametrize(
        "pairs, token",
        [
            ([("a", "x<y"), ("a", "p q"), ("a", "#c")], "#c"),
            ([("a", "x<y"), (None, "b"), ("a", 7), ([1], "c")], 7),
        ],
    )
    def test_least_bad_token_is_named_in_any_order(self, pairs, token):
        # Non-strings first, by repr; otherwise the least invalid string.
        for order in permutations(pairs):
            with pytest.raises(InvalidToken) as info:
                transitive_closure(order)
            assert info.value.token == token

    def test_item_that_is_not_a_pair_raises_before_any_token_is_checked(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            transitive_closure([("a", ""), ("b", "c", "d")])
        with pytest.raises(TypeError, match="cannot unpack non-iterable int object"):
            transitive_closure([("a", 7), 5])

    def test_node_order_picks_the_cycle_witness(self):
        # Starts follow node_order, repeats included; the first shortest cycle wins.
        pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "d")]
        for node_order, cycle in (
            (("e", "a", "b", "c", "d", "e"), ("e", "d", "e")),
            (("a", "b", "c", "d", "e"), ("d", "e", "d")),
        ):
            with pytest.raises(ClosureCreatesReflexivePair) as info:
                transitive_closure(pairs, node_order=node_order)
            assert info.value.cycle == cycle

    def test_a_self_loop_beats_an_earlier_two_cycle(self):
        with pytest.raises(ClosureCreatesReflexivePair) as info:
            transitive_closure([("a", "b"), ("b", "a"), ("c", "c")])
        assert info.value.cycle == ("c", "c")

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 30), st.floats(0, 0.3), st.integers(0, 2**32))
    def test_cycle_witness_matches_a_search_of_every_node(self, n, density, seed):
        # Random digraphs with self-loops among the edges and at least one cycle, read by `_masks`
        # in shuffled order with some edges repeated; the starts are the nodes shuffled, some
        # repeated, as `node_order` may give them.
        rng = random.Random(seed)
        nodes = [f"v{i}" for i in range(n)]
        edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
        loop = rng.sample(range(n), rng.randint(1, n))
        edges += zip(loop, loop[1:] + loop[:1])
        edges += rng.choices(edges, k=rng.randrange(len(edges) + 1))
        rng.shuffle(edges)
        succ = [0] * n
        for i, j in edges:
            succ[i] |= 1 << j
        starts = rng.sample(range(n), n) + rng.choices(range(n), k=rng.randrange(3))
        rng.shuffle(starts)
        want = shortest_cycle_by_search(nodes, succ, starts)
        read = _masks([(nodes[i], nodes[j]) for i, j in edges], {tok: i for i, tok in enumerate(nodes)}, loops=True)
        with pytest.raises(ClosureCreatesReflexivePair) as info:
            _close(nodes, *read, ClosureCreatesReflexivePair, starts)
        assert list(info.value.cycle) == want


class TestRestrict:
    def test_diamond_to_chain(self):
        sub = restrict(diamond(), ("0", "x", "1"))
        assert sub.ground == ("0", "x", "1")
        assert sub.relation == frozenset({("0", "x"), ("x", "1"), ("0", "1")})

    def test_full_ground_is_identity(self):
        poset = diamond()
        assert restrict(poset, poset.ground) == poset

    def test_singleton(self):
        assert restrict(diamond(), ("x",)).relation == frozenset()

    def test_unknown_member(self):
        with pytest.raises(UnknownElement):
            restrict(diamond(), ("0", "z"))

    def test_restriction_stays_closed(self):
        rng = random.Random(24)
        for _ in range(100):
            poset = random_poset(rng, rng.randrange(1, 9))
            take = [tok for tok in poset.ground if rng.random() < 0.5]
            sub = restrict(poset, take)
            assert strict_order_axioms_hold(sub.ground, sub.relation)

    def test_duplicate_is_reported_before_unknown_member(self):
        with pytest.raises(DuplicateElement) as info:
            restrict(diamond(), ("z", "x", "x"))
        assert info.value.token == "x"

    def test_first_unknown_member_in_subset_order_is_named(self):
        with pytest.raises(UnknownElement) as info:
            restrict(diamond(), ("x", "q", "p"))
        assert info.value.token == "q"

    def test_long_chain_matches_verified(self):
        poset = chain(1000)
        for sub in (poset.ground[::2], random.Random(25).sample(poset.ground, 400)):
            kept = set(sub)
            verified = Poset(sub, combinations([tok for tok in poset.ground if tok in kept], 2))
            result = restrict(poset, sub)
            assert (result.succ, result.pred, result._cover) == (verified.succ, verified.pred, verified._cover)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 60), st.floats(0, 1), st.integers(0, 2**32), st.floats(0, 1))
    @example(60, 0.5, 1, 0.0)
    @example(60, 0.5, 2, 1.0)
    def test_matches_verified_filter(self, n, density, seed, keep):
        rng = random.Random(seed)
        poset = random_poset(rng, n, density)
        sub = [tok for tok in poset.ground if rng.random() < keep]
        rng.shuffle(sub)
        result = restrict(poset, sub)
        assert_matches_verified(result)
        kept = set(sub)
        assert result == Poset(sub, [(x, y) for x, y in poset.relation if x in kept and y in kept])


class TestOrderFromEnumeration:
    def test_three_elements(self):
        order = order_from_enumeration(("b1", "b2", "b3"))
        assert order.induced_pairs == frozenset(
            {("b1", "b2"), ("b1", "b3"), ("b2", "b3")}
        )

    def test_empty(self):
        assert len(order_from_enumeration(())) == 0

    def test_singleton(self):
        assert order_from_enumeration(("a",)).induced_pairs == frozenset()

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateElement):
            order_from_enumeration(("a", "a"))

    def test_before_and_positions(self):
        order = order_from_enumeration(("c", "a", "b"))
        assert order.before("c", "b")
        assert not order.before("b", "a")
        assert order.position("a") == 1
        with pytest.raises(UnknownElement):
            order.position("z")

    def test_contains(self):
        order = order_from_enumeration(("a", "b", "c"))
        assert order.contains([("a", "c"), ("b", "c")])
        assert not order.contains([("c", "a")])


class TestComparability:
    def test_diamond_incomparable_pair(self):
        assert not is_comparable(diamond(), "x", "y")

    def test_reflexive(self):
        assert is_comparable(diamond(), "x", "x")

    def test_chain(self):
        poset = validate(("a", "b"), [("a", "b")])
        assert is_comparable(poset, "a", "b")
        assert is_comparable(poset, "b", "a")

    def test_symmetric(self):
        rng = random.Random(25)
        for _ in range(50):
            poset = random_poset(rng, rng.randrange(1, 8))
            for x in poset.ground:
                for y in poset.ground:
                    assert is_comparable(poset, x, y) == is_comparable(poset, y, x)

    def test_unknown(self):
        with pytest.raises(UnknownElement):
            is_comparable(diamond(), "x", "z")

    def test_incomparable_pairs_antichain(self):
        assert incomparable_pairs(antichain(3)) == [
            ("a0", "a1"),
            ("a0", "a2"),
            ("a1", "a2"),
        ]

    def test_incomparable_pairs_chain_empty(self):
        assert incomparable_pairs(chain(5)) == []

    def test_incomparable_pairs_diamond(self):
        assert incomparable_pairs(diamond()) == [("x", "y")]

    def test_pairs_follow_ground_order(self):
        poset = validate(("b", "a"), [])
        assert incomparable_pairs(poset) == [("b", "a")]

    def test_complement_of_comparability(self):
        rng = random.Random(26)
        for _ in range(50):
            poset = random_poset(rng, rng.randrange(0, 8))
            listed = set(incomparable_pairs(poset))
            for i, x in enumerate(poset.ground):
                for y in poset.ground[i + 1 :]:
                    assert ((x, y) in listed) == (not is_comparable(poset, x, y))


class TestAgainstOraclesAtSize:
    """Seeded cross-checks of the bitmask paths at up to 40 elements."""

    def test_auto_close_and_closure_match_fixpoint(self):
        rng = random.Random(40)
        for _ in range(100):
            ground, pairs = random_pairs(rng, rng.randrange(10, 41), rng.random() * 0.15)
            want = closure_fixpoint(pairs)
            assert set(validate(ground, pairs, auto_close=True).relation) == want
            assert set(transitive_closure(pairs, ground)) == want

    def test_incomparable_pairs_match_double_loop(self):
        rng = random.Random(41)
        for _ in range(60):
            poset = random_poset(rng, rng.randrange(10, 41), rng.random() * 0.15)
            assert incomparable_pairs(poset) == incomparable_by_double_loop(poset)

    def test_poset_raises_the_brute_force_witness(self):
        rng = random.Random(42)
        seen = {AntisymmetryViolation: 0, NotClosed: 0}
        while sum(seen.values()) < 2000:
            ground, pairs = random_pairs(rng, rng.randrange(2, 11))
            rel = closure_fixpoint(pairs) if rng.random() < 0.5 else set(pairs)
            for x, y in rng.sample(sorted(rel), min(len(rel), rng.choice((0, 0, 0, 1, 4)))):
                rel.add((y, x))
            if rel and rng.random() < 0.5:
                rel.discard(rng.choice(sorted(rel)))
            cycle = first_two_cycle(ground, rel)
            triple = first_unclosed_triple(ground, rel)
            if cycle is None and triple is None:
                continue
            expected = AntisymmetryViolation if cycle else NotClosed
            with pytest.raises(expected) as info:
                Poset(tuple(ground), frozenset(rel))
            if cycle:
                assert info.value.cycle == cycle
            else:
                assert info.value.triple == triple
            seen[expected] += 1
        assert min(seen.values()) > 500
        # Closed relations of up to 60 elements less one pair: unclosed exactly when the pair
        # was not a cover, and then the first missing pair's triple is the witness.
        raised = 0
        for _ in range(60):
            closed = random_poset(rng, rng.randrange(11, 61), rng.random() * 0.3)
            ground, rel = list(closed.ground), set(closed.relation)
            if not rel:
                continue
            rng.shuffle(ground)
            rel.discard(rng.choice(sorted(rel)))
            triple = first_unclosed_triple(ground, rel)
            if triple is None:
                assert Poset(tuple(ground), frozenset(rel)).relation == rel
                continue
            with pytest.raises(NotClosed) as info:
                Poset(tuple(ground), frozenset(rel))
            assert info.value.triple == triple
            raised += 1
        assert raised > 20


class TestScaleTier:
    """Closing at 500-3,000 elements, where the suite's other closing tests never go, against
    the verifying constructor, the covers each input is built from, the transitive-reduction
    oracle where it is cheap, and the shortest-cycle oracle once one back edge is added."""

    @pytest.mark.parametrize("family, n, seed", [
        ("chain", 600, 1), ("broom", 3000, 2), ("layers", 2000, 3), ("antichain", 3000, 4), ("chains", 1500, 5),
    ])
    def test_closing(self, family, n, seed):
        rng = random.Random(seed)
        ground, pairs, covers = scale_input(rng, family, n)
        poset = validate(ground, pairs, auto_close=True)
        verified = Poset(ground, poset.relation)
        assert (poset.succ, poset.pred, poset._cover) == (verified.succ, verified.pred, verified._cover)
        g = poset.ground
        assert {(x, g[j]) for x, mask in zip(g, poset._cover) for j in bits(mask)} == covers
        if family != "chain":  # the oracle composes every pair with its end's successors
            assert covers == transitive_reduction(poset)
        if not covers:
            return
        x, y = rng.choice(sorted(poset.relation))
        cycle = back_edge_cycle(ground, pairs, (y, x))
        with pytest.raises(ClosureCreatesReflexivePair) as closing:
            transitive_closure([*pairs, (y, x)], node_order=ground)
        with pytest.raises(AntisymmetryViolation) as validating:
            validate(ground, [*pairs, (y, x)], auto_close=True)
        assert closing.value.cycle == validating.value.cycle == cycle

    def test_back_edge_on_a_long_chain(self):
        # Only the witness: the verifying constructor of the chain alone would build 4.5M pairs.
        ground = [f"v{k}" for k in random.Random(6).sample(range(10**6), 3000)]
        pairs = list(zip(ground, ground[1:]))
        back = (ground[1501], ground[1500])  # a 2-cycle in the middle
        cycle = back_edge_cycle(ground, pairs, back)
        with pytest.raises(ClosureCreatesReflexivePair) as closing:
            transitive_closure([*pairs, back], node_order=ground)
        with pytest.raises(AntisymmetryViolation) as validating:
            validate(ground, [*pairs, back], auto_close=True)
        assert closing.value.cycle == validating.value.cycle == cycle


class TestClosedPosetsMatchVerifiedOnes:
    """Closure results are assembled from the closed masks, not verified;
    the verifying constructor must agree with them at up to 60 elements."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 60), st.floats(0, 1), st.integers(0, 2**32))
    def test_auto_close(self, n, density, seed):
        ground, pairs = random_pairs(random.Random(seed), n, density)
        poset = validate(ground, pairs, auto_close=True)
        assert_matches_verified(poset)
        assert transitive_closure(pairs, ground) == poset.relation
        if n <= 30:
            assert set(poset.relation) == closure_fixpoint(pairs)


class TestIntake:
    """`_masks` reads each pair once and hands its rows, repeats dropped, to closing and verifying:
    shuffled pairs with repeats must give one set of masks and covers however they are built, and
    a cycle (a back edge, or a self-loop where closing lets one through) its shortest witness."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(1, 30), st.floats(0, 0.6), st.integers(0, 2**32))
    def test_shuffled_and_repeated_pairs(self, n, density, seed):
        rng = random.Random(seed)
        ground, pairs = random_pairs(rng, n, density)

        def scrambled(pairs):
            out = pairs + rng.choices(pairs, k=rng.randrange(len(pairs) + 1))
            rng.shuffle(out)
            return out

        raw, closed = scrambled(pairs), sorted(closure_fixpoint(pairs))
        built = [validate(ground, raw, auto_close=True), Poset(ground, scrambled(closed)), _closure(raw, ground)]
        assert len({(poset.ground, poset.succ, poset.pred, poset._cover) for poset in built}) == 1
        assert transitive_closure(raw, ground) == built[0].relation == frozenset(closed)
        loops = [(x, x) for x in rng.sample(ground, rng.randint(0, min(n, 2)))]
        back = [(y, x) for x, y in rng.sample(closed, min(len(closed), rng.randint(0 if loops else 1, 2)))]
        if not loops + back:
            return
        cyclic = scrambled(raw + loops + back)
        index = {tok: i for i, tok in enumerate(ground)}
        succ = [0] * n
        for x, y in cyclic:
            succ[index[x]] |= 1 << index[y]
        with pytest.raises(ClosureCreatesReflexivePair) as closing:
            transitive_closure(cyclic, ground)
        assert list(closing.value.cycle) == shortest_cycle_by_search(ground, succ, range(n))
        if not loops:  # validating rejects a self-loop as a stray, before any closing
            with pytest.raises(AntisymmetryViolation) as validating:
                validate(ground, cyclic, auto_close=True)
            assert validating.value.cycle == closing.value.cycle


class TestStoredForm:
    """A poset stores its ground and masks; its pairs are built only when
    `relation` is read."""

    @staticmethod
    def long_chain() -> Poset:
        poset = chain(1500)
        assert "relation" not in vars(poset)
        return poset

    @pytest.mark.parametrize(
        "op",
        [
            lambda p: restrict(p, p.ground[::2]),
            linear_extension,
            lambda p: count_linear_extensions(p, cap=len(p.ground)),
            lambda p: enumerate_linear_extensions(p, limit=2),
            incomparable_pairs,
            format_relation,
        ],
        ids=["restrict", "linearize", "count", "enumerate", "incomparable", "format"],
    )
    def test_operations_build_no_pairs(self, op):
        poset = self.long_chain()
        result = op(poset)
        assert "relation" not in vars(poset)
        if isinstance(result, Poset):
            assert "relation" not in vars(result)

    def test_extension_builds_no_pairs(self):
        ground = (*self.long_chain().ground, "z")
        poset = validate(ground, zip(ground, ground[1:-1]), auto_close=True)
        out = extend_with_pair(poset, ForcedPair("c1499", "z"))
        assert "relation" not in vars(poset)
        assert "relation" not in vars(out)

    def test_verified_poset_builds_no_pairs(self):
        assert "relation" not in vars(validate(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")]))

    def test_relation_view_is_the_sorted_pairs(self):
        for poset in (diamond(), validate(("c", "b", "a"), [("c", "b"), ("b", "a"), ("c", "a")]), antichain(3)):
            assert poset.relation == frozenset(poset.sorted_pairs())

    def test_repr_text(self):
        for poset in (diamond(), validate(("b", "a"), [("b", "a")]), restrict(diamond(), ("x", "1"))):
            assert repr(poset) == f"Poset(ground={poset.ground!r}, relation={poset.relation!r})"
        assert repr(validate(("b", "a"), [("b", "a")])) == "Poset(ground=('b', 'a'), relation=frozenset({('b', 'a')}))"
        assert repr(validate(("a",), [], auto_close=True)) == "Poset(ground=('a',), relation=frozenset())"

    @pytest.mark.parametrize("attr", ["ground", "succ", "pred", "relation"])
    def test_fields_are_frozen(self, attr):
        with pytest.raises(FrozenInstanceError):
            setattr(diamond(), attr, ())

    def test_one_shot_iterator_relation(self):
        pairs = [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1"), ("0", "1")]
        assert Poset(diamond().ground, iter(pairs)) == diamond()
        assert validate(diamond().ground, iter(pairs)) == diamond()
        assert validate(diamond().ground, iter(pairs[:4]), auto_close=True) == diamond()
        bad = [("a", "b"), ("b", "c")]
        with pytest.raises(NotClosed) as from_list:
            Poset(("a", "b", "c"), bad)
        for build in (Poset, validate):
            with pytest.raises(NotClosed) as from_iter:
                build(("a", "b", "c"), iter(bad))
            assert from_iter.value.args == from_list.value.args

    def test_relation_is_required(self):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'relation'"):
            Poset(("a", "b"))


class TestVerifyOnce:
    """Library results are assembled without `Poset.__post_init__`; only the
    public constructor and `validate` without closing run it."""

    def test_library_results_skip_the_verifier(self, monkeypatch):
        ground, pairs = ("a", "b", "c", "d"), [("a", "b"), ("b", "c")]
        poset = validate(ground, pairs, auto_close=True)

        def refuse(self, *args):
            raise AssertionError("verified a second time")

        monkeypatch.setattr(Poset, "__post_init__", refuse)
        assert validate(ground, pairs, auto_close=True) == poset
        assert transitive_closure(pairs, ground) == {("a", "b"), ("b", "c"), ("a", "c")}
        extended = extend_with_pair(poset, ForcedPair("c", "d"))
        assert ("a", "d") in extended.relation
        assert szpilrajn(poset, ForcedPair("d", "a")).output_order.sequence == ("d", "a", "b", "c")
        assert restrict(poset, ("c", "a")).sorted_pairs() == [("a", "c")]
        assert linear_extension(poset).sequence == ground
        with pytest.raises(AssertionError):
            Poset(ground, poset.relation)
        with pytest.raises(AssertionError):
            validate(ground, poset.relation)

    def test_cli_closure_skips_the_verifier(self, monkeypatch, tmp_path, capsys):
        def refuse(self, *args):
            raise AssertionError("verified a second time")

        monkeypatch.setattr(Poset, "__post_init__", refuse)
        target = tmp_path / "r.txt"
        target.write_text("a\nb\nc\nd\n---\na < b\nb < c\n", encoding="utf-8")
        assert main(["closure", str(target)]) == 0
        assert capsys.readouterr() == ("a\nb\nc\nd\n---\na < b\na < c\nb < c\n", "")

    def test_validate_without_closing_verifies_once(self, monkeypatch):
        ground, pairs = ("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")]
        closed = validate(ground, pairs, auto_close=True)
        calls = []
        verify = Poset.__post_init__

        def count(self, *args):
            calls.append(args)
            verify(self, *args)

        monkeypatch.setattr(Poset, "__post_init__", count)
        assert validate(ground, pairs) == closed
        assert len(calls) == 1


class TestLinearOrderType:
    def test_induced_pair_count(self):
        order = LinearOrder(tuple(f"s{i}" for i in range(6)))
        assert len(order.induced_pairs) == 15

    def test_duplicate_sequence_rejected(self):
        with pytest.raises(DuplicateElement):
            LinearOrder(("a", "b", "a"))


class TestErrorWitness:
    """`OrderError` keeps the witness keywords its subclasses hand it, as attributes and nothing else."""

    def test_base_keeps_keywords(self):
        exc = errors.OrderError("message", token="a", cycle=("a", "a"))
        assert (str(exc), exc.args, vars(exc)) == ("message", ("message",), {"token": "a", "cycle": ("a", "a")})

    @pytest.mark.parametrize("cls, args, witness", [
        ("InvalidToken", (5, "not a string"), {"token": 5, "reason": "not a string"}),
        ("DuplicateElement", ("a",), {"token": "a"}),
        ("UnknownElement", ("a",), {"token": "a"}),
        ("AntisymmetryViolation", (iter("aba"),), {"cycle": ("a", "b", "a")}),
        ("NotClosed", (["a", "b", "c"],), {"triple": ("a", "b", "c")}),
        ("ClosureCreatesReflexivePair", (["a", "a"],), {"cycle": ("a", "a")}),
        ("NotIncomparable", ("a", "b"), {"first": "a", "second": "b", "held": None}),
        ("NotIncomparable", ("a", "b", ("a", "b")), {"first": "a", "second": "b", "held": ("a", "b")}),
        ("NotDisjoint", ("a", "A and B"), {"token": "a", "where": "A and B"}),
        ("EmptySubset", ("A",), {"name": "A"}),
        ("EmptyBlock", (2,), {"index": 2}),
        ("NotBijective", ("not onto",), {"reason": "not onto", "token": None}),
        ("CapExceeded", (21, 20), {"size": 21, "cap": 20}),
    ])
    def test_subclass_witness(self, cls, args, witness):
        exc = getattr(errors, cls)(*args)
        assert isinstance(exc, errors.OrderError)
        assert vars(exc) == witness
        assert exc.args == (str(exc),)
