"""File formats: parsing, diagnostics with positions, canonical serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import ordext.formats
from ordext import (
    EmptyBlock,
    NotBijective,
    ParseError,
    check_token,
    format_relation,
    parse_bijection,
    parse_partition,
    parse_relation,
    parse_sequence,
    validate,
)

from helpers import outcome, scale_input
from oracles import (
    closure_text,
    parse_bijection_reference,
    parse_partition_reference,
    parse_relation_reference,
    parse_sequence_reference,
)


class TestParseRelation:
    def test_pairs_only_first_appearance_ground(self):
        ground, pairs = parse_relation("b < c\na < b\n")
        assert ground == ("b", "c", "a")
        assert pairs == [("b", "c"), ("a", "b")]

    def test_header_then_pairs(self):
        text = "a\nb\nc\n---\na < b\n"
        ground, pairs = parse_relation(text)
        assert ground == ("a", "b", "c")
        assert pairs == [("a", "b")]

    def test_pair_only_elements_appended_after_header(self):
        text = "a\n---\nb < a\nb < c\n"
        ground, pairs = parse_relation(text)
        assert ground == ("a", "b", "c")

    def test_header_only(self):
        ground, pairs = parse_relation("x\ny\n---\n")
        assert ground == ("x", "y")
        assert pairs == []

    def test_empty_text(self):
        assert parse_relation("") == ((), [])

    def test_comments_and_blanks_ignored(self):
        text = "# deps\n\na < b\n  # trailing\n\nb < c\n"
        ground, pairs = parse_relation(text)
        assert pairs == [("a", "b"), ("b", "c")]

    def test_tight_spacing(self):
        assert parse_relation("a<b\n")[1] == [("a", "b")]

    def test_extra_spacing(self):
        assert parse_relation("  a   <   b  \n")[1] == [("a", "b")]

    def test_missing_angle(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a b\n", path="rel.txt")
        assert "rel.txt:1" in str(info.value)

    def test_two_angles(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a < b < c\n")
        assert "more than one '<'" in str(info.value)

    def test_empty_side(self):
        with pytest.raises(ParseError) as info:
            parse_relation("ok < fine\n< b\n", path="rel.txt")
        assert "rel.txt:2" in str(info.value)

    def test_second_separator_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a\n---\na < a\n---\n", path="rel.txt")
        assert "rel.txt:4" in str(info.value)

    def test_header_line_with_two_tokens(self):
        with pytest.raises(ParseError):
            parse_relation("a b\n---\n")

    def test_duplicates_left_for_validation(self):
        ground, pairs = parse_relation("a\na\n---\n")
        assert ground == ("a", "a")

    def test_bad_token_before_malformed_pair_wins(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a < b\nb < #c\nc < d\nd e\n", path="rel.txt")
        assert str(info.value) == (
            "rel.txt:2: invalid element token '#c': starts with '#', reserved for comments"
        )

    def test_malformed_pair_before_bad_token_wins(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a < b\nb c\nc < d\nd < #e\n", path="rel.txt")
        assert str(info.value) == "rel.txt:2: expected a pair written as 'x < y'"

    def test_malformed_pair_wins_over_its_own_bad_token(self):
        with pytest.raises(ParseError) as info:
            parse_relation("a < b\nc < #d < e\n", path="rel.txt")
        assert str(info.value) == "rel.txt:2: more than one '<' on the line"

    def test_each_distinct_token_checked_once(self, monkeypatch):
        calls = []

        def counting(token):
            calls.append(token)
            return check_token(token)

        # A valid file is checked as one batch; a bad one is walked in file order up to its witness.
        monkeypatch.setattr(ordext.formats, "check_token", counting)
        ground, _ = parse_relation("a\n---\na < b\nb < c\na < c\n")
        assert ground == ("a", "b", "c")
        assert calls == []
        with pytest.raises(ParseError) as info:
            parse_relation("a\n---\na < b\nb < c\nc < #d\na < e\n", path="rel.txt")
        assert str(info.value).startswith("rel.txt:5: invalid element token '#d'")
        assert calls == ["a", "b", "b", "c", "c", "#d"]


class TestParseSequence:
    def test_tokens_in_order(self):
        assert parse_sequence("c\na\nb\n") == ("c", "a", "b")

    def test_empty(self):
        assert parse_sequence("") == ()

    def test_comments_ignored(self):
        assert parse_sequence("# two\na\n\nb\n") == ("a", "b")

    def test_two_tokens_per_line_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_sequence("a b\n", path="seq.txt")
        assert "seq.txt:1" in str(info.value)

    def test_separator_not_a_token(self):
        with pytest.raises(ParseError):
            parse_sequence("a\n---\n")

    def test_bad_token_before_two_token_line_wins(self):
        with pytest.raises(ParseError) as info:
            parse_sequence("a<b\nc\nd e\n", path="seq.txt")
        assert str(info.value) == "seq.txt:1: invalid element token 'a<b': contains '<'"


class TestParsePartition:
    def test_blocks(self):
        part = parse_partition("a\nb\n---\nc\n")
        assert part.blocks == (("a", "b"), ("c",))

    def test_single_block_without_separator(self):
        assert parse_partition("a\nb\n").blocks == (("a", "b"),)

    def test_empty_file_is_empty_partition(self):
        assert parse_partition("").blocks == ()

    def test_comment_only_file_is_empty_partition(self):
        assert parse_partition("# blocks\n\n  # none yet\n").blocks == ()

    def test_lone_separator_makes_empty_first_block(self):
        for text in ("---\n", "---\na\n"):
            with pytest.raises(EmptyBlock) as info:
                parse_partition(text)
            assert info.value.index == 1

    def test_trailing_separator_makes_empty_block(self):
        with pytest.raises(EmptyBlock) as info:
            parse_partition("a\n---\n")
        assert info.value.index == 2

    def test_double_separator_makes_empty_block(self):
        with pytest.raises(EmptyBlock):
            parse_partition("a\n---\n---\nb\n")


class TestParseBijection:
    def test_mappings(self):
        phi = parse_bijection("y1 -> x1\ny2 -> x2\n")
        assert phi.pairs == (("y1", "x1"), ("y2", "x2"))

    def test_empty(self):
        assert parse_bijection("").pairs == ()

    def test_bad_arity(self):
        with pytest.raises(ParseError) as info:
            parse_bijection("y1 ->\n", path="phi.txt")
        assert "phi.txt:1" in str(info.value)

    def test_wrong_arrow(self):
        with pytest.raises(ParseError):
            parse_bijection("y1 => x1\n")

    def test_glued_arrow_is_one_token(self):
        with pytest.raises(ParseError):
            parse_bijection("y1->x1\n")

    def test_bad_token_before_malformed_mapping_wins(self):
        with pytest.raises(ParseError) as info:
            parse_bijection("y1 -> x1\ny2 -> #x2\ny3 -> x3\ny4 x4\n", path="phi.txt")
        assert str(info.value) == (
            "phi.txt:2: invalid element token '#x2': starts with '#', reserved for comments"
        )

    def test_malformed_mapping_before_bad_token_wins(self):
        with pytest.raises(ParseError) as info:
            parse_bijection("y1 -> x1\ny2 x2\ny3 -> x3\ny4 -> #x4\n", path="phi.txt")
        assert str(info.value) == "phi.txt:2: expected a mapping written as 'y -> x'"

    def test_duplicate_domain_is_domain_error(self):
        with pytest.raises(NotBijective):
            parse_bijection("y1 -> x1\ny1 -> x2\n")


class TestFormatRelation:
    def test_canonical_bytes(self):
        poset = validate(("c", "b", "a"), [("c", "a"), ("c", "b"), ("b", "a")])
        assert format_relation(poset) == "c\nb\na\n---\nc < b\nc < a\nb < a\n"

    def test_empty_poset(self):
        assert format_relation(validate((), [])) == "---\n"

    def test_round_trip(self):
        poset = validate(
            ("d", "b", "a", "c"), [("d", "b"), ("b", "a"), ("d", "a")]
        )
        ground, pairs = parse_relation(format_relation(poset))
        assert validate(ground, pairs) == poset

    def test_round_trip_preserves_isolated_elements(self):
        poset = validate(("lonely", "a", "b"), [("a", "b")])
        ground, _ = parse_relation(format_relation(poset))
        assert ground == ("lonely", "a", "b")


class TestFormatScaleTier:
    """The canonical text of closed posets at 1,000-3,000 elements, where the suite's other
    format tests never go, against the text of a closure found by a search from every element."""

    @pytest.mark.parametrize("family, n, seed", [
        ("chain", 1000, 1), ("broom", 3000, 2), ("layers", 2000, 3), ("antichain", 3000, 4), ("chains", 3000, 5),
    ])
    def test_text(self, family, n, seed):
        ground, pairs, _ = scale_input(random.Random(seed), family, n)
        assert format_relation(validate(ground, pairs, auto_close=True)) == closure_text(ground, pairs)


# Lines a relation, sequence or partition file can hold, good and malformed, with tabs and
# spaces around `<` and with the other line breaks `str.splitlines` honours inside a line.
_LINES = [
    "a", "b", "c", " a ", "a b", "#x", "# note", "", "\t", "---", " --- ",
    "a < b", "b<c", "c < a", "a < a", "a < #x", "#x < a", "a <", "< b", "<<",
    "a < b < c", "a b < c", "--- < a", "a\xa0b", "\u3000c", "-",
    "a\t<\tb", "a <b", "a< b ", "a < b<", "a\x0bb", "b < c\x0c", "\x1ca < c", "c\x85---", "b <\u2028a",
]

# Lines a bijection file can hold, good and malformed.
_MAPPINGS = [
    "a -> b", "b -> c", "c -> a", "x -> y", "a->b", "a -> b c", "-> b", "a -> #x",
    "a -> <", "a -> ---", "y\xa0-> x", "# note", "", "a => b",
    "a\t->\tb", "b -> c\x0bx", "x ->\x85y", "\u2028c -> a",
]


def _joined(lines):
    """Texts of up to 10 of `lines`, joined by LF or by CRLF."""
    return st.tuples(st.lists(st.sampled_from(lines), max_size=10), st.sampled_from(["\n", "\r\n"])).map(
        lambda drawn: drawn[1].join(drawn[0])
    )


class TestReadersMatchReference:
    """The readers against the `oracles` ones, which check every token occurrence."""

    texts = _joined(_LINES)
    mappings = _joined(_MAPPINGS)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(texts)
    def test_relation(self, text):
        assert outcome(parse_relation, text, "f.txt") == outcome(parse_relation_reference, text, "f.txt")

    @pytest.mark.parametrize("size", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
    def test_relation_long_body(self, size, header):
        # Bodies of 1,023 to 2,049 pair lines, as they are and with one malformed line, bad
        # token or second `---` put first, in the middle or last.
        rng = random.Random(size * 2 + header)
        names = [f"t{i}" for i in range(size // 3)]
        body = [rng.choice(["{} < {}", "{}<{}", " {}\t<  {} "]).format(*rng.sample(names, 2)) for _ in range(size)]
        for at in rng.sample(range(size), 5):
            body.insert(at, rng.choice(["", "# note", "  "]))
        head = rng.sample(names, len(names) // 2) + ["---"] if header else []
        texts = ["\n".join(head + body) + "\n"]
        for defect in ["a b", "a < b < c", "a <", "a < #b", "a b < c", "---"]:
            for at in (0, len(body) // 2, len(body)):
                texts.append("\n".join(head + body[:at] + [defect] + body[at:]) + "\n")
        for text in texts:
            assert outcome(parse_relation, text, "f.txt") == outcome(parse_relation_reference, text, "f.txt")

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(texts)
    def test_partition(self, text):
        assert outcome(parse_partition, text, "f.txt") == outcome(parse_partition_reference, text, "f.txt")

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(texts)
    def test_sequence(self, text):
        assert outcome(parse_sequence, text, "f.txt") == outcome(parse_sequence_reference, text, "f.txt")

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(mappings)
    def test_bijection(self, text):
        assert outcome(parse_bijection, text, "f.txt") == outcome(parse_bijection_reference, text, "f.txt")
