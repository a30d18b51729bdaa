"""Command-line behavior: outputs, exit codes, flag handling."""

import os
import subprocess
import sys

import pytest

from ordext import ForcedPair, Poset, TieBreakPolicy, parse_relation, szpilrajn, validate
from ordext.cli import main

CHAIN = "a < b\nb < c\n"
ANTICHAIN3 = "a\nb\nc\n---\n"
DIAMOND = "0 < x\n0 < y\nx < 1\ny < 1\n"


@pytest.fixture
def run(capsys, tmp_path):
    def runner(*argv, files=None):
        paths = {}
        for name, text in (files or {}).items():
            target = tmp_path / name
            target.write_text(text, encoding="utf-8")
            paths[name] = str(target)
        resolved = [paths.get(arg, arg) for arg in argv]
        code = main(resolved)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


class TestValidate:
    def test_strict_rejects_unclosed(self, run):
        code, _, err = run("validate", "r", files={"r": CHAIN})
        assert code == 1
        assert "a < c is missing" in err

    def test_auto_close(self, run):
        code, out, _ = run("validate", "--auto-close", "r", files={"r": CHAIN})
        assert code == 0
        assert out == "a\nb\nc\n---\na < b\na < c\nb < c\n"

    def test_closed_relation_passes(self, run):
        text = "a < b\nb < c\na < c\n"
        code, out, _ = run("validate", "r", files={"r": text})
        assert code == 0
        assert out == "a\nb\nc\n---\na < b\na < c\nb < c\n"

    def test_subset_restricts(self, run):
        files = {"r": DIAMOND, "s": "0\nx\n1\n"}
        code, out, _ = run("validate", "--auto-close", "r", "s", files=files)
        assert code == 0
        assert out == "0\nx\n1\n---\n0 < x\n0 < 1\nx < 1\n"

    def test_cycle(self, run):
        code, _, err = run("validate", "r", files={"r": "a < b\nb < a\n"})
        assert code == 1
        assert "cycle" in err

    def test_missing_file(self, run):
        code, _, err = run("validate", "nope.txt")
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file(self, run, tmp_path):
        target = tmp_path / "latin.txt"
        target.write_bytes(b"a < b\n\xff\xfe < c\n")
        code, out, err = run("validate", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {target}:")
        assert err.count("\n") == 1

    def test_malformed_file(self, run):
        code, _, err = run("validate", "r", files={"r": "a <\n"})
        assert code == 2
        assert ":1:" in err


class TestClosure:
    def test_closes(self, run):
        code, out, _ = run("closure", "r", files={"r": CHAIN})
        assert code == 0
        assert out == "a\nb\nc\n---\na < b\na < c\nb < c\n"

    def test_cycle_is_domain_error(self, run):
        code, _, err = run("closure", "r", files={"r": "a < b\nb < a\n"})
        assert code == 1
        assert "reflexive" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # The witness starts from ground order, not validate's lexicographic a < a.
            ("b < b\na < a\n", "closure would create a reflexive pair: cycle b < b"),
            # A cycle is reported before a repeated header element.
            ("a\nb\na\n---\na < b\nb < a\n", "closure would create a reflexive pair: cycle a < b < a"),
            ("a\nb\na\n---\na < b\n", "duplicate element 'a'"),
        ],
    )
    def test_error_bytes(self, run, text, message):
        assert run("closure", "r", files={"r": text}) == (1, "", f"error: {message}\n")

    def test_error_paths_do_not_depend_on_hash_seed(self, tmp_path):
        cyclic = tmp_path / "cyclic.txt"
        cyclic.write_text("c < a\na < b\nb < c\nd < e\ne < d\n", encoding="utf-8")
        repeated = tmp_path / "repeated.txt"
        repeated.write_text("a\nb\na\n---\na < b\n", encoding="utf-8")
        for argv in (["closure", cyclic], ["validate", "--auto-close", cyclic], ["closure", repeated]):
            outcomes = []
            for hash_seed in ("0", "424242"):
                proc = subprocess.run(
                    [sys.executable, "-m", "ordext", *map(str, argv)],
                    capture_output=True,
                    env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                )
                outcomes.append((proc.returncode, proc.stdout, proc.stderr))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == 1 and outcomes[0][2].startswith(b"error: ")


class TestLinearize:
    def test_chain(self, run):
        code, out, _ = run("linearize", "--tie-break", "lex", "r", files={"r": CHAIN})
        assert code == 0
        assert out == "a\nb\nc\n"

    def test_machine_mode(self, run):
        code, out, _ = run(
            "linearize", "--output", "machine", "r", files={"r": CHAIN}
        )
        assert code == 0
        assert out == "a\tb\tc\n"

    def test_machine_round_trip(self, run):
        _, out, _ = run("linearize", "--output", "machine", "r", files={"r": DIAMOND})
        tokens = out.strip().split("\t")
        rechained = "".join(f"{x} < {y}\n" for x, y in zip(tokens, tokens[1:]))
        code, out2, _ = run(
            "linearize", "--output", "machine", "r2", files={"r2": rechained}
        )
        assert code == 0
        assert out2 == out

    def test_bad_tie_break(self, run):
        code, _, err = run("linearize", "--tie-break", "sorted", "r", files={"r": CHAIN})
        assert code == 2

    def test_seeded_is_repeatable(self, run):
        first = run("linearize", "--tie-break", "seed:9", "r", files={"r": ANTICHAIN3})
        second = run("linearize", "--tie-break", "seed:9", "r", files={"r": ANTICHAIN3})
        assert first == second


class TestSzpilrajn:
    def test_plain(self, run):
        code, out, _ = run("szpilrajn", "r", files={"r": CHAIN})
        assert code == 0
        assert out == "a\nb\nc\n"

    def test_forced_pair_realized(self, run):
        code, out, _ = run("szpilrajn", "--force", "y", "x", "r", files={"r": DIAMOND})
        assert code == 0
        lines = out.splitlines()
        assert lines.index("y") < lines.index("x")

    def test_reads_no_pair_set(self, run, monkeypatch):
        poset = validate(*parse_relation(DIAMOND), auto_close=True)
        expected = szpilrajn(poset, ForcedPair("y", "x"), TieBreakPolicy.seeded(3)).output_order.sequence

        def refuse(self):
            raise AssertionError("Poset.relation was read")

        monkeypatch.setattr(Poset, "relation", property(refuse))
        code, out, err = run("szpilrajn", "--force", "y", "x", "--tie-break", "seed:3", "r", files={"r": DIAMOND})
        assert (code, err) == (0, "")
        assert out == "".join(tok + "\n" for tok in expected)

    def test_forced_comparable_rejected(self, run):
        code, _, err = run("szpilrajn", "--force", "b", "a", "r", files={"r": "a < b\n"})
        assert code == 1
        assert "cannot force b before a" in err
        assert "a < b already holds" in err

    def test_forced_unknown_element(self, run):
        code, _, err = run("szpilrajn", "--force", "q", "a", "r", files={"r": "a < b\n"})
        assert code == 1
        assert "unknown element" in err


class TestEnumerate:
    def test_human_blank_line_between_orders(self, run):
        code, out, _ = run("enumerate", "r", files={"r": "a\nb\n---\n"})
        assert code == 0
        assert out == "a\nb\n\nb\na\n"

    def test_machine_one_line_per_order(self, run):
        code, out, _ = run(
            "enumerate", "--output", "machine", "r", files={"r": "a\nb\n---\n"}
        )
        assert code == 0
        assert out == "a\tb\nb\ta\n"

    def test_limit_flag_truncates(self, run):
        code, out, err = run(
            "enumerate", "--output", "machine", "--limit", "2", "r",
            files={"r": ANTICHAIN3},
        )
        assert code == 0
        assert out == "a\tb\tc\na\tc\tb\n"
        assert "truncated at limit 2" in err

    def test_limit_flag_past_maxsize_is_no_limit(self, run):
        code, out, err = run(
            "enumerate", "--output", "machine", "--limit", "99999999999999999999999", "r",
            files={"r": ANTICHAIN3},
        )
        assert code == 0
        assert len(out.splitlines()) == 6
        assert err == ""

    def test_env_limit_past_maxsize_is_no_limit(self, run, monkeypatch):
        monkeypatch.setenv("ORDEXT_ENUM_LIMIT", "99999999999999999999999")
        code, out, err = run(
            "enumerate", "--output", "machine", "r", files={"r": ANTICHAIN3}
        )
        assert code == 0
        assert len(out.splitlines()) == 6
        assert err == ""

    def test_env_limit(self, run, monkeypatch):
        monkeypatch.setenv("ORDEXT_ENUM_LIMIT", "1")
        code, out, err = run(
            "enumerate", "--output", "machine", "r", files={"r": ANTICHAIN3}
        )
        assert code == 0
        assert out == "a\tb\tc\n"
        assert "truncated at limit 1" in err

    def test_flag_overrides_env(self, run, monkeypatch):
        monkeypatch.setenv("ORDEXT_ENUM_LIMIT", "1")
        code, out, _ = run(
            "enumerate", "--output", "machine", "--limit", "6", "r",
            files={"r": ANTICHAIN3},
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_reader_closing_the_pipe_is_quiet(self, tmp_path):
        # 40320 orders, far more than a pipe buffers, so writes fail after the close.
        target = tmp_path / "anti8.txt"
        target.write_text("".join(f"a{i}\n" for i in range(8)) + "---\n", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "ordext", "enumerate", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"a0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err
        assert err == b""

    def test_long_chain_with_limit_one(self, tmp_path):
        target = tmp_path / "chain1500.txt"
        target.write_text("".join(f"c{i} < c{i + 1}\n" for i in range(1499)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "ordext", "enumerate", "--limit", "1", "--output", "machine", str(target)],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        assert proc.stdout == "\t".join(f"c{i}" for i in range(1500)).encode() + b"\n"

    def test_bad_env_value(self, run, monkeypatch):
        monkeypatch.setenv("ORDEXT_ENUM_LIMIT", "many")
        code, _, err = run("enumerate", "r", files={"r": ANTICHAIN3})
        assert code == 2
        assert "ORDEXT_ENUM_LIMIT" in err


class TestCount:
    def test_antichain(self, run):
        code, out, _ = run("count", "r", files={"r": ANTICHAIN3})
        assert code == 0
        assert out == "6\n"

    def test_cap_exceeded(self, run):
        text = "".join(f"c{i} < c{i + 1}\n" for i in range(20))
        code, _, err = run("count", "r", files={"r": text})
        assert code == 1
        assert "exceeds the counting cap" in err

    def test_cap_override(self, run):
        text = "".join(f"c{i} < c{i + 1}\n" for i in range(20))
        code, out, _ = run("count", "--cap", "25", "r", files={"r": text})
        assert code == 0
        assert out == "1\n"


class TestIncomparable:
    def test_list_human(self, run):
        code, out, _ = run("incomparable", "r", files={"r": DIAMOND})
        assert code == 0
        assert out == "x y\n"

    def test_list_machine(self, run):
        code, out, _ = run(
            "incomparable", "--output", "machine", "r", files={"r": DIAMOND}
        )
        assert code == 0
        assert out == "x\ty\n"

    def test_chain_has_none(self, run):
        code, out, _ = run("incomparable", "r", files={"r": CHAIN})
        assert code == 0
        assert out == ""

    def test_pair_query_true(self, run):
        code, out, _ = run("incomparable", "r", "x", "y", files={"r": DIAMOND})
        assert code == 0
        assert out == "true\n"

    def test_pair_query_false(self, run):
        code, out, _ = run("incomparable", "r", "0", "1", files={"r": DIAMOND})
        assert code == 0
        assert out == "false\n"

    def test_pair_query_unknown_element(self, run):
        code, _, err = run("incomparable", "r", "0", "q", files={"r": DIAMOND})
        assert code == 1
        assert "unknown element" in err

    def test_single_token_is_usage_error(self, run):
        code, _, _ = run("incomparable", "r", "x", files={"r": DIAMOND})
        assert code == 2


class TestConstructionsCommands:
    def test_bipartition(self, run):
        files = {"g": "1\n2\n3\n4\n", "A": "1\n", "B": "2\n"}
        code, out, _ = run("bipartition", "g", "A", "B", files=files)
        assert code == 0
        assert out == "1\n3\n4\n2\n"

    def test_bipartition_overlap(self, run):
        files = {"g": "1\n2\n", "A": "1\n2\n", "B": "2\n"}
        code, _, err = run("bipartition", "g", "A", "B", files=files)
        assert code == 1
        assert "not disjoint" in err

    def test_blocks(self, run):
        files = {"g": "a\nb\nc\nd\n", "p": "a\nb\n---\nc\n"}
        code, out, _ = run("blocks", "g", "p", files=files)
        assert code == 0
        assert out == "a\nb\nc\nd\n"

    def test_blocks_empty_block(self, run):
        files = {"g": "a\nb\n", "p": "a\n---\n"}
        code, _, err = run("blocks", "g", "p", files=files)
        assert code == 1
        assert "empty" in err

    def test_interleave(self, run):
        files = {"Y": "y1\ny2\n", "X": "x1\nx2\n", "f": "y1 -> x1\ny2 -> x2\n"}
        code, out, _ = run("interleave", "--output", "machine", "Y", "X", "f", files=files)
        assert code == 0
        assert out == "y1\tx1\ty2\tx2\n"

    def test_interleave_bad_mapping_line(self, run):
        files = {"Y": "y1\n", "X": "x1\n", "f": "y1 x1\n"}
        code, _, err = run("interleave", "Y", "X", "f", files=files)
        assert code == 2
        assert "y -> x" in err

    def test_interleave_not_bijective(self, run):
        files = {"Y": "y1\ny2\n", "X": "x1\nx2\n", "f": "y1 -> x1\n"}
        code, _, err = run("interleave", "Y", "X", "f", files=files)
        assert code == 1
        assert "not a bijection" in err

    def test_dense_check_true(self, run):
        files = {"o": "y1\nx1\ny2\nx2\n", "t1": "x1\nx2\n", "t2": "y1\ny2\n"}
        code, out, _ = run("dense-check", "o", "t1", "t2", files=files)
        assert code == 0
        assert out == "true\n"

    def test_dense_check_false_then_non_strict(self, run):
        files = {"o": "a\nb\n", "t1": "a\n", "t2": "a\nb\n"}
        code, out, _ = run("dense-check", "o", "t1", "t2", files=files)
        assert (code, out) == (0, "false\n")
        code, out, _ = run("dense-check", "--non-strict", "o", "t1", "t2", files=files)
        assert (code, out) == (0, "true\n")


class TestUsage:
    def test_unknown_command(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_no_command(self, run):
        code, _, _ = run()
        assert code == 2

    def test_foreign_flag_rejected(self, run):
        code, _, _ = run("count", "--tie-break", "lex", "r", files={"r": CHAIN})
        assert code == 2

    def test_negative_limit_rejected(self, run):
        code, _, _ = run("enumerate", "--limit", "-1", "r", files={"r": CHAIN})
        assert code == 2

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "command" in out
