"""Command-line behavior: outputs, exit codes, flag handling."""

import contextlib
import errno
import io
import math
import os
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ordext.extension
from ordext import cli
from ordext import ForcedPair, Poset, TieBreakPolicy, parse_relation, szpilrajn, validate
from ordext.cli import COMMANDS, build_parser, main

from helpers import random_pairs

CHAIN = "a < b\nb < c\n"
ANTICHAIN3 = "a\nb\nc\n---\n"
DIAMOND = "0 < x\n0 < y\nx < 1\ny < 1\n"

FD_DIR = "/proc/self/fd"


def _open_descriptors() -> int | None:
    return len(os.listdir(FD_DIR)) if os.path.isdir(FD_DIR) else None


@pytest.fixture(autouse=True)
def no_descriptor_left_open():
    """Fails any test after which the process holds more open descriptors than before it."""
    before = _open_descriptors()
    yield
    after = _open_descriptors()
    assert before is None or after <= before, f"{after - before} more open descriptors after the test"


def _failing_stdout(fd: int, error: OSError) -> io.StringIO:
    """A stdout on descriptor `fd` whose every write raises `error`."""

    class Failing(io.StringIO):
        def write(self, text):
            raise error

        def fileno(self):
            return fd

    return Failing()


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

    @pytest.mark.parametrize("tie_break", [None, "input", "lex", "seed:0", "seed:18446744073709551615"])
    def test_without_force_prints_what_linearize_prints(self, run, tie_break):
        rng = random.Random(29)
        flags = [] if tie_break is None else ["--tie-break", tie_break]
        for _ in range(15):
            ground, pairs = random_pairs(rng, rng.randrange(1, 12))
            text = "\n".join([*ground, "---", *(f"{x} < {y}" for x, y in pairs)]) + "\n"
            argv = ["r", *flags, "--output", rng.choice(["human", "machine"])]
            linearized = run("linearize", *argv, files={"r": text})
            assert linearized[0] == 0
            assert run("szpilrajn", *argv, files={"r": text}) == linearized

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


@pytest.mark.usefixtures("digit_cap_untouched")
class TestNumbersPastTheDigitGuard:
    """Counts and numeric options of any length, past the interpreter's default cap of 4,300
    digits on int/str conversion, where it exists: a number too long for the cap is read and
    written in halves, and the cap is never changed."""

    HUGE = "9" * 5000

    @staticmethod
    def digits(n):
        chunks = []
        while n:
            n, low = divmod(n, 10**1000)
            chunks.append(f"{low:01000d}")
        return "".join(reversed(chunks)).lstrip("0") or "0"

    def test_count_with_4756_digits(self, run):
        text = "".join(f"a{i}\n" for i in range(1700)) + "---\n"
        code, out, err = run("count", "--cap", "2000", "r", files={"r": text})
        assert (code, err) == (0, "")
        assert out == self.digits(math.factorial(1700)) + "\n"
        assert len(out) == 4757

    def test_cap(self, run):
        assert run("count", "--cap", self.HUGE, "r", files={"r": ANTICHAIN3}) == (0, "6\n", "")

    def test_limit(self, run):
        code, out, err = run("enumerate", "--output", "machine", "--limit", self.HUGE, "r", files={"r": ANTICHAIN3})
        assert (code, len(out.splitlines()), err) == (0, 6, "")

    def test_env_limit(self, run, monkeypatch):
        monkeypatch.setenv("ORDEXT_ENUM_LIMIT", self.HUGE)
        code, out, err = run("enumerate", "--output", "machine", "r", files={"r": ANTICHAIN3})
        assert (code, len(out.splitlines()), err) == (0, 6, "")

    def test_still_not_an_integer(self, run):
        code, _, err = run("enumerate", "--limit", self.HUGE + "x", "r", files={"r": ANTICHAIN3})
        assert code == 2
        assert "not an integer" in err

    @pytest.mark.parametrize("argv, files", [
        (["linearize", "r"], {"r": ANTICHAIN3}),
        (["szpilrajn", "r"], {"r": ANTICHAIN3}),
        (["bipartition", "g", "a", "b"], {"g": "a\nb\nc\nd\ne\n", "a": "a\nb\n", "b": "e\n"}),
    ])
    def test_zero_padded_seed(self, run, argv, files):
        padded = run(*argv, "--tie-break", "seed:" + "0" * 5000 + "7", files=files)
        assert padded[0] == 0
        assert padded == run(*argv, "--tie-break", "seed:7", files=files)

    def test_seed_out_of_range(self, run):
        code, out, err = run("linearize", "--tie-break", "seed:" + self.HUGE, "r", files={"r": ANTICHAIN3})
        assert (code, out) == (2, "")
        assert "seed out of unsigned 64-bit range" in err


class TestOutOfMemory:
    def test_error_line_and_status_2(self, run, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr("ordext.cli._read", exhausted)
        assert run("linearize", "r", files={"r": CHAIN}) == (2, "", "error: out of memory\n")


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

    def test_option_between_the_file_and_an_optional_positional(self, run, tmp_path):
        # Options go before a command's optional positional arguments (README, Usage): after an
        # option, argparse takes no more positionals, and the subset file is left over.
        files = {"r.rel": DIAMOND, "s.seq": "0\nx\n1\n"}
        code, out, err = run("validate", "r.rel", "--auto-close", "s.seq", files=files)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"ordext: error: unrecognized arguments: {tmp_path / 's.seq'}"

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "command" in out


# Positional file arguments of each command; incomparable also takes any number of elements.
POSITIONALS = {
    "validate": 2, "closure": 1, "linearize": 1, "szpilrajn": 1, "enumerate": 1, "count": 1,
    "incomparable": 1, "bipartition": 3, "blocks": 2, "interleave": 3, "dense-check": 3,
}

TIE_BREAK_COMMANDS = ["linearize", "szpilrajn", "bipartition", "blocks", "interleave"]


def _usage_argvs() -> list[list[str]]:
    """Command lines that argparse ends: help, usage errors and bad option values."""
    argvs = [[], ["--help"], ["-h"], ["frobnicate"], ["frobnicate", "r"], ["--output", "machine", "count", "r"]]
    for name, count in POSITIONALS.items():
        argvs += [[name, "-h"], [name, "--help", "r"], [name]]
        if name != "incomparable":
            argvs.append([name, *"fghij"[:count + 1]])
        argvs.append([name, *"fghij"[:count], "--output", "json"])
    for name in TIE_BREAK_COMMANDS:
        files = list("fghij"[:POSITIONALS[name]])
        for spelling in ("seed:", "seed:-1", "seed:18446744073709551616", "SEED:1", "sorted", "lex:1"):
            argvs.append([name, *files, "--tie-break", spelling])
        argvs.append([name, *files, "--tie-break"])
    for value in ("-1", "x", "1.5", "", "0x10", "3e0"):
        argvs += [["enumerate", "r", "--limit", value], ["count", "--cap", value, "r"]]
    argvs += [
        ["count", "--tie-break", "lex", "r"],
        ["closure", "r", "--limit", "1"],
        ["validate", "--force", "a", "b", "r"],
        ["szpilrajn", "r", "--force", "a"],
        ["dense-check", "o", "t1", "t2", "--strict"],
        ["incomparable", "--auto-close", "r"],
    ]
    return argvs


class TestParserBytes:
    """`main` builds the parser of the command it is given alone; every byte it
    writes, and its exit code, match the parser with every command."""

    def test_table_names_every_command(self):
        assert list(COMMANDS) == list(POSITIONALS)

    @pytest.mark.parametrize("argv", _usage_argvs(), ids=repr)
    def test_matches_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = (full.value.code, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected


class TestWriteFailure:
    """A write to stdout that fails ends in one `error:` line and exit 2, not a traceback."""

    MESSAGE = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_full_device(self, tmp_path, command, unbuffered):
        target = tmp_path / "r.txt"
        target.write_text(DIAMOND, encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ordext", command, str(target)],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert (proc.returncode, proc.stderr.decode()) == (2, self.MESSAGE)

    def test_writer_error_in_process(self, tmp_path, capsys):
        target = tmp_path / "r.txt"
        target.write_text(DIAMOND, encoding="utf-8")
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            with contextlib.redirect_stdout(_failing_stdout(fd, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))):
                code = main(["linearize", str(target)])
        finally:
            os.close(fd)
        assert (code, capsys.readouterr().err) == (2, self.MESSAGE)

    @pytest.mark.skipif(not os.path.isdir(FD_DIR), reason=f"needs {FD_DIR}")
    def test_failed_writes_leave_no_descriptor_open(self, tmp_path, capsys):
        target = tmp_path / "r.txt"
        target.write_text(DIAMOND, encoding="utf-8")
        errors = [BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))] * 3
        errors += [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))] * 2
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            before = _open_descriptors()
            codes = []
            for error in errors:
                with contextlib.redirect_stdout(_failing_stdout(fd, error)):
                    codes.append(main(["linearize", str(target)]))
            assert (codes, _open_descriptors()) == ([1, 1, 1, 2, 2], before)
        finally:
            os.close(fd)
        assert capsys.readouterr().err == 2 * self.MESSAGE


class TestClosedStreams:
    """A descriptor closed before the run leaves `sys.stdout` or `sys.stderr` None: the command
    still runs with its own exit status, output fails as a write to a closed descriptor would,
    and messages meant for a closed stderr, or one that refuses writes, are dropped."""

    BADF = f"error: cannot write output: {os.strerror(errno.EBADF)}\n"
    CYCLE = "a < b\nb < a\n"

    @pytest.fixture
    def closed(self, run, monkeypatch):
        def runner(streams, *argv, files=None):
            with monkeypatch.context() as patch:
                for stream in streams.split():
                    patch.setattr(sys, stream, None)
                return run(*argv, files=files)

        return runner

    @pytest.mark.parametrize(
        "argv, files, want",
        [
            (["linearize", "r"], {"r": CHAIN}, (2, "", BADF)),
            (["enumerate", "--limit", "1", "r"], {"r": ANTICHAIN3}, (2, "", BADF)),
            (["validate", "--auto-close", "r"], {"r": CYCLE}, (1, "", "error: antisymmetry violation: cycle a < b < a\n")),
            (["linearize", "missing"], {}, (2, "", "error: cannot read missing: No such file or directory\n")),
            (["enumerate", "--limit", "0", "r"], {"r": CHAIN}, (0, "", "note: enumeration truncated at limit 0\n")),
            (["linearize", "r"], {"r": "---\n"}, (0, "", "")),
        ],
    )
    def test_closed_stdout(self, closed, argv, files, want):
        assert closed("stdout", *argv, files=files) == want

    @pytest.mark.parametrize(
        "argv, files, want",
        [
            (["enumerate", "--limit", "1", "r"], {"r": ANTICHAIN3}, (0, "a\nb\nc\n", "")),
            (["validate", "--auto-close", "r"], {"r": CYCLE}, (1, "", "")),
            (["linearize", "missing"], {}, (2, "", "")),
        ],
    )
    def test_closed_stderr(self, closed, argv, files, want):
        assert closed("stderr", *argv, files=files) == want

    def test_closed_stderr_and_a_failed_write(self, tmp_path, closed):
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            with contextlib.redirect_stdout(_failing_stdout(fd, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))):
                assert closed("stderr", "linearize", "r", files={"r": CHAIN}) == (2, "", "")
        finally:
            os.close(fd)

    def test_both_closed(self, closed):
        assert closed("stdout stderr", "linearize", "r", files={"r": CHAIN}) == (2, "", "")

    @pytest.mark.parametrize(
        "redirect, argv, code",
        [(">&-", ["linearize", "r"], 2), ("2>&-", ["linearize", "missing"], 2)],
    )
    def test_closed_descriptor_in_a_child(self, tmp_path, redirect, argv, code):
        (tmp_path / "r").write_text(CHAIN, encoding="utf-8")
        words = [sys.executable, "-m", "ordext", *argv]
        proc = subprocess.run(
            " ".join(map(shlex.quote, words)) + " " + redirect, shell=True, cwd=tmp_path,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv, code, out",
        [(["linearize", "missing"], 2, ""), (["enumerate", "--limit", "1", "r"], 0, "a\nb\nc\n")],
    )
    def test_stderr_that_refuses_writes(self, tmp_path, argv, code, out):
        # An open stderr on a full device drops its message as a closed one does; a traceback
        # would end the run with status 1.
        (tmp_path / "r").write_text(ANTICHAIN3, encoding="utf-8")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ordext", *argv], cwd=tmp_path, stdout=subprocess.PIPE, stderr=full,
                text=True, timeout=60,
            )
        assert (proc.returncode, proc.stdout) == (code, out)


class TestStreamedOutput:
    """Output is written as it is made: when the first write finds the reader gone, the
    enumeration walk, the incomparable pairs and the pieces of relation text have been drawn
    no further than that."""

    @pytest.fixture
    def closed_stdout(self, tmp_path):
        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        yield _failing_stdout(fd, BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))
        os.close(fd)

    @staticmethod
    def counted(iterable, drawn):
        for item in iterable:
            drawn.append(item)
            yield item

    @pytest.mark.parametrize("text", [
        "a\nb\nc\nd\ne\n---\n",  # 120 orders, one free maximal tail from the start
        "a\nb\nc\nd\ne\nf\ng\n---\na < b\n",  # 2,520 orders; the first tail starts once a is placed
    ], ids=["antichain", "tail-partway"])
    def test_enumerate(self, tmp_path, monkeypatch, closed_stdout, text):
        drawn = []
        walk = ordext.extension._extensions
        monkeypatch.setattr(ordext.extension, "_extensions", lambda poset: self.counted(walk(poset), drawn))
        target = tmp_path / "r.txt"
        target.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(closed_stdout):
            assert main(["enumerate", str(target)]) == 1
        assert 1 <= len(drawn) <= 2

    @pytest.mark.parametrize("argv", [["closure"], ["validate", "--auto-close"]])
    def test_relation_text(self, tmp_path, monkeypatch, closed_stdout, argv):
        drawn = []
        pieces = cli._relation_text
        monkeypatch.setattr(cli, "_relation_text", lambda poset: self.counted(pieces(poset), drawn))
        target = tmp_path / "r.txt"
        target.write_text("a < b\nb < c\nc < d\nd < e\n", encoding="utf-8")  # 6 pieces: header, 4 rows, end
        with contextlib.redirect_stdout(closed_stdout):
            assert main([*argv, str(target)]) == 1
        assert 1 <= len(drawn) <= 2

    def test_incomparable(self, tmp_path, monkeypatch, closed_stdout):
        drawn = []
        pairs = cli.incomparable_pairs
        monkeypatch.setattr(cli, "incomparable_pairs", lambda poset: self.counted(pairs(poset), drawn))
        target = tmp_path / "r.txt"
        target.write_text("a\nb\nc\nd\ne\nf\n---\n", encoding="utf-8")  # 15 pairs
        with contextlib.redirect_stdout(closed_stdout):
            assert main(["incomparable", "--output", "machine", str(target)]) == 1
        assert 1 <= len(drawn) <= 2


# Lines of each file format, and bad lines.  They hold six valid tokens (a, b, c, d, NUL
# and é), so no input has more than 6! linear extensions.
LINES = {
    "relation": ["a < b", "c < d", "b < d", "é < \0", "d < a", "c < é"],
    "sequence": ["a", "b", "c", "d", "\0", "é"],
    "partition": ["a", "b", "c", "d", "---"],
    "bijection": ["a -> d", "b -> c", "é -> \0", "d -> a"],
}
BAD_LINES = ["b < a", "a < a", "# note", "", "<", "a < b < c", "x y z", "a <", "-> d", "---"]

# The format of each file argument, in order; validate's second one may be left out.
FORMATS = {
    "validate": ["relation", "sequence"], "closure": ["relation"], "linearize": ["relation"],
    "szpilrajn": ["relation"], "enumerate": ["relation"], "count": ["relation"], "incomparable": ["relation"],
    "bipartition": ["sequence"] * 3, "blocks": ["sequence", "partition"],
    "interleave": ["sequence", "sequence", "bijection"], "dense-check": ["sequence"] * 3,
}

ELEMENTS = ["a", "b", "d", "é", "zz"]
NUMBERS = ["0", "3", "99", "9" * 5000, "-1", "", "x", "-" + "9" * 5000]


def _file_bytes(rng: random.Random, kind: str) -> bytes:
    """Lines of format `kind`, or of every format and bad ones ("mixed"), cut by LF, CRLF or CR and
    at times holding an invalid UTF-8 byte; or a few raw bytes ("raw")."""
    if kind == "raw":
        return rng.randbytes(rng.randrange(9))  # at most four tokens
    pool = LINES.get(kind) or [line for lines in LINES.values() for line in lines] + BAD_LINES
    lines = rng.choices(pool, k=rng.randrange(9))
    data = "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines).encode()
    if rng.random() < 0.1:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _options(name: str) -> list[list[str]]:
    """The options `name` takes, each with a value it may be given, good more often than bad."""
    options = [["--output", mode] for mode in ("machine", "human") * 8 + ("json",)]
    if name in TIE_BREAK_COMMANDS:
        options += [["--tie-break", policy] for policy in ("lex", "input", "seed:3", "seed:" + "9" * 5000)]
    return options + {
        "validate": [["--auto-close"]],
        "enumerate": [["--limit", n] for n in NUMBERS[:4] * 2 + NUMBERS],
        "count": [["--cap", n] for n in NUMBERS[:4] * 2 + NUMBERS],
        "szpilrajn": [["--force", x, y] for x in ELEMENTS for y in ELEMENTS],
        "dense-check": [["--non-strict"]],
    }.get(name, [])


class TestNoTraceback:
    """Whatever the command line and the files' bytes, `main` returns 0, 1 or 2 and raises
    nothing, and a failure leaves an `error:` or `usage:` line on stderr."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(derandomize=True, deadline=None, max_examples=800)
    @given(rng=st.randoms(use_true_random=True))
    def test_status_and_message(self, folder, rng):
        # A command, about as many files as it takes (mostly of their format, at times a missing
        # file, a folder or one file twice), for incomparable up to three elements, and a few of
        # its options, before or after the files.
        name = rng.choice(list(FORMATS))
        count = max(0, len(FORMATS[name]) + rng.choice([0] * 18 + [-1, 1]))
        paths = []
        for i, kind in enumerate((FORMATS[name] + ["sequence"])[:count]):
            kind = rng.choice([kind] * 12 + ["mixed", "raw", "missing", "folder", "again"])
            if kind == "missing":
                paths.append(str(folder / "missing"))
            elif kind == "folder":
                paths.append(str(folder))
            elif kind == "again" and paths:
                paths.append(paths[-1])
            else:
                paths.append(str(folder / f"f{i}"))
                with open(paths[-1], "wb") as handle:
                    handle.write(_file_bytes(rng, "mixed" if kind == "again" else kind))
        options = rng.choices(_options(name), k=rng.randrange(4))
        split = rng.randrange(len(options) + 1)
        argv = [name, *(word for option in options[:split] for word in option), *paths]
        if name == "incomparable":
            argv += rng.choices(ELEMENTS, k=rng.randrange(4))
        argv += [word for option in options[split:] for word in option]
        # Then at times a stray word put in or a word taken out, the command name included.
        if rng.random() < 0.1:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(
                ["--", "--bogus", "-x", "", "frobnicate", str(folder), *NUMBERS, *ELEMENTS]))
        if rng.random() < 0.1:
            del argv[rng.randrange(len(argv))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code:
            assert any(line.startswith(("error:", "usage:")) for line in err.getvalue().splitlines()), argv
