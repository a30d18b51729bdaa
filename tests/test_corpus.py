"""Every corpus case gives the bytes whose digest `corpus.py` recorded in corpus.json."""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent

# Mismatched cases shown in full in a failure report.
SHOWN = 5


def _committed(names: list[str]) -> dict[str, bytes]:
    """The bytes of the named cases as the committed tree (git HEAD) gives them,
    or nothing when git cannot give that tree."""
    try:
        tar = subprocess.run(
            ["git", "archive", "HEAD", "src/ordext", "tests/corpus.py"],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            for member in archive.getmembers():
                if member.isfile():
                    target = Path(tmp, member.name)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_bytes(archive.extractfile(member).read())
        script = (
            "import corpus, json, sys; cases = corpus.cases()\n"
            "out = corpus.outputs({name: cases[name] for name in sys.argv[1:] if name in cases})\n"
            "print(json.dumps({name: data.hex() for name, data in out.items()}))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(Path(tmp, "src")), str(Path(tmp, "tests"))))}
        run = subprocess.run([sys.executable, "-c", script, *names], env=env, capture_output=True, text=True)
    if run.returncode:
        return {}
    return {name: bytes.fromhex(data) for name, data in json.loads(run.stdout).items()}


def _first_difference(want: bytes, got: bytes) -> str:
    at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
    window = slice(max(0, at - 20), at + 60)
    return f"first difference at byte {at}:\n  committed {want[window]!r}\n  now       {got[window]!r}"


def _report(wrong: list[str], cases: dict, got: dict[str, bytes], recorded: dict[str, str]) -> str:
    """Each of the first mismatched cases with its first differing bytes against the
    committed tree when that tree gives the recorded bytes, else with its bytes now."""
    committed = _committed(wrong[:SHOWN])
    lines = [f"{len(wrong)} of {len(cases)} corpus cases differ from corpus.json"]
    for name in wrong[:SHOWN]:
        lines.append(f"{name}: {cases[name]!r}")
        want = committed.get(name)
        if want is not None and corpus.digest(want) == recorded[name]:
            lines.append(_first_difference(want, got[name]))
        else:
            lines.append(f"  now {got[name][:200]!r}")
    return "\n".join(lines)


def test_every_case_matches_its_recorded_digest():
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    cases = corpus.cases()
    assert sorted(cases) == sorted(recorded), "the generator and corpus.json name different cases"
    got = corpus.outputs(cases)
    wrong = [name for name in cases if corpus.digest(got[name]) != recorded[name]]
    assert not wrong, _report(wrong, cases, got, recorded)


def test_kept_fails_when_a_base_digest_is_changed_or_dropped(tmp_path, capsys):
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    first, last = next(iter(recorded)), next(reversed(recorded))
    bases = {
        "same": (recorded, 0),
        "fewer": ({name: value for name, value in recorded.items() if name != last}, 0),
        "changed": ({**recorded, first: "0" * 64}, 1),
        "dropped": ({**recorded, "cli/gone": "0" * 64}, 1),
    }
    for name, (table, status) in bases.items():
        base = tmp_path / f"{name}.json"
        base.write_text(json.dumps(table), encoding="utf-8")
        assert corpus.kept(base) == status, name
    assert capsys.readouterr().err.count("changed or dropped") == len(bases)


def test_an_unknown_argument_writes_nothing(tmp_path, monkeypatch, capsys):
    recorded = corpus.DIGESTS.read_bytes()
    copy = tmp_path / "corpus.json"
    copy.write_bytes(recorded)
    monkeypatch.setattr(corpus, "DIGESTS", copy)

    def refuse(selected):
        raise AssertionError("the corpus was run")

    monkeypatch.setattr(corpus, "outputs", refuse)
    for argv in (["--chek"], ["--kept"], ["-h"], ["--check", "--kept"]):
        assert corpus.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage: corpus.py"), argv
    assert copy.read_bytes() == recorded
