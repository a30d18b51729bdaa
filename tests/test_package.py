"""The package's start-up work: lazy public names, the modules a command loads,
and the record classes measured against frozen dataclasses."""

import inspect
import itertools
import json
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

import ordext
from helpers import antichain, chain, diamond
from oracles import RECORD_REFERENCES
from ordext import (
    Bijection,
    Enumeration,
    ExtensionCertificate,
    ForcedPair,
    LinearOrder,
    Partition,
    Poset,
    TieBreakPolicy,
    enumerate_linear_extensions,
    restrict,
    szpilrajn,
    validate,
)


def _run(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60, cwd=cwd)


class TestLazyPackage:
    def test_every_public_name_resolves_to_its_module(self):
        for module, names in ordext._EXPORTS.items():
            for name in names:
                value = getattr(ordext, name)
                assert value is getattr(sys.modules[f"ordext.{module}"], name)
        assert sorted(ordext.__all__) == sorted(ordext._MODULE_OF)

    def test_dir_lists_every_public_name(self):
        assert set(ordext.__all__) <= set(dir(ordext))
        assert {"__version__", "__all__"} <= set(dir(ordext))

    def test_star_import(self):
        namespace: dict = {}
        exec("from ordext import *", namespace)
        assert set(ordext.__all__) <= set(namespace)
        assert namespace["Poset"] is Poset

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="^module 'ordext' has no attribute 'nope'$"):
            ordext.nope
        with pytest.raises(ImportError):
            exec("from ordext import nope", {})

    def test_import_loads_no_submodule(self):
        script = "import ordext, sys; print(sorted(m for m in sys.modules if m.startswith('ordext.')))"
        run = _run("-c", script)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

    def test_first_read_loads_only_its_module(self):
        script = (
            "import ordext, sys; ordext.parse_sequence; ordext.validate\n"
            "print(sorted(m for m in sys.modules if m.startswith('ordext.')))"
        )
        run = _run("-c", script)
        assert run.stdout == "['ordext.core', 'ordext.errors', 'ordext.formats']\n"


class TestStartupImports:
    """`python -X importtime` lists every module a run loads after start-up; a relation
    command loads neither `dataclasses`, its `inspect` nor `ordext.constructions`.  No
    command loads `ordext.extension` or `ordext.policy` unless it calls them."""

    @pytest.mark.parametrize("argv", [["count"], ["linearize", "--tie-break", "seed:3"], ["validate", "--auto-close"]])
    def test_relation_commands(self, tmp_path, argv):
        target = tmp_path / "r.txt"
        target.write_text("a < b\nb < c\n", encoding="utf-8")
        run = _run("-X", "importtime", "-m", "ordext", *argv, str(target))
        assert run.returncode == 0
        loaded = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
        assert "ordext.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "ordext.constructions"}

    def test_construction_command_loads_constructions(self, tmp_path):
        (tmp_path / "g").write_text("a\nb\n", encoding="utf-8")
        run = _run("-X", "importtime", "-m", "ordext", "blocks", "g", "g", cwd=tmp_path)
        assert run.returncode == 0
        loaded = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
        assert "ordext.constructions" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    FILES = {"r": "a < b\nb < c\na < c\n", "g": "a\nb\nc\n", "a": "a\n", "b": "c\n", "p": "a\n---\nb\n",
             "y": "a\n", "x": "b\n", "phi": "a -> b\n"}

    @pytest.mark.parametrize("argv, absent", [
        (["validate", "r"], {"ordext.extension", "ordext.policy"}),
        (["validate", "--auto-close", "r", "g"], {"ordext.extension", "ordext.policy"}),
        (["closure", "r"], {"ordext.extension", "ordext.policy"}),
        (["incomparable", "r"], {"ordext.extension", "ordext.policy"}),
        (["incomparable", "r", "a", "c"], {"ordext.extension", "ordext.policy"}),
        (["linearize", "r"], {"ordext.policy"}),
        (["szpilrajn", "r"], {"ordext.policy"}),
        (["enumerate", "r"], {"ordext.policy"}),
        (["count", "r"], {"ordext.policy"}),
        (["bipartition", "g", "a", "b", "--tie-break", "seed:1"], {"ordext.extension"}),
        (["blocks", "g", "p"], {"ordext.extension"}),
        (["interleave", "y", "x", "phi"], {"ordext.extension"}),
        (["dense-check", "g", "a", "b"], {"ordext.extension"}),
    ], ids=lambda value: " ".join(sorted(value) if isinstance(value, set) else value))
    def test_modules_a_command_does_not_call(self, tmp_path, argv, absent):
        """`sys.modules` after `main` returns: only the relation commands that extend or
        linearize load `extension`, and only a tie-break option loads `policy`."""
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        script = (
            "import json, sys\nfrom ordext.cli import main\ncode = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)"
        )
        run = _run("-c", script, *argv, cwd=tmp_path)
        code, loaded = json.loads(run.stderr.splitlines()[-1])
        assert code == 0
        assert "ordext.cli" in loaded
        assert not absent & set(loaded)


def _samples() -> dict[type, list]:
    """Instances of each record class, with equal pairs built apart and unequal ones."""
    d, c = diamond(), chain(3)
    order, other = LinearOrder(("a", "b")), LinearOrder(("b", "a"))
    return {
        Poset: [d, Poset(d.ground, d.relation), c, restrict(c, c.ground), antichain(2), validate(("b", "a"), []),
                validate((), [])],
        LinearOrder: [order, LinearOrder(("a", "b")), other, LinearOrder(())],
        ForcedPair: [ForcedPair("a", "b"), ForcedPair(first="a", second="b"), ForcedPair("b", "a")],
        ExtensionCertificate: [szpilrajn(d), szpilrajn(d), szpilrajn(d, ForcedPair("y", "x")),
                               ExtensionCertificate(frozenset(), order)],
        Enumeration: [enumerate_linear_extensions(d), enumerate_linear_extensions(d),
                      enumerate_linear_extensions(d, 1), Enumeration((), True, 0)],
        Partition: [Partition((("a",), ("b", "c"))), Partition([["a"], ["b", "c"]]), Partition(()),
                    Partition((("b", "c"), ("a",)))],
        Bijection: [Bijection((("y", "x"),)), Bijection([["y", "x"]]), Bijection(())],
        TieBreakPolicy: [TieBreakPolicy.seeded(5), TieBreakPolicy("seeded", 5), TieBreakPolicy.seeded(6),
                         TieBreakPolicy.input_order(), TieBreakPolicy("lexicographic")],
    }


def _reference(record):
    twin = RECORD_REFERENCES[type(record).__name__]
    return twin(**{f.name: getattr(record, f.name) for f in fields(twin)})


# Names each class computes on first read and keeps.
CACHED = {Poset: ["ground_index", "relation"], LinearOrder: ["positions", "induced_pairs"], Bijection: ["as_dict"]}


class TestRecordsMatchFrozenDataclasses:
    def test_every_record_class_has_a_reference(self):
        assert {cls.__name__ for cls in _samples()} == set(RECORD_REFERENCES)

    @pytest.mark.parametrize("cls", list(_samples()), ids=lambda cls: cls.__name__)
    def test_eq_hash_repr(self, cls):
        records = _samples()[cls]
        for record in records:
            twin = _reference(record)
            assert repr(record) == repr(twin)
            assert hash(record) == hash(twin)
            assert record != twin and record != object()
        for a, b in itertools.product(records, repeat=2):
            assert (a == b) == (_reference(a) == _reference(b))
            assert (a != b) == (_reference(a) != _reference(b))
        assert any(a == b and a is not b for a, b in itertools.combinations(records, 2))
        assert any(a != b for a, b in itertools.combinations(records, 2))

    @pytest.mark.parametrize("cls", [c for c in _samples() if c is not Poset], ids=lambda cls: cls.__name__)
    def test_keyword_construction_and_defaults(self, cls):
        twin = RECORD_REFERENCES[cls.__name__]
        ours = inspect.signature(cls).parameters
        theirs = inspect.signature(twin).parameters
        assert [(p.name, p.kind, p.default) for p in ours.values()] == [
            (p.name, p.kind, p.default) for p in theirs.values()]
        for record in _samples()[cls]:
            assert cls(**{f.name: getattr(record, f.name) for f in fields(twin)}) == record

    def test_poset_signature(self):
        assert list(inspect.signature(Poset).parameters) == ["ground", "relation"]
        assert Poset(ground=("a", "b"), relation=[("a", "b")]) == validate(("a", "b"), [("a", "b")])

    @pytest.mark.parametrize("cls", list(_samples()), ids=lambda cls: cls.__name__)
    def test_frozen(self, cls):
        record = _samples()[cls][0]
        names = [f.name for f in fields(RECORD_REFERENCES[cls.__name__])] + CACHED.get(cls, []) + ["other"]
        for name in names:
            for read in (False, True):
                if read and hasattr(record, name):
                    getattr(record, name)
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                    setattr(record, name, None)
                with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                    delattr(record, name)
        assert _reference(record) == _reference(_samples()[cls][0])  # nothing changed
