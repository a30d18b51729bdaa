"""Spans around the public calls of each ordext layer, for the traced replay.

`Tracer.install` wraps the library entry points in place (package
attributes, the module globals that other library functions call
through, `Poset.__post_init__` and `TieBreaker.arrange`) and returns a
function that restores them.  Spans stay in memory as tuples; self time
is a span's duration minus the time its direct children cover.  Nothing
here runs unless the benchmark is started with `--trace 1`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import ops
import ordext
import ordext.core
import ordext.extension
import ordext.policy

ROOT = "op"


def _add(counts, key, value):
    counts[key] += value


def _count_text(counts, args, result):
    _add(counts, "formats.bytes_in", len(args[0].encode()))


def _count_relation(counts, args, result):
    _count_text(counts, args, result)
    _add(counts, "core.pairs_in", len(result[1]))


def _count_arrange(counts, args, result):
    _add(counts, "policy.arrange_calls", 1)
    _add(counts, "policy.candidates", len(result))
    if args[0].policy.kind == "seeded" and result:
        _add(counts, "policy.draws", len(result) - 1)


# (span name, ordext attribute, counter called with (counts, args, result))
_PACKAGE_CALLS = [
    ("formats.parse", "parse_relation", _count_relation),
    ("formats.parse", "parse_sequence", _count_text),
    ("formats.parse", "parse_partition", _count_text),
    ("formats.parse", "parse_bijection", _count_text),
    ("formats.format", "format_relation", None),
    ("core.validate", "validate", lambda c, a, r: _add(c, "core.pairs_closed", len(r.relation))),
    ("core.closure", "transitive_closure", lambda c, a, r: _add(c, "core.pairs_closed", len(r))),
    ("core.incomparable", "incomparable_pairs", None),
    ("core.incomparable", "is_comparable", None),
    ("core.order", "order_from_enumeration", None),
    ("extension.linearize", "linear_extension", None),
    ("extension.szpilrajn", "szpilrajn", None),
    ("extension.extend", "extend_with_pair", None),
    ("extension.enumerate", "enumerate_linear_extensions", lambda c, a, r: _add(c, "extension.orders_out", len(r))),
    ("extension.count", "count_linear_extensions", None),
    ("constructions.bipartition", "bipartition_order", None),
    ("constructions.blocks", "partition_block_order", None),
    ("constructions.interleave", "dense_interleave", None),
    ("constructions.is_dense", "is_dense", None),
]

# Modules whose globals other library code calls through (szpilrajn
# calls extend_with_pair and linear_extension by their module names).
_LIBRARY_MODULES = [ordext.extension]


class Tracer:
    """Collects spans `(op_id, span_id, parent_id, name, start, end)` and counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._root = self._wrap(lambda fn, *args: fn(*args), ROOT, None)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[span_id] = (self._op, span_id, parent, name, start, end)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced entry point; returns the function that unwraps them."""
        undo = []

        def patch(owner, attr, replacement):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for name, attr, counter in _PACKAGE_CALLS:
            original = getattr(ordext, attr)
            wrapped = self._wrap(original, name, counter)
            patch(ordext, attr, wrapped)
            for module in _LIBRARY_MODULES:
                if getattr(module, attr, None) is original:
                    patch(module, attr, wrapped)
        for attr in ("emit", "emit_pairs"):
            patch(ops, attr, self._wrap(getattr(ops, attr), "formats.format", None))
        patch(ordext.core.Poset, "__post_init__", self._wrap(ordext.core.Poset.__post_init__, "core.poset", None))
        patch(ordext.policy.TieBreaker, "arrange", self._wrap(ordext.policy.TieBreaker.arrange, "policy.arrange", _count_arrange))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def run(self, op_id: int, fn, *args):
        """Call `fn(*args)` as the root span of operation `op_id`."""
        self._op = op_id
        return self._root(fn, *args)

    def self_times(self) -> list[tuple[tuple, float]]:
        """Each span with its self time in seconds."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s, s[5] - s[4] - child[s[1]]) for s in self.spans]

    def write(self, path, labels: dict[int, str]) -> None:
        """One JSON line per span, with its self time."""
        with open(path, "w", encoding="utf-8") as handle:
            for (op_id, span_id, parent, name, start, end), own in self.self_times():
                handle.write(json.dumps({
                    "op": op_id, "label": labels.get(op_id, ""), "span": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "self_ms": own * 1e3,
                }) + "\n")
