"""Deterministic tie-breaking.

Several operations must pick one element out of several equally valid
candidates (minimal elements during linearization, the layout inside a
segment, the traversal order of an interleaving).  A policy plus an input
fully determines every output; there is no hidden nondeterminism.

Kinds:

- ``input-order``: keep candidates in the order the ground sequence gave
  them.
- ``lexicographic``: order candidates by token, plain string comparison.
- ``seeded``: shuffle candidates with a Fisher-Yates pass driven by a
  splitmix64 stream.

The seeded generator's identity is part of the external contract so that
equal seeds replay the same outputs on any platform or implementation:
state advances by 0x9E3779B97F4A7C15 per draw and is finalized with the
standard two-round xor-shift-multiply mix (0xBF58476D1CE4E5B9 then
0x94D049BB133111EB, final shift 31); shuffle draw i uses
``next() % (i + 1)``, walking i from the last index down to 1.

One operation run spends one stream: :func:`_breaker`, the one place a
breaker starts, reads ``policy=None`` as input order, and :func:`_layout`
arranges an operation's segments in turn with that breaker, empty ones
included, each segment's draws following the previous segment's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

_MASK64 = (1 << 64) - 1

KINDS = ("input-order", "lexicographic", "seeded")


class _SplitMix64:
    """The committed 64-bit mixing generator behind the seeded policy."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class TieBreakPolicy:
    """A reproducible rule for resolving free choices.

    ``seed`` is required for the seeded kind (64-bit unsigned) and must be
    absent for the other two.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown tie-break kind {self.kind!r} (expected one of {', '.join(KINDS)})"
            )
        if self.kind == "seeded":
            if self.seed is None:
                raise ValueError("seeded tie-break requires a seed")
            if not 0 <= self.seed < 1 << 64:
                raise ValueError("seed must be an unsigned 64-bit integer")
        elif self.seed is not None:
            raise ValueError(f"{self.kind} tie-break takes no seed")

    @classmethod
    def input_order(cls) -> "TieBreakPolicy":
        return cls("input-order")

    @classmethod
    def lexicographic(cls) -> "TieBreakPolicy":
        return cls("lexicographic")

    @classmethod
    def seeded(cls, seed: int) -> "TieBreakPolicy":
        return cls("seeded", seed)

    @classmethod
    def parse(cls, text: str) -> "TieBreakPolicy":
        """Parse the command-line spelling: ``input``, ``lex``, or ``seed:<u64>``."""
        if text == "input":
            return cls.input_order()
        if text == "lex":
            return cls.lexicographic()
        if text.startswith("seed:"):
            raw = text[len("seed:"):]
            try:
                seed = int(raw, 10)
            except ValueError:
                raise ValueError(f"seed is not an integer: {raw!r}") from None
            if not 0 <= seed < 1 << 64:
                raise ValueError(f"seed out of unsigned 64-bit range: {raw}")
            return cls.seeded(seed)
        raise ValueError(
            f"unrecognized tie-break spec {text!r} (expected input, lex, or seed:<u64>)"
        )

    def start(self) -> "TieBreaker":
        """Fresh breaker for one operation run, keeping operations pure in (input, policy)."""
        return TieBreaker(self)


class TieBreaker:
    """Arranges candidate lists during one operation run.

    Callers hand candidates over in base order (normally ground order).
    For the seeded kind, successive calls consume one shared splitmix64
    stream, so the sequence of calls is part of the deterministic result.
    """

    def __init__(self, policy: TieBreakPolicy):
        self.policy = policy
        self._rng = _SplitMix64(policy.seed) if policy.kind == "seeded" else None

    def arrange(self, items) -> list[str]:
        items = list(items)
        if self.policy.kind == "lexicographic":
            items.sort()
        elif self.policy.kind == "seeded":
            for i in range(len(items) - 1, 0, -1):
                j = self._rng.next() % (i + 1)
                items[i], items[j] = items[j], items[i]
        return items

    def pick(self, items) -> str:
        """First element of the arranged candidate list."""
        return self.arrange(items)[0]


def _breaker(policy: TieBreakPolicy | None) -> TieBreaker:
    """The breaker of one operation run; no policy means input order."""
    return (TieBreakPolicy.input_order() if policy is None else policy).start()


def _layout(policy: TieBreakPolicy | None, segments) -> tuple[str, ...]:
    """Each segment arranged in turn by one breaker, concatenated."""
    return tuple(chain.from_iterable(map(_breaker(policy).arrange, segments)))
