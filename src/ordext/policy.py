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
``next() % (i + 1)``, walking i from the last index down to 1.  A choice
among k candidates spends k - 1 draws.  How the draws are computed is
not contract: draw t depends on nothing but the state and t (Steele, Lea
and Flood 2014), so :meth:`_SplitMix64.draws` computes a call's draws
together in 128-bit lanes of one int, and :meth:`TieBreaker.pick` finds
the element the shuffle would put first without shuffling.

One operation run spends one stream, from one :meth:`TieBreakPolicy.start`.
For the constructions, :func:`_layout` starts it, reading
``policy=None`` as input order, and arranges an operation's segments in
turn with that breaker, empty ones included, each segment's draws
following the previous segment's.  Linearization reads ``policy=None``
as input order itself, so without a policy it never loads this module.
"""

import sys
from itertools import chain
from operator import mod
from typing import Sequence

from .core import _Record

_MASK64 = (1 << 64) - 1

KINDS = ("input-order", "lexicographic", "seeded")

_GOLDEN = 0x9E3779B97F4A7C15

# Lanes per block of draws: bounds the lane constants and each block's ints.
_BLOCK = 1024

# Per lane count (a power of two up to _BLOCK): ONES with 1 in every 128-bit
# lane, RAMP with t * _GOLDEN in lane t (unreduced, below 2**76), LOW with the
# low 64 bits of each lane set.  Built on first use, so importing costs nothing.
_LANES: dict[int, tuple[int, int, int]] = {}

# The low halves of the lanes among the 64-bit words of the lanes' native bytes.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _lanes(n: int) -> tuple[int, int, int]:
    """Build and cache the lane constants for n lanes, in time linear in n."""
    ones = ((1 << 128 * n) - 1) // ((1 << 128) - 1)
    ramp = int.from_bytes(b"".join((t * _GOLDEN).to_bytes(16, "little") for t in range(n)), "little")
    _LANES[n] = ones, ramp, ones * _MASK64
    return _LANES[n]


class _SplitMix64:
    """The committed 64-bit mixing generator behind the seeded policy.

    The t-th draw from state s mixes s + t * golden alone, so the draws of
    one call are independent: :meth:`draws` gives each its own 128-bit
    lane of one int and runs both mixing rounds on all lanes at once.  A
    64x64-bit product fits its lane, and the LOW mask cuts every lane back
    to 64 bits and clears what a shift carried in from the lane above.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def draws(self, m: int) -> list[int]:
        """The next m values of the stream."""
        out: list[int] = []
        state = self._state
        for done in range(0, m, _BLOCK):
            k = min(m - done, _BLOCK)
            lanes = 1 << (k - 1).bit_length()
            ones, ramp, low = _LANES.get(lanes) or _lanes(lanes)
            z = (((state + _GOLDEN) & _MASK64) * ones + ramp) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            z ^= z >> 31
            out += memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS][:k].tolist()
            state = (state + k * _GOLDEN) & _MASK64
        self._state = state
        return out


class TieBreakPolicy(_Record):
    """A reproducible rule for resolving free choices.

    ``seed`` is required for the seeded kind (64-bit unsigned) and must be
    absent for the other two.
    """

    _fields = ("kind", "seed")
    kind: str
    seed: int | None

    def __init__(self, kind: str, seed: int | None = None):
        vars(self).update(kind=kind, seed=seed)
        if kind not in KINDS:
            raise ValueError(
                f"unknown tie-break kind {kind!r} (expected one of {', '.join(KINDS)})"
            )
        if kind == "seeded":
            if seed is None:
                raise ValueError("seeded tie-break requires a seed")
            if not isinstance(seed, int) or not 0 <= seed < 1 << 64:
                raise ValueError("seed must be an unsigned 64-bit integer")
        elif seed is not None:
            raise ValueError(f"{kind} tie-break takes no seed")

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
            k = len(items)
            for i, j in zip(range(k - 1, 0, -1), map(mod, self._rng.draws(k - 1), range(k, 1, -1))):
                items[i], items[j] = items[j], items[i]
        return items

    def pick(self, items: Sequence[str]) -> str:
        """The element `arrange(items)` would put first, found without arranging.

        Input order takes the first item and lexicographic the least.
        Seeded spends the same k - 1 draws as the shuffle.  Its swaps run
        i = k-1 down to 1, so walking them back from i = 1 follows position
        0 to where its element started: swap i moves the followed position
        p < i only when it draws p, and then p becomes i.
        """
        if self.policy.kind == "lexicographic":
            return min(items)
        p = 0
        if self.policy.kind == "seeded" and len(items) > 1:
            k = len(items)
            # swaps[i - 1] is the position swap i draws; the last slot, kept equal
            # to p, stops the search at i = k when no later swap draws p.
            swaps = [*map(mod, reversed(self._rng.draws(k - 1)), range(2, k + 1)), p]
            while (i := swaps.index(p, p) + 1) < k:
                p = swaps[-1] = i
        return items[p]


def _layout(policy: TieBreakPolicy | None, segments) -> tuple[str, ...]:
    """Each segment arranged in turn by the breaker of one operation run, concatenated;
    no policy means input order."""
    breaker = (TieBreakPolicy.input_order() if policy is None else policy).start()
    return tuple(chain.from_iterable(map(breaker.arrange, segments)))
