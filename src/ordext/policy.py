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
not contract: draw t depends on nothing but the seed and t (Steele, Lea
and Flood 2014), so :class:`_SplitMix64` computes them ahead, in blocks of
128-bit lanes of one int, into one buffer per run kept in stream order,
which :meth:`_SplitMix64.draws` alone reads; :meth:`TieBreaker._first`
finds the position the shuffle would put first without shuffling.

One operation run spends one stream, from one :meth:`TieBreakPolicy.start`.
For the constructions, :func:`_layout` starts it, reading
``policy=None`` as input order, and arranges an operation's segments in
turn with that breaker, empty ones included, each segment's draws
following the previous segment's.  Linearization reads ``policy=None``
as input order itself, so without a policy it never loads this module.
"""

import sys
from functools import cache
from itertools import chain
from operator import mod

from .core import _Record
from .errors import _integer

_MASK64 = (1 << 64) - 1

KINDS = ("input-order", "lexicographic", "seeded")

_GOLDEN = 0x9E3779B97F4A7C15

# Lanes per block of draws: bounds the lane constants and each block's ints.
_BLOCK = 1024

# The low halves of the lanes, lane 0 first, among the 64-bit words of the lanes' bytes in each
# byte order: a little-endian int puts lane t's low word at 2t, a big-endian one lane 0's last.
_IN_ORDER = {"little": slice(None, None, 2), "big": slice(None, None, -2)}
_LOW_WORDS = _IN_ORDER[sys.byteorder]


# Per lane count (a power of two from 16 up to _BLOCK): ONES with 1 in every 128-bit lane, RAMP with
# t * _GOLDEN in lane t (unreduced, below 2**76), LOW with the low 64 bits of each lane set, and STEP
# with n * _GOLDEN (reduced) in every lane of n, which moves a block's unmixed lanes on to the next
# block's.  Built on first use and kept by `functools.cache`, so importing costs nothing.
@cache
def _lanes(n: int) -> tuple[int, int, int, int]:
    """The lane constants ONES, RAMP, LOW and STEP for n lanes, built in time linear in n."""
    ones = ((1 << 128 * n) - 1) // ((1 << 128) - 1)
    ramp = int.from_bytes(b"".join((t * _GOLDEN).to_bytes(16, "little") for t in range(n)), "little")
    return ones, ramp, ones * _MASK64, (n * _GOLDEN & _MASK64) * ones


class _SplitMix64:
    """The committed 64-bit mixing generator behind the seeded policy.

    Draw t (from 1) of seed s mixes s + t * golden alone, so draws are
    independent of one another and are computed ahead, in blocks, into one
    buffer per run: a view of the last block's words in stream order, read
    out as ints only when spent.  A block gives each draw its own 128-bit lane
    of one int and runs both mixing rounds on all lanes at once.  A
    64x64-bit product fits its lane, and the LOW mask cuts every lane back
    to 64 bits and clears what a shift carried in from the lane above.  A
    block covers what a call is short, in lanes a power of two from 16 up
    to _BLOCK and at least a quarter of the lanes made so far: a run of
    many small choices refills rarely, and a run ends with at most that
    quarter, or one call's rounding, made and never spent.  A block as
    wide as the last one starts from that block's unmixed lanes plus STEP.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._ahead = memoryview(b"").cast("Q")  # draws made and not yet spent, the next one first
        self._made = 0  # draws made, spent or not: the next block starts at draw _made + 1
        self._lanes = 0  # the width of the last block, whose unmixed lanes are _unmixed
        self._unmixed = 0

    def _block(self, short: int) -> memoryview:
        """The next block's draws, in stream order, as words, for a run `short` draws short."""
        lanes = min(_BLOCK, 1 << (max(short, self._made >> 2, 16) - 1).bit_length())
        ones, ramp, low, step = _lanes(lanes)
        if lanes == self._lanes:  # one wide add in place of the wide multiply below
            z = (self._unmixed + step) & low
        else:
            z = (((self._seed + (self._made + 1) * _GOLDEN) & _MASK64) * ones + ramp) & low
        self._lanes, self._unmixed = lanes, z
        self._made += lanes
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31
        return memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS]

    def draws(self, m: int) -> list[int]:
        """The next m values of the stream, in stream order, spent; only these become ints."""
        taken, self._ahead = self._ahead[:m].tolist(), self._ahead[m:]
        while (short := m - len(taken)) > 0:  # the buffer is spent: refill it with the next block
            block = self._block(short)
            taken += block[:short].tolist()
            self._ahead = block[short:]
        return taken


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
                seed = _integer(raw)
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
        elif self.policy.kind == "seeded" and (k := len(items)) > 1:
            for i, j in zip(range(k - 1, 0, -1), map(mod, self._rng.draws(k - 1), range(k, 1, -1))):
                items[i], items[j] = items[j], items[i]
        return items

    def _first(self, k: int) -> int:
        """The position the seeded shuffle of k candidates puts first, found by
        spending its k - 1 draws without shuffling.

        Its swaps run i = k-1 down to 1, so walking them back from i = 1
        follows position 0 to where its element started: swap i moves the
        followed position p < i only when it draws p, and then p becomes i.
        """
        p = 0
        if k > 1:
            # swaps[i - 1] is the position swap i draws (the draws run from i = k - 1 down, and a
            # reverse in place costs less than reading them through `reversed`); the last slot, kept
            # equal to p, stops the search at i = k when no later swap draws p.
            swaps = [p, *map(mod, self._rng.draws(k - 1), range(k, 1, -1))]
            swaps.reverse()
            while (i := swaps.index(p, p) + 1) < k:
                p = swaps[-1] = i
        return p


def _layout(policy: TieBreakPolicy | None, segments) -> tuple[str, ...]:
    """Each segment arranged in turn by the breaker of one operation run, concatenated;
    no policy means input order."""
    breaker = (TieBreakPolicy.input_order() if policy is None else policy).start()
    return tuple(chain.from_iterable(map(breaker.arrange, segments)))
