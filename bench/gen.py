"""Seeded input generator for the ordext benchmark.

`build(workload, seed, profile)` returns the input files of one workload
and its fixed list of operations.  The seed decides element names, line
order, ground order, edges, forced pairs and tie-break seeds; the sizes
and the mix of operations are fixed per workload, so every seed costs
about the same.  Alongside each operation the generator keeps the facts
an independent check needs (ground, input pairs, the closure computed
here with bitsets, chain lengths), computed without calling ordext.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Each workload runs the operation lists of two parts, so that one run is
# long enough to average over the slow phases of a shared machine.
WORKLOADS = {
    "deps": ("deps-linearize", "deps-closure"),
    "wide-exhaustive": ("wide-seeded", "exhaustive"),
}

# Sizes per part.  "smoke" keeps every operation kind at toy sizes for
# the self-test; "full" is what the benchmark measures.
SIZES = {
    "full": {
        "deps-linearize": {"chains": (50, 65, 80, 95, 110), "dags": (300, 450, 600, 750, 900)},
        "deps-closure": {"chains": (50, 75, 85), "dags": (300, 650, 800)},
        "wide-seeded": {
            "antichains": (150, 250, 350),
            "wide": ((400, 2), (450, 2), (500, 3), (550, 3)),
            "bipartition": (500, 1000, 3000, 6000),
            "blocks": (1000, 2000, 5000),
            "interleave": (2000, 5000),
            "dense": (3000, 6000),
        },
        "exhaustive": {
            "count_chains": (
                (1,) * 12, (2,) * 6, (3, 3, 3, 3), (2,) * 7, (4, 4, 4, 4), (5, 5, 5), (3,) * 6,
                (2, 2, 2, 3, 3, 3, 3), (2,) * 9, (4,) * 5, (2,) * 10,
            ),
            # (n, downsets): the downsets are the states of the counting DP.
            "count_sparse": ((12, 600), (13, 900), (14, 1200), (15, 1800), (16, 2400)),
            "enum_chains": ((2, 2, 2, 1), (3, 3, 2), (1,) * 7, (2, 2, 2, 2)),
            "enum_sparse": ((7, 1260),),  # (n, linear extensions)
            "enum_limited": ((12, 3000), (13, 3000), (14, 3000), (15, 3000)),
        },
    },
    "smoke": {
        "deps-linearize": {"chains": (8,), "dags": (20,)},
        "deps-closure": {"chains": (8,), "dags": (20,)},
        "wide-seeded": {
            "antichains": (10,),
            "wide": ((12, 2),),
            "bipartition": (20,),
            "blocks": (20,),
            "interleave": (20,),
            "dense": (20,),
        },
        "exhaustive": {
            "count_chains": ((2, 2),),
            "count_sparse": ((6, 20),),
            "enum_chains": ((2, 1),),
            "enum_sparse": ((4, 6),),
            "enum_limited": ((6, 5),),
        },
    },
}

SPARSE_DENSITY = 0.12
# Random sparse posets of one size differ widely in cost: at n=16 their
# downset counts run from about 200 to 12000.  Of SPARSE_CANDIDATES draws
# the generator keeps the one nearest a target, so every seed costs about
# the same.
SPARSE_CANDIDATES = 12


@dataclass
class Relation:
    """An input relation file plus what the independent checks know about it.

    `ground` is the order ordext reads (header first, then first
    appearance in pair lines); `succ[i]` is the bitmask of everything
    strictly above ground[i] in the closure.
    """

    ground: tuple[str, ...]
    pairs: list[tuple[str, str]]
    succ: list[int]
    chains: tuple[int, ...] | None = None

    @property
    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.ground)}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation and its in-process counterpart."""

    command: str
    files: tuple[str, ...]
    tie_break: str | None = None
    force: tuple[str, str] | None = None
    limit: int | None = None
    auto_close: bool = False
    machine: bool = False
    pair: tuple[str, str] | None = None

    def argv(self) -> list[str]:
        out = [self.command]
        if self.auto_close:
            out.append("--auto-close")
        if self.tie_break is not None:
            out += ["--tie-break", self.tie_break]
        if self.force is not None:
            out += ["--force", *self.force]
        if self.limit is not None:
            out += ["--limit", str(self.limit)]
        if self.machine:
            out += ["--output", "machine"]
        out += self.files
        if self.pair is not None:
            out += self.pair
        return out

    @property
    def seeded(self) -> bool:
        return self.tie_break is not None and self.tie_break.startswith("seed:")


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    relations: dict[str, Relation] = field(default_factory=dict)
    # Facts for construction checks, keyed by the op's first file.
    facts: dict[str, dict] = field(default_factory=dict)


def _tokens(rng: random.Random, n: int, prefix: str) -> list[str]:
    return [f"{prefix}{k:06d}" for k in rng.sample(range(10**6), n)]


def _closure(n: int, direct: list[list[int]]) -> list[int]:
    """Successor bitmasks of the transitive closure; `direct` must be acyclic."""
    indeg = [0] * n
    for outs in direct:
        for j in outs:
            indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:
        for j in direct[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    succ = [0] * n
    for i in reversed(order):
        mask = 0
        for j in direct[i]:
            mask |= (1 << j) | succ[j]
        succ[i] = mask
    return succ


def _relation(ground: list[str], pairs: list[tuple[str, str]], chains=None) -> Relation:
    index = {tok: i for i, tok in enumerate(ground)}
    direct: list[list[int]] = [[] for _ in ground]
    for x, y in pairs:
        direct[index[x]].append(index[y])
    return Relation(tuple(ground), list(pairs), _closure(len(ground), direct), chains)


def _dependency_file(rng: random.Random, pairs: list[tuple[str, str]]) -> tuple[str, Relation]:
    """Pair lines only, shuffled; the ground is the first-appearance order."""
    lines = list(pairs)
    rng.shuffle(lines)
    ground: list[str] = []
    seen: set[str] = set()
    for x, y in lines:
        for tok in (x, y):
            if tok not in seen:
                seen.add(tok)
                ground.append(tok)
    text = "".join(f"{x} < {y}\n" for x, y in lines)
    return text, _relation(ground, lines)


def _header_file(rng: random.Random, elements: list[str], pairs, chains=None) -> tuple[str, Relation]:
    """Full ground header in shuffled order, then shuffled pair lines."""
    ground = list(elements)
    rng.shuffle(ground)
    lines = list(pairs)
    rng.shuffle(lines)
    text = "".join(f"{tok}\n" for tok in ground) + "---\n" + "".join(f"{x} < {y}\n" for x, y in lines)
    return text, _relation(ground, lines, chains)


def _chain_pairs(rng: random.Random, n: int) -> list[tuple[str, str]]:
    toks = _tokens(rng, n, "c")
    return list(zip(toks, toks[1:]))


def _layered(rng: random.Random, n: int, layers: int, fanin: int) -> tuple[list[list[str]], list[tuple[str, str]]]:
    toks = _tokens(rng, n, "d")
    width = n // layers
    levels = [toks[k * width:(k + 1) * width] for k in range(layers - 1)]
    levels.append(toks[(layers - 1) * width:])
    pairs = []
    for below, above in zip(levels, levels[1:]):
        for tok in above:
            for pred in rng.sample(below, min(fanin, len(below))):
                pairs.append((pred, tok))
    return levels, pairs


def _sparse_pairs(rng: random.Random, toks: list[str]) -> list[tuple[str, str]]:
    hidden = list(toks)
    rng.shuffle(hidden)
    return [
        (hidden[i], hidden[j])
        for i in range(len(hidden))
        for j in range(i + 1, len(hidden))
        if rng.random() < SPARSE_DENSITY
    ]


def _sparse_near(rng: random.Random, toks: list[str], target: int, count_downsets: bool) -> list[tuple[str, str]]:
    """Of SPARSE_CANDIDATES sparse relations on `toks`, the one whose number
    of downsets (or of linear extensions) is nearest `target` by ratio."""
    full = (1 << len(toks)) - 1
    best = None
    for _ in range(SPARSE_CANDIDATES):
        pairs = _sparse_pairs(rng, toks)
        succ = _relation(toks, pairs).succ
        found = _downsets(succ, 2 * target) if count_downsets else extension_memo(succ)[full]
        miss = abs(math.log(found / target))
        if best is None or miss < best[0]:
            best = (miss, pairs)
    return best[1]


def _downsets(succ: list[int], cap: int) -> int:
    """The number of downsets of the closure `succ`, counted up to `cap`,
    so that a candidate far above the target costs no more than one near it."""
    seen = {(1 << len(succ)) - 1}
    stack = list(seen)
    while stack and len(seen) < cap:
        rest = stack.pop()
        for i in bits(rest):
            smaller = rest & ~(1 << i)
            if not succ[i] & rest and smaller not in seen:
                seen.add(smaller)
                stack.append(smaller)
    return len(seen)


def _disjoint_chains(rng: random.Random, lengths: tuple[int, ...]) -> tuple[list[str], list[tuple[str, str]]]:
    toks = _tokens(rng, sum(lengths), "k")
    pairs, start = [], 0
    for length in lengths:
        run = toks[start:start + length]
        pairs += list(zip(run, run[1:]))
        start += length
    return toks, pairs


def canonical_text(rel: Relation) -> str:
    """The closed relation in ordext's canonical relation format."""
    lines = list(rel.ground)
    lines.append("---")
    g = rel.ground
    for i, mask in enumerate(rel.succ):
        lines.extend(f"{g[i]} < {g[j]}" for j in bits(mask))
    return "\n".join(lines) + "\n"


def extension_memo(succ: list[int]) -> dict[int, int]:
    """Linear extensions of every downset (a bitmask) of the closure `succ`,
    by a top-down recursion over maximal elements; one entry per downset."""
    memo: dict[int, int] = {0: 1}

    def rec(rest: int) -> int:
        if rest in memo:
            return memo[rest]
        total = 0
        for i in bits(rest):
            if not succ[i] & rest:
                total += rec(rest & ~(1 << i))
        memo[rest] = total
        return total

    rec((1 << len(succ)) - 1)
    return memo


def bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _incomparable_pick(rng: random.Random, rel: Relation, pool: list[str]) -> tuple[str, str]:
    index = rel.index
    pool = [tok for tok in pool if tok in index]
    while True:
        x, y = rng.sample(pool, 2)
        i, j = index[x], index[y]
        if not (rel.succ[i] >> j) & 1 and not (rel.succ[j] >> i) & 1:
            return x, y


def _policy(rng: random.Random) -> str:
    return f"seed:{rng.getrandbits(64)}"


def _add_relation(w: Workload, name: str, text: str, rel: Relation) -> str:
    w.files[name] = text
    w.relations[name] = rel
    return name


def _deps_linearize(w: Workload, rng: random.Random, sizes: dict) -> None:
    for n in sizes["chains"]:
        name = _add_relation(w, f"chain{n}.txt", *_dependency_file(rng, _chain_pairs(rng, n)))
        w.ops.append(Op("linearize", (name,)))
        w.ops.append(Op("linearize", (name,), tie_break="lex"))
    for n in sizes["dags"]:
        levels, pairs = _layered(rng, n, 4, 2)
        name = _add_relation(w, f"dag{n}.txt", *_dependency_file(rng, pairs))
        w.ops.append(Op("linearize", (name,)))
        w.ops.append(Op("linearize", (name,), tie_break="lex"))
        force = _incomparable_pick(rng, w.relations[name], levels[rng.randrange(len(levels))])
        w.ops.append(Op("szpilrajn", (name,), force=force))


def _deps_closure(w: Workload, rng: random.Random, sizes: dict) -> None:
    families = [("chain", n, _chain_pairs(rng, n)) for n in sizes["chains"]]
    families += [("dag", n, _layered(rng, n, 4, 2)[1]) for n in sizes["dags"]]
    for kind, n, pairs in families:
        name = _add_relation(w, f"closure-{kind}{n}.txt", *_dependency_file(rng, pairs))
        rel = w.relations[name]
        closed = _add_relation(w, f"closure-{kind}{n}-closed.txt", canonical_text(rel), rel)
        w.ops.append(Op("closure", (name,)))
        w.ops.append(Op("validate", (name,), auto_close=True))
        w.ops.append(Op("validate", (closed,)))
        # Listing every incomparable pair of a DAG is quadratic output, so
        # only the smallest DAG lists them; the others test one pair.
        if kind == "chain" or n == sizes["dags"][0]:
            w.ops.append(Op("incomparable", (name,), machine=True))
        if kind == "dag":
            w.ops.append(Op("incomparable", (name,), pair=tuple(rng.sample(rel.ground, 2))))


def _sequence(toks) -> str:
    return "".join(f"{tok}\n" for tok in toks)


def _wide_seeded(w: Workload, rng: random.Random, sizes: dict) -> None:
    for n in sizes["antichains"]:
        toks = _tokens(rng, n, "a")
        name = _add_relation(w, f"anti{n}.txt", *_header_file(rng, toks, []))
        w.ops.append(Op("linearize", (name,), tie_break=_policy(rng)))
        w.ops.append(Op("linearize", (name,), tie_break="lex"))
    for n, layers in sizes["wide"]:
        levels, pairs = _layered(rng, n, layers, 1)
        toks = [tok for level in levels for tok in level]
        name = _add_relation(w, f"wide{n}.txt", *_header_file(rng, toks, pairs))
        w.ops.append(Op("linearize", (name,), tie_break=_policy(rng)))
        w.ops.append(Op("linearize", (name,), tie_break="lex"))
    for n in sizes["bipartition"]:
        toks = _tokens(rng, n, "g")
        picked = rng.sample(toks, n // 2)
        a, b = picked[: n // 4], picked[n // 4:]
        files = (f"bip{n}-ground.txt", f"bip{n}-a.txt", f"bip{n}-b.txt")
        for fname, seq in zip(files, (toks, a, b)):
            w.files[fname] = _sequence(seq)
        w.facts[files[0]] = {"ground": toks, "a": set(a), "b": set(b)}
        w.ops.append(Op("bipartition", files, tie_break=_policy(rng)))
    for n in sizes["blocks"]:
        toks = _tokens(rng, n, "g")
        picked = rng.sample(toks, (n * 3) // 5)
        blocks = [picked[i:i + 20] for i in range(0, len(picked), 20)]
        files = (f"blocks{n}-ground.txt", f"blocks{n}-partition.txt")
        w.files[files[0]] = _sequence(toks)
        w.files[files[1]] = "---\n".join(_sequence(block) for block in blocks)
        w.facts[files[0]] = {"ground": toks, "blocks": blocks}
        w.ops.append(Op("blocks", files, tie_break=_policy(rng)))
    for n in sizes["interleave"]:
        toks = _tokens(rng, n, "g")
        ys, xs = toks[: n // 2], toks[n // 2:]
        images = list(xs)
        rng.shuffle(images)
        phi = list(zip(ys, images))
        rng.shuffle(phi)
        files = (f"inter{n}-y.txt", f"inter{n}-x.txt", f"inter{n}-phi.txt")
        w.files[files[0]] = _sequence(ys)
        w.files[files[1]] = _sequence(xs)
        w.files[files[2]] = "".join(f"{y} -> {x}\n" for y, x in phi)
        w.facts[files[0]] = {"ys": ys, "phi": dict(phi)}
        w.ops.append(Op("interleave", files, tie_break=_policy(rng)))
    for n in sizes["dense"]:
        # T1 interleaves T2 in the order, so the answer is true and the
        # check walks every gap.
        toks = _tokens(rng, n, "g")
        t2, t1 = toks[: n // 2], toks[n // 2:]
        order = [tok for pair in zip(t2, t1) for tok in pair]
        files = (f"dense{n}-order.txt", f"dense{n}-t1.txt", f"dense{n}-t2.txt")
        shuffled_t1, shuffled_t2 = list(t1), list(t2)
        rng.shuffle(shuffled_t1)
        rng.shuffle(shuffled_t2)
        for fname, seq in zip(files, (order, shuffled_t1, shuffled_t2)):
            w.files[fname] = _sequence(seq)
        w.ops.append(Op("dense-check", files))


def _exhaustive(w: Workload, rng: random.Random, sizes: dict) -> None:
    for lengths in sizes["count_chains"]:
        toks, pairs = _disjoint_chains(rng, lengths)
        name = _add_relation(w, f"chains{'-'.join(map(str, lengths))}.txt", *_header_file(rng, toks, pairs, lengths))
        w.ops.append(Op("count", (name,)))
    for n, downsets in sizes["count_sparse"]:
        toks = _tokens(rng, n, "s")
        pairs = _sparse_near(rng, toks, downsets, count_downsets=True)
        name = _add_relation(w, f"sparse{n}.txt", *_header_file(rng, toks, pairs))
        w.ops.append(Op("count", (name,)))
    for lengths in sizes["enum_chains"]:
        toks, pairs = _disjoint_chains(rng, lengths)
        name = _add_relation(w, f"enum-chains{'-'.join(map(str, lengths))}.txt", *_header_file(rng, toks, pairs, lengths))
        w.ops.append(Op("enumerate", (name,), machine=True))
    for n, extensions in sizes["enum_sparse"]:
        toks = _tokens(rng, n, "s")
        pairs = _sparse_near(rng, toks, extensions, count_downsets=False)
        name = _add_relation(w, f"enum-sparse{n}.txt", *_header_file(rng, toks, pairs))
        w.ops.append(Op("enumerate", (name,), machine=True))
    for n, limit in sizes["enum_limited"]:
        toks = _tokens(rng, n, "s")
        name = _add_relation(w, f"enum-limited{n}.txt", *_header_file(rng, toks, _sparse_pairs(rng, toks)))
        w.ops.append(Op("enumerate", (name,), limit=limit, machine=True))


_MAKERS = {
    "deps-linearize": _deps_linearize,
    "deps-closure": _deps_closure,
    "wide-seeded": _wide_seeded,
    "exhaustive": _exhaustive,
}


def build(workload: str, seed: int, profile: str = "full") -> Workload:
    """All inputs and the fixed operation list of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    w = Workload()
    for part in WORKLOADS[workload]:
        _MAKERS[part](w, rng, SIZES[profile][part])
    return w
