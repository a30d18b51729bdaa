"""Independent reference implementations.

Each oracle takes a different route than the library: closure by
repeated relational composition instead of reachability search,
extension enumeration by filtering whole permutations instead of
backtracking, extension counting by one dynamic program over the
downsets of the whole ground instead of one per comparability
component, density by a full double loop instead of consecutive-gap
checks, incomparable pairs and order-axiom witnesses by scanning pairs
and triples of the pair set instead of bitmasks, the seeded generator
one draw at a time instead of in lanes, linearization by shuffling
each candidate list in full instead of following one position through
the swaps, the relation and partition readers by checking every
token occurrence, collecting the ground in a second pass and cutting
partition blocks in their own `---` loop instead of one shared section
reader, and the ground check, the sequence and bijection readers and
the `Partition` and `Bijection` constructors by checking one token at a
time instead of one batch.  Agreement between the routes is what the
property tests assert.
"""

from __future__ import annotations

from itertools import chain, islice, permutations

from ordext import (
    DuplicateElement,
    EmptyBlock,
    InvalidToken,
    LinearOrder,
    NotBijective,
    NotDisjoint,
    ParseError,
    Poset,
    TieBreakPolicy,
    check_token,
)

_MASK64 = (1 << 64) - 1


def reference_draws(seed):
    """The committed splitmix64 stream, one draw at a time, without end."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def reference_stream(seed, count):
    """The first `count` draws of the stream from `seed`."""
    return list(islice(reference_draws(seed), count))


def reference_shuffle(items, stream):
    """The committed Fisher-Yates pass, taking len(items) - 1 draws from `stream`."""
    items = list(items)
    draws = iter(stream)
    for i in range(len(items) - 1, 0, -1):
        j = next(draws) % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def linearize_by_kahn(poset: Poset, policy: TieBreakPolicy) -> tuple[str, ...]:
    """Source removal over the pair set: each step lists the unplaced elements
    with no unplaced predecessor in ground order and takes the first of the
    policy's full arrangement of them."""
    draws = reference_draws(policy.seed) if policy.kind == "seeded" else None
    preds = {tok: set() for tok in poset.ground}
    for x, y in poset.relation:
        preds[y].add(x)
    out: list[str] = []
    placed: set[str] = set()
    while len(out) < len(poset.ground):
        ready = [tok for tok in poset.ground if tok not in placed and preds[tok] <= placed]
        if policy.kind == "lexicographic":
            ready = sorted(ready)
        elif policy.kind == "seeded":
            ready = reference_shuffle(ready, draws)
        out.append(ready[0])
        placed.add(ready[0])
    return tuple(out)


def closure_fixpoint(pairs) -> set[tuple[str, str]]:
    """Compose the relation with itself until nothing new appears."""
    rel = set(pairs)
    while True:
        new = {(x, z) for x, y in rel for w, z in rel if y == w} - rel
        if not new:
            return rel
        rel |= new


def extensions_by_filter(poset: Poset) -> set[tuple[str, ...]]:
    """All linear extensions, found by filtering every permutation."""
    out = set()
    rel = poset.relation
    for perm in permutations(sorted(poset.ground)):
        pos = {tok: i for i, tok in enumerate(perm)}
        if all(pos[x] < pos[y] for x, y in rel):
            out.add(perm)
    return out


def count_by_downsets(poset: Poset) -> int:
    """Extension count by dynamic programming over the downsets of the whole ground."""
    n = len(poset.ground)
    pred = poset.pred
    down = [mask | 1 << i for i, mask in enumerate(pred)]

    current: dict[int, int] = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, ways in current.items():
            for i in range(n):
                if mask & down[i] == pred[i]:
                    grown = mask | 1 << i
                    nxt[grown] = nxt.get(grown, 0) + ways
        current = nxt
    return current.get((1 << n) - 1, 0)


def dense_double_loop(t1, t2, order: LinearOrder, strict: bool) -> bool:
    """Density checked over every T2 pair, not just consecutive ones."""
    pos = order.positions
    witnesses = [pos[c] for c in t1]
    for a in t2:
        for b in t2:
            if pos[a] >= pos[b]:
                continue
            if strict:
                ok = any(pos[a] < w < pos[b] for w in witnesses)
            else:
                ok = any(pos[a] <= w <= pos[b] for w in witnesses)
            if not ok:
                return False
    return True


def strict_order_axioms_hold(ground, rel) -> bool:
    """Irreflexivity, antisymmetry, transitivity by exhaustive triple scan."""
    for x in ground:
        if (x, x) in rel:
            return False
    for x in ground:
        for y in ground:
            if x != y and (x, y) in rel and (y, x) in rel:
                return False
    for x in ground:
        for y in ground:
            for z in ground:
                if (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                    return False
    return True


def incomparable_by_double_loop(poset: Poset) -> list[tuple[str, str]]:
    """Unordered incomparable pairs, the earlier ground element first."""
    g, rel = poset.ground, poset.relation
    return [
        (g[i], g[j])
        for i in range(len(g))
        for j in range(i + 1, len(g))
        if (g[i], g[j]) not in rel and (g[j], g[i]) not in rel
    ]


def first_two_cycle(ground, rel):
    """First (x, y, x) with x < y and y < x both in rel, x then y by ground index."""
    for x in ground:
        for y in ground:
            if x != y and (x, y) in rel and (y, x) in rel:
                return (x, y, x)
    return None


def first_unclosed_triple(ground, rel):
    """First (x, y, z) by ground index with x < y and y < z in rel but not x < z."""
    for x in ground:
        for y in ground:
            for z in ground:
                if (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                    return (x, y, z)
    return None


def is_total(ground, rel) -> bool:
    return all(
        x == y or (x, y) in rel or (y, x) in rel for x in ground for y in ground
    )


def _reference_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _reference_checked(tokens, path, lineno):
    try:
        return tuple(map(check_token, tokens))
    except InvalidToken as exc:
        raise ParseError(str(exc), path, lineno) from None


def _reference_one_token(line, path, lineno):
    fields = line.split()
    if len(fields) != 1:
        raise ParseError("expected one element per line", path, lineno)
    return _reference_checked(fields, path, lineno)[0]


def _reference_pair(line, path, lineno):
    if "<" not in line:
        raise ParseError("expected a pair written as 'x < y'", path, lineno)
    left, _, right = line.partition("<")
    if "<" in right:
        raise ParseError("more than one '<' on the line", path, lineno)
    return _reference_checked((left.strip(), right.strip()), path, lineno)


def parse_relation_reference(text, path=None):
    """The relation reader checking every token occurrence, ground in a second pass."""
    lines = _reference_lines(text)
    separators = [i for i, (_, line) in enumerate(lines) if line == "---"]
    if len(separators) > 1:
        lineno = lines[separators[1]][0]
        raise ParseError("more than one '---' separator", path, lineno)
    if separators:
        cut = separators[0]
        header, body = lines[:cut], lines[cut + 1 :]
    else:
        header, body = [], lines
    ground = [_reference_one_token(line, path, lineno) for lineno, line in header]
    pairs = [_reference_pair(line, path, lineno) for lineno, line in body]
    seen = set(ground)
    for tok in chain.from_iterable(pairs):
        if tok not in seen:
            ground.append(tok)
            seen.add(tok)
    return tuple(ground), pairs


def parse_partition_reference(text, path=None):
    """The partition reader cutting blocks in its own `---` loop."""
    lines = _reference_lines(text)
    blocks = []
    current = []
    for lineno, line in lines:
        if line == "---":
            blocks.append(tuple(current))
            current = []
        else:
            current.append(_reference_one_token(line, path, lineno))
    if lines:
        blocks.append(tuple(current))
    return partition_blocks_reference(blocks)


def check_ground_reference(tokens):
    """The ground check one token at a time, each token checked, then tested for a repeat."""
    seq = tuple(tokens)
    seen = set()
    for tok in seq:
        check_token(tok)
        if tok in seen:
            raise DuplicateElement(tok)
        seen.add(tok)
    return seq


def partition_blocks_reference(blocks):
    """The blocks `Partition` keeps, checked one token at a time in block order."""
    blocks = tuple(tuple(block) for block in blocks)
    owner = {}
    for i, block in enumerate(blocks, start=1):
        if not block:
            raise EmptyBlock(i)
        for tok in block:
            check_token(tok)
            if owner.get(tok) == i:
                raise DuplicateElement(tok)
            if tok in owner:
                raise NotDisjoint(tok, f"blocks {owner[tok]} and {i}")
            owner[tok] = i
    return blocks


def bijection_pairs_reference(pairs):
    """The pairs `Bijection` keeps, checked one pair at a time in input order."""
    pairs = tuple((y, x) for y, x in pairs)
    seen_domain = set()
    seen_image = set()
    for y, x in pairs:
        check_token(y)
        check_token(x)
        if y in seen_domain:
            raise NotBijective(f"{y!r} has two images", y)
        if x in seen_image:
            raise NotBijective(f"two elements map to {x!r}", x)
        seen_domain.add(y)
        seen_image.add(x)
    return pairs


def parse_sequence_reference(text, path=None):
    """The sequence reader checking each line's token as it reads it."""
    return tuple(_reference_one_token(line, path, lineno) for lineno, line in _reference_lines(text))


def parse_bijection_reference(text, path=None):
    """The bijection reader checking each mapping's tokens as it reads the line."""
    pairs = []
    for lineno, line in _reference_lines(text):
        fields = line.split()
        if len(fields) != 3 or fields[1] != "->":
            raise ParseError("expected a mapping written as 'y -> x'", path, lineno)
        pairs.append(_reference_checked((fields[0], fields[2]), path, lineno))
    return bijection_pairs_reference(pairs)
