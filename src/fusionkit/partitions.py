"""Partitions, skew shapes, tableaux, and the weight/orbit dictionaries.

Conventions used throughout the package:

* A partition is a tuple of weakly decreasing non-negative integers in
  canonical form (no trailing zeros); the empty tuple is the empty partition.
  Row 1 is the longest row of the Young diagram.
* A weight of A_{N-1} is a tuple of N-1 non-negative integers, the
  coefficients on the fundamental weights.
* An orbit representative is a weakly decreasing k-tuple of residues mod N.

The pictures are linked by conjugation: an orbit representative read as a
partition has conjugate equal to the partition attached to its weight, so a
diagram inside the (N-1) x k box can be read two ways, by rows (partition)
or by column heights (orbit).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class FusionContext(NamedTuple):
    """Rank parameter N >= 2 and level k >= 1 for A_{N-1} at level k."""

    N: int
    k: int


def fusion_context(N, k) -> FusionContext:
    N, k = int(N), int(k)
    if N < 2:
        raise ValueError(f"rank parameter N must be >= 2, got {N}")
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    return FusionContext(N, k)


def normalize(parts) -> tuple:
    """Canonical partition form: weakly decreasing, trailing zeros trimmed."""
    parts = tuple(int(x) for x in parts)
    for i, x in enumerate(parts):
        if x < 0:
            raise ValueError(f"negative part {x} in {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def padded(p, n: int) -> tuple:
    """Pad p with zeros to length n (p must not be longer than n)."""
    p = tuple(p)
    if len(p) > n:
        raise ValueError(f"partition {p} longer than {n}")
    return p + (0,) * (n - len(p))


def conjugate(p) -> tuple:
    """Transpose the Young diagram: row lengths become column heights."""
    p = normalize(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def contains(outer, inner) -> bool:
    """True iff inner_i <= outer_i for all i (inner padded with zeros)."""
    outer, inner = normalize(outer), normalize(inner)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def reduce_full_columns(p, N: int) -> tuple:
    """Strip columns of height N: subtract the N-th part from every part."""
    p = padded(normalize(p), N)
    c = p[N - 1]
    return normalize(tuple(x - c for x in p))


# -- weight <-> partition <-> orbit dictionaries ----------------------------


def weight_to_partition(w) -> tuple:
    """Partial sums (sum_{j>=1} a_j, sum_{j>=2} a_j, ..., a_{N-1}), trimmed."""
    w = tuple(int(x) for x in w)
    if any(x < 0 for x in w):
        raise ValueError(f"weight coefficients must be >= 0: {w}")
    return normalize(tuple(sum(w[j:]) for j in range(len(w))))


def partition_to_weight(p, N: int) -> tuple:
    """Consecutive differences of p padded to length N; blind to full columns."""
    p = padded(normalize(p), N)
    return tuple(p[j] - p[j + 1] for j in range(N - 1))


def rep_from_multiplicities(counts) -> tuple:
    """Standard form ((N-1)^{a_{N-1}}, ..., 1^{a_1}, 0^{a_0}) from counts."""
    entries = []
    for value in range(len(counts) - 1, -1, -1):
        entries.extend([value] * counts[value])
    return tuple(entries)


def weight_to_orbit(w, ctx) -> tuple:
    """Standard-form orbit ((N-1)^{a_{N-1}}, ..., 1^{a_1}, 0^{a_0}), a_0 = k - sum."""
    N, k = ctx
    w = tuple(int(x) for x in w)
    if len(w) != N - 1:
        raise ValueError(f"weight {w} has {len(w)} coefficients, expected {N - 1}")
    if any(x < 0 for x in w):
        raise ValueError(f"weight coefficients must be >= 0: {w}")
    a0 = k - sum(w)
    if a0 < 0:
        raise ValueError(f"weight {w} has level {sum(w)} > k = {k}")
    return rep_from_multiplicities((a0,) + w)


def orbit_to_partition(o) -> tuple:
    """Conjugate of the orbit representative read as a partition."""
    return conjugate(normalize(o))


def partition_to_orbit(p, ctx) -> tuple:
    N, _ = ctx
    return weight_to_orbit(partition_to_weight(p, N), ctx)


def level_k_weights(N: int, k: int) -> list:
    """All weights (a_1, ..., a_{N-1}) with sum <= k, in lexicographic order."""
    return sorted(partition_to_weight(p, N) for p in partitions_in_box(N - 1, k))


def partitions_in_box(rows: int, cols: int) -> Iterator[tuple]:
    """All partitions with at most `rows` parts, each at most `cols`."""

    def rec(prefix, bound, slots):
        yield prefix
        if slots == 0:
            return
        for x in range(bound, 0, -1):
            yield from rec(prefix + (x,), x, slots - 1)

    yield from rec((), cols, rows)


def iter_distinct_permutations(t) -> Iterator[tuple]:
    """Distinct permutations of a tuple in lexicographic order, no duplicates.

    Each step is the classical next-permutation move: find the last ascent
    a_i < a_{i+1}, swap a_i with the rightmost larger entry, and reverse
    the suffix after i.
    """
    a = sorted(t)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def repeat_free_permutations(t, shift) -> list:
    """The distinct permutations c of t with c + shift repeat-free.

    c + shift is the entrywise sum; shift has the length of t.  The list is
    in lexicographic order, without repeats.  Positions are placed left to
    right, each trying the distinct values in increasing order, and a value
    whose shifted entry is already used at an earlier position is skipped,
    so no permutation with a repeat is built.
    """
    values = sorted(set(t))
    left = [t.count(v) for v in values]
    n = len(t)
    used: set = set()
    c: list = []
    out: list = []

    def place(i):
        if i == n:
            out.append(tuple(c))
            return
        s = shift[i]
        for j, v in enumerate(values):
            if left[j] and v + s not in used:
                left[j] -= 1
                used.add(v + s)
                c.append(v)
                place(i + 1)
                c.pop()
                used.remove(v + s)
                left[j] += 1

    place(0)
    return out


# -- determinant expansion ---------------------------------------------------


def det_expand(start: dict, q, step, lo: int, hi: int) -> dict:
    """Apply det[step(., q_i - i + j)] (0-based i, j) to the signed dict start.

    The entries must commute as operators; step(r, m) maps a label to a
    {label: multiplicity} dict, and an index m outside lo..hi is a zero
    entry.  The determinant is expanded row by row, keeping one signed dict
    per set of used columns (a bitmask): placing row i in a free column j
    contributes the sign (-1)^(used columns > j).  That is 2^L * L steps
    instead of L! permutations, and terms cancel as each row is placed.
    """
    L = len(q)
    states = {0: dict(start)}
    for i in range(L):
        nxt: dict = {}
        for used, cur in states.items():
            sign = 1
            for j in range(L - 1, -1, -1):
                bit = 1 << j
                if used & bit:
                    sign = -sign
                    continue
                m = q[i] - i + j
                if not lo <= m <= hi:
                    continue
                target = nxt.setdefault(used | bit, {})
                for r, mult in cur.items():
                    for s, one in step(r, m).items():
                        target[s] = target.get(s, 0) + sign * mult * one
        states = {}
        for used, cur in nxt.items():
            cur = {r: mult for r, mult in cur.items() if mult}
            if cur:
                states[used] = cur
    return states.get((1 << L) - 1, {})


# -- tableaux ----------------------------------------------------------------


def _skew_grid(outer, inner):
    """Row spans [(start, stop), ...] of the skew cells, absolute 0-based columns.

    inner must be contained in outer, the empty outer included; it is
    padded to the length of outer only after that check.
    """
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner):
        raise ValueError(f"{inner} not contained in {outer}")
    inner = padded(inner, len(outer))
    return [(inner[r], outer[r]) for r in range(len(outer))]


def count_cylindric_tableaux(outer, inner, content, ctx) -> int:
    """Fusion skew Kostka number K^{(N,k)} of the shape and content.

    Counts tableaux of outer/inner with content[i] copies of value i+1
    (rows weakly increasing, columns strictly increasing) where
    additionally, for each column p <= nu_N, the entry in row N column p is
    strictly less than the entry in row 1 column k+p (vacuous when either
    cell is not a cell of the skew shape).  The cells are filled row by row,
    left to right, and counted in place: no tableau is stored.  The
    cylindric condition is a bound on whichever of its two cells is filled
    later, an upper bound on row N column p or a lower bound on row 1
    column k+p.  Once k reaches the width of outer, row 1 has no column
    k+p, so the count is the plain skew Kostka number.
    """
    N, k = ctx
    outer = normalize(outer)
    if len(outer) > N:
        raise ValueError(f"outer partition {outer} has more than {N} rows")
    spans = _skew_grid(outer, inner)
    content = tuple(int(x) for x in content)
    if any(x < 0 for x in content):
        raise ValueError(f"content entries must be >= 0: {content}")
    total = sum(stop - start for start, stop in spans)
    if total != sum(content):
        raise ValueError(
            f"shape {outer}/{inner} has {total} boxes but content {content} "
            f"has {sum(content)}"
        )
    cells = [(r, c) for r, (start, stop) in enumerate(spans) for c in range(start, stop)]
    index = {cell: i for i, cell in enumerate(cells)}
    # lows[i]: (j, d) with value_i >= value_j + d; highs[i]: j with value_i < value_j
    lows = [
        [(index[a], d) for a, d in (((r, c - 1), 0), ((r - 1, c), 1)) if a in index]
        for r, c in cells
    ]
    highs = [None] * len(cells)
    for p in range(1, padded(outer, N)[N - 1] + 1):
        top, bottom = index.get((N - 1, p - 1)), index.get((0, k + p - 1))
        if top is None or bottom is None:
            continue
        if top > bottom:
            highs[top] = bottom
        else:
            lows[bottom].append((top, 1))
    values = [0] * len(cells)
    remaining = list(content)

    def fill(i):
        if i == len(cells):
            return 1
        lo = max((values[j] + d for j, d in lows[i]), default=1)
        hi = len(remaining) if highs[i] is None else values[highs[i]] - 1
        count = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                values[i] = v
                count += fill(i + 1)
                remaining[v - 1] += 1
        return count

    return fill(0)


def _strips_removed(lam, m: int):
    """Partitions mu inside lam with lam/mu a horizontal strip of m boxes."""
    n = len(lam)

    def rec(i, rest, prefix):
        if i == n:
            if rest == 0:
                yield normalize(prefix)
            return
        # rows i.. can give up at most lam_i boxes in one horizontal strip
        if rest > lam[i]:
            return
        floor = lam[i + 1] if i + 1 < n else 0
        for take in range(min(rest, lam[i] - floor) + 1):
            yield from rec(i + 1, rest - take, prefix + (lam[i] - take,))

    yield from rec(0, m, ())


def dominant_kostka(shape, max_entry: int) -> dict:
    """Kostka numbers K_{shape,nu} > 0 for the dominant contents nu.

    Returns {nu padded to length max_entry: K_{shape,nu}} over the
    partitions nu of |shape| with at most max_entry parts.  Only the nu
    below shape in dominance order are walked (K vanishes elsewhere), and
    each count comes from the branching rule: the boxes holding the largest
    entry n form a horizontal strip of nu_n boxes, so K_{lam,nu} sums
    K_{mu,(nu_1..nu_{n-1})} over the partitions mu with lam/mu such a strip.
    The branching memo lives only for the call.
    """
    shape = normalize(shape)
    total = sum(shape)
    bounds = [sum(shape[: i + 1]) for i in range(len(shape))]
    memo: dict = {}

    def kostka(lam, nu):
        if len(lam) > len(nu):
            return 0
        if not nu:
            return 1
        key = (lam, nu)
        if key not in memo:
            memo[key] = sum(
                kostka(mu, nu[:-1]) for mu in _strips_removed(lam, nu[-1])
            )
        return memo[key]

    def dominated(prefix, rest, largest):
        """Partitions nu of the remaining boxes with nu <= shape in dominance."""
        if rest == 0:
            yield prefix
            return
        i = len(prefix)
        if i == max_entry:
            return
        cap = bounds[i] - (total - rest) if i < len(bounds) else rest
        for x in range(min(largest, rest, cap), 0, -1):
            yield from dominated(prefix + (x,), rest - x, x)

    counts: dict = {}
    for nu in dominated((), total, total):
        count = kostka(shape, nu)
        if count:
            counts[padded(nu, max_entry)] = count
    return counts


def tableau_contents(shape, max_entry: int) -> dict:
    """Content multiset of all tableaux of a straight shape, entries 1..max_entry.

    Returns {content tuple of length max_entry: number of tableaux}.  The
    total count is the dimension of the irreducible module labelled by the
    shape.

    No tableau is filled.  The count for a content is the Kostka number
    K_{shape,nu} of its decreasing rearrangement nu, since weight
    multiplicities are invariant under permuting the entries: each
    dominant_kostka entry is expanded over its distinct permutations.  The
    Kac-Walton and Racah-Speiser walks in ``weyl`` do not expand every
    permutation; they take dominant_kostka with repeat_free_permutations.
    """
    counts: dict = {}
    for nu, count in dominant_kostka(shape, max_entry).items():
        for content in iter_distinct_permutations(nu):
            counts[content] = count
    return counts
