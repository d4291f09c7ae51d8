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

from collections import namedtuple
from collections.abc import Iterator
from itertools import product


class FusionContext(namedtuple("FusionContext", "N k")):
    """Rank parameter N >= 2 and level k >= 1 for A_{N-1} at level k."""

    __slots__ = ()


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


def partitions_in_box(rows: int, cols: int) -> Iterator[tuple]:
    """All partitions with at most `rows` parts, each at most `cols`.

    They come by length, and within a length lexicographically descending.
    """
    level = [()]
    for _ in range(rows):
        yield from level
        level = [p + (x,) for p in level for x in range(p[-1] if p else cols, 0, -1)]
    yield from level


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


# -- determinant expansion ---------------------------------------------------


def det_expand(start: dict, q, step, hi: int) -> dict:
    """Apply det[step(., q_i - i + j)] (0-based i, j) to the signed dict start.

    The entries must commute as operators; step(r, m) maps a label to a
    {label: multiplicity} dict, and an index m outside 0..hi is a zero
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
                if not 0 <= m <= hi:
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


def count_cylindric_tableaux(outer, inner, content, ctx) -> int:
    """Fusion skew Kostka number K^{(N,k)} of the shape and content.

    Counts tableaux of outer/inner with content[i] copies of value i+1
    (rows weakly increasing, columns strictly increasing) where
    additionally, for each column p <= nu_N, the entry in row N column p is
    strictly less than the entry in row 1 column k+p (vacuous when either
    cell is not a cell of the skew shape).  No tableau is filled: the cells
    holding the largest value form a horizontal strip, so outer is peeled
    one value per pass, largest first, keeping {shape: count}.  A strip
    lam/mu of value v breaks the cylindric condition iff some column p with
    both wrap cells skew has row N column p outside mu (an entry >= v) and
    row 1 column k+p inside lam (an entry <= v); such p run over (lo, hi],
    so the test is one comparison per strip.  Once k reaches the width of
    outer, row 1 has no column k+p, so the count is the plain skew Kostka
    number.
    """
    N, k = ctx
    outer = normalize(outer)
    if len(outer) > N:
        raise ValueError(f"outer partition {outer} has more than {N} rows")
    inner = normalize(inner)
    if not contains(outer, inner):
        raise ValueError(f"{inner} not contained in {outer}")
    content = tuple(int(x) for x in content)
    if any(x < 0 for x in content):
        raise ValueError(f"content entries must be >= 0: {content}")
    total = sum(outer) - sum(inner)
    if total != sum(content):
        raise ValueError(
            f"shape {outer}/{inner} has {total} boxes but content {content} "
            f"has {sum(content)}"
        )
    # the columns p in (lo, hi] are those whose two wrap cells are both skew
    lo = max(padded(inner, N)[N - 1], (inner[0] if inner else 0) - k)
    hi = padded(outer, N)[N - 1]
    level = {outer: 1}
    for m in reversed(content):
        nxt: dict = {}
        for lam, count in level.items():
            top = min((lam[0] if lam else 0) - k, hi)
            for mu in _strips_removed(lam, m):
                if top <= max(mu[N - 1] if len(mu) == N else 0, lo):
                    nxt[mu] = nxt.get(mu, 0) + count
        level = nxt
    return level.get(inner, 0)


def _strips_removed(lam, m: int) -> list:
    """Partitions mu inside lam with lam/mu a horizontal strip of m boxes.

    lam must be canonical.  A strip keeps lam_{i+1} <= mu_i, so in a block
    of equal parts only the last row can give up boxes: one block per pass.
    Only the last row of lam can reach 0.  The list is lexicographically
    descending.
    """
    level = [((), m)]
    start = 0
    for end, (x, floor) in enumerate(zip(lam, lam[1:] + (0,)), 1):
        if floor == x:
            continue
        keep = lam[start : end - 1]
        start = end
        # this block's last row and the rows below give up at most x boxes
        level = [
            (prefix + keep + (x - take,), rest - take)
            for prefix, rest in level
            if rest <= x
            for take in range(min(rest, x - floor) + 1)
        ]
    return [mu[:-1] if mu and not mu[-1] else mu for mu, rest in level if rest == 0]


def horizontal_strips(lam) -> list:
    """Every (mu, |lam/mu|) with lam/mu a horizontal strip, in one pass.

    lam/mu is a horizontal strip iff lam_{i+1} <= mu_i <= lam_i for every
    row i, each row chosen on its own; the mu come out lexicographically
    descending.  There are 2^r or more for r distinct parts; a caller that
    wants one size takes _strips_removed, which prunes by size.
    """
    total = sum(lam)
    rows = product(*(range(x, y - 1, -1) for x, y in zip(lam, lam[1:] + (0,))))
    return [(mu[:-1] if mu and not mu[-1] else mu, total - sum(mu)) for mu in rows]


def tableau_contents(shape, max_entry: int) -> dict:
    """Content multiset of all tableaux of a straight shape, entries 1..max_entry.

    Returns {content tuple of length max_entry: number of tableaux}.  The
    total count is the dimension of the irreducible module labelled by the
    shape.

    No tableau is filled.  Weight multiplicities are invariant under
    permuting the entries, so only the partitions nu are counted (the
    Kostka numbers K_{shape,nu}), then each is spread over its distinct
    permutations.  The boxes holding the largest entry form a horizontal
    strip, so the shape is peeled one strip per pass, largest entry first,
    keeping {(shape left, nu so far): count}.  nu grows by its smallest part
    first, so the parts still to come are each at least the next part m, and
    a column holds distinct entries, so there are at least len(lam) of them:
    m runs from the last part up to |lam| / len(lam).
    """
    counts: dict = {}
    level = {(normalize(shape), ()): 1}
    for left in range(max_entry, -1, -1):
        nxt: dict = {}
        for (lam, nu), count in level.items():
            if not lam:
                for content in iter_distinct_permutations(padded(nu, max_entry)):
                    counts[content] = count
                continue
            for m in range(nu[-1] if nu else 1, sum(lam) // len(lam) + 1):
                for mu in _strips_removed(lam, m):
                    if len(mu) < left:  # entries 1..left-1 fill mu
                        key = (mu, nu + (m,))
                        nxt[key] = nxt.get(key, 0) + count
        level = nxt
    return counts
