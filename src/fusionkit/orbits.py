"""Arithmetic of S_k-orbits of Z_N^k and its finitely-supported variant.

An orbit is identified with its standard form, the weakly decreasing
k-tuple of residues mod N.  The raw product of two orbits counts, for each
candidate result, the diagonal orbits of solution triples x + y = z; it is
commutative but not associative in general.  The fixed product repairs
associativity on one path: both factors are normalised by the simple
current, a . b = (a + t) . (b - t), and the factor with the fewer rows is
expanded as a determinant of multiplications by the orbits (1^m, 0^(k-m)),
for which the raw product provably has 0/1 coefficients.  A staircase
factor (t+1)^m t^(k-m) is the one-row case of that determinant.
"""

from __future__ import annotations

from .partitions import (
    det_expand,
    iter_distinct_permutations,
    orbit_to_partition,
    padded,
    rep_from_multiplicities,
)

BRUTEFORCE_LIMIT = 8


def _check_tuple(t, N: int) -> tuple:
    t = tuple(int(x) for x in t)
    if any(not 0 <= x < N for x in t):
        raise ValueError(f"entries of {t} must be residues mod {N}")
    return t


def standard_form(t, N: int) -> tuple:
    """Weakly decreasing representative of the S_k-orbit of t."""
    return tuple(sorted(_check_tuple(t, N), reverse=True))


def orbit_multiplicities(o, N: int) -> tuple:
    """Residue counts (a_0, ..., a_{N-1}) of an orbit representative."""
    o = _check_tuple(o, N)
    counts = [0] * N
    for x in o:
        counts[x] += 1
    return tuple(counts)


def _check_orbits(ctx, *orbits) -> tuple:
    N, k = ctx
    orbits = tuple(_check_tuple(o, N) for o in orbits)
    if any(len(o) != k for o in orbits):
        lengths = ", ".join(str(len(o)) for o in orbits)
        raise ValueError(f"orbit lengths {lengths} do not match context k = {k}")
    return orbits


def _bounded_compositions(total, bounds):
    """Vectors c with sum(c) = total and 0 <= c_i <= bounds[i]."""

    def rec(i, rest, prefix):
        if i == len(bounds):
            if rest == 0:
                yield tuple(prefix)
            return
        tail = sum(bounds[i + 1 :])
        lo = max(0, rest - tail)
        for c in range(lo, min(bounds[i], rest) + 1):
            yield from rec(i + 1, rest - c, prefix + [c])

    yield from rec(0, total, [])


def raw_orbit_product(a, b, ctx) -> dict:
    """Multiset of orbits [a_hat + y] over non-redundant equations.

    Fixing the standard form a_hat splits coordinates into constant blocks,
    one per residue occurring in a_hat.  Two elements y, y' of [b] give
    redundant equations exactly when the stabilizer of a_hat maps one to the
    other, i.e. when the multiset of y-values inside each block agrees with
    that of y'.  So instead of walking all of [b], enumerate the ways of
    splitting the residue multiset of b across the blocks.
    """
    N, k = ctx
    a, b = _check_orbits(ctx, a, b)
    a_counts = orbit_multiplicities(a, N)
    blocks = [(v, a_counts[v]) for v in range(N - 1, -1, -1) if a_counts[v]]
    b_counts = orbit_multiplicities(b, N)
    result: dict = {}

    def rec(i, remaining, z_counts):
        if i == len(blocks):
            rep = rep_from_multiplicities(z_counts)
            result[rep] = result.get(rep, 0) + 1
            return
        value, block_size = blocks[i]
        for assignment in _bounded_compositions(block_size, remaining):
            new_remaining = tuple(r - c for r, c in zip(remaining, assignment))
            new_z = list(z_counts)
            for r, c in enumerate(assignment):
                if c:
                    new_z[(value + r) % N] += c
            rec(i + 1, new_remaining, new_z)

    rec(0, b_counts, [0] * N)
    return result


def m_coefficient_bruteforce(a, b, c, ctx) -> int:
    """Count S_k-orbits of {(x, y, z) in [a] x [b] x [c] : x + y = z} directly.

    Every diagonal orbit has a representative with x = a_hat, and two triples
    are equivalent iff their multisets of coordinate columns coincide, so it
    suffices to scan y over [b] and deduplicate the column multisets.  Kept
    independent of the blockwise route in raw_orbit_product on purpose.
    """
    N, k = ctx
    a, b, c = _check_orbits(ctx, a, b, c)
    if k > BRUTEFORCE_LIMIT:
        raise ValueError(f"k = {k} too large for brute-force orbit counting")
    a_hat = standard_form(a, N)
    c_hat = standard_form(c, N)
    seen = set()
    for y in iter_distinct_permutations(standard_form(b, N)):
        z = tuple((x + yi) % N for x, yi in zip(a_hat, y))
        if tuple(sorted(z, reverse=True)) != c_hat:
            continue
        seen.add(tuple(sorted(zip(a_hat, y))))
    return len(seen)


def special_orbit_product(a, m: int, ctx) -> dict:
    """Product of [a] with [(1^m, 0^{k-m})], built from its 0/1 description.

    Every result orbit comes from a choice of integers m_0, ..., m_{N-1}
    with sum m and 0 <= m_j <= a_j, moving m_j entries from residue j to
    residue j+1; distinct choices give distinct orbits, each with
    coefficient exactly 1.
    """
    N, k = ctx
    a_counts = orbit_multiplicities(a, N)
    if sum(a_counts) != k:
        raise ValueError(f"orbit length {sum(a_counts)} does not match context k = {k}")
    if not 0 <= m <= k:
        raise ValueError(f"m = {m} out of range 0..{k}")
    out: dict = {}
    for mvec in _bounded_compositions(m, a_counts):
        c_counts = [
            a_counts[j] - mvec[j] + mvec[(j - 1) % N] for j in range(N)
        ]
        out[rep_from_multiplicities(c_counts)] = 1
    return out


def simple_current_shift(a, t: int, ctx) -> tuple:
    """Add t to every entry mod N and restandardize: [a] x [(t^k)] = [a+t]."""
    N, _ = ctx
    a = _check_tuple(a, N)
    if not 0 <= t <= N - 1:
        raise ValueError(f"shift t = {t} out of range 0..{N - 1}")
    return tuple(sorted(((x + t) % N for x in a), reverse=True))


def fixed_product(a, b, ctx) -> dict:
    """Associative product on orbits matching the fusion coefficients.

    The simple current permutes the product: a . b = (a + t) . (b - t).
    Each factor is shifted by one of its own entries t to the form whose
    largest entry L is smallest; L is the row count of its partition q.
    The factor with the fewer rows is expanded through its homogeneous
    determinant det[x_{q_i - i + j}], where x_m is multiplication by
    [(1^m, 0^{k-m})] and an index outside 0..k is a zero entry, acting on
    the other factor shifted by +t.  A staircase factor (t+1)^m t^(k-m) is
    the case L = 1, one raw 0/1 step, and a constant orbit (t^k) is L = 0,
    the shift alone.  The step products commute, so partitions.det_expand
    expands the determinant row by row over the sets of used columns.
    """
    N, k = ctx
    a, b = _check_orbits(ctx, a, b)
    _, t, a, b = min(
        (max((x - t) % N for x in o), t, other, o)
        for o, other in ((a, b), (b, a))
        for t in set(o)
    )
    acc = det_expand(
        {simple_current_shift(a, t, ctx): 1},
        orbit_to_partition(simple_current_shift(b, -t % N, ctx)),
        lambda rep, m: special_orbit_product(rep, m, ctx),
        0,
        k,
    )
    bad = {rep: mult for rep, mult in acc.items() if mult < 0}
    if bad:
        raise ArithmeticError(
            f"negative multiplicities {bad} in fixed product {a} . {b}"
        )
    return acc


# -- finitely supported variant ----------------------------------------------


def trim(o) -> tuple:
    """Standard form in the finitely-supported picture: drop trailing zeros."""
    o = tuple(o)
    while o and o[-1] == 0:
        o = o[:-1]
    return o


def tensor_orbit_product(a, b, N: int, embed_length: int | None = None) -> dict:
    """Orbit product in the direct sum of countably many Z_N factors.

    Computed by embedding both factors into Z_N^K for K at least the total
    number of nonzero entries; the coefficients stabilize, so any admissible
    K gives the same answer.
    """
    if N < 2:
        raise ValueError(f"rank parameter N must be >= 2, got {N}")
    a, b = trim(_check_tuple(a, N)), trim(_check_tuple(b, N))
    support = len(a) + len(b)
    K = support if embed_length is None else int(embed_length)
    if K < support:
        raise ValueError(
            f"embedding length {K} below the support bound {support}"
        )
    K = max(K, 1)
    ctx = (N, K)
    prod = raw_orbit_product(padded(a, K), padded(b, K), ctx)
    return {trim(rep): mult for rep, mult in prod.items()}
