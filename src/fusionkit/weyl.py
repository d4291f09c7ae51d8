"""Tableau forms of the Racah-Speiser and Kac-Walton algorithms.

Both algorithms shift the tableau contents of one factor by the other
factor's partition mu plus the staircase rho = (N-1, ..., 1, 0), the shift
mu + rho, and push the resulting length-N sequences back into a fundamental
region, accumulating an alternating sum.  No content is built: one pass per
position, entry N first, peels the horizontal strip of the largest entry
off the shape (Gelfand-Tsetlin branching) and places its size plus the
shift, keeping a signed count per (shape left, bitmask of the shifted
entries placed).  A repeated entry lies on a wall and ends its state, and
the sign of the sort is counted as each entry is placed.
Both products are commutative, so the sum runs over the factor whose module
has the smaller Weyl dimension.  At level k the region is the strictly
decreasing sequences (finite Weyl group, i.e. sorting) whose spread is
below N + k; an affine reflection bounds the spread of a sorted sequence s:

    r0: s |-> (s_N + (N+k), s_2, ..., s_{N-1}, s_1 - (N+k))

Sequences with a repeated entry, or with spread exactly N + k, sit on a
reflection wall and are dropped.  Every r0 application strictly decreases
the sum of squares, so the push-down terminates.

Racah-Speiser is the same walk at the level |lam| + |mu| (sums of the
weight coefficients).  A content of the shape of lam has entries of at most
|lam|, and the shift has spread |mu| + N - 1, so every shifted sequence has
spread at most |lam| + |mu| + N - 1: below the wall, so r0 never fires and
no sequence lies on the affine wall.
"""

from __future__ import annotations

from .partitions import (
    horizontal_strips,
    padded,
    tableau_contents,
    weight_to_partition,
)


def _reflect_to_fundamental(used: int, wall: int):
    """Push the bits of used, read descending, into spread < wall.

    Returns (sign, bitmask), or None on a wall.  r0 moves the top entry a
    to a - wall and the bottom b to b + wall, both inside (b, a); sorting
    them back costs a sign per entry passed.
    """
    sign = 1
    while True:
        top = used.bit_length() - 1
        bottom = (used & -used).bit_length() - 1
        if top - bottom < wall:
            return sign, used
        if top - bottom == wall:
            return None
        down, up = top - wall, bottom + wall
        rest = used ^ (1 << top | 1 << bottom)
        if down == up or (rest >> down | rest >> up) & 1:
            return None
        passed = (rest >> up).bit_count() + (rest & (1 << down) - 1).bit_count()
        if not (passed + (up < down)) % 2:  # r0 itself is odd
            sign = -sign
        used = rest | 1 << down | 1 << up


def _shift_vector(mu_weight, N: int) -> tuple:
    mu = padded(weight_to_partition(mu_weight), N)
    return tuple(mu[j] + (N - 1 - j) for j in range(N))


def _check_weight(w, N: int) -> tuple:
    w = tuple(int(x) for x in w)
    if len(w) != N - 1 or any(x < 0 for x in w):
        raise ValueError(f"not a dominant weight of A_{N - 1}: {w}")
    return w


def weight_multiplicities(lam, N: int) -> dict:
    """Weight-space dimensions of the module with highest weight lam.

    Each tableau content of the shape attached to lam, entries 1..N, maps
    to the weight given by its consecutive differences.  The total count is
    the dimension of the module.
    """
    lam = _check_weight(lam, N)
    shape = weight_to_partition(lam)
    out: dict = {}
    for content, count in tableau_contents(shape, N).items():
        w = tuple(content[j] - content[j + 1] for j in range(N - 1))
        out[w] = out.get(w, 0) + count
    return out


def _alternating_sum(lam, mu, N, wall):
    # Both products are commutative, so walk the contents of the smaller module.
    if module_dimension(mu, N) < module_dimension(lam, N):
        lam, mu = mu, lam
    shift = _shift_vector(mu, N)
    strips: dict = {}  # shape: horizontal_strips(shape), for this call
    level = {weight_to_partition(lam): {0: 1}}  # shape left: {used: signed count}
    for i in range(N - 1, -1, -1):
        nxt: dict = {}
        for shape, counts in level.items():
            if shape not in strips:
                strips[shape] = horizontal_strips(shape)
            for rest, size in strips[shape]:
                if len(rest) > i:  # entries 1..i fill at most i rows
                    continue
                x = size + shift[i]
                bit = 1 << x
                target = nxt.setdefault(rest, {})
                for used, count in counts.items():
                    if used & bit:  # a repeated entry lies on a wall
                        continue
                    # x passes every larger entry placed so far
                    if (used >> x).bit_count() % 2:
                        count = -count
                    used |= bit
                    target[used] = target.get(used, 0) + count
        level = {}
        for rest, target in nxt.items():
            target = {used: count for used, count in target.items() if count}
            if target:
                level[rest] = target
    acc: dict = {}
    for used, count in level.get((), {}).items():
        res = _reflect_to_fundamental(used, wall)
        if res is not None:
            sign, used = res
            acc[used] = acc.get(used, 0) + sign * count
    out: dict = {}
    for used, mult in acc.items():
        if mult == 0:
            continue
        s = tuple(j for j in range(used.bit_length() - 1, -1, -1) if used >> j & 1)
        if mult < 0:
            raise ArithmeticError(
                f"negative multiplicity {mult} at {s}; alternating sum failed"
            )
        w = tuple(s[j] - s[j + 1] - 1 for j in range(N - 1))
        out[w] = out.get(w, 0) + mult
    return out


def racah_speiser_tensor(lam, mu, N: int) -> dict:
    """Tensor-product decomposition of two dominant weights of A_{N-1}.

    The Kac-Walton walk at level |lam| + |mu|, which no shifted content reaches.
    """
    lam, mu = _check_weight(lam, N), _check_weight(mu, N)
    return _alternating_sum(lam, mu, N, N + sum(lam) + sum(mu))


def kac_walton_fusion(lam, mu, ctx) -> dict:
    """Level-k fusion decomposition, by reflecting into the affine region."""
    N, k = ctx
    lam, mu = _check_weight(lam, N), _check_weight(mu, N)
    for w in (lam, mu):
        if sum(w) > k:
            raise ValueError(f"weight {w} has level {sum(w)} > k = {k}")
    return _alternating_sum(lam, mu, N, N + k)


def module_dimension(lam, N: int) -> int:
    """Dimension of the irreducible module with highest weight lam.

    Weyl's formula prod_{i<j} (p_i - p_j + j - i) / (j - i), with p the
    partition of lam padded to N rows.
    """
    p = padded(weight_to_partition(_check_weight(lam, N)), N)
    num = den = 1
    end = 0
    for i in range(N):
        if end <= i:  # end of the block of parts equal to p[i]
            end = i + 1
            while end < N and p[end] == p[i]:
                end += 1
        for j in range(end, N):  # pairs inside a block give the factor 1
            num *= p[i] - p[j] + j - i
            den *= j - i
    return num // den
