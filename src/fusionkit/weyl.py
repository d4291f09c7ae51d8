"""Tableau forms of the Racah-Speiser and Kac-Walton algorithms.

Both algorithms shift the tableau contents of one factor by the other
factor's partition mu plus the staircase rho = (N-1, ..., 1, 0), the shift
mu + rho, and push the resulting length-N sequences back into a fundamental
region, accumulating an alternating sum.  The contents and their counts are
weight multiplicities: the count of a content is the Kostka number
K_{shape,nu} of its decreasing rearrangement nu
(``partitions.dominant_kostka``); no tableau is filled.  A content c with a
repeated entry in c + shift lies on a wall and adds nothing, so each nu is
expanded only over the permutations that keep c + shift repeat-free
(``partitions.repeat_free_permutations``), not over its whole S_N orbit.
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
    dominant_kostka,
    padded,
    repeat_free_permutations,
    tableau_contents,
    weight_to_partition,
)


def _reflect_to_fundamental(seq, wall: int):
    """Push seq into the region {sorted, spread < wall}; None if on a wall."""
    sign = 1
    s = tuple(seq)
    while True:
        if len(set(s)) < len(s):
            return None
        inv = sum(
            1
            for i in range(len(s))
            for j in range(i + 1, len(s))
            if s[i] < s[j]
        )
        if inv % 2:
            sign = -sign
        s = tuple(sorted(s, reverse=True))
        spread = s[0] - s[-1]
        if spread == wall:
            return None
        if spread < wall:
            return sign, s
        s = (s[-1] + wall,) + s[1:-1] + (s[0] - wall,)
        sign = -sign


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
    shape = weight_to_partition(lam)
    shift = _shift_vector(mu, N)
    acc: dict = {}
    for nu, count in dominant_kostka(shape, N).items():
        for content in repeat_free_permutations(nu, shift):
            seq = tuple(c + s for c, s in zip(content, shift))
            res = _reflect_to_fundamental(seq, wall)
            if res is None:
                continue
            sign, s = res
            acc[s] = acc.get(s, 0) + sign * count
    out: dict = {}
    for s, mult in acc.items():
        if mult == 0:
            continue
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
    for i in range(N):
        for j in range(i + 1, N):
            if p[i] != p[j]:  # otherwise the factor is 1
                num *= p[i] - p[j] + j - i
                den *= j - i
    return num // den
