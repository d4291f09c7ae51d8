import itertools
import random
from math import comb

import pytest

from fusionkit import weyl
from fusionkit.fusion import basis, multiply
from fusionkit.partitions import (
    fusion_context,
    padded,
    partition_to_weight,
    partitions_in_box,
    tableau_contents,
    weight_to_partition,
)
from fusionkit.weyl import (
    kac_walton_fusion,
    module_dimension,
    racah_speiser_tensor,
    weight_multiplicities,
)


def _sort_desc_signed(seq):
    """(sign, sorted tuple) for a repeat-free sequence, else None."""
    if len(set(seq)) < len(seq):
        return None
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] < seq[j]
    )
    return (-1 if inv % 2 else 1), tuple(sorted(seq, reverse=True))


def _descending(used):
    """The bits of a bitmask, largest first."""
    return tuple(j for j in range(used.bit_length() - 1, -1, -1) if used >> j & 1)


def _push_down(seq, wall):
    """Reference: sort with sign, apply r0 while the spread is too wide."""
    sign = 1
    while True:
        res = _sort_desc_signed(seq)
        if res is None:
            return None
        sorting, s = res
        sign *= sorting
        if s[0] - s[-1] == wall:
            return None
        if s[0] - s[-1] < wall:
            return sign, s
        seq = (s[-1] + wall,) + s[1:-1] + (s[0] - wall,)
        sign = -sign


def _walk_every_content(lam, mu, N, wall):
    """The alternating sum over every tableau content, repeats included.

    wall=None is the tensor product: sorting alone, no affine reflection.
    """
    if module_dimension(mu, N) < module_dimension(lam, N):
        lam, mu = mu, lam
    shift = weyl._shift_vector(mu, N)
    acc = {}
    for content, count in tableau_contents(weight_to_partition(lam), N).items():
        seq = tuple(c + s for c, s in zip(content, shift))
        res = _sort_desc_signed(seq) if wall is None else _push_down(seq, wall)
        if res is not None:
            sign, s = res
            acc[s] = acc.get(s, 0) + sign * count
    return {
        tuple(s[j] - s[j + 1] - 1 for j in range(N - 1)): mult
        for s, mult in acc.items()
        if mult
    }


class TestReflection:
    def test_matches_sort_and_reflect_reference(self):
        # spreads up to 39 against walls from 2 to 12: several r0 steps,
        # and the r0 images cross each other once the spread passes 2 * wall
        rng = random.Random(5)
        for _ in range(3000):
            entries = sorted(rng.sample(range(40), rng.randint(1, 6)), reverse=True)
            wall = rng.randint(len(entries) + 1, 12)
            got = weyl._reflect_to_fundamental(sum(1 << x for x in entries), wall)
            if got is not None:
                got = got[0], _descending(got[1])
            assert got == _push_down(tuple(entries), wall), (entries, wall)


class TestAlternatingSum:
    @pytest.mark.parametrize(
        "N, k, pairs",
        [(10, 2, 25), (12, 2, 8), (3, 12, 40), (4, 7, 40), (8, 3, 40), (6, 6, 40)],
    )
    def test_kac_walton_matches_walk_over_every_content(self, N, k, pairs):
        b = basis(fusion_context(N, k))
        rng = random.Random(N * 100 + k)
        for _ in range(pairs):
            lam = partition_to_weight(rng.choice(b), N)
            mu = partition_to_weight(rng.choice(b), N)
            got = weyl._alternating_sum(lam, mu, N, N + k)
            assert got == _walk_every_content(lam, mu, N, N + k), (lam, mu)

    def test_racah_speiser_matches_walk_over_every_content(self):
        for N in (2, 3, 4, 5, 6, 7, 8):
            shapes = list(partitions_in_box(N - 1, 3))
            rng = random.Random(N)
            for _ in range(30):
                lam = partition_to_weight(rng.choice(shapes), N)
                mu = partition_to_weight(rng.choice(shapes), N)
                got = racah_speiser_tensor(lam, mu, N)
                assert got == _walk_every_content(lam, mu, N, None), (lam, mu)


class TestWeightMultiplicities:
    def test_adjoint_sl3(self):
        wm = weight_multiplicities((1, 1), 3)
        assert sum(wm.values()) == 8
        assert wm[(0, 0)] == 2
        assert sum(1 for w, m in wm.items() if m == 1) == 6

    def test_trivial_module(self):
        assert weight_multiplicities((0, 0), 3) == {(0, 0): 1}

    def test_vector_representation(self):
        for N in (2, 3, 4, 5):
            wm = weight_multiplicities((1,) + (0,) * (N - 2), N)
            assert sum(wm.values()) == N
            assert set(wm.values()) == {1}

    def test_dimensions(self):
        assert module_dimension((1, 0), 3) == 3
        assert module_dimension((0, 1), 3) == 3
        assert module_dimension((2, 0), 3) == 6
        assert module_dimension((1, 1), 3) == 8
        assert module_dimension((1, 0, 0), 4) == 4
        assert module_dimension((1, 0, 1), 4) == 15

    def test_dimensions_at_deep_rank(self):
        # only the factors with p_i != p_j are multiplied
        N = 1100
        assert module_dimension((1,) + (0,) * (N - 2), N) == N
        assert module_dimension((0, 1) + (0,) * (N - 3), N) == comb(N, 2)
        # the 1,099-row column: one block of equal parts, N - 1 factors
        assert module_dimension((0,) * (N - 2) + (1,), N) == N

    def test_dimensions_match_every_pair_product(self):
        # Weyl's product over all pairs i < j, the factors of 1 included
        def every_pair(p, N):
            num = den = 1
            for i, j in itertools.combinations(range(N), 2):
                num *= p[i] - p[j] + j - i
                den *= j - i
            return num // den

        for N in (6, 7):
            for shape in partitions_in_box(5, 4):
                lam = partition_to_weight(shape, N)
                assert module_dimension(lam, N) == every_pair(padded(shape, N), N), (N, shape)

    def test_dimension_counts_tableaux(self):
        N = 7
        for shape in partitions_in_box(N, 3):
            assert module_dimension(partition_to_weight(shape, N), N) == sum(
                tableau_contents(shape, N).values()
            ), shape


class TestRacahSpeiser:
    def test_tensor_with_trivial(self):
        for lam in [(1, 1), (2, 0), (0, 2)]:
            assert racah_speiser_tensor(lam, (0, 0), 3) == {lam: 1}
            assert racah_speiser_tensor((0, 0), lam, 3) == {lam: 1}

    def test_vector_squared(self):
        assert racah_speiser_tensor((1, 0), (1, 0), 3) == {(2, 0): 1, (0, 1): 1}

    def test_commutative(self):
        weights = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        for a in weights:
            for b in weights:
                assert racah_speiser_tensor(a, b, 3) == racah_speiser_tensor(
                    b, a, 3
                )

    def test_smaller_module_with_more_boxes_is_walked(self):
        # (31,0) has the smaller module but 31 boxes; (10,10) has 30
        prod = racah_speiser_tensor((10, 10), (31, 0), 3)
        assert sum(
            m * module_dimension(nu, 3) for nu, m in prod.items()
        ) == module_dimension((10, 10), 3) * module_dimension((31, 0), 3)

    def test_dimension_multiplicative(self):
        for N in (3, 4):
            shapes = [p for p in partitions_in_box(N - 1, 2) if sum(p) <= 8]
            for p in shapes:
                for q in shapes:
                    lam = partition_to_weight(p, N)
                    mu = partition_to_weight(q, N)
                    prod = racah_speiser_tensor(lam, mu, N)
                    assert sum(
                        m * module_dimension(nu, N) for nu, m in prod.items()
                    ) == module_dimension(lam, N) * module_dimension(mu, N)


class TestKacWalton:
    def test_adjoint_squared_level_three(self):
        assert kac_walton_fusion((1, 1), (1, 1), (3, 3)) == {
            (3, 0): 1,
            (0, 3): 1,
            (1, 1): 2,
            (0, 0): 1,
        }

    def test_fusion_with_identity(self):
        ctx = fusion_context(3, 2)
        for lam in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            assert kac_walton_fusion(lam, (0, 0), ctx) == {lam: 1}

    def test_level_overflow(self):
        with pytest.raises(ValueError):
            kac_walton_fusion((2, 2), (0, 0), (3, 3))

    def test_commutative_and_nonnegative(self):
        for N, k in [(3, 3), (6, 2), (4, 3)]:
            ctx = fusion_context(N, k)
            b = basis(ctx)
            for p in b:
                for q in b:
                    lam, mu = partition_to_weight(p, N), partition_to_weight(q, N)
                    left = kac_walton_fusion(lam, mu, ctx)
                    assert left == kac_walton_fusion(mu, lam, ctx)
                    assert all(m > 0 for m in left.values())
                    assert all(sum(w) <= k for w in left)

    def test_matches_jacobi_trudi(self):
        for N, k in [(3, 2), (3, 3), (4, 2)]:
            ctx = fusion_context(N, k)
            for p in basis(ctx):
                for q in basis(ctx):
                    jt = multiply(p, q, ctx)
                    kw = {
                        weight_to_partition(w): m
                        for w, m in kac_walton_fusion(
                            partition_to_weight(p, N),
                            partition_to_weight(q, N),
                            ctx,
                        ).items()
                    }
                    assert jt == kw, (N, k, p, q)

    def test_reduces_to_tensor_at_large_level(self):
        for N in (3, 4):
            shapes = [p for p in partitions_in_box(2, 2)]
            for p in shapes:
                for q in shapes:
                    lam = partition_to_weight(p, N)
                    mu = partition_to_weight(q, N)
                    k = (p[0] if p else 0) + (q[0] if q else 0)
                    if k == 0:
                        continue
                    ctx = fusion_context(N, k)
                    assert kac_walton_fusion(lam, mu, ctx) == racah_speiser_tensor(
                        lam, mu, N
                    )
