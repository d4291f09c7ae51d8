import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from fusionkit.fusion import basis, pieri_h
from fusionkit.orbits import special_orbit_product
from fusionkit.partitions import (
    conjugate,
    count_cylindric_tableaux,
    count_skew_tableaux,
    det_expand,
    dominant_kostka,
    fusion_context,
    is_column_strip,
    is_row_strip,
    iter_distinct_permutations,
    iter_skew_tableaux,
    level_k_weights,
    normalize,
    orbit_to_partition,
    padded,
    partition_to_orbit,
    partition_to_weight,
    partitions_in_box,
    reduce_full_columns,
    repeat_free_permutations,
    tableau_contents,
    weight_to_orbit,
    weight_to_partition,
)
from fusionkit.weyl import module_dimension


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def all_partitions_in_box(rows, cols):
    return list(partitions_in_box(rows, cols))


class TestNormalize:
    def test_trims_trailing_zeros(self):
        assert normalize((3, 2, 0, 0)) == (3, 2)
        assert normalize(()) == ()
        assert normalize((0, 0)) == ()

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            normalize((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize((2, -1))


class TestConjugate:
    def test_known_values(self):
        assert conjugate((5, 4, 1, 1)) == (4, 2, 2, 2, 1)
        assert conjugate(()) == ()
        assert conjugate((3, 3, 2)) == (3, 3, 2)

    def test_involution_exhaustive_6x6(self):
        for p in all_partitions_in_box(6, 6):
            assert conjugate(conjugate(p)) == p

    @given(partition_strategy())
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(partition_strategy())
    def test_preserves_size(self, p):
        assert sum(conjugate(p)) == sum(p)


class TestStrips:
    def test_both_strip_kinds(self):
        assert is_row_strip((4, 3, 1, 1), (3, 2, 1, 0), 3)
        assert is_column_strip((4, 3, 1, 1), (3, 2, 1, 0), 3)

    def test_empty_skew(self):
        assert is_row_strip((2, 1), (2, 1), 0)
        assert is_column_strip((2, 1), (2, 1), 0)

    def test_two_boxes_in_a_row(self):
        assert is_row_strip((5, 1), (3, 1), 2)
        assert not is_column_strip((5, 1), (3, 1), 2)

    def test_box_count_must_match(self):
        assert not is_row_strip((5, 1), (3, 1), 3)

    def test_against_bruteforce_column_counts(self):
        # per-column / per-row box counts computed directly from the diagram
        for outer in all_partitions_in_box(4, 4):
            for inner in all_partitions_in_box(4, 4):
                if not all(
                    padded(inner, 4)[i] <= padded(outer, 4)[i] for i in range(4)
                ):
                    continue
                o, i = padded(outer, 4), padded(inner, 4)
                m = sum(o) - sum(i)
                col_counts = [
                    sum(1 for r in range(4) if i[r] < c + 1 <= o[r])
                    for c in range(4)
                ]
                row_counts = [o[r] - i[r] for r in range(4)]
                assert is_row_strip(outer, inner, m) == all(
                    c <= 1 for c in col_counts
                )
                assert is_column_strip(outer, inner, m) == all(
                    c <= 1 for c in row_counts
                )


class TestEquivalence:
    def test_reduce(self):
        assert reduce_full_columns((5, 4, 4, 3), 4) == (2, 1, 1)
        assert reduce_full_columns((3, 3, 3), 3) == ()
        assert reduce_full_columns((3, 3, 2), 3) == (1, 1)

    def test_reduce_is_equivalent_and_short(self):
        for p in all_partitions_in_box(4, 4):
            r = reduce_full_columns(p, 4)
            assert partition_to_weight(p, 4) == partition_to_weight(r, 4)
            assert len(r) <= 3


class TestWeightMaps:
    def test_weight_to_partition(self):
        assert weight_to_partition((1, 1)) == (2, 1)
        assert weight_to_partition((0, 0, 0)) == ()

    def test_partition_to_weight(self):
        assert partition_to_weight((3, 3, 2), 4) == (0, 1, 2)
        assert partition_to_weight((2, 1), 3) == (1, 1)

    def test_weight_to_orbit(self):
        assert weight_to_orbit((1, 1), (3, 3)) == (2, 1, 0)
        assert weight_to_orbit((0, 0), (3, 3)) == (0, 0, 0)

    def test_orbit_to_partition(self):
        assert orbit_to_partition((2, 1, 0)) == (2, 1)
        assert orbit_to_partition((3, 3, 2)) == (3, 3, 2)

    def test_level_overflow(self):
        with pytest.raises(ValueError):
            weight_to_orbit((2, 2), (3, 3))

    def test_round_trip_exhaustive(self):
        for N in range(2, 6):
            for k in range(1, 6):
                ctx = fusion_context(N, k)
                for w in level_k_weights(N, k):
                    orbit = weight_to_orbit(w, ctx)
                    assert orbit == tuple(sorted(orbit, reverse=True))
                    assert len(orbit) == k
                    p = orbit_to_partition(orbit)
                    assert partition_to_weight(p, N) == w
                    assert p == weight_to_partition(w)

    def test_weight_count_is_binomial(self):
        for N in range(2, 6):
            for k in range(1, 6):
                count = sum(1 for _ in level_k_weights(N, k))
                assert count == comb(N - 1 + k, N - 1)

    def test_partition_to_weight_constant_on_classes(self):
        assert partition_to_weight((5, 4, 4, 3), 4) == partition_to_weight(
            (2, 1, 1), 4
        )


def bruteforce_tableau_count(outer, inner, content, ctx=None):
    """Dumb oracle: try every assignment of values to cells, filter all rules."""
    outer = normalize(outer)
    inner = padded(normalize(inner), len(outer)) if outer else ()
    cells = [
        (r, c)
        for r in range(len(outer))
        for c in range(inner[r], outer[r])
    ]
    values = range(1, len(content) + 1)
    count = 0
    for fill in itertools.product(values, repeat=len(cells)):
        grid = dict(zip(cells, fill))
        if any(
            grid[(r, c)] > grid[(r, c + 1)]
            for (r, c) in cells
            if (r, c + 1) in grid
        ):
            continue
        if any(
            grid[(r, c)] >= grid[(r + 1, c)]
            for (r, c) in cells
            if (r + 1, c) in grid
        ):
            continue
        if tuple(fill.count(v) for v in values) != tuple(content):
            continue
        if ctx is not None:
            N, k = ctx
            nu = padded(outer, N)
            ok = True
            for p in range(1, nu[N - 1] + 1):
                top = grid.get((N - 1, p - 1))
                bottom = grid.get((0, k + p - 1))
                if top is not None and bottom is not None and top >= bottom:
                    ok = False
                    break
            if not ok:
                continue
        count += 1
    return count


class TestCylindricTableaux:
    def test_level_three_count(self):
        assert count_cylindric_tableaux((4, 2, 2, 1), (3, 2, 1), (2, 1), (4, 3)) == 1

    def test_level_four_count(self):
        assert count_cylindric_tableaux((4, 2, 2, 1), (3, 2, 1), (2, 1), (4, 4)) == 3

    def test_three_tableaux(self):
        assert count_cylindric_tableaux((3, 3, 2, 1), (3, 2, 1), (2, 1), (4, 3)) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            count_cylindric_tableaux((2, 1), (), (1, 1), (3, 3))

    def test_matches_plain_kostka_for_large_k(self):
        # wrap-around condition is vacuous once k reaches the outer width
        cases = [
            ((3, 2, 1), (1,), (2, 1, 2)),
            ((2, 2, 1), (), (2, 2, 1)),
            ((3, 1), (1,), (2, 1)),
            ((2, 2, 2), (1, 1), (2, 2)),
        ]
        for outer, inner, content in cases:
            plain = count_skew_tableaux(outer, inner, content)
            assert plain == bruteforce_tableau_count(outer, inner, content)
            for N in (3, 4):
                if len(normalize(outer)) > N:
                    continue
                for k in (max(outer), sum(outer)):
                    assert (
                        count_cylindric_tableaux(outer, inner, content, (N, k))
                        == plain
                    )

    def test_against_bruteforce_with_cylindric_condition(self):
        cases = [
            ((4, 2, 2, 1), (3, 2, 1), (2, 1), (4, 3)),
            ((3, 3, 2, 1), (3, 2, 1), (2, 1), (4, 3)),
            ((3, 3, 3), (3, 2, 1), (2, 1), (4, 3)),
            ((3, 2, 2, 2), (3, 2, 1), (2, 1), (4, 3)),
            ((3, 3, 1), (2, 1), (2, 1, 1), (3, 3)),
            ((3, 3, 3), (2, 1), (2, 2, 2), (3, 3)),
        ]
        for outer, inner, content, ctx in cases:
            assert count_cylindric_tableaux(
                outer, inner, content, ctx
            ) == bruteforce_tableau_count(outer, inner, content, ctx)

    def test_enumeration_is_deterministic(self):
        first = list(iter_skew_tableaux((3, 2), (1,), (2, 1, 1)))
        second = list(iter_skew_tableaux((3, 2), (1,), (2, 1, 1)))
        assert first == second


class TestTableauContents:
    def test_adjoint_of_sl3(self):
        contents = tableau_contents((2, 1), 3)
        assert sum(contents.values()) == 8
        assert contents[(1, 1, 1)] == 2

    def test_single_box(self):
        for N in (2, 3, 4, 5):
            contents = tableau_contents((1,), N)
            assert sum(contents.values()) == N
            assert set(contents.values()) == {1}

    def test_matches_skew_tableau_enumerator(self):
        for N in (2, 3, 4):
            for shape in partitions_in_box(N, 3):
                n = sum(shape)
                # compositions of n into N parts: a weight of sum <= n,
                # completed by the remainder
                expected = {}
                for w in level_k_weights(N, n):
                    content = w + (n - sum(w),)
                    count = count_skew_tableaux(shape, (), content)
                    if count:
                        expected[content] = count
                contents = tableau_contents(shape, N)
                assert contents == expected, (N, shape)
                assert sum(contents.values()) == module_dimension(
                    partition_to_weight(shape, N), N
                )


    def test_dominant_kostka_expanded_over_permutations(self):
        for N in (2, 3, 4, 5):
            for shape in partitions_in_box(N, 3):
                kostka = dominant_kostka(shape, N)
                assert all(
                    len(nu) == N and list(nu) == sorted(nu, reverse=True) and count > 0
                    for nu, count in kostka.items()
                )
                expanded = {
                    content: count
                    for nu, count in kostka.items()
                    for content in iter_distinct_permutations(nu)
                }
                assert expanded == tableau_contents(shape, N), (N, shape)


class TestRepeatFreePermutations:
    def test_matches_filtered_permutations(self):
        # every content nu and every shift mu + rho from the N x 3 box
        for N in (2, 3, 4, 5, 6):
            box = [padded(p, N) for p in partitions_in_box(N, 3)]
            shifts = [tuple(mu[j] + N - 1 - j for j in range(N)) for mu in box]
            for nu in box:
                perms = list(iter_distinct_permutations(nu))
                for shift in shifts:
                    got = repeat_free_permutations(nu, shift)
                    expected = [
                        c
                        for c in perms
                        if len({x + s for x, s in zip(c, shift)}) == N
                    ]
                    assert got == expected, (nu, shift)

    def test_lexicographic_without_repeats(self):
        # 4 of the 12 distinct permutations: (0,1,1,2) + shift = (3,3,2,2)
        got = repeat_free_permutations((2, 1, 1, 0), (3, 2, 1, 0))
        assert got == sorted(set(got))
        assert got == [(0, 2, 1, 1), (1, 0, 2, 1), (1, 1, 0, 2), (2, 1, 1, 0)]

    def test_repeat_forced_everywhere(self):
        # equal entries under a constant shift always collide
        assert repeat_free_permutations((1, 1, 0), (0, 0, 0)) == []
        assert repeat_free_permutations((0, 0), (1, 0)) == [(0, 0)]


def _leibniz(start, q, step, lo, hi):
    """Reference: sum over permutations of sign(sigma) times the step chain."""
    L = len(q)
    acc = {}
    for sigma in itertools.permutations(range(L)):
        idx = [q[i] - i + sigma[i] for i in range(L)]
        if any(not lo <= m <= hi for m in idx):
            continue
        inversions = sum(
            1 for i in range(L) for j in range(i + 1, L) if sigma[i] > sigma[j]
        )
        cur = dict(start)
        for m in idx:
            nxt = {}
            for r, mult in cur.items():
                for s, one in step(r, m).items():
                    nxt[s] = nxt.get(s, 0) + mult * one
            cur = nxt
        for r, mult in cur.items():
            acc[r] = acc.get(r, 0) + (-1) ** inversions * mult
    return {r: mult for r, mult in acc.items() if mult}


def _numeric_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


class TestDetExpand:
    def test_pieri_step_matches_leibniz(self):
        for N, k in ((4, 3), (5, 2), (6, 2)):
            ctx = fusion_context(N, k)
            base = basis(ctx)
            starts = [{base[0]: 1}, {base[len(base) // 2]: 1}, {base[-1]: 2}]

            def step(r, m):
                return pieri_h(r, m, ctx)

            for q in base:
                for start in starts:
                    expected = _leibniz(start, q, step, 0, k)
                    assert det_expand(start, q, step, 0, k) == expected, (N, k, q)

    def test_orbit_step_matches_leibniz(self):
        ctx = fusion_context(4, 3)
        orbits = [partition_to_orbit(p, ctx) for p in basis(ctx)]
        starts = [{orbits[0]: 1}, {orbits[7]: 1}, {orbits[-1]: 1, orbits[3]: -1}]

        def step(r, m):
            return special_orbit_product(r, m, ctx)

        for q in basis(ctx):
            for start in starts:
                assert det_expand(start, q, step, 0, 3) == _leibniz(
                    start, q, step, 0, 3
                ), q

    def test_scalar_step_is_the_numeric_determinant(self):
        rng = random.Random(7)
        c = {m: rng.choice([-3, -2, -1, 1, 2, 3, 5]) for m in range(-4, 10)}

        def step(x, m):
            return {x: c[m]}

        # (0, 2) kills every entry of a row with q_i - i >= 3, e.g. q = (4,)
        for lo, hi in ((0, 4), (0, 2), (1, 3), (-4, 9)):
            for q in partitions_in_box(5, 4):
                L = len(q)
                rows = [
                    [c[q[i] - i + j] if lo <= q[i] - i + j <= hi else 0
                     for j in range(L)]
                    for i in range(L)
                ]
                det = _numeric_det(rows)
                got = det_expand({"x": 1}, q, step, lo, hi)
                assert got == ({"x": det} if det else {}), (lo, hi, q)
                assert got == _leibniz({"x": 1}, q, step, lo, hi)
