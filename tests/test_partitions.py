import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from fusionkit.fusion import basis, pieri_h
from fusionkit.orbits import special_orbit_product
from fusionkit.partitions import (
    _strips_removed,
    conjugate,
    count_cylindric_tableaux,
    det_expand,
    fusion_context,
    horizontal_strips,
    normalize,
    orbit_to_partition,
    padded,
    partition_to_orbit,
    partition_to_weight,
    partitions_in_box,
    reduce_full_columns,
    tableau_contents,
    weight_to_orbit,
    weight_to_partition,
)
from fusionkit.weyl import module_dimension
from oracles import level_k_weights


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


class TestPartitionsInBox:
    def test_each_partition_once_by_length(self):
        for rows, cols in ((0, 3), (3, 0), (1, 4), (4, 1), (3, 3), (4, 5), (6, 6)):
            got = list(partitions_in_box(rows, cols))
            assert len(got) == len(set(got)) == comb(rows + cols, rows)
            assert set(got) == {
                normalize(sorted(c, reverse=True))
                for c in itertools.product(range(cols + 1), repeat=rows)
            }
            assert got == sorted(got, key=lambda p: (len(p), [-x for x in p]))

    def test_deep_box(self):
        got = list(partitions_in_box(1500, 1))
        assert got == [(1,) * n for n in range(1501)]


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
                count = sum(1 for _ in partitions_in_box(N - 1, k))
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
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            count_cylindric_tableaux((2, 1), (), (1, 1), (3, 3))

    def test_empty_outer_must_contain_inner(self):
        with pytest.raises(ValueError, match="not contained"):
            count_cylindric_tableaux((), (1,), (), (3, 2))
        assert count_cylindric_tableaux((), (), (), (3, 2)) == 1

    def test_matches_plain_kostka_for_large_k(self):
        # wrap-around condition is vacuous once k reaches the outer width
        cases = [
            ((3, 2, 1), (1,), (2, 1, 2)),
            ((2, 2, 1), (), (2, 2, 1)),
            ((3, 1), (1,), (2, 1)),
            ((2, 2, 2), (1, 1), (2, 2)),
        ]
        for outer, inner, content in cases:
            plain = count_cylindric_tableaux(
                outer, inner, content, (len(outer), outer[0])
            )
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

    def test_seeded_sweep_against_bruteforce(self):
        # N = 2..5, at most 7 cells; k below and at least the outer width
        rng = random.Random(1313)
        binding = free = inner_partner = 0
        for _ in range(320):
            while True:
                N, k = rng.randint(2, 5), rng.randint(1, 4)
                rows = N if rng.random() < 0.75 else rng.randint(1, N)
                outer = normalize(
                    sorted((rng.randint(1, k + 3) for _ in range(rows)), reverse=True)
                )
                inner, bound = [], outer[0]
                for x in outer:
                    bound = rng.randint(0, min(x, bound))
                    inner.append(bound)
                inner = normalize(inner)
                cells = sum(outer) - sum(inner)
                if cells <= 7:
                    break
            content = [0] * rng.randint(1, 4)
            for _ in range(cells):
                content[rng.randrange(len(content))] += 1
            ctx = (N, k)
            got = count_cylindric_tableaux(outer, inner, content, ctx)
            assert got == bruteforce_tableau_count(outer, inner, content, ctx), (
                outer, inner, content, ctx
            )
            if k >= outer[0]:
                free += 1
            elif got != count_cylindric_tableaux(
                outer, inner, content, (N, outer[0])
            ):
                binding += 1
            # a wrap pair with both cells in outer, one of them an inner cell
            nu = padded(outer, N)
            padded_inner = padded(inner, N)
            inner_partner += any(
                (p <= padded_inner[N - 1]) != (k + p <= padded_inner[0])
                for p in range(1, min(nu[N - 1], outer[0] - k) + 1)
            )
        assert min(binding, free, inner_partner) >= 20, (binding, free, inner_partner)

    def test_standard_tableaux_against_hook_length_formula(self):
        # all-ones content at k >= the width: standard Young tableaux
        for shape in partitions_in_box(5, 5):
            n = sum(shape)
            hooks = 1
            for i, row in enumerate(shape):
                for j in range(row):
                    hooks *= row - j + sum(1 for x in shape[i + 1 :] if x > j)
            for k in {max(shape, default=1), 5}:
                assert count_cylindric_tableaux(
                    shape, (), (1,) * n, (5, k)
                ) == factorial(n) // hooks, (shape, k)

    def test_three_row_rectangles_against_closed_form(self):
        # f^(n,n,n) = 2 (3n)! / (n! (n+1)! (n+2)!); n = 8 gives 23,371,634
        for n in range(1, 9):
            expected = (
                2 * factorial(3 * n)
                // (factorial(n) * factorial(n + 1) * factorial(n + 2))
            )
            for N in (3, 4):
                assert count_cylindric_tableaux(
                    (n, n, n), (), (1,) * (3 * n), (N, n)
                ) == expected, (n, N)
        assert expected == 23371634


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
                    count = count_cylindric_tableaux(shape, (), content, (N, 3))
                    if count:
                        expected[content] = count
                contents = tableau_contents(shape, N)
                assert contents == expected, (N, shape)
                assert sum(contents.values()) == module_dimension(
                    partition_to_weight(shape, N), N
                )


    def test_more_rows_than_entries_is_empty(self):
        assert tableau_contents((1, 1, 1), 2) == {}
        assert tableau_contents((3, 2, 2, 1), 3) == {}

    def test_empty_shape(self):
        for N in (2, 3, 4, 5):
            assert tableau_contents((), N) == {(0,) * N: 1}

    def test_total_is_weyl_dimension_on_seeded_shapes(self):
        # Weyl's product formula shares no code with the strip walk; the
        # staircase (6,5,4,3,2,1) at N = 7 has 2^21 tableaux
        rng = random.Random(7)
        cases = [((6, 5, 4, 3, 2, 1), 7)]
        for _ in range(40):
            parts = sorted(rng.randint(1, 4) for _ in range(rng.randint(1, 7)))
            cases.append((tuple(parts[::-1]), rng.randint(max(len(parts), 2), 8)))
        for shape, N in cases:
            contents = tableau_contents(shape, N)
            assert all(len(c) == N and sum(c) == sum(shape) for c in contents)
            assert sum(contents.values()) == module_dimension(
                partition_to_weight(shape, N), N
            ), (shape, N)
        assert module_dimension(partition_to_weight(cases[0][0], 7), 7) == 2**21

    def test_strips_removed_against_filtered_subshapes(self):
        # mu inside lam with mu_i >= lam_{i+1} and |lam| - |mu| = m
        box = list(partitions_in_box(4, 4))
        cases = 0
        for lam in box:
            wide = padded(lam, 5)
            for m in range(sum(lam) + 1):
                expected = sorted(
                    (
                        mu
                        for mu in box
                        if sum(lam) - sum(mu) == m
                        and all(
                            wide[i] >= x >= wide[i + 1]
                            for i, x in enumerate(padded(mu, 4))
                        )
                    ),
                    reverse=True,
                )
                assert _strips_removed(lam, m) == expected, (lam, m)
                every = [mu for mu, size in horizontal_strips(lam) if size == m]
                assert every == expected, (lam, m)
                cases += 1
        assert cases == 630

    def test_strips_removed_from_a_deep_column(self):
        assert _strips_removed((1,) * 1500, 1) == [(1,) * 1499]

    def test_strips_removed_prunes_by_size(self):
        # the 30-row staircase has 2^30 horizontal strips but one of 30 boxes;
        # the walk keeps at most two prefixes per row
        staircase = tuple(range(30, 0, -1))
        assert _strips_removed(staircase, 30) == [staircase[1:]]


def _leibniz(start, q, step, hi):
    """Reference: sum over permutations of sign(sigma) times the step chain."""
    L = len(q)
    acc = {}
    for sigma in itertools.permutations(range(L)):
        idx = [q[i] - i + sigma[i] for i in range(L)]
        if any(not 0 <= m <= hi for m in idx):
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
                    expected = _leibniz(start, q, step, k)
                    assert det_expand(start, q, step, k) == expected, (N, k, q)

    def test_orbit_step_matches_leibniz(self):
        ctx = fusion_context(4, 3)
        orbits = [partition_to_orbit(p, ctx) for p in basis(ctx)]
        starts = [{orbits[0]: 1}, {orbits[7]: 1}, {orbits[-1]: 1, orbits[3]: -1}]

        def step(r, m):
            return special_orbit_product(r, m, ctx)

        for q in basis(ctx):
            for start in starts:
                assert det_expand(start, q, step, 3) == _leibniz(
                    start, q, step, 3
                ), q

    def test_scalar_step_is_the_numeric_determinant(self):
        rng = random.Random(7)
        c = {m: rng.choice([-3, -2, -1, 1, 2, 3, 5]) for m in range(-4, 10)}

        def step(x, m):
            return {x: c[m]}

        # hi = 2 kills every entry of a row with q_i - i >= 3, e.g. q = (4,)
        for hi in (4, 2):
            for q in partitions_in_box(5, 4):
                L = len(q)
                rows = [
                    [c[q[i] - i + j] if 0 <= q[i] - i + j <= hi else 0
                     for j in range(L)]
                    for i in range(L)
                ]
                det = _numeric_det(rows)
                got = det_expand({"x": 1}, q, step, hi)
                assert got == ({"x": det} if det else {}), (hi, q)
                assert got == _leibniz({"x": 1}, q, step, hi)
