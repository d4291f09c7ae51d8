import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import orbits
from fusionkit.fusion import full_table
from fusionkit.orbits import (
    fixed_product,
    m_coefficient_bruteforce,
    orbit_multiplicities,
    raw_orbit_product,
    rep_from_multiplicities,
    simple_current_shift,
    special_orbit_product,
    standard_form,
    tensor_orbit_product,
    trim,
)
from fusionkit.partitions import (
    det_expand,
    fusion_context,
    iter_distinct_permutations,
    level_k_weights,
    orbit_to_partition,
    partition_to_orbit,
    weight_to_orbit,
)

CTX33 = fusion_context(3, 3)
CTX43 = fusion_context(4, 3)


def all_orbits(N, k):
    ctx = fusion_context(N, k)
    return [weight_to_orbit(w, ctx) for w in level_k_weights(N, k)]


def brute_raw_product(a, b, ctx):
    """Reference product: walk [b] explicitly, deduplicate column multisets."""
    N, k = ctx
    out = {}
    seen = set()
    for y in set(itertools.permutations(b)):
        key = tuple(sorted(zip(a, y)))
        if key in seen:
            continue
        seen.add(key)
        z = tuple((x + yi) % N for x, yi in zip(a, y))
        rep = tuple(sorted(z, reverse=True))
        out[rep] = out.get(rep, 0) + 1
    return out


class TestStandardForm:
    def test_sorts(self):
        assert standard_form((0, 1, 2), 3) == (2, 1, 0)
        assert standard_form((1, 0, 1, 0), 2) == (1, 1, 0, 0)
        assert standard_form((3, 0, 3, 2), 4) == (3, 3, 2, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            standard_form((3, 0), 3)

    def test_multiplicity_round_trip(self):
        for o in all_orbits(4, 3):
            assert rep_from_multiplicities(orbit_multiplicities(o, 4)) == o


class TestOrbitElements:
    # the elements of an orbit are the distinct permutations of its standard
    # form, which m_coefficient_bruteforce walks
    def test_three_elements(self):
        assert set(iter_distinct_permutations((1, 1, 0))) == {
            (1, 1, 0), (1, 0, 1), (0, 1, 1)
        }

    def test_constant_tuple_is_singleton(self):
        assert list(iter_distinct_permutations((2, 2, 2))) == [(2, 2, 2)]

    def test_six_elements(self):
        assert len(list(iter_distinct_permutations((2, 1, 0)))) == 6

    def test_cardinality_formula(self):
        from math import factorial

        for o in all_orbits(3, 4):
            counts = orbit_multiplicities(o, 3)
            expected = factorial(4)
            for c in counts:
                expected //= factorial(c)
            assert len(list(iter_distinct_permutations(o))) == expected

    def test_distinct_and_lexicographic(self):
        for o in all_orbits(3, 4) + all_orbits(4, 3):
            perms = list(iter_distinct_permutations(o))
            assert perms == sorted(set(perms))
            assert set(perms) == set(itertools.permutations(o))


class TestRawProduct:
    def test_staircase_times_two_ones(self):
        assert raw_orbit_product((2, 1, 0), (1, 1, 0), CTX33) == {
            (2, 2, 1): 1,
            (1, 1, 0): 1,
            (2, 0, 0): 1,
        }

    def test_redundant_equation_removed(self):
        assert raw_orbit_product((2, 2, 1), (1, 0, 0), CTX33) == {
            (2, 2, 2): 1,
            (2, 1, 0): 1,
        }

    def test_rank_four(self):
        assert raw_orbit_product((3, 2, 1), (1, 1, 0), CTX43) == {
            (3, 1, 0): 1,
            (2, 2, 0): 1,
            (3, 3, 2): 1,
        }

    def test_multiplicity_three(self):
        assert raw_orbit_product((2, 1, 0), (2, 1, 0), CTX33) == {
            (2, 2, 2): 1,
            (1, 1, 1): 1,
            (2, 1, 0): 3,
            (0, 0, 0): 1,
        }

    def test_worked_rank_four_product(self):
        assert raw_orbit_product((3, 3, 2), (2, 1, 1), CTX43) == {
            (3, 1, 0): 1,
            (0, 0, 0): 1,
        }

    def test_zero_orbit_is_identity(self):
        for o in all_orbits(3, 3):
            assert raw_orbit_product(o, (0, 0, 0), CTX33) == {o: 1}

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            raw_orbit_product((1, 0), (1, 1, 0), CTX33)

    def test_symmetry_and_bruteforce_sweep(self):
        for N in (2, 3, 4):
            for k in (1, 2, 3, 4):
                ctx = fusion_context(N, k)
                orbs = all_orbits(N, k)
                for a in orbs:
                    for b in orbs:
                        got = raw_orbit_product(a, b, ctx)
                        assert got == raw_orbit_product(b, a, ctx)
                        assert got == brute_raw_product(a, b, ctx)


class TestBruteforceCoefficient:
    def test_multiplicity_three(self):
        assert m_coefficient_bruteforce((2, 1, 0), (2, 1, 0), (2, 1, 0), CTX33) == 3

    def test_identity(self):
        for o in all_orbits(3, 3):
            assert m_coefficient_bruteforce(o, (0, 0, 0), o, CTX33) == 1

    def test_single_coefficient(self):
        assert m_coefficient_bruteforce((2, 1, 0), (1, 1, 0), (1, 1, 0), CTX33) == 1

    def test_size_guard(self):
        ctx = fusion_context(2, 9)
        with pytest.raises(ValueError):
            m_coefficient_bruteforce((1,) * 9, (0,) * 9, (1,) * 9, ctx)

    def test_rejects_short_result_orbit(self):
        with pytest.raises(ValueError, match="orbit lengths 3, 3, 2"):
            m_coefficient_bruteforce((2, 1, 0), (2, 1, 0), (2, 1), CTX33)


class TestSpecialProduct:
    def test_matches_raw_on_row_factor(self):
        assert special_orbit_product((2, 1, 0), 2, CTX33) == raw_orbit_product(
            (2, 1, 0), (1, 1, 0), CTX33
        )

    def test_m_zero(self):
        for o in all_orbits(4, 2):
            assert special_orbit_product(o, 0, fusion_context(4, 2)) == {o: 1}

    def test_multiplicity_one_sweep(self):
        for N in (2, 3, 4, 5):
            for k in (1, 2, 3, 4, 5):
                ctx = fusion_context(N, k)
                for o in all_orbits(N, k):
                    for m in range(k + 1):
                        sp = special_orbit_product(o, m, ctx)
                        h = weight_to_orbit(
                            (m,) + (0,) * (N - 2), ctx
                        )
                        assert sp == raw_orbit_product(o, h, ctx)
                        assert set(sp.values()) <= {1}

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            special_orbit_product((2, 1, 0), 4, CTX33)

    def test_checks_length_and_residues(self):
        with pytest.raises(ValueError, match="orbit length 2"):
            special_orbit_product((2, 1), 1, CTX33)
        with pytest.raises(ValueError, match="residues mod 3"):
            special_orbit_product((3, 1, 0), 1, CTX33)


class TestSimpleCurrentShift:
    def test_shift_cycle(self):
        assert simple_current_shift((2, 2, 1), 1, CTX43) == (3, 3, 2)
        assert simple_current_shift((3, 3, 2), 1, CTX43) == (3, 0, 0)
        assert simple_current_shift((2, 1, 0), 0, CTX33) == (2, 1, 0)

    def test_shift_inverse(self):
        for o in all_orbits(4, 3):
            for t in range(4):
                shifted = simple_current_shift(o, t, CTX43)
                assert simple_current_shift(shifted, (4 - t) % 4, CTX43) == o

    def test_shift_matches_raw_product(self):
        for o in all_orbits(3, 3):
            for t in range(3):
                tk = (t,) * 3
                assert raw_orbit_product(o, tk, CTX33) == {
                    simple_current_shift(o, t, CTX33): 1
                }

    def test_special_case_associativity(self):
        # (a x (t^k)) x b  ==  a x ((t^k) x b), as raw products
        for N in (2, 3, 4):
            for k in (1, 2, 3, 4):
                ctx = fusion_context(N, k)
                orbs = all_orbits(N, k)
                for a in orbs:
                    for b in orbs:
                        for t in range(N):
                            left = raw_orbit_product(
                                simple_current_shift(a, t, ctx), b, ctx
                            )
                            right = raw_orbit_product(
                                a, simple_current_shift(b, t, ctx), ctx
                            )
                            assert left == right


class TestNonAssociativity:
    def _triple(self, first, second, ctx):
        out = {}
        for o, m in first.items():
            for r, m2 in raw_orbit_product(o, second, ctx).items():
                out[r] = out.get(r, 0) + m * m2
        return out

    def test_witness(self):
        a, b, c = (2, 1, 0), (1, 1, 0), (1, 0, 0)
        left = self._triple(raw_orbit_product(a, b, CTX33), c, CTX33)
        bc = raw_orbit_product(b, c, CTX33)
        right = {}
        for o, m in bc.items():
            for r, m2 in raw_orbit_product(a, o, CTX33).items():
                right[r] = right.get(r, 0) + m * m2
        assert left[(2, 1, 0)] == 3
        assert right[(2, 1, 0)] == 4
        drop = lambda d: {k: v for k, v in d.items() if k != (2, 1, 0)}
        assert drop(left) == drop(right)


class TestFixedProduct:
    def test_corrected_self_product(self):
        assert fixed_product((2, 1, 0), (2, 1, 0), CTX33) == {
            (2, 2, 2): 1,
            (1, 1, 1): 1,
            (2, 1, 0): 2,
            (0, 0, 0): 1,
        }

    def test_identity(self):
        # (0^k) is the unit, and (t^k) is the simple current J^t
        for N, k in ((4, 3), (5, 2)):
            ctx = fusion_context(N, k)
            for a in all_orbits(N, k):
                for t in range(N):
                    assert fixed_product(a, (t,) * k, ctx) == {
                        simple_current_shift(a, t, ctx): 1
                    }

    def test_rank_four_product(self):
        assert fixed_product((2, 1, 0), (2, 2, 0), CTX43) == {
            (3, 3, 1): 1,
            (3, 2, 2): 1,
            (2, 1, 0): 1,
            (3, 0, 0): 1,
        }

    def test_matches_raw_on_staircase_factors(self):
        # factors (t+1)^m t^(k-m) and their wrap-around form
        for N in range(2, 7):
            for k in (1, 2, 3):
                ctx = fusion_context(N, k)
                orbs = all_orbits(N, k)
                for t in range(N):
                    for m in range(k + 1):
                        b = simple_current_shift(
                            (1,) * m + (0,) * (k - m), t, ctx
                        )
                        for a in orbs:
                            assert fixed_product(a, b, ctx) == raw_orbit_product(
                                a, b, ctx
                            )

    def test_expands_fewest_rows(self, monkeypatch):
        # one det_expand call, over the fewest rows any simple-current shift
        # of either factor gives
        calls = []

        def recording(start, q, step, lo, hi):
            calls.append(len(q))
            return det_expand(start, q, step, lo, hi)

        monkeypatch.setattr(orbits, "det_expand", recording)
        for N, k in ((10, 2), (4, 3)):
            ctx = fusion_context(N, k)
            orbs = all_orbits(N, k)
            for a in orbs:
                for b in orbs:
                    calls.clear()
                    fixed_product(a, b, ctx)
                    fewest = min(
                        max((x - t) % N for x in o) for o in (a, b) for t in o
                    )
                    assert calls == [fewest], (ctx, a, b, calls)

    def test_matches_fusion_table_on_sample(self):
        # contexts where the shift changes which factor is expanded
        rng = random.Random(9)
        for N, k in ((5, 5), (6, 3)):
            ctx = fusion_context(N, k)
            table = full_table(ctx)
            base = table.basis
            n = len(base)
            for _ in range(1000):
                i, j = rng.randrange(n), rng.randrange(n)
                prod = fixed_product(
                    partition_to_orbit(base[i], ctx),
                    partition_to_orbit(base[j], ctx),
                    ctx,
                )
                row = table.constants[i * n + j]
                assert {orbit_to_partition(o): m for o, m in prod.items()} == {
                    base[c]: m for c, m in row
                }, (ctx, base[i], base[j])

    def test_commutative(self):
        orbs = all_orbits(3, 3)
        for a in orbs:
            for b in orbs:
                assert fixed_product(a, b, CTX33) == fixed_product(b, a, CTX33)

    def test_raw_matches_fusion_on_staircase_weights(self):
        # (k-m) on node t plus m on node t+1: raw product against any other
        # orbit already gives the fusion coefficients
        from fusionkit.fusion import multiply
        from fusionkit.partitions import orbit_to_partition

        for N in (2, 3, 4):
            for k in (1, 2, 3):
                ctx = fusion_context(N, k)
                orbs = all_orbits(N, k)
                for t in range(N):
                    for m in range(k + 1):
                        lam = simple_current_shift(
                            (1,) * m + (0,) * (k - m), t, ctx
                        )
                        for mu in orbs:
                            raw = raw_orbit_product(lam, mu, ctx)
                            fus = multiply(
                                orbit_to_partition(lam),
                                orbit_to_partition(mu),
                                ctx,
                            )
                            assert {
                                orbit_to_partition(o): c for o, c in raw.items()
                            } == fus, (N, k, lam, mu)

    def test_associative_via_structure_constants(self):
        for N in (2, 3, 4):
            for k in (1, 2, 3):
                ctx = fusion_context(N, k)
                orbs = all_orbits(N, k)
                n = len(orbs)
                idx = {o: i for i, o in enumerate(orbs)}
                t = [[None] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        dense = [0] * n
                        for r, m in fixed_product(orbs[i], orbs[j], ctx).items():
                            dense[idx[r]] = m
                        t[i][j] = dense
                        t[j][i] = dense
                for i in range(n):
                    for j in range(n):
                        for l in range(n):
                            for e in range(n):
                                left = sum(
                                    t[i][j][d] * t[d][l][e] for d in range(n)
                                )
                                right = sum(
                                    t[j][l][d] * t[i][d][e] for d in range(n)
                                )
                                assert left == right, (N, k, i, j, l, e)


class TestTensorOrbitProduct:
    def test_worked_product(self):
        assert tensor_orbit_product((2, 1), (1, 1), 3) == {
            (2, 2, 1): 1,
            (1, 1): 1,
            (2,): 1,
            (2, 1, 1, 1): 1,
        }

    def test_second_worked_product(self):
        assert tensor_orbit_product((2, 2, 1), (1,), 3) == {
            (2, 2, 2): 1,
            (2, 1): 1,
            (2, 2, 1, 1): 1,
        }

    def test_identity(self):
        assert tensor_orbit_product((2, 1), (), 3) == {(2, 1): 1}
        assert tensor_orbit_product((), (), 3) == {(): 1}

    def test_stable_under_longer_embeddings(self):
        pairs = {
            3: [((2, 1), (1, 1)), ((2, 2, 1), (1,)), ((1, 1, 1), (2, 2))],
            4: [((3, 2), (2, 1)), ((3, 3, 1), (2, 2)), ((2, 1), (3, 1, 1))],
        }
        for N, cases in pairs.items():
            for a, b in cases:
                base = tensor_orbit_product(a, b, N)
                bound = len(trim(a)) + len(trim(b))
                for extra in (1, 2, 3):
                    assert (
                        tensor_orbit_product(a, b, N, embed_length=bound + extra)
                        == base
                    )

    def test_embedding_too_short(self):
        with pytest.raises(ValueError):
            tensor_orbit_product((2, 1), (1, 1), 3, embed_length=3)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_raw_product_total_count(N, k, data):
    # sum of coefficients = number of stabilizer orbits of [b], which equals
    # the number of blockwise splittings; cross-check against permutations
    ctx = fusion_context(N, k)
    orbs = all_orbits(N, k)
    a = data.draw(st.sampled_from(orbs))
    b = data.draw(st.sampled_from(orbs))
    total = sum(raw_orbit_product(a, b, ctx).values())
    seen = {tuple(sorted(zip(a, y))) for y in itertools.permutations(b)}
    assert total == len(seen)
