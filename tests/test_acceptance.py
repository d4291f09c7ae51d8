"""Acceptance suite: one test per criterion, exact integer equality throughout.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an ``ACCEPTANCE n PASS`` line (visible with ``-s``).
"""

import random
from math import comb

from fusionkit import fusion
from fusionkit.duality import quotient_table, sc_orbit, verify_rank_level_duality
from fusionkit.fusion import (
    basis,
    full_table,
    fw_a2_relation_check,
    gepner_witten_a1,
    multiply,
    multiply_by_h_sequence,
    pieri_h,
    verify_fusion_axioms,
)
from fusionkit.orbits import (
    fixed_product,
    m_coefficient_bruteforce,
    raw_orbit_product,
    special_orbit_product,
    tensor_orbit_product,
    trim,
)
from fusionkit.partitions import (
    count_cylindric_tableaux,
    fusion_context,
    level_k_weights,
    normalize,
    orbit_to_partition,
    partition_to_orbit,
    partition_to_weight,
    partitions_in_box,
    weight_to_orbit,
    weight_to_partition,
)
from fusionkit.weyl import (
    kac_walton_fusion,
    racah_speiser_tensor,
    weight_multiplicities,
)

THREE_WAY_CONTEXTS = [
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2), (7, 2),
    (8, 2),
]


def _raw_on_expansion(expansion, factor, ctx):
    out = {}
    for o, m in expansion.items():
        for r, m2 in raw_orbit_product(o, factor, ctx).items():
            out[r] = out.get(r, 0) + m * m2
    return out


def test_criterion_01_golden_examples():
    ctx33, ctx43 = fusion_context(3, 3), fusion_context(4, 3)

    # raw orbit products
    assert raw_orbit_product((2, 1, 0), (1, 1, 0), ctx33) == {
        (2, 2, 1): 1, (1, 1, 0): 1, (2, 0, 0): 1,
    }
    assert raw_orbit_product((2, 2, 1), (1, 0, 0), ctx33) == {
        (2, 2, 2): 1, (2, 1, 0): 1,
    }
    assert raw_orbit_product((3, 2, 1), (1, 1, 0), ctx43) == {
        (3, 1, 0): 1, (2, 2, 0): 1, (3, 3, 2): 1,
    }
    assert raw_orbit_product((2, 1, 0), (2, 1, 0), ctx33) == {
        (2, 2, 2): 1, (1, 1, 1): 1, (2, 1, 0): 3, (0, 0, 0): 1,
    }
    assert raw_orbit_product((3, 3, 2), (2, 1, 1), ctx43) == {
        (3, 1, 0): 1, (0, 0, 0): 1,
    }

    # Pieri products in the quotient ring
    assert pieri_h((2, 2), 1, ctx43) == {(2, 2, 1): 1, (3, 2): 1}
    assert pieri_h((2, 1, 1), 1, ctx43) == {(1,): 1, (2, 2, 1): 1, (3, 1, 1): 1}
    assert multiply_by_h_sequence((3, 2, 1), (2, 1), ctx43) == {
        (2, 2, 1): 3, (3, 3, 3): 1, (3, 2): 1, (3, 1, 1): 1, (1,): 1,
    }

    # fusion skew Kostka numbers, including the level dependence
    assert count_cylindric_tableaux((4, 2, 2, 1), (3, 2, 1), (2, 1), (4, 3)) == 1
    assert count_cylindric_tableaux((4, 2, 2, 1), (3, 2, 1), (2, 1), (4, 4)) == 3
    assert count_cylindric_tableaux((3, 3, 2, 1), (3, 2, 1), (2, 1), (4, 3)) == 3

    # Jacobi-Trudi products
    assert multiply((2, 1), (2, 1), ctx33) == {
        (3,): 1, (3, 3): 1, (2, 1): 2, (): 1,
    }
    assert multiply((2, 1), (2, 2), ctx43) == {
        (3, 2, 2): 1, (3, 3, 1): 1, (2, 1): 1, (1, 1, 1): 1,
    }

    # fixed orbit product with coefficient 2
    assert fixed_product((2, 1, 0), (2, 1, 0), ctx33) == {
        (2, 2, 2): 1, (1, 1, 1): 1, (2, 1, 0): 2, (0, 0, 0): 1,
    }

    # weight-space decomposition of the adjoint of sl_3
    wm = weight_multiplicities((1, 1), 3)
    assert sum(wm.values()) == 8 and wm[(0, 0)] == 2

    # tableau tensor and fusion worked examples
    assert racah_speiser_tensor((1, 1), (2, 0), 3) == {
        (3, 1): 1, (1, 2): 1, (2, 0): 1, (0, 1): 1,
    }
    assert kac_walton_fusion((1, 1), (2, 0), (3, 2)) == {(0, 1): 1}

    # finitely-supported orbit product
    assert tensor_orbit_product((2, 1), (1, 1), 3) == {
        (2, 2, 1): 1, (1, 1): 1, (2,): 1, (2, 1, 1, 1): 1,
    }

    # SC-orbit of [(2,2,1)] in O(4,3)
    assert sc_orbit((2, 2, 1), ctx43) == frozenset(
        {(2, 2, 1), (3, 3, 2), (3, 0, 0), (1, 1, 0)}
    )
    print("ACCEPTANCE 1 PASS: golden examples reproduced exactly")


def _assert_three_way(p, q, ctx):
    N, _ = ctx
    jt = multiply(p, q, ctx)
    kw = {
        weight_to_partition(w): m
        for w, m in kac_walton_fusion(
            partition_to_weight(p, N), partition_to_weight(q, N), ctx
        ).items()
    }
    fx = {
        orbit_to_partition(o): m
        for o, m in fixed_product(
            partition_to_orbit(p, ctx), partition_to_orbit(q, ctx), ctx
        ).items()
    }
    assert jt == kw == fx, (tuple(ctx), p, q)


def test_criterion_02_three_way_oracle_equivalence():
    for N, k in THREE_WAY_CONTEXTS:
        ctx = fusion_context(N, k)
        for p in basis(ctx):
            for q in basis(ctx):
                _assert_three_way(p, q, ctx)
    # both determinant routes at L = 9: every basis p against each 9-row q
    ctx = fusion_context(10, 2)
    tall = [q for q in basis(ctx) if len(q) == 9]
    assert len(tall) == 10
    for p in basis(ctx):
        for q in tall:
            _assert_three_way(p, q, ctx)
    print("ACCEPTANCE 2 PASS: Jacobi-Trudi = Kac-Walton = fixed orbit product")


def test_criterion_03_row_factor_sweep():
    for N in (2, 3, 4, 5):
        for k in (1, 2, 3, 4):
            ctx = fusion_context(N, k)
            for w in level_k_weights(N, k):
                orbit = weight_to_orbit(w, ctx)
                p = weight_to_partition(w)
                for m in range(k + 1):
                    sp = special_orbit_product(orbit, m, ctx)
                    assert set(sp.values()) <= {1}
                    translated = {orbit_to_partition(o): c for o, c in sp.items()}
                    assert translated == pieri_h(p, m, ctx), (N, k, w, m)
    print("ACCEPTANCE 3 PASS: row-factor orbit products match Pieri, 0/1 only")


def test_criterion_04_gepner_witten_closure():
    for k in range(1, 6):
        table = full_table(fusion_context(2, k))
        label = {a: normalize((a,)) for a in range(k + 1)}
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert table.coefficient(
                        label[a], label[b], label[c]
                    ) == gepner_witten_a1(a, b, c, k), (k, a, b, c)
    print("ACCEPTANCE 4 PASS: N=2 tables match the closed formula for k=1..5")


def test_criterion_05_binomial_relation_rank_three():
    for k in (1, 2, 3):
        ctx = fusion_context(3, k)
        assert fw_a2_relation_check(ctx) == []
        # spot check against the independent brute-force counter
        orbits = [weight_to_orbit(w, ctx) for w in level_k_weights(3, k)]
        for a in orbits[: min(4, len(orbits))]:
            for b in orbits[: min(4, len(orbits))]:
                fus = multiply(orbit_to_partition(a), orbit_to_partition(b), ctx)
                for c in orbits:
                    predicted = comb(
                        fus.get(orbit_to_partition(c), 0) + 1, 2
                    )
                    assert m_coefficient_bruteforce(a, b, c, ctx) == predicted
    print("ACCEPTANCE 5 PASS: raw coefficient = C(fusion + 1, 2) at N=3, k=1..3")


def test_criterion_06_nonassociativity_and_fix():
    ctx = fusion_context(3, 3)
    a, b, c = (2, 1, 0), (1, 1, 0), (1, 0, 0)
    left = _raw_on_expansion(raw_orbit_product(a, b, ctx), c, ctx)
    right = {}
    for o, m in raw_orbit_product(b, c, ctx).items():
        for r, m2 in raw_orbit_product(a, o, ctx).items():
            right[r] = right.get(r, 0) + m * m2
    assert left[(2, 1, 0)] == 3 and right[(2, 1, 0)] == 4
    assert {k_: v for k_, v in left.items() if k_ != (2, 1, 0)} == {
        k_: v for k_, v in right.items() if k_ != (2, 1, 0)
    }

    # exhaustive associativity of the fixed product on N <= 4, k <= 3
    for N in (2, 3, 4):
        for k in (1, 2, 3):
            ctx = fusion_context(N, k)
            orbits = [weight_to_orbit(w, ctx) for w in level_k_weights(N, k)]
            n = len(orbits)
            idx = {o: i for i, o in enumerate(orbits)}
            t = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    dense = [0] * n
                    for r, m in fixed_product(orbits[i], orbits[j], ctx).items():
                        dense[idx[r]] = m
                    t[i][j] = t[j][i] = dense
            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        for e in range(n):
                            assert sum(
                                t[i][j][d] * t[d][l][e] for d in range(n)
                            ) == sum(
                                t[j][l][d] * t[i][d][e] for d in range(n)
                            ), (N, k, i, j, l, e)
    print("ACCEPTANCE 6 PASS: raw witness (3 vs 4); fixed product associative")


def test_criterion_07_fusion_axioms(monkeypatch):
    visits = []
    associator = fusion._associator
    monkeypatch.setattr(
        fusion, "_associator", lambda *args: visits.append(1) or associator(*args)
    )
    for N, k in THREE_WAY_CONTEXTS + [(3, 6), (4, 4), (5, 3), (6, 3), (4, 6),
                                      (4, 7), (3, 12), (8, 3), (5, 5)]:
        table = full_table(fusion_context(N, k))
        visits.clear()
        report = verify_fusion_axioms(table)
        assert report.ok, (N, k, report.failures())
        # associativity by Light's test: n^2 triples per generator, no full scan
        assert len(visits) == len(table.basis) ** 2 * min(N - 1, k), (N, k)
    print("ACCEPTANCE 7 PASS: all fusion-algebra axioms hold on every table")


def test_criterion_08_rank_level_duality():
    for N, k in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5),
                 (3, 4), (2, 6), (2, 7), (3, 5), (4, 4), (3, 6), (4, 5),
                 (5, 5), (3, 8)]:
        report = verify_rank_level_duality(N, k)
        assert report["isomorphic"], report
    assert len(basis(fusion_context(2, 3))) == 4
    assert len(basis(fusion_context(3, 2))) == 6
    assert len(quotient_table(fusion_context(2, 3)).classes) == 2
    assert len(quotient_table(fusion_context(3, 2)).classes) == 2
    print("ACCEPTANCE 8 PASS: rank-level duality transports all quotients")


def test_criterion_09_stability():
    shapes = list(partitions_in_box(3, 3))
    for N in (3, 4):
        for p in shapes:
            for q in shapes:
                lam = partition_to_weight(p, N)
                mu = partition_to_weight(q, N)
                k = (p[0] if p else 0) + (q[0] if q else 0)
                if k == 0:
                    continue
                assert kac_walton_fusion(
                    lam, mu, fusion_context(N, k)
                ) == racah_speiser_tensor(lam, mu, N), (N, p, q)

    pairs = {
        3: [((2, 1), (1, 1)), ((2, 2, 1), (1,)), ((2, 2), (2, 1))],
        4: [((3, 2), (2, 1)), ((3, 3, 1), (2, 2)), ((2, 1), (3, 1, 1))],
    }
    for N, cases in pairs.items():
        for a, b in cases:
            base = tensor_orbit_product(a, b, N)
            bound = len(trim(a)) + len(trim(b))
            for extra in (1, 2, 3):
                assert tensor_orbit_product(a, b, N, embed_length=bound + extra) == base
    print("ACCEPTANCE 9 PASS: level-saturated fusion = tensor; embeddings stable")


def test_criterion_10_property_suite():
    from fusionkit.partitions import conjugate

    # conjugation is an involution on everything inside a 6 x 6 box
    for p in partitions_in_box(6, 6):
        assert conjugate(conjugate(p)) == p

    # dictionary round trips
    for N in range(2, 6):
        for k in range(1, 6):
            ctx = fusion_context(N, k)
            count = 0
            for w in level_k_weights(N, k):
                count += 1
                p = orbit_to_partition(weight_to_orbit(w, ctx))
                assert partition_to_weight(p, N) == w
            assert count == comb(N - 1 + k, N - 1)
            assert len(basis(ctx)) == count

    # Kostka route equals iterated Pieri on 200 random instances
    rng = random.Random(20040601)
    for _ in range(200):
        N, k = rng.randint(2, 4), rng.randint(1, 4)
        ctx = fusion_context(N, k)
        b = basis(ctx)
        p = b[rng.randrange(len(b))]
        eps = tuple(rng.randint(0, k) for _ in range(rng.randint(1, 3)))
        expected = {p: 1}
        for m in eps:
            nxt = {}
            for r, mult in expected.items():
                for s, one in pieri_h(r, m, ctx).items():
                    nxt[s] = nxt.get(s, 0) + mult * one
            expected = nxt
        assert multiply_by_h_sequence(p, eps, ctx) == expected, (N, k, p, eps)
    print("ACCEPTANCE 10 PASS: involution, round trips, counts, Kostka=Pieri")
