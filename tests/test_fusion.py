import itertools
import json
import random
from math import comb

import pytest

from fusionkit import fusion
from fusionkit.crosscheck import fw_a2_relation_check
from fusionkit.fusion import (
    AxiomReport,
    FusionTable,
    basis,
    full_table,
    gepner_witten_a1,
    multiply,
    multiply_by_h_sequence,
    pieri_e,
    pieri_h,
    tensor_multiply,
    verify_fusion_axioms,
)
from fusionkit.partitions import (
    contains,
    fusion_context,
    normalize,
    padded,
    partitions_in_box,
    reduce_full_columns,
)

CTX33 = fusion_context(3, 3)
CTX43 = fusion_context(4, 3)
# the table-workload contexts and the criterion-7 contexts up to n = 56
LIGHT_CONTEXTS = [
    (3, 4), (5, 2), (2, 16), (4, 3), (3, 5), (6, 2),
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (7, 2), (8, 2),
    (3, 6), (4, 4), (5, 3), (6, 3),
]


def _is_row_strip(outer, inner, m: int) -> bool:
    """True iff outer/inner has exactly m boxes, at most one per column."""
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner) or sum(outer) - sum(inner) != m:
        return False
    inner = padded(inner, len(outer))
    # one box per column <=> rows interlace: outer_{i+1} <= inner_i
    return all(outer[i + 1] <= inner[i] for i in range(len(outer) - 1))


def _is_column_strip(outer, inner, m: int) -> bool:
    """True iff outer/inner has exactly m boxes, at most one per row."""
    outer, inner = normalize(outer), normalize(inner)
    if not contains(outer, inner) or sum(outer) - sum(inner) != m:
        return False
    inner = padded(inner, len(outer))
    return all(outer[i] - inner[i] <= 1 for i in range(len(outer)))


def _pieri_h_oracle(p, m, ctx):
    """pieri_h's row-strip walk, each result reduced by reduce_full_columns.

    Unlike pieri_h, it walks every value of the last row and drops the
    leaves with boxes left over.
    """
    N, k = ctx
    pp = padded(p, N)
    out = {}

    def rec(i, prev, rest, acc):
        if i == N:
            if rest == 0:
                key = reduce_full_columns(acc, N)
                out[key] = out.get(key, 0) + 1
            return
        hi = min(prev, pp[i] + rest)
        if i > 0:
            hi = min(hi, pp[i - 1])
        for x in range(pp[i], hi + 1):
            rec(i + 1, x, rest - (x - pp[i]), acc + (x,))

    rec(0, k, m, ())
    return out


class TestStrips:
    def test_both_strip_kinds(self):
        assert _is_row_strip((4, 3, 1, 1), (3, 2, 1, 0), 3)
        assert _is_column_strip((4, 3, 1, 1), (3, 2, 1, 0), 3)

    def test_empty_skew(self):
        assert _is_row_strip((2, 1), (2, 1), 0)
        assert _is_column_strip((2, 1), (2, 1), 0)

    def test_two_boxes_in_a_row(self):
        assert _is_row_strip((5, 1), (3, 1), 2)
        assert not _is_column_strip((5, 1), (3, 1), 2)

    def test_box_count_must_match(self):
        assert not _is_row_strip((5, 1), (3, 1), 3)

    def test_against_bruteforce_column_counts(self):
        # per-column / per-row box counts computed directly from the diagram
        box = list(partitions_in_box(4, 4))
        for outer in box:
            for inner in box:
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
                assert _is_row_strip(outer, inner, m) == all(
                    c <= 1 for c in col_counts
                )
                assert _is_column_strip(outer, inner, m) == all(
                    c <= 1 for c in row_counts
                )


class TestBasis:
    def test_a1_level3(self):
        assert basis(fusion_context(2, 3)) == [(), (1,), (2,), (3,)]

    def test_sizes(self):
        assert len(basis(fusion_context(3, 2))) == 6
        assert len(basis(CTX33)) == 10
        for N in range(2, 6):
            for k in range(1, 5):
                assert len(basis(fusion_context(N, k))) == comb(N - 1 + k, N - 1)

    def test_graded_lex_order(self):
        b = basis(CTX33)
        keys = [(sum(p), p) for p in b]
        assert keys == sorted(keys)


class TestPieriH:
    def test_one_box_on_two_two(self):
        assert pieri_h((2, 2), 1, CTX43) == {(2, 2, 1): 1, (3, 2): 1}

    def test_one_box_with_reduction(self):
        assert pieri_h((2, 1, 1), 1, CTX43) == {
            (1,): 1,
            (2, 2, 1): 1,
            (3, 1, 1): 1,
        }

    def test_h_zero(self):
        for p in basis(CTX33):
            assert pieri_h(p, 0, CTX33) == {p: 1}

    def test_h_k_single_term(self):
        for ctx in (CTX33, CTX43, fusion_context(2, 4)):
            N, k = ctx
            for p in basis(ctx):
                out = pieri_h(p, k, ctx)
                assert len(out) == 1 and set(out.values()) == {1}
                expected = reduce_full_columns((k,) + padded(p, N - 1), N)
                assert out == {expected: 1}

    def test_all_coefficients_one(self):
        for ctx in (CTX33, CTX43):
            _, k = ctx
            for p in basis(ctx):
                for m in range(k + 1):
                    assert set(pieri_h(p, m, ctx).values()) <= {1}

    def test_matches_strip_definition(self):
        # independent enumeration: all nu in the N x k box, filter row strips
        N, k = CTX43
        box = list(partitions_in_box(N, k))
        for p in basis(CTX43):
            for m in range(k + 1):
                expected = {}
                for nu in box:
                    if _is_row_strip(nu, p, m):
                        key = reduce_full_columns(nu, N)
                        expected[key] = expected.get(key, 0) + 1
                assert pieri_h(p, m, CTX43) == expected

    def test_leaf_key_matches_reduce_full_columns(self):
        for N, k in ((4, 3), (5, 2), (3, 5), (6, 2), (2, 16), (3, 12)):
            ctx = fusion_context(N, k)
            for p in basis(ctx):
                for m in range(k + 1):
                    assert pieri_h(p, m, ctx) == _pieri_h_oracle(p, m, ctx), (N, k, p, m)

    def test_rejects_m_above_k(self):
        with pytest.raises(ValueError):
            pieri_h((1,), 4, CTX33)

    def test_rejects_partition_outside_box(self):
        with pytest.raises(ValueError):
            pieri_h((4,), 1, CTX33)


class TestPieriE:
    def test_e_n_is_identity(self):
        for ctx in (CTX33, CTX43):
            N, _ = ctx
            for p in basis(ctx):
                assert pieri_e(p, N, ctx) == {p: 1}

    def test_empty_times_e_m(self):
        for m in range(4):
            expected = normalize((1,) * m)
            assert pieri_e((), m, CTX43) == {reduce_full_columns(expected, 4): 1}

    def test_two_column_strip(self):
        # nu over (2,1): (3,2), (3,1,1)->(2), (2,2,1)->(1,1)
        assert pieri_e((2, 1), 2, CTX33) == {(3, 2): 1, (2,): 1, (1, 1): 1}

    def test_matches_strip_definition(self):
        N, k = CTX33
        candidates = list(partitions_in_box(N, k + 1))
        for p in basis(CTX33):
            for m in range(N + 1):
                expected = {}
                for nu in candidates:
                    nu_pad = padded(nu, N)
                    if nu_pad[0] - nu_pad[N - 1] > k:
                        continue
                    if _is_column_strip(nu, p, m):
                        key = reduce_full_columns(nu, N)
                        expected[key] = expected.get(key, 0) + 1
                assert pieri_e(p, m, CTX33) == expected


class TestMultiply:
    def test_adjoint_squared(self):
        assert multiply((2, 1), (2, 1), CTX33) == {
            (3,): 1,
            (3, 3): 1,
            (2, 1): 2,
            (): 1,
        }

    def test_rank_four_product(self):
        assert multiply((2, 1), (2, 2), CTX43) == {
            (3, 2, 2): 1,
            (3, 3, 1): 1,
            (2, 1): 1,
            (1, 1, 1): 1,
        }

    def test_identity(self):
        for p in basis(CTX43):
            assert multiply(p, (), CTX43) == {p: 1}
            assert multiply((), p, CTX43) == {p: 1}

    def test_commutative(self):
        for ctx in (CTX33, fusion_context(3, 2)):
            b = basis(ctx)
            for p in b:
                for q in b:
                    assert multiply(p, q, ctx) == multiply(q, p, ctx)

    def test_matches_h_iteration_on_one_row_factors(self):
        for m in range(4):
            for p in basis(CTX33):
                q = normalize((m,))
                assert multiply(p, q, CTX33) == pieri_h(p, m, CTX33)


def iterated_pieri(p, eps, ctx):
    """h_{eps_1} ... h_{eps_r} applied to p one pieri_h step at a time."""
    out = {p: 1}
    for m in eps:
        nxt = {}
        for r, mult in out.items():
            for s, one in pieri_h(r, m, ctx).items():
                nxt[s] = nxt.get(s, 0) + mult * one
        out = nxt
    return out


class TestHSequence:
    def test_two_then_one(self):
        assert multiply_by_h_sequence((3, 2, 1), (2, 1), CTX43) == {
            (2, 2, 1): 3,
            (3, 3, 3): 1,
            (3, 2): 1,
            (3, 1, 1): 1,
            (1,): 1,
        }

    def test_empty_sequence(self):
        for p in basis(CTX33):
            assert multiply_by_h_sequence(p, (), CTX33) == {p: 1}

    def test_single_step(self):
        assert multiply_by_h_sequence((3, 3, 2), (1,), CTX43) == {
            (2, 2, 1): 1,
            (3, 3, 3): 1,
        }

    def test_equals_iterated_pieri(self):
        for ctx in (CTX33, CTX43):
            _, k = ctx
            for p in basis(ctx):
                for eps in [(1, 1), (2, 1), (k, 1), (2, 2, 1)]:
                    if any(e > k for e in eps):
                        continue
                    assert multiply_by_h_sequence(p, eps, ctx) == iterated_pieri(
                        p, eps, ctx
                    )

    def test_randomized_kostka_vs_pieri(self):
        rng = random.Random(20040601)
        ranks, full_columns, tall_labels = set(), 0, 0
        for _ in range(300):
            N = rng.randint(2, 6)
            k = rng.randint(1, 5)
            ctx = fusion_context(N, k)
            b = basis(ctx)
            p = b[rng.randrange(len(b))]
            eps = tuple(rng.randint(0, k) for _ in range(rng.randint(1, 3)))
            got = multiply_by_h_sequence(p, eps, ctx)
            assert got == iterated_pieri(p, eps, ctx), (N, k, p, eps)
            ranks.add(N)
            size = sum(p) + sum(eps)
            # a label r of the product stands for r plus (size - |r|) / N full columns
            full_columns += sum(size - sum(r) >= N for r in got)
            tall_labels += sum(len(r) == N - 1 for r in got)
        assert ranks == {2, 3, 4, 5, 6}
        assert full_columns >= 100 and tall_labels >= 100, (full_columns, tall_labels)

    def test_rejects_large_entry(self):
        with pytest.raises(ValueError):
            multiply_by_h_sequence((1,), (4,), CTX33)


def simple_current_power(p, t, ctx):
    """Apply the simple current h_k t times through pieri_h, one term per step."""
    for _ in range(t):
        step = pieri_h(p, ctx.k, ctx)
        assert len(step) == 1 and set(step.values()) == {1}, (p, step)
        (p,) = step
    return p


class TestSimpleCurrentPower:
    def test_empty_to_full_row(self):
        assert simple_current_power((), 1, CTX33) == (3,)
        assert simple_current_power((), 1, CTX43) == (3,)

    def test_full_cycle_returns_start(self):
        for ctx in (CTX33, CTX43, fusion_context(2, 4)):
            N, _ = ctx
            for p in basis(ctx):
                assert simple_current_power(p, N, ctx) == p

    def test_row_to_empty(self):
        for ctx in (CTX33, CTX43):
            N, k = ctx
            assert simple_current_power((k,), N - 1, ctx) == ()

    def test_adjoint_fixed_point(self):
        assert simple_current_power((2, 1), 1, CTX33) == (2, 1)


class TestTensorMultiply:
    def test_identity(self):
        assert tensor_multiply((2, 1), (), 3) == {(2, 1): 1}

    def test_adjoint_squared_sl3(self):
        # 8 x 8 = 27 + 10 + 10bar + 2*8 + 1
        got = tensor_multiply((2, 1), (2, 1), 3)
        assert got == {
            (4, 2): 1,
            (3,): 1,
            (3, 3): 1,
            (2, 1): 2,
            (): 1,
        }

    def test_total_dimension_preserved(self):
        from fusionkit.weyl import module_dimension
        from fusionkit.partitions import partition_to_weight

        for N in (3, 4):
            shapes = [p for p in partitions_in_box(N - 1, 2)]
            for p in shapes:
                for q in shapes:
                    prod = tensor_multiply(p, q, N)
                    lhs = module_dimension(
                        partition_to_weight(p, N), N
                    ) * module_dimension(partition_to_weight(q, N), N)
                    rhs = sum(
                        mult * module_dimension(partition_to_weight(r, N), N)
                        for r, mult in prod.items()
                    )
                    assert lhs == rhs


class TestTable:
    def test_identity_row(self):
        t = full_table(fusion_context(3, 2))
        omega = t.basis.index(())
        n = len(t.basis)
        for b in range(n):
            assert t.constants[omega * n + b] == ((b, 1),)

    def test_a1_level1(self):
        t = full_table(fusion_context(2, 1))
        assert t.basis == ((), (1,))
        assert t.coefficient((1,), (1,), ()) == 1
        assert t.coefficient((1,), (1,), (1,)) == 0

    def test_matches_gepner_witten(self):
        for k in range(1, 6):
            t = full_table(fusion_context(2, k))
            label = {a: normalize((a,)) for a in range(k + 1)}
            for a in range(k + 1):
                for b in range(k + 1):
                    for c in range(k + 1):
                        assert t.coefficient(
                            label[a], label[b], label[c]
                        ) == gepner_witten_a1(a, b, c, k)

    def test_pieri_steps_computed_once_per_table(self, monkeypatch):
        calls = []
        real = fusion.pieri_h

        def counting(p, m, ctx):
            calls.append((p, m))
            return real(p, m, ctx)

        monkeypatch.setattr(fusion, "pieri_h", counting)
        N, k = CTX43
        n = len(basis(CTX43))
        first = full_table(CTX43)
        assert len(calls) == len(set(calls)) <= n * (k + 1)
        once = len(calls)
        # the memo does not outlive the call: a second table redoes the steps
        assert full_table(CTX43) == first
        assert len(calls) == 2 * once

    def test_rows_match_multiply(self):
        for N, k in ((4, 3), (3, 5), (6, 2)):
            ctx = fusion_context(N, k)
            t = full_table(ctx)
            n = len(t.basis)
            for a, p in enumerate(t.basis):
                for b, q in enumerate(t.basis):
                    row = {t.basis[c]: m for c, m in t.constants[a * n + b]}
                    assert row == multiply(p, q, ctx), (N, k, p, q)

    def test_json_round_trip(self):
        t = full_table(fusion_context(3, 2))
        data = json.loads(json.dumps(t.to_json_dict()))
        assert data["schema"] == "fusionkit/table/v2"
        back = FusionTable.from_json_dict(data)
        assert back == t

    def test_json_rejects_other_schema(self):
        t = full_table(fusion_context(2, 2))
        data = t.to_json_dict()
        data["schema"] = "fusionkit/table/v0"
        with pytest.raises(ValueError):
            FusionTable.from_json_dict(data)


def _dense(table):
    """The sparse rows of a FusionTable as a dense list t[a][b][c]."""
    n = len(table.basis)
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for ab, row in enumerate(table.constants):
        for c, m in row:
            t[ab // n][ab % n][c] = m
    return t


def _sparse(t):
    """Sparse rows ((c, N_ab^c), ...) of a dense t[a][b][c], row-major in (a, b)."""
    return tuple(
        tuple((c, m) for c, m in enumerate(t[a][b]) if m)
        for a in range(len(t))
        for b in range(len(t))
    )


def _associator(t, a, b, c, e):
    """(sum_d N_ab^d N_dc^e, sum_d N_bc^d N_ad^e) on a dense table."""
    R = range(len(t))
    return (
        sum(t[a][b][d] * t[d][c][e] for d in R),
        sum(t[b][c][d] * t[a][d][e] for d in R),
    )


def _products(t, a, b, c):
    """((ab)c, a(bc)) on a dense table, as dense vectors in the result index;
    equal entrywise to _associator, with the zero terms of each sum skipped."""
    left = right = [0] * len(t)
    for d, m in enumerate(t[a][b]):
        if m:
            left = [x + m * y for x, y in zip(left, t[d][c])]
    for d, m in enumerate(t[b][c]):
        if m:
            right = [x + m * y for x, y in zip(right, t[a][d])]
    return left, right


def _dense_checks(t):
    """Reference: the six axiom checks visiting every index of a dense table,
    each witness the first failure in lexicographic order."""
    R = range(len(t))
    # each row is scanned entry by entry only if the whole-row test fails
    neg = next(
        (
            (a, b, c, x)
            for a, b in itertools.product(R, repeat=2)
            if min(t[a][b]) < 0
            for c, x in enumerate(t[a][b])
            if x < 0
        ),
        None,
    )
    comm = next(
        (
            (a, b, c, x, y)
            for a, b in itertools.product(R, repeat=2)
            if t[a][b] != t[b][a]
            for c, (x, y) in enumerate(zip(t[a][b], t[b][a]))
            if x != y
        ),
        None,
    )
    assoc = None
    for a, b, c in itertools.product(R, repeat=3):
        left, right = _products(t, a, b, c)
        if left != right:
            e = next(e for e in R if left[e] != right[e])
            assoc = (a, b, c, e, left[e], right[e])
            break
    omega = next(
        (a for a in R if all(t[a][b][c] == (b == c) for b in R for c in R)), None
    )
    checks = [
        ("non-negative integer constants", neg is None, neg),
        ("commutativity", comm is None, comm),
        ("associativity", assoc is None, assoc),
        ("identity element", omega is not None, None),
    ]
    if omega is None:
        return checks + [
            ("conjugation is a permutation with C^2 = I", False, "no identity"),
            ("total symmetry of N_{a,b,c}", False, "no identity"),
        ]
    conj = None
    for a in R:
        images = [b for b in R if t[a][b][omega]]
        if len(images) != 1 or t[a][images[0]][omega] != 1:
            conj = (a, images)
            break
    if conj is None:
        sigma = [next(b for b in R if t[a][b][omega]) for a in R]
        if sorted(sigma) != list(R) or any(sigma[sigma[a]] != a for a in R):
            conj = ("sigma", sigma)
    checks.append(("conjugation is a permutation with C^2 = I", conj is None, conj))
    if conj is not None:
        return checks + [("total symmetry of N_{a,b,c}", False, "no conjugation")]
    sym = next(
        (
            (a, b, c)
            for a, b, c in itertools.product(R, repeat=3)
            if not t[a][b][sigma[c]] == t[c][b][sigma[a]] == t[a][c][sigma[b]]
        ),
        None,
    )
    return checks + [("total symmetry of N_{a,b,c}", sym is None, sym)]


class TestAxioms:
    def test_three_dimensional_example(self):
        # x1*x1 = x0, x1*x2 = x2, x2*x2 = x0 + x1: associative, C = I
        base = ((), (1,), (2,))
        n = {}
        n[0, 0] = (1, 0, 0)
        n[0, 1] = (0, 1, 0)
        n[0, 2] = (0, 0, 1)
        n[1, 1] = (1, 0, 0)
        n[1, 2] = (0, 0, 1)
        n[2, 2] = (1, 1, 0)
        constants = _sparse(
            [[n[min(a, b), max(a, b)] for b in range(3)] for a in range(3)]
        )
        report = verify_fusion_axioms(FusionTable(0, 0, base, constants))
        assert isinstance(report, AxiomReport)
        assert report.ok, report.failures()

    def test_broken_table_reports_witness(self):
        base = ((), (1,))
        constants = (((0, 1),), ((1, 1),), ((1, 1),), ((0, 1), (1, 1)))
        good = verify_fusion_axioms(FusionTable(0, 0, base, constants))
        assert good.ok
        bad_constants = constants[:3] + (((1, 1),),)  # x1 * x1 = x1
        report = verify_fusion_axioms(FusionTable(0, 0, base, bad_constants))
        assert not report.ok
        # x1 has no conjugate: x1 * x for no x contains x0
        assert report.failures()[0] == (
            "conjugation is a permutation with C^2 = I", False, (1, [])
        )

    def test_conjugation_swaps_fundamentals_at_rank3_level1(self):
        t = full_table(fusion_context(3, 1))
        report = verify_fusion_axioms(t)
        assert report.ok
        assert t.coefficient((1,), (1, 1), ()) == 1
        assert t.coefficient((1,), (1,), ()) == 0

    def test_mutated_tables_match_dense_oracle(self):
        rng = random.Random(5)
        verdicts = set()
        for N, k in ((2, 3), (3, 3), (4, 2), (3, 4)):
            t0 = _dense(full_table(fusion_context(N, k)))
            n = len(t0)
            tables = [t0]
            for _ in range(20):
                t = [[list(col) for col in row] for row in t0]
                for _ in range(rng.randint(1, 3)):
                    a, b, c = (rng.randrange(n) for _ in range(3))
                    m = rng.choice([x for x in (0, 1, 2, -1) if x != t[a][b][c]])
                    t[a][b][c] = m
                    if rng.random() < 0.5:  # keep the table commutative here
                        t[b][a][c] = m
                tables.append(t)
            for t in tables:
                table = FusionTable(N, k, tuple(basis((N, k))), _sparse(t))
                report = verify_fusion_axioms(table)
                assert report.checks == _dense_checks(t), (N, k)
                for name, passed, witness in report.checks:
                    verdicts.add((name, passed))
                    if name == "associativity" and not passed:
                        a, b, c, e, left, right = witness
                        assert (left, right) == _associator(t, a, b, c, e)
                        assert left != right
        # every check both passed and failed somewhere in the sample
        assert len(verdicts) == 12, sorted(verdicts)

    def test_symmetric_mutations_match_dense_oracle(self):
        rng = random.Random(12)
        for N, k in ((3, 3), (4, 3), (3, 4), (5, 2), (2, 6), (6, 2)):
            table0 = full_table(fusion_context(N, k))
            t0 = _dense(table0)
            n = len(t0)
            for _ in range(100):
                t = [[list(col) for col in row] for row in t0]
                rows = list(table0.constants)
                for _ in range(rng.randint(1, 2)):
                    a, b, c = (rng.randrange(n) for _ in range(3))
                    m = rng.choice([x for x in (0, 1, 2, -1) if x != t[a][b][c]])
                    t[a][b][c] = t[b][a][c] = m
                    rows[a * n + b] = rows[b * n + a] = tuple(
                        (e, x) for e, x in enumerate(t[a][b]) if x
                    )
                table = FusionTable(N, k, table0.basis, tuple(rows))
                assert verify_fusion_axioms(table).checks == _dense_checks(t), (N, k)

    def test_all_small_tables_pass(self):
        for N in (2, 3, 4):
            for k in (1, 2, 3):
                report = verify_fusion_axioms(full_table(fusion_context(N, k)))
                assert report.ok, (N, k, report.failures())


class TestClosedForms:
    def test_gepner_witten_values(self):
        assert gepner_witten_a1(1, 1, 0, 2) == 1
        assert gepner_witten_a1(1, 1, 2, 2) == 1
        assert gepner_witten_a1(1, 1, 0, 1) == 1
        assert gepner_witten_a1(1, 1, 2, 1) == 0

    def test_gepner_witten_identity_column(self):
        for k in (1, 2, 3):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert gepner_witten_a1(0, b, c, k) == (1 if b == c else 0)

    def test_gepner_witten_range_check(self):
        with pytest.raises(ValueError):
            gepner_witten_a1(3, 0, 0, 2)
        with pytest.raises(ValueError):
            gepner_witten_a1(0, 0, -1, 2)
        assert gepner_witten_a1(1, 1, 7, 3) == 0  # beyond-range result label

    def test_fw_a2_no_violations(self):
        for k in (1, 2, 3):
            assert fw_a2_relation_check(fusion_context(3, k)) == []

    def test_fw_a2_requires_rank_three(self):
        with pytest.raises(ValueError):
            fw_a2_relation_check(fusion_context(4, 2))

    def test_fw_a2_coefficient_two_instance(self):
        from fusionkit.orbits import raw_orbit_product

        fus = multiply((2, 1), (2, 1), CTX33)
        assert fus[(2, 1)] == 2
        raw = raw_orbit_product((2, 1, 0), (2, 1, 0), CTX33)
        assert raw[(2, 1, 0)] == comb(fus[(2, 1)] + 1, 2) == 3


@pytest.fixture
def associator_visits(monkeypatch):
    """Count the calls of fusion._associator, the per-triple kernel."""
    visits = []
    real = fusion._associator

    def counting(t, a, b, c):
        visits.append((a, b, c))
        return real(t, a, b, c)

    monkeypatch.setattr(fusion, "_associator", counting)
    return visits


class TestLightAssociativity:
    def test_fast_path_visits_generator_triples_only(self, associator_visits):
        for N, k in LIGHT_CONTEXTS:
            table = full_table(fusion_context(N, k))
            n = len(table.basis)
            associator_visits.clear()
            assert verify_fusion_axioms(table).ok, (N, k)
            assert len(associator_visits) == n * n * min(N - 1, k), (N, k)
            # the middle factors are the one-column or one-row labels
            middles = {table.basis[b] for _, b, _ in associator_visits}
            if N - 1 <= k:
                assert middles == {(1,) * m for m in range(1, N)}
            else:
                assert middles == {(m,) for m in range(1, k + 1)}

    def test_edited_generator_row_falls_back_to_full_scan(self, associator_visits):
        # (3,3) takes column generators, (5,2) row generators
        for (N, k), gens in (((3, 3), ((1,), (1, 1))), ((5, 2), ((1,), (2,)))):
            ctx = fusion_context(N, k)
            t0 = _dense(full_table(ctx))
            base = tuple(basis(ctx))
            n = len(base)
            for g in gens:
                for a in range(1, n):  # row 0 is the identity and stays
                    t = [[list(col) for col in row] for row in t0]
                    b, c = base.index(g), (a * 7 + 3) % n
                    t[a][b][c] = t[b][a][c] = t0[a][b][c] + 1
                    associator_visits.clear()
                    report = verify_fusion_axioms(FusionTable(N, k, base, _sparse(t)))
                    assert report.checks == _dense_checks(t), (N, k, g, a)
                    name, passed, witness = report.checks[2]
                    assert name == "associativity" and not passed
                    # the full scan ran: (0, 0, 0) has the identity in the middle
                    assert (0, 0, 0) in associator_visits
                    assert associator_visits[-1] == witness[:3]

    def test_no_generator_labels_takes_full_scan(self, associator_visits):
        # x1*x1 = x0, x1*x2 = x2, x2*x2 = x0 + x1; no (1^m) label is listed
        # for N = 0, so generation cannot be shown
        base = ((), (1,), (2,))
        rows = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
                (1, 1): (1, 0, 0), (1, 2): (0, 0, 1), (2, 2): (1, 1, 0)}
        t = [[list(rows[min(a, b), max(a, b)]) for b in range(3)] for a in range(3)]
        report = verify_fusion_axioms(FusionTable(0, 0, base, _sparse(t)))
        assert report.ok
        assert report.checks == _dense_checks(t)
        assert associator_visits == list(itertools.product(range(3), repeat=3))
