import pytest

from fusionkit import cli, duality
from fusionkit.duality import (
    canonical_sc_representative,
    quotient_table,
    rank_level_dual,
    verify_rank_level_duality,
)
from fusionkit.fusion import FusionTable, basis, full_table, pieri_h
from fusionkit.orbits import simple_current_shift
from fusionkit.partitions import fusion_context
from oracles import all_orbits

CTX43 = fusion_context(4, 3)


def sc_orbit(a, ctx) -> frozenset:
    """Test oracle: closure of {a} under shifting by every residue t."""
    N, _ = ctx
    return frozenset(simple_current_shift(a, t, ctx) for t in range(N))


class TestScOrbits:
    def test_four_member_orbit(self):
        assert sc_orbit((2, 2, 1), CTX43) == frozenset(
            {(2, 2, 1), (3, 3, 2), (3, 0, 0), (1, 1, 0)}
        )

    def test_simple_current_group_itself(self):
        assert sc_orbit((0, 0, 0), CTX43) == frozenset(
            {(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)}
        )

    def test_fixed_point(self):
        assert sc_orbit((1, 0), fusion_context(2, 2)) == frozenset({(1, 0)})

    def test_size_divides_rank(self):
        for N, k in [(2, 2), (3, 3), (4, 3), (4, 2)]:
            ctx = fusion_context(N, k)
            for o in all_orbits(N, k):
                assert N % len(sc_orbit(o, ctx)) == 0

    def test_shift_n_times_is_identity(self):
        for N, k in [(2, 3), (3, 2), (4, 3)]:
            ctx = fusion_context(N, k)
            for o in all_orbits(N, k):
                cur = o
                for _ in range(N):
                    cur = simple_current_shift(cur, 1, ctx)
                assert cur == o

    def test_quotient_classes_match_oracle(self):
        for N, k in [(2, 2), (3, 3), (4, 3), (4, 2), (6, 2), (3, 6), (4, 4)]:
            ctx = fusion_context(N, k)
            q = quotient_table(ctx)
            expected = sorted(
                {sc_orbit(o, ctx) for o in all_orbits(N, k)},
                key=canonical_sc_representative,
            )
            assert q.classes == tuple(expected), (N, k)
            assert q.reps == tuple(map(canonical_sc_representative, expected))

    def test_h_k_is_a_simple_current(self):
        for N, k in [(2, 3), (3, 3), (4, 2), (4, 3)]:
            ctx = fusion_context(N, k)
            for p in basis(ctx):
                out = pieri_h(p, k, ctx)
                assert len(out) == 1 and set(out.values()) == {1}


class TestCanonicalRepresentative:
    def test_lex_smallest_with_zero(self):
        members = sc_orbit((2, 2, 1), CTX43)
        assert canonical_sc_representative(members) == (1, 1, 0)

    def test_zero_orbit(self):
        assert canonical_sc_representative(sc_orbit((0, 0, 0), CTX43)) == (0, 0, 0)

    def test_self_fixed(self):
        ctx = fusion_context(3, 3)
        assert sc_orbit((2, 1, 0), ctx) == frozenset({(2, 1, 0)})
        assert canonical_sc_representative(sc_orbit((2, 1, 0), ctx)) == (2, 1, 0)

    def test_every_class_has_zero_member(self):
        for N, k in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
            ctx = fusion_context(N, k)
            for o in all_orbits(N, k):
                canonical_sc_representative(sc_orbit(o, ctx))


class TestRankLevelDual:
    def test_examples(self):
        assert rank_level_dual((1, 1, 0), CTX43) == (2, 0, 0, 0)
        assert rank_level_dual((0, 0, 0), CTX43) == (0, 0, 0, 0)
        assert rank_level_dual((2, 1, 0), fusion_context(3, 3)) == (2, 1, 0)

    def test_requires_zero_entry(self):
        with pytest.raises(ValueError):
            rank_level_dual((2, 2, 1), CTX43)

    def test_involution(self):
        for N, k in [(2, 3), (3, 2), (3, 3), (4, 3)]:
            ctx = fusion_context(N, k)
            dual_ctx = fusion_context(k, N)
            for o in all_orbits(N, k):
                if 0 not in o:
                    continue
                image = rank_level_dual(o, ctx)
                assert len(image) == N
                assert all(0 <= x < k for x in image)
                assert rank_level_dual(image, dual_ctx) == o


class TestQuotientTable:
    def test_a1_level3_has_two_classes(self):
        t = quotient_table(fusion_context(2, 3))
        assert len(t.classes) == 2

    def test_a2_level2_has_two_classes(self):
        t = quotient_table(fusion_context(3, 2))
        assert len(t.classes) == 2

    def test_identity_class_row(self):
        t = quotient_table(fusion_context(3, 2))
        omega = t.reps.index((0, 0))
        for B in range(len(t.classes)):
            expected = tuple(
                1 if C == B else 0 for C in range(len(t.classes))
            )
            assert t.constants[omega][B] == expected

    def test_well_definedness_asserted(self):
        # the constructor itself checks representative independence
        for N, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
            quotient_table(fusion_context(N, k))

    def test_symmetric_edit_is_rejected(self, monkeypatch, capsys):
        # one cell of (1)*(2,1) and of (2,1)*(1) incremented: the table stays
        # commutative, so only the simple-current equivariance can catch it
        ctx = fusion_context(3, 3)
        real = full_table(ctx)
        n = len(real.basis)
        a, b, c = real.index((1,)), real.index((2, 1)), real.index((1, 1))
        rows = list(real.constants)
        cell = dict(rows[a * n + b])
        cell[c] = cell.get(c, 0) + 1
        rows[a * n + b] = rows[b * n + a] = tuple(sorted(cell.items()))
        edited = FusionTable(real.N, real.k, real.basis, tuple(rows))
        monkeypatch.setattr(duality, "full_table", lambda ctx: edited)

        with pytest.raises(ArithmeticError) as exc:
            quotient_table(ctx)
        message = str(exc.value)
        assert message.startswith("quotient product not well defined")
        assert "(1,)*(2, 1)" in message or "(2, 1)*(1,)" in message

        assert cli.main(["duality", "--N", "3", "--k", "3"]) == 1
        assert "error: quotient product not well defined" in capsys.readouterr().err

    def test_edited_row_names_both_sides(self, monkeypatch):
        # one symmetric edit; the message shows both rows, the shifted one
        # sorted by its shifted indices
        cases = [
            ((3, 3), (1,), (2, 1), (1, 1),
             "quotient product not well defined at pair ((1,), (2, 1)): "
             "(3, 1)*(2, 1) = {(1,): 1, (2, 2): 1, (3, 1): 1} but "
             "J((1,)*(2, 1)) = {(1,): 1, (2,): 1, (2, 2): 1, (3, 1): 1}"),
            ((3, 4), (3,), (2,), (4, 1),
             "quotient product not well defined at pair ((1, 1), (2,)): "
             "(3,)*(2,) = {(3, 2): 1, (4, 1): 2} but "
             "J((1, 1)*(2,)) = {(3, 2): 1, (4, 1): 1}"),
        ]
        for (N, k), p, q, r, expected in cases:
            real = full_table(fusion_context(N, k))
            n = len(real.basis)
            a, b, c = real.index(p), real.index(q), real.index(r)
            rows = list(real.constants)
            cell = dict(rows[a * n + b])
            cell[c] = cell.get(c, 0) + 1
            rows[a * n + b] = rows[b * n + a] = tuple(sorted(cell.items()))
            edited = FusionTable(real.N, real.k, real.basis, tuple(rows))
            monkeypatch.setattr(duality, "full_table", lambda ctx: edited)
            with pytest.raises(ArithmeticError) as exc:
                quotient_table(fusion_context(N, k))
            assert str(exc.value) == expected

    def test_self_dual_builds_one_table(self, monkeypatch):
        calls = []

        def counting(ctx):
            calls.append(tuple(ctx))
            return full_table(ctx)

        monkeypatch.setattr(duality, "full_table", counting)
        assert verify_rank_level_duality(4, 4)["isomorphic"]
        assert calls == [(4, 4)]


class TestRankLevelDuality:
    def test_quotients_collapse_nonisomorphic_algebras(self):
        # level-3 A_1 and level-2 A_2 have sizes 4 and 6, quotients 2 and 2
        assert len(basis(fusion_context(2, 3))) == 4
        assert len(basis(fusion_context(3, 2))) == 6
        assert len(quotient_table(fusion_context(2, 3)).classes) == 2
        assert len(quotient_table(fusion_context(3, 2)).classes) == 2
        report = verify_rank_level_duality(2, 3)
        assert report["classes"] == 2 and report["isomorphic"]

    def test_rejects_level_one(self):
        with pytest.raises(ValueError):
            verify_rank_level_duality(3, 1)

    def test_conjugate_outside_every_class_is_a_witness(self, monkeypatch, capsys):
        # a conjugate with entries equal to k is no orbit of the (k, N) side
        monkeypatch.setattr(duality, "rank_level_dual", lambda a, ctx: (ctx.k,) * ctx.N)
        report = verify_rank_level_duality(3, 4)
        assert report == {
            "N": 3,
            "k": 4,
            "classes": 5,
            "isomorphic": False,
            "witness": "conjugate (4, 4, 4) of representative (0, 0, 0, 0) "
            "lies in no (4, 3) class",
        }

        for fmt in ("text", "json"):
            assert cli.main(["duality", "--N", "3", "--k", "4", "--format", fmt]) == 1
            out, err = capsys.readouterr()
            assert "conjugate (4, 4, 4) of representative (0, 0, 0, 0)" in out
            assert err == ""
