"""Simple-current orbits, quotient fusion algebras, and rank-level duality.

The simple currents act on the orbit basis by adding a constant residue;
their orbits ("SC-orbits") index the quotient algebra obtained by
identifying every simple current with the identity.  The quotient constants
are class sums read off the sparse fusion table, which is first checked to
be commutative and equivariant under the simple current, so that every
choice of class representatives gives the same sums.  Partition conjugation
on representatives with a zero entry implements the isomorphism between the
(N, k) and (k, N) quotients.
"""

from __future__ import annotations

from collections import namedtuple

from .fusion import full_table
# Unused: perfbench/layertrace.py rebinds duality.multiply, an AttributeError without it.
from .fusion import multiply
from .orbits import simple_current_shift
from .partitions import (
    fusion_context,
    orbit_to_partition,
    padded,
    partition_to_orbit,
)


def canonical_sc_representative(members) -> tuple:
    """Lexicographically smallest member with a zero entry."""
    with_zero = [m for m in members if 0 in m]
    if not with_zero:
        raise ValueError(f"no member of {sorted(members)} has a zero entry")
    return min(with_zero)


def rank_level_dual(a, ctx) -> tuple:
    """Conjugate-partition image of an orbit with a zero entry, in O(k, N).

    The orbit ((N-1)^{a_{N-1}}, ..., 1^{a_1}, 0^{a_0}) with a_0 > 0 maps to
    the N-tuple (sum_{i>=1} a_i, sum_{i>=2} a_i, ..., a_{N-1}, 0, ...) whose
    entries are residues mod k.  Applying the map twice restandardizes back
    to the original orbit.
    """
    N, k = ctx
    if 0 not in a:
        raise ValueError(
            f"orbit {a} has no zero entry; shift within its SC-orbit first"
        )
    return padded(orbit_to_partition(a), N)


class QuotientTable(namedtuple("QuotientTable", "N k classes reps constants")):
    """Structure constants of the simple-current quotient algebra.

    A named tuple of five fields: N, k; classes, a tuple of frozensets of
    orbit representatives; reps, the canonical representative per class;
    constants, indexed constants[A][B][C].
    """

    __slots__ = ()

    def class_index(self, orbit) -> int:
        for i, members in enumerate(self.classes):
            if orbit in members:
                return i
        raise KeyError(f"orbit {orbit} not in any class")


def _not_well_defined(base, a, b, left, left_row, right, right_row):
    def text(row):
        return str({base[c]: m for c, m in row})

    return ArithmeticError(
        f"quotient product not well defined at pair ({base[a]}, {base[b]}): "
        f"{left} = {text(left_row)} but {right} = {text(right_row)}"
    )


def quotient_table(ctx) -> QuotientTable:
    """Quotient structure constants over SC-orbit classes.

    Constants are read off the sparse fusion table by fixing representatives
    and summing target multiplicities over each target class.  The table is
    first checked to be commutative and equivariant under the simple current
    J = simple_current_shift(., 1): row(Ja, b) is row(a, b) with each c
    replaced by Jc.  Together these give (J^s a)(J^t b) = J^(s+t)(ab), so
    the class sums do not depend on the representatives.
    """
    ctx = fusion_context(*ctx)
    table = full_table(ctx)
    base, rows = table.basis, table.constants
    n = len(base)
    orbits = [partition_to_orbit(p, ctx) for p in base]
    index = {o: i for i, o in enumerate(orbits)}
    J = [index[simple_current_shift(o, 1, ctx)] for o in orbits]
    for a in range(n):
        for b in range(n):
            row, pa, pb = rows[a * n + b], base[a], base[b]
            if row != rows[b * n + a]:
                raise _not_well_defined(
                    base, a, b, f"{pa}*{pb}", row, f"{pb}*{pa}", rows[b * n + a]
                )
            if dict(rows[J[a] * n + b]) != {J[c]: m for c, m in row}:
                shifted = tuple(sorted((J[c], m) for c, m in row))
                raise _not_well_defined(
                    base, a, b, f"{base[J[a]]}*{pb}", rows[J[a] * n + b],
                    f"J({pa}*{pb})", shifted,
                )

    # J^t is the shift by t, so the classes are the cycles of J
    cycles, seen = [], set()
    for start in range(n):
        cycle, c = set(), start
        while c not in seen:
            seen.add(c)
            cycle.add(orbits[c])
            c = J[c]
        if cycle:
            cycles.append(frozenset(cycle))
    classes = tuple(sorted(cycles, key=canonical_sc_representative))
    reps = tuple(canonical_sc_representative(ms) for ms in classes)
    class_of = {o: C for C, members in enumerate(classes) for o in members}
    constants = []
    for rep_a in reps:
        row = []
        for rep_b in reps:
            sums = [0] * len(classes)
            for c, m in rows[index[rep_a] * n + index[rep_b]]:
                sums[class_of[orbits[c]]] += m
            row.append(tuple(sums))
        constants.append(tuple(row))
    return QuotientTable(*ctx, classes, reps, tuple(constants))


def verify_rank_level_duality(N: int, k: int) -> dict:
    """Transport the (N, k) quotient constants along conjugation to (k, N).

    When N = k both quotients are the same table, built once.  Returns
    {"N", "k", "classes", "isomorphic", "witness"}; the witness names the
    first mismatch when the transport fails.  The dual rank parameter is k,
    so k must be at least 2.
    """
    ctx = fusion_context(N, k)
    if ctx.k < 2:
        raise ValueError(
            f"rank-level duality needs k >= 2, because the dual rank "
            f"parameter is k; got k = {ctx.k}"
        )
    dual_ctx = fusion_context(k, N)
    t1 = quotient_table(ctx)
    t2 = t1 if N == k else quotient_table(dual_ctx)
    report = {
        "N": N,
        "k": k,
        "classes": len(t1.classes),
        "isomorphic": False,
        "witness": None,
    }
    if len(t1.classes) != len(t2.classes):
        report["witness"] = (
            f"class counts differ: {len(t1.classes)} vs {len(t2.classes)}"
        )
        return report

    image = []
    for rep in t1.reps:
        dual = rank_level_dual(rep, ctx)
        try:
            image.append(t2.class_index(dual))
        except KeyError:
            report["witness"] = (
                f"conjugate {dual} of representative {rep} lies in no "
                f"({k}, {N}) class"
            )
            return report
    if sorted(image) != list(range(len(t2.classes))):
        report["witness"] = f"conjugation does not permute classes: {image}"
        return report

    n = len(t1.classes)
    for A in range(n):
        for B in range(n):
            for C in range(n):
                left = t1.constants[A][B][C]
                right = t2.constants[image[A]][image[B]][image[C]]
                if left != right:
                    report["witness"] = (
                        f"constant mismatch at classes ({A}, {B}, {C}): "
                        f"{left} vs {right}"
                    )
                    return report
    report["isomorphic"] = True
    return report
