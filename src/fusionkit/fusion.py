"""The level-k fusion ring of A_{N-1} in its Schur-polynomial realization.

Basis elements are the partitions inside the (N-1) x k box.  Multiplication
by a one-row factor h_m follows the level-k Pieri rule (row strips inside
the N x k box, full columns stripped afterwards); a general product expands
one factor as its homogeneous Jacobi-Trudi determinant, with h_m = 0
whenever m is outside 0..k.  The determinant is expanded row by row over
the sets of used columns (partitions.det_expand), each entry acting as a
Pieri step.  Signed intermediates must cancel to a non-negative result;
that cancellation is asserted on every product.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass

from .partitions import (
    conjugate,
    contains,
    count_cylindric_tableaux,
    det_expand,
    fusion_context,
    normalize,
    padded,
    partitions_in_box,
    reduce_full_columns,
)

TABLE_SCHEMA = "fusionkit/table/v2"


def _check_basis_element(p, ctx) -> tuple:
    N, k = ctx
    p = normalize(p)
    if len(p) > N - 1 or (p and p[0] > k):
        raise ValueError(f"partition {p} not inside the {N - 1} x {k} box")
    return p


def basis(ctx) -> list:
    """Canonical basis partitions in graded lexicographic order."""
    N, k = ctx
    return sorted(partitions_in_box(N - 1, k), key=lambda p: (sum(p), p))


def pieri_h(p, m: int, ctx) -> dict:
    """Multiply by h_m: sum over nu in the N x k box with nu/p an m-row strip."""
    N, k = ctx
    p = _check_basis_element(p, ctx)
    if not 0 <= m <= k:
        raise ValueError(f"m = {m} out of range 0..{k}")
    pp = padded(p, N)
    out: dict = {}

    def rec(i, prev, rest, acc):
        if i == N:
            # rest is 0 and acc weakly decreasing, non-negative: strip full columns
            c = acc[-1]
            key = tuple(x - c for x in acc if x > c)
            out[key] = out.get(key, 0) + 1
            return
        hi = min(prev, pp[i] + rest)
        if i > 0:
            hi = min(hi, pp[i - 1])  # at most one new box per column
        # only x = pp[N-1] + rest can leave rest = 0 after the last row
        lo = pp[i] + rest if i == N - 1 else pp[i]
        for x in range(lo, hi + 1):
            rec(i + 1, x, rest - (x - pp[i]), acc + (x,))

    rec(0, k, m, ())
    return out


def pieri_e(p, m: int, ctx) -> dict:
    """Multiply by e_m: column strips with the nu_1 - nu_N <= k restriction."""
    N, k = ctx
    p = _check_basis_element(p, ctx)
    if not 0 <= m <= N:
        raise ValueError(f"m = {m} out of range 0..{N}")
    pp = padded(p, N)
    out: dict = {}
    for rows in itertools.combinations(range(N), m):
        nu = list(pp)
        for r in rows:
            nu[r] += 1
        if any(nu[i] < nu[i + 1] for i in range(N - 1)):
            continue
        if nu[0] - nu[N - 1] > k:
            continue
        key = reduce_full_columns(tuple(nu), N)
        out[key] = out.get(key, 0) + 1
    return out


def multiply(p, q, ctx) -> dict:
    """Product of two basis elements, via the Jacobi-Trudi determinant.

    The factor q with fewer rows is written as det[h_{q_i - i + j}], and
    that determinant acts on the other factor through Pieri steps; it is
    expanded row by row over the sets of used columns by
    partitions.det_expand.  Entries h_m with m outside 0..k vanish.
    """
    p, q = _check_basis_element(p, ctx), _check_basis_element(q, ctx)
    return _product(p, q, ctx, lambda r, m: pieri_h(r, m, ctx))


def _product(p, q, ctx, step) -> dict:
    """multiply on canonical basis elements; step(r, m) returns pieri_h(r, m, ctx),
    which det_expand only reads, so a memoised step may hand out one dict."""
    if len(p) < len(q):
        p, q = q, p
    acc = det_expand({p: 1}, q, step, 0, ctx[1])
    bad = {r: mult for r, mult in acc.items() if mult < 0}
    if bad:
        raise ArithmeticError(
            f"negative multiplicities {bad} in product {p} * {q} at {tuple(ctx)}"
        )
    return acc


def multiply_by_h_sequence(p, eps, ctx) -> dict:
    """Product with h_{eps_1} ... h_{eps_r} in one pass, via cylindric tableaux.

    The coefficient of a label r is the fusion skew Kostka number of nu/p
    with content eps, nu = r padded to N rows plus c = (|p| + |eps| - |r|)/N
    full columns: the one shape with nu_1 - nu_N <= k that reduces to r.  So
    the shapes are read off the basis, and none is walked.  Equals iterating
    pieri_h, with which it shares no enumeration code.
    """
    N, k = ctx
    p = _check_basis_element(p, ctx)
    eps = tuple(int(x) for x in eps)
    if any(not 0 <= e <= k for e in eps):
        raise ValueError(f"content entries must lie in 0..{k}: {eps}")
    total = sum(p) + sum(eps)
    out: dict = {}
    for r in basis(ctx):
        c, rest = divmod(total - sum(r), N)
        if rest or c < 0:
            continue
        nu = tuple(x + c for x in padded(r, N))
        if contains(nu, p):
            count = count_cylindric_tableaux(nu, p, eps, ctx)
            if count:
                out[r] = count
    return out


# -- classical (level-free) products, for tensor decompositions --------------


def tensor_multiply(p, q, N: int) -> dict:
    """Tensor-product multiplicities: the fusion product at level p_1 + q_1.

    At that level no weight of V_p (x) V_q, shifted by rho, reaches the
    affine wall, so the fusion product equals the classical one.
    """
    p, q = normalize(p), normalize(q)
    if len(p) > N - 1 or len(q) > N - 1:
        raise ValueError(f"factors must have at most {N - 1} rows")
    width = (p[0] if p else 0) + (q[0] if q else 0)
    return multiply(p, q, fusion_context(N, max(1, width)))


# -- tables and axioms --------------------------------------------------------


@dataclass(frozen=True)
class FusionTable:
    """Sparse structure constants over an ordered basis.

    constants[a * n + b] is the tuple of pairs (c, N_ab^c) with N_ab^c != 0,
    in increasing c: the layout of the JSON ``constants`` field.
    """

    N: int
    k: int
    basis: tuple
    constants: tuple

    def index(self, p) -> int:
        return self.basis.index(normalize(p))

    def coefficient(self, p, q, r) -> int:
        row = self.constants[self.index(p) * len(self.basis) + self.index(q)]
        return dict(row).get(self.index(r), 0)

    def to_json_dict(self) -> dict:
        return {
            "schema": TABLE_SCHEMA,
            "N": self.N,
            "k": self.k,
            "basis": self.basis,
            "constants": self.constants,
            "crc32": _checksum(self.N, self.k, self.basis, self.constants),
        }

    @classmethod
    def from_json_dict(cls, data) -> "FusionTable":
        """Inverse of to_json_dict; a malformed entry raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(
                f"table document is a {type(data).__name__}, not an object"
            )
        if data.get("schema") != TABLE_SCHEMA:
            raise ValueError(f"unsupported schema {data.get('schema')!r}")
        base = tuple(tuple(p) for p in data["basis"])
        n = len(base)
        constants = tuple(tuple(map(tuple, row)) for row in data["constants"])
        if len(constants) != n * n:
            raise ValueError("constants length does not match basis size")
        for ab, row in enumerate(constants):
            last, pair = -1, divmod(ab, n)
            for c, m in row:
                if type(c) is not int or not last < c < n:
                    raise ValueError(f"bad or unordered result index {c!r} for pair {pair}")
                if type(m) is not int or m <= 0:
                    raise ValueError(f"bad multiplicity {m!r} for pair {pair}")
                last = c
        crc = _checksum(data["N"], data["k"], base, constants)
        if data.get("crc32") != crc:
            raise ValueError(f"crc32 {data.get('crc32')!r} does not match the table")
        return cls(int(data["N"]), int(data["k"]), base, constants)


def _checksum(N, k, base, constants) -> int:
    """CRC-32 of the canonical JSON of [N, k, basis, constants]."""
    text = json.dumps([N, k, base, constants], separators=(",", ":"))
    return zlib.crc32(text.encode())


def full_table(ctx) -> FusionTable:
    """Structure constants of every basis pair; symmetric pairs computed once.

    Each Pieri step h_m acting on a label is computed once per table: the
    steps are memoised in a dict that lives only for this call, so a table
    makes at most n * (k + 1) pieri_h calls.
    """
    N, k = ctx
    base = tuple(basis(ctx))
    n = len(base)
    steps: dict = {}

    def step(r, m):
        out = steps.get((r, m))
        if out is None:
            out = steps[r, m] = pieri_h(r, m, ctx)
        return out

    index = {p: i for i, p in enumerate(base)}
    constants = [None] * (n * n)
    for a in range(n):
        for b in range(a, n):
            prod = _product(base[a], base[b], ctx, step)
            row = tuple(sorted((index[r], m) for r, m in prod.items()))
            constants[a * n + b] = constants[b * n + a] = row
    return FusionTable(N, k, base, tuple(constants))


@dataclass
class AxiomReport:
    """Outcome of the fusion-algebra axiom checks, with failure witnesses."""

    checks: list

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c[1]]


def _first_difference(x: dict, y: dict):
    """Smallest key at which two sparse vectors differ, or None."""
    if x == y:
        return None
    return min((e for e in x.keys() | y.keys() if x.get(e, 0) != y.get(e, 0)), default=None)


def _associator(t, a, b, c):
    """First e with ((ab)c)_e != (a(bc))_e on sparse rows t, as (e, left, right);
    None when the two products agree."""
    left: dict = {}
    get = left.get
    for d, m in t[a][b].items():
        for e, x in t[d][c].items():
            left[e] = get(e, 0) + m * x
    right: dict = {}
    get = right.get
    row = t[a]
    for d, m in t[b][c].items():
        for e, x in row[d].items():
            right[e] = get(e, 0) + m * x
    e = _first_difference(left, right)
    return None if e is None else (e, left.get(e, 0), right.get(e, 0))


def _light_generators(table: FusionTable, t, omega):
    """Indices of generator labels that the table shows generate it, or None.

    The generators are the one-column labels (1^m), m = 1..N-1, when
    N - 1 <= k, and the one-row labels (m), m = 1..k, otherwise.  Every label
    other than the identity omega must be the top term of row(j, g) for a
    generator g and a label j below it in the order: (|lam|, lam) for columns,
    with j = lam minus its first column; (|lam|, lam') for rows, with
    j = lam minus its first row.  By induction over that order every label
    then lies in the span of the words in the generators.
    """
    N, k = table.N, table.k
    if N - 1 <= k:
        labels = [(1,) * m for m in range(1, N)]
        rank = {p: (sum(p), p) for p in table.basis}
        split = lambda p: (tuple(x - 1 for x in p if x > 1), (1,) * len(p))
    else:
        labels = [(m,) for m in range(1, k + 1)]
        rank = {p: (sum(p), conjugate(p)) for p in table.basis}
        split = lambda p: (p[1:], p[:1])
    index = {p: i for i, p in enumerate(table.basis)}
    if any(g not in index for g in labels):
        return None
    gens = [index[g] for g in labels]
    for i, p in enumerate(table.basis):
        if i == omega:
            continue
        j, g = split(p)
        if j not in index or index.get(g) not in gens or not rank[j] < rank[p]:
            return None
        row = t[index[j]][index[g]]
        if not row or max(row, key=lambda c: rank[table.basis[c]]) != i:
            return None
    return gens


def verify_fusion_axioms(table: FusionTable) -> AxiomReport:
    """Check the defining properties of a fusion algebra on a sparse table.

    Each witness is the lexicographically first failing index tuple.

    Associativity is first tried by Light's test: once commutativity holds
    and a row omega is the identity, the table is associative if the
    associator [a, g, c] = (ag)c - a(gc) vanishes for every pair a, c and
    every g in a generating set G (_light_generators).  By Teichmueller's
    identity [a, gh, c] = [ag, h, c] + [a, g, hc] - a[g, h, c] - [a, g, h]c
    the middle factors with a vanishing associator form a subalgebra, and it
    holds omega and G.  That visits n^2 |G| triples instead of n^3.  If G is
    not shown to generate the table, or some [a, g, c] is nonzero, the full
    scan over every triple runs and reports the lexicographically first
    witness, as it would on its own.
    """
    n = len(table.basis)
    checks = []

    witness = next(
        (
            (ab // n, ab % n, c, m)
            for ab, row in enumerate(table.constants)
            for c, m in row
            if not isinstance(m, int) or m < 0
        ),
        None,
    )
    checks.append(("non-negative integer constants", witness is None, witness))

    # t[a][b] is the row N_ab^. as a dict holding only its nonzero values
    t = [
        [{c: m for c, m in table.constants[a * n + b] if m} for b in range(n)]
        for a in range(n)
    ]

    witness = None
    for a, b in itertools.product(range(n), repeat=2):
        c = _first_difference(t[a][b], t[b][a])
        if c is not None:
            witness = (a, b, c, t[a][b].get(c, 0), t[b][a].get(c, 0))
            break
    commutative = witness is None
    checks.append(("commutativity", commutative, witness))

    omega = next(
        (a for a in range(n) if all(t[a][b] == {b: 1} for b in range(n))), None
    )

    # Light's test needs the two-sided identity; the full scan runs otherwise
    witness = None
    gens = None
    if commutative and omega is not None:
        gens = _light_generators(table, t, omega)
    if gens is None or any(
        _associator(t, a, g, c) is not None
        for g in gens
        for a, c in itertools.product(range(n), repeat=2)
    ):
        for a, b, c in itertools.product(range(n), repeat=3):
            found = _associator(t, a, b, c)
            if found is not None:
                witness = (a, b, c) + found
                break
    checks.append(("associativity", witness is None, witness))
    checks.append(("identity element", omega is not None, None))

    if omega is None:
        checks.append(("conjugation is a permutation with C^2 = I", False, "no identity"))
        checks.append(("total symmetry of N_{a,b,c}", False, "no identity"))
        return AxiomReport(checks)

    sigma = [None] * n
    ok = True
    witness = None
    for a in range(n):
        images = [b for b in range(n) if omega in t[a][b]]
        if len(images) != 1 or t[a][images[0]][omega] != 1:
            ok, witness = False, (a, images)
            break
        sigma[a] = images[0]
    if ok and (sorted(sigma) != list(range(n)) or any(sigma[sigma[a]] != a for a in range(n))):
        ok, witness = False, ("sigma", sigma)
    checks.append(("conjugation is a permutation with C^2 = I", ok, witness))

    if ok:
        # N_ab^{sigma c} = N_cb^{sigma a} = N_ac^{sigma b} fails only where one
        # side is nonzero: visit the triples that put each N_pq^r != 0 there
        witness = min(
            (
                (a, b, c)
                for p, q in itertools.product(range(n), repeat=2)
                for s in (sigma[r] for r in t[p][q])
                for a, b, c in ((p, q, s), (s, q, p), (p, s, q))
                if not t[a][b].get(sigma[c], 0)
                == t[c][b].get(sigma[a], 0)
                == t[a][c].get(sigma[b], 0)
            ),
            default=None,
        )
        checks.append(("total symmetry of N_{a,b,c}", witness is None, witness))
    else:
        checks.append(("total symmetry of N_{a,b,c}", False, "no conjugation"))
    return AxiomReport(checks)


# -- small-rank closed-form cross-checks --------------------------------------


def gepner_witten_a1(a: int, b: int, c: int, k: int) -> int:
    """Closed-form A_1 level-k fusion coefficient.

    The factor labels a, b must lie in 0..k; the result label c may be any
    non-negative integer (the parity and interval conditions give 0 beyond
    the basis range).
    """
    for x in (a, b):
        if not 0 <= x <= k:
            raise ValueError(f"label {x} out of range 0..{k}")
    if c < 0:
        raise ValueError(f"label {c} must be >= 0")
    if (a + b - c) % 2 != 0:
        return 0
    return 1 if abs(a - b) <= c <= min(a + b, 2 * k - a - b) else 0
