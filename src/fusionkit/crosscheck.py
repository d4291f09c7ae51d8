"""Checks that compare one route's results with another's.

The three routes (``fusion``, ``orbits``, ``weyl``) import only
``partitions`` from the package, so they stay independent; a check that
needs two of them lives here.
"""

from __future__ import annotations

from math import comb

from .fusion import full_table
from .orbits import raw_orbit_product
from .partitions import partition_to_orbit


def fw_a2_relation_check(ctx) -> list:
    """Violations of raw = C(fusion + 1, 2) over all A_2 level-k triples.

    The fusion products are read off full_table(ctx), and every raw orbit
    product of the n^2 basis pairs is compared with them.
    """
    N, k = ctx
    if N != 3:
        raise ValueError(f"this relation is specific to N = 3, got N = {N}")
    table = full_table(ctx)
    base, n = table.basis, len(table.basis)
    orbits = {p: partition_to_orbit(p, ctx) for p in base}
    violations = []
    for a, p in enumerate(base):
        for b, q in enumerate(base):
            fus = {base[c]: m for c, m in table.constants[a * n + b]}
            raw = raw_orbit_product(orbits[p], orbits[q], ctx)
            for r in base:
                predicted = comb(fus.get(r, 0) + 1, 2)
                actual = raw.get(orbits[r], 0)
                if predicted != actual:
                    violations.append((p, q, r, actual, predicted))
    return violations
