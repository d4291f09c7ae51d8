"""Test oracles that share no code with fusionkit.

Each one enumerates its objects from their definition, so a test that
compares the package against one of them does not compare the package with
itself.  This module imports only the standard library;
``tests/test_crosscheck.py`` checks that.
"""

import itertools


def level_k_weights(N, k):
    """All weights (a_1, ..., a_{N-1}) with sum <= k, in lexicographic order."""
    return [w for w in itertools.product(range(k + 1), repeat=N - 1) if sum(w) <= k]


def all_orbits(N, k):
    """Standard forms ((N-1)^{a_{N-1}}, ..., 1^{a_1}, 0^{a_0}), one per weight."""
    return [
        tuple(v for v in range(N - 1, 0, -1) for _ in range(w[v - 1]))
        + (0,) * (k - sum(w))
        for w in level_k_weights(N, k)
    ]


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
