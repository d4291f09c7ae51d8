"""Differential property tests: the routes agree on drawn pairs.

Criterion 2 sweeps fixed contexts in a fixed order, so its first failing
pair need not be minimal.  Here Hypothesis draws (N, k, p, q), and on a
failure it shrinks the draw to a minimal witness; the assertion message
names (N, k, p, q) and each route's row.  derandomize=True and a fixed
max_examples keep every run on the same examples.
"""

from hypothesis import given, settings, strategies as st

from fusionkit.fusion import multiply, tensor_multiply
from fusionkit.orbits import fixed_product
from fusionkit.partitions import (
    fusion_context,
    orbit_to_partition,
    partition_to_orbit,
    partition_to_weight,
    weight_to_partition,
)
from fusionkit.weyl import kac_walton_fusion, racah_speiser_tensor

# Each route's cost grows with the smaller factor, so its box count is capped.
SMALLER_FACTOR_BOXES = 12

DRAWS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def partitions(draw, rows, cols, boxes):
    """A partition inside the rows x cols box with at most `boxes` boxes."""
    parts = []
    for _ in range(rows):
        part = draw(st.integers(0, min(parts[-1] if parts else cols, boxes)))
        if not part:
            break
        parts.append(part)
        boxes -= part
    return tuple(parts)


@st.composite
def pairs(draw):
    """(N, k, p, q) with p and q in the (N-1) x k box, either one capped."""
    N = draw(st.integers(2, 7))
    k = draw(st.integers(1, 7))
    p = draw(partitions(N - 1, k, (N - 1) * k))
    q = draw(partitions(N - 1, k, SMALLER_FACTOR_BOXES))
    if draw(st.booleans()):
        p, q = q, p
    return N, k, p, q


def _witness(context, p, q, rows) -> str:
    lines = [f"{context}, p = {p}, q = {q}"]
    lines += [f"  {name}: {sorted(row.items())}" for name, row in rows.items()]
    return "\n".join(lines)


@DRAWS
@given(pairs())
def test_level_k_routes_agree(case):
    N, k, p, q = case
    ctx = fusion_context(N, k)
    fixed = fixed_product(partition_to_orbit(p, ctx), partition_to_orbit(q, ctx), ctx)
    walk = kac_walton_fusion(partition_to_weight(p, N), partition_to_weight(q, N), ctx)
    rows = {
        "jacobi-trudi": multiply(p, q, ctx),
        "orbit": {orbit_to_partition(o): m for o, m in fixed.items()},
        "kac-walton": {weight_to_partition(w): m for w, m in walk.items()},
    }
    assert rows["jacobi-trudi"] == rows["orbit"] == rows["kac-walton"], _witness(
        f"(N, k) = ({N}, {k})", p, q, rows
    )


@DRAWS
@given(pairs())
def test_level_free_routes_agree(case):
    N, _, p, q = case
    walk = racah_speiser_tensor(partition_to_weight(p, N), partition_to_weight(q, N), N)
    rows = {
        "pieri": tensor_multiply(p, q, N),
        "racah-speiser": {weight_to_partition(w): m for w, m in walk.items()},
    }
    assert rows["pieri"] == rows["racah-speiser"], _witness(
        f"N = {N}, level-free", p, q, rows
    )
