"""Command-line front end: parsing, dispatch, rendering, table cache.

Operand grammar (three bracket styles, so kinds cannot be confused):
partitions ``[3,2,1]`` (empty ``[]``), weights ``{1,1}``, orbit
representatives ``(2,1,0)``.  Expansions render as ``mult*label`` terms
sorted by graded lexicographic key, or as ``fusionkit/expansion/v1`` JSON.
Exit status: 0 success; 1 computational mismatch or internal invariant
failure; 2 usage or parse error, a ``table --out`` file that cannot be
written, or a standard output closed before all of it is written (as
``| head`` does).  ``table`` reads and writes a cached table only in the
directory that ``--cache-dir`` names; without it, no cache file is read or
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import duality as duality_mod
from . import fusion, orbits, weyl
from .partitions import (
    count_cylindric_tableaux,
    fusion_context,
    normalize,
    orbit_to_partition,
    partition_to_orbit,
    partition_to_weight,
    reduce_full_columns,
    weight_to_partition,
)


def _parse_int_list(text: str, open_ch: str, close_ch: str, what: str) -> tuple:
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ValueError(
            f"expected {what} like {open_ch}3,2,1{close_ch}, got {text!r}"
        )
    body = text[1:-1].strip()
    if not body:
        return ()
    out = []
    for token in body.split(","):
        token = token.strip()
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"bad integer {token!r} in {what} {text!r}") from None
    return tuple(out)


def parse_partition(text: str) -> tuple:
    return normalize(_parse_int_list(text, "[", "]", "a partition"))


def parse_weight(text: str) -> tuple:
    return _parse_int_list(text, "{", "}", "a weight")


def parse_orbit(text: str) -> tuple:
    return _parse_int_list(text, "(", ")", "an orbit tuple")


def parse_content(text: str) -> tuple:
    return _parse_int_list(text, "[", "]", "a content sequence")


def _operand_to_partition(text: str, ctx) -> tuple:
    """Resolve a partition or weight operand to a canonical basis label."""
    N, k = ctx
    text = text.strip()
    if text.startswith("["):
        p = parse_partition(text)
        if len(p) > N:
            raise ValueError(f"partition {text!r} has more than {N} rows")
        p = reduce_full_columns(p, N)
    elif text.startswith("{"):
        w = parse_weight(text)
        if len(w) != N - 1:
            raise ValueError(
                f"weight {text!r} needs {N - 1} coefficients for N = {N}"
            )
        p = weight_to_partition(w)
    else:
        raise ValueError(
            f"operand {text!r} is neither a partition [..] nor a weight {{..}}"
        )
    if p and p[0] > k:
        raise ValueError(f"operand {text!r} exceeds level {k}")
    return p


def fmt_partition(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def fmt_weight(w) -> str:
    return "{" + ",".join(map(str, w)) + "}"


def fmt_orbit(o) -> str:
    return "(" + ",".join(map(str, o)) + ")"


_FORMATTERS = {"partition": fmt_partition, "weight": fmt_weight, "orbit": fmt_orbit}


def _sorted_terms(expansion) -> list:
    return sorted(expansion.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def render_text(expansion, kind: str) -> str:
    fmt = _FORMATTERS[kind]
    terms = _sorted_terms(expansion)
    if not terms:
        return "0"
    return " + ".join(f"{mult}*{fmt(label)}" for label, mult in terms)


def expansion_json(expansion, kind: str) -> dict:
    return {
        "schema": "fusionkit/expansion/v1",
        "kind": kind,
        "terms": [
            {"label": list(label), "mult": mult}
            for label, mult in _sorted_terms(expansion)
        ],
    }


def _emit(args, expansion, kind: str) -> None:
    if args.format == "json":
        print(json.dumps(expansion_json(expansion, kind)))
    else:
        print(render_text(expansion, kind))


# -- subcommands ---------------------------------------------------------------


def _cmd_fuse(args) -> int:
    ctx = fusion_context(args.N, args.k)
    N, k = ctx
    lhs = _operand_to_partition(args.lhs, ctx)
    rhs = _operand_to_partition(args.rhs, ctx)

    def by_method(name):
        if name == "jacobi-trudi":
            return fusion.multiply(lhs, rhs, ctx)
        if name == "orbit":
            prod = orbits.fixed_product(
                partition_to_orbit(lhs, ctx), partition_to_orbit(rhs, ctx), ctx
            )
            return {orbit_to_partition(o): m for o, m in prod.items()}
        prod = weyl.kac_walton_fusion(
            partition_to_weight(lhs, N), partition_to_weight(rhs, N), ctx
        )
        return {weight_to_partition(w): m for w, m in prod.items()}

    if args.method != "all":
        _emit(args, by_method(args.method), "partition")
        return 0

    names = ("jacobi-trudi", "orbit", "kac-walton")
    results = {name: by_method(name) for name in names}
    agree = len({tuple(_sorted_terms(r)) for r in results.values()}) == 1
    if args.format == "json":
        doc = expansion_json(results["jacobi-trudi"], "partition")
        doc["methods"] = {
            name: expansion_json(r, "partition")["terms"]
            for name, r in results.items()
        }
        doc["agree"] = agree
        print(json.dumps(doc))
    else:
        for name in names:
            print(f"{name}: {render_text(results[name], 'partition')}")
        print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_tensor(args) -> int:
    N = args.N
    big = fusion_context(N, 10**9)  # level bound never binds for tensor operands
    lhs = _operand_to_partition(args.lhs, big)
    rhs = _operand_to_partition(args.rhs, big)
    if args.method == "pieri":
        result = fusion.tensor_multiply(lhs, rhs, N)
    else:
        prod = weyl.racah_speiser_tensor(
            partition_to_weight(lhs, N), partition_to_weight(rhs, N), N
        )
        result = {weight_to_partition(w): m for w, m in prod.items()}
    _emit(args, result, "partition")
    return 0


def _cmd_orbit_product(args) -> int:
    ctx = fusion_context(args.N, args.k)
    N = ctx.N
    a, b = parse_orbit(args.a), parse_orbit(args.b)
    a, b = orbits.standard_form(a, N), orbits.standard_form(b, N)
    product = orbits.fixed_product if args.fixed else orbits.raw_orbit_product
    _emit(args, product(a, b, ctx), "orbit")
    return 0


def _cmd_kostka(args) -> int:
    ctx = fusion_context(args.N, args.k)
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner)
    content = parse_content(args.content)
    print(count_cylindric_tableaux(outer, inner, content, ctx))
    return 0


def _cmd_weights(args) -> int:
    N = args.N
    if N < 2:
        raise ValueError(f"--N must be >= 2, got {N}")
    lam = parse_weight(args.lam)
    if len(lam) != N - 1:
        raise ValueError(f"weight needs {N - 1} coefficients for N = {N}")
    mults = weyl.weight_multiplicities(lam, N)
    _emit(args, mults, "weight")
    return 0


# -- table cache ---------------------------------------------------------------


def cache_lookup(path: str, N: int, k: int):
    """Load a cached table; any problem warns and returns None (recompute)."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        table = fusion.FusionTable.from_json_dict(data)
        if table.N != N or table.k != k:
            raise ValueError(f"cached table is for N={table.N}, k={table.k}")
        if list(table.basis) != fusion.basis((N, k)):
            raise ValueError("cached basis differs from the canonical basis")
        return table
    except (OSError, ValueError, LookupError, TypeError, RecursionError) as exc:
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        return None


def cache_store(path: str, text: str) -> None:
    """Atomic write of the table's JSON text: a temp file beside path, then rename.

    A failure warns and leaves the cache as it was; the table is still used.
    """
    import tempfile  # only a cache miss writes; kept out of start-up

    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".table_", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"warning: cannot store cache {path}: {exc}", file=sys.stderr)
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _cmd_table(args) -> int:
    ctx = fusion_context(args.N, args.k)
    N, k = ctx
    path = table = text = None  # text: the table's JSON, built at most once
    if args.cache_dir:
        path = os.path.join(args.cache_dir, f"table_N{N}_k{k}.json")
        table = cache_lookup(path, N, k)
    if table is None:
        table = fusion.full_table(ctx)
        if path:
            text = json.dumps(table.to_json_dict())
            cache_store(path, text)
    if text is None and (args.out or args.format == "json"):
        text = json.dumps(table.to_json_dict())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write --out {args.out}: {reason}", file=sys.stderr)
            return 2
    status = 0
    if args.format == "json":
        print(text)
    else:
        print(f"fusion table N={N} k={k}: {len(table.basis)} basis elements")
    if args.verify_axioms:
        report = fusion.verify_fusion_axioms(table)
        for name, passed, witness in report.checks:
            line = f"{'PASS' if passed else 'FAIL'} {name}"
            if not passed and witness is not None:
                line += f" witness={witness}"
            print(line)
        if not report.ok:
            status = 1
    return status


def _cmd_duality(args) -> int:
    N, k = args.N, args.k
    report = duality_mod.verify_rank_level_duality(N, k)
    if args.format == "json":
        print(json.dumps({"schema": "fusionkit/duality/v1", **report}))
    else:
        verdict = "isomorphic" if report["isomorphic"] else "NOT isomorphic"
        print(
            f"rank-level duality N={N} k={k}: {report['classes']} classes, {verdict}"
        )
        if report["witness"]:
            print(f"witness: {report['witness']}")
    return 0 if report["isomorphic"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Fusion products, tensor products, orbit arithmetic, "
        "and rank-level duality for type-A affine Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("fuse", help="fusion product of two level-k labels")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lhs", required=True, help="partition [..] or weight {..}")
    p.add_argument("--rhs", required=True)
    p.add_argument(
        "--method",
        choices=("jacobi-trudi", "orbit", "kac-walton", "all"),
        default="jacobi-trudi",
    )
    add_format(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--method", choices=("pieri", "racah-speiser"), default="pieri")
    add_format(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("orbit-product", help="raw or fixed product of two orbits")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", required=True, help="orbit tuple (2,1,0)")
    p.add_argument("--b", required=True)
    p.add_argument("--fixed", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_orbit_product)

    p = sub.add_parser("kostka", help="fusion skew Kostka number")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--content", required=True)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("weights", help="weight multiplicities of a module")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="weight {..}")
    add_format(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("table", help="build a fusion table; --cache-dir caches it")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="also write the table JSON to this path")
    p.add_argument("--verify-axioms", action="store_true")
    p.add_argument("--cache-dir", help="read and write the table cache here")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("duality", help="rank-level duality report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_duality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # an internal invariant failed (a negative multiplicity)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the flush at exit would fail again; point stdout at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    entry()
