"""Command-line surface.

Builders write the shared edge-list and partition-manifest formats;
``verify`` re-derives every structural certificate from edge lists alone and
never trusts what a manifest claims.  Exit codes: 0 pass, 1 verified
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import algebraic, bounds, partition, rainbow, randomcover
from .graph import _write_rows, read_edge_list, write_edge_list

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_shift(text: str, count: int) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise ValueError(f"--shift {text!r}: need {count} comma-separated integers")
    return vals


def _write_labels(plg, path) -> None:
    """One "vid P:c1,...,ck" line per point, then one "vid L:..." per line."""
    ids = np.arange(plg.n_side, dtype=np.int64)
    coords = ",".join(["%d"] * plg.arity)
    with open(path, "w") as fh:
        fh.write("# vertex-id class coords\n")
        for offset, kind in ((0, "P"), (plg.n_side, "L")):
            rows = np.column_stack([ids + offset, *algebraic._coords(ids, plg.q, plg.arity)])
            _write_rows(fh, f"%d {kind}:{coords}\n", rows)


def _cmd_build(args) -> int:
    shift = None if args.shift is None else _parse_shift(args.shift, args.shift_count)
    plg = args.build(args.q, shift)
    write_edge_list(plg.graph, args.out)
    _write_labels(plg, args.out + ".labels")
    print(f"{args.kind} q={args.q} shift={plg.shift}: "
          f"{plg.graph.n} vertices, {plg.graph.m} edges -> {args.out}")
    return EXIT_PASS


def _cmd_partition_bipartite(args) -> int:
    ep = partition.partition_bipartite_exact(args.q, args.arity)
    path = partition.write_manifest(ep, args.out)
    print(f"partitioned K_{{{ep.host.a},{ep.host.b}}} into {len(ep.parts)} parts -> {path}")
    return EXIT_PASS


def _cmd_cover_complete(args) -> int:
    ep, plan = partition.cover_complete(args.n, args.girth)
    path = partition.write_manifest(ep, args.out)
    print(f"covered K_{args.n} with girth-{args.girth} parts")
    print(f"  planned parts: {plan.total_parts}  nonempty: {len(ep.parts)}")
    for lv in plan.levels:
        print(f"  level {lv.level}: block {lv.block_size}, prime {lv.prime}, {lv.parts} parts")
    print(f"  manifest: {path}")
    return EXIT_PASS


def _cmd_decompose(args) -> int:
    g = read_edge_list(args.input)
    cfg = rainbow.DecompositionConfig(
        target_cycle=args.cycle,
        color_multiplier=args.multiplier,
        retention=args.retention,
        rng_seed=args.seed,
    )
    t0 = time.time()
    result = rainbow.decompose(g, cfg)
    path = partition.write_manifest(result.partition, args.out)
    report = {
        "input": args.input,
        "target_cycle": args.cycle,
        "rng_seed": args.seed,
        "color_multiplier": args.multiplier,
        "retention": args.retention,
        "threshold": result.threshold,
        "rounds": len(result.rounds),
        "planned_parts": result.total_parts,
        "nonempty_parts": len(result.partition.parts),
        "wall_clock_s": round(time.time() - t0, 3),
    }
    print(json.dumps(report, indent=2))
    print(f"manifest: {path}")
    return EXIT_PASS


def _cmd_random_cover(args) -> int:
    seed = None
    if args.seed_graph:
        seed = randomcover.SeedGraph.certify(read_edge_list(args.seed_graph))
    outcome = randomcover.cover_for_cycle(args.n, args.k, args.C, args.seed, seed=seed)
    report = {
        "n": args.n,
        "k": args.k,
        "C": args.C,
        "rng_seed": args.seed,
        "copies": outcome.copy_count,
        "seed_girth": str(outcome.seed_girth),
        "success": outcome.success,
        "uncovered_pairs": len(outcome.uncovered),
    }
    print(json.dumps(report, indent=2))
    if not outcome.success:
        print("cover failed; retry with a different --seed")
        return EXIT_FAIL
    if args.out:
        path = partition.write_manifest(outcome.to_partition(), args.out)
        print(f"manifest: {path}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    ep = partition.read_manifest(args.manifest)
    t0 = time.time()
    report = partition.verify_partition(
        ep, girth_target=args.girth, forbidden_cycle=args.cycle
    )
    failed = [c for c in report.checks if not c.passed]
    print(f"host: {report.host.kind} n={report.host.n} "
          f"({report.host.edge_count} edges, {len(ep.parts)} parts)")
    print(f"exactness: {'PASS' if report.exact else 'FAIL'}")
    print(f"certificates: {len(report.checks) - len(failed)}/{len(report.checks)} pass")
    for c in failed[:20]:
        print(f"  FAIL {c.name}: {c.claim}")
    print(f"wall clock: {time.time() - t0:.2f}s")
    print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_bounds(args) -> int:
    exp = bounds.lower_bound_exponent(args.k)
    print(f"k={args.k}: 2k-cycle degree Ramsey lower bound exponent = {exp} "
          f"(order (s/log s)^{exp})")
    tight = bounds.tight_exponent(args.k)
    if tight is not None:
        print(f"  tight order known for k={args.k}: Theta(s^{tight})")
    if args.ck is not None:
        ub = bounds.upper_bound(args.k, args.s, args.ck)
        print(f"  upper bound at s={args.s}, c_k={args.ck}: {ub}")
    else:
        print("  upper bound: supply --ck (the even-cycle Turan constant) to evaluate")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="girthcover",
        description="High-girth graph construction, complete-graph partition, "
        "even-cycle-free decomposition, and exact verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-q", help="build a (shifted) girth-8 quadrangle graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--shift", help="a2,a3", default=None)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_build, build=algebraic.build_quadrangle, kind="quadrangle",
                   shift_count=2)

    p = sub.add_parser("build-h", help="build a (shifted) girth-12 hexagon graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--shift", help="b2,b3,b4,b5", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build, build=algebraic.build_hexagon, kind="hexagon",
                   shift_count=4)

    p = sub.add_parser("partition-bipartite", help="exact partition of the complete bipartite host")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--arity", type=int, choices=(3, 5), required=True)
    p.add_argument("--out", required=True, help="manifest output directory")
    p.set_defaults(func=_cmd_partition_bipartite)

    p = sub.add_parser("cover-complete", help="partition K_n into high-girth parts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--girth", type=int, choices=(8, 12), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cover_complete)

    p = sub.add_parser("decompose", help="partition a graph into C_{2k}-free classes")
    p.add_argument("--input", required=True, help="edge-list file")
    p.add_argument("--cycle", type=int, choices=(6, 10), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multiplier", type=int, default=200)
    p.add_argument("--retention", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("random-cover", help="cover K_n with permuted high-girth seed copies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed-graph", default=None, help="edge-list file for an explicit seed")
    p.add_argument("--C", type=float, default=9.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_random_cover)

    p = sub.add_parser("verify", help="re-verify a partition manifest from scratch")
    p.add_argument("--manifest", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cycle", type=int, help="require every part C_{2k}-free")
    group.add_argument("--girth", type=int, help="require every part girth >= G")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="closed-form degree Ramsey bound calculators")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--ck", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    return ap


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
