"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/passes.py --workload NAME --seed N --tmp DIR --mode setup|pass|traced

The process imports girthcover from the checkout's ``src/``, makes the
workload's inputs under DIR (set-up), and in ``pass`` / ``traced`` mode runs
the timed pass: the same public calls, in the same order, as the CLI command
the workload stands for, followed by the golden output checks.  It prints one
JSON object as its last line of output.

``python3 perfbench/passes.py --record`` recomputes the values in
golden.json that are not fixed by the paper (the decompose-c6 part counts per
input and the build-h11 edge hash); use it only for a deliberate change of
output, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# decompose-c6 input: a random 64-regular graph on 2000 vertices.
DECOMPOSE_N = 2000
DECOMPOSE_D = 64


def random_regular_edges(n: int, d: int, seed: int) -> list[tuple[int, int]]:
    """Sorted edges of a random simple d-regular graph on n vertices.

    Configuration model: shuffle the n*d half-edges and pair them up, then
    remove loops and repeated pairs by random double-edge swaps, which keep
    every degree.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = [(a, b) if a <= b else (b, a) for a, b in zip(stubs[0::2], stubs[1::2])]
    count = Counter(edges)

    def is_bad(e):
        return e[0] == e[1] or count[e] > 1

    bad = [i for i, e in enumerate(edges) if is_bad(e)]
    while bad:
        i = bad.pop()
        while is_bad(edges[i]):
            j = rng.randrange(len(edges))
            (a, b), (c, x) = edges[i], edges[j]
            if rng.random() < 0.5:
                c, x = x, c
            e1 = (a, c) if a <= c else (c, a)
            e2 = (b, x) if b <= x else (x, b)
            if i == j or a == c or b == x or e1 == e2 or count[e1] or count[e2]:
                continue
            count[edges[i]] -= 1
            count[edges[j]] -= 1
            count[e1] += 1
            count[e2] += 1
            edges[i], edges[j] = e1, e2
        if not bad:
            bad = [k for k, e in enumerate(edges) if is_bad(e)]
    edges.sort()
    degree = Counter(itertools.chain.from_iterable(edges))
    if len(degree) != n or set(degree.values()) != {d}:
        raise RuntimeError("random regular graph generator broke regularity")
    return edges


def edge_sha256(g) -> str:
    """SHA-256 of the sorted edge list (u < v) as little-endian int64 pairs."""
    import numpy as np

    flat = np.fromiter(itertools.chain.from_iterable(g.edges()), dtype="<i8", count=2 * g.m)
    return hashlib.sha256(flat.tobytes()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def decompose_input_seed(seed: int, golden: dict) -> int:
    """The benchmark seed picks one of the inputs whose counts are recorded."""
    return seed % len(golden["decompose-c6"]["by_input"])


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def eq(self, name, got, want):
        self.items.append((name, got == want, f"got {got!r}, want {want!r}"))

    def true(self, name, got):
        self.items.append((name, bool(got), f"got {got!r}"))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)


# ---------------------------------------------------------------------------
# Workloads.  ``setup_*`` runs before the clock starts and returns the state
# the pass needs; ``pass_*`` runs the timed calls, fills ``checks`` and
# returns the planned part count (1 for a single-graph workload).


def setup_girth_warmup(gc, seed, tmp, golden):
    # The first girth call is where a JIT backend would compile; keep that
    # out of the timed pass.
    gc.cycle_graph(5).girth()
    return None


def pass_certify_q11(gc, state, seed, tmp, golden, checks):
    want = golden["certify-q11"]
    plg = gc.build_quadrangle(11)
    g = plg.graph
    seed_graph = gc.SeedGraph.certify(g)
    checks.eq("n", g.n, want["n"])
    checks.eq("m", g.m, want["m"])
    checks.eq("degrees", {g.degree(v) for v in range(g.n)}, {want["degree"]})
    side = g.side
    checks.true("bipartite", side is not None
                and sum(side) == g.n // 2
                and all(side[u] != side[v] for u, v in g.edges()))
    checks.eq("girth", seed_graph.girth, want["girth"])
    return 1


def pass_cover_k500(gc, state, seed, tmp, golden, checks):
    want = golden["cover-k500"]
    ep, plan = gc.cover_complete(500, 8)
    path = gc.write_manifest(ep, os.path.join(tmp, "cover"))
    back = gc.read_manifest(path)
    report = gc.verify_partition(back, girth_target=8)
    checks.eq("planned", plan.total_parts, want["planned"])
    checks.eq("nonempty", len(ep.parts), want["nonempty"])
    checks.eq("parts read back", len(back.parts), want["nonempty"])
    checks.eq("host", (back.host.kind, back.host.n), ("complete", 500))
    checks.eq("certificates", len(report.checks), want["nonempty"])
    checks.true("exact", report.exact)
    checks.true("verified", report.passed)
    return plan.total_parts


def setup_decompose_c6(gc, seed, tmp, golden):
    edges = random_regular_edges(DECOMPOSE_N, DECOMPOSE_D, decompose_input_seed(seed, golden))
    path = os.path.join(tmp, "input.edges")
    with open(path, "w") as fh:
        fh.write(f"{DECOMPOSE_N} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    return path


def run_decompose_c6(gc, path, seed, tmp, golden):
    g = gc.read_edge_list(path)
    cfg = gc.DecompositionConfig(target_cycle=6, rng_seed=decompose_input_seed(seed, golden))
    result = gc.decompose(g, cfg)
    manifest = gc.write_manifest(result.partition, os.path.join(tmp, "decomposition"))
    back = gc.read_manifest(manifest)
    report = gc.verify_partition(back, forbidden_cycle=6)
    return result, back, report


def pass_decompose_c6(gc, path, seed, tmp, golden, checks):
    want = golden["decompose-c6"]["by_input"][str(decompose_input_seed(seed, golden))]
    result, back, report = run_decompose_c6(gc, path, seed, tmp, golden)
    checks.eq("planned", result.total_parts, want["planned"])
    checks.eq("nonempty", len(result.partition.parts), want["nonempty"])
    checks.eq("parts read back", len(back.parts), want["nonempty"])
    checks.eq("host edges", back.host.edge_count, DECOMPOSE_N * DECOMPOSE_D // 2)
    checks.true("exact", report.exact)
    checks.true("verified", report.passed)
    return result.total_parts


def pass_build_h11(gc, state, seed, tmp, golden, checks):
    from girthcover import cli  # the build-h command's own label writer

    want = golden["build-h11"]
    plg = gc.build_hexagon(11)
    g = plg.graph
    path = os.path.join(tmp, "h11.edges")
    gc.write_edge_list(g, path)
    cli._write_labels(plg, path + ".labels")
    back = gc.read_edge_list(path)
    checks.eq("n", g.n, want["n"])
    checks.eq("m", g.m, want["m"])
    checks.eq("degrees", {g.degree(v) for v in range(g.n)}, {want["degree"]})
    checks.eq("read-back size", (back.n, back.m), (g.n, g.m))
    digest = edge_sha256(g)
    checks.eq("edge hash", digest, want["edge_sha256"])
    checks.eq("read-back edge hash", edge_sha256(back), digest)
    return 1


WORKLOADS = {
    "certify-q11": (setup_girth_warmup, pass_certify_q11),
    "cover-k500": (setup_girth_warmup, pass_cover_k500),
    "decompose-c6": (setup_decompose_c6, pass_decompose_c6),
    "build-h11": (None, pass_build_h11),
}


# ---------------------------------------------------------------------------


def girth_backend() -> str:
    """Which girth kernel runs: the numba dispatcher or the Python loop."""
    from girthcover import _kernels

    scan = _kernels.girth_scan
    if scan is getattr(_kernels, "_girth_scan", None):
        return "python"
    if hasattr(scan, "py_func"):
        return "numba"
    return f"{type(scan).__module__}.{type(scan).__qualname__}"


def versions() -> dict:
    from importlib import metadata

    import numpy

    try:
        numba_version = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba_version,
    }


def child_main(args) -> int:
    out = {"ok": False, "error": None, "checks": []}
    try:
        import girthcover as gc

        golden = load_golden()
        setup, run = WORKLOADS[args.workload]
        state = setup(gc, args.seed, args.tmp, golden) if setup else None
        out["ready"] = time.monotonic()
        out["env"] = {"girth_backend": girth_backend(), **versions()}
        if args.mode != "setup":
            tracer = None
            if args.mode == "traced":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            checks = Checks()
            t0 = time.perf_counter()
            parts_total = run(gc, state, args.seed, args.tmp, golden, checks)
            out["wall_s"] = time.perf_counter() - t0
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["parts_total"] = parts_total
            out["checks"] = checks.items
            if tracer is not None:
                out["layers"] = tracer.report()
                out["spans"] = tracer.spans
            out["ok"] = checks.ok
        else:
            out["ok"] = True
    except Exception:
        out["error"] = traceback.format_exc()
    print(json.dumps(out))
    return 0 if out["ok"] else 1


def record_golden() -> None:
    """Recompute the recorded golden values from the current program."""
    import tempfile

    import girthcover as gc

    golden = load_golden()
    plg = gc.build_hexagon(11)
    golden["build-h11"]["edge_sha256"] = edge_sha256(plg.graph)
    del plg
    by_input = golden["decompose-c6"]["by_input"]
    for key in sorted(by_input, key=int):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            path = setup_decompose_c6(gc, int(key), tmp, golden)
            result, back, report = run_decompose_c6(gc, path, int(key), tmp, golden)
            if not report.passed or len(back.parts) != len(result.partition.parts):
                raise RuntimeError(f"decompose-c6 input {key} did not verify")
            by_input[key] = {"planned": result.total_parts,
                             "nonempty": len(result.partition.parts)}
        print(f"decompose-c6 input {key}: {by_input[key]}", flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tmp")
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), default="pass")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record_golden()
        return 0
    if not args.workload or not args.tmp:
        ap.error("--workload and --tmp are required")
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
