"""girthcover benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Run from the root of a checkout; girthcover is imported from its ``src/``.
Every pass and every set-up sample is a fresh single-threaded process
(perfbench/passes.py), started one at a time, so no ``Graph`` cache and no
memory high-water mark carries over between passes.  Each process gets a
fresh directory under ``.perfbench-tmp/`` in the checkout for its edge lists
and manifests, deleted when it exits.

``--trace 0`` takes ``SETUP_SAMPLES`` set-up-only samples, then runs timed
passes back to back until the next one would end after ``--seconds`` (at
least one), and reports the medians of the end-to-end metrics.
``--trace 1`` runs one traced pass and reports its per-layer metrics and
its wall time (``trace.wall_s``; perfbench/all.py subtracts the untraced
``wall_s`` to give the tracing overhead); ``--spans`` also writes the spans
and layer totals to FILE.

The last line of standard output is the result object; the line before it
records the environment, including the girth backend that ran.  Exit code:
0 when every pass passed its golden checks, 1 when one failed or crashed,
2 when the checkout cannot be benchmarked (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")
PASSES = os.path.join(HERE, "passes.py")

SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")}


class CheckoutError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def checkout_commit(root: str) -> str:
    """The commit of a git checkout, read from .git without leaving ``root``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": checkout_commit(ROOT),
    }


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **SINGLE_THREAD)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.child_env = None

    def child(self, mode: str) -> dict:
        """Run one fresh process; returns its report with ``setup_s`` added."""
        os.makedirs(TMP_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=TMP_ROOT)
        cmd = [sys.executable, PASSES, "--workload", self.workload,
               "--seed", str(self.seed), "--tmp", tmp, "--mode", mode]
        try:
            spawned = time.monotonic()
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            proc = None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (AttributeError, IndexError, ValueError):
            tail = "timed out" if proc is None else proc.stderr[-2000:]
            report = {"ok": False, "error": f"no report from pass process: {tail}", "checks": []}
        if "ready" in report:
            report["setup_s"] = report["ready"] - spawned
        if mode != "setup":
            self.attempted += 1
            self.failed += not report["ok"]
        if not report["ok"]:
            self._complain(report)
        if "env" in report:
            if self.child_env not in (None, report["env"]):
                raise CheckoutError(f"pass environments differ: {self.child_env} vs {report['env']}")
            self.child_env = report["env"]
        return report

    def _complain(self, report: dict) -> None:
        print(f"{self.workload}: pass failed", file=sys.stderr)
        for name, ok, detail in report["checks"]:
            if not ok:
                print(f"  check {name!r} failed: {detail}", file=sys.stderr)
        if report.get("error"):
            print(report["error"], file=sys.stderr)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def untraced(run: Runner, seconds: float) -> dict:
    setups = [run.child("setup").get("setup_s") for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run.child("pass"))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or per_pass > run.time_left():
            break
    measured = [p for p in passes if "wall_s" in p]
    if not measured:
        return {}
    setups += [p.get("setup_s") for p in passes]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in measured),
        "setup_s": statistics.median(s for s in setups if s is not None),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
        "parts_total": statistics.median(p["parts_total"] for p in measured),
    }


def traced(run: Runner, names, spans_path) -> dict:
    report = run.child("traced")
    if "layers" not in report:
        return {}
    values = dict(report["layers"])
    host = values.get("rainbow.host_edges", 0)
    values["rainbow.retained_ratio"] = values.get("rainbow.retained_edges", 0) / host if host else 0.0
    values["trace.wall_s"] = report["wall_s"]
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"workload": run.workload, "seed": run.seed,
                       "layers": report["layers"], "spans": report["spans"]}, fh)
    # A layer that does not run on this workload reports 0.
    return {name: values.get(name, 0) for name in names}


def load_spec(workload: str) -> dict:
    if not os.path.isfile(os.path.join(SRC, "girthcover", "__init__.py")):
        raise CheckoutError(f"no girthcover package under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckoutError(f"cannot read BENCHMARK.json: {exc}") from exc
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise CheckoutError(f"unknown workload {workload!r}")
    return spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="traced run: write spans and layer totals here")
    args = ap.parse_args()
    try:
        spec = load_spec(args.workload)
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        run = Runner(args.workload, args.seed)
        if args.trace:
            values = traced(run, [m["name"] for m in metrics], args.spans)
        else:
            values = untraced(run, args.seconds)
    except CheckoutError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    if not values:
        print(f"{args.workload}: no pass produced measurements", file=sys.stderr)
        return 1
    print("env: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                **(run.child_env or {}), **machine()}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
