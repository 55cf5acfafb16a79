"""Run the whole girthcover benchmark and print every metric with its unit.

    python3 perfbench/all.py [--seed N] [--out FILE]

Runs every workload of BENCHMARK.json untraced (one run each, of the
declared ``run_seconds``), then traced twice with the same seed, and reports
the tracing overhead as the median traced wall time minus the untraced one.  The two traced runs must give
identical counters (every per-layer metric that is not a time); a counter
that differs is a benchmark defect and makes the exit code non-zero, as does
any failed golden check.  ``--out`` saves the results with their environment
for perfbench/compare.py.  Run from the root of a checkout; it takes about
seven minutes on 2 CPUs without numba.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    env = result = None
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[5:])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, env, result


def show(title: str, result: dict) -> None:
    print(f"  {title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_ratio {result['failed'] / result['attempted']:.3f}")
    for name, m in result["metrics"].items():
        print(f"    {name:40s} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    bad = False
    saved = {"seed": args.seed, "env": None, "results": {}}

    for trace in (0, 1, 1):
        for w in workloads:
            code, env, result = run_once(w, args.seed, spec["run_seconds"], trace)
            bad |= code != 0 or result is None
            slot = saved["results"].setdefault(w, {"untraced": None, "traced": []})
            if trace:
                slot["traced"].append(result)
            else:
                slot["untraced"] = result
            if env is not None:
                env = {k: v for k, v in env.items() if k not in ("workload", "seed")}
                if saved["env"] not in (None, env):
                    print(f"environment changed between runs: {env}", file=sys.stderr)
                    bad = True
                saved["env"] = env

    print("environment:", json.dumps(saved["env"]))
    for w in workloads:
        slot = saved["results"][w]
        print(f"\n{w}")
        if slot["untraced"]:
            show("end to end (untraced)", slot["untraced"])
        first, second = (slot["traced"] + [None, None])[:2]
        if first:
            show("per layer (traced)", first)
        if first and second:
            differ = [n for n in counters
                      if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            for n in differ:
                print(f"  BENCHMARK DEFECT: counter {n} differs between two traced runs: "
                      f"{first['metrics'][n]['value']} vs {second['metrics'][n]['value']}")
            print(f"  counter repeat check: {'FAILED' if differ else 'identical'}"
                  f" ({len(counters)} counters)")
            bad |= bool(differ)
        if first and second and slot["untraced"]:
            traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"]
                                            for r in (first, second))
            slot["overhead_s"] = traced_wall - slot["untraced"]["metrics"]["wall_s"]["value"]
            print(f"  tracing overhead (median traced wall_s - untraced wall_s): "
                  f"{slot['overhead_s']:.6g} s")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(saved, fh, indent=1)
    print("\noverall:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
