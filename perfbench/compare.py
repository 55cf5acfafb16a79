"""Compare two saved benchmark results (from ``perfbench/all.py --out``).

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two were taken with different girth backends:
the numba kernel and the Python fallback differ by orders of magnitude, so
such a comparison says nothing about the change.  Otherwise prints, per
workload, every end-to-end metric of both sides and the relative change.
One untraced run per side is a single sample: a claimed gain needs the
repeated, alternating runs that the README describes.
"""

from __future__ import annotations

import json
import sys


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(path) for path in argv)
    backends = [side["env"]["girth_backend"] for side in (base, new)]
    if backends[0] != backends[1]:
        print(f"refusing to compare: girth backend {backends[0]!r} vs {backends[1]!r}",
              file=sys.stderr)
        return 2
    for key in ("cpu_model", "nproc"):
        if base["env"][key] != new["env"][key]:
            print(f"warning: {key} differs: {base['env'][key]!r} vs {new['env'][key]!r}")
    for workload, slot in base["results"].items():
        other = new["results"].get(workload, {}).get("untraced")
        if not slot["untraced"] or not other:
            print(f"{workload}: missing on one side")
            continue
        print(workload)
        for name, m in slot["untraced"]["metrics"].items():
            a, b = m["value"], other["metrics"][name]["value"]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:14s} {a:>14.6g} {b:>14.6g} {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
