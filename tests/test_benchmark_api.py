"""The benchmark's golden checks, run in tier-1: its graph hash through
``Graph.edges()``, the recorded ``decompose-c6`` part counts of every
input, and one traced pass of every workload, so that a change to any of
them fails here rather than only in a benchmark run."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import girthcover
from girthcover.graph import Graph

ROOT = Path(__file__).resolve().parents[1]
PASSES = ROOT / "perfbench" / "passes.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


passes = load("perfbench_passes", PASSES)
tracer = load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
GOLDEN = passes.load_golden()


def test_edge_hash_matches_sorted_pair_array():
    # More edges than one block of Graph.edges, and ids beyond the small-int cache.
    rng = np.random.default_rng(5)
    u, v = np.triu_indices(400, 1)
    keep = rng.random(len(u)) < 0.3
    g = Graph(400, np.stack([v[keep], u[keep]], axis=1))
    assert g.m > 20_000
    want = hashlib.sha256(g._pairs().astype("<i8").tobytes()).hexdigest()
    assert passes.edge_sha256(g) == want
    edges = list(g.edges())
    assert edges == list(map(tuple, g._pairs().tolist()))
    assert {type(x) for e in edges for x in e} == {int}
    assert passes.edge_sha256(Graph(3, [])) == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN["decompose-c6"]["by_input"], key=int))
def test_decompose_c6_golden_counts(tmp_path, key):
    path = passes.setup_decompose_c6(girthcover, int(key), str(tmp_path), GOLDEN)
    result, back, report = passes.run_decompose_c6(girthcover, path, int(key), str(tmp_path), GOLDEN)
    counts = {"planned": result.total_parts, "nonempty": len(result.partition.parts)}
    assert counts == GOLDEN["decompose-c6"]["by_input"][key]
    assert len(back.parts) == counts["nonempty"] and report.passed


@pytest.mark.parametrize("workload", sorted(passes.WORKLOADS))
def test_traced_pass(tmp_path, workload):
    # The tracer's counters read library results (round logs, retained
    # subgraphs), so a change to what they read fails here.
    argv = [sys.executable, str(PASSES), "--workload", workload, "--seed", "0",
            "--tmp", str(tmp_path), "--mode", "traced"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0 and out["ok"], out["error"] or out["checks"]
    assert [layer for layer, *_ in tracer.TARGETS if f"{layer}.calls" not in out["layers"]] == []
