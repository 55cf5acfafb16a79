"""The benchmark's golden checks, run in tier-1: its graph hash through
``Graph.edges()``, and the recorded ``decompose-c6`` part counts of every
input, so that a change to either fails here rather than only in a
benchmark run."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import girthcover
from girthcover.graph import Graph

PASSES = Path(__file__).resolve().parents[1] / "perfbench" / "passes.py"


spec = importlib.util.spec_from_file_location("perfbench_passes", PASSES)
passes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(passes)
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
