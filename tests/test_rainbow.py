import hashlib
import math
import random

import pytest

from girthcover.graph import Graph, is_locally_injective_hom
from girthcover.partition import CompleteCoverLocator, cover_complete
from girthcover.rainbow import (
    DecompositionConfig,
    RainbowRetentionError,
    _try_rainbow,
    check_rainbow_coloring,
    decompose,
    default_threshold,
    pullback_partition,
    rainbow_color,
)
from conftest import complete_graph, path_graph, random_regular


def test_default_threshold():
    assert default_threshold(1) == 2
    assert default_threshold(2) == 2
    assert default_threshold(64) == math.ceil(math.log(64) ** 2)


def test_config_validation():
    with pytest.raises(ValueError):
        DecompositionConfig(target_cycle=8)
    with pytest.raises(ValueError):
        DecompositionConfig(retention=1.5)
    with pytest.raises(ValueError):
        DecompositionConfig(color_multiplier=0)
    with pytest.raises(ValueError):
        DecompositionConfig(max_retries=0)


def test_rainbow_single_edge_rejected():
    # max degree 1 is below the algorithm's floor
    with pytest.raises(ValueError):
        rainbow_color(path_graph(2), DecompositionConfig())


def test_rainbow_star():
    # only constraint is injectivity at the center; full retention expected
    # with a 200*d palette
    d = 8
    star = Graph(d + 1, [(0, i) for i in range(1, d + 1)])
    cfg = DecompositionConfig(rng_seed=11)
    rc = rainbow_color(star, cfg)
    check_rainbow_coloring(rc, cfg)
    assert rc.retained.m >= math.ceil(0.1 * d)


def test_rainbow_regular_invariants():
    cfg = DecompositionConfig(rng_seed=5)
    for seed in (0, 1):
        g = random_regular(400, 16, seed)
        rc = rainbow_color(g, cfg)
        check_rainbow_coloring(rc, cfg)
        assert rc.palette_size == 200 * 16


def scalar_rainbow_pruning(g, palette, rng):
    """The pruning one neighborhood at a time: draw the colors, drop
    monochromatic edges, and drop every edge whose end is not the lowest
    neighbor of its color at the other end."""
    color = [rng.randrange(palette) for _ in range(g.n)]
    proper = [(u, v) for u, v in g.edges() if color[u] != color[v]]
    nbrs = [[] for _ in range(g.n)]
    for u, v in proper:
        nbrs[u].append(v)
        nbrs[v].append(u)
    lowest = [{} for _ in range(g.n)]
    for v in range(g.n):
        for w in nbrs[v]:
            lowest[v][color[w]] = min(w, lowest[v].get(color[w], w))
    kept = [(u, v) for u, v in proper if lowest[u][color[v]] == v and lowest[v][color[u]] == u]
    return color, kept


def test_rainbow_pruning_matches_scalar_reference():
    # Small palettes force repeated colors; n > 512 crosses a row block.
    graphs = [random_regular(1200, 6, seed=1), random_regular(100, 16, seed=2), Graph(5, [])]
    for g in graphs:
        for palette, seed in [(3, 0), (7, 1), (40, 2), (1000, 3)]:
            color, kept = _try_rainbow(g, palette, random.Random(seed))
            want_color, want_kept = scalar_rainbow_pruning(g, palette, random.Random(seed))
            assert color == want_color
            assert kept.tolist() == [list(e) for e in want_kept]


def test_rainbow_retention_failure_surfaced():
    # palette of size max-degree on a clique cannot keep 90% everywhere
    g = complete_graph(6)
    cfg = DecompositionConfig(color_multiplier=1, retention=0.9, max_retries=5, rng_seed=0)
    with pytest.raises(RainbowRetentionError) as exc:
        rainbow_color(g, cfg)
    assert 0 <= exc.value.worst_ratio < 0.9


def test_retention_failure_in_decompose_carries_completed_rounds():
    g = random_regular(60, 32, seed=1)
    cfg = DecompositionConfig(color_multiplier=1, retention=0.06, max_retries=1, rng_seed=4)
    with pytest.raises(RainbowRetentionError) as exc:
        decompose(g, cfg)
    assert [log.round_index for log in exc.value.rounds] == [1]
    assert exc.value.rounds[0].max_degree_before == 32
    outside = RainbowRetentionError(worst_vertex=0, worst_ratio=0.0, retries=1)
    assert outside.rounds == []


def test_pullback_empty_retained():
    from girthcover.rainbow import RainbowColoring

    g = Graph(4, [(0, 1)])
    rc = RainbowColoring(host=g, retained=Graph(4, []), color=[0, 1, 2, 3], palette_size=16)
    ep = pullback_partition(rc, CompleteCoverLocator(16, 8), 6)
    assert ep.parts == []


def test_pullback_hom_certificate():
    # the color map restricted to each class must be a locally injective
    # homomorphism into its palette part; girth transfers
    g = random_regular(120, 4, seed=3)
    cfg = DecompositionConfig(rng_seed=9)
    rc = rainbow_color(g, cfg)
    palette_ep, _ = cover_complete(rc.palette_size, 8)
    pulled = pullback_partition(rc, CompleteCoverLocator(rc.palette_size, 8), 6)
    assert pulled.is_exact()
    by_name = {p.name: p for p in palette_ep.parts}
    for part in pulled.parts:
        h_i = Graph(g.n, part.edges)
        g_i = by_name[part.name.removeprefix("pull_")].graph(rc.palette_size)
        assert is_locally_injective_hom(h_i, g_i, rc.color)
        assert h_i.girth() >= g_i.girth()
        assert not h_i.has_cycle_of_length(6)


def test_pullback_size_mismatch():
    from girthcover.rainbow import RainbowColoring

    g = Graph(2, [(0, 1)])
    rc = RainbowColoring(host=g, retained=g, color=[0, 1], palette_size=16)
    with pytest.raises(ValueError):
        pullback_partition(rc, CompleteCoverLocator(20, 8), 6)


def test_pullback_degree_sum_preserved():
    g = random_regular(200, 8, seed=7)
    cfg = DecompositionConfig(rng_seed=2)
    rc = rainbow_color(g, cfg)
    pulled = pullback_partition(rc, CompleteCoverLocator(rc.palette_size, 8), 6)
    deg = [0] * g.n
    for part in pulled.parts:
        for u, v in part.edges:
            deg[u] += 1
            deg[v] += 1
    for v in range(g.n):
        assert deg[v] == rc.retained.degree(v)
        assert deg[v] >= cfg.retention * g.degree(v)


def test_decompose_forest_input():
    t = path_graph(30)
    res = decompose(t, DecompositionConfig())
    assert res.partition.is_exact()
    assert len(res.partition.parts) == 1
    assert res.rounds == []


def test_decompose_k10():
    res = decompose(complete_graph(10), DecompositionConfig(rng_seed=1))
    assert res.partition.is_exact()
    for part in res.partition.parts:
        assert not Graph(10, part.edges).has_cycle_of_length(6)
    assert sum(len(p.edges) for p in res.partition.parts) == 45


def test_decompose_random_c6():
    g = random_regular(300, 16, seed=4)
    res = decompose(g, DecompositionConfig(rng_seed=4))
    assert res.partition.is_exact()
    for part in res.partition.parts:
        assert not Graph(g.n, part.edges).has_cycle_of_length(6)
    # degree decay: each round removes at least the retained fraction
    for log in res.rounds:
        if log.palette_size:
            assert log.max_degree_after <= math.ceil(0.9 * log.max_degree_before)


def test_decompose_c10_small():
    g = random_regular(200, 12, seed=8)
    res = decompose(g, DecompositionConfig(target_cycle=10, rng_seed=8))
    assert res.partition.is_exact()
    for part in res.partition.parts:
        assert not Graph(g.n, part.edges).has_cycle_of_length(10)


def test_decompose_round_log_consistent():
    g = random_regular(300, 16, seed=12)
    res = decompose(g, DecompositionConfig(rng_seed=12))
    planned = sum(r.forest_parts + r.palette_parts_planned for r in res.rounds)
    # final forests may add more beyond the per-round numbers
    assert res.total_parts >= planned
    assert res.threshold == default_threshold(16)


# Recorded before the graph core moved to CSR arrays: part names, ordered
# edges, claims, round logs and counts of seeded decompositions must not change.
DECOMPOSE_SHA256 = {
    (300, 24, 1): "8afc8acc3e72b148220834457c936f794836934775142d3fdc2b63c4a574a4de",
    (600, 40, 2): "c71083db01628d20fc5d8e3e55de7e73600ab3dedf3755c9bdbda3ce964d60b1",
}


@pytest.mark.parametrize("key", sorted(DECOMPOSE_SHA256))
def test_decompose_matches_recorded_hash(key):
    n, d, seed = key
    res = decompose(random_regular(n, d, seed), DecompositionConfig(target_cycle=6, rng_seed=seed))
    h = hashlib.sha256()
    for part in res.partition.parts:
        edges = list(map(tuple, part.edges.tolist()))
        h.update(f"{part.name}:{edges}:{part.forbidden_cycle}\n".encode())
    for log in res.rounds:
        h.update(f"{log!r}\n".encode())
    h.update(f"{res.total_parts} {res.threshold}\n".encode())
    assert h.hexdigest() == DECOMPOSE_SHA256[key]
