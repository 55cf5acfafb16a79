import hashlib
import math
import random

import networkx as nx
import pytest

from girthcover import rainbow
from girthcover.graph import Graph
from girthcover.partition import CompleteCoverLocator, cover_complete
from girthcover.rainbow import (
    DecompositionConfig,
    RainbowRetentionError,
    RoundLog,
    _try_rainbow,
    decompose,
    default_threshold,
    pullback_partition,
    rainbow_color,
)
from conftest import (
    check_rainbow_coloring,
    complete_graph,
    is_locally_injective_hom,
    path_graph,
    random_regular,
    skewed_graph,
)


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


def test_rainbow_single_edge_rejected():
    # max degree 1 is below the algorithm's floor
    with pytest.raises(ValueError):
        rainbow_color(path_graph(2), DecompositionConfig())


def test_rainbow_refuses_palette_too_large_for_keys():
    # K_4 on 0..3 plus the path 3-4-5-2: n = 6, max degree 4, so the keys
    # vertex * palette + colour fit in int64 iff 6 * 4 * multiplier <= 2**63
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 5)])
    largest = 2**63 // 24
    for multiplier in (largest + 1, 10**18, 10**19):
        with pytest.raises(ValueError, match="too large for int64 keys"):
            rainbow_color(g, DecompositionConfig(color_multiplier=multiplier))
    for multiplier in (largest, 10**17):
        cfg = DecompositionConfig(color_multiplier=multiplier)
        check_rainbow_coloring(rainbow_color(g, cfg), cfg)


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


def test_rainbow_retention_failure_surfaced(monkeypatch):
    # palette of size max-degree on a clique cannot keep 90% everywhere
    monkeypatch.setattr(rainbow, "_MAX_RETRIES", 5)
    g = complete_graph(6)
    cfg = DecompositionConfig(color_multiplier=1, retention=0.9, rng_seed=0)
    with pytest.raises(RainbowRetentionError) as exc:
        rainbow_color(g, cfg)
    assert 0 <= exc.value.worst_ratio < 0.9 and exc.value.retries == 5


def test_retention_error_names_the_worst_vertex_of_every_try():
    # The 20 tries replayed by the scalar pruning: the error reports the
    # lowest kept/degree ratio over all of them, ties to the smallest id.
    g = random_regular(100, 16, seed=3)
    cfg = DecompositionConfig(color_multiplier=1, retention=0.9)
    with pytest.raises(RainbowRetentionError) as exc:
        rainbow_color(g, cfg)
    ratios = []
    for retry in range(rainbow._MAX_RETRIES):
        _, kept = scalar_rainbow_pruning(g, 16, random.Random(cfg.rng_seed * 1_000_003 + retry))
        kept_degree = [0] * g.n
        for u, v in kept:
            kept_degree[u] += 1
            kept_degree[v] += 1
        ratios += [(kept_degree[v] / g.degree(v), v) for v in range(g.n)]
    worst_ratio, worst_vertex = min(ratios)
    assert (exc.value.worst_vertex, exc.value.worst_ratio) == (worst_vertex, worst_ratio)
    assert f"worst vertex {worst_vertex} kept only {worst_ratio:.3f}" in str(exc.value)


def test_retention_failure_in_decompose_carries_completed_rounds(monkeypatch):
    # One try per round, so round 2 draws its colours from seed 4 + 1.
    monkeypatch.setattr(rainbow, "_MAX_RETRIES", 1)
    g = random_regular(60, 32, seed=1)
    cfg = DecompositionConfig(color_multiplier=1, retention=0.06, rng_seed=4)
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
        g_i = Graph(rc.palette_size, by_name[part.name.removeprefix("pull_")].edges)
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
    assert res.rounds == [RoundLog(1, 2, core_vertices=0, forest_parts=1)]
    assert res.total_parts == 1


def test_decompose_splits_a_peeled_shell_into_its_degeneracy_of_forests():
    # Every vertex is below the threshold, so round 1's peel takes them all;
    # least degree first, it yields exactly degeneracy-many forests.
    g = skewed_graph(2000, 12000, 1)
    degeneracy = max(nx.core_number(nx.Graph(list(g.edges()))).values())
    assert (g.max_degree(), default_threshold(g.max_degree()), degeneracy) == (452, 38, 8)
    res = decompose(g, DecompositionConfig())
    assert res.rounds == [RoundLog(1, 452, core_vertices=0, forest_parts=degeneracy)]
    assert res.total_parts == len(res.partition.parts) == degeneracy
    assert [p.name for p in res.partition.parts] == [f"r1_forest{i}" for i in range(degeneracy)]
    assert res.partition.is_exact()


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


def test_round_logs_record_the_retries(monkeypatch):
    # Here retention 0.4 with a palette of 4 * max degree fails three tries
    # before the fourth keeps enough of every degree.
    g = random_regular(100, 16, seed=3)
    cfg = DecompositionConfig(retention=0.4, color_multiplier=4)
    rc = rainbow_color(g, cfg)
    assert rc.retries == 3
    check_rainbow_coloring(rc, cfg)
    res = decompose(g, cfg)
    assert [log.retries for log in res.rounds] == [3, 0]  # the last round colours nothing
    monkeypatch.setattr(rainbow, "_MAX_RETRIES", 3)
    with pytest.raises(RainbowRetentionError):
        rainbow_color(g, cfg)


def test_decompose_round_log_consistent():
    g = random_regular(300, 16, seed=12)
    res = decompose(g, DecompositionConfig(rng_seed=12))
    planned = sum(r.forest_parts + r.palette_parts_planned for r in res.rounds)
    # the last round, whose peel takes every vertex, is logged with its forests
    assert res.total_parts == planned
    last = res.rounds[-1]
    assert last.core_vertices == last.palette_size == last.max_degree_after == 0 < last.forest_parts
    assert res.threshold == default_threshold(16)
    assert all(len(part.edges) for part in res.partition.parts)  # group_edges yields no empty class


# Part names, ordered edges, claims, round logs and counts of seeded
# decompositions must not change.  Recorded before the graph core moved to
# CSR arrays, and again when the pullback classes took their part-id order
# in place of a sort by the string of their (level, shift) key: the same
# (name, edges, claim) triples and round logs, in a new order; and when the
# leftover forests, once named ``final_forest{i}``, became the last round's
# ``r{k}_forest{i}``: with that name mapped back, the old hashes; and when
# the last round, whose peel takes every vertex, gained its round log: with
# that log line left out, the old hashes.  The round logs are hashed as they
# were recorded, without the later ``retries`` field, which is checked on
# its own.
DECOMPOSE_SHA256 = {
    (300, 24, 1): "2abb5b8de2eb751eeaf6279de31b702a8cf56233d24b7e8bebcb0dec8f2cbad8",
    (600, 40, 2): "edbd8497d618ea7e025e54f628af86e5a9c8adf7c5b28edaaaa6bdd752fce252",
}
DECOMPOSE_RETRIES = {(300, 24, 1): [0, 0], (600, 40, 2): [0, 0]}


@pytest.mark.parametrize("key", sorted(DECOMPOSE_SHA256))
def test_decompose_matches_recorded_hash(key):
    n, d, seed = key
    res = decompose(random_regular(n, d, seed), DecompositionConfig(target_cycle=6, rng_seed=seed))
    h = hashlib.sha256()
    for part in res.partition.parts:
        edges = list(map(tuple, part.edges.tolist()))
        h.update(f"{part.name}:{edges}:{part.forbidden_cycle}\n".encode())
    for log in res.rounds:
        h.update(f"{log!r}\n".replace(f", retries={log.retries})", ")").encode())
    h.update(f"{res.total_parts} {res.threshold}\n".encode())
    assert h.hexdigest() == DECOMPOSE_SHA256[key]
    assert [log.retries for log in res.rounds] == DECOMPOSE_RETRIES[key]
