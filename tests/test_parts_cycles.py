"""The batched fixed-length cycle search over the parts of a partition,
the cycles that ``graph._parts_check`` finds, against the one-graph search
``Graph(n, part).has_cycle_of_length(L)``: the same verdicts, a witness cycle
for every part that has one, and the same errors."""

import random

import numpy as np
import pytest

from girthcover import graph, rainbow
from girthcover.graph import _RUN_EDGES, Graph, _runs
from girthcover.partition import EdgePartition, HostSpec, Part, verify_partition
from girthcover.rainbow import DecompositionConfig, decompose
from conftest import parts_cycles, random_regular, searched_as, traced_peak

LENGTHS = range(3, 17)


def as_array(edges) -> np.ndarray:
    return np.array(sorted(edges), np.int64).reshape(-1, 2)


def assert_cycle_of(cycle, edges: np.ndarray, length: int):
    """``cycle`` is a cycle of ``length`` in the part, from its smallest vertex."""
    assert len(cycle) == length == len(set(cycle)), cycle
    assert cycle[0] == min(cycle), cycle
    keys = set(map(tuple, np.sort(edges, axis=1).tolist()))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(a, b), max(a, b)) in keys, (cycle, a, b)


def assert_matches_per_part_search(n: int, parts: list):
    for length in LENGTHS:
        found = parts_cycles(n, parts, length)
        assert len(found) == len(parts)
        for i, (part, cycle) in enumerate(zip(parts, found)):
            assert (cycle is not None) == Graph(n, part).has_cycle_of_length(length), (i, length)
            if cycle is not None:
                assert type(cycle) is tuple and all(type(v) is int for v in cycle)
                assert_cycle_of(list(cycle), part, length)


def random_parts(rng: random.Random, n: int, count: int) -> list:
    """Parts on a few vertices each, drawn from one pool of n ids, so that
    parts share vertex ids; some have a planted cycle, some no edges."""
    parts = []
    for _ in range(count):
        pool = rng.sample(range(n), rng.randrange(2, min(n, 11) + 1))
        edges = set()
        if len(pool) >= 3 and rng.random() < 0.5:
            k = rng.randrange(3, len(pool) + 1)
            edges |= {tuple(sorted((pool[i], pool[(i + 1) % k]))) for i in range(k)}
        for _ in range(rng.randrange(0, 2 * len(pool))):
            u, v = rng.sample(pool, 2)
            edges.add((min(u, v), max(u, v)))
        parts.append(as_array(edges))
    return parts


def test_random_parts_sharing_vertex_ids():
    rng = random.Random(23)
    for n in (12, 40, 2000):
        assert_matches_per_part_search(n, random_parts(rng, n, 40))


def test_empty_parts_and_parts_with_fewer_edges_than_the_length():
    c5 = as_array([(i, (i + 1) % 5) if i < 4 else (0, 4) for i in range(5)])
    path = as_array([(1, 2), (2, 3), (3, 4)])
    empty = as_array([])
    assert_matches_per_part_search(9, [empty, c5, empty, path, empty])
    assert_matches_per_part_search(9, [empty, empty])
    assert parts_cycles(9, [], 6) == []
    assert parts_cycles(0, [empty], 3) == [None]
    assert parts_cycles(9, [c5], 5) == [(0, 1, 2, 3, 4)]


def star_with_leaf_path(leaves: int, path: int) -> np.ndarray:
    """K_{1,leaves} with centre 0 and a path through leaves 1..path: its
    cycles have lengths 3..path + 1, and only path + 1 vertices have degree
    >= 2, so searching it stays cheap."""
    return as_array([(0, v) for v in range(1, leaves + 1)] + [(v, v + 1) for v in range(1, path)])


def test_a_part_larger_than_one_run():
    big = star_with_leaf_path(_RUN_EDGES + 100, 8)
    assert len(big) > _RUN_EDGES
    small = as_array([(0, 1), (1, 2), (0, 2)])
    parts = [small, big, small]
    assert [len(run) for run in _runs(parts, [len(p) for p in parts])] == [1, 1, 1]
    assert_matches_per_part_search(_RUN_EDGES + 101, parts)


@pytest.mark.parametrize("run_edges", [1, 7, 60])
def test_run_boundaries_do_not_change_the_answer(monkeypatch, run_edges):
    rng = random.Random(run_edges)
    parts = random_parts(rng, 30, 25)
    want = [parts_cycles(30, parts, length) for length in LENGTHS]
    monkeypatch.setattr(graph, "_RUN_EDGES", run_edges)
    assert [parts_cycles(30, parts, length) for length in LENGTHS] == want


def test_decompose_output_with_planted_cycles():
    g = random_regular(300, 16, seed=4)
    res = decompose(g, DecompositionConfig(rng_seed=4))
    rng = random.Random(5)
    parts = []
    for i, part in enumerate(res.partition.parts):
        edges = set(map(tuple, part.edges.tolist()))
        if i % 3 == 0:  # plant a C_L on vertices of the part and of the host
            length = LENGTHS[i // 3 % len(LENGTHS)]
            own = sorted(set(part.edges.ravel().tolist()))
            ring = rng.sample(own, min(length, 4, len(own)))
            ring += rng.sample(sorted(set(range(g.n)) - set(ring)), length - len(ring))
            edges |= {tuple(sorted((ring[j], ring[(j + 1) % length]))) for j in range(length)}
        parts.append(as_array(edges))
    assert_matches_per_part_search(g.n, parts)
    # Every length is planted, and the unplanted classes stay C_6-free.
    assert all(any(c is not None for c in parts_cycles(g.n, parts, L)) for L in LENGTHS)
    assert not any(parts_cycles(g.n, parts[1::3], 6))
    # verify_partition gives the per-part verdicts, with a witness for each failure.
    p = EdgePartition(HostSpec.explicit(g),
                      [Part(f"p{i}", e, forbidden_cycle=6) for i, e in enumerate(parts)])
    for L in (6, 10, None):
        report = verify_partition(p, forbidden_cycle=L)
        for part, check in zip(parts, report.checks):
            has = Graph(g.n, part).has_cycle_of_length(L or 6)
            assert (check.passed, check.witness is not None) == (not has, has)
            assert check.claim == f"no C_{L or 6}" and check.decided_by == searched_as(part)
            if has:
                assert_cycle_of(list(check.witness), part, L or 6)


# -- errors ------------------------------------------------------------------


def graph_error(n: int, edges) -> str:
    with pytest.raises(ValueError) as info:
        Graph(n, edges)
    return str(info.value)


FAULTY_PARTS = {
    # id 5 >= n = 4: in the union, (part 1, vertex 5) would be (part 2, vertex 1)
    "an id aliasing the next part": (4, [[(0, 1)], [(0, 5)], [(1, 2), (2, 3)]]),
    "a negative id": (4, [[(0, 1)], [(-1, 2)]]),
    "a loop": (5, [[(0, 1), (1, 2)], [(3, 3)]]),
    "a repeat within one part": (5, [[(0, 1), (1, 2), (0, 1)]]),
    "a repeat the other way round": (5, [[(1, 2)], [(0, 1), (2, 3), (1, 0)]]),
    "a loop first, a bad id later": (5, [[(2, 2)], [(0, 9)]]),
    "a negative vertex count": (-1, [[]]),
}


@pytest.mark.parametrize("case", sorted(FAULTY_PARTS))
def test_faulty_parts_raise_the_graph_error(case):
    n, parts = FAULTY_PARTS[case]
    parts = [np.array(p, np.int64).reshape(-1, 2) for p in parts]
    want = next(graph_error(n, p) for p in parts if not _builds(n, p))
    with pytest.raises(ValueError) as info:
        parts_cycles(n, parts, 6)
    assert str(info.value) == want
    # A host of -1 vertices is not a Graph; K_n is only a host line.
    host = HostSpec.complete(n) if n < 0 else HostSpec.explicit(Graph(n, []))
    partition = EdgePartition(host,
                              [Part(f"p{i}", p, forbidden_cycle=6) for i, p in enumerate(parts)])
    with pytest.raises(ValueError) as info:
        verify_partition(partition)
    assert str(info.value) == want


def _builds(n: int, edges) -> bool:
    try:
        Graph(n, edges)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("length", [-1, 0, 2, 17, 100])
def test_lengths_outside_the_range_raise(length):
    c5 = as_array([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(ValueError) as info:
        Graph(5, c5).has_cycle_of_length(length)
    want = str(info.value)
    assert want == f"cycle length {length} outside supported range [3, 16]"
    for parts in ([c5], [as_array([])]):
        with pytest.raises(ValueError) as info:
            parts_cycles(5, parts, length)
        assert str(info.value) == want
    p = EdgePartition(HostSpec.explicit(Graph(5, c5)), [Part("c5", c5, forbidden_cycle=length)])
    with pytest.raises(ValueError) as info:
        verify_partition(p)
    assert str(info.value) == want


def test_an_edge_shared_by_two_parts_is_searched_per_part():
    triangle = as_array([(0, 1), (1, 2), (0, 2)])
    edge = as_array([(0, 1)])
    # Together the parts hold (0, 1) twice, but each part is a simple graph.
    assert parts_cycles(3, [triangle, edge], 3) == [(0, 1, 2), None]
    p = EdgePartition(HostSpec.explicit(Graph(3, triangle)),
                      [Part("t", triangle, forbidden_cycle=4), Part("e", edge, forbidden_cycle=4)])
    report = verify_partition(p)
    assert not report.exact and not report.passed
    assert [(c.passed, c.witness) for c in report.checks] == [(True, None), (True, None)]


# -- memory --------------------------------------------------------------------


def test_memory_stays_near_one_run():
    # About the decompose-c6 partition: 1,200 parts of ~53 edges on n = 2,000.
    rng = np.random.default_rng(5)
    n = 2000
    parts = []
    for _ in range(1200):
        e = np.sort(rng.choice(n, size=(54, 2)), axis=1)
        parts.append(np.unique(e[e[:, 0] < e[:, 1]], axis=0))
    assert 60_000 < sum(map(len, parts)) < 66_000
    peak, found = traced_peak(lambda: parts_cycles(n, parts, 6))
    assert len(found) == len(parts)
    assert peak < 3_000_000, peak


# -- decompose's self-check ----------------------------------------------------


def test_decompose_names_the_class_and_its_cycle(monkeypatch):
    # C_6 on 0..5 and a star of degree 8: every vertex peels into the shell,
    # and a forest split that keeps the shell whole leaves the C_6 in one class.
    g = Graph(15, [(i, (i + 1) % 6) for i in range(6)] + [(6, v) for v in range(7, 15)])
    monkeypatch.setattr(rainbow, "forest_decompose", lambda g, threshold: (Graph(g.n, []), [g._pairs()]))
    with pytest.raises(AssertionError) as info:
        decompose(g, DecompositionConfig(target_cycle=6))
    assert str(info.value) == "class r1_forest0 contains a C_6: cycle 0 1 2 3 4 5"
