"""The acyclicity check that decides forest parts before any search:
``graph._components`` against networkx's components, its round counts on
inputs that are slow for label propagation, ``graph._parts_check`` and the
``decided_by`` of ``verify_partition`` against ``networkx.is_forest``, the
girth and no C_L verdicts of runs that mix claims against
``networkx.girth`` and the per-part cycle search, and the orbit roots of
certified graphs against the propagation loop they replaced."""

import math
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import girthcover
from girthcover import graph
from girthcover.algebraic import build_hexagon, build_quadrangle
from girthcover.graph import _RUN_EDGES, _components, _parts_check
from girthcover.partition import EdgePartition, HostSpec, Part, verify_partition
from conftest import is_forest, searched_as, traced_peak


def as_array(edges) -> np.ndarray:
    return np.array(sorted(edges), np.int64).reshape(-1, 2)


def random_parts(rng: random.Random, n: int, count: int) -> list:
    """Parts drawn from one pool of n ids, so that they share vertex ids:
    random forests of one or more trees (so with isolated vertices of the
    host), some with extra edges that close cycles, and some empty."""
    parts = []
    for _ in range(count):
        pool = rng.sample(range(n), rng.randrange(1, min(n, 14) + 1))
        edges = set()
        if rng.random() < 0.9:
            for i, v in enumerate(pool[1:], 1):
                if rng.random() < 0.8:  # otherwise v starts a new tree
                    u = pool[rng.randrange(i)]
                    edges.add((min(u, v), max(u, v)))
        for _ in range(rng.choice([0, 0, 1, 2])):
            u, v = rng.sample(pool, 2) if len(pool) >= 2 else (pool[0], pool[0])
            if u != v:
                edges.add((min(u, v), max(u, v)))
        parts.append(as_array(edges))
    return parts


# (girth target, forbidden cycle) claims, cycled through the parts of a run.
MIXED_CLAIMS = [(4, None), (None, 6), (None, 4), (None, None), (8, None)]


def mixed_claims(count: int) -> list:
    return [MIXED_CLAIMS[i % len(MIXED_CLAIMS)] for i in range(count)]


def assert_claims_match_oracles(n: int, parts: list, claims: list, verdicts, cycles):
    """Whether each part holds its claim, and the cycle found in it, against
    ``networkx.girth`` for girth claims and the one-graph
    ``has_cycle_of_length`` for no C_L claims, each part alone.  The girth
    is taken on networkx's 2-core, which holds every cycle, so that a large
    part with few cycles stays cheap."""
    for part, (target, length), holds, cycle in zip(parts, claims, verdicts, cycles):
        if target is not None:
            girth = nx.girth(nx.k_core(nx.Graph(part.tolist()), 2))
            assert holds == (girth >= target) and cycle is None
        elif length is not None:
            assert holds == (cycle is None) == (not graph.Graph(n, part).has_cycle_of_length(length))
        else:
            assert not holds and cycle is None


def assert_matches_networkx(n: int, parts: list):
    acyclic, holds, found = _parts_check(n, parts, [(None, None)] * len(parts))
    assert acyclic == [is_forest(part) for part in parts]
    assert holds == [False] * len(parts) and found == [None] * len(parts)  # no claim holds
    for claim in ((None, 3), (None, 6), (4, None), (7, None)):
        claims = [claim] * len(parts)
        checked = _parts_check(n, parts, claims)
        assert checked[0] == acyclic
        assert_claims_match_oracles(n, parts, claims, *checked[1:])
        assert all(held for forest, held in zip(acyclic, checked[1]) if forest)


# -- the component routine -------------------------------------------------------


def networkx_labels(n: int, pairs) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for a, b in pairs:
        g.add_edges_from(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    label = np.arange(n)
    for component in nx.connected_components(g):
        label[list(component)] = min(component)
    return label


@pytest.mark.parametrize("seed", range(6))
def test_labels_are_the_smallest_vertex_of_each_component(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    m = int(rng.integers(0, n))
    pairs = [tuple(rng.integers(0, n, size=(2, m)))]
    if seed % 2:  # a second pair list, sharing vertices with the first
        pairs.append(tuple(rng.integers(0, n, size=(2, m // 2))))
    label, rounds = _components(n, pairs)
    assert np.array_equal(label, networkx_labels(n, pairs))
    assert rounds >= 1


def test_no_vertices_and_no_edges():
    empty = np.empty(0, np.int64)
    label, rounds = _components(0, [(empty, empty)])
    assert label.size == 0 and rounds == 1
    label, rounds = _components(5, [])
    assert np.array_equal(label, np.arange(5)) and rounds == 1


def path_pairs(ids: np.ndarray) -> list:
    return [(ids[:-1], ids[1:])]


ADVERSARIAL = {
    "path with shuffled ids": lambda n, rng: path_pairs(rng.permutation(n)),
    "path with decreasing ids": lambda n, rng: path_pairs(np.arange(n)[::-1]),
    "cycle with shuffled ids": lambda n, rng: [(ids := rng.permutation(n), np.roll(ids, 1))],
    "star, centre 0": lambda n, rng: [(np.zeros(n - 1, np.int64), np.arange(1, n))],
    "star, centre n - 1": lambda n, rng: [(np.full(n - 1, n - 1), np.arange(n - 1))],
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
@pytest.mark.parametrize("n", [3, 1000, 20000])
def test_rounds_grow_with_log_n(case, n):
    # Propagation that lowers only the labels of the ends themselves needs
    # about n / 3 rounds on a path with shuffled ids (308 at n = 1,000).
    pairs = ADVERSARIAL[case](n, np.random.default_rng(n))
    label, rounds = _components(n, pairs)
    assert (label == 0).all()
    if case.startswith("star"):
        assert rounds == 2  # one round to join, one to see that nothing changes
    else:
        assert rounds <= math.log2(n) + 3, rounds


# -- parts: the forest verdict -------------------------------------------------


@pytest.mark.parametrize("n", [1, 12, 40, 2000])
def test_random_parts_against_networkx(n):
    rng = random.Random(n)
    parts = random_parts(rng, n, 60)
    assert any(len(p) == 0 for p in parts)
    if n >= 12:
        assert any(is_forest(p) for p in parts if len(p)) and not all(is_forest(p) for p in parts)
    assert_matches_networkx(n, parts)


def test_a_part_larger_than_one_run():
    rng = random.Random(3)
    n = _RUN_EDGES + 500
    tree = as_array((rng.randrange(v), v) for v in range(1, n))  # a random tree on every vertex
    chord = next([u, n - 1] for u in range(n) if [u, n - 1] not in tree.tolist())
    with_cycle = as_array(tree.tolist() + [chord])
    forest = tree[sorted(rng.sample(range(len(tree)), _RUN_EDGES + 200))]
    parts = [as_array([(0, 1), (1, 2), (0, 2)]), tree, with_cycle, forest, as_array([(5, 9)])]
    assert min(len(tree), len(forest)) > _RUN_EDGES
    assert _parts_check(n, parts, mixed_claims(len(parts)))[0] == [False, True, False, True, True]
    assert_matches_networkx(n, parts)


@pytest.mark.parametrize("run_edges", [1, 7, 60])
def test_run_boundaries_do_not_change_the_verdict(monkeypatch, run_edges):
    rng = random.Random(run_edges)
    parts = random_parts(rng, 30, 40)
    claims = mixed_claims(len(parts))
    want = _parts_check(30, parts, claims)
    monkeypatch.setattr(graph, "_RUN_EDGES", run_edges)
    checked = _parts_check(30, parts, claims)
    assert checked == want
    assert checked[0] == [is_forest(part) for part in parts]
    assert_claims_match_oracles(30, parts, claims, *checked[1:])
    assert_matches_networkx(30, parts)


def test_faulty_parts_raise_before_any_verdict():
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=4"):
        _parts_check(4, [as_array([(0, 1)]), as_array([(0, 5)])], [(8, None), (None, 6)])
    with pytest.raises(ValueError, match="duplicate edge"):
        _parts_check(4, [np.array([(0, 1), (1, 0)])], [(None, None)])


def test_faulty_part_is_named_without_host_sized_graphs():
    # The valid parts before the faulty one are built on their own ids, not
    # on the host's 50,000,000 vertices (a 400 MB CSR row index each).
    paths = [Part(f"p{i}", [(6 * i + j, 6 * i + j + 1) for j in range(5)], girth_target=8) for i in range(3)]
    p = EdgePartition(HostSpec.complete(50_000_000), paths + [Part("loop", [(9, 9)], girth_target=8)])

    def refused():
        with pytest.raises(ValueError, match="loop at vertex 9"):
            verify_partition(p)

    assert traced_peak(refused)[0] < 1 << 20


# -- verify_partition ------------------------------------------------------------


def test_verify_decides_forests_as_acyclic(monkeypatch):
    rng = random.Random(9)
    n = 40
    parts = random_parts(rng, n, 48)
    claims = mixed_claims(len(parts))
    p = EdgePartition(HostSpec.explicit(graph.Graph(n, [])),
                      [Part(f"p{i}", e, *claim) for i, (e, claim) in enumerate(zip(parts, claims))])
    for run_edges in (graph._RUN_EDGES, 1, 7, 60):
        monkeypatch.setattr(graph, "_RUN_EDGES", run_edges)
        report = verify_partition(p)
        assert_claims_match_oracles(n, parts, claims, *zip(*((c.passed, c.witness) for c in report.checks)))
        for part, claim, check in zip(p.parts, claims, report.checks):
            want = "unclaimed" if claim == (None, None) else searched_as(part.edges)
            assert check.decided_by == want, (run_edges, part.name)
            if claim[1] is not None and not check.passed:
                assert len(check.witness) == claim[1]
        # Searched girth parts, passing and failing, share runs with the rest.
        girth_searched = {c.passed for c, (target, _) in zip(report.checks, claims) if target and c.decided_by == "search"}
        assert girth_searched == {False, True}
        for override in ({"girth_target": 5}, {"forbidden_cycle": 3}):
            report = verify_partition(p, **override)
            assert [c.decided_by for c in report.checks] == [searched_as(e) for e in parts]


def test_the_error_names_the_first_faulty_part_in_part_order():
    # Parts refused by Graph, a girth part before a no C_6 part: the error
    # is the first one's in part order, whatever its claim.
    p = EdgePartition(HostSpec.explicit(graph.Graph(6, [])), [
        Part("ok", [(0, 1), (1, 2)], forbidden_cycle=6),
        Part("loop", [(0, 1), (1, 1)], girth_target=8),
        Part("repeat", [(2, 3), (3, 2)], forbidden_cycle=6),
    ])
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        verify_partition(p)
    p.parts.reverse()
    with pytest.raises(ValueError, match=r"^duplicate edge \(2, 3\)$"):
        verify_partition(p)


# -- orbit roots ---------------------------------------------------------------------


def propagation_loop_orbits(n: int, perms: list) -> np.ndarray:
    """The smallest vertex of each orbit, by the loop that ``_components``
    replaced in ``Graph._girth_roots``."""
    orbit = np.arange(n)
    while True:
        last = orbit
        for perm in perms:
            orbit = np.minimum(orbit, orbit[perm])
            orbit[perm] = np.minimum(orbit[perm], orbit)
        orbit = orbit[orbit]
        if np.array_equal(orbit, last):
            return orbit


def roots_from_orbits(g, orbit: np.ndarray) -> np.ndarray:
    side = np.asarray(g.side)
    roots = []
    for s in (0, 1):
        members = np.flatnonzero(side == s)
        roots.append(members[np.unique(orbit[members], return_index=True)[1]])
    return np.sort(min(roots, key=len))


@pytest.mark.parametrize("build, q", [(build_quadrangle, 5), (build_quadrangle, 7),
                                      (build_hexagon, 5), (build_hexagon, 7)])
def test_orbit_roots_match_the_propagation_loop(build, q):
    g = build(q).graph
    perms = [np.asarray(perm, np.int64) for perm in g._automorphisms()]
    orbit = propagation_loop_orbits(g.n, perms)
    everyone = np.arange(g.n)
    assert np.array_equal(_components(g.n, [(everyone, perm) for perm in perms])[0], orbit)
    assert np.array_equal(g._girth_roots(), roots_from_orbits(g, orbit))


# -- python -O -----------------------------------------------------------------------


OPTIMIZED_SCRIPT = """
import math
import networkx as nx
import numpy as np
from girthcover.algebraic import build_quadrangle
from girthcover.graph import Graph, _components, _parts_check
from girthcover.partition import EdgePartition, HostSpec, Part, verify_partition

def fail(message):
    raise SystemExit(message)

def is_forest(edges):
    return len(edges) == 0 or nx.is_forest(nx.Graph(edges.tolist()))

rng = np.random.default_rng(4)
ids = rng.permutation(1000)
label, rounds = _components(1000, [(ids[:-1], ids[1:])])
if not (label == 0).all() or rounds > math.log2(1000) + 3:
    fail(f"path: {rounds} rounds")
parts = [np.array([[0, 1], [1, 2], [0, 2]]), np.array([[0, 1], [2, 3]]), np.empty((0, 2), np.int64),
         np.array([[3, 4], [4, 5], [5, 6], [3, 6]])]
if _parts_check(7, parts, [(None, None)] * 4)[0] != [is_forest(p) for p in parts]:
    fail("forest verdicts")
if _parts_check(7, parts, [(None, 4)] * 4)[2] != [None, None, None, (3, 4, 5, 6)]:
    fail("cycle search")
# The C_4 fails girth 5 on the last block of the run; the triangle fails girth 4.
if _parts_check(7, parts, [(4, None), (None, None), (8, None), (5, None)])[1:] != ([False, False, True, False], [None] * 4):
    fail("girth search")
report = verify_partition(EdgePartition(HostSpec.explicit(Graph(7, [])), [Part(str(i), p, 8) for i, p in enumerate(parts)]))
if [c.decided_by for c in report.checks] != ["search", "acyclic", "acyclic", "search"]:
    fail("decided_by")
if [c.passed for c in report.checks] != [False, True, True, False]:
    fail("girth verdicts")
try:
    _parts_check(4, [np.array([[0, 5]])], [(8, None)])
except ValueError:
    pass
else:
    fail("an id out of range passed")
g = build_quadrangle(5).graph
if len(g._girth_roots()) != 1:
    fail("quadrangle orbit roots")
"""


def test_checks_hold_under_optimize():
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
