import ast
import itertools
import math
import os
import random
import subprocess
import sys
import warnings

import networkx as nx
import numpy as np
import pytest

import girthcover
import girthcover.graph as graph_module

from girthcover.graph import (
    Graph,
    cycle_graph,
    degeneracy_peel,
    forest_decompose,
    read_edge_list,
    write_edge_list,
)
from conftest import (
    all_roots_girth,
    complete_graph,
    disjoint_union,
    forest_decompose_buckets,
    has_edge,
    is_locally_injective_hom,
    neighbors,
    path_graph,
    petersen_graph,
    random_graph,
    random_pieces_graph,
    read_edge_list_lines,
    reference_cycle_hitting_roots,
    reference_degeneracy_order,
    skewed_graph,
    traced_peak,
)


# -- independent oracles ----------------------------------------------------


def brute_force_cycles(g: Graph, max_len: int):
    """All simple cycle lengths <= max_len, by enumerating vertex sequences.

    Exponential; only for tiny graphs.  Independent of the library's BFS/DFS
    search paths.
    """
    lengths = set()
    for L in range(3, max_len + 1):
        for verts in itertools.permutations(range(g.n), L):
            if verts[0] != min(verts):
                continue
            if verts[1] > verts[-1]:  # fix orientation
                continue
            ok = all(
                has_edge(g, verts[i], verts[(i + 1) % L]) for i in range(L)
            )
            if ok:
                lengths.add(L)
                break
    return lengths


def brute_force_girth(g: Graph, max_len: int):
    lengths = brute_force_cycles(g, max_len)
    return min(lengths) if lengths else math.inf


# -- girth ------------------------------------------------------------------


def test_girth_cycle():
    assert cycle_graph(8).girth() == 8


def test_girth_tree_infinite():
    assert path_graph(7).girth() == math.inf
    assert Graph(1, []).girth() == math.inf


def test_girth_petersen():
    p = petersen_graph()
    assert brute_force_girth(p, 5) == 5  # oracle
    assert p.girth() == 5


def test_girth_matches_oracle_on_random_graphs():
    for seed in range(40):
        g = random_graph(8, 0.3, seed)
        assert g.girth() == brute_force_girth(g, 8), f"seed {seed}"


def test_girth_exceeds():
    p = petersen_graph()
    assert p.girth_exceeds(4)
    assert not p.girth_exceeds(5)
    assert path_graph(5).girth_exceeds(100)


# -- cycle-hitting roots and the kernel backend -----------------------------


def mixed_graph(seed: int) -> Graph:
    """Seeded graph mixing isolated vertices, trees, bipartite components,
    components with odd cycles and pendant trees, randomly relabelled."""
    rng = random.Random(seed)
    edges = []
    n = rng.randint(0, 3)  # isolated vertices
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(4, 14)
        vs = list(range(n, n + size))
        n += size
        kind = rng.choice(("tree", "bipartite", "odd"))
        left, right, p = vs[: size // 2], vs[size // 2 :], rng.uniform(0.0, 1.0 / size)
        if kind == "tree":
            ring, chords = [], []
            edges += [(vs[rng.randrange(i)], vs[i]) for i in range(1, size)]
        elif kind == "bipartite":  # an even ring across the sides, cross chords
            k = rng.randint(2, size // 2)
            ring = [v for pair in zip(rng.sample(left, k), rng.sample(right, k)) for v in pair]
            chords = [(u, v) for u in left for v in right]
        else:  # an odd ring, any chords
            ring = rng.sample(vs, rng.choice([k for k in (3, 5, 7, 9, 11, 13) if k <= size]))
            chords = list(itertools.combinations(vs, 2))
        edges += list(zip(ring, ring[1:] + ring[:1]))
        edges += [e for e in chords if rng.random() < p]
        for _ in range(rng.randint(0, 3)):  # a pendant tree hung on the component
            tree = [rng.choice(vs)]
            for w in range(n, n + rng.randint(1, 4)):
                edges.append((rng.choice(tree), w))
                tree.append(w)
            n += len(tree) - 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, {tuple(sorted((label[u], label[v]))) for u, v in edges})


def test_girth_matches_networkx_on_mixed_graphs():
    import networkx as nx

    for seed in range(600):
        g = mixed_graph(seed)
        oracle = nx.Graph()
        oracle.add_nodes_from(range(g.n))
        oracle.add_edges_from(g.edges())
        want = nx.girth(oracle)
        assert g.girth() == want, f"seed {seed}"
        for bound in range(12):
            assert g.girth_exceeds(bound) == (want > bound), f"seed {seed}, bound {bound}"


def test_cycle_hitting_roots():
    assert path_graph(7)._girth_roots().tolist() == []
    star_with_path = Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
    assert star_with_path._girth_roots().tolist() == []
    assert cycle_graph(8)._girth_roots().tolist() == [0, 2, 4, 6]
    assert petersen_graph()._girth_roots().tolist() == list(range(10))
    # K_{2,3} on {0, 1} + {2, 3, 4}, with pendant paths 4-5-6-7 and 0-8-9
    pendant = [(4, 5), (5, 6), (6, 7), (0, 8), (8, 9)]
    core_with_paths = Graph(10, [(u, v) for u in (0, 1) for v in (2, 3, 4)] + pendant)
    assert core_with_paths._girth_roots().tolist() == [0, 1]
    assert core_with_paths.girth() == 4


def cycle_hitting_cases():
    """Explicit and seeded random graphs for the cycle-hitting roots."""
    yield cycle_graph(8)  # a bipartite core with two sides of equal size
    yield Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])  # K_{3,3}
    yield Graph(5, [(u, v) for u in (3, 4) for v in (0, 1, 2)])  # smallest vertex on the larger side
    yield petersen_graph()
    yield path_graph(7)
    yield Graph(4, [])
    yield Graph(0, [])
    for seed in range(300):
        yield random_pieces_graph(seed)
    for seed in range(40):
        yield random_graph(30, 0.06, 500 + seed)


def check_cycle_hitting_roots(g):
    got = g._cycle_hitting_roots()
    assert got.dtype == np.int32
    assert np.array_equal(got, reference_cycle_hitting_roots(g)), g._pairs().tolist()


def test_cycle_hitting_roots_match_reference():
    for g in cycle_hitting_cases():
        check_cycle_hitting_roots(g)
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        want = nx.girth(h)
        assert g.girth() == want
        assert all_roots_girth(g) == (g.n + 1 if want == math.inf else want)


def test_cycle_hitting_roots_match_reference_on_cover_parts():
    from girthcover.randomcover import cover_for_cycle

    # 250 is the smallest n with a built-in seed for k = 3 (2 * 5^3 vertices).
    parts = cover_for_cycle(250, 3, 3.0, 1).to_partition().parts
    assert len(parts) > 100
    for part in parts:
        check_cycle_hitting_roots(Graph(250, part.edges))


def test_python_backend_without_numba():
    from girthcover import _kernels

    assert _kernels.girth_scan is _kernels._girth_scan
    g = petersen_graph()
    indptr, indices = g._csr
    assert (indptr.dtype, indices.dtype) == (np.int64, np.int32)
    every = np.arange(g.n)
    for roots, cap, want in ((g._girth_roots(), g.n + 1, 5), (every, 5, 5), (every, 4, 4)):
        got = _kernels.girth_scan(indptr, indices, g.n, cap, roots)
        assert type(got) is int and got == want


# -- fixed-length cycle detection ------------------------------------------


def test_has_cycle_of_length_examples():
    c6 = cycle_graph(6)
    assert c6.has_cycle_of_length(6)
    assert not c6.has_cycle_of_length(4)
    assert petersen_graph().has_cycle_of_length(6)


def test_has_cycle_of_length_petersen_oracle():
    # oracle: exhaustive simple-cycle enumeration via networkx
    import networkx as nx

    p = petersen_graph()
    nxg = nx.Graph(list(p.edges()))
    lengths = {len(c) for c in nx.simple_cycles(nxg)}
    for L in range(3, 10):
        assert p.has_cycle_of_length(L) == (L in lengths), f"L={L}"


def test_has_cycle_of_length_matches_networkx_on_sparse_graphs():
    # Parts of a decomposition: a few dozen edges on a few vertices of a
    # large host, with a planted cycle so that every length shows up.
    import networkx as nx

    rng = random.Random(17)
    for trial in range(60):
        n = rng.choice([100, 700, 2000])
        pool = rng.sample(range(n), rng.randrange(4, 26))
        k = rng.randrange(3, min(len(pool), 12) + 1)
        edges = {tuple(sorted((pool[i], pool[(i + 1) % k]))) for i in range(k)}
        for _ in range(rng.randrange(0, 2 * len(pool))):
            u, v = rng.sample(pool, 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        lengths = {len(c) for c in nx.simple_cycles(nx.Graph(list(edges)), length_bound=16)}
        for L in range(3, 17):
            assert g.has_cycle_of_length(L) == (L in lengths), f"trial {trial}, L={L}"


def test_has_cycle_of_length_range_checked():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        g.has_cycle_of_length(2)
    with pytest.raises(ValueError):
        g.has_cycle_of_length(17)


def test_girth_consistency_property():
    for seed in range(25):
        g = random_graph(9, 0.35, 1000 + seed)
        girth = g.girth()
        for L in range(3, min(9, 16) + 1):
            if L < girth:
                assert not g.has_cycle_of_length(L)
        if girth != math.inf:
            assert g.has_cycle_of_length(int(girth))


# -- construction validation ------------------------------------------------


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_bipartition_enforced():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1)], side=[0, 0, 1, 1])
    g = Graph(4, [(0, 2), (1, 3)], side=[0, 0, 1, 1])
    assert g.m == 2
    with pytest.raises(ValueError, match="side"):  # shorter than n
        Graph(4, [(0, 3)], side=[0, 1])
    with pytest.raises(ValueError, match="side"):  # longer than n
        Graph(3, [(0, 1)], side=[0, 1, 0, 1, 1])
    with pytest.raises(ValueError, match="side"):  # values other than 0 and 1
        Graph(3, [(0, 1)], side=[0, 5, 7])


@pytest.mark.parametrize(
    "side",
    [[0, 0, 1, 1], (0, 0, 1, 1), np.array([False, False, True, True]), np.int8([0, 0, 1, 1]), np.int64([0, 0, 1, 1])],
    ids=["list", "tuple", "bool", "int8", "int64"],
)
def test_side_is_a_tuple_of_python_ints(side):
    # (False, True) and numpy scalars compare equal to (0, 1), so the type
    # is checked too.
    g = Graph(4, [(0, 2), (1, 3)], side=side)
    assert g.side == (0, 0, 1, 1)
    assert all(type(s) is int for s in g.side)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize(
    "n, edges, side, message",
    [
        (4, [(0, 1), (2, 4), (5, 1)], None, r"edge \(2, 4\) out of range for n=4"),
        (4, [(0, 1), (-1, 2)], None, r"edge \(-1, 2\) out of range"),
        (4, [(0, 1), (3, 3), (2, 2)], None, "loop at vertex 3"),
        (4, [(0, 1), (1, 2), (3, 2), (2, 1), (1, 0)], None, r"duplicate edge \(1, 2\)"),
        (4, [(0, 2), (3, 1), (3, 2), (1, 0)], [0, 0, 1, 1], r"edge \(2, 3\) does not cross"),
    ],
)
def test_constructor_names_first_bad_edge(n, edges, side, message, as_array):
    import numpy as np

    with pytest.raises(ValueError, match=message):
        Graph(n, np.array(edges) if as_array else edges, side=side)


@pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [(0.5, 1)], [("0", "1")]])
def test_constructor_rejects_non_pairs(edges):
    with pytest.raises(ValueError, match="pairs of integer"):
        Graph(3, edges)


@pytest.mark.parametrize("as_array", [False, True])
def test_constructor_reports_faults_in_check_order(as_array):
    # One input with every kind of fault: range, then loop, then duplicate,
    # then bipartition, each named by its first edge in input order.
    edges = [(0, 2), (2, 9), (3, 1), (1, 1), (1, 3), (0, 1), (-1, 2)]
    for fault, message in [
        ((2, 9), r"edge \(2, 9\) out of range for n=4"),
        ((1, 1), "loop at vertex 1"),
        ((1, 3), r"duplicate edge \(1, 3\)"),
        ((0, 1), r"edge \(0, 1\) does not cross the bipartition"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(4, np.array(edges) if as_array else edges, side=[0, 0, 1, 1])
        edges = [e for e in edges if e not in (fault, (-1, 2))]
    assert list(Graph(4, edges, side=[0, 0, 1, 1]).edges()) == [(0, 2), (1, 3)]


def test_constructor_memory_stays_near_its_input():
    # The CSR is built in one int64 key buffer sorted in place plus the int32
    # indices, about 1.7 times the (m, 2) int64 input at the peak; building
    # every directed key, their concatenation and their quotients at once
    # took 3.5 times.
    rng = np.random.default_rng(11)
    n = 20000
    u, v = rng.integers(0, n, (2, 300000))
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[keys // n != keys % n]
    edges = np.stack([keys // n, keys % n], axis=1)[rng.permutation(len(keys))]
    assert len(edges) >= 200000
    peak, g = traced_peak(lambda: Graph(n, edges))
    assert peak <= 2.5 * edges.nbytes
    assert g.m == len(edges)


def test_graph_pickles_and_copies():
    # degree() reads a memoryview of indptr, which pickle cannot take; the
    # copies must still answer every query, the certified girth included.
    import copy
    import pickle

    from girthcover.algebraic import build_quadrangle

    g = build_quadrangle(5, (1, 2)).graph
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert (h.n, h.side, list(h.edges())) == (g.n, g.side, list(g.edges()))
        assert [h.degree(v) for v in range(h.n)] == [5] * h.n
        assert h.girth() == 8 and len(h._girth_roots()) == 1


def test_graph_matches_networkx_on_random_graphs():
    import networkx as nx
    import numpy as np

    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        oracle = nx.gnp_random_graph(n, rng.uniform(0.0, 0.5), seed=seed)
        pairs = list(oracle.edges())
        rng.shuffle(pairs)
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        want = sorted((min(e), max(e)) for e in pairs)
        for edges in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
            g = Graph(n, edges)
            assert (g.n, g.m) == (n, len(pairs))
            assert list(g.edges()) == want, f"seed {seed}"
            assert g.max_degree() == max((d for _, d in oracle.degree()), default=0)
            for v in range(n):
                assert g.degree(v) == oracle.degree(v)
                assert list(neighbors(g, v)) == sorted(oracle.neighbors(v))
                for w in range(n):
                    assert has_edge(g, v, w) == oracle.has_edge(v, w)



@pytest.mark.parametrize("v", [-1, -2, -5, -6, 5, 6, 2**70, -(2**70)])
def test_degree_and_neighbors_refuse_a_vertex_outside_the_graph(v):
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    for query in (g.degree, lambda w: neighbors(g, w)):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=5"):
            query(v)
    assert [g.degree(w) for w in range(5)] == [1, 2, 1, 1, 1]
    assert [neighbors(g, np.int64(w)) for w in range(5)] == [[1], [0, 2], [1], [4], [3]]
    with pytest.raises(ValueError):
        Graph(0, []).degree(0)


# -- locally injective homomorphisms ---------------------------------------


def test_identity_is_locally_injective():
    g = petersen_graph()
    assert is_locally_injective_hom(g, g, list(range(g.n)))


def test_c6_to_c3_mod_map():
    assert is_locally_injective_hom(
        cycle_graph(6), cycle_graph(3), [i % 3 for i in range(6)]
    )


def test_p3_collapse_fails():
    # path a - c - b mapped onto a single edge with a, b identified:
    # c's neighborhood image is not injective.
    p3 = Graph(3, [(0, 2), (1, 2)])
    edge = Graph(2, [(0, 1)])
    assert not is_locally_injective_hom(p3, edge, [0, 0, 1])


def test_non_homomorphism_fails():
    assert not is_locally_injective_hom(
        cycle_graph(4), path_graph(4), [0, 1, 2, 3]
    )


def test_phi_must_be_total():
    with pytest.raises(ValueError):
        is_locally_injective_hom(cycle_graph(3), cycle_graph(3), [0, 1])
    with pytest.raises(ValueError):
        is_locally_injective_hom(cycle_graph(3), cycle_graph(3), [0, 1, 5])


def test_hom_transfer_property_small():
    # any locally injective image of a cycle forces a cycle at most as long
    rng = random.Random(5)
    found = 0
    while found < 50:
        g = random_graph(7, 0.4, rng.randrange(10**6))
        f, phi = _pullback_triple(g, rng, 6)
        if f is None or f.girth() == math.inf:
            continue
        assert is_locally_injective_hom(f, g, phi)
        found += 1
        assert g.girth() <= f.girth()


def _pullback_triple(g: Graph, rng, fn: int):
    """Build (F, phi) with phi locally injective into g, by construction."""
    phi = [rng.randrange(g.n) for _ in range(fn)]
    edges = []
    nbr_colors = [set() for _ in range(fn)]
    pairs = [(u, v) for u in range(fn) for v in range(u + 1, fn)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if phi[u] == phi[v] or not has_edge(g, phi[u], phi[v]):
            continue
        if phi[v] in nbr_colors[u] or phi[u] in nbr_colors[v]:
            continue
        edges.append((u, v))
        nbr_colors[u].add(phi[v])
        nbr_colors[v].add(phi[u])
    if not edges:
        return None, None
    return Graph(fn, edges), phi


# -- degeneracy peel and forests --------------------------------------------


def check_peel_split(g: Graph, core: Graph, forests: list) -> None:
    """core and the forests hold each edge of g once, and each forest is one."""
    edges = list(core.edges()) + [tuple(e) for f in forests for e in f.tolist()]
    assert sorted(edges) == sorted(g.edges())
    for f in forests:
        assert nx.is_forest(nx.Graph(f.tolist()))


def test_peel_tree_fully():
    t = path_graph(8)
    core, forests = forest_decompose(t, 2)
    assert core.m == 0 and len(forests) == 1
    check_peel_split(t, core, forests)


def test_peel_k5_untouched():
    k5 = complete_graph(5)
    assert degeneracy_peel(k5, 4) == []
    core, forests = forest_decompose(k5, 4)
    assert sorted(core.edges()) == sorted(k5.edges())
    assert forests == []


def test_peel_c4_with_pendant():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    core, forests = forest_decompose(g, 2)
    assert sorted(core.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert [f.tolist() for f in forests] == [[[3, 4]]]


def test_peel_partitions_edges():
    for seed in range(10):
        g = random_graph(20, 0.2, seed)
        for threshold in (0, 1, 2, 3, math.inf):
            core, forests = forest_decompose(g, threshold)
            check_peel_split(g, core, forests)
            for v in range(core.n):
                assert core.degree(v) == 0 or core.degree(v) >= threshold
            assert len(forests) < max(threshold, 1)


def test_full_peel_is_the_degeneracy_order():
    graphs = [Graph(0, []), Graph(3, []), path_graph(5), complete_graph(6), petersen_graph()]
    graphs += [random_graph(n, p, seed) for seed in range(6) for n, p in ((30, 0.1), (60, 0.3))]
    for g in graphs:
        assert degeneracy_peel(g, math.inf) == reference_degeneracy_order(g)
        core, forests = forest_decompose(g, math.inf)
        assert core.m == 0 and sum(map(len, forests)) == g.m


@pytest.mark.parametrize("threshold", range(1, 7))
def test_peel_core_and_shell_degeneracy_match_networkx(threshold):
    # Least degree first: the core is the threshold-core, and the forests
    # number the shell's degeneracy, the largest core number there.  The
    # skewed graphs have degeneracy 4, so at threshold 6 their whole vertex
    # set is peeled, where an order that ignores degree does worse.
    graphs = [random_graph(50, 0.15, 900 + seed) for seed in range(4)]
    for g in graphs + [skewed_graph(500, 1500, seed) for seed in range(2)]:
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(g.n))
        number = nx.core_number(nxg)
        peel = degeneracy_peel(g, threshold)
        assert sorted(peel) == [v for v in range(g.n) if number[v] < threshold]
        core, forests = forest_decompose(g, threshold)
        assert set(np.flatnonzero(np.diff(core._csr[0])).tolist()) == set(nx.k_core(nxg, threshold))
        assert len(forests) == max((number[v] for v in peel), default=0)
        check_peel_split(g, core, forests)


def test_forest_decompose_tree():
    t = path_graph(6)
    forests = forest_decompose(t, math.inf)[1]
    assert len(forests) == 1
    assert sorted(Graph(t.n, forests[0]).edges()) == sorted(t.edges())


def test_forest_decompose_k4():
    k4 = complete_graph(4)
    core, forests = forest_decompose(k4, math.inf)
    assert len(forests) == 3
    check_peel_split(k4, core, forests)


def test_forest_decompose_empty():
    core, forests = forest_decompose(Graph(4, []), math.inf)
    assert core.n == 4 and core.m == 0 and forests == []


@pytest.mark.parametrize("peel", [False, True])
def test_forest_decompose_matches_bucket_oracle(peel):
    threshold = 6 if peel else math.inf  # 6 leaves a core, as the pipeline's rounds do
    for seed in range(8):
        g = random_graph(40, 0.25, 300 + seed)
        core, forests = forest_decompose(g, threshold)
        expected = forest_decompose_buckets(g, degeneracy_peel(g, threshold))
        assert all(f.dtype == np.int64 and f.ndim == 2 and f.shape[1] == 2 for f in forests)
        assert [f.tolist() for f in forests] == [f._pairs().tolist() for f in expected]
        check_peel_split(g, core, forests)


def test_forest_decompose_random():
    for seed in range(10):
        g = random_graph(15, 0.3, 77 + seed)
        core, forests = forest_decompose(g, math.inf)
        nxg = nx.Graph(list(g.edges()))
        assert len(forests) == max(nx.core_number(nxg).values(), default=0)
        check_peel_split(g, core, forests)
        for f in forests:
            assert Graph(g.n, f).girth() == math.inf


# -- automorphism certificates ---------------------------------------------

C8_ROTATION = [(i + 1) % 8 for i in range(8)]
C8_NOT_AUTOMORPHISM = [2, 1, 0, 3, 4, 5, 6, 7]  # edge (7,0) -> (7,2)
NOT_PERMUTATIONS = [
    [0, 0, 1, 2, 3, 4, 5, 6],  # repeated image
    [1, 2, 3, 4, 5, 6, 7, 8],  # image out of range
    [1, 2, 3, 4, 5, 6, 7],  # too short
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0],  # not integers
]


def certified_c8(*perms):
    return Graph(8, list(cycle_graph(8).edges()), automorphisms=lambda: perms)


def test_certified_girth_uses_one_root_per_orbit():
    g = certified_c8(C8_ROTATION)
    assert g._girth_roots().tolist() == [0]
    assert g.girth() == 8
    assert g.girth_exceeds(7) and not g.girth_exceeds(8)
    reflection = [(-i) % 8 for i in range(8)]
    assert certified_c8(reflection)._girth_roots().tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("perm", [C8_NOT_AUTOMORPHISM] + NOT_PERMUTATIONS)
def test_bad_certificate_rejected(perm):
    g = certified_c8(C8_ROTATION, perm)
    with pytest.raises(ValueError):
        g.girth()
    with pytest.raises(ValueError):
        g.girth_exceeds(7)


# Two vertices of a built graph to swap: the last two lines of the q = 7
# quadrangle, and the last two points of the q = 5 hexagon (every edge at
# those has both ends past row 3,000, so only late CSR rows hold it).
SWAPPED = [("build_quadrangle", 7, 684, 685), ("build_hexagon", 5, 3123, 3124)]

# The graph certified by its valid generators and one of them composed with
# the swap of the two vertices: a bijection that is not an automorphism.
SWAPPED_SCRIPT = (
    "import numpy as np\n"
    "from girthcover import algebraic\n"
    "from girthcover.graph import Graph\n"
    "def swapped_generator_graph(build, q, a, b):\n"
    "    plg = getattr(algebraic, build)(q)\n"
    "    valid = algebraic._automorphisms(plg.q, plg.arity, plg.shift)\n"
    "    swap = np.arange(plg.graph.n)\n"
    "    swap[[a, b]] = b, a\n"
    "    g = plg.graph\n"
    "    return Graph(g.n, g._pairs(), side=g.side, automorphisms=lambda: valid + [valid[0][swap]])\n"
)


@pytest.mark.parametrize("case", SWAPPED)
def test_swapped_generator_rejected(case):
    scope = {}
    exec(SWAPPED_SCRIPT, scope)
    g = scope["swapped_generator_graph"](*case)
    with pytest.raises(ValueError, match="maps an edge to a non-edge"):
        g.girth()
    with pytest.raises(ValueError, match="maps an edge to a non-edge"):
        g.girth_exceeds(7)


# Self-checks that raise AssertionError: shift solvers whose result fails
# the oracle.
SELF_CHECKS_SCRIPT = (
    "import girthcover.algebraic as algebraic\n"
    "algebraic.is_edge_q = algebraic.is_edge_h = lambda *args: False\n"
    "for solve, arity in ((algebraic.solve_shift_q, 3), (algebraic.solve_shift_h, 5)):\n"
    "    try:\n"
    "        solve((0,) * arity, (0,) * arity, 5)\n"
    "    except AssertionError:\n"
    "        continue\n"
    "    raise SystemExit(f'{solve.__name__} skipped its self-check')\n"
)


# An edge-list header whose bipartition sizes are negative but sum to n.
NEGATIVE_SIDES_SCRIPT = (
    "import os, tempfile\n"
    "from girthcover.graph import read_edge_list\n"
    "with tempfile.TemporaryDirectory() as tmp:\n"
    "    path = os.path.join(tmp, 'bad.edges')\n"
    "    with open(path, 'w') as fh:\n"
    "        fh.write('4 1 bipartite -1 5\\n0 1\\n')\n"
    "    try:\n"
    "        read_edge_list(path)\n"
    "    except ValueError as exc:\n"
    "        if 'line 1: malformed header' not in str(exc):\n"
    "            raise SystemExit(f'negative sides refused as {exc}')\n"
    "    else:\n"
    "        raise SystemExit('accepted negative sides')\n"
)


def test_bad_certificate_rejected_under_optimize():
    script = (
        "from girthcover.graph import Graph, cycle_graph\n"
        f"for perm in {[C8_NOT_AUTOMORPHISM] + NOT_PERMUTATIONS!r}:\n"
        "    g = Graph(8, list(cycle_graph(8).edges()), automorphisms=lambda: [perm])\n"
        "    for query in (g.girth, lambda: g.girth_exceeds(7)):\n"
        "        try:\n"
        "            query()\n"
        "        except ValueError:\n"
        "            continue\n"
        "        raise SystemExit(f'accepted {perm}')\n"
    ) + SWAPPED_SCRIPT + (
        f"for case in {SWAPPED!r}:\n"
        "    g = swapped_generator_graph(*case)\n"
        "    for query in (g.girth, lambda: g.girth_exceeds(7)):\n"
        "        try:\n"
        "            query()\n"
        "        except ValueError:\n"
        "            continue\n"
        "        raise SystemExit(f'accepted the swapped generator of {case}')\n"
    ) + SELF_CHECKS_SCRIPT + NEGATIVE_SIDES_SCRIPT
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_library_has_no_assert_statements():
    # assert is stripped under python -O; every check must be an explicit raise
    package = os.path.dirname(girthcover.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_library_imports_only_declared_dependencies():
    # numpy is the one declared dependency
    package = os.path.dirname(girthcover.__file__)
    allowed = set(sys.stdlib_module_names) | {"numpy", "girthcover"}
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in (m.split(".")[0] for m in modules):
                if top not in allowed:
                    found.append(f"{name}:{node.lineno}: {top}")
    assert not found, f"undeclared imports in the library: {found}"


def test_derived_graphs_drop_certificate(tmp_path):
    g = certified_c8(C8_ROTATION)
    path = tmp_path / "c8.edges"
    write_edge_list(g, path)
    derived = [
        disjoint_union([g]),
        read_edge_list(path),
    ]
    for d in derived:
        assert d._automorphisms is None
        assert d.girth() == 8 == all_roots_girth(d)
    # the rotation is no automorphism of a forest; the forests are plain
    # edge arrays, which carry no certificate
    forests = forest_decompose(g, math.inf)[1]
    assert len(forests) == 2
    for f in forests:
        assert type(f) is np.ndarray
        assert Graph(g.n, f).girth() == math.inf


# -- disjoint union ---------------------------------------------------------


def test_disjoint_union_girth():
    u = disjoint_union([cycle_graph(8), cycle_graph(8)])
    assert u.n == 16 and u.girth() == 8
    assert disjoint_union([path_graph(4), cycle_graph(12)]).girth() == 12
    empty = disjoint_union([])
    assert empty.n == 0 and empty.girth() == math.inf


def test_disjoint_union_min_girth_property():
    gs = [cycle_graph(k) for k in (5, 9, 7)]
    assert disjoint_union(gs).girth() == 5


# -- edge-list format -------------------------------------------------------


def test_edge_list_roundtrip(tmp_path):
    g = petersen_graph()
    path = tmp_path / "p.edges"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n and sorted(h.edges()) == sorted(g.edges())


def test_edge_list_bipartite_roundtrip(tmp_path):
    g = Graph(4, [(0, 2), (1, 3), (0, 3)], side=[0, 0, 1, 1])
    path = tmp_path / "b.edges"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.side == (0, 0, 1, 1)
    assert sorted(h.edges()) == sorted(g.edges())


@pytest.mark.parametrize("block", [2, 5, graph_module._ROW_BLOCK])
def test_edge_order_across_row_blocks(tmp_path, monkeypatch, block):
    # Blocks of a few adjacency entries split every graph below into many
    # row blocks, with a short last one; the default block holds them whole.
    monkeypatch.setattr(graph_module, "_ROW_BLOCK", block)
    rng = random.Random(31)
    sparse = [(u, v) for u, v in itertools.combinations(range(3, 60), 2) if rng.random() < 0.05]
    star = [(0, v) for v in range(1, 40)] + [(5, 9), (20, 21)]
    for n, edges in [(0, []), (3, []), (64, sparse), (40, star), (17, [(16, 2), (3, 0)])]:
        g = Graph(n, edges[::-1])  # the input order must not matter
        want = sorted((min(e), max(e)) for e in edges)
        assert list(g.edges()) == want
        assert all(type(x) is int for e in g.edges() for x in e)
        assert g._pairs().dtype == np.int64 and g._pairs().tolist() == [list(e) for e in want]
        write_edge_list(g, tmp_path / "g.edges")
        text = f"{n} {len(want)}\n" + "".join(f"{u} {v}\n" for u, v in want)
        assert (tmp_path / "g.edges").read_bytes() == text.encode()
    if block == 2:
        assert len(list(Graph(64, sparse)._row_blocks())) > 10


def test_write_edge_list_rejects_sides_the_header_cannot_record(tmp_path):
    # The header records sides as [0]*a + [1]*b; this graph would read back
    # with other sides and fail the bipartition check.
    for side in ([0, 1, 0, 1], [1, 1, 0, 0]):
        g = Graph(4, [(0, 3), (1, 2)] if side[0] == side[1] else [(0, 1), (2, 3), (0, 3)], side=side)
        with pytest.raises(ValueError, match=r"\[0\]\*a \+ \[1\]\*b"):
            write_edge_list(g, tmp_path / "g.edges")
        assert not (tmp_path / "g.edges").exists()
    for side in ([0, 0, 0, 0], [1, 1, 1, 1]):  # one side empty
        write_edge_list(Graph(4, [], side=side), tmp_path / "g.edges")
        assert read_edge_list(tmp_path / "g.edges").side == tuple(sorted(side))


def test_format_rows_matches_percent_formatting():
    # Every digit count from 1 to 19, the powers of ten and their
    # neighbours, both sides of the 32-bit switch, and separators that are
    # empty, several bytes long or not ASCII.
    rng = random.Random(41)
    special = [0, 9, 10, 99, 100, 2**31 - 1, 2**32 - 1, 2**32, 2**63 - 1]
    special += [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
    for seps in [(b" ", b"\n"), (b"\n",), (b" P:", b",", b",", b"\n"), (b"", b"\xc2\xa0->", b"\r\n")]:
        for k in (0, 1, 7, 300):
            rows = [[rng.choice(special) if rng.random() < 0.5 else rng.randrange(10 ** rng.randrange(1, 19))
                     for _ in seps] for _ in range(k)]
            want = b"".join(b"%d%s" % (x, sep) for row in rows for x, sep in zip(row, seps))
            array = np.array(rows, np.int64).reshape(k, len(seps))
            assert graph_module._format_rows(array, seps) == want
    with pytest.raises(ValueError, match="non-negative"):
        graph_module._format_rows(np.array([[0, -1]]), (b" ", b"\n"))


@pytest.mark.parametrize("bad", ["0 1 2", "0", "0 x"])
def test_edge_list_malformed_edge_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "bad.edges"
    path.write_text(f"# comment\n3 2\n0 1\n{bad}\n")
    with pytest.raises(ValueError, match=rf"bad\.edges, line 4: malformed edge line '{bad}'"):
        read_edge_list(path)


def test_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    for text, line, message in [
        ("3 2\n0 1\n", 1, "header claims 2 edges"),
        ("3 x\n", 1, "malformed header 3 x"),
        ("# c\n3 1 bipartite 1 x\n0 1\n", 2, "malformed header 3 1 bipartite 1 x"),
        # Negative sizes that sum to n are refused on the header's line.
        ("4 1 bipartite -1 5\n0 1\n", 1, "malformed header 4 1 bipartite -1 5"),
        ("4 1 bipartite 5 -1\n0 1\n", 1, "malformed header 4 1 bipartite 5 -1"),
        # So are a negative vertex or edge count.
        ("# c\n-1 0\n", 2, "malformed header -1 0"),
        ("3 -1\n", 1, "malformed header 3 -1"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.edges, line {line}: {message}"):
            read_edge_list(path)


# -- edge-list reader against the line-by-line oracle ------------------------


def _decorated_text(g, rng, share):
    """The edge-list text of ``g`` with a ``share`` of its edge lines (0 for
    text in the canonical form, 1 for all of them) given every
    allowed decoration: comment and blank lines before it, tabs, leading and
    trailing blanks.  Ids are sometimes padded with zeros to up to 20 digits
    (18 is the longest canonical token), and line ends may be CRLF."""
    eol = rng.choice(["\n", "\r\n"])
    header = f"{g.n} {g.m}"
    if g.side is not None:
        header += f" bipartite {g.side.count(0)} {g.side.count(1)}"
    lines = ["# leading comment", ""] if share and rng.random() < 0.5 else []
    lines.append(header)
    for u, v in g.edges():
        if rng.random() < 0.1:
            u, v = (str(x).zfill(rng.choice([2, 17, 18, 19, 20])) for x in (u, v))
        if rng.random() >= share:
            lines.append(f"{u} {v}")
            continue
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(["# comment", "  # indented comment", "#"]))
        elif r < 0.2:
            lines.append(rng.choice(["", " ", "\t", " \t "]))
        lead, sep, trail = (rng.choice(c) for c in (["", " ", "\t"], [" ", "  ", "\t", " \t"], ["", " ", "\t", "  "]))
        lines.append(f"{lead}{u}{sep}{v}{trail}")
    return eol.join(lines) + rng.choice([eol, ""])


def test_edge_list_reader_matches_line_oracle(tmp_path, monkeypatch):
    # Every graph as a fully decorated, a canonical and a mixed text, each
    # read in chunks that hold one line, a few lines or the whole body.
    rng = random.Random(23)
    path = tmp_path / "g.edges"
    graphs = [Graph(0, []), Graph(7, []), Graph(4, [], side=[0, 0, 1, 1])]
    for seed in range(40):
        n = rng.randrange(2, 40)
        if seed % 3 == 0:  # bipartite, sides [0]*a + [1]*b
            a = rng.randrange(1, n)
            side = [0] * a + [1] * (n - a)
            pairs = [(u, w) for u in range(a) for w in range(a, n)]
        else:
            side = None
            pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(0, min(len(pairs), 90) + 1)), side=side))
    for g, share in itertools.product(graphs, (1, 0, 0.03)):
        with open(path, "w", newline="") as fh:  # keep CRLF as written
            fh.write(_decorated_text(g, rng, share))
        want = read_edge_list_lines(path)
        assert (want.n, want.side, list(want.edges())) == (g.n, g.side, list(g.edges()))
        for chunk in (1, 4, 64, graph_module._COMMENT_CHUNK):
            monkeypatch.setattr(graph_module, "_COMMENT_CHUNK", chunk)
            got = read_edge_list(path)
            assert (got.n, got.side, list(got.edges())) == (g.n, g.side, list(g.edges()))


def test_edge_list_reader_accepts_nothing_the_oracle_rejects(tmp_path):
    # Random edge lines, about half of them mangled with forms the old int()
    # reader accepted or rejected; the new reader may reject more, never less.
    weird = ["+1", "-1", "01", "1.0", "1.5", "1_0", "\u0661", "\uff11", "1e0", "0x1", "#", "1#", "x", ""]
    blanks = [" ", "\t", "\xa0", "\x0b", "\x0c", " # x"]
    rng = random.Random(29)
    path = tmp_path / "f.edges"
    accepted = 0
    for trial in range(600):
        lines = []
        for _ in range(rng.randrange(1, 4)):
            fields = [str(x) for x in sorted(rng.sample(range(5), 2))]
            if rng.random() < 0.5:
                fields[rng.randrange(2)] = rng.choice(weird)
            if rng.random() < 0.2:
                fields.insert(rng.randrange(3), rng.choice(weird))
            lines.append(rng.choice(blanks if rng.random() < 0.4 else [" "]).join(fields))
        path.write_text(f"5 {len(lines)}\n" + "\n".join(lines) + "\n")
        try:
            want = read_edge_list_lines(path)
        except ValueError:
            want = None
        try:
            with warnings.catch_warnings():  # as outside pytest: warnings are no errors
                warnings.simplefilter("ignore")
                got = read_edge_list(path)
        except ValueError:
            got = None
        if got is not None:
            accepted += 1
            assert want is not None, path.read_text()
            assert list(got.edges()) == list(want.edges())
    assert accepted > 100


@pytest.mark.parametrize("line", ["1.5 2", "1e0 2", "0 2.0"])
def test_edge_list_rejects_float_fields_with_warnings_ignored(tmp_path, line):
    path = tmp_path / "float.edges"
    path.write_text(f"4 1\n{line}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=rf"float\.edges, line 2: malformed edge line '{line}'"):
            read_edge_list(path)


def test_edge_list_rejects_float_fields_that_numpy_casts_with_a_warning(tmp_path, monkeypatch):
    # Older numpy parses '1.5' into an integer array by way of a float and
    # only warns; the reader must turn that into a rejected line.
    real_loadtxt = np.loadtxt

    def casting_loadtxt(fh, dtype, ndmin):
        text = fh.read()
        if "." in text:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real_loadtxt(text.splitlines(), dtype=float, ndmin=ndmin).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", casting_loadtxt)
    path = tmp_path / "cast.edges"
    path.write_text("4 2\n0 1\n1.5 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"cast\.edges, line 3: malformed edge line '1\.5 2'"):
            read_edge_list(path)
    path.write_text("4 2\n0 1\n1 2\n")
    assert list(read_edge_list(path).edges()) == [(0, 1), (1, 2)]


def test_edge_list_without_edges_reads_without_warning(tmp_path):
    for text, n in [("0 0\n", 0), ("5 0\n", 5), ("# c\n5 0\n\n# d\n", 5), ("4 0 bipartite 2 2", 4)]:
        path = tmp_path / "empty.edges"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = read_edge_list(path)
        assert (g.n, g.m) == (n, 0)


def read_outcome(read, path):
    """The edges ``read(path)`` gives, or the text of its ``ValueError``."""
    try:
        result = read(path)
    except ValueError as exc:
        return str(exc)
    return list(result.edges())


def whole_body_outcome(monkeypatch, read, path):
    """``read_outcome`` with the body read as one chunk and parsed by
    ``loadtxt``: the reference that the canonical path must match."""
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_canonical_rows", lambda chunk: None)
        patch.setattr(graph_module, "_COMMENT_CHUNK", 1 << 30)
        return read_outcome(read, path)


@pytest.mark.parametrize("chunk", [1, 4, 64])
def test_comment_scan_reads_whole_lines_per_chunk(tmp_path, monkeypatch, chunk):
    # The comment-after-data scan reads a chunk, then up to the end of its
    # line: a fault that straddles a chunk boundary is still found, and
    # comment lines in any chunk are still accepted.
    monkeypatch.setattr(graph_module, "_COMMENT_CHUNK", chunk)
    path = tmp_path / "c.edges"
    good = "5 4\n# a\n0 1\n  # b\n\t#\n1 2\r\n2 3\n#\n3 4\n# end"
    path.write_bytes(good.encode())
    assert list(read_edge_list(path).edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    for bad, line in [("1 2 #\n", 6), ("1 2#x\n", 6), ("3 4   # trailing", 9)]:
        text = good.replace("1 2\r\n", bad) if line == 6 else good.replace("3 4\n# end", bad)
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=rf"c\.edges, line {line}: malformed edge line"):
            read_edge_list(path)
    # Canonical chunks, which take the fast path, next to chunks that do not:
    # each gives the edges or the error of the whole-body loadtxt reader.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    for text, want in [
        ("5 4\n0 1\n1 2\n2 3\n3 4\n", edges),
        ("5 4\r\n0 1\r\n1 2\r\n2 3\r\n3 4\r\n", edges),
        ("5 4\n0 1\n1 2\n2 3\n3 4", edges),  # no final newline
        ("5 4\n000000000000000000 1\n1 2\n2 3\n003 00000000000000004\n", edges),  # 18 digits
        ("5 4\n0000000000000000000 1\n1 2\n2 3\n3 4\n", edges),  # 19 digits
        ("5 4\n0 1\r1 2\n2 3\n3 4\n", edges),  # a lone CR ends a line
        ("5 4\n0\xa01\n1 2\n2 3\n3 4\n", edges),
        ("5 4\n0 1\n1 2\n# mid\n\n2 3\n3 4\n", edges),
        ("5 0\n", []),
        ("5 0\n\n", []),
        ("5 4\n0 1\n1 2\n2 3\n3 9999999999999999999\n", "line 5: vertex id outside int64 in '3 9999999999999999999'"),
        ("5 4\n0 1\n1 2\n2 3\n3 1000000000000000000\n", "line 5: edge (3, 1000000000000000000) out of range for n=5"),
        ("5 4\n0 1\n1 1\n2 3\n3 4\n", "line 3: edge (1,1) not in u < v form"),
        ("5 4\n0 1\n2 1\n2 3\n3 4\n", "line 3: edge (2,1) not in u < v form"),
        ("5 4\n0 1\n1 2\x00\n2 3\n3 4\n", "line 3: malformed edge line '1 2\\x00'"),
        ("5 4\n0 1 #\n1 2\n2 3\n3 4\n", "line 2: malformed edge line '0 1 #'"),
        ("5 4\n0 1\n1 2\n2 3\n3 4\n0 4\n", "line 1: header claims 4 edges, file has 5"),
        ("5 4\n0 1\n1 2\n", "line 1: header claims 4 edges, file has 2"),
        ("5 1000000000000\n0 1\n1 2\n", "line 1: header claims 1000000000000 edges, file has 2"),
        ("5 2\n0 1\n1 2\n2 3\n4 0\n", "line 5: edge (4,0) not in u < v form"),  # before the count
    ]:
        path.write_bytes(text.encode())
        if isinstance(want, str):
            want = f"{path}, {want}"
        assert read_outcome(read_edge_list, path) == whole_body_outcome(monkeypatch, read_edge_list, path) == want
    from girthcover.partition import _read_body

    path.write_bytes(b"0 1\n1 2\n2 3\n")
    for counts in ([1, 1], [2, 2], [10**12, 10**12]):
        want = f"{path}: the manifest claims {sum(counts)} edges, the file has 3"
        assert read_outcome(lambda p: _read_body(p, 5, counts), path) == want



def test_edge_list_reader_memory_beyond_its_rows(tmp_path):
    # The q = 7 hexagon's 117,649 edges are 1.9 MB of rows, read in chunks
    # of 64 KB; the reader's own buffers are one chunk's text and arrays,
    # not a second copy of the rows.
    from girthcover.algebraic import build_hexagon

    g = build_hexagon(7).graph
    path = tmp_path / "h7.edges"
    write_edge_list(g, path)
    with open(path) as fh:
        fh.readline()
        peak, (pairs, count) = traced_peak(lambda: graph_module._read_rows(fh, path, g.n, None, g.m))
    assert count == g.m and np.array_equal(pairs, g._pairs())
    assert peak - pairs.nbytes < 1_000_000, peak


READER_CHECKS_SCRIPT = """
import sys
import girthcover.graph as graph
path = sys.argv[1]
cases = [
    ("3 1\\n0 1000000000000000000\\n", "line 2: edge (0, 1000000000000000000) out of range for n=3"),
    ("3 1\\n0 9999999999999999999\\n", "line 2: vertex id outside int64 in '0 9999999999999999999'"),
    ("3 2\\n0 1\\n1 1\\n", "line 3: edge (1,1) not in u < v form"),
    ("3 2\\n0 1\\n2 1\\n", "line 3: edge (2,1) not in u < v form"),
    ("3 2\\n0 1\\n1 2 #\\n", "line 3: malformed edge line '1 2 #'"),
    ("3 1\\n0 1\\n1 2\\n", "line 1: header claims 1 edges, file has 2"),
    ("-1 0\\n", "line 1: malformed header -1 0"),
    ("3 -1\\n", "line 1: malformed header 3 -1"),
    ("4 1 bipartite -1 5\\n0 1\\n", "line 1: malformed header 4 1 bipartite -1 5"),
]
for chunk in (4, graph._COMMENT_CHUNK):
    graph._COMMENT_CHUNK = chunk
    for text, message in cases:
        with open(path, "w") as fh:
            fh.write(text)
        try:
            graph.read_edge_list(path)
        except ValueError as exc:
            if str(exc) == f"{path}, {message}":
                continue
            raise SystemExit(f"{text!r}: {exc}")
        raise SystemExit(f"accepted {text!r}")
"""


PIPE_READER_SCRIPT = """
import os, sys, threading
import girthcover.graph as graph
graph._COMMENT_CHUNK = 64  # many chunks, so the row array grows often
path = sys.argv[1]
if path != "/dev/stdin":
    text = sys.stdin.read()
    os.mkfifo(path)
    def write():
        with open(path, "w") as fh:
            fh.write(text)
    threading.Thread(target=write, daemon=True).start()
try:
    print(repr(list(graph.read_edge_list(path).edges())))
except ValueError as exc:
    print(repr(str(exc)))
"""


@pytest.mark.parametrize("text, want", [
    ("1000 999\n" + "".join(f"{u} {u + 1}\n" for u in range(999)), [(u, u + 1) for u in range(999)]),
    ("4 3\n0 1\n# x\n1 2\n\n2 3\n", [(0, 1), (1, 2), (2, 3)]),
    ("4 3\n0 1\n1 2\n2 3\n0 3\n", ", line 1: header claims 3 edges, file has 4"),
    ("4 3\n0 1\n1 2\n", ", line 1: header claims 3 edges, file has 2"),
    ("4 3\n0 1\n2 1\n2 3\n", ": malformed edge list (bad edge line)"),
], ids=["many-chunks", "decorated", "too-many", "too-few", "bad-line"])
def test_edge_list_reader_reads_pipes_whole(tmp_path, text, want):
    # A pipe or FIFO reports a size of 0, so its rows outgrow the array
    # sized from that: every row is read, or the read fails.  A bad line of
    # a pipe cannot be found by reading it again, so its error gives the
    # reason.  A FIFO, and a pipe as /dev/stdin, are read in a subprocess,
    # with a timeout in place of a hang.
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    for path in (str(tmp_path / "g.fifo"), "/dev/stdin"):
        done = subprocess.run([sys.executable, "-c", PIPE_READER_SCRIPT, path], input=text,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stdout + done.stderr
        assert ast.literal_eval(done.stdout) == (path + want if isinstance(want, str) else want)


def test_edge_list_reader_checks_hold_under_optimize(tmp_path):
    # The canonical path's rejections, as ``python -O`` runs them.
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", READER_CHECKS_SCRIPT, str(tmp_path / "g.edges")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("0 1\n0 1 # x\n", 3, "malformed edge line '0 1 # x'"),
        ("0 1 2\n1 2 3\n", 2, "malformed edge line '0 1 2'"),
        ("0 1\n1.5 2\n", 3, "malformed edge line '1.5 2'"),
        ("0 1\n\n2 1\n", 4, r"edge \(2,1\) not in u < v form"),
        ("0 1\n1", 3, "malformed edge line '1'"),
        ("0 1\n1 2\n2 3\n", 1, "header claims 2 edges, file has 3"),
        ("0 1\n0 99999999999999999999\n", 3, "vertex id outside int64 in '0 99999999999999999999'"),
        ("-99999999999999999999 0\n", 2, "vertex id outside int64 in '-99999999999999999999 0'"),
        ("0 1\n0 5\n", 3, r"edge \(0, 5\) out of range for n=4"),
        ("0 1\n# c\n0 1\n", 4, r"duplicate edge \(0, 1\)"),
    ],
)
def test_edge_list_faults_name_file_and_line(tmp_path, body, line, message):
    path = tmp_path / "bad.edges"
    path.write_text("4 2\n" + body)
    with pytest.raises(ValueError, match=rf"bad\.edges, line {line}: {message}"):
        read_edge_list(path)
    with pytest.raises(ValueError):
        read_edge_list_lines(path)
