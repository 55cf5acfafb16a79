import ast
import itertools
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import girthcover

from girthcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    degeneracy_order,
    degeneracy_peel,
    disjoint_union,
    forest_decompose,
    is_locally_injective_hom,
    path_graph,
    petersen_graph,
    read_edge_list,
    write_edge_list,
)
from conftest import all_roots_girth, random_graph, read_edge_list_lines


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
                g.has_edge(verts[i], verts[(i + 1) % L]) for i in range(L)
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


def test_python_backend_without_numba():
    try:
        import numba  # noqa: F401
    except ImportError:
        pass
    else:
        pytest.skip("numba is installed, so the compiled entry runs")
    import numpy as np

    from girthcover import _kernels

    assert _kernels.girth_scan is _kernels._girth_scan
    g = petersen_graph()
    indptr, indices = g._csr_arrays()
    assert (indptr.dtype, indices.dtype) == (np.int64, np.int32)
    every = np.arange(g.n)
    for roots, cap, want in ((g._girth_roots(), g.n + 1, 5), (every, 5, 5), (every, 4, 4)):
        got = _kernels.girth_scan(indptr, indices, g.n, cap, roots)
        assert type(got) is int and got == want
    # The loop the compiled entry runs gives the same answer on its numpy buffers.
    buffers = [np.empty(g.n, np.int32) for _ in range(4)]
    buffers[2].fill(-1)  # stamp
    assert _kernels._bfs_scan(indptr, indices, g.n + 1, g._girth_roots(), *buffers) == 5


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
                assert list(g.neighbors(v)) == sorted(oracle.neighbors(v))
                for w in range(n):
                    assert g.has_edge(v, w) == oracle.has_edge(v, w)


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
        if phi[u] == phi[v] or not g.has_edge(phi[u], phi[v]):
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


def test_peel_tree_fully():
    t = path_graph(8)
    core, shell, order = degeneracy_peel(t, 2)
    assert core.m == 0
    assert sorted(shell.edges()) == sorted(t.edges())
    assert max(order.right_degree) <= 1


def test_peel_k5_untouched():
    k5 = complete_graph(5)
    core, shell, order = degeneracy_peel(k5, 4)
    assert sorted(core.edges()) == sorted(k5.edges())
    assert shell.m == 0


def test_peel_c4_with_pendant():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    core, shell, order = degeneracy_peel(g, 2)
    assert sorted(core.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert sorted(shell.edges()) == [(3, 4)]


def test_peel_partitions_edges():
    for seed in range(10):
        g = random_graph(20, 0.2, seed)
        for threshold in (1, 2, 3):
            core, shell, order = degeneracy_peel(g, threshold)
            all_edges = sorted(list(core.edges()) + list(shell.edges()))
            assert all_edges == sorted(g.edges())
            for v in range(core.n):
                assert core.degree(v) == 0 or core.degree(v) >= threshold
            assert max(order.right_degree, default=0) < max(threshold, 1)


def test_forest_decompose_tree():
    t = path_graph(6)
    forests = forest_decompose(t, degeneracy_order(t))
    assert len(forests) == 1
    assert sorted(forests[0].edges()) == sorted(t.edges())


def test_forest_decompose_k4():
    k4 = complete_graph(4)
    forests = forest_decompose(k4, degeneracy_order(k4))
    assert len(forests) == 3
    union = sorted(e for f in forests for e in f.edges())
    assert union == sorted(k4.edges())
    for f in forests:
        assert f.girth() == math.inf


def test_forest_decompose_empty():
    g = Graph(4, [])
    assert forest_decompose(g, degeneracy_order(g)) == []


def test_forest_decompose_invalid_order():
    from girthcover.graph import DegeneracyOrder

    k4 = complete_graph(4)
    with pytest.raises(ValueError):
        forest_decompose(k4, DegeneracyOrder((0, 1, 2), (0, 0, 0)))
    with pytest.raises(ValueError):
        forest_decompose(k4, DegeneracyOrder((0, 1, 2, 3), (0, 0, 0, 0)))


def test_forest_decompose_random():
    for seed in range(10):
        g = random_graph(15, 0.3, 77 + seed)
        order = degeneracy_order(g)
        forests = forest_decompose(g, order)
        assert len(forests) <= order.degeneracy
        union = sorted(e for f in forests for e in f.edges())
        assert union == sorted(g.edges())
        for f in forests:
            assert f.girth() == math.inf


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


# Self-checks that raise AssertionError: a coloring with palette 10^9 or a
# monochromatic edge, and shift solvers whose result fails the oracle.
SELF_CHECKS_SCRIPT = (
    "import girthcover.algebraic as algebraic\n"
    "from girthcover.graph import Graph\n"
    "from girthcover.rainbow import DecompositionConfig, RainbowColoring, check_rainbow_coloring\n"
    "edge = Graph(2, [(0, 1)])\n"
    "for color, palette in (([0, 1], 10**9), ([0, 0], 2)):\n"
    "    rc = RainbowColoring(host=edge, retained=edge, color=color, palette_size=palette)\n"
    "    try:\n"
    "        check_rainbow_coloring(rc, DecompositionConfig())\n"
    "    except AssertionError:\n"
    "        continue\n"
    "    raise SystemExit(f'accepted coloring {color} with palette {palette}')\n"
    "algebraic.is_edge_q = algebraic.is_edge_h = lambda *args: False\n"
    "for solve, arity in ((algebraic.solve_shift_q, 3), (algebraic.solve_shift_h, 5)):\n"
    "    try:\n"
    "        solve((0,) * arity, (0,) * arity, 5)\n"
    "    except AssertionError:\n"
    "        continue\n"
    "    raise SystemExit(f'{solve.__name__} skipped its self-check')\n"
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
    ) + SELF_CHECKS_SCRIPT
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


def test_derived_graphs_drop_certificate(tmp_path):
    from girthcover.randomcover import SeedGraph

    g = certified_c8(C8_ROTATION)
    path = tmp_path / "c8.edges"
    write_edge_list(g, path)
    derived = [
        g.subgraph_edges(g.edges()),
        disjoint_union([g]),
        read_edge_list(path),
        SeedGraph.certify(g).padded_to(9).graph,
    ]
    for d in derived:
        assert d._automorphisms is None
        assert d.girth() == 8 == all_roots_girth(d)


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


def test_write_edge_list_rejects_sides_the_header_cannot_record(tmp_path):
    # The header records sides as [0]*a + [1]*b; this graph would read back
    # with other sides and fail the bipartition check.
    g = Graph(4, [(0, 1), (2, 3), (0, 3)], side=[0, 1, 0, 1])
    with pytest.raises(ValueError, match=r"\[0\]\*a \+ \[1\]\*b"):
        write_edge_list(g, tmp_path / "g.edges")
    assert not (tmp_path / "g.edges").exists()


@pytest.mark.parametrize("bad", ["0 1 2", "0", "0 x"])
def test_edge_list_malformed_edge_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "bad.edges"
    path.write_text(f"# comment\n3 2\n0 1\n{bad}\n")
    with pytest.raises(ValueError, match=rf"bad\.edges, line 4: malformed edge line '{bad}'"):
        read_edge_list(path)


def test_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


# -- edge-list reader against the line-by-line oracle ------------------------


def _decorated_text(g, rng):
    """The edge-list text of ``g`` with every allowed decoration sprinkled in:
    comment and blank lines, CRLF ends, tabs, leading and trailing blanks."""
    eol = rng.choice(["\n", "\r\n"])
    header = f"{g.n} {g.m}"
    if g.side is not None:
        header += f" bipartite {g.side.count(0)} {g.side.count(1)}"
    lines = ["# leading comment", ""] if rng.random() < 0.5 else []
    lines.append(header)
    for u, v in g.edges():
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(["# comment", "  # indented comment", "#"]))
        elif r < 0.2:
            lines.append(rng.choice(["", " ", "\t", " \t "]))
        lead, sep, trail = (rng.choice(c) for c in (["", " ", "\t"], [" ", "  ", "\t", " \t"], ["", " ", "\t", "  "]))
        lines.append(f"{lead}{u}{sep}{v}{trail}")
    return eol.join(lines) + rng.choice([eol, ""])


def test_edge_list_reader_matches_line_oracle(tmp_path):
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
    for g in graphs:
        with open(path, "w", newline="") as fh:  # keep CRLF as written
            fh.write(_decorated_text(g, rng))
        got, want = read_edge_list(path), read_edge_list_lines(path)
        assert (got.n, got.side, list(got.edges())) == (want.n, want.side, list(want.edges()))
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


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("0 1\n0 1 # x\n", 3, "malformed edge line '0 1 # x'"),
        ("0 1 2\n1 2 3\n", 2, "malformed edge line '0 1 2'"),
        ("0 1\n1.5 2\n", 3, "malformed edge line '1.5 2'"),
        ("0 1\n\n2 1\n", 4, r"edge \(2,1\) not in u < v form"),
        ("0 1\n1", 3, "malformed edge line '1'"),
        ("0 1\n1 2\n2 3\n", 1, "header claims 2 edges, file has 3"),
    ],
)
def test_edge_list_faults_name_file_and_line(tmp_path, body, line, message):
    path = tmp_path / "bad.edges"
    path.write_text("4 2\n" + body)
    with pytest.raises(ValueError, match=rf"bad\.edges, line {line}: {message}"):
        read_edge_list(path)
    with pytest.raises(ValueError):
        read_edge_list_lines(path)
