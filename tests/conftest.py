import heapq
import itertools
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from girthcover._kernels import girth_scan
from girthcover.algebraic import _incident_lines
from girthcover.graph import Graph, _hom_failures, _parts_check, group_edges
from girthcover.partition import CompleteCoverLocator, EdgePartition, HostSpec, Part, prime_for_side
from girthcover.rainbow import DecompositionConfig, RainbowColoring


# -- small graphs and coordinates used only by the tests ----------------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def has_edge(g: Graph, u: int, v: int) -> bool:
    indptr, indices = g._csr
    return v in indices[indptr[u] : indptr[u + 1]]


def neighbors(g: Graph, v: int) -> list[int]:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    indptr, indices = g._csr
    return indices[indptr.item(v) : indptr.item(v + 1)].tolist()


def parts_cycles(n: int, parts: list, length: int) -> list:
    """For each edge array of ``parts``: a cycle of exactly ``length`` in the
    graph on 0..n-1 with those edges, its vertex ids in order from the
    smallest, or None; what ``decompose``'s self-check reads."""
    return _parts_check(n, parts, [(None, length)] * len(parts))[2]


def check_rainbow_coloring(rc: RainbowColoring, cfg: DecompositionConfig) -> None:
    """Check every RainbowColoring invariant; raises AssertionError on violation."""
    g, h = rc.host, rc.retained
    if h.n != g.n:
        raise AssertionError(f"retained graph has {h.n} vertices, host has {g.n}")
    if rc.palette_size > cfg.color_multiplier * max(g.max_degree(), 1):
        raise AssertionError(f"palette {rc.palette_size} exceeds multiplier * max degree")
    host_edges = set(g.edges())
    for e in h.edges():
        if e not in host_edges:
            raise AssertionError(f"retained edge {e} not in host")
    for u, v in h.edges():
        if rc.color[u] == rc.color[v]:
            raise AssertionError(f"monochromatic retained edge ({u},{v})")
    for v in range(h.n):
        seen = [rc.color[w] for w in neighbors(h, v)]
        if len(set(seen)) != len(seen):
            raise AssertionError(f"repeated color in neighborhood of {v}")
    for v in range(g.n):
        if g.degree(v) > 0 and h.degree(v) < cfg.retention * g.degree(v):
            raise AssertionError(f"vertex {v} retains {h.degree(v)}/{g.degree(v)}")


def is_locally_injective_hom(f: Graph, g: Graph, phi) -> bool:
    """Whether phi is a locally injective homomorphism from f to g: every
    edge of f maps to an edge of g, and phi is injective on every
    neighbourhood of f.  phi must give a vertex of g for every vertex of f."""
    if len(phi) != f.n:
        raise ValueError("phi must map every vertex of f")
    phi = np.asarray(phi, dtype=np.int64).reshape(f.n)
    if (bad := np.flatnonzero((phi < 0) | (phi >= g.n))).size:
        raise ValueError(f"phi value {phi[bad[0]]} outside target vertex range")
    u, v = f._pairs().T
    return _hom_failures(g._keys(), g.n, u, v, phi[u], phi[v], np.zeros(len(u), np.int64)).size == 0


def reference_part_rows(keys, counts):
    """``partition._part_rows`` as two stable sorts, by key and then by part,
    on every input: the oracle for its order check."""
    index = np.repeat(np.arange(len(counts)), counts)
    by_key = np.argsort(keys, kind="stable")
    order = by_key[np.argsort(index[by_key], kind="stable")]
    keys, index = keys[order], index[order]
    repeat = np.zeros(len(order), bool)
    repeat[1:] = (keys[1:] == keys[:-1]) & (index[1:] == index[:-1])
    return order, index, repeat


def reference_hom_failures(keys, n, u, v, fu, fv, group):
    """``graph._hom_failures`` with the repeats found by a lexsort of the
    (group, vertex, image of the other end) triples: the oracle for its
    packed sort."""
    images = fu * n + fv
    if keys.size:
        missing = keys.take(np.searchsorted(keys, images), mode="clip") != images
    else:
        missing = np.ones(len(images), bool)
    tails, heads, groups = (np.concatenate(pair) for pair in ((u, v), (fv, fu), (group, group)))
    order = np.lexsort((heads, tails, groups))
    tails, heads, groups = tails[order], heads[order], groups[order]
    repeat = (tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1]) & (groups[1:] == groups[:-1])
    return np.concatenate([group[missing], groups[1:][repeat]])


def reference_reverse_arcs(g: Graph):
    """The CSR arcs of ``g`` in (head, tail) order, by numpy's stable
    argsort of the heads: the oracle for the reverse-arc order of
    ``rainbow._try_rainbow``."""
    return np.argsort(g._csr[1], kind="stable")


def reference_group_edges(pairs, ids):
    """(id, rows) for each distinct id, in increasing id order, each with
    its rows of ``pairs`` in row order, grouped in a dict: the oracle for
    ``graph.group_edges``."""
    groups = {}
    for row, i in zip(pairs.tolist(), ids.tolist()):
        groups.setdefault(i, []).append(row)
    return sorted(groups.items())


def reference_cover_complete(n: int, target_girth: int):
    """(partition, plan) of the recursive-halving cover of K_n, every edge of
    K_n placed by ``CompleteCoverLocator.locate`` and the edges grouped by
    part id with ``graph.group_edges``: the oracle for ``cover_complete``,
    which locates no edge."""
    loc = CompleteCoverLocator(n, target_girth)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    parts = [
        Part(loc.part_name(pid), edges, target_girth)
        for pid, edges in group_edges(pairs, loc.locate(pairs[:, 0], pairs[:, 1]))
    ]
    return EdgePartition(HostSpec.complete(n), parts), loc.plan


def reference_cover_bipartite(m: int, target_girth: int) -> EdgePartition:
    """``cover_bipartite`` by the incidences of each shifted copy in turn:
    the lines of its first m points, those below m kept in point-major
    order.  The oracle for the shared-grid build."""
    arity = {8: 3, 12: 5}[target_girth]
    q = prime_for_side(m, arity)
    parts = []
    for shift in itertools.product(range(q), repeat=arity - 1):
        rows = _incident_lines(q, arity, shift, m)
        points, k = np.nonzero(rows < m)
        edges = np.stack([points, m + rows[points, k]], axis=1)
        parts.append(Part("s" + "_".join(map(str, shift)), edges, target_girth))
    return EdgePartition(HostSpec.bipartite(m, m), parts)


def disjoint_union(graphs) -> Graph:
    """Disjoint union with vertices relabeled by block offsets.

    The girth of the result is the minimum girth of the inputs.
    """
    offsets = np.cumsum([0] + [g.n for g in graphs])
    blocks = [g._pairs() + offset for g, offset in zip(graphs, offsets.tolist())]
    return Graph(int(offsets[-1]), np.concatenate([np.empty((0, 2), np.int64)] + blocks))


def is_forest(edges) -> bool:
    """networkx's verdict on the graph with these edges; no edges is a forest."""
    g = nx.Graph(np.asarray(edges).reshape(-1, 2).tolist())
    return g.number_of_edges() == 0 or nx.is_forest(g)


def searched_as(edges) -> str:
    """The ``decided_by`` that ``verify_partition`` must give a part with
    these edges that no certificate decides."""
    return "acyclic" if is_forest(edges) else "search"


def traced_peak(f):
    """(bytes allocated at the peak of ``f()`` above what was live before,
    ``f()``), by tracemalloc, which numpy reports its buffers to."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def tuple_to_index(coords: tuple[int, ...], q: int) -> int:
    """Canonical mixed-radix (big-endian base q) index of a coordinate tuple."""
    idx = 0
    for c in coords:
        if not 0 <= c < q:
            raise ValueError(f"coordinate {c} outside F_{q}")
        idx = idx * q + c
    return idx


def point_id(plg, coords: tuple[int, ...]) -> int:
    """Vertex id of the point with ``coords`` in a ``PointLineGraph``."""
    return tuple_to_index(coords, plg.q)


def line_id(plg, coords: tuple[int, ...]) -> int:
    """Vertex id of the line with ``coords`` in a ``PointLineGraph``."""
    return plg.n_side + tuple_to_index(coords, plg.q)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seeded random d-regular simple graph."""
    g = nx.random_regular_graph(d, n, seed=seed)
    return Graph(n, list(g.edges()))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def skewed_graph(n: int, draws: int, seed: int) -> Graph:
    """Edges uv with v uniform and u uniform or, with probability 1/2,
    int(r**3 * n) for a uniform r in [0, 1); loops and repeats dropped."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, (2, draws))
    r, coin = rng.random((2, draws))
    u = np.where(coin < 0.5, (r**3 * n).astype(np.int64), u)
    return Graph(n, np.unique(np.sort(np.stack([u, v], axis=1)[u != v], axis=1), axis=0))


def all_roots_girth(g: Graph, cap=None):
    """min(girth, cap) by the kernel's BFS from every vertex (cap n + 1 by default).

    Independent of the root sets that ``Graph`` chooses: the oracle for
    certified and cycle-hitting roots.
    """
    cap = g.n + 1 if cap is None else cap
    if g.m == 0:
        return cap
    indptr, indices = g._csr
    return girth_scan(indptr, indices, g.n, cap, np.arange(g.n))


def reference_cycle_hitting_roots(g: Graph) -> np.ndarray:
    """Sorted vertices meeting every cycle: the 2-core by peeling, then a
    BFS 2-colouring of each core component from its smallest vertex, which
    keeps the smaller colour class of a bipartite component (the smallest
    vertex's class on a tie) and all of any other.  The oracle for
    ``Graph._cycle_hitting_roots``, which reads the classes off components."""
    deg = np.diff(g._csr[0])
    peel = np.flatnonzero(deg < 2).tolist()
    in_core = (deg >= 2).tolist()
    deg = deg.tolist()
    indptr, indices = (a.tolist() for a in g._csr)
    while peel:
        v = peel.pop()
        for w in indices[indptr[v] : indptr[v + 1]]:
            if in_core[w]:
                deg[w] -= 1
                if deg[w] < 2:
                    in_core[w] = False
                    peel.append(w)
    colour = [-1] * g.n
    roots = []
    for s in np.flatnonzero(in_core).tolist():
        if colour[s] >= 0:
            continue
        colour[s] = 0
        component = [s]
        bipartite = True
        for u in component:  # BFS: the loop also visits what it appends
            cu = colour[u]
            for w in indices[indptr[u] : indptr[u + 1]]:
                if not in_core[w]:
                    continue
                if colour[w] < 0:
                    colour[w] = 1 - cu
                    component.append(w)
                elif colour[w] == cu:
                    bipartite = False
        if bipartite:
            zeros = [v for v in component if colour[v] == 0]
            ones = [v for v in component if colour[v] == 1]
            component = ones if len(ones) < len(zeros) else zeros
        roots.extend(component)
    roots.sort()
    return np.array(roots, dtype=np.int32)


def random_pieces_graph(seed: int) -> Graph:
    """A seeded disjoint union of random pieces, vertex ids shuffled: cycles
    (odd and even), trees, sparse random graphs, complete bipartite graphs
    (equal sides among them), isolated vertices, some with a pendant path."""
    rng = random.Random(seed)
    edges, n = [], 0
    for _ in range(rng.randrange(1, 6)):
        kind = rng.choice(("cycle", "tree", "sparse", "bipartite", "isolated"))
        size = rng.randrange(3, 12)
        if kind == "cycle":
            edges += [(n + i, n + (i + 1) % size) for i in range(size)]
        elif kind == "tree":
            edges += [(n + i, n + rng.randrange(i)) for i in range(1, size)]
        elif kind == "sparse":
            edges += [(n + i, n + j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3]
        elif kind == "bipartite":
            a = rng.randrange(1, size)
            edges += [(n + i, n + j) for i in range(a) for j in range(a, size)]
        if kind != "isolated" and rng.random() < 0.5:  # a pendant path
            length = rng.randrange(1, 5)
            path = [n + rng.randrange(size)] + list(range(n + size, n + size + length))
            edges += list(zip(path, path[1:]))
            size += length
        n += size
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


# Tokens that bare int() reads or refuses differently from the edge-list
# grammar's integers, for the reader tests.
WEIRD_TOKENS = ["+1", "-1", "01", "1.0", "1.5", "1_0", "\u0661", "\uff11", "1e0", "0x1", "#", "1#", "x", ""]
# The same, with counts and two-digit Arabic-Indic ten, for the header and
# manifest number tests.
COUNT_TOKENS = ["0", "3", "-0", "+2", "\u0661\u0660"] + WEIRD_TOKENS


def is_count(token: str) -> bool:
    """Whether ``token`` is a count of the file formats: an ASCII decimal
    integer, optionally signed, that is not negative."""
    return re.fullmatch(r"[+-]?[0-9]+", token) is not None and int(token) >= 0


def int_value(token: str) -> int:
    """What bare ``int()`` made of ``token`` if that is 0..10, else 0: the
    value a test file holding the token is made valid for."""
    try:
        value = int(token)
    except ValueError:
        return 0
    return value if 0 <= value <= 10 else 0


def read_edge_list_lines(path) -> Graph:
    """Line-by-line edge-list reader with the format's original semantics.

    Each stripped line that is blank or starts with '#' is skipped; the first
    other line is the header; every later one must split into two ``int()``
    tokens with u < v.  The oracle for ``read_edge_list``, which parses the
    body with numpy instead.
    """
    header = None
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split()
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: malformed edge line {line!r}") from None
            if not u < v:
                raise ValueError(f"{path}, line {lineno}: edge ({u},{v}) not in u < v form")
            edges.append((u, v))
    if header is None:
        raise ValueError(f"{path}: empty edge-list file")
    if len(header) not in (2, 5) or (len(header) == 5 and header[2] != "bipartite"):
        raise ValueError(f"{path}: malformed header {' '.join(header)}")
    n, m = int(header[0]), int(header[1])
    side = None
    if len(header) == 5:
        a, b = int(header[3]), int(header[4])
        if a + b != n:
            raise ValueError(f"{path}: bipartition sizes {a}+{b} != n={n}")
        side = [0] * a + [1] * b
    if m != len(edges):
        raise ValueError(f"{path}: header claims {m} edges, file has {len(edges)}")
    return Graph(n, edges, side=side)


def reference_degeneracy_order(g: Graph) -> list[int]:
    """Greedy minimum-degree peel of every vertex, ties broken by smallest
    vertex id, on a heap of (degree, vertex) tuples: the oracle for
    ``degeneracy_peel(g, math.inf)``."""
    deg = np.diff(g._csr[0]).tolist()
    indptr, indices = (a.tolist() for a in g._csr)
    removed = [False] * g.n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


def forest_decompose_buckets(g: Graph, peel: list[int]) -> list[Graph]:
    """Forests of the edges of ``g`` with an end in ``peel``, by right-edge
    rank in the order of ``peel`` and then the other vertices in id order,
    filled into per-rank bucket lists.

    The scalar form of ``forest_decompose``: the oracle for its forests.
    """
    order = peel + sorted(set(range(g.n)) - set(peel))
    pos = {v: i for i, v in enumerate(order)}
    peeled = set(peel)
    right_edges = [[] for _ in range(g.n)]
    for u, v in g.edges():
        if u in peeled or v in peeled:
            if pos[u] < pos[v]:
                right_edges[u].append(v)
            else:
                right_edges[v].append(u)
    buckets = [[] for _ in range(max(map(len, right_edges), default=0))]
    for u in range(g.n):
        for rank, w in enumerate(sorted(right_edges[u], key=lambda x: pos[x])):
            buckets[rank].append((u, w) if u < w else (w, u))
    return [Graph(g.n, b, side=g.side) for b in buckets if b]


def first_cover_wins_dict(n: int, seed_graph: Graph, copy_count: int, rng_seed: int):
    """(copies, assignment, uncovered) of the permuted-copy cover, one edge
    at a time: ``assignment`` maps each covered K_n edge to the first copy
    that covers it.  The oracle for ``cover_random``."""
    assignment = {}
    copies = []
    for i in range(copy_count):
        perm = list(range(n))
        random.Random(rng_seed * 1_000_003 + i).shuffle(perm)
        copies.append(perm)
        for u, v in seed_graph.edges():
            a, b = perm[u], perm[v]
            assignment.setdefault((min(a, b), max(a, b)), i)
    uncovered = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in assignment]
    return copies, assignment, uncovered


@pytest.fixture
def petersen():
    return petersen_graph()


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False, help="run slow tests"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
