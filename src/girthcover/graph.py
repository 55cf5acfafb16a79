"""Immutable simple graphs and the exact combinatorial kernels.

Everything downstream leans on this module being exact: girth, fixed-length
cycle detection, degeneracy peeling, forest decompositions and the locally
injective homomorphism check are all computed combinatorially, never
approximated.  Cycle detection deliberately avoids walk-counting shortcuts
(matrix traces count closed walks, not cycles).

The girth search runs a BFS from a set of roots that must contain a vertex
of some shortest cycle.  A graph built without an automorphism certificate
roots at a set that meets every cycle: every cycle lies in the 2-core, and
in a bipartite component of the 2-core every cycle alternates between the
two colour classes, so the smaller class of each bipartite core component
together with all of every other core component will do (a forest gets no
roots).  A graph that carries a certificate (generator permutations, as the
algebraic constructions attach) has every generator checked to be an
automorphism on each girth query, and then roots at one vertex per orbit
of the group they generate: an automorphism carries a shortest cycle
through any vertex onto a shortest cycle through that vertex's orbit
representative, so the minimum over these roots is still the exact girth.
Certificates are never inherited by derived graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._kernels import girth_scan

INFINITE = math.inf

_CHECK_BLOCK = 512  # rows per block of the automorphism check


class Graph:
    """A simple undirected graph, frozen after construction.

    Vertices are 0..n-1.  Optional ``side`` tags (0/1 per vertex) declare a
    bipartition, in which case every edge must cross it.  Loops and
    duplicate edges in the input are errors, not silently merged: partition
    exactness checks need multiplicity awareness.

    ``automorphisms``, if given, is a zero-argument callable returning
    generator permutations of 0..n-1 (each a sequence with ``perm[v]`` the
    image of v) that are claimed to be automorphisms.  It is called on the
    first girth query, never during construction, and the claim is checked
    on every girth query (a bad generator raises ``ValueError``) before the
    search uses it to root at one vertex per orbit.
    """

    __slots__ = ("n", "_adj", "_m", "side", "_csr", "_nbr_sets", "_automorphisms")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        side: Optional[Sequence[int]] = None,
        automorphisms: Optional[Callable[[], Sequence[Sequence[int]]]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            if side is not None and side[u] == side[v]:
                raise ValueError(f"edge {key} does not cross the bipartition")
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        self.n = n
        self._m = m
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.side = tuple(side) if side is not None else None
        self._csr = None
        self._nbr_sets = None
        self._automorphisms = automorphisms

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def edges(self):
        """Iterate edges as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        if self._nbr_sets is None:
            self._nbr_sets = tuple(frozenset(a) for a in self._adj)
        return v in self._nbr_sets[u]

    def _csr_arrays(self):
        if self._csr is None:
            indptr = np.zeros(self.n + 1, np.int64)
            for v in range(self.n):
                indptr[v + 1] = indptr[v] + len(self._adj[v])
            indices = np.empty(indptr[-1], np.int32)
            pos = 0
            for v in range(self.n):
                for w in self._adj[v]:
                    indices[pos] = w
                    pos += 1
            self._csr = (indptr, indices)
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"

    # -- cycle structure -----------------------------------------------

    def girth(self):
        """Exact girth: length of a shortest cycle, ``math.inf`` for forests.

        Pruned BFS from a vertex set meeting every cycle, or from one vertex
        per orbit when the graph carries a checked automorphism certificate;
        O(roots*E) worst case, exact by the min-over-roots argument in the
        kernel module.
        """
        cap = self.n + 1
        best = self._girth_search(cap)
        return INFINITE if best >= cap else best

    def girth_exceeds(self, bound: int) -> bool:
        """True iff girth > bound, without computing the girth exactly.

        Cheaper than :meth:`girth` because the BFS depth is capped at the
        bound from the start.
        """
        return self._girth_search(bound + 1) > bound

    def _girth_search(self, cap: int) -> int:
        # min(girth, cap); the certificate is checked even when m == 0.
        roots = self._girth_roots()
        if self._m == 0 or len(roots) == 0:  # no edges, or no cycle to meet
            return cap
        indptr, indices = self._csr_arrays()
        return int(girth_scan(indptr, indices, self.n, cap, roots))

    def _girth_roots(self):
        """One root per orbit of the certified automorphisms, else cycle-hitting roots."""
        if self._automorphisms is None:
            return self._cycle_hitting_roots()
        if callable(self._automorphisms):  # built on the first girth query
            self._automorphisms = tuple(self._automorphisms())
        checked = [self._checked_automorphism(perm) for perm in self._automorphisms]
        parent = list(range(self.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for perm in checked:
            for v, w in enumerate(perm.tolist()):
                rv, rw = find(v), find(w)
                if rv != rw:
                    parent[max(rv, rw)] = min(rv, rw)
        return np.array([v for v in range(self.n) if parent[v] == v], dtype=np.int32)

    def _cycle_hitting_roots(self):
        """Sorted vertices meeting every cycle, per component of the 2-core:
        its smaller colour class if it is bipartite, else all of it."""
        adj = self._adj
        n = self.n
        deg = [len(nbrs) for nbrs in adj]
        in_core = [d >= 2 for d in deg]
        peel = [v for v in range(n) if not in_core[v]]
        while peel:
            for w in adj[peel.pop()]:
                if in_core[w]:
                    deg[w] -= 1
                    if deg[w] < 2:
                        in_core[w] = False
                        peel.append(w)
        colour = [-1] * n
        roots = []
        for s in range(n):
            if not in_core[s] or colour[s] >= 0:
                continue
            colour[s] = 0
            component = [s]
            bipartite = True
            for u in component:  # BFS: the loop also visits what it appends
                cu = colour[u]
                for w in adj[u]:
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

    def _checked_automorphism(self, perm):
        """``perm`` as an int64 array, or ``ValueError`` unless it is an automorphism."""
        n = self.n
        not_permutation = f"automorphism generator is not a permutation of 0..{n - 1}"
        perm = np.asarray(perm)
        if perm.shape != (n,) or perm.dtype.kind not in "iu" or ((perm < 0) | (perm >= n)).any():
            raise ValueError(not_permutation)
        perm = perm.astype(np.int64)
        if (np.bincount(perm, minlength=n) != 1).any():
            raise ValueError(not_permutation)
        indptr, indices = self._csr_arrays()
        # The directed-edge keys u*n + w come out sorted, because the CSR rows
        # and each row's neighbours are.  A bijection on vertices that maps
        # every edge to an edge maps E onto E.  Rows are checked in blocks so
        # that the extra memory stays small next to the graph's own.
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
        for lo in range(0, n, _CHECK_BLOCK):
            hi = min(lo + _CHECK_BLOCK, n)
            tail_images = np.repeat(perm[lo:hi], np.diff(indptr[lo : hi + 1]))
            images = tail_images * n + perm[indices[indptr[lo] : indptr[hi]]]
            if (keys.take(np.searchsorted(keys, images), mode="clip") != images).any():
                raise ValueError("automorphism generator maps an edge to a non-edge")
        return perm

    def has_cycle_of_length(self, length: int) -> bool:
        """Exact: does the graph contain a cycle of length exactly ``length``?

        DFS path enumeration anchored at the smallest cycle vertex, pruned by
        BFS distance back to the anchor.  Supported for 3 <= length <= 16.
        """
        if not 3 <= length <= 16:
            raise ValueError(f"cycle length {length} outside supported range [3, 16]")
        if self._m < length:
            return False
        if self.side is not None and length % 2 == 1:
            return False
        for s in range(self.n):
            if len(self._adj[s]) < 2:
                continue
            if self._cycle_through(s, length):
                return True
        return False

    def _cycle_through(self, s: int, length: int) -> bool:
        # Search cycles whose minimum vertex is s, using vertices > s only.
        dist = self._bfs_dist_from(s)
        adj = self._adj
        on_path = [False] * self.n
        on_path[s] = True

        def dfs(v: int, steps: int) -> bool:
            remaining = length - steps
            for w in adj[v]:
                if w == s:
                    if remaining == 1:
                        return True
                    continue
                if w < s or on_path[w]:
                    continue
                if dist[w] > remaining - 1:
                    continue
                on_path[w] = True
                if dfs(w, steps + 1):
                    on_path[w] = False
                    return True
                on_path[w] = False
            return False

        return dfs(s, 0)

    def _bfs_dist_from(self, s: int) -> list[int]:
        # Distances from s in the subgraph induced on {v : v >= s}.
        dist = [self.n + 1] * self.n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
                    if w >= s and dist[w] > dist[u] + 1:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    # -- derived graphs ------------------------------------------------

    def subgraph_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Spanning subgraph on the same vertex set with the given edges."""
        return Graph(self.n, edges, side=self.side)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    side = [0] * a + [1] * b
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)], side=side)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with vertices relabeled by block offsets.

    The girth of the result is the minimum girth of the inputs.
    """
    n = sum(g.n for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((offset + u, offset + v) for u, v in g.edges())
        offset += g.n
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Homomorphisms


def is_locally_injective_hom(f: Graph, g: Graph, phi: Sequence[int]) -> bool:
    """Check that phi is a locally injective homomorphism from f to g.

    Requires (a) every edge of f maps to an edge of g, and (b) for every
    vertex v of f, phi restricted to the neighborhood of v is injective.
    phi must be total: a value in [0, g.n) for every vertex of f.
    """
    if len(phi) != f.n:
        raise ValueError("phi must map every vertex of f")
    for x in phi:
        if not 0 <= x < g.n:
            raise ValueError(f"phi value {x} outside target vertex range")
    for u, v in f.edges():
        if phi[u] == phi[v] or not g.has_edge(phi[u], phi[v]):
            return False
    for v in range(f.n):
        images = [phi[w] for w in f.neighbors(v)]
        if len(set(images)) != len(images):
            return False
    return True


# ---------------------------------------------------------------------------
# Degeneracy and forests


@dataclass(frozen=True)
class DegeneracyOrder:
    """A vertex elimination order with per-vertex forward degrees.

    ``right_degree[v]`` is the number of neighbors of v that appear after v
    in ``order`` (with respect to the graph the order was computed for).
    """

    order: tuple[int, ...]
    right_degree: tuple[int, ...]

    @property
    def degeneracy(self) -> int:
        return max(self.right_degree, default=0)


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Greedy minimum-degree peel, ties broken by smallest vertex id."""
    import heapq

    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    order = []
    rdeg = [0] * g.n
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        rdeg[v] = deg[v]
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return DegeneracyOrder(tuple(order), tuple(rdeg))


def degeneracy_peel(g: Graph, threshold: int) -> tuple[Graph, Graph, DegeneracyOrder]:
    """Repeatedly delete vertices of current degree < threshold.

    Returns (core, shell, order): ``core`` is the subgraph left over (empty
    or of minimum degree >= threshold), ``shell`` is the graph on V(g) whose
    edges are E(g) \\ E(core), and ``order`` witnesses that the shell has
    degeneracy < threshold (every vertex has right_degree < threshold in the
    shell).  Peeling removes the smallest-id eligible vertex first.
    """
    import heapq

    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    heap = [v for v in range(g.n) if deg[v] < threshold]
    heapq.heapify(heap)
    in_heap = set(heap)
    peel = []
    while heap:
        v = heapq.heappop(heap)
        in_heap.discard(v)
        if removed[v]:
            continue
        removed[v] = True
        peel.append(v)
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < threshold and w not in in_heap:
                    heapq.heappush(heap, w)
                    in_heap.add(w)
    core_vertices = [v for v in range(g.n) if not removed[v]]
    core_edges = []
    shell_edges = []
    for u, v in g.edges():
        if removed[u] or removed[v]:
            shell_edges.append((u, v))
        else:
            core_edges.append((u, v))
    core = Graph(g.n, core_edges, side=g.side)
    shell = Graph(g.n, shell_edges, side=g.side)
    full_order = tuple(peel) + tuple(core_vertices)
    pos = {v: i for i, v in enumerate(full_order)}
    rdeg = [0] * g.n
    for u, v in shell_edges:
        earlier = u if pos[u] < pos[v] else v
        rdeg[earlier] += 1
    return core, shell, DegeneracyOrder(full_order, tuple(rdeg))


def forest_decompose(g: Graph, order: DegeneracyOrder) -> list[Graph]:
    """Partition E(g) into at most d edge-disjoint forests.

    d is the maximum right-degree of ``order`` with respect to g.  The
    forest index of an edge (u, v) with u earlier in the order is its rank
    among u's right-edges (by neighbor position).  Each class is acyclic:
    the earliest-ordered vertex of any would-be cycle would need two
    right-edges of the same rank.
    """
    if sorted(order.order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order.order)}
    right_edges: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        if pos[u] < pos[v]:
            right_edges[u].append(v)
        else:
            right_edges[v].append(u)
    for v in range(g.n):
        if len(right_edges[v]) != order.right_degree[v]:
            raise ValueError(
                f"order is not valid for this graph: vertex {v} has "
                f"{len(right_edges[v])} right-edges, order claims {order.right_degree[v]}"
            )
    d = order.degeneracy
    if g.m == 0:
        return []
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for u in range(g.n):
        for rank, w in enumerate(sorted(right_edges[u], key=lambda x: pos[x])):
            buckets[rank].append((u, w) if u < w else (w, u))
    return [g.subgraph_edges(b) for b in buckets if b]


# ---------------------------------------------------------------------------
# Shared edge-list text format
#
# Header line: "n m" or "n m bipartite a b"; then one "u v" pair per line,
# 0-indexed with u < v.  Lines starting with '#' are comments.


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        if g.side is not None:
            a = sum(1 for s in g.side if s == 0)
            b = g.n - a
            fh.write(f"{g.n} {g.m} bipartite {a} {b}\n")
        else:
            fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    header = None
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split()
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
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
    for u, v in edges:
        if not u < v:
            raise ValueError(f"{path}: edge ({u},{v}) not in u < v form")
    return Graph(n, edges, side=side)
