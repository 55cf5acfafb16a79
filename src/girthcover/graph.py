"""Immutable simple graphs and the exact combinatorial kernels.

Everything downstream leans on this module being exact: girth, fixed-length
cycle detection, degeneracy peeling, forest decompositions and the locally
injective homomorphism check are all computed combinatorially, never
approximated.  Cycle detection deliberately avoids walk-counting shortcuts
(matrix traces count closed walks, not cycles).  A graph stores its
adjacency once, as CSR arrays built with numpy, and every kernel reads them.

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

Edge lists are text.  The first line that is neither blank nor a comment is
the header, ``n m`` or ``n m bipartite a b``; every later one is an edge
``u v`` with u < v: exactly two ASCII decimal integers (optionally signed)
separated by whitespace.  A comment line has ``#`` as its first non-blank
character, and ``#`` anywhere else is an error.  Line ends may be LF or CRLF.
"""

from __future__ import annotations

import heapq
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._kernels import girth_scan

INFINITE = math.inf

_CHECK_BLOCK = 512  # rows per block of the automorphism check


class Graph:
    """A simple undirected graph, frozen after construction.

    Vertices are 0..n-1.  The adjacency is stored once, as CSR arrays with
    sorted rows: int64 ``indptr`` (n + 1) and int32 ``indices`` (2m).
    ``edges`` is any iterable of (u, v) pairs or an (m, 2) integer array.
    Optional ``side`` tags (0/1 per vertex) declare a bipartition, which
    every edge must cross.  Loops and duplicate edges are errors, not
    silently merged: partition exactness checks need multiplicity awareness.

    ``automorphisms``, if given, is a zero-argument callable returning
    generator permutations of 0..n-1 (each a sequence with ``perm[v]`` the
    image of v) that are claimed to be automorphisms.  It is called on the
    first girth query, never during construction, and the claim is checked
    on every girth query (a bad generator raises ``ValueError``) before the
    search uses it to root at one vertex per orbit.
    """

    __slots__ = ("n", "side", "_csr", "_automorphisms")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        side: Optional[Sequence[int]] = None,
        automorphisms: Optional[Callable[[], Sequence[Sequence[int]]]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        pairs = np.asarray(edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges))
        if len(pairs) == 0:
            pairs = np.empty((0, 2), np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("edges must be pairs of integer vertex ids")
        u, w = pairs.astype(np.int64, copy=False).T
        lo, hi = np.minimum(u, w), np.maximum(u, w)

        def first(mask):  # the first edge the mask flags, as (lo, hi), or None
            i = np.flatnonzero(mask)
            return (int(lo[i[0]]), int(hi[i[0]])) if i.size else None

        if bad := first((lo < 0) | (hi >= n)):
            raise ValueError(f"edge {bad} out of range for n={n}")
        if bad := first(lo == hi):
            raise ValueError(f"loop at vertex {bad[0]}")
        # Both orientations of every edge, sorted: the CSR rows in order, and
        # an edge given twice (either way round) shows as two equal keys.
        keys = np.sort(np.concatenate([u * n + w, w * n + u]))
        if (keys[1:] == keys[:-1]).any():
            repeat = np.ones(len(u), bool)
            repeat[np.unique(lo * n + hi, return_index=True)[1]] = False
            raise ValueError(f"duplicate edge {first(repeat)}")
        if side is not None:
            side = np.asarray(side)
            if side.shape != (n,) or not np.isin(side, (0, 1)).all():
                raise ValueError(f"side must be 0 or 1 for each of the {n} vertices")
            if bad := first(side[u] == side[w]):
                raise ValueError(f"edge {bad} does not cross the bipartition")
            side = tuple(side.astype(np.int64).tolist())
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        self.n = n
        self.side = side
        self._csr = (indptr, (keys % n).astype(np.int32))
        self._automorphisms = automorphisms

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._csr[1]) // 2

    def neighbors(self, v: int) -> list[int]:
        lo, hi = self._csr[0][v : v + 2].tolist()
        return self._csr[1][lo:hi].tolist()

    def degree(self, v: int) -> int:
        lo, hi = self._csr[0][v : v + 2].tolist()
        return hi - lo

    def max_degree(self) -> int:
        return int(np.diff(self._csr[0]).max(initial=0))

    def edges(self):
        """Iterate edges as (u, v) with u < v, in sorted order.  The tuples
        share one int object per vertex, as parts and host specs keep them."""
        vertex = list(range(self.n)).__getitem__
        tails, heads = self._pairs().T.tolist()
        return zip(map(vertex, tails), map(vertex, heads))

    def _pairs(self):
        """The (m, 2) int64 array of edges (u, v), u < v, in sorted order."""
        indptr, indices = self._csr
        tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        upper = tails < indices
        return np.stack([tails[upper], indices[upper]], axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def _csr_arrays(self):
        """The stored adjacency: (int64 indptr, int32 indices)."""
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

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
        if self.m == 0 or len(roots) == 0:  # no edges, or no cycle to meet
            return cap
        indptr, indices = self._csr
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
        deg = np.diff(self._csr[0])
        peel = np.flatnonzero(deg < 2).tolist()
        in_core = (deg >= 2).tolist()
        deg = deg.tolist()
        indptr, indices = (a.tolist() for a in self._csr)
        while peel:
            v = peel.pop()
            for w in indices[indptr[v] : indptr[v + 1]]:
                if in_core[w]:
                    deg[w] -= 1
                    if deg[w] < 2:
                        in_core[w] = False
                        peel.append(w)
        colour = [-1] * self.n
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
        indptr, indices = self._csr
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
        The search runs on the non-isolated vertices relabelled 0..k-1 in
        order, so a sparse part of a large host costs O(k + m) per start,
        not O(n); the relabelling keeps vertex order, hence the anchoring.
        """
        if not 3 <= length <= 16:
            raise ValueError(f"cycle length {length} outside supported range [3, 16]")
        if self.m < length:
            return False
        if self.side is not None and length % 2 == 1:
            return False
        indptr, indices = self._csr
        deg = np.diff(indptr)
        active = np.flatnonzero(deg)
        label = np.cumsum(deg > 0) - 1  # new id of each non-isolated vertex
        starts = np.flatnonzero(deg[active] >= 2).tolist()
        indptr = indptr[np.append(active, self.n)].tolist()
        indices = label[indices].tolist()
        return any(self._cycle_through(s, length, indptr, indices) for s in starts)

    @staticmethod
    def _cycle_through(s: int, length: int, indptr: list, indices: list) -> bool:
        # Search cycles whose minimum vertex is s, using vertices > s only.
        dist = Graph._bfs_dist_from(s, indptr, indices)
        on_path = [False] * (len(indptr) - 1)
        on_path[s] = True

        def dfs(v: int, steps: int) -> bool:
            remaining = length - steps
            for w in indices[indptr[v] : indptr[v + 1]]:
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

    @staticmethod
    def _bfs_dist_from(s: int, indptr: list, indices: list) -> list[int]:
        # Distances from s in the subgraph induced on {v : v >= s}.
        n = len(indptr) - 1
        dist = [n + 1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in indices[indptr[u] : indptr[u + 1]]:
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


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with vertices relabeled by block offsets.

    The girth of the result is the minimum girth of the inputs.
    """
    offsets = np.cumsum([0] + [g.n for g in graphs])
    blocks = [g._pairs() + offset for g, offset in zip(graphs, offsets.tolist())]
    return Graph(int(offsets[-1]), np.concatenate([np.empty((0, 2), np.int64)] + blocks))


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
    deg = np.diff(g._csr_arrays()[0]).tolist()
    indptr, indices = (a.tolist() for a in g._csr_arrays())
    removed = [False] * g.n
    heap = [(d, v) for v, d in enumerate(deg)]
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
        for w in indices[indptr[v] : indptr[v + 1]]:
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
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    deg = np.diff(g._csr_arrays()[0])
    heap = np.flatnonzero(deg < threshold).tolist()  # sorted, so already a heap
    deg = deg.tolist()
    indptr, indices = (a.tolist() for a in g._csr_arrays())
    removed = [False] * g.n
    in_heap = set(heap)
    peel = []
    while heap:
        v = heapq.heappop(heap)
        in_heap.discard(v)
        if removed[v]:
            continue
        removed[v] = True
        peel.append(v)
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < threshold and w not in in_heap:
                    heapq.heappush(heap, w)
                    in_heap.add(w)
    removed = np.array(removed, dtype=bool)
    full_order = peel + np.flatnonzero(~removed).tolist()
    pairs = g._pairs()
    in_shell = removed[pairs].any(axis=1)
    core = Graph(g.n, pairs[~in_shell], side=g.side)
    shell = Graph(g.n, pairs[in_shell], side=g.side)
    pos = np.empty(g.n, np.int64)
    pos[full_order] = np.arange(g.n)
    tails, heads = pairs[in_shell].T
    earlier = np.where(pos[tails] < pos[heads], tails, heads)
    rdeg = np.bincount(earlier, minlength=g.n)
    return core, shell, DegeneracyOrder(tuple(full_order), tuple(rdeg.tolist()))


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
# Shared edge-list text format (grammar in the module docstring).  The body is
# parsed by numpy's C reader; a file that fails is read again line by line only
# to name the first bad line.

_WRITE_BLOCK = 8192  # rows formatted per write call
_INTEGER = re.compile(r"[+-]?[0-9]+")
_COMMENT_AFTER_DATA = re.compile(r"^[^\S\n]*[^\s#][^\n]*#", re.M)


def _write_rows(fh, line_format: str, rows: np.ndarray) -> None:
    """Write each row of the 2-d integer array ``rows`` with ``line_format``."""
    for lo in range(0, len(rows), _WRITE_BLOCK):
        block = rows[lo : lo + _WRITE_BLOCK]
        fh.write((line_format * len(block)) % tuple(block.ravel().tolist()))


def write_edge_list(g: Graph, path) -> None:
    if g.side is not None and list(g.side) != sorted(g.side):
        raise ValueError("the header can only record sides of the form [0]*a + [1]*b")
    with open(path, "w") as fh:
        if g.side is not None:
            fh.write(f"{g.n} {g.m} bipartite {g.side.count(0)} {g.side.count(1)}\n")
        else:
            fh.write(f"{g.n} {g.m}\n")
        _write_rows(fh, "%d %d\n", g._pairs())


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        header = None
        header_line = 0
        while header is None:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: empty edge-list file")
            header_line += 1
            line = line.strip()
            if line and not line.startswith("#"):
                header = line.split()
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                # A body without edges is valid.  Older numpy parses a field
                # such as '1.5' as a float and casts it, with a deprecation
                # warning; as an error, that warning fails the parse.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                warnings.filterwarnings("error", "loadtxt", DeprecationWarning)
                pairs = np.loadtxt(fh, dtype=np.int64, ndmin=2)
        except (ValueError, DeprecationWarning) as exc:
            raise _edge_line_error(path, header_line, exc) from None
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        fh.seek(body)
        if pairs.shape[1] != 2 or (pairs[:, 0] >= pairs[:, 1]).any() or _comment_after_data(fh):
            raise _edge_line_error(path, header_line, "bad edge line")
    if len(header) not in (2, 5) or (len(header) == 5 and header[2] != "bipartite"):
        raise ValueError(f"{path}: malformed header {' '.join(header)}")
    n, m = int(header[0]), int(header[1])
    side = None
    if len(header) == 5:
        a, b = int(header[3]), int(header[4])
        if a + b != n:
            raise ValueError(f"{path}: bipartition sizes {a}+{b} != n={n}")
        side = [0] * a + [1] * b
    if m != len(pairs):
        raise ValueError(f"{path}, line {header_line}: header claims {m} edges, file has {len(pairs)}")
    return Graph(n, pairs, side=side)


def _comment_after_data(fh) -> bool:
    """Does a line of the rest of ``fh`` hold a '#' after other text?"""
    text = fh.read()
    return "#" in text and _COMMENT_AFTER_DATA.search(text) is not None


def _edge_line_error(path, header_line: int, reason) -> ValueError:
    """The error for the first edge line after ``header_line`` that the
    format rejects, found line by line.  Called only once the array parse or
    its checks have failed; with no line to name, the error gives ``reason``."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if lineno <= header_line or not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
                return ValueError(f"{path}, line {lineno}: malformed edge line {line!r}")
            u, v = map(int, fields)
            if not u < v:
                return ValueError(f"{path}, line {lineno}: edge ({u},{v}) not in u < v form")
    return ValueError(f"{path}: malformed edge list ({reason})")
