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
roots).  Components and colour classes both come from one ``_components``
call on the core's bipartite double cover.  A graph that carries a
certificate (generator permutations, as the algebraic constructions attach)
has every generator checked to be an automorphism on each girth query (the
sorted images of its arcs must be its sorted arcs), and then roots at one
vertex per orbit of the group they generate: an automorphism carries a
shortest cycle through any vertex onto a shortest cycle through that
vertex's orbit representative, so the minimum over these roots is still the
exact girth.  A graph with sides needs only the orbits that meet one side,
the side with fewer of them, since every cycle meets both.  Certificates
are never inherited by derived graphs.

Edge lists are text.  The first line that is neither blank nor a comment is
the header, ``n m`` or ``n m bipartite a b``; every later one is an edge
``u v`` with u < v: exactly two ASCII decimal integers (optionally signed)
separated by whitespace.  A header number, like a partition manifest's, is
a count: such an integer, not negative (``_count``).  A comment line has
``#`` as its first non-blank character, and ``#`` anywhere else is an error;
every reader skips blank and comment lines alike (``_content_lines``).  Line
ends may be LF or CRLF.
Rows are written by a numpy digit formatter and read in chunks of whole
lines: a chunk in the canonical form the writer produces is parsed by
``np.fromstring``, any other by numpy's ``loadtxt``, which stays the one
parser of hand-written text (see "Shared edge-list text format" below).
"""

from __future__ import annotations

import heapq
import io
import itertools
import math
import os
import re
import warnings
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._kernels import girth_scan

INFINITE = math.inf

_RUN_EDGES = 8192  # edges per run of parts (``_runs``) and per block of the array locate
_ROW_BLOCK = 16384  # adjacency entries (two per edge) per row block of Graph._row_blocks


def edge_array(edges) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array: any iterable of (u, v) pairs or an
    (m, 2) integer array (returned as is if already int64)."""
    pairs = np.asarray(edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges))
    if len(pairs) == 0:
        return np.empty((0, 2), np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("edges must be pairs of integer vertex ids")
    return pairs.astype(np.int64, copy=False)


def _key_fits(*spans: int) -> bool:
    """Whether every int64 key packed from digits 0 <= d_i < spans[i], the
    sum of each d_i times the product of the later spans, fits in int64.
    The largest such key is the product of the spans less one, computed
    here in Python ints; a span of 0 or less admits no digit."""
    return math.prod(max(int(span), 0) for span in spans) <= 1 << 63


def _stable_argsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(keys, kind="stable")`` of the int64 ``keys``, and the
    keys in that order.  Where the distinct packed keys (key - lowest) * m
    + index fit in int64, one sort of them gives both; otherwise a stable
    argsort does."""
    keys = np.asarray(keys, np.int64)
    m = len(keys)
    low, high = (int(keys.min()), int(keys.max())) if m else (0, 0)
    if not _key_fits(high - low + 1, m):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = np.sort((keys - low) * m + np.arange(m))
    return packed % m, packed // m + low


def group_edges(pairs: np.ndarray, ids: np.ndarray):
    """Yield (id, edges) for the rows of the (m, 2) array ``pairs`` grouped by
    the int64 class ``ids``, in increasing id order, each group's edges an
    (k, 2) array in row order.  Every producer of edge classes (covers,
    pullbacks, forests) labels its edges and groups them here."""
    order, ids = _stable_argsort(ids)
    pairs = pairs[order]
    bounds = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1, append=ids[-1:] + 1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield int(ids[lo]), pairs[lo:hi]


class Graph:
    """A simple undirected graph, frozen after construction.

    Vertices are 0..n-1.  The adjacency is stored once, as CSR arrays with
    sorted rows: int64 ``indptr`` (n + 1) and int32 ``indices`` (2m).
    ``edges`` is any iterable of (u, v) pairs or an (m, 2) integer array.
    Optional ``side`` tags (0/1 per vertex) declare a bipartition, which
    every edge must cross.  Loops and duplicate edges are errors, not
    silently merged: partition exactness checks need multiplicity awareness.

    The CSR is built from one buffer of the 2m directed keys u*n + v, sorted
    in place, and the int32 indices, so the build needs about 1.7 times the
    memory of an (m, 2) int64 input on top of it.  ``edges()``, ``_pairs()``
    and ``write_edge_list`` read the CSR back a row block at a time.

    ``automorphisms``, if given, is a zero-argument callable returning
    generator permutations of 0..n-1 (each a sequence with ``perm[v]`` the
    image of v) that are claimed to be automorphisms.  It is called on the
    first girth query, never during construction, and the claim is checked
    on every girth query (a bad generator raises ``ValueError``) before the
    search uses it to root at one vertex per orbit.
    """

    __slots__ = ("n", "side", "_csr", "_indptr", "_automorphisms")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        side: Optional[Sequence[int]] = None,
        automorphisms: Optional[Callable[[], Sequence[Sequence[int]]]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not _key_fits(n, n):  # every key u*n + v of this graph's edges fits
            raise ValueError(f"vertex count {n} too large for int64 edge keys")
        pairs = edge_array(edges)
        m = len(pairs)
        u, w = pairs.T
        # The kept indices are allocated before the temporaries, so that they
        # do not pin freed heap above them.
        indices = np.empty(2 * m, np.int32)

        def first(mask):  # the first edge the mask flags, as (lo, hi), or None
            i = np.flatnonzero(mask)
            return tuple(sorted((int(u[i[0]]), int(w[i[0]])))) if i.size else None

        if m and (pairs.min() < 0 or pairs.max() >= n):
            bad = first((u < 0) | (w < 0) | (u >= n) | (w >= n))
            raise ValueError(f"edge {bad} out of range for n={n}")
        if bad := first(u == w):
            raise ValueError(f"loop at vertex {bad[0]}")
        # Row v has one entry per edge at v.
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(u, minlength=n) + np.bincount(w, minlength=n), out=indptr[1:])
        # Both orientations of every edge, sorted in place: the CSR rows in
        # order, and an edge given twice (either way round) shows as two equal
        # keys.
        keys = np.empty(2 * m, np.int64)
        for tail, head, out in ((u, w, keys[:m]), (w, u, keys[m:])):
            np.multiply(tail, n, out=out)
            out += head
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            repeat = np.ones(m, bool)
            repeat[np.unique(np.minimum(u, w) * n + np.maximum(u, w), return_index=True)[1]] = False
            raise ValueError(f"duplicate edge {first(repeat)}")
        if side is not None:
            side = np.asarray(side)
            if side.shape != (n,) or not ((side == 0) | (side == 1)).all():
                raise ValueError(f"side must be 0 or 1 for each of the {n} vertices")
            ones = side.astype(bool)
            if bad := first(ones[u] == ones[w]):
                raise ValueError(f"edge {bad} does not cross the bipartition")
        np.remainder(keys, n, out=indices, casting="unsafe")
        del keys  # before the side tuple is made
        self.n = n
        # From int8, the entries are Python ints 0 and 1 whatever the input
        # (a bool array's tolist() gives False and True).
        self.side = None if side is None else tuple(side.astype(np.int8).tolist())
        self._csr = (indptr, indices)
        self._indptr = memoryview(indptr)  # Python ints for degree()
        self._automorphisms = automorphisms

    # A memoryview does not pickle: the state leaves it out, and it is made
    # again from indptr.
    def __getstate__(self):
        return self.n, self.side, self._csr, self._automorphisms

    def __setstate__(self, state):
        self.n, self.side, self._csr, self._automorphisms = state
        self._indptr = memoryview(self._csr[0])

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._csr[1]) // 2

    def degree(self, v: int) -> int:
        # Checked first: the memoryview would read indptr[-1] for v = -1.
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._indptr[v + 1] - self._indptr[v]

    def max_degree(self) -> int:
        return int(np.diff(self._csr[0]).max(initial=0))

    def edges(self):
        """Iterate edges as (u, v) int tuples with u < v, in sorted order.
        The CSR is read a row block at a time, so a large graph never has all
        of its edges as an array or as Python ints at once."""
        blocks = (block.T.tolist() for block in self._row_blocks())
        return itertools.chain.from_iterable(zip(*block) for block in blocks)

    def _pairs(self):
        """The (m, 2) int64 array of edges (u, v), u < v, in sorted order."""
        pairs = np.empty((self.m, 2), np.int64)
        at = 0
        for block in self._row_blocks():
            pairs[at : at + len(block)] = block
            at += len(block)
        return pairs

    def _row_blocks(self):
        """Yield the edges (u, v), u < v, in sorted order as (k, 2) int64
        arrays, one per run of consecutive CSR rows holding about
        ``_ROW_BLOCK`` adjacency entries (more only for one longer row)."""
        indptr, indices = self._csr
        cuts = np.searchsorted(indptr, np.arange(_ROW_BLOCK, indptr[-1], _ROW_BLOCK))
        rows = sorted({0, *cuts.tolist(), self.n})
        for lo, hi in zip(rows, rows[1:]):
            tails = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1]))
            heads = indices[indptr[lo] : indptr[hi]]
            upper = tails < heads
            yield np.stack([tails[upper], heads[upper]], axis=1)

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
        """One root per orbit of the certified automorphisms (per orbit that
        meets one side, for a graph with sides), else cycle-hitting roots."""
        if self._automorphisms is None:
            return self._cycle_hitting_roots()
        if callable(self._automorphisms):  # built on the first girth query
            self._automorphisms = tuple(self._automorphisms())
        keys = self._keys()
        checked = [self._checked_automorphism(perm, keys) for perm in self._automorphisms]
        # The smallest vertex of each orbit: the orbits are the components of
        # the graph that joins every vertex to its image under each generator.
        everyone = np.arange(self.n)
        orbit = _components(self.n, [(everyone, perm) for perm in checked])[0]
        if self.side is None:
            return np.flatnonzero(orbit == np.arange(self.n)).astype(np.int32)
        # Every cycle crosses between the sides, so it meets both: one vertex
        # per orbit that meets one side will do.  Take the side whose vertices
        # lie in fewer orbits.
        side = np.asarray(self.side)
        roots = []
        for s in (0, 1):
            members = np.flatnonzero(side == s)
            roots.append(members[np.unique(orbit[members], return_index=True)[1]])
        return np.sort(min(roots, key=len)).astype(np.int32)

    def _cycle_hitting_roots(self):
        """Sorted vertices meeting every cycle, per component of the 2-core:
        its smaller colour class if it is bipartite, else all of it.

        The colour classes come from ``_components`` on the bipartite double
        cover of the core: vertices 2v and 2v+1 for each core vertex v, and
        for each core edge uw the edges 2u-(2w+1) and (2u+1)-2w.  Let c be
        the smallest vertex of v's core component C, and let ``even`` and
        ``odd`` be the labels of 2v and 2v+1.  If C has an odd cycle, the
        cover of C is connected and even == odd == 2c.  If C is bipartite,
        its cover has two components: 2x for x on c's side with 2y+1 for y
        on the other, whose smallest vertex is 2c, and the swap, whose
        smallest vertex is 2c+1 (every 2y there has y > c).  So C is
        bipartite iff even != odd, v is on c's side iff even < odd, and
        c = even // 2.  The smaller side is taken, c's side when the two are
        the same size."""
        deg = np.diff(self._csr[0])
        peel = np.flatnonzero(deg == 1).tolist()  # isolated vertices peel nothing
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
        n = self.n
        in_core = np.array(in_core, bool)
        indptr, indices = self._csr
        tails = np.repeat(np.arange(n), np.diff(indptr))
        core_edge = (tails < indices) & in_core[tails] & in_core[indices]
        u, w = 2 * tails[core_edge], 2 * indices[core_edge].astype(np.int64)  # 2u, 2w per core edge
        label = _components(2 * n, [(u, w + 1), (u + 1, w)])[0]
        core = np.flatnonzero(in_core)
        even, odd = label[2 * core], label[2 * core + 1]
        component, first = even // 2, even < odd
        # A bipartite component's first side less its other side: positive
        # when the other side is the smaller.
        excess = np.bincount(component, np.where(first, 1, -1), n)
        keep = (even == odd) | (first != (excess[component] > 0))
        return core[keep].astype(np.int32)

    def _keys(self) -> np.ndarray:
        """The directed-edge keys u*n + w, two per edge.  They come out
        sorted, because the CSR rows and each row's neighbours are."""
        indptr, indices = self._csr
        return np.repeat(np.arange(self.n, dtype=np.int64) * self.n, np.diff(indptr)) + indices

    def _checked_automorphism(self, perm, keys):
        """``perm`` as an int64 array, or ``ValueError`` unless it is an
        automorphism; ``keys`` are ``self._keys()``."""
        n = self.n
        not_permutation = f"automorphism generator is not a permutation of 0..{n - 1}"
        perm = np.asarray(perm)
        if perm.shape != (n,) or perm.dtype.kind not in "iu" or ((perm < 0) | (perm >= n)).any():
            raise ValueError(not_permutation)
        perm = perm.astype(np.int64)
        if (np.bincount(perm, minlength=n) != 1).any():
            raise ValueError(not_permutation)
        indptr, indices = self._csr
        # A bijection on vertices maps the 2m distinct arcs to 2m distinct
        # arcs, so it maps E onto E iff the sorted images are the sorted keys.
        images = np.repeat(perm * n, np.diff(indptr))
        images += perm[indices]
        images.sort()
        if not np.array_equal(images, keys):
            raise ValueError("automorphism generator maps an edge to a non-edge")
        return perm

    def has_cycle_of_length(self, length: int) -> bool:
        """Exact: does the graph contain a cycle of length exactly ``length``?

        Supported for 3 <= length <= 16.  The graph is checked as the one
        part of a run (``_parts_check``) that claims no C_length: a forest
        is not searched, any other graph by the DFS of ``_block_cycle`` on
        its non-isolated vertices.
        """
        _check_cycle_length(length)
        if self.side is not None and length % 2 == 1:
            return False
        return not _parts_check(self.n, [self._pairs()], [(None, length)])[1][0]


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _components(n: int, pairs) -> tuple[np.ndarray, int]:
    """The smallest vertex of each vertex's component in the graph on
    0..n-1 that joins a[i] and b[i] for each pair of index arrays (a, b) in
    ``pairs``, and the number of rounds taken.

    Min-label propagation with pointer jumping: each round, for each edge,
    the label of each end's label falls to the other end's label
    (``np.minimum.at``, a scatter-min that is right for repeated indices),
    then every label jumps to its label's label.  Lowering the ends' own
    labels instead takes about n/3 rounds on a path with shuffled ids.  A
    label is a vertex of its vertex's component and no larger than it, so
    each component's smallest vertex stays its own label.  Labels only fall,
    and after a round that changes none both ends of every edge share one."""
    label = np.arange(n)
    rounds = 0
    while True:
        rounds += 1
        last = label.copy()
        for a, b in pairs:
            np.minimum.at(label, label[a], label[b])
            np.minimum.at(label, label[b], label[a])
        label = label[label]
        if np.array_equal(label, last):
            return label, rounds


# ---------------------------------------------------------------------------
# Claims on parts
#
# The parts of a partition (``_parts_check``) are first checked for any
# cycle: a run of parts is one graph, their disjoint union, and a part with
# e edges, v non-isolated vertices and c components is a forest iff
# e = v - c.  The count c' that ``_components`` gives is never below c, even
# before its loop settles, so e = v - c' implies c' = c: such a part is a
# forest, has no cycle of any length, and is not searched.  Every other
# claimed part is searched on its block of the union's CSR, its non-isolated
# vertices in id order: a no C_L claim by the DFS of ``_block_cycle``, a
# girth claim by ``girth_scan`` from the union's cycle-hitting roots in the
# block (no component crosses blocks, so they are the part's own roots).  A
# single graph (``Graph.has_cycle_of_length``) is a run of one part.


def _check_cycle_length(length: int) -> None:
    if not 3 <= length <= 16:
        raise ValueError(f"cycle length {length} outside supported range [3, 16]")


def _runs(items: list, counts: list):
    """Consecutive runs of ``items`` whose ``counts`` add up to at most
    ``_RUN_EDGES``, an item with a larger count on its own."""
    run, total = [], 0
    for item, count in zip(items, counts):
        if run and total + count > _RUN_EDGES:
            yield run
            run, total = [], 0
        run.append(item)
        total += count
    if run:
        yield run


def _parts_check(n: int, parts: list, claims: list) -> tuple[list, list, list]:
    """For the (m, 2) int64 edge arrays ``parts`` of graphs on 0..n-1 and
    ``claims[i]``, part i's (girth target, forbidden cycle length), either
    or both None: whether each part is a forest, whether it holds its claim
    (a forest holds any; a part with no claim fails), and the forbidden
    cycle found in it, its ids in order from the smallest, or None.  The
    first part that ``Graph(n, part)`` rejects raises its error, as does a
    claimed length outside 3..16.  Parts are taken a run at a time
    (``_runs``), so the extra memory stays near one run's."""
    for _, length in claims:
        if length is not None:
            _check_cycle_length(length)
    result = ([], [], [])
    for run in _runs(range(len(parts)), [len(part) for part in parts]):
        for total, got in zip(result, _run_check(n, [parts[i] for i in run], [claims[i] for i in run])):
            total += got
    return result


def _run_check(n: int, run: list, claims: list) -> tuple[list, list, list]:
    """``_parts_check`` of one run of parts.  The (part, vertex) pairs are
    keyed part*n + vertex and numbered 0..N-1 in key order, by one
    ``np.unique``, and one ``Graph`` of the parts' disjoint union is built,
    whose checks catch loops and repeats within a part; ids are
    range-checked first, because an id >= n would name a vertex of the next
    part.  When the union is refused, each part is built on its own to name
    the first faulty one, on its largest id + 1 vertices (on n if an id is
    out of range, which raises before it allocates), so no valid part
    allocates a host-sized CSR.  A run whose keys would not fit in int64 is
    taken a part at a time.  Each part is a block of the union: its
    vertices are non-isolated, its edges are counted from the CSR, and its
    components from the union's ``_components``.  The union's cycle-hitting
    roots are found once, for the first girth claim searched."""
    if len(run) > 1 and not _key_fits(len(run), n):
        checks = [_run_check(n, [part], [claim]) for part, claim in zip(run, claims)]
        return tuple([check[k][0] for check in checks] for k in range(3))
    keys = np.concatenate([np.empty((0, 2), np.int64)] + run)
    try:
        if n < 0 or ((keys < 0) | (keys >= n)).any():
            raise ValueError(f"vertex id out of range for n={n}")
        keys += np.repeat(np.arange(len(run), dtype=np.int64) * n, [len(part) for part in run])[:, None]
        ids, local = np.unique(keys, return_inverse=True)
        del keys  # before the union is built
        local = local.reshape(-1, 2)  # the inverse is flat on numpy 1.x, keys-shaped on 2.x
        union = Graph(len(ids), local)
    except ValueError:
        for part in run:  # raises the first faulty part's own error
            top = int(part.max(initial=-1)) + 1  # a part in range is built on the ids it uses
            Graph(top if part.min(initial=0) >= 0 and top <= n else n, part)
        raise
    blocks = np.append(np.searchsorted(ids, np.arange(len(run)) * n), len(ids))  # len(run) * n may not fit
    label = _components(len(ids), [local.T])[0]
    roots = np.concatenate([[0], np.cumsum(label == np.arange(len(ids)))])
    indptr, indices = union._csr
    edges = np.diff(indptr[blocks]) // 2
    acyclic = (edges == np.diff(blocks) - np.diff(roots[blocks])).tolist()
    holds = [claim != (None, None) for claim in claims]
    cycles = [None] * len(run)
    blocks, hitting = blocks.tolist(), None
    for i, (target, length) in enumerate(claims):
        if acyclic[i] or not holds[i]:
            continue
        a, b = blocks[i], blocks[i + 1]
        lo, hi = indptr[[a, b]].tolist()
        block = indptr[a : b + 1] - lo, indices[lo:hi] - a
        if length is not None and (cycle := _block_cycle(*block, length)):
            cycles[i] = tuple((ids[a + np.array(cycle)] - i * n).tolist())
            holds[i] = False
        if target is not None:
            if hitting is None:
                hitting = union._cycle_hitting_roots()
            at = hitting[np.searchsorted(hitting, a) : np.searchsorted(hitting, b)] - a
            holds[i] &= girth_scan(*block, b - a, target, at) >= target
    return acyclic, holds, cycles


def _block_cycle(indptr: np.ndarray, indices: np.ndarray, length: int) -> Optional[list]:
    """A cycle of exactly ``length`` in the graph of the CSR, as its vertices
    in order from the smallest, or None.

    DFS path enumeration anchored at the smallest cycle vertex, from every
    vertex of degree >= 2, pruned by BFS distance back to the anchor, on the
    CSR copied to Python lists."""
    if len(indices) < 2 * length:
        return None
    indptr, indices = indptr.tolist(), indices.tolist()
    for s in range(len(indptr) - 1):
        if indptr[s + 1] - indptr[s] >= 2:
            if cycle := _cycle_through(s, length, indptr, indices):
                return cycle
    return None


def _cycle_through(s: int, length: int, indptr: list, indices: list) -> Optional[list]:
    """A cycle of exactly ``length`` whose smallest vertex is s, as its
    vertices in order from s, or None; only vertices > s are visited."""
    dist = _bfs_dist_from(s, indptr, indices)
    on_path = [False] * (len(indptr) - 1)
    on_path[s] = True

    def dfs(v: int, steps: int) -> Optional[list]:
        # The cycle's vertices from v on, last first, once it closes at s.
        remaining = length - steps
        for w in indices[indptr[v] : indptr[v + 1]]:
            if w == s:
                if remaining == 1:
                    return [v]
                continue
            if w < s or on_path[w]:
                continue
            if dist[w] > remaining - 1:
                continue
            on_path[w] = True
            if path := dfs(w, steps + 1):
                path.append(v)
                return path
            on_path[w] = False
        return None

    path = dfs(s, 0)
    return path and path[::-1]


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


# ---------------------------------------------------------------------------
# Homomorphisms


def _hom_failures(keys: np.ndarray, n: int, u, v, fu, fv, group) -> np.ndarray:
    """The groups in which a map of edges fails to be a locally injective
    homomorphism, with repeats.

    Edge (u[i], v[i]) of group ``group[i]`` is sent to (fu[i], fv[i]) in a
    target on n vertices whose sorted directed-edge keys are ``keys``.  A
    group fails if one of its edge images is not a target edge, or if one of
    its vertices has two edges whose other ends share an image: a repeat
    among the (group, vertex, image of the other end) triples, found by one
    sort of the triples packed into int64 keys where their bounds allow, or
    else by a lexsort.  The images must come from a map on vertices for this
    to check one.
    """
    images = fu * n + fv
    if keys.size:
        missing = keys.take(np.searchsorted(keys, images), mode="clip") != images
    else:
        missing = np.ones(len(images), bool)
    triples = [np.concatenate(pair, dtype=np.int64) for pair in ((group, group), (u, v), (fv, fu))]
    spans = [int(a.max(initial=0)) + 1 for a in triples]
    if min(int(a.min(initial=0)) for a in triples) >= 0 and _key_fits(*spans):
        groups, tails, heads = triples
        packed = np.sort((groups * spans[1] + tails) * spans[2] + heads)
        repeats = packed[1:][packed[1:] == packed[:-1]] // (spans[1] * spans[2])
    else:
        order = np.lexsort(triples[::-1])
        groups, tails, heads = (a[order] for a in triples)
        repeats = groups[1:][(tails[1:] == tails[:-1]) & (heads[1:] == heads[:-1]) & (groups[1:] == groups[:-1])]
    return np.concatenate([group[missing], repeats])


# ---------------------------------------------------------------------------
# Degeneracy and forests


def degeneracy_peel(g: Graph, threshold: float) -> list[int]:
    """The vertices a peel of g removes, in removal order: repeatedly a
    vertex of least current degree, ties to the smallest id, while that
    degree is below ``threshold``.

    The vertices left are the threshold-core, empty or of minimum degree >=
    threshold.  Least degree first makes the largest degree at removal the
    degeneracy of the shell, the edges with a peeled end; a threshold above
    the max degree, such as ``math.inf``, peels every vertex into a
    degeneracy order of g.  The heap keys degree * n + v order as (degree,
    v) and fit in int64, as ``Graph`` checks n*n.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    n = g.n
    deg = np.diff(g._csr[0])
    heap = np.sort((deg * n + np.arange(n))[deg < threshold]).tolist()  # sorted, so already a heap
    deg = deg.tolist()
    indptr, indices = (a.tolist() for a in g._csr)
    removed = [False] * n
    peel = []
    while heap:
        d, v = divmod(heapq.heappop(heap), n)
        if d != deg[v]:  # a stale key: v was pushed again at a lower degree, or removed
            continue
        removed[v] = True
        peel.append(v)
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] < threshold:
                    heapq.heappush(heap, deg[w] * n + w)
    return peel


def forest_decompose(g: Graph, threshold: float) -> tuple[Graph, list[np.ndarray]]:
    """(core, forests) of a peel of g below ``threshold`` (``degeneracy_peel``).

    ``core`` is the graph on V(g) of the edges with no peeled end, and
    ``forests`` partition the other edges, the shell, into as many forests as
    its degeneracy, each a sorted (k, 2) int64 edge array.  With the vertices
    in peel order, then the unpeeled in id order, a shell edge (u, v) with u
    earlier goes to the forest of its rank among u's right-edges (by neighbor
    position); u has as many as its degree at removal.  Each class is
    acyclic: the earliest-ordered vertex of any would-be cycle would need two
    right-edges of the same rank.
    """
    n = g.n
    pos = n + np.arange(n)  # an unpeeled vertex comes after every peeled one
    peel = np.array(degeneracy_peel(g, threshold), np.int64)
    pos[peel] = np.arange(len(peel))
    pairs = g._pairs()
    in_shell = (pos[pairs] < n).any(axis=1)
    core = Graph(n, pairs[~in_shell], side=g.side)
    shell = pairs[in_shell]
    later = pos[shell[:, 0]] > pos[shell[:, 1]]
    tail, head = np.where(later[:, None], shell[:, ::-1], shell).T  # earlier end first
    rdeg = np.bincount(tail, minlength=n)
    by_head = _stable_argsort(pos[head])[0]
    by_tail = by_head[_stable_argsort(tail[by_head])[0]]  # each tail's right-edges, by head position
    rank = np.empty(len(shell), np.int64)
    rank[by_tail] = np.arange(len(shell)) - (np.cumsum(rdeg) - rdeg)[tail[by_tail]]
    return core, [edges for _, edges in group_edges(shell, rank)]


# ---------------------------------------------------------------------------
# Shared edge-list text format (grammar in the module docstring).  Rows are
# written and read by one numpy text codec, a block of rows at a time; a
# partition manifest's body of part edges is the same edge lines without a
# header, read and written by the same functions, and ``build``'s label file
# by the same writer.
#
# The writer formats each block of non-negative integer rows with one digit
# place per step, by a floor division (``_format_rows``).  The reader takes
# the body in chunks of whole lines.  A chunk in the form the writer
# produces, each line two runs of 1 to 18 ASCII digits around one space, is
# parsed by ``np.fromstring`` (``_canonical_rows``); its checks establish
# that form, in which that parse and numpy's C ``loadtxt`` give the same
# rows.  Any other chunk (comments, blank lines, tabs, signs, non-ASCII,
# longer tokens) is parsed by ``loadtxt`` and scanned for a ``#`` after
# data: the fast path covers only what the writer produces, and ``loadtxt``
# stays the one parser of hand-written text.  The body is read as text, so
# CRLF and a lone CR are line ends before either parser sees them.  A body
# that fails either way is read again line by line only to name the first
# bad line.

_WRITE_BLOCK = 8192  # rows formatted per write call
_COMMENT_CHUNK = 1 << 16  # characters per chunk of the body read
_CANONICAL_DIGITS = 18  # longest token of a canonical line: 10**18 - 1 < 2**63
_MIN_LINE = 4  # bytes of the shortest edge line, "0 1" and its newline
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
_COMMENT_AFTER_DATA = re.compile(r"^[^\S\n]*[^\s#][^\n]*#", re.M)


def _content_lines(fh):
    """Yield (line number, stripped text) for each line of the text file
    ``fh`` that is neither blank nor a comment, a line at a time."""
    for lineno, line in enumerate(fh, 1):
        if (line := line.strip()) and not line.startswith("#"):
            yield lineno, line


def _count(token: str) -> int:
    """The value of ``token`` if it is an ``_INTEGER`` and not negative, else ``ValueError``."""
    if not _INTEGER.fullmatch(token) or (value := int(token)) < 0:
        raise ValueError(f"{token!r} is not a count")
    return value


def _format_rows(rows: np.ndarray, seps: Sequence[bytes]) -> bytes:
    """The rows of the 2-d array of non-negative integers ``rows`` as text,
    each entry in decimal followed by its column's separator in ``seps``:
    byte for byte what ``%d`` formatting gives.

    The text is laid out as one byte matrix, a line per column, with every
    entry padded with zeros to its column's widest; one floor division by 10
    per digit place fills the digits (the remainder by subtraction, several
    times faster than ``divmod``), a keep-mask drops the leading zeros, and
    one boolean gather reads the kept bytes out line by line."""
    if rows.size and rows.min() < 0:
        raise ValueError("only non-negative integers are formatted")
    widths = [len(str(int(column.max(initial=0)))) for column in rows.T]
    text = np.empty((sum(widths) + sum(map(len, seps)), len(rows)), np.uint8)
    keep = np.ones(text.shape, bool)
    at = 0
    for column, width, sep in zip(rows.T, widths, seps):
        value = column.astype(np.uint32 if width < 10 else np.uint64)
        ten = value.dtype.type(10)
        for place in range(at + width - 1, at - 1, -1):
            if place < at + width - 1:
                np.not_equal(value, 0, out=keep[place])  # not a leading zero
            high = value // ten
            text[place] = value - high * ten
            value = high
        text[at : at + width] += ord("0")
        text[at + width : at + width + len(sep)] = np.frombuffer(sep, np.uint8)[:, None]
        at += width + len(sep)
    return text.T[keep.T].tobytes()


def _write_rows(fh, rows: np.ndarray, seps: Sequence[bytes]) -> None:
    """Write the rows of ``rows`` to the binary file ``fh`` as ``_format_rows``
    text, ``_WRITE_BLOCK`` rows at a time."""
    for lo in range(0, len(rows), _WRITE_BLOCK):
        fh.write(_format_rows(rows[lo : lo + _WRITE_BLOCK], seps))


def write_edge_list(g: Graph, path) -> None:
    if g.side is not None and 1 in g.side[: g.side.count(0)]:
        raise ValueError("the header can only record sides of the form [0]*a + [1]*b")
    sides = "" if g.side is None else f" bipartite {g.side.count(0)} {g.side.count(1)}"
    with open(path, "wb") as fh:
        fh.write(f"{g.n} {g.m}{sides}\n".encode())
        for block in g._row_blocks():
            _write_rows(fh, block, (b" ", b"\n"))


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        header_line, text = next(_content_lines(fh), (None, ""))
        if not (header := text.split()):
            raise ValueError(f"{path}: empty edge-list file")
        malformed = ValueError(f"{path}, line {header_line}: malformed header {' '.join(header)}")
        if len(header) not in (2, 5) or (len(header) == 5 and header[2] != "bipartite"):
            raise malformed
        try:
            n, m, *sides = map(_count, header[:2] + header[3:])
        except ValueError:
            raise malformed from None
        side = None
        if sides:
            a, b = sides
            if a + b != n:
                raise ValueError(f"{path}: bipartition sizes {a}+{b} != n={n}")
            side = np.repeat(np.int8([0, 1]), sides)
        pairs, count = _read_rows(fh, path, n, side, m)
    if count != m:
        raise ValueError(f"{path}, line {header_line}: header claims {m} edges, file has {count}")
    try:
        return Graph(n, pairs, side=side)
    except ValueError as exc:
        raise _edge_line_error(path, n, side, exc) from None


def _read_rows(fh, path, n: int, side, claimed: int, header: bool = True, groups=()):
    """The edge lines of the rest of the text file ``fh``, every row u < v:
    a (k, 2) int64 array of its first k rows and the number of its rows,
    with k the smaller of that number and ``claimed``.  The array is first
    allocated for at most as many rows as the file's size has room for, so
    a claim past that size allocates nothing extra; where the size falls
    short of the text (a pipe, a file still being written), the array grows
    by doubling up to ``claimed``.  A body that fails the grammar raises the
    rescan's error (the arguments after ``claimed`` are passed on to
    ``_edge_line_error``)."""
    room = (os.fstat(fh.fileno()).st_size + 1) // _MIN_LINE  # the last line may lack its newline
    pairs = np.empty((max(0, min(claimed, room)), 2), np.int64)
    count = 0
    while chunk := fh.read(_COMMENT_CHUNK):
        chunk += fh.readline()
        rows, comment = _canonical_rows(chunk), False
        if rows is None:
            try:
                with warnings.catch_warnings():
                    # A body without edges is valid.  Older numpy parses a
                    # field such as '1.5' as a float and casts it, with a
                    # deprecation warning; as an error, that warning fails
                    # the parse.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    warnings.filterwarnings("error", "loadtxt", DeprecationWarning)
                    rows = np.loadtxt(io.StringIO(chunk), dtype=np.int64, ndmin=2)
            except (ValueError, DeprecationWarning) as exc:
                raise _edge_line_error(path, n, side, exc, header, groups) from None
            if rows.size == 0:
                rows = rows.reshape(0, 2)
            comment = "#" in chunk and _COMMENT_AFTER_DATA.search(chunk) is not None
        if comment or rows.shape[1] != 2 or (rows[:, 0] >= rows[:, 1]).any():
            raise _edge_line_error(path, n, side, "bad edge line", header, groups)
        if count + len(rows) > len(pairs) and len(pairs) < claimed:
            grown = np.empty((min(claimed, max(count + len(rows), 2 * len(pairs))), 2), np.int64)
            grown[:count] = pairs[:count]
            pairs = grown
        kept = rows[: max(0, len(pairs) - count)]
        pairs[count : count + len(kept)] = kept
        count += len(rows)
    return pairs[:count], count


def _canonical_rows(chunk: str) -> Optional[np.ndarray]:
    """The rows of the whole lines ``chunk`` as a (k, 2) int64 array if every
    line is canonical, ``D{1,18} D{1,18}`` and a newline (optional on the
    last), else None.  Three checks establish that form: as many spaces as
    newlines with every other byte an ASCII digit, the i-th space strictly
    inside the i-th line, and the token lengths that those positions give."""
    if not chunk.isascii():
        return None
    data = chunk.encode()
    if not data.endswith(b"\n"):
        data += b"\n"
    chars = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))
    spaces = np.flatnonzero(chars == ord(" "))
    if len(spaces) != len(ends) or np.count_nonzero(chars - ord("0") < 10) != len(chars) - 2 * len(ends):
        return None
    # The token lengths; a space outside its line makes one of them below 1.
    first = spaces - np.concatenate([[0], ends[:-1] + 1])
    second = ends - spaces - 1
    if min(first.min(), second.min()) < 1 or max(first.max(), second.max()) > _CANONICAL_DIGITS:
        return None
    return np.fromstring(data, np.int64, sep=" ").reshape(-1, 2)


def _edge_line_error(path, n: int, side, reason, header: bool = True, groups=()) -> ValueError:
    """The error for the first edge line of ``path`` that the format or a
    graph on n vertices with ``side`` rejects, found line by line
    (``_content_lines``), the first skipped as the header if ``header``.
    ``groups`` holds the row counts of consecutive groups of edges, each
    checked for repeats on its own; rows past them, or all rows if it is
    empty, form one more group.  Called only once the
    array parse, its checks or the graph build have failed; with no line to
    name, or no regular file to read again (a pipe has been read to its
    end), the error gives ``reason``."""
    if not os.path.isfile(path):
        return ValueError(f"{path}: malformed edge list ({reason})")
    starts = set(itertools.accumulate(groups))
    seen = set()
    row = 0
    with open(path) as fh:
        for lineno, line in _content_lines(fh):
            if header:
                header = False
                continue
            if row in starts:
                seen.clear()
            row += 1
            at = f"{path}, line {lineno}"
            fields = line.split()
            if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
                return ValueError(f"{at}: malformed edge line {line!r}")
            u, v = map(int, fields)
            if not all(_INT64.min <= x <= _INT64.max for x in (u, v)):
                return ValueError(f"{at}: vertex id outside int64 in {line!r}")
            if not u < v:
                return ValueError(f"{at}: edge ({u},{v}) not in u < v form")
            if u < 0 or v >= n:
                return ValueError(f"{at}: edge ({u}, {v}) out of range for n={n}")
            if (u, v) in seen:
                return ValueError(f"{at}: duplicate edge ({u}, {v})")
            if side is not None and side[u] == side[v]:
                return ValueError(f"{at}: edge ({u}, {v}) does not cross the bipartition")
            seen.add((u, v))
    return ValueError(f"{path}: malformed edge list ({reason})")
