"""Exact edge partitions of complete (bipartite) graphs into high-girth parts.

Three layers:

* ``cover_bipartite`` partitions K_{m,m} into q^(arity-1) shifted algebraic
  copies, one per shift tuple (girth 8 for arity 3, girth 12 for arity 5),
  restricted to the first m points and m lines of the smallest sufficient
  prime construction; subgraphs only ever have larger girth.
  ``partition_bipartite_exact`` is its case m = q^arity, where every copy
  is whole.
* ``cover_complete`` partitions K_n by recursive halving.  Crossing edges of
  all sibling block pairs at one level share a single set of part ids: the
  disjoint union of same-id pieces keeps the girth, and sharing is what
  keeps the total part count at O(n^{2/3}) (resp. O(n^{4/5})) instead of
  gaining a log factor.

Both gather their parts from one local pattern per block size
(``_shift_parts``), solved once per prime on one grid (``_shift_grid``): no
edge is located or sorted one by one.

``CompleteCoverLocator`` maps arrays of edges to part ids by a per-vertex code
of the halving (see the class): for the decomposition pipeline's colour pairs,
where K_n is too large to enumerate, and for the certificates of
``verify_partition``, which so check the parts by a second route.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebraic import (
    _check_q,
    _coords,
    _index,
    _shift_index,
    _shift_points,
    build_hexagon,
    build_quadrangle,
    index_to_tuple,
    next_prime_at_least,
)
from .graph import (
    _RUN_EDGES,
    Graph,
    _content_lines,
    _count,
    _edge_line_error,
    _hom_failures,
    _key_fits,
    _parts_check,
    _read_rows,
    _runs,
    _write_rows,
    edge_array,
    read_edge_list,
    write_edge_list,
)

_GIRTH_ARITY = {8: 3, 12: 5}
_GRID_CELLS = 1 << 16  # (point, line) cells per block of a grid's shift ids


def _arity_for(target_girth: int) -> int:
    """Arity of the construction for a target girth, or ``ValueError``."""
    if target_girth not in _GIRTH_ARITY:
        raise ValueError(f"target girth must be one of {sorted(_GIRTH_ARITY)}")
    return _GIRTH_ARITY[target_girth]


# ---------------------------------------------------------------------------
# Partition containers


@dataclass(frozen=True, eq=False)
class HostSpec:
    """What a partition partitions: K_n, K_{a,b}, or the edges of an
    explicit ``Graph``, held as ``graph``.  A host has no sides, so
    ``explicit`` rebuilds a graph with sides without them."""

    kind: str  # "complete" | "bipartite" | "explicit"
    n: int = 0
    a: int = 0
    b: int = 0
    graph: Optional[Graph] = None

    @staticmethod
    def complete(n: int) -> "HostSpec":
        return HostSpec(kind="complete", n=n)

    @staticmethod
    def bipartite(a: int, b: int) -> "HostSpec":
        # Vertices 0..a-1 on one side, a..a+b-1 on the other.
        return HostSpec(kind="bipartite", n=a + b, a=a, b=b)

    @staticmethod
    def explicit(graph: Graph) -> "HostSpec":
        if graph.side is not None:
            graph = Graph(graph.n, graph._pairs())
        return HostSpec(kind="explicit", n=graph.n, graph=graph)

    @property
    def edge_count(self) -> int:
        if self.kind == "complete":
            return self.n * (self.n - 1) // 2
        if self.kind == "bipartite":
            return self.a * self.b
        return self.graph.m

    def _non_edges(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For edges given as (u, v) with u <= v: their keys u*n + v in
        ascending order, and for each key whether its edge is not a host
        edge: a loop, an id outside 0..n-1, an edge within a side of a
        bipartite host, or a key missing from an explicit host's sorted
        keys.  An edge flagged before that lookup has the key -1.  A host
        too large for int64 keys raises ``ValueError`` (``_edge_keys``)."""
        keys, bad = _edge_keys(pairs, self.n)
        if self.kind == "bipartite":
            bad |= (pairs < self.a).sum(axis=1) != 1
        keys[bad] = -1
        keys.sort()  # the lookup of sorted keys is several times faster
        bad = keys < 0
        if self.kind == "explicit":
            host_keys = self.graph._keys()
            found = host_keys.take(np.searchsorted(host_keys, keys), mode="clip") if host_keys.size else -1
            bad |= found != keys
        return keys, bad


def _ordered(pairs: np.ndarray) -> np.ndarray:
    """The (m, 2) array ``pairs`` with each row (u, v) made (min, max) in
    place: ``np.sort(pairs, axis=1)`` with no sort and no whole-array copy."""
    turn = np.flatnonzero(pairs[:, 0] > pairs[:, 1])
    pairs[turn] = pairs[turn, ::-1]
    return pairs


def _edge_keys(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For edges given as (u, v) with u <= v: the keys u*n + v, and which
    edges are a loop or have an id outside 0..n-1.  Only the keys of the
    other edges are sound; a flagged edge can share its key with an edge of
    K_n.  A host whose keys would not fit in int64 raises ``ValueError``:
    two of its edges could share a key."""
    if not _key_fits(n, n):
        raise ValueError(f"host of {n} vertices is too large for int64 edge keys")
    u, v = pairs.T
    return u * n + v, (u < 0) | (v >= n) | (u == v)


def _all_edges(parts: list) -> np.ndarray:
    """The edges of ``parts`` back to back, each row as (min, max)."""
    return _ordered(np.concatenate([np.empty((0, 2), np.int64)] + [part.edges for part in parts]))


@dataclass(eq=False)
class Part:
    """One class of an edge partition, with its structural claim.

    ``edges`` is an (m, 2) int64 array, converted on construction from any
    edge input that ``Graph`` accepts.  At most one of ``girth_target``
    (girth >= value) or ``forbidden_cycle`` (no cycle of exactly that
    length) is the certificate to check; setting both raises ``ValueError``.
    """

    name: str
    edges: np.ndarray
    girth_target: Optional[int] = None
    forbidden_cycle: Optional[int] = None

    def __post_init__(self):
        if self.girth_target is not None and self.forbidden_cycle is not None:
            raise ValueError(f"part {self.name} claims both a girth and a forbidden cycle")
        self.edges = edge_array(self.edges)


@dataclass
class EdgePartition:
    host: HostSpec
    parts: list[Part]
    _ordered: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def is_exact(self) -> bool:
        """Union of parts equals the host edge set, each edge exactly once.

        The part edges are counted against the host's before anything is
        built.  Then, for every kind of host, no part edge may be a non-edge
        of the host (``HostSpec._non_edges``) and no key may repeat: as many
        distinct host edges as the host has are its edge set, so a complete
        or bipartite host is never enumerated."""
        if sum(len(p.edges) for p in self.parts) != self.host.edge_count:
            return False
        keys, bad = self._non_edges()
        return not bad.any() and not (keys[1:] == keys[:-1]).any()

    def _non_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``HostSpec._non_edges`` of all part edges, or the one such pass
        that ``verify_partition`` holds in ``_ordered`` for exactness and the
        certificates to share."""
        if self._ordered is None:
            return self.host._non_edges(_all_edges(self.parts))
        return self._ordered


@dataclass
class PartCheck:
    name: str
    claim: str
    passed: bool
    # "certificate", "acyclic" (a forest, so no cycle at all), "search", or
    # "unclaimed" for a part with no claim, which fails with nothing decided
    decided_by: str
    witness: Optional[tuple[int, ...]] = None  # the forbidden cycle found, its vertices in order


@dataclass
class VerificationReport:
    host: HostSpec
    exact: bool
    checks: list[PartCheck]

    @property
    def passed(self) -> bool:
        return self.exact and all(c.passed for c in self.checks)


def verify_partition(
    p: EdgePartition,
    girth_target: Optional[int] = None,
    forbidden_cycle: Optional[int] = None,
) -> VerificationReport:
    """Re-derive every certificate from the edge lists alone.

    Per-part claims stored on the parts are used unless overridden by one
    argument (both raise ``ValueError``); nothing claimed is trusted.
    Exactness is checked first (``EdgePartition.is_exact``), for an explicit
    host against its ``Graph``'s own sorted keys.  On a partition of K_n or
    K_{m,m} whose part edges are all host edges, a girth claim is then tried
    by the certificate that the host line and the part's edges determine
    (see ``_certified``).  Both checks read one ordered pass over the part
    edges (``EdgePartition._non_edges``).
    Exactness does not matter to a part's girth, but a partition that is not
    exact may be far smaller than its host, so it gets no base with more
    edges than all its parts have.

    The parts that no certificate decides go, in part order, to one
    ``graph._parts_check`` call, a run of parts at a time as one graph of
    their disjoint union: a part with e edges, v non-isolated vertices and c
    components is a forest iff e = v - c, and the component count c' used
    is never below c, so e = v - c' proves it.  A forest has no cycle, so it
    passes any girth or no C_L claim, decided by ``"acyclic"``.  Any other
    claimed part is searched on its own block of that union, not on the
    host: a C_L by the DFS, a failing part carrying the cycle found as its
    ``witness``, and a girth claim by the girth search from the block's
    cycle-hitting roots.  A part with no claim fails, decided by
    ``"unclaimed"``; its edges are still checked.  The first part in part
    order whose edges ``Graph`` rejects raises its ``ValueError``.
    """
    n = p.host.n
    override = (girth_target, forbidden_cycle)
    if None not in override:
        raise ValueError("override either the girth target or the forbidden cycle, not both")
    if override == (None, None):
        claims = [(part.girth_target, part.forbidden_cycle) for part in p.parts]
    else:  # an explicit override ignores the part's own claim entirely
        claims = [override] * len(p.parts)
    p._ordered = p._non_edges() if _square_host(p) else None
    try:
        exact = p.is_exact()
        max_base_edges = None if exact else sum(len(part.edges) for part in p.parts)
        certified = _certified(p, [target for target, _ in claims], max_base_edges)
    finally:
        p._ordered = None
    todo = [i for i, done in enumerate(certified) if not done]
    searched = iter(zip(*_parts_check(n, [p.parts[i].edges for i in todo], [claims[i] for i in todo])))
    checks = []
    for part, (target, forbid), by_certificate in zip(p.parts, claims, certified):
        claim = f"girth>={target}" if target is not None else f"no C_{forbid}" if forbid is not None else "no claim"
        if by_certificate:
            checks.append(PartCheck(part.name, claim, True, "certificate"))
            continue
        acyclic, holds, cycle = next(searched)
        decided = "unclaimed" if (target, forbid) == (None, None) else "acyclic" if acyclic else "search"
        checks.append(PartCheck(part.name, claim, holds, decided, cycle))
    return VerificationReport(host=p.host, exact=exact, checks=checks)


# ---------------------------------------------------------------------------
# Certificates for the parts of a complete or complete bipartite host
#
# A locally injective homomorphism into a graph of girth g sends every cycle
# onto a closed non-backtracking walk, which contains a cycle no longer than
# the first, so its source has girth >= g.  The covers below send each part
# into one zero-shift base: the quadrangle (girth 8) for a claim of girth at
# most 8, the hexagon (girth 12) for one of at most 12.  The map is rebuilt
# from the host line and the edges alone: the locator gives each edge its
# (level, shift) class and local (point, line) coordinates, and the shift
# isomorphism sends a point to the base point with the shift added to p2..;
# lines stay fixed.  The image of a vertex depends only on the vertex and its
# class, so on a part whose edges share one class it is a map on vertices.


def _square_host(p: EdgePartition) -> bool:
    """Whether ``p`` has parts and its host is K_n (n >= 2) or K_{m,m}, the
    hosts whose parts a certificate may decide."""
    host = p.host
    square = host.kind == "complete" and host.n >= 2 or host.kind == "bipartite" and host.a == host.b
    return bool(p.parts) and square


def _certified(p: EdgePartition, targets: list, max_base_edges: Optional[int] = None) -> list[bool]:
    """For each part of ``p``, whether a checked certificate shows girth >=
    its entry of ``targets`` (None: no girth claim).  No part passes unless
    the host is K_n or K_{m,m} and every part edge is one of its edges, and
    none of a level whose base has more than ``max_base_edges`` edges, if
    given.  A part passes when (1) its edges share one (level, shift) class;
    (2) the map sends each edge onto an edge of the base, looked up in the
    base's sorted edge keys; (3) no two edges at a vertex have ends with one
    image; and (4) the base's girth, searched with its checked automorphisms
    once per prime, is at least the target.  Parts are taken a run at a
    time, runs of at most ``_RUN_EDGES`` edges (a larger part alone), so
    the extra memory stays near one block's or one part's."""
    host = p.host
    certified = np.zeros(len(p.parts), bool)
    # _non_edges raises for a host too large for edge keys; with no parts it is not called.
    if not _square_host(p) or p._non_edges()[1].any():
        return certified.tolist()
    bases = {}  # (arity, prime) -> (sorted directed-edge keys, girth) of the zero-shift base

    def base(arity: int, q: int):
        if (arity, q) not in bases:
            g = (build_quadrangle if arity == 3 else build_hexagon)(q).graph
            bases[arity, q] = g._keys(), g.girth()
        return bases[arity, q]

    lowest = 0
    for girth, arity in _GIRTH_ARITY.items():
        todo = [i for i, t in enumerate(targets) if t is not None and lowest < t <= girth]
        lowest = girth
        if not todo:
            continue
        offsets, primes, locate = _host_classes(host, girth)
        for run in _runs(todo, [len(p.parts[i].edges) for i in todo]):
            counts = np.array([len(p.parts[i].edges) for i in run])
            run_targets = np.array([targets[i] for i in run])
            edges = np.concatenate([np.empty((0, 2), np.int64)] + [p.parts[i].edges for i in run])
            u, v = _ordered(edges).T
            group = np.repeat(np.arange(len(run)), counts)
            ids, points, lines = locate(u, v)
            level = np.searchsorted(offsets, ids, side="right") - 1
            has = counts > 0
            first = (np.cumsum(counts) - counts)[has]
            failed = np.zeros(len(run), bool)
            failed[group[ids != np.repeat(ids[first], counts[has])]] = True  # (1)
            part_level = np.zeros(len(run), np.int64)  # an empty part maps into any base
            part_level[has] = level[first]
            for k in sorted(set(part_level[~failed].tolist())):
                q = primes[k]
                if max_base_edges is not None and q ** (arity + 1) > max_base_edges:
                    failed[part_level == k] = True
                    continue
                keys, base_girth = base(arity, q)
                at = np.flatnonzero(~failed[group] & (level == k))
                shift = _coords(ids[at] - offsets[k], q, arity - 1)
                fu = _index(_shift_points(_coords(points[at], q, arity), shift, 1), q)
                fv = q**arity + lines[at]
                failed[_hom_failures(keys, 2 * q**arity, u[at], v[at], fu, fv, group[at])] = True  # (2), (3)
                failed[(part_level == k) & (run_targets > base_girth)] = True  # (4)
            certified[np.array(run)[~failed]] = True
    return certified.tolist()


def _host_classes(host: HostSpec, girth: int):
    """For a K_n or K_{m,m} host and the girth of a construction: the
    class-id offset of each level of its cover, the level's prime, and the
    map from edges (u, v), u < v, to their class ids and local (point, line)
    coordinates."""
    if host.kind == "complete":
        loc = CompleteCoverLocator(host.n, girth)
        return loc._offsets, [lv.prime for lv in loc.plan.levels], loc._locate
    arity = _GIRTH_ARITY[girth]
    m, q = host.a, prime_for_side(host.a, arity)
    return [0], [q], lambda u, v: (_shift_index(u, v - m, q, arity), u, v - m)


# ---------------------------------------------------------------------------
# Exact bipartite partitions


def partition_bipartite_exact(q: int, arity: int) -> EdgePartition:
    """Partition the complete bipartite graph on q^arity + q^arity vertices
    into q^(arity-1) shifted algebraic copies.

    This is :func:`cover_bipartite` with m = q^arity, where the embedding
    is the whole construction.  Each part is q-regular with q^(arity+1)
    edges; coverage plus regularity makes the cover an exact partition (also
    checked directly in tests via the uniqueness of the shift solvers).
    """
    if arity not in (3, 5):
        raise ValueError(f"arity must be 3 or 5, got {arity}")
    _check_q(q)
    return cover_bipartite(q**arity, 8 if arity == 3 else 12)


def prime_for_side(m: int, arity: int) -> int:
    """Smallest prime q >= 5 with q^arity >= m."""
    q = 5
    while q**arity < m:
        q = next_prime_at_least(q + 1)
    return q


def cover_bipartite(m: int, target_girth: int) -> EdgePartition:
    """Partition K_{m,m} into q^(arity-1) parts of girth >= target_girth.

    Embeds the host as the first m points and first m lines (canonical
    tuple order) of the smallest sufficient prime construction; restriction
    never decreases girth.  Parts are named ``s<shift>`` and come in
    lexicographic shift order, empty ones too, edges in lexicographic order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    arity = _arity_for(target_girth)
    q = prime_for_side(m, arity)
    edges, bounds = _shift_parts(_shift_grid(q, arity, m), q ** (arity - 1), *np.int64([[0], [m], [2 * m]]))
    names = (_shift_name(s, q, arity) for s in range(q ** (arity - 1)))
    parts = [Part(name, edges[i:j], target_girth) for name, i, j in zip(names, bounds, bounds[1:])]
    return EdgePartition(host=HostSpec.bipartite(m, m), parts=parts)


def _shift_name(shift: int, q: int, arity: int) -> str:
    """``s<shift tuple>``, the name of shift index ``shift`` over F_q."""
    return "s" + "_".join(map(str, index_to_tuple(shift, q, arity - 1)))


def _shift_grid(q: int, arity: int, size: int) -> np.ndarray:
    """The shift index of each local (point, line) pair of a size x size block
    pair, in the least unsigned dtype; an a x b pair's grid is its corner."""
    # Below 2^31 cells q^arity < 2^21, so the int32 intermediates of _shift_index fit.
    coords = np.arange(size, dtype=np.int32 if size * size < 1 << 31 else np.int64)
    grid = np.empty((size, size), np.min_scalar_type(q ** (arity - 1) - 1))
    step = max(1, _GRID_CELLS // size)
    for p in range(0, size, step):
        grid[p : p + step] = _shift_index(coords[p : p + step, None], coords, q, arity)
    return grid


def _shift_parts(grid: np.ndarray, shifts: int, lo, mid, hi) -> tuple[np.ndarray, list]:
    """(edges, bounds): an int64 array whose rows bounds[s]:bounds[s + 1] hold
    the edges of shift index s in the block pairs [lo, mid) x [mid, hi), pair
    by pair and each lexicographic; each size's corner of ``grid`` sorted once."""
    _, first, kind = np.unique(hi - lo, return_index=True, return_inverse=True)
    points, lines, counts = [], [], []
    for a, b in zip((mid - lo)[first].tolist(), (hi - mid)[first].tolist()):
        ids = grid[:a, :b].ravel()
        order = np.argsort(ids, kind="stable").astype(np.int32 if a * b < 1 << 31 else np.int64)
        points.append(order // b)
        lines.append(order - points[-1] * b)
        counts.append(np.bincount(ids, minlength=shifts))
    counts = np.array(counts)
    used = np.flatnonzero(counts.any(axis=0))
    # Segment (s, j), in (shift, pair) order: the cells of shift s in pair j's grid.
    lengths = counts[kind][:, used].T.ravel()
    points, lines = np.concatenate(points), np.concatenate(lines)
    if len(lo) > 1:
        ends = np.cumsum(lengths)
        starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)[kind][:, used].T.ravel()
        cells = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
        points, lines = points[cells], lines[cells]
    edges = np.repeat(np.tile(np.stack([lo, mid], axis=1), (len(used), 1)), lengths, axis=0)
    edges[:, 0] += points
    edges[:, 1] += lines
    return edges, [0, *np.cumsum(np.bincount(kind) @ counts).tolist()]


# ---------------------------------------------------------------------------
# Complete-graph cover by recursive halving


@dataclass(frozen=True)
class CoverLevel:
    level: int  # 1-based halving depth
    block_size: int  # largest block size on a side at this level
    prime: int
    parts: int  # shared part ids at this level


@dataclass
class CoverPlan:
    n: int
    target_girth: int
    levels: list[CoverLevel]

    @property
    def total_parts(self) -> int:
        # Planned parts, including ones that come out empty after
        # restriction: rate reports must not be flattered by pruning.
        return sum(lv.parts for lv in self.levels)


class CompleteCoverLocator:
    """Edge -> part-id map for the recursive-halving cover of K_n.

    Blocks are intervals; a block [lo, hi) splits into [lo, mid) and
    [mid, hi) with mid = lo + ceil(size/2) ("sizes as equal as possible").
    An edge belongs to the level at which its endpoints first separate; its
    part within the level is the unique shift adjacent to the local
    (point, line) coordinate pair.  Parts are (level, shift tuple), shared
    by every sibling pair of the level; a part id is the level's offset
    plus the shift's canonical index, so ids sort as (level, shift).

    Two int64 tables place an edge without halving: ``_code[x]`` holds
    vertex x's left (0) or right (1) choice at each of the L halving depths,
    the first depth in the top of L bits, and ``_start[(1 << d) + prefix]``
    the first vertex of the depth-d block with that d-bit prefix (fewer than
    4n entries).  The ends of an edge first separate at the highest set bit
    of ``_code[u] ^ _code[v]``, and their local point and line are their
    offsets from the starts of their blocks one depth below.  The tables
    take O(n) memory, so they are built once the locator has been given n/2
    edges in all; until then each call halves its own edges' blocks a level
    at a time, in memory O(edges), so a few edges of a huge host (a manifest
    may declare one) stay cheap.
    """

    def __init__(self, n: int, target_girth: int):
        if n < 2:
            raise ValueError("host must have at least 2 vertices")
        self.arity = _arity_for(target_girth)
        self.n = n
        self.target_girth = target_girth
        levels, half = [], n
        while half >= 2:
            half = (half + 1) // 2  # the larger sibling
            q = prime_for_side(half, self.arity)
            levels.append(CoverLevel(len(levels) + 1, half, q, parts=q ** (self.arity - 1)))
        self.plan = CoverPlan(n=n, target_girth=target_girth, levels=levels)
        self._offsets = [0, *np.cumsum([lv.parts for lv in levels]).tolist()]
        self._bits = 1 << np.arange(len(levels), dtype=np.int64)
        self._code = self._start = None
        self._located = 0  # edges given so far; the tables come at n/2

    def _tables(self) -> None:
        """Build ``_code`` and ``_start``: the blocks of each depth in prefix
        order, empty ones included; at depth L every block holds at most one
        vertex, in vertex order."""
        start = np.zeros(2 << len(self.plan.levels), np.int64)
        lo, hi = np.zeros(1, np.int64), np.full(1, self.n, np.int64)
        for depth in range(1, len(self.plan.levels) + 1):
            mid = lo + (hi - lo + 1) // 2
            lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
            start[1 << depth : 2 << depth] = lo
        self._start, self._code = start, np.flatnonzero(hi > lo)

    def locate(self, u, v) -> np.ndarray:
        """Part ids of the edges (u[i], v[i]) of K_n, as an int64 array.

        Per block of edges: the levels and local coordinates (from the
        tables once built), the shifts by one array solve per level.  A loop
        or an id outside 0..n-1 raises ``ValueError`` naming the first such
        pair.
        """
        u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
        ids = np.empty(len(u), np.int64)
        for lo in range(0, len(u), _RUN_EDGES):
            block = slice(lo, lo + _RUN_EDGES)
            ids[block] = self._locate(u[block], v[block])[0]
        return ids

    def _locate(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Part ids of the edges, and their local point and line coordinates
        in the sibling block pair where their endpoints separate."""
        u, v = np.minimum(u, v), np.maximum(u, v)
        if (bad := np.flatnonzero((u == v) | (u < 0) | (v >= self.n))).size:
            raise ValueError(f"({u[bad[0]]},{v[bad[0]]}) is not an edge of K_{self.n}")
        depths = len(self.plan.levels)
        self._located += len(u)
        if self._code is None and 2 * self._located >= self.n:
            self._tables()
        if self._code is None:  # fewer than n/2 edges so far: halve their blocks
            level, points, lines = (np.full_like(u, -1) for _ in range(3))
            lo, hi = np.zeros_like(u), np.full_like(u, self.n)
            for k in range(depths):
                mid = lo + (hi - lo + 1) // 2
                split = (level < 0) & (u < mid) & (v >= mid)
                level[split], points[split], lines[split] = k, (u - lo)[split], (v - mid)[split]
                left = v < mid
                lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
        else:
            cu, cv = self._code[u], self._code[v]
            split = np.searchsorted(self._bits, cu ^ cv, side="right") - 1  # the bit where u and v part
            block = np.left_shift(1, depths - split)  # 1 << the depth below the split
            points = u - self._start[block + (cu >> split)]
            lines = v - self._start[block + (cv >> split)]
            level = depths - 1 - split
        ids = np.empty(len(u), np.int64)
        for k, (info, offset) in enumerate(zip(self.plan.levels, self._offsets)):
            if (at := np.flatnonzero(level == k)).size:
                ids[at] = offset + _shift_index(points[at], lines[at], info.prime, self.arity)
        return ids, points, lines

    def part_name(self, part_id: int) -> str:
        """``L<level>_s<shift>``, the name of a part of the cover."""
        if not 0 <= part_id < self._offsets[-1]:
            raise ValueError(f"part id {part_id} outside [0, {self._offsets[-1]})")
        k = bisect.bisect_right(self._offsets, part_id) - 1
        info = self.plan.levels[k]
        return f"L{info.level}_" + _shift_name(part_id - self._offsets[k], info.prime, self.arity)


def cover_complete(n: int, target_girth: int) -> tuple[EdgePartition, CoverPlan]:
    """Materialized exact partition of E(K_n) into parts of girth >= target.

    Desk-scale only (enumerates all n(n-1)/2 edges); the decomposition
    pipeline locates only the edges it needs.  Parts come in (level, shift)
    order, empty ones left out, each with its edges in lexicographic order.
    """
    loc = CompleteCoverLocator(n, target_girth)
    parts, q = [], None
    lo, hi = np.zeros(1, np.int64), np.full(1, n, np.int64)
    for info in loc.plan.levels:
        if info.prime != q:  # the first level of a prime has its largest blocks
            q, grid = info.prime, _shift_grid(info.prime, loc.arity, info.block_size)
        mid = lo + (hi - lo + 1) // 2
        pair = hi > mid
        edges, bounds = _shift_parts(grid, info.parts, lo[pair], mid[pair], hi[pair])
        for s in np.flatnonzero(np.diff(bounds)).tolist():
            name = f"L{info.level}_" + _shift_name(s, q, loc.arity)
            parts.append(Part(name, edges[bounds[s] : bounds[s + 1]], target_girth))
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()
    return EdgePartition(host=HostSpec.complete(n), parts=parts), loc.plan


# ---------------------------------------------------------------------------
# Partition manifest on disk
#
# A manifest is a directory: "manifest.txt" plus one body file, "parts.edges",
# that holds the edges of every part, and "host.edges" for an explicit host.
# manifest.txt, whose first line must be the v2 line:
#     # girthcover partition manifest v2
#     host complete 250            (or "host bipartite 125 125" / "host file host.edges")
#     parts 25
#     part <name> girth 8 <edge count>        (or "cycle-free 6" / "none" as the claim)
#
# The body has no header: it is the "u v" lines of the edge-list format, the
# parts' rows back to back in the order of the part lines, each part's rows
# sorted with u < v.  A body in this writer order is checked for repeats
# without a sort (``_part_rows``); a part's rows in any other order are still
# accepted, sorted to find repeats.  Both file names are fixed, so no manifest
# line can point outside the manifest directory.

_MANIFEST_V2 = "# girthcover partition manifest v2"


def _part_rows(keys: np.ndarray, counts) -> tuple:
    """For the edge keys of the parts back to back, ``counts`` rows per part:
    the order of the rows by (part, key), and for each ordered row its part
    index and whether it repeats the row before it in that part.

    Keys that strictly rise within every part, as the writer emits them,
    are already in that order with no repeat: one pass over the keys finds
    this, and the identity order is returned as ``slice(None)``, which
    copies nothing.  Otherwise a stable sort by key and then one by part
    give the order; sorting by part alone after the key sort keeps the
    result exact for any key, where part*n*n + key could overflow."""
    index = np.repeat(np.arange(len(counts)), counts)
    if ((keys[1:] > keys[:-1]) | (index[1:] != index[:-1])).all():
        return slice(None), index, np.zeros(len(keys), bool)
    by_key = np.argsort(keys, kind="stable")
    order = by_key[np.argsort(index[by_key], kind="stable")]
    keys, index = keys[order], index[order]
    repeat = np.zeros(len(order), bool)
    repeat[1:] = (keys[1:] == keys[:-1]) & (index[1:] == index[:-1])
    return order, index, repeat


def write_manifest(p: EdgePartition, directory) -> str:
    """Write ``p`` as a v2 manifest in ``directory``; a part name that is
    empty or holds whitespace, or a part edge that is a loop, has an id
    outside the host or repeats within its part raises ``ValueError`` naming
    the part."""
    for part in p.parts:
        if part.name.split() != [part.name]:  # read_manifest splits part lines at whitespace
            raise ValueError(f"part {part.name!r}: a part name must be nonempty with no whitespace")
    n = p.host.n
    counts = [len(part.edges) for part in p.parts]
    pairs = _all_edges(p.parts)
    keys, bad = _edge_keys(pairs, n)
    order, index, repeat = _part_rows(keys, counts)
    pairs = pairs[order]
    if (at := np.flatnonzero(bad[order] | repeat)).size:
        # The first flagged row is bad itself or repeats a sound edge.
        u, v = pairs[at[0]].tolist()
        what = f"out of range for n={n}" if u < 0 or v >= n else "is a loop" if u == v else "is a duplicate"
        raise ValueError(f"part {p.parts[index[at[0]]].name}: edge ({u}, {v}) {what}")
    os.makedirs(directory, exist_ok=True)
    lines = [_MANIFEST_V2]
    if p.host.kind == "complete":
        lines.append(f"host complete {n}")
    elif p.host.kind == "bipartite":
        lines.append(f"host bipartite {p.host.a} {p.host.b}")
    else:
        write_edge_list(p.host.graph, os.path.join(directory, "host.edges"))
        lines.append("host file host.edges")
    lines.append(f"parts {len(p.parts)}")
    with open(os.path.join(directory, "parts.edges"), "wb") as fh:
        _write_rows(fh, pairs, (b" ", b"\n"))
    for part, count in zip(p.parts, counts):
        if part.girth_target is not None:
            claim = f"girth {part.girth_target}"
        elif part.forbidden_cycle is not None:
            claim = f"cycle-free {part.forbidden_cycle}"
        else:
            claim = "none"
        lines.append(f"part {part.name} {claim} {count}")
    manifest_path = os.path.join(directory, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def read_manifest(manifest_path) -> EdgePartition:
    """Parse a v2 manifest; a missing v2 first line or any malformed line
    raises ``ValueError`` naming it, and a bad edge names its file and line."""
    directory = os.path.dirname(os.path.abspath(manifest_path))

    def malformed(line: str) -> ValueError:
        return ValueError(f"{manifest_path}: malformed manifest line: {line}")

    def number(token: str, line: str) -> int:
        try:
            return _count(token)
        except ValueError:
            raise malformed(line) from None

    def claim(tokens: list, line: str) -> tuple[Optional[int], Optional[int]]:
        """(girth target, forbidden cycle) of a part line's claim."""
        match tokens:
            case [] | ["none"]:
                return None, None
            case ["girth", value]:
                return number(value, line), None
            case ["cycle-free", value]:
                return None, number(value, line)
        raise ValueError(f"{manifest_path}: malformed part claim: {line}")

    host = None
    n_parts = None
    specs = []  # (name, girth target, forbidden cycle, edge count)
    with open(manifest_path) as fh:
        if fh.readline().strip() != _MANIFEST_V2:
            raise ValueError(f"{manifest_path}: first line is not {_MANIFEST_V2!r}")
        for _, line in _content_lines(fh):
            match line.split():
                case ["host", *_] if host is not None:
                    raise ValueError(f"{manifest_path}: repeated host line: {line}")
                case ["parts", *_] if n_parts is not None:
                    raise ValueError(f"{manifest_path}: repeated parts line: {line}")
                case ["host", "complete", n]:
                    host = HostSpec.complete(number(n, line))
                case ["host", "bipartite", a, b]:
                    host = HostSpec.bipartite(number(a, line), number(b, line))
                case ["host", "file", "host.edges"]:
                    host = HostSpec.explicit(read_edge_list(os.path.join(directory, "host.edges")))
                case ["parts", count]:
                    n_parts = number(count, line)
                case ["part", name, *tokens, count]:
                    edges = number(count, line)
                    specs.append((name, *claim(tokens, line), edges))
                case _:
                    raise malformed(line)
    if host is None:
        raise ValueError(f"{manifest_path}: missing host line")
    if n_parts is not None and n_parts != len(specs):
        raise ValueError(f"{manifest_path}: expected {n_parts} parts, found {len(specs)}")
    edges = _read_body(os.path.join(directory, "parts.edges"), host.n, [s[3] for s in specs])
    parts = [Part(name, e, girth, forbid) for (name, girth, forbid, _), e in zip(specs, edges)]
    return EdgePartition(host=host, parts=parts)


def _read_body(path: str, n: int, counts: list) -> list[np.ndarray]:
    """The parts' edges from a v2 body: one parse, split by ``counts``.  A
    wrong row count, an id outside 0..n-1 or an edge repeated within one part
    raises ``ValueError``, naming the body line where there is one."""
    with open(path) as fh:
        pairs, count = _read_rows(fh, path, n, None, sum(counts), header=False, groups=counts)
    if count != sum(counts):
        raise ValueError(f"{path}: the manifest claims {sum(counts)} edges, the file has {count}")
    keys, bad = _edge_keys(pairs, n)
    if bad.any() or _part_rows(keys, counts)[2].any():
        raise _edge_line_error(path, n, None, "bad edge line", header=False, groups=counts)
    return np.split(pairs, np.cumsum(counts, dtype=np.int64)[:-1])
