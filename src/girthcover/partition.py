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

``CompleteCoverLocator`` exposes the same partition without materializing
it: ``locate`` maps arrays of edges to part ids, so ``cover_complete``
locates every edge of K_n in one call, and the decomposition pipeline only
the colour pairs of its retained edges, where K_n would be far too large to
enumerate.  Both group the edges with ``group_edges`` and name parts with
the locator.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebraic import _check_q, _incident_lines, _shift_index, index_to_tuple
from .field import next_prime_at_least
from .graph import Graph, edge_array, read_edge_list, write_edge_list

_GIRTH_ARITY = {8: 3, 12: 5}
_LOCATE_BLOCK = 8192  # edges per block of the array locate


def _arity_for(target_girth: int) -> int:
    """Arity of the construction for a target girth, or ``ValueError``."""
    if target_girth not in _GIRTH_ARITY:
        raise ValueError(f"target girth must be one of {sorted(_GIRTH_ARITY)}")
    return _GIRTH_ARITY[target_girth]


# ---------------------------------------------------------------------------
# Partition containers


@dataclass(frozen=True, eq=False)
class HostSpec:
    """What a partition partitions: K_n, K_{a,b}, or an explicit edge set,
    held as an (m, 2) int64 array."""

    kind: str  # "complete" | "bipartite" | "explicit"
    n: int = 0
    a: int = 0
    b: int = 0
    edges: Optional[np.ndarray] = None

    @staticmethod
    def complete(n: int) -> "HostSpec":
        return HostSpec(kind="complete", n=n)

    @staticmethod
    def bipartite(a: int, b: int) -> "HostSpec":
        # Vertices 0..a-1 on one side, a..a+b-1 on the other.
        return HostSpec(kind="bipartite", n=a + b, a=a, b=b)

    @staticmethod
    def explicit(n: int, edges) -> "HostSpec":
        """The host with the given edges: any edge input that ``Graph`` accepts."""
        return HostSpec(kind="explicit", n=n, edges=edge_array(edges))

    @property
    def edge_count(self) -> int:
        if self.kind == "complete":
            return self.n * (self.n - 1) // 2
        if self.kind == "bipartite":
            return self.a * self.b
        return len(self.edges)

    def _pairs(self) -> np.ndarray:
        """The host's edges as an (m, 2) array."""
        if self.kind == "complete":
            return np.stack(np.triu_indices(self.n, 1), axis=1)
        if self.kind == "bipartite":
            u, v = np.divmod(np.arange(self.a * self.b, dtype=np.int64), self.b)
            return np.stack([u, self.a + v], axis=1)
        return self.edges


def _sorted_keys(pairs: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The sorted keys u*n + v of the edges, each taken as (u, v) with u < v,
    or None if one is a loop or has an id outside 0..n-1: such an edge can
    share its key with an edge of K_n."""
    lo, hi = np.sort(pairs, axis=1).T
    if ((lo < 0) | (hi >= n) | (lo == hi)).any():
        return None
    return np.sort(lo * n + hi)


@dataclass(eq=False)
class Part:
    """One class of an edge partition, with its structural claim.

    ``edges`` is an (m, 2) int64 array, converted on construction from any
    edge input that ``Graph`` accepts.  Exactly one of ``girth_target``
    (girth >= value) or ``forbidden_cycle`` (no cycle of exactly that
    length) is the certificate to check.
    """

    name: str
    edges: np.ndarray
    girth_target: Optional[int] = None
    forbidden_cycle: Optional[int] = None

    def __post_init__(self):
        self.edges = edge_array(self.edges)

    def graph(self, n: int) -> Graph:
        return Graph(n, self.edges)


@dataclass
class EdgePartition:
    host: HostSpec
    parts: list[Part]

    def is_exact(self) -> bool:
        """Union of parts equals the host edge set, each edge exactly once:
        one sort of the parts' edge keys, compared with the host's."""
        pairs = np.concatenate([np.empty((0, 2), np.int64)] + [p.edges for p in self.parts])
        keys, host = (_sorted_keys(e, self.host.n) for e in (pairs, self.host._pairs()))
        if keys is None or host is None:
            return False
        return np.array_equal(keys, host) and bool((keys[1:] != keys[:-1]).all())


@dataclass
class PartCheck:
    name: str
    claim: str
    passed: bool
    measured: object = None


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

    Per-part claims stored on the parts are used unless overridden by the
    arguments; nothing claimed is trusted.
    """
    checks = []
    n = p.host.n
    override = (girth_target, forbidden_cycle)
    for part in p.parts:
        g = part.graph(n)
        if override == (None, None):
            target, forbid = part.girth_target, part.forbidden_cycle
        else:  # an explicit override ignores the part's own claim entirely
            target, forbid = override
        if target is not None:
            ok = g.girth_exceeds(target - 1)
            checks.append(PartCheck(part.name, f"girth>={target}", ok))
        elif forbid is not None:
            ok = not g.has_cycle_of_length(forbid)
            checks.append(PartCheck(part.name, f"no C_{forbid}", ok))
        else:
            checks.append(PartCheck(part.name, "no claim", False))
    return VerificationReport(host=p.host, exact=p.is_exact(), checks=checks)


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
    lexicographic shift order, with edges in point-major order.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    arity = _arity_for(target_girth)
    q = prime_for_side(m, arity)
    parts = []
    for shift in itertools.product(range(q), repeat=arity - 1):
        rows = _incident_lines(q, arity, shift, m)
        points, k = np.nonzero(rows < m)  # row by row: point-major order
        edges = np.stack([points, m + rows[points, k]], axis=1)
        name = "s" + "_".join(map(str, shift))
        parts.append(Part(name=name, edges=edges, girth_target=target_girth))
    return EdgePartition(host=HostSpec.bipartite(m, m), parts=parts)


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
        self._offsets = list(itertools.accumulate((lv.parts for lv in levels), initial=0))

    def locate(self, u, v) -> np.ndarray:
        """Part ids of the edges (u[i], v[i]) of K_n, as an int64 array.

        Per block of edges: the levels by halving all intervals at once, the
        shifts by one array solve per level.  A loop or an id outside 0..n-1
        raises ``ValueError`` naming the first such pair.
        """
        u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
        ids = np.empty(len(u), np.int64)
        for lo in range(0, len(u), _LOCATE_BLOCK):
            block = slice(lo, lo + _LOCATE_BLOCK)
            ids[block] = self._locate(u[block], v[block])
        return ids

    def _locate(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u, v = np.minimum(u, v), np.maximum(u, v)
        if (bad := np.flatnonzero((u == v) | (u < 0) | (v >= self.n))).size:
            raise ValueError(f"({u[bad[0]]},{v[bad[0]]}) is not an edge of K_{self.n}")
        ids = np.empty(len(u), np.int64)
        rows = np.arange(len(u))  # the edges not yet separated; lo, hi: their interval
        lo, hi = np.zeros_like(u), np.full_like(u, self.n)
        for info, offset in zip(self.plan.levels, self._offsets):
            mid = lo + (hi - lo + 1) // 2
            split = (u < mid) & (v >= mid)
            points, lines = u[split] - lo[split], v[split] - mid[split]
            ids[rows[split]] = offset + _shift_index(points, lines, info.prime, self.arity)
            left = v < mid
            lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
            rows, u, v, lo, hi = (a[~split] for a in (rows, u, v, lo, hi))
        return ids

    def part_key(self, part_id: int) -> tuple[int, tuple[int, ...]]:
        """(level, shift tuple) of a part id."""
        k = bisect.bisect_right(self._offsets, part_id) - 1
        info = self.plan.levels[k]
        return info.level, index_to_tuple(part_id - self._offsets[k], info.prime, self.arity - 1)

    def part_name(self, part_id: int) -> str:
        """``L<level>_s<shift>``, the name of a part of the cover."""
        level, shift = self.part_key(part_id)
        return f"L{level}_s" + "_".join(map(str, shift))


def group_edges(pairs: np.ndarray, ids: np.ndarray):
    """Yield (id, edges) for the rows of the (m, 2) array ``pairs`` grouped by
    ``ids``, in increasing id order, each group's edges an (k, 2) array in
    row order."""
    order = np.argsort(ids, kind="stable")
    ids, pairs = ids[order], pairs[order]
    bounds = np.flatnonzero(np.diff(ids, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield int(ids[lo]), pairs[lo:hi]


def cover_complete(n: int, target_girth: int) -> tuple[EdgePartition, CoverPlan]:
    """Materialized exact partition of E(K_n) into parts of girth >= target.

    Desk-scale only (enumerates all n(n-1)/2 edges); the decomposition
    pipeline locates only the edges it needs.  Parts come in (level, shift)
    order, each with its edges in lexicographic order.
    """
    loc = CompleteCoverLocator(n, target_girth)
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    parts = [
        Part(name=loc.part_name(pid), edges=edges, girth_target=target_girth)
        for pid, edges in group_edges(pairs, loc.locate(pairs[:, 0], pairs[:, 1]))
    ]
    return EdgePartition(host=HostSpec.complete(n), parts=parts), loc.plan


# ---------------------------------------------------------------------------
# Partition manifest on disk
#
# A manifest is a directory: "manifest.txt" plus one edge-list file per part.
# manifest.txt:
#     # girthcover partition manifest v1
#     host complete 250            (or "host bipartite 125 125" / "host file host.edges")
#     parts 25
#     part <name> <relative-path> girth 8        (or "... cycle-free 6" / "... none")
#
# Relative paths must stay inside the manifest directory.


def write_manifest(p: EdgePartition, directory) -> str:
    os.makedirs(directory, exist_ok=True)
    parts_dir = os.path.join(directory, "parts")
    os.makedirs(parts_dir, exist_ok=True)
    lines = ["# girthcover partition manifest v1"]
    if p.host.kind == "complete":
        lines.append(f"host complete {p.host.n}")
    elif p.host.kind == "bipartite":
        lines.append(f"host bipartite {p.host.a} {p.host.b}")
    else:
        host_path = os.path.join(directory, "host.edges")
        write_edge_list(Graph(p.host.n, p.host.edges), host_path)
        lines.append("host file host.edges")
    lines.append(f"parts {len(p.parts)}")
    for i, part in enumerate(p.parts):
        rel = os.path.join("parts", f"part_{i:05d}.edges")
        write_edge_list(Graph(p.host.n, part.edges), os.path.join(directory, rel))
        if part.girth_target is not None:
            claim = f"girth {part.girth_target}"
        elif part.forbidden_cycle is not None:
            claim = f"cycle-free {part.forbidden_cycle}"
        else:
            claim = "none"
        lines.append(f"part {part.name} {rel} {claim}")
    manifest_path = os.path.join(directory, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def read_manifest(manifest_path) -> EdgePartition:
    """Parse a manifest; any malformed line raises ``ValueError`` naming it."""
    directory = os.path.dirname(os.path.abspath(manifest_path))
    prefix = os.path.join(directory, "")

    def inside(rel: str, line: str) -> str:
        # A lexical check on the normalised path: O(1), no file system calls.
        path = os.path.normpath(os.path.join(directory, rel))
        if not path.startswith(prefix):
            raise ValueError(f"{manifest_path}: path outside the manifest directory: {line}")
        return path

    def number(token: str, line: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"{manifest_path}: malformed manifest line: {line}") from None

    host = None
    n_parts = None
    parts = []
    with open(manifest_path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            match line.split():
                case ["host", "complete", n]:
                    host = HostSpec.complete(number(n, line))
                case ["host", "bipartite", a, b]:
                    host = HostSpec.bipartite(number(a, line), number(b, line))
                case ["host", "file", rel]:
                    g = read_edge_list(inside(rel, line))
                    host = HostSpec.explicit(g.n, g._pairs())
                case ["parts", count]:
                    n_parts = number(count, line)
                case ["part", name, rel, *claim]:
                    girth_target = None
                    forbidden = None
                    match claim:
                        case [] | ["none"]:
                            pass
                        case ["girth", value]:
                            girth_target = number(value, line)
                        case ["cycle-free", value]:
                            forbidden = number(value, line)
                        case _:
                            raise ValueError(f"{manifest_path}: malformed part claim: {line}")
                    g = read_edge_list(inside(rel, line))
                    parts.append(Part(name, g._pairs(), girth_target, forbidden))
                case _:
                    raise ValueError(f"{manifest_path}: malformed manifest line: {line}")
    if host is None:
        raise ValueError(f"{manifest_path}: missing host line")
    if n_parts is not None and n_parts != len(parts):
        raise ValueError(f"{manifest_path}: expected {n_parts} parts, found {len(parts)}")
    return EdgePartition(host=host, parts=parts)
