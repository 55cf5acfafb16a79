"""Decomposition of bounded-degree graphs into even-cycle-free parts.

The pipeline per round:

1. peel vertices of degree below a threshold (~= log^2 of the initial max
   degree); the peeled shell is low-degeneracy and splits into few forests,
   trivially free of any cycle;
2. on the remaining core, find a proper rainbow coloring of a spanning
   subgraph that keeps at least a tenth of every vertex's degree;
3. partition the retained subgraph by pulling back the recursive-halving
   cover of the complete graph on the palette into high-girth parts: one
   ``CompleteCoverLocator.locate`` call maps the color pairs of all retained
   edges to their palette parts, without materializing the cover.  The
   color map is a locally injective homomorphism from each pullback class
   into its palette part, so a palette part of girth > 2k yields a
   C_{2k}-free class;
4. remove the retained edges (max degree drops by a constant factor) and
   repeat until the remainder is low-degree, then finish with forests.

Every class of the output is certified C_{2k}-free by direct search, never
by trusting the construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graph import Graph, degeneracy_order, degeneracy_peel, forest_decompose
from .partition import CompleteCoverLocator, EdgePartition, HostSpec, Part, group_edges

_CYCLE_GIRTH = {6: 8, 10: 12}
_PRUNE_BLOCK = 512  # rows per block of the rainbow pruning


def default_threshold(delta: int) -> int:
    """Peeling threshold: ceil(ln^2 delta), floored at 2.

    Natural log; the base only changes constants and is recorded in the
    result for reproducibility.
    """
    if delta < 2:
        return 2
    return max(2, math.ceil(math.log(delta) ** 2))


@dataclass
class DecompositionConfig:
    target_cycle: int = 6  # 6 or 10
    color_multiplier: int = 200
    retention: float = 0.1
    rng_seed: int = 0
    max_retries: int = 20

    def __post_init__(self):
        if self.target_cycle not in _CYCLE_GIRTH:
            raise ValueError(f"target cycle must be one of {sorted(_CYCLE_GIRTH)}")
        if not 0 < self.retention < 1:
            raise ValueError("retention must be in (0, 1)")
        if self.color_multiplier < 1:
            raise ValueError("color multiplier must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max retries must be >= 1")

    @property
    def palette_girth(self) -> int:
        return _CYCLE_GIRTH[self.target_cycle]


@dataclass
class RainbowColoring:
    """A vertex coloring plus the spanning subgraph it is valid on.

    Invariants (all enforced, see :func:`check_rainbow_coloring`):
    properness and per-neighborhood injectivity of the coloring on the
    retained subgraph; palette bounded by multiplier * max degree; every
    vertex retains at least the configured fraction of its degree.
    """

    host: Graph
    retained: Graph
    color: list[int]
    palette_size: int


class RainbowRetentionError(RuntimeError):
    """Raised when no retry achieves the per-vertex retention floor.

    Usually signals that the minimum-degree precondition (degree at least
    ~log^2 of the max degree) did not hold for the input.  ``rounds`` holds
    the logs of the rounds :func:`decompose` completed before the failure
    (empty when raised outside it), for diagnosis.
    """

    def __init__(self, worst_vertex: int, worst_ratio: float, retries: int):
        self.worst_vertex = worst_vertex
        self.worst_ratio = worst_ratio
        self.retries = retries
        self.rounds: list[RoundLog] = []
        super().__init__(
            f"retention not achieved after {retries} retries; "
            f"worst vertex {worst_vertex} kept only {worst_ratio:.3f} of its degree"
        )


def check_rainbow_coloring(rc: RainbowColoring, cfg: DecompositionConfig) -> None:
    """Check every RainbowColoring invariant; raises AssertionError on violation.

    The checks are explicit raises, so they also run under ``python -O``.
    """
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
        seen = [rc.color[w] for w in h.neighbors(v)]
        if len(set(seen)) != len(seen):
            raise AssertionError(f"repeated color in neighborhood of {v}")
    for v in range(g.n):
        if g.degree(v) > 0 and h.degree(v) < cfg.retention * g.degree(v):
            raise AssertionError(f"vertex {v} retains {h.degree(v)}/{g.degree(v)}")


def _try_rainbow(g: Graph, palette: int, rng: random.Random):
    color = [rng.randrange(palette) for _ in range(g.n)]
    # Drop monochromatic edges, then keep one edge per repeated color class in
    # each neighborhood (lowest neighbor id wins), so an edge stays iff each end
    # is the lowest neighbor of its color at the other.  Deleting edges can only
    # help injectivity, so one pass suffices.  The CSR arcs come in (tail, head)
    # order, so the first arc of a (tail, head color) has the lowest head; in
    # (head, tail) order they come in the CSR order of their reverses.
    c = np.array(color, np.int64)
    indptr, heads = g._csr
    tails = np.repeat(np.arange(g.n, dtype=np.int32), np.diff(indptr))
    keep = np.zeros(len(heads), bool)
    for lo in range(0, g.n, _PRUNE_BLOCK):  # a block of rows at a time bounds the sort's memory
        a, b = indptr[[lo, min(lo + _PRUNE_BLOCK, g.n)]].tolist()
        tail, colors = tails[a:b], c[heads[a:b]]
        lowest = np.unique(tail.astype(np.int64) * palette + colors, return_index=True)[1]
        keep[a + lowest] = c[tail[lowest]] != colors[lowest]
    keep &= keep[np.argsort(heads, kind="stable")]  # and so is the reverse arc
    keep &= tails < heads
    return color, np.stack([tails[keep], heads[keep]], axis=1)


def rainbow_color(g: Graph, cfg: DecompositionConfig) -> RainbowColoring:
    """Random proper rainbow coloring of a spanning subgraph of g.

    One-shot uniform coloring with conflict pruning; full retry with fresh
    randomness whenever some vertex drops below the retention floor.
    Deterministic given (rng_seed, retry index).
    """
    delta = g.max_degree()
    if delta < 2:
        raise ValueError("rainbow coloring needs max degree >= 2")
    palette = cfg.color_multiplier * delta
    degree = np.diff(g._csr[0])
    worst_v, worst_ratio = -1, 1.0
    for retry in range(cfg.max_retries):
        rng = random.Random(cfg.rng_seed * 1_000_003 + retry)
        color, kept = _try_rainbow(g, palette, rng)
        kept_degree = np.bincount(kept.ravel(), minlength=g.n)
        short = np.flatnonzero((degree > 0) & (kept_degree < cfg.retention * degree))
        if short.size == 0:
            return RainbowColoring(g, Graph(g.n, kept), color, palette_size=palette)
        v = int(short[0])
        ratio = int(kept_degree[v]) / int(degree[v])
        if ratio < worst_ratio:
            worst_v, worst_ratio = v, ratio
    raise RainbowRetentionError(worst_v, worst_ratio, cfg.max_retries)


# ---------------------------------------------------------------------------
# Pullback of a palette partition


def pullback_partition(
    rc: RainbowColoring,
    palette: CompleteCoverLocator,
    target_cycle: int,
) -> EdgePartition:
    """Partition the retained subgraph by palette part of its color edges.

    An edge uv lands in the class of the palette edge color(u)color(v),
    found by one ``palette.locate`` call over all retained edges; the color
    map restricted to a class is a locally injective homomorphism into the
    corresponding palette part, so girth transfers.  Classes are named
    ``pull_`` plus the palette part's name.
    """
    if palette.n != rc.palette_size:
        raise ValueError(
            f"palette partition host has {palette.n} vertices, coloring uses {rc.palette_size}"
        )
    pairs = rc.retained._pairs()
    color = np.array(rc.color, np.int64)
    ids = palette.locate(color[pairs[:, 0]], color[pairs[:, 1]])
    groups = sorted(group_edges(pairs, ids), key=lambda g: str(palette.part_key(g[0])))
    parts = [
        Part(name="pull_" + palette.part_name(pid), edges=edges, forbidden_cycle=target_cycle)
        for pid, edges in groups
    ]
    return EdgePartition(HostSpec.explicit(rc.retained.n, pairs), parts)


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class RoundLog:
    round_index: int
    max_degree_before: int
    core_vertices: int
    forest_parts: int
    palette_size: int
    palette_parts_planned: int
    palette_parts_nonempty: int
    max_degree_after: int


@dataclass
class DecompositionResult:
    partition: EdgePartition  # nonempty classes only, all certified
    rounds: list[RoundLog]
    threshold: int
    total_parts: int  # planned count incl. empty palette classes
    config: DecompositionConfig


def decompose(g: Graph, cfg: Optional[DecompositionConfig] = None) -> DecompositionResult:
    """Partition E(g) into C_{2k}-free classes, k per ``cfg.target_cycle``.

    Every output class is re-certified by exact cycle search.  The planned
    class count (``total_parts``) includes palette classes that came out
    empty, so reported rates are not flattered.
    """
    cfg = cfg or DecompositionConfig()
    target = cfg.target_cycle
    delta0 = g.max_degree()
    threshold = default_threshold(delta0)
    parts: list[Part] = []
    rounds: list[RoundLog] = []
    planned = 0
    locators: dict[int, CompleteCoverLocator] = {}
    current = g
    rnd = 0
    seed_step = 0
    while current.m > 0 and current.max_degree() >= threshold:
        rnd += 1
        delta_before = current.max_degree()
        core, shell, order = degeneracy_peel(current, threshold)
        forests = forest_decompose(shell, order)
        for i, f in enumerate(forests):
            parts.append(Part(f"r{rnd}_forest{i}", f._pairs(), forbidden_cycle=target))
        planned += len(forests)
        if core.m == 0:
            # everything peeled into forests; no rainbow round happened
            current = core
            break
        sub_cfg = replace(cfg, rng_seed=cfg.rng_seed + seed_step)
        seed_step += cfg.max_retries
        try:
            rc = rainbow_color(core, sub_cfg)
        except RainbowRetentionError as err:
            err.rounds = rounds
            raise
        if rc.palette_size not in locators:
            locators[rc.palette_size] = CompleteCoverLocator(rc.palette_size, cfg.palette_girth)
        locator = locators[rc.palette_size]
        pulled = pullback_partition(rc, locator, target)
        for part in pulled.parts:
            part.name = f"r{rnd}_{part.name}"
            parts.append(part)
        planned += locator.plan.total_parts
        core_pairs = core._pairs()
        key = [g.n, 1]  # pairs @ key: the edge keys u*n + v, sorted as the pairs are
        remaining = np.ones(len(core_pairs), bool)
        remaining[np.searchsorted(core_pairs @ key, rc.retained._pairs() @ key)] = False
        current = Graph(g.n, core_pairs[remaining])
        rounds.append(
            RoundLog(
                round_index=rnd,
                max_degree_before=delta_before,
                core_vertices=int(np.count_nonzero(np.diff(core._csr[0]))),
                forest_parts=len(forests),
                palette_size=rc.palette_size,
                palette_parts_planned=locator.plan.total_parts,
                palette_parts_nonempty=len(pulled.parts),
                max_degree_after=current.max_degree(),
            )
        )
    if current.m > 0:
        order = degeneracy_order(current)
        forests = forest_decompose(current, order)
        for i, f in enumerate(forests):
            parts.append(Part(f"final_forest{i}", f._pairs(), forbidden_cycle=target))
        planned += len(forests)
    parts = [p for p in parts if len(p.edges)]
    for part in parts:
        if Graph(g.n, part.edges).has_cycle_of_length(target):
            raise AssertionError(f"class {part.name} contains a C_{target}")
    partition = EdgePartition(host=HostSpec.explicit(g.n, g._pairs()), parts=parts)
    return DecompositionResult(
        partition=partition,
        rounds=rounds,
        threshold=threshold,
        total_parts=planned,
        config=cfg,
    )
