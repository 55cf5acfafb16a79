"""Decomposition of bounded-degree graphs into even-cycle-free parts.

The pipeline per round:

1. peel vertices of degree below a threshold (~= log^2 of the initial max
   degree); the peeled shell is low-degeneracy and splits into few forests,
   trivially free of any cycle;
2. on the remaining core, find a proper rainbow coloring of a spanning
   subgraph that keeps at least a tenth of every vertex's degree;
3. partition the retained subgraph by pulling back a partition of the
   complete graph on the palette into high-girth parts: the color map is a
   locally injective homomorphism from each pullback class into its palette
   part, so a palette part of girth > 2k yields a C_{2k}-free class;
4. remove the retained edges (max degree drops by a constant factor) and
   repeat until the remainder is low-degree, then finish with forests.

Every class of the output is certified C_{2k}-free by direct search, never
by trusting the construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Union

from .graph import (
    Graph,
    DegeneracyOrder,
    degeneracy_order,
    degeneracy_peel,
    forest_decompose,
)
from .partition import (
    CompleteCoverLocator,
    EdgePartition,
    HostSpec,
    Part,
)

_CYCLE_GIRTH = {6: 8, 10: 12}


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
    # drop monochromatic edges, then keep one edge per repeated color class
    # in each neighborhood (lowest neighbor id wins; deterministic given the
    # colors).  Deleting extra edges can only help injectivity, so a single
    # pruning pass suffices.
    proper = [(u, v) for u, v in g.edges() if color[u] != color[v]]
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in proper:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dropped = set()
    for v in range(g.n):
        best_by_color: dict[int, int] = {}
        for w in nbrs[v]:
            c = color[w]
            prev = best_by_color.get(c)
            if prev is None:
                best_by_color[c] = w
            elif w < prev:
                best_by_color[c] = w
                dropped.add((v, prev) if v < prev else (prev, v))
            else:
                dropped.add((v, w) if v < w else (w, v))
    kept = [e for e in proper if e not in dropped]
    return color, kept


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
    worst_v, worst_ratio = -1, 1.0
    for retry in range(cfg.max_retries):
        rng = random.Random(cfg.rng_seed * 1_000_003 + retry)
        color, kept = _try_rainbow(g, palette, rng)
        deg_kept = [0] * g.n
        for u, v in kept:
            deg_kept[u] += 1
            deg_kept[v] += 1
        ok = True
        for v in range(g.n):
            d = g.degree(v)
            if d > 0 and deg_kept[v] < cfg.retention * d:
                ratio = deg_kept[v] / d
                if ratio < worst_ratio:
                    worst_v, worst_ratio = v, ratio
                ok = False
                break
        if ok:
            retained = Graph(g.n, kept)
            return RainbowColoring(host=g, retained=retained, color=color, palette_size=palette)
    raise RainbowRetentionError(worst_v, worst_ratio, cfg.max_retries)


# ---------------------------------------------------------------------------
# Pullback of a palette partition


PaletteSource = Union[EdgePartition, CompleteCoverLocator]


def _palette_part_lookup(palette: PaletteSource, palette_size: int):
    if isinstance(palette, CompleteCoverLocator):
        if palette.n != palette_size:
            raise ValueError(
                f"palette partition host has {palette.n} vertices, coloring uses {palette_size}"
            )
        return palette.part_of_edge
    if palette.host.n != palette_size:
        raise ValueError(
            f"palette partition host has {palette.host.n} vertices, coloring uses {palette_size}"
        )
    table = {}
    for part in palette.parts:
        for u, v in part.edges:
            table[(u, v) if u < v else (v, u)] = part.name
    def lookup(u, v):
        return table[(u, v) if u < v else (v, u)]
    return lookup


def pullback_partition(
    rc: RainbowColoring,
    palette: PaletteSource,
    target_cycle: int,
) -> EdgePartition:
    """Partition the retained subgraph by palette part of its color edges.

    An edge uv lands in the class of the palette edge color(u)color(v); the
    color map restricted to a class is a locally injective homomorphism into
    the corresponding palette part, so girth transfers.
    """
    lookup = _palette_part_lookup(palette, rc.palette_size)
    buckets: dict[object, list[tuple[int, int]]] = {}
    for u, v in rc.retained.edges():
        buckets.setdefault(lookup(rc.color[u], rc.color[v]), []).append((u, v))

    def part_name(key) -> str:
        if isinstance(key, tuple):  # locator key: (level, shift tuple)
            level, shift = key
            return f"pull_L{level}_s" + "_".join(map(str, shift))
        return f"pull_{key}"

    parts = [
        Part(name=part_name(key), edges=edges, forbidden_cycle=target_cycle)
        for key, edges in sorted(buckets.items(), key=lambda kv: str(kv[0]))
    ]
    return EdgePartition(
        host=HostSpec.explicit(rc.retained.n, rc.retained.edges()), parts=parts
    )


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
            parts.append(
                Part(
                    name=f"r{rnd}_forest{i}",
                    edges=list(f.edges()),
                    forbidden_cycle=target,
                )
            )
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
            locators[rc.palette_size] = CompleteCoverLocator(
                rc.palette_size, cfg.palette_girth
            )
        locator = locators[rc.palette_size]
        pulled = pullback_partition(rc, locator, target)
        for part in pulled.parts:
            part.name = f"r{rnd}_{part.name}"
            parts.append(part)
        planned += locator.plan.total_parts
        retained_edges = set(rc.retained.edges())
        remaining = [e for e in core.edges() if e not in retained_edges]
        current = Graph(g.n, remaining)
        rounds.append(
            RoundLog(
                round_index=rnd,
                max_degree_before=delta_before,
                core_vertices=sum(1 for v in range(core.n) if core.degree(v) > 0),
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
            parts.append(
                Part(name=f"final_forest{i}", edges=list(f.edges()), forbidden_cycle=target)
            )
        planned += len(forests)
    parts = [p for p in parts if p.edges]
    for part in parts:
        if Graph(g.n, part.edges).has_cycle_of_length(target):
            raise AssertionError(f"class {part.name} contains a C_{target}")
    partition = EdgePartition(host=HostSpec.explicit(g.n, g.edges()), parts=parts)
    return DecompositionResult(
        partition=partition,
        rounds=rounds,
        threshold=threshold,
        total_parts=planned,
        config=cfg,
    )
