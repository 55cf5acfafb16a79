"""Randomized cover of K_n by permuted copies of a high-girth seed graph.

Place t independently and uniformly permuted copies of a certified
high-girth seed onto K_n, with t calibrated so that every pair's expected
coverage is at least C*ln(n); a Chernoff-plus-union-bound argument makes
full coverage overwhelmingly likely for C large enough.  First-cover-wins
assignment turns the cover into an exact partition; each class is a
subgraph of one permuted copy, so its girth is at least the seed's.

Failed samples (some pair uncovered) are ordinary return values, not
exceptions: Monte-Carlo acceptance runs need to count them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebraic import build_hexagon, build_quadrangle
from .field import next_prime_at_least
from .graph import Graph
from .partition import EdgePartition, HostSpec, Part, group_edges


@dataclass(frozen=True)
class SeedGraph:
    """A graph with a verified girth certificate, usable as a cover seed."""

    graph: Graph
    girth: object  # int or math.inf

    @staticmethod
    def certify(graph: Graph, min_girth: Optional[int] = None) -> "SeedGraph":
        """Compute the girth and wrap; refuses edgeless or too-short-girth seeds."""
        if graph.m == 0:
            raise ValueError("seed graph needs at least one edge")
        g = graph.girth()
        if min_girth is not None and g < min_girth:
            raise ValueError(f"seed girth {g} below required {min_girth}")
        return SeedGraph(graph=graph, girth=g)

    def padded_to(self, n: int) -> "SeedGraph":
        """Same edges on n vertices (isolated padding); girth unchanged."""
        if n < self.graph.n:
            raise ValueError(f"cannot pad {self.graph.n}-vertex seed down to {n}")
        if n == self.graph.n:
            return self
        return SeedGraph(graph=Graph(n, self.graph._pairs()), girth=self.girth)


def required_copies(n: int, seed_edges: int, safety_constant: float) -> int:
    """Copies needed so each pair's expected coverage is >= C * ln(n).

    t = ceil(C * ln(n) * n(n-1) / (2 * seed_edges)): each copy covers a
    fixed pair with probability seed_edges / (n(n-1)/2).
    """
    if n < 2 or seed_edges < 1 or not (math.isfinite(safety_constant) and safety_constant > 0):
        raise ValueError("need n >= 2, seed_edges >= 1, finite C > 0")
    return math.ceil(safety_constant * math.log(n) * n * (n - 1) / (2 * seed_edges))


@dataclass
class CoverOutcome:
    n: int
    copies: list[list[int]]  # permutation per copy: seed vertex -> host vertex
    assignment: dict[tuple[int, int], int]  # host edge -> first covering copy
    uncovered: list[tuple[int, int]]
    copy_count: int
    safety_constant: float
    seed_girth: object

    @property
    def success(self) -> bool:
        return not self.uncovered

    def to_partition(self) -> EdgePartition:
        """The first-cover-wins exact partition of E(K_n); success only."""
        if not self.success:
            raise ValueError("cover failed; no partition to extract")
        girth_target = None if self.seed_girth == math.inf else int(self.seed_girth)
        edges = np.array(list(self.assignment), np.int64).reshape(-1, 2)
        copy = np.fromiter(self.assignment.values(), np.int64, len(edges))
        order = np.lexsort(edges.T[::-1])  # lexicographic, so each part's edges are sorted
        parts = [
            Part(name=f"copy{idx:05d}", edges=group, girth_target=girth_target)
            for idx, group in group_edges(edges[order], copy[order])
        ]
        return EdgePartition(host=HostSpec.complete(self.n), parts=parts)


def cover_random(n: int, seed: SeedGraph, safety_constant: float, rng_seed: int) -> CoverOutcome:
    """Sample the permuted-copy cover of K_n once.

    Permutations are seeded Fisher-Yates; copy i draws from the stream
    (rng_seed, i), so copies are reproducible and order-independent.
    """
    seed = seed.padded_to(n)
    seed_edges = list(seed.graph.edges())
    t = required_copies(n, len(seed_edges), safety_constant)
    assignment: dict[tuple[int, int], int] = {}
    copies = []
    for i in range(t):
        rng = random.Random(rng_seed * 1_000_003 + i)
        perm = list(range(n))
        rng.shuffle(perm)
        copies.append(perm)
        for u, v in seed_edges:
            a, b = perm[u], perm[v]
            key = (a, b) if a < b else (b, a)
            if key not in assignment:
                assignment[key] = i
    uncovered = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in assignment
    ]
    return CoverOutcome(
        n=n,
        copies=copies,
        assignment=assignment,
        uncovered=uncovered,
        copy_count=t,
        safety_constant=safety_constant,
        seed_girth=seed.girth,
    )


def builtin_seed_for_cycle(n: int, k: int) -> SeedGraph:
    """Densest built-in certified seed of girth >= 2k+2 on at most n vertices.

    Built-ins are the quadrangle graphs (girth 8, covers k <= 3) and the
    hexagon graphs (girth 12, covers k <= 5).  k = 4 has no built-in seed of
    the matching girth-10 density; supply an explicit seed instead.
    """
    if k not in (2, 3, 5):
        raise ValueError(
            f"no built-in seed for k={k}; supply an explicit high-girth seed"
        )
    candidates = []  # (edge count, arity, q)
    for arity in ((3, 5) if k < 5 else (5,)):
        q = 5
        while 2 * q**arity <= n:
            candidates.append((q ** (arity + 1), arity, q))
            q = next_prime_at_least(q + 1)
    if not candidates:
        raise ValueError(
            f"no built-in seed with girth >= {2 * k + 2} fits in {n} vertices; "
            "supply an explicit seed graph"
        )
    _, arity, q = max(candidates)
    built = build_quadrangle(q) if arity == 3 else build_hexagon(q)
    return SeedGraph.certify(built.graph, min_girth=2 * k + 2)


def cover_for_cycle(
    n: int,
    k: int,
    safety_constant: float,
    rng_seed: int,
    seed: Optional[SeedGraph] = None,
) -> CoverOutcome:
    """Cover K_n by copies of a seed of girth > 2k (built-in unless supplied)."""
    if seed is None:
        seed = builtin_seed_for_cycle(n, k)
    elif seed.girth < 2 * k + 1:
        raise ValueError(f"supplied seed has girth {seed.girth}, need > {2 * k}")
    return cover_random(n, seed, safety_constant, rng_seed)
