"""Randomized cover of K_n by permuted copies of a high-girth seed graph.

Place t independently and uniformly permuted copies of a certified
high-girth seed onto K_n, with t calibrated so that every pair's expected
coverage is at least C*ln(n); a Chernoff-plus-union-bound argument makes
full coverage overwhelmingly likely for C large enough.  Sampling stops at
the first copy that completes the cover, so a large C costs no more than
the cover needs.  First-cover-wins turns the cover into an exact
partition: each edge of K_n is labelled with the first copy that covers
it, and ``graph.group_edges`` forms the classes, as for every other
producer of parts.  Each class is a subgraph of one permuted copy, so its
girth is at least the seed's.

Failed samples (some pair uncovered) are ordinary return values, not
exceptions: Monte-Carlo acceptance runs need to count them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebraic import build_hexagon, build_quadrangle, next_prime_at_least
from .graph import Graph, group_edges
from .partition import EdgePartition, HostSpec, Part


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


def required_copies(n: int, seed_edges: int, safety_constant: float) -> int:
    """Copies needed so each pair's expected coverage is >= C * ln(n).

    t = ceil(C * ln(n) * n(n-1) / (2 * seed_edges)): each copy covers a
    fixed pair with probability seed_edges / (n(n-1)/2).
    """
    if n < 2 or seed_edges < 1 or not (math.isfinite(safety_constant) and safety_constant > 0):
        raise ValueError("need n >= 2, seed_edges >= 1, finite C > 0")
    t = safety_constant * math.log(n) * n * (n - 1) / (2 * seed_edges)
    if not math.isfinite(t):
        raise ValueError(f"C = {safety_constant} asks for more copies than a float can count")
    return math.ceil(t)


@dataclass
class CoverOutcome:
    n: int
    owner: np.ndarray  # first covering copy of each K_n edge in triu order, -1 if none
    uncovered: np.ndarray  # (k, 2) int64: the K_n edges that no copy covers
    copy_count: int  # planned copies t
    copies_used: int  # copies sampled: t, or fewer once every pair is covered
    safety_constant: float
    seed_girth: object

    @property
    def success(self) -> bool:
        return len(self.uncovered) == 0

    def to_partition(self) -> EdgePartition:
        """The first-cover-wins exact partition of E(K_n); success only.  A forest
        seed's classes claim girth n + 1, which on n vertices means a forest."""
        if not self.success:
            raise ValueError("cover failed; no partition to extract")
        girth_target = self.n + 1 if self.seed_girth == math.inf else int(self.seed_girth)
        pairs = np.stack(np.triu_indices(self.n, 1), axis=1)
        parts = [
            Part(name=f"copy{idx:05d}", edges=group, girth_target=girth_target)
            for idx, group in group_edges(pairs, self.owner)
        ]
        return EdgePartition(host=HostSpec.complete(self.n), parts=parts)


def _copy_permutation(n: int, rng_seed: int, i: int) -> list[int]:
    """The permutation of copy i: seed vertex -> host vertex."""
    perm = list(range(n))
    random.Random(rng_seed * 1_000_003 + i).shuffle(perm)
    return perm


def _triu_pairs(n: int, keys: np.ndarray) -> np.ndarray:
    """The (k, 2) int64 pairs (lo, hi) of K_n at positions ``keys`` in triu
    order: a key is in the last row lo whose start lo(2n - lo - 1)/2 it reaches."""
    starts = np.arange(n - 1, dtype=np.int64) * (2 * n - np.arange(n - 1) - 1) // 2
    lo = np.searchsorted(starts, keys, side="right") - 1
    return np.stack([lo, keys - starts[lo] + lo + 1], axis=1)


def cover_random(n: int, seed: SeedGraph, safety_constant: float, rng_seed: int) -> CoverOutcome:
    """Sample the permuted-copy cover of K_n once.

    Permutations are seeded Fisher-Yates; copy i draws from the stream
    (rng_seed, i), so copies are reproducible and order-independent, and
    none is kept.  Sampling stops once every pair is covered: a later copy
    would own no edge.  A seed with more vertices than n raises ``ValueError``.
    """
    if seed.graph.n > n:
        raise ValueError(f"seed has {seed.graph.n} vertices, more than n={n}")
    u, v = seed.graph._pairs().T
    t = required_copies(n, len(u), safety_constant)
    owner = np.full(n * (n - 1) // 2, -1, np.int64)
    left = len(owner)  # pairs no copy covers yet
    used = 0
    while left and used < t:
        perm = np.array(_copy_permutation(n, rng_seed, used), np.int64)
        lo, hi = np.minimum(perm[u], perm[v]), np.maximum(perm[u], perm[v])
        keys = lo * (2 * n - lo - 3) // 2 + hi - 1  # position of (lo, hi) in triu order
        new = keys[owner[keys] < 0]  # one copy's keys are distinct
        owner[new] = used
        left -= len(new)
        used += 1
    return CoverOutcome(
        n=n,
        owner=owner,
        uncovered=_triu_pairs(n, np.flatnonzero(owner < 0)),
        copy_count=t,
        copies_used=used,
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
