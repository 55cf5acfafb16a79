"""Acceptance suite: one test per top-level criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from girthcover.algebraic import (
    build_hexagon,
    build_quadrangle,
    index_to_tuple,
    is_edge_q,
    solve_shift_q,
)
from girthcover.bounds import lower_bound_exponent, upper_bound
from girthcover.graph import Graph
from girthcover.partition import cover_complete, partition_bipartite_exact, verify_partition
from girthcover.rainbow import DecompositionConfig, decompose, rainbow_color
from girthcover.randomcover import SeedGraph, cover_random
from conftest import (
    check_rainbow_coloring,
    has_edge,
    is_locally_injective_hom,
    neighbors,
    petersen_graph,
    random_graph,
    random_regular,
)


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_quadrangle_construction():
    t0 = time.perf_counter()
    for q in (5, 7, 11):
        plg = build_quadrangle(q)
        g = plg.graph
        assert g.n == 2 * q**3
        assert g.m == q**4
        assert all(g.degree(v) == q for v in range(g.n))
        assert g.side is not None
        assert g.girth() == 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(1, f"quadrangles q=5,7,11 girth exactly 8 in {elapsed:.1f}s")


def test_criterion_2_hexagon_construction():
    t0 = time.perf_counter()
    g = build_hexagon(5).graph
    assert g.n == 6250
    assert g.m == 15625
    assert all(g.degree(v) == 5 for v in range(g.n))
    assert g.side is not None
    assert g.girth() == 12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(2, f"hexagon q=5 girth exactly 12 in {elapsed:.1f}s")


def test_criterion_2_hexagon_q7():
    g = build_hexagon(7).graph
    assert g.n == 2 * 7**5
    assert g.m == 7**6
    assert all(g.degree(v) == 7 for v in range(g.n))
    assert g.girth() == 12
    report("2-slow", "hexagon q=7 girth exactly 12")


def test_criterion_3_exact_bipartite_partition():
    t0 = time.perf_counter()
    ep = partition_bipartite_exact(5, 3)
    assert len(ep.parts) == 25
    for part in ep.parts:
        assert len(part.edges) == 625
        assert Graph(250, part.edges).girth() == 8
    assert ep.is_exact()
    assert sum(len(p.edges) for p in ep.parts) == 15625
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(3, f"25 parts x 625 edges, all girth 8, exact partition in {elapsed:.1f}s")


def test_criterion_4_shift_algebra_exhaustive():
    q = 5
    by_shift = {}
    for pid in range(q**3):
        p = index_to_tuple(pid, q, 3)
        for lid in range(q**3):
            l = index_to_tuple(lid, q, 3)
            shift = solve_shift_q(p, l, q)
            assert is_edge_q(p, l, shift, q)
            by_shift.setdefault(shift, set()).add((pid, lid))
    # uniqueness: each shift claims exactly q^4 pairs, jointly all q^6 pairs
    assert len(by_shift) == q**2
    assert all(len(s) == q**4 for s in by_shift.values())
    assert sum(len(s) for s in by_shift.values()) == q**6
    report(4, "all 15625 pairs solved, shifts partition the edge set")


def test_criterion_5_cover_complete_rate():
    t0 = time.perf_counter()
    ratios = []
    for n in (64, 250, 500):
        ep, plan = cover_complete(n, 8)
        assert ep.is_exact()
        for part in ep.parts:
            assert Graph(n, part.edges).girth_exceeds(7)
        ratios.append(plan.total_parts / n ** (2 / 3))
    band = max(ratios) / min(ratios)
    assert band <= 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(5, f"exact girth-8 covers of K_64/250/500, rate band {band:.2f} in {elapsed:.1f}s")


def test_criterion_6_rainbow_contract():
    for seed in range(20):
        g = random_regular(2000, 32, seed=seed)
        cfg = DecompositionConfig(rng_seed=seed)
        rc = rainbow_color(g, cfg)
        # each invariant verbatim
        assert rc.palette_size <= 200 * 32
        for u, v in rc.retained.edges():
            assert rc.color[u] != rc.color[v]
        for v in range(g.n):
            seen = [rc.color[w] for w in neighbors(rc.retained, v)]
            assert len(set(seen)) == len(seen)
            assert rc.retained.degree(v) >= g.degree(v) / 10
        check_rainbow_coloring(rc, cfg)
    report(6, "20 seeds, n=2000 d=32: properness, injectivity, palette, retention")


def _decompose_rate(deltas, target_cycle, n=800):
    ratios = []
    exponent = 2 / 3 if target_cycle == 6 else 4 / 5
    for d in deltas:
        g = random_regular(n, d, seed=d)
        res = decompose(g, DecompositionConfig(target_cycle=target_cycle, rng_seed=d))
        assert res.partition.is_exact()
        rep = verify_partition(res.partition, forbidden_cycle=target_cycle)
        assert rep.passed
        ratios.append(res.total_parts / d**exponent)
    return ratios


def test_criterion_7_decompose_c6():
    t0 = time.perf_counter()
    ratios = _decompose_rate((16, 32, 64), 6)
    band = max(ratios) / min(ratios)
    assert band <= 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(7, f"C6-free decompositions at d=16/32/64, rate band {band:.2f} in {elapsed:.1f}s")


def test_criterion_8_decompose_c10():
    t0 = time.perf_counter()
    ratios = _decompose_rate((16, 32), 10)
    band = max(ratios) / min(ratios)
    assert band <= 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report(8, f"C10-free decompositions at d=16/32, rate band {band:.2f} in {elapsed:.1f}s")


def test_criterion_9_random_cover_monte_carlo():
    seed = SeedGraph.certify(petersen_graph())
    assert seed.girth == 5
    successes = 0
    for trial in range(100):
        outcome = cover_random(20, seed, 9.0, rng_seed=trial)
        if outcome.success:
            successes += 1
            ep = outcome.to_partition()
            assert ep.is_exact()
            for part in ep.parts:
                assert Graph(20, part.edges).girth_exceeds(4)
    assert successes >= 99
    report(9, f"{successes}/100 trials covered; all partitions exact, parts girth >= 5")


def test_criterion_10_hom_transfer():
    rng = random.Random(123)
    checked = 0
    while checked < 1000:
        g = random_graph(rng.randrange(4, 9), 0.45, rng.randrange(10**9))
        fn = rng.randrange(3, 9)
        phi = [rng.randrange(g.n) for _ in range(fn)]
        edges = []
        nbr_images = [set() for _ in range(fn)]
        pairs = [(u, v) for u in range(fn) for v in range(u + 1, fn)]
        rng.shuffle(pairs)
        for u, v in pairs:
            if phi[u] == phi[v] or not has_edge(g, phi[u], phi[v]):
                continue
            if phi[v] in nbr_images[u] or phi[u] in nbr_images[v]:
                continue
            edges.append((u, v))
            nbr_images[u].add(phi[v])
            nbr_images[v].add(phi[u])
        if not edges:
            continue
        f = Graph(fn, edges)
        c = f.girth()
        if c == math.inf:
            continue
        assert is_locally_injective_hom(f, g, phi)
        assert g.girth() <= c
        checked += 1
    report(10, "1000 locally injective triples: target girth <= cycle length")


def test_criterion_11_bound_calculators():
    assert lower_bound_exponent(2) == Fraction(2)
    assert lower_bound_exponent(3) == Fraction(3, 2)
    assert lower_bound_exponent(5) == Fraction(6, 5)
    assert upper_bound(3, 2, 2.0) == 0
    assert upper_bound(2, 4, 1.0) == 15
    assert upper_bound(3, 8, 0.5) == pytest.approx(63)
    report(11, "exact exponents 2, 3/2, 6/5 and hand-checked upper bounds")
