import hashlib
import itertools
import math
import os
import random
import re

import pytest

import networkx as nx
import numpy as np

from girthcover.algebraic import _shift_index, index_to_tuple, solve_shift_h, solve_shift_q
from girthcover.graph import Graph, write_edge_list
from girthcover.partition import (
    CompleteCoverLocator,
    EdgePartition,
    HostSpec,
    Part,
    cover_bipartite,
    cover_complete,
    partition_bipartite_exact,
    prime_for_side,
    read_manifest,
    verify_partition,
    write_manifest,
)
from girthcover.rainbow import RainbowColoring, pullback_partition
from conftest import random_graph, reference_cover_bipartite, reference_cover_complete, searched_as, traced_peak


def test_partition_bipartite_exact_q5():
    ep = partition_bipartite_exact(5, 3)
    assert len(ep.parts) == 25
    assert all(len(p.edges) == 625 for p in ep.parts)
    assert ep.is_exact()
    # 25 parts x 625 edges = 125^2
    assert sum(len(p.edges) for p in ep.parts) == 125 * 125


def test_partition_bipartite_parts_have_girth_8():
    ep = partition_bipartite_exact(5, 3)
    for part in ep.parts[:5]:
        assert Graph(ep.host.n, part.edges).girth() == 8
    for part in ep.parts:
        assert Graph(ep.host.n, part.edges).girth_exceeds(7)


def test_partition_bipartite_rejects_bad_arity():
    with pytest.raises(ValueError):
        partition_bipartite_exact(5, 4)


def test_partition_matches_shift_solver():
    # independent route: assign each host edge by the unique-shift solver
    # and compare with the constructed parts
    ep = partition_bipartite_exact(5, 3)
    by_name = {p.name: set(map(tuple, p.edges.tolist())) for p in ep.parts}
    for u in range(0, 125, 7):
        for v in range(0, 125, 11):
            shift = solve_shift_q(index_to_tuple(u, 5, 3), index_to_tuple(v, 5, 3), 5)
            name = "s" + "_".join(map(str, shift))
            assert (u, 125 + v) in by_name[name]


def test_cover_bipartite_exact_case():
    ep = cover_bipartite(125, 8)
    assert len(ep.parts) == 25
    assert ep.is_exact()


def test_cover_bipartite_degenerate():
    ep = cover_bipartite(1, 8)
    assert len(ep.parts) == 25
    nonempty = [p for p in ep.parts if len(p.edges)]
    assert len(nonempty) == 1
    assert nonempty[0].edges.tolist() == [[0, 1]]


@pytest.mark.parametrize("build", [cover_bipartite, CompleteCoverLocator])
def test_unsupported_target_girth_rejected(build):
    with pytest.raises(ValueError, match="target girth must be one of"):
        build(10, 10)


def test_cover_bipartite_m100():
    ep = cover_bipartite(100, 8)
    assert len(ep.parts) == 25
    assert ep.is_exact()
    for part in ep.parts:
        assert Graph(200, part.edges).girth_exceeds(7)


def test_prime_for_side():
    assert prime_for_side(125, 3) == 5
    assert prime_for_side(126, 3) == 7
    assert prime_for_side(344, 3) == 11
    assert prime_for_side(3125, 5) == 5


def test_cover_complete_trivial():
    ep, plan = cover_complete(2, 8)
    assert ep.is_exact()
    assert sum(len(p.edges) for p in ep.parts) == 1


def test_cover_complete_n64_girth12():
    ep, plan = cover_complete(64, 12)
    assert ep.is_exact()
    for part in ep.parts:
        assert Graph(64, part.edges).girth_exceeds(11)


def test_cover_complete_n250_girth8():
    ep, plan = cover_complete(250, 8)
    assert ep.is_exact()
    for part in ep.parts:
        assert Graph(250, part.edges).girth_exceeds(7)
    assert plan.total_parts == sum(lv.parts for lv in plan.levels)


def test_cover_complete_rate_band():
    ratios = []
    for n in (64, 128, 256, 512):
        loc = CompleteCoverLocator(n, 8)
        ratios.append(loc.plan.total_parts / n ** (2 / 3))
    assert max(ratios) / min(ratios) <= 3


def test_locator_matches_materialized_partition():
    # cover_complete places no edge with the locator, so each checks the other.
    for girth in (8, 12):
        for n in (2, 3, 17, 60, 131, 257):
            loc = CompleteCoverLocator(n, girth)
            ep, plan = cover_complete(n, girth)
            assert plan == loc.plan and ep.is_exact(), (n, girth)
            ids = {loc.part_name(pid): pid for pid in range(plan.total_parts)}
            want = np.repeat([ids[part.name] for part in ep.parts], [len(part.edges) for part in ep.parts])
            u, v = np.concatenate([part.edges for part in ep.parts]).T
            assert (loc.locate(u, v) == want).all(), (n, girth)


def assert_same_cover(got, want):
    """The (partition, plan) pairs have equal plans and the same parts in
    the same order: names, claims, and int64 edge arrays row for row."""
    (ep, plan), (ref, ref_plan) = got, want
    assert plan == ref_plan
    assert [part.name for part in ep.parts] == [part.name for part in ref.parts]
    for part, ref_part in zip(ep.parts, ref.parts):
        assert part.edges.dtype == np.int64 and part.girth_target == ref_part.girth_target
        assert np.array_equal(part.edges, ref_part.edges), part.name


COVER_HOSTS = {
    "every-n-to-300": range(2, 301),
    "powers-of-2-and-neighbours-to-1025": sorted({2**k + d for k in range(1, 11) for d in (-1, 0, 1)} - {1}),
    "500-and-1000": (500, 1000),
}


@pytest.mark.parametrize("girth", [8, 12])
@pytest.mark.parametrize("hosts", list(COVER_HOSTS))
def test_cover_complete_matches_locate_and_group_reference(hosts, girth):
    for n in COVER_HOSTS[hosts]:
        assert_same_cover(cover_complete(n, girth), reference_cover_complete(n, girth))


@pytest.mark.parametrize("girth, sides", [(8, (1, 2, 7, 30, 124, 126, 200)), (12, (1, 2, 5, 40, 90))])
def test_cover_bipartite_matches_incidence_reference(girth, sides):
    for m in sides:
        ep, ref = cover_bipartite(m, girth), reference_cover_bipartite(m, girth)
        assert [part.name for part in ep.parts] == [part.name for part in ref.parts]
        for part, ref_part in zip(ep.parts, ref.parts):
            assert part.edges.dtype == np.int64 and np.array_equal(part.edges, ref_part.edges), (m, part.name)


def test_cover_complete_places_no_edge_with_the_locator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cover_complete located or enumerated K_n")

    monkeypatch.setattr(CompleteCoverLocator, "locate", refuse)
    monkeypatch.setattr(CompleteCoverLocator, "_locate", refuse)
    monkeypatch.setattr(np, "triu_indices", refuse)
    for n, girth in ((100, 8), (60, 12)):
        ep, _ = cover_complete(n, girth)
        assert ep.is_exact()


@pytest.mark.parametrize("n, girth, parent", [(1000, 8, 64.1), (300, 12, 67.4)])
def test_cover_complete_peak_memory_per_edge(n, girth, parent):
    # ``parent`` is the traced peak, in bytes per edge of K_n, of the build
    # that located every edge and grouped them by part id (a triu pair
    # array, the ids, the packed sort): 64.07 at (1000, 8) and 67.38 at
    # (300, 12).  The shared-pattern build peaks near 16.9 and 37.1, of
    # which the parts themselves hold 16.
    peak, (ep, _) = traced_peak(lambda: cover_complete(n, girth))
    assert ep.is_exact() and peak / (n * (n - 1) // 2) <= parent, peak / (n * (n - 1) // 2)


def test_locator_rejects_non_edges():
    loc = CompleteCoverLocator(10, 8)
    with pytest.raises(ValueError):
        loc.locate([3], [3])
    with pytest.raises(ValueError):
        loc.locate([0], [10])


def scalar_locate(loc, u, v):
    """(level, shift tuple, point, line) of the edge uv of K_n, one pair at
    a time: the level by halving the interval, the shift by the scalar
    solvers, and the local point and line as the ends' offsets in the two
    sibling blocks where they separate."""
    u, v = min(u, v), max(u, v)
    lo, hi, level = 0, loc.n, 0
    while True:
        level += 1
        mid = lo + (hi - lo + 1) // 2
        if v < mid:
            hi = mid
        elif u >= mid:
            lo = mid
        else:
            break
    q = loc.plan.levels[level - 1].prime
    p, l = index_to_tuple(u - lo, q, loc.arity), index_to_tuple(v - mid, q, loc.arity)
    solve = solve_shift_q if loc.arity == 3 else solve_shift_h
    return level, solve(p, l, q), u - lo, v - mid


def name_of(level: int, shift: tuple) -> str:
    """The name ``L<level>_s<shift>`` of a part of the complete cover."""
    return f"L{level}_s" + "_".join(map(str, shift))


def halving_locate(loc, u, v):
    """(levels, points, lines) of the edges by halving every interval a
    level at a time on arrays: the array form of ``scalar_locate``'s walk,
    the oracle for the locator's tables on whole hosts."""
    u, v = np.minimum(u, v), np.maximum(u, v)
    levels, points, lines = (np.full(len(u), -1, np.int64) for _ in range(3))
    lo, hi = np.zeros_like(u), np.full_like(u, loc.n)
    for k in range(len(loc.plan.levels)):
        mid = lo + (hi - lo + 1) // 2
        split = (levels < 0) & (u < mid) & (v >= mid)
        levels[split], points[split], lines[split] = k, (u - lo)[split], (v - mid)[split]
        left = v < mid
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return levels, points, lines


def check_locate(loc, u, v):
    """``_locate``'s ids, points and lines match ``scalar_locate`` on every
    pair (u[i], v[i]), on ``loc`` and on a fresh locator that stays below
    n/2 edges, so halves every call; ``locate`` and the reversed orientation
    give the same."""
    u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
    want = [scalar_locate(loc, a, b) for a, b in zip(u.tolist(), v.tolist())]
    want = [(name_of(level, shift), p, l) for level, shift, p, l in want]
    halving = CompleteCoverLocator(loc.n, loc.target_girth)
    halving._located = -len(u) - loc.n
    for locator in (loc, halving):
        ids, points, lines = locator._locate(u, v)
        assert ids.dtype == points.dtype == lines.dtype == np.int64
        got = [(loc.part_name(i), p, l) for i, p, l in zip(ids.tolist(), points.tolist(), lines.tolist())]
        assert got == want
    assert halving._code is None
    for back, forth in zip(loc._locate(v, u), (ids, points, lines)):
        assert (back == forth).all()
    assert (loc.locate(u, v) == ids).all()


def check_not_edges(loc, u, v):
    """Loops, negative ids and ids >= n raise, naming the first such pair
    as (min, max): placed after the edges (u, v), and between two edges."""
    n = loc.n
    for a, b in [(1, 1), (-1, 0), (0, -1), (0, n), (n, 0), (n, n + 1)]:
        message = re.escape(f"({min(a, b)},{max(a, b)}) is not an edge of K_{n}")
        for bad_u, bad_v in [(np.r_[u, a], np.r_[v, b]), (np.r_[0, a, 1], np.r_[1, b, 1])]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                loc.locate(bad_u, bad_v)


@pytest.mark.parametrize("girth", [8, 12])
@pytest.mark.parametrize("n", [2, 3, 17, 64, 131])
def test_array_locate_matches_scalar_reference(n, girth):
    loc = CompleteCoverLocator(n, girth)
    u, v = np.triu_indices(n, 1)
    check_locate(loc, u, v)
    ids = loc.locate(u, v)
    # ids sort as (level, shift): the numbers of their names, in order
    keys = [tuple(map(int, re.findall(r"\d+", loc.part_name(pid)))) for pid in ids.tolist()]
    by_key = dict(zip(keys, ids.tolist()))
    assert [by_key[k] for k in sorted(by_key)] == sorted(by_key.values())
    check_not_edges(loc, u, v)  # at n = 131 the bad pair is in the second block of 8,192
    assert loc.locate([], []).size == 0
    rc = RainbowColoring(host=Graph(n, []), retained=Graph(n, []), color=[0] * n, palette_size=n)
    assert pullback_partition(rc, loc, 6).parts == []


@pytest.mark.parametrize("girth", [8, 12])
def test_locate_matches_scalar_reference_on_every_small_host(girth):
    for n in range(2, 71):
        u, v = np.triu_indices(n, 1)
        check_locate(CompleteCoverLocator(n, girth), u, v)


NEAR_POWERS_OF_TWO = sorted({2**k + d for k in range(7, 13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("girth", [8, 12])
@pytest.mark.parametrize("n", NEAR_POWERS_OF_TWO)
def test_locate_matches_scalar_reference_near_powers_of_two(n, girth):
    # Every vertex with its successor (ends that separate late) and a
    # sample of all pairs; hosts of at most 70 vertices are swept whole above.
    loc = CompleteCoverLocator(n, girth)
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, n, size=(2, 1000))
    u, v = np.r_[np.arange(n), u[u != v]], np.r_[(np.arange(n) + 1) % n, v[u != v]]
    check_locate(loc, u, v)
    check_not_edges(loc, u, v)


@pytest.mark.parametrize(
    "n, girth", [(1000, 8), (9001, 12), (12_800, 8), (12_800, 12), (100_003, 8), (100_003, 12)]
)
def test_array_locate_matches_scalar_reference_on_sampled_pairs(n, girth):
    # Hosts large enough that every point and line coordinate takes all of
    # F_q at the top levels, and a level with a prime above 5.
    loc = CompleteCoverLocator(n, girth)
    assert loc.plan.levels[0].prime > 5
    loc._tables()  # 4,000 pairs are fewer than n/2 for the larger hosts
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, n, size=(2, 4000))
    check_locate(loc, u[u != v], v[u != v])


@pytest.mark.slow
@pytest.mark.parametrize("girth", [8, 12])
def test_locate_matches_halving_on_every_host_up_to_600(girth):
    for n in range(2, 601):
        loc = CompleteCoverLocator(n, girth)
        u, v = np.triu_indices(n, 1)
        ids, points, lines = loc._locate(u, v)
        levels, want_points, want_lines = halving_locate(loc, u, v)
        assert (points == want_points).all() and (lines == want_lines).all(), n
        offsets = np.array(loc._offsets)[levels]
        primes = np.array([lv.prime for lv in loc.plan.levels])[levels]
        for q in np.unique(primes).tolist():
            at = primes == q
            want_ids = offsets[at] + _shift_index(points[at], lines[at], q, loc.arity)
            assert (ids[at] == want_ids).all(), n
        assert all((a == b).all() for a, b in zip(loc._locate(v, u), (ids, points, lines))), n


def test_locator_tables_stay_linear_in_n():
    # n = 10**6 halves 20 times.  A table per (vertex, level) would keep
    # 8 * 20 * n = 160 n bytes.
    n = 10**6
    loc = CompleteCoverLocator(n, 8)
    assert len(loc.plan.levels) == 20 and loc._code is None
    peak, _ = traced_peak(loc._tables)
    kept = loc._code.nbytes + loc._start.nbytes + loc._bits.nbytes
    assert kept < 40 * n and peak < 100 * n, (kept / n, peak / n)


def test_locator_builds_its_tables_at_half_as_many_edges_as_vertices():
    loc = CompleteCoverLocator(1000, 8)
    u, v = np.arange(499), np.arange(1, 500)
    ids = loc.locate(u, v)
    assert loc._code is None
    assert (loc.locate(u[:1], v[:1]) == ids[:1]).all() and loc._code is not None
    assert (loc.locate(u, v) == ids).all()


def test_a_few_edges_of_a_huge_host_are_located_in_memory_of_their_size():
    # Tables for K_{3 * 10**9} would take over 100 GB: 2,000 edges, half of
    # them vertex and successor, are located by halving instead.
    n = 3 * 10**9
    loc = CompleteCoverLocator(n, 8)
    assert len(loc.plan.levels) == 32
    rng = np.random.default_rng(5)
    u, v = rng.integers(0, n, size=(2, 1000))
    x = rng.integers(0, n - 1, size=1000)
    u, v = np.r_[u[u != v], x], np.r_[v[u != v], x + 1]
    peak, ids = traced_peak(lambda: loc.locate(u, v))
    assert loc._code is None and peak < 1000 * len(u), peak / len(u)
    check_locate(loc, u, v)
    assert loc._code is None


def test_exactness_detects_missing_and_duplicate():
    host = HostSpec.complete(4)
    all_edges = np.stack(np.triu_indices(4, 1), axis=1)
    good = EdgePartition(host, [Part("a", all_edges[:3]), Part("b", all_edges[3:])])
    assert good.is_exact()
    missing = EdgePartition(host, [Part("a", all_edges[:5])])
    assert not missing.is_exact()
    doubled = EdgePartition(host, [Part("a", all_edges), Part("b", all_edges[:1])])
    assert not doubled.is_exact()


def reference_host_edges(host: HostSpec) -> list:
    """The host's edges as (u, v) tuples, enumerated."""
    n = host.n
    if host.kind == "complete":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    if host.kind == "bipartite":
        return [(u, host.a + v) for u in range(host.a) for v in range(host.b)]
    return list(host.graph.edges())


def reference_is_exact(p: EdgePartition) -> bool:
    """The tuple-multiset exactness check that the sort of edge keys replaced."""
    combined = sorted(
        (u, v) if u < v else (v, u) for part in p.parts for (u, v) in part.edges.tolist()
    )
    if len(set(combined)) != len(combined):
        return False
    return combined == sorted(reference_host_edges(p.host))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "host",
    [
        HostSpec.complete(9),
        HostSpec.bipartite(4, 6),
        HostSpec.explicit(random_graph(12, 0.4, seed=3)),
    ],
    ids=["complete", "bipartite", "explicit"],
)
def test_is_exact_matches_tuple_reference(host, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.permutation(np.array(reference_host_edges(host)))
    flip = rng.random(len(pairs)) < 0.5  # orientation must not matter
    pairs[flip] = pairs[flip, ::-1]
    cuts = np.sort(rng.choice(np.arange(1, len(pairs)), size=3, replace=False))
    blocks = np.split(pairs, cuts)
    u, v = pairs[0].tolist()
    # (lo - 1, hi + n) has the key (lo - 1)*n + hi + n of the edge (lo, hi) it replaces.
    lo, hi = sorted(blocks[1][0].tolist())
    collide = [blocks[0], np.vstack([blocks[1][1:], [[lo - 1, hi + host.n]]])] + blocks[2:]
    mutations = {
        "none": blocks,
        "dropped edge": [blocks[0][1:]] + blocks[1:],
        "duplicated edge": blocks[:-1] + [np.vstack([blocks[-1], blocks[0][:1]])],
        "reversed in another part": blocks[:-1] + [np.vstack([blocks[-1], [[v, u]]])],
        "loop": blocks[:-1] + [np.vstack([blocks[-1], [[u, u]]])],
        "negative id": blocks[:-1] + [np.vstack([blocks[-1], [[-1, v]]])],
        "out of range": blocks[:-1] + [np.vstack([blocks[-1], [[u, host.n]]])],
        "colliding key": collide,
    }
    if host.kind == "bipartite":  # vertices 0 and 1 are on one side
        mutations["edge within a side"] = [blocks[0], np.vstack([blocks[1][1:], [[0, 1]]])] + blocks[2:]
    if host.kind == "explicit":  # an edge of K_n that the host lacks
        absent = sorted(set(itertools.combinations(range(host.n), 2)) - set(reference_host_edges(host)))[seed]
        mutations["edge not in the host"] = [blocks[0], np.vstack([blocks[1][1:], [absent]])] + blocks[2:]
    for name, parts in mutations.items():
        p = EdgePartition(host, [Part(f"p{i}", b) for i, b in enumerate(parts)])
        assert p.is_exact() == reference_is_exact(p) == (name == "none"), name


@pytest.mark.parametrize(
    "host",
    [
        HostSpec.complete(6),
        HostSpec.bipartite(2, 4),
        HostSpec.explicit(Graph(6, [(0, 1), (2, 5), (3, 4)])),
        HostSpec.explicit(Graph(6, [])),
    ],
    ids=["complete", "bipartite", "explicit", "explicit without edges"],
)
def test_non_edges_flags_every_edge_outside_the_host(host):
    pairs = np.array([(u, v) for u in range(-1, 8) for v in range(u, 8)], np.int64)
    keys, bad = host._non_edges(pairs)
    edges = set(reference_host_edges(host))
    assert (np.diff(keys) >= 0).all()
    assert keys[~bad].tolist() == sorted(u * host.n + v for u, v in edges)
    assert bad.sum() == len(pairs) - len(edges)


def test_is_exact_rejects_edge_whose_key_collides():
    # (0, 6) keys as 0*4 + 6 = 1*4 + 2, the key of (1, 2), which it replaces.
    parts = [Part("a", [(0, 1), (0, 2), (0, 3)]), Part("b", [(1, 3), (2, 3), (0, 6)])]
    p = EdgePartition(HostSpec.complete(4), parts)
    assert not p.is_exact()
    assert not reference_is_exact(p)


def test_explicit_host_takes_an_edge_iterator():
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    host = HostSpec.explicit(Graph(5, g.edges()))
    assert host.edge_count == 3 and list(host.graph.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert EdgePartition(host, [Part("a", g.edges())]).is_exact()
    # A host is a Graph, so a doubled host edge is refused when it is built.
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        HostSpec.explicit(Graph(5, [(0, 1), (0, 1)]))


def test_verify_partition_reports_bad_girth():
    host = HostSpec.complete(4)
    parts = [Part("all", np.stack(np.triu_indices(4, 1), axis=1), girth_target=8)]
    rep = verify_partition(EdgePartition(host, parts))
    assert rep.exact
    assert not rep.passed  # K_4 has girth 3


def test_searched_girth_costs_the_part_not_the_host():
    # A triangle claiming girth 4 in K_{2 * 10**7}: the search runs on the
    # triangle's own three vertices, so the host's size costs no memory.
    def checks(n):
        part = Part("t", [(0, 1), (1, 2), (0, 2)], girth_target=4)
        report = verify_partition(EdgePartition(HostSpec.complete(n), [part]))
        return [(c.claim, c.passed, c.decided_by) for c in report.checks]

    peak, huge = traced_peak(lambda: checks(20_000_000))
    assert peak < 1 << 20, peak
    assert huge == checks(1000) == [("girth>=4", False, "search")]


def test_searched_girth_of_parts_spread_over_a_large_host_matches_networkx():
    rng = random.Random(23)
    n = 10**6
    parts = []
    for i in range(150):
        pool = rng.sample(range(n), rng.randrange(3, 13))
        edges = {tuple(sorted(rng.sample(pool, 2))) for _ in range(rng.randrange(2, 2 * len(pool)))}
        parts.append(Part(f"p{i}", sorted(edges), girth_target=rng.randrange(3, 9)))
    report = verify_partition(EdgePartition(HostSpec.complete(n), parts))
    for part, check in zip(parts, report.checks):
        assert check.decided_by == searched_as(part.edges), part.name
        assert check.passed == (nx.girth(nx.Graph(part.edges.tolist())) >= part.girth_target), part.name
    searched = [c.passed for c in report.checks if c.decided_by == "search"]
    assert True in searched and False in searched


def test_a_part_makes_at_most_one_claim():
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    with pytest.raises(ValueError, match="part c6 claims both a girth and a forbidden cycle"):
        Part("c6", c6, girth_target=3, forbidden_cycle=6)
    p = EdgePartition(HostSpec.complete(6), [Part("c6", c6, forbidden_cycle=6)])
    with pytest.raises(ValueError, match="not both"):
        verify_partition(p, girth_target=3, forbidden_cycle=6)
    assert [(c.claim, c.passed) for c in verify_partition(p, girth_target=3).checks] == [("girth>=3", True)]
    assert [(c.claim, c.passed) for c in verify_partition(p).checks] == [("no C_6", False)]


def test_manifest_roundtrip(tmp_path):
    ep = cover_bipartite(20, 8)
    write_manifest(ep, tmp_path / "m")
    back = read_manifest(tmp_path / "m" / "manifest.txt")
    assert back.host.kind == "bipartite" and back.host.a == 20
    assert len(back.parts) == len(ep.parts)
    assert sorted(
        e for p in back.parts for e in p.edges.tolist()
    ) == sorted(e for p in ep.parts for e in p.edges.tolist())
    assert verify_partition(back).passed


def test_manifest_tamper_detected(tmp_path):
    # The first edge of the first part replaced by the last edge of the last
    # part: that edge is then in two parts and another in none.  The manifest
    # still reads, but exactness must fail.
    root = tmp_path / "m"
    write_manifest(cover_complete(60, 8)[0], root)
    body = root / "parts.edges"
    lines = body.read_text().splitlines()
    lines[0] = lines[-1]
    body.write_text("\n".join(lines) + "\n")
    rep = verify_partition(read_manifest(root / "manifest.txt"))
    assert not rep.exact and not rep.passed


def test_manifest_explicit_host(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    ep = EdgePartition(
        HostSpec.explicit(g),
        [Part("x", [(0, 1), (2, 3)], forbidden_cycle=6), Part("y", [(1, 2)], forbidden_cycle=6)],
    )
    path = write_manifest(ep, tmp_path / "m")
    back = read_manifest(path)
    assert back.host.kind == "explicit"
    rep = verify_partition(back)
    assert rep.passed


def test_write_manifest_builds_no_graph_for_an_explicit_host(tmp_path, monkeypatch):
    g = random_graph(30, 0.3, seed=5)
    ep = EdgePartition(HostSpec.explicit(g), [Part("all", g._pairs(), forbidden_cycle=6)])
    built = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda self, n, *args, **kw: built.append(n) or init(self, n, *args, **kw))
    path = write_manifest(ep, tmp_path / "m")
    assert built == []
    back = read_manifest(path)
    assert built == [30] and back.host.graph._pairs().tolist() == g._pairs().tolist()


def test_a_host_with_sides_is_written_without_them(tmp_path):
    edges = [(0, 3), (0, 4), (1, 4), (2, 5)]
    sided = Graph(6, edges, side=[0, 0, 0, 1, 1, 1])
    host = HostSpec.explicit(sided)
    assert host.graph.side is None and host.edge_count == 4
    write_manifest(EdgePartition(host, [Part("all", edges, forbidden_cycle=6)]), tmp_path / "m")
    write_edge_list(Graph(6, edges), tmp_path / "plain.edges")
    assert (tmp_path / "m" / "host.edges").read_bytes() == (tmp_path / "plain.edges").read_bytes()


# Recorded from the per-point generator that the vectorised one replaced:
# part names and ordered edge lists must not change.
PARTITION_SHA256 = {
    ("exact", 5, 3): "a3412a279767bba2c17ea6bed307243b7c806601d801497280c521b9f5e97dc6",
    ("exact", 7, 3): "83282b193e89a8d20d1965cabf2037f59820c8734655b52849611ffbabb4b599",
    ("cover", 100, 8): "27e0ef4ce9b94e171cea267c8f08f307ecbbe5654afbff96c31b159ed6e60694",
    ("cover", 20, 12): "49268d74fcceb34eda8d664be670878cf25b7aa666f6bcdebd2e5e0f1485addc",
}


@pytest.mark.parametrize("key", sorted(PARTITION_SHA256))
def test_bipartite_partitions_match_recorded_hashes(key):
    kind, a, b = key
    ep = partition_bipartite_exact(a, b) if kind == "exact" else cover_bipartite(a, b)
    h = hashlib.sha256()
    for part in ep.parts:
        edges = list(map(tuple, part.edges.tolist()))
        h.update(f"{part.name}:{edges}\n".encode())
    assert h.hexdigest() == PARTITION_SHA256[key]


def tree_sha256(root) -> str:
    """sha256 over every file of a directory tree, names and bytes."""
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_cover_complete_manifest_matches_recorded_hash(tmp_path):
    # The hash pins the v2 writer's output: names and bytes must not change.
    ep, _ = cover_complete(60, 8)
    write_manifest(ep, tmp_path / "m")
    assert sorted(os.listdir(tmp_path / "m")) == ["manifest.txt", "parts.edges"]
    assert tree_sha256(tmp_path / "m") == "0c8202821739bd6cdd0b0cf56336d5235009683498df3e8e6c3143247a20867c"


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 4)], "part b: edge (0, 4) out of range for n=4"),
        ([(-1, 2)], "part b: edge (-1, 2) out of range for n=4"),
        ([(2, 2)], "part b: edge (2, 2) is a loop"),
        ([(1, 2), (0, 3), (2, 1)], "part b: edge (1, 2) is a duplicate"),
    ],
)
def test_write_manifest_refuses_bad_part(tmp_path, edges, message):
    ep = EdgePartition(HostSpec.complete(4), [Part("a", [(0, 1)]), Part("b", edges)])
    with pytest.raises(ValueError, match=re.escape(message)):
        write_manifest(ep, tmp_path / "m")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb"])
def test_write_manifest_refuses_a_name_it_cannot_read_back(tmp_path, name):
    ep = EdgePartition(HostSpec.complete(4), [Part("a", [(0, 1)]), Part(name, [(1, 2)])])
    with pytest.raises(ValueError, match=re.escape(f"part {name!r}: ")):
        write_manifest(ep, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def test_write_manifest_keeps_a_duplicate_across_parts(tmp_path):
    # Not a malformed part: the manifest is written and read back, and only
    # exactness fails.
    host = HostSpec.complete(3)
    ep = EdgePartition(host, [Part("a", [(1, 2), (0, 1)]), Part("b", [(1, 0)])])
    back = read_manifest(write_manifest(ep, tmp_path / "m"))
    assert [p.edges.tolist() for p in back.parts] == [[[0, 1], [1, 2]], [[0, 1]]]
    assert not verify_partition(back).exact
