import hashlib
import math
import os

import pytest

import numpy as np

from girthcover.algebraic import index_to_tuple, solve_shift_h, solve_shift_q
from girthcover.graph import Graph
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
from conftest import random_graph


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
        assert part.graph(ep.host.n).girth() == 8
    for part in ep.parts:
        assert part.graph(ep.host.n).girth_exceeds(7)


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
        assert part.graph(200).girth_exceeds(7)


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
        assert part.graph(64).girth_exceeds(11)


def test_cover_complete_n250_girth8():
    ep, plan = cover_complete(250, 8)
    assert ep.is_exact()
    for part in ep.parts:
        assert part.graph(250).girth_exceeds(7)
    assert plan.total_parts == sum(lv.parts for lv in plan.levels)


def test_cover_complete_rate_band():
    ratios = []
    for n in (64, 128, 256, 512):
        loc = CompleteCoverLocator(n, 8)
        ratios.append(loc.plan.total_parts / n ** (2 / 3))
    assert max(ratios) / min(ratios) <= 3


def test_locator_matches_materialized_partition():
    n = 60
    loc = CompleteCoverLocator(n, 8)
    ep, plan = cover_complete(n, 8)
    membership = {}
    for part in ep.parts:
        for e in map(tuple, part.edges.tolist()):
            membership[e] = part.name
    u, v = np.triu_indices(n, 1)
    for a, b, pid in zip(u.tolist(), v.tolist(), loc.locate(u, v).tolist()):
        level, shift = loc.part_key(pid)
        assert membership[(a, b)] == f"L{level}_s" + "_".join(map(str, shift))


def test_locator_rejects_non_edges():
    loc = CompleteCoverLocator(10, 8)
    with pytest.raises(ValueError):
        loc.locate([3], [3])
    with pytest.raises(ValueError):
        loc.locate([0], [10])


def scalar_locate(loc, u, v):
    """(level, shift tuple) of the edge uv of K_n, one pair at a time: the
    level by halving the interval, the shift by the scalar solvers."""
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
    return level, solve(p, l, q)


@pytest.mark.parametrize("girth", [8, 12])
@pytest.mark.parametrize("n", [2, 3, 17, 64, 131])
def test_array_locate_matches_scalar_reference(n, girth):
    loc = CompleteCoverLocator(n, girth)
    u, v = np.triu_indices(n, 1)
    ids = loc.locate(u, v)
    assert ids.dtype == np.int64
    keys = [scalar_locate(loc, a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert [loc.part_key(pid) for pid in ids.tolist()] == keys
    # ids sort as (level, shift), and either orientation locates the same part
    by_key = dict(zip(keys, ids.tolist()))
    assert [by_key[k] for k in sorted(by_key)] == sorted(by_key.values())
    assert (loc.locate(v, u) == ids).all()
    # loops, negative ids and ids >= n are no edges of K_n
    for a, b in [(1, 1), (-1, 0), (0, -1), (0, n), (n, 0), (n, n + 1)]:
        with pytest.raises(ValueError, match=rf"is not an edge of K_{n}"):
            loc.locate(np.r_[u, a], np.r_[v, b])
    assert loc.locate([], []).size == 0
    rc = RainbowColoring(host=Graph(n, []), retained=Graph(n, []), color=[0] * n, palette_size=n)
    assert pullback_partition(rc, loc, 6).parts == []


@pytest.mark.parametrize("n, girth", [(1000, 8), (9001, 12)])
def test_array_locate_matches_scalar_reference_on_sampled_pairs(n, girth):
    # Hosts large enough that every point and line coordinate takes all of
    # F_q at the top levels, and a level with a prime above 5.
    loc = CompleteCoverLocator(n, girth)
    assert loc.plan.levels[0].prime > 5
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, n, size=(2, 4000))
    u, v = u[u != v], v[u != v]
    got = [loc.part_key(pid) for pid in loc.locate(u, v).tolist()]
    assert got == [scalar_locate(loc, a, b) for a, b in zip(u.tolist(), v.tolist())]


def test_exactness_detects_missing_and_duplicate():
    host = HostSpec.complete(4)
    all_edges = np.stack(np.triu_indices(4, 1), axis=1)
    good = EdgePartition(host, [Part("a", all_edges[:3]), Part("b", all_edges[3:])])
    assert good.is_exact()
    missing = EdgePartition(host, [Part("a", all_edges[:5])])
    assert not missing.is_exact()
    doubled = EdgePartition(host, [Part("a", all_edges), Part("b", all_edges[:1])])
    assert not doubled.is_exact()


def reference_is_exact(p: EdgePartition) -> bool:
    """The tuple-multiset exactness check that the sort of edge keys replaced."""
    host, n = p.host, p.host.n
    if host.kind == "complete":
        host_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif host.kind == "bipartite":
        host_edges = [(u, host.a + v) for u in range(host.a) for v in range(host.b)]
    else:
        host_edges = list(map(tuple, host.edges.tolist()))
    combined = sorted(
        (u, v) if u < v else (v, u) for part in p.parts for (u, v) in part.edges.tolist()
    )
    if len(set(combined)) != len(combined):
        return False
    return combined == sorted(host_edges)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "host",
    [
        HostSpec.complete(9),
        HostSpec.bipartite(4, 6),
        HostSpec.explicit(12, random_graph(12, 0.4, seed=3).edges()),
    ],
    ids=["complete", "bipartite", "explicit"],
)
def test_is_exact_matches_tuple_reference(host, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.permutation(host._pairs())
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
    for name, parts in mutations.items():
        p = EdgePartition(host, [Part(f"p{i}", b) for i, b in enumerate(parts)])
        assert p.is_exact() == reference_is_exact(p) == (name == "none"), name


def test_is_exact_rejects_edge_whose_key_collides():
    # (0, 6) keys as 0*4 + 6 = 1*4 + 2, the key of (1, 2), which it replaces.
    parts = [Part("a", [(0, 1), (0, 2), (0, 3)]), Part("b", [(1, 3), (2, 3), (0, 6)])]
    p = EdgePartition(HostSpec.complete(4), parts)
    assert not p.is_exact()
    assert not reference_is_exact(p)


def test_explicit_host_takes_an_edge_iterator():
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    host = HostSpec.explicit(5, g.edges())
    assert host.edges.dtype == np.int64 and host.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert EdgePartition(host, [Part("a", g.edges())]).is_exact()
    doubled = HostSpec.explicit(5, [(0, 1), (0, 1)])
    p = EdgePartition(doubled, [Part("a", [(0, 1)]), Part("b", [(1, 0)])])
    assert not p.is_exact() and not reference_is_exact(p)


def test_verify_partition_reports_bad_girth():
    host = HostSpec.complete(4)
    parts = [Part("all", np.stack(np.triu_indices(4, 1), axis=1), girth_target=8)]
    rep = verify_partition(EdgePartition(host, parts))
    assert rep.exact
    assert not rep.passed  # K_4 has girth 3


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
    ep = cover_bipartite(20, 8)
    path = write_manifest(ep, tmp_path / "m")
    # swap one part edge for an edge it does not own: exactness must fail
    import glob

    part_file = sorted(glob.glob(str(tmp_path / "m" / "parts" / "*.edges")))[0]
    with open(part_file) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split()
    u, v = map(int, lines[1].split())
    other = (u, v + 1) if v + 1 < 40 and v + 1 != u else (u, v - 1)
    lines[1] = f"{other[0]} {other[1]}"
    with open(part_file, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    back = read_manifest(path)
    assert not verify_partition(back).passed


def test_manifest_explicit_host(tmp_path):
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    ep = EdgePartition(
        HostSpec.explicit(5, g.edges()),
        [Part("x", [(0, 1), (2, 3)], forbidden_cycle=6), Part("y", [(1, 2)], forbidden_cycle=6)],
    )
    path = write_manifest(ep, tmp_path / "m")
    back = read_manifest(path)
    assert back.host.kind == "explicit"
    rep = verify_partition(back)
    assert rep.passed


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


def test_cover_complete_manifest_matches_recorded_hash(tmp_path):
    # Recorded before the graph core moved to CSR arrays: every file of the
    # manifest directory, names and bytes, must not change.
    ep, _ = cover_complete(60, 8)
    root = tmp_path / "m"
    write_manifest(ep, root)
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    assert h.hexdigest() == "d1214f20ea229a2d221c7acd584b9caf7bebd8e45e4dfa616a10d783d4939cc3"
