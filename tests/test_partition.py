import hashlib
import math
import os

import pytest

from girthcover.algebraic import solve_shift_q
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


def test_partition_bipartite_exact_q5():
    ep = partition_bipartite_exact(5, 3)
    assert len(ep.parts) == 25
    assert all(len(p.edges) == 625 for p in ep.parts)
    assert ep.is_exact()
    # 25 parts x 625 edges = 125^2
    assert ep.total_edges() == 125 * 125


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
    by_name = {p.name: set(p.edges) for p in ep.parts}
    from girthcover.algebraic import index_to_tuple

    for u in range(0, 125, 7):
        for v in range(0, 125, 11):
            shift = solve_shift_q(index_to_tuple(u, 5, 3), index_to_tuple(v, 5, 3), 5)
            name = "s" + "_".join(map(str, shift.as_tuple()))
            assert (u, 125 + v) in by_name[name]


def test_cover_bipartite_exact_case():
    ep = cover_bipartite(125, 8)
    assert len(ep.parts) == 25
    assert ep.is_exact()


def test_cover_bipartite_degenerate():
    ep = cover_bipartite(1, 8)
    assert len(ep.parts) == 25
    nonempty = [p for p in ep.parts if p.edges]
    assert len(nonempty) == 1
    assert nonempty[0].edges == [(0, 1)]


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
        for e in part.edges:
            membership[e] = part.name
    for u in range(n):
        for v in range(u + 1, n):
            level, shift = loc.part_of_edge(u, v)
            assert membership[(u, v)] == f"L{level}_s" + "_".join(map(str, shift))


def test_locator_rejects_non_edges():
    loc = CompleteCoverLocator(10, 8)
    with pytest.raises(ValueError):
        loc.part_of_edge(3, 3)
    with pytest.raises(ValueError):
        loc.part_of_edge(0, 10)


def test_exactness_detects_missing_and_duplicate():
    host = HostSpec.complete(4)
    all_edges = host.edge_set()
    good = EdgePartition(host, [Part("a", all_edges[:3]), Part("b", all_edges[3:])])
    assert good.is_exact()
    missing = EdgePartition(host, [Part("a", all_edges[:5])])
    assert not missing.is_exact()
    doubled = EdgePartition(host, [Part("a", all_edges), Part("b", all_edges[:1])])
    assert not doubled.is_exact()


def test_verify_partition_reports_bad_girth():
    host = HostSpec.complete(4)
    parts = [Part("all", host.edge_set(), girth_target=8)]
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
        e for p in back.parts for e in p.edges
    ) == sorted(e for p in ep.parts for e in p.edges)
    assert verify_partition(back).passed


def test_manifest_tamper_detected(tmp_path):
    ep = cover_bipartite(20, 8)
    path = write_manifest(ep, tmp_path / "m")
    # swap one part edge for an edge it does not own: exactness must fail
    import glob

    part_file = sorted(glob.glob(str(tmp_path / "m" / "parts" / "*.edges")))[0]
    lines = open(part_file).read().splitlines()
    header = lines[0].split()
    u, v = map(int, lines[1].split())
    other = (u, v + 1) if v + 1 < 40 and v + 1 != u else (u, v - 1)
    lines[1] = f"{other[0]} {other[1]}"
    open(part_file, "w").write("\n".join(lines) + "\n")
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
        h.update(f"{part.name}:{part.edges}\n".encode())
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
