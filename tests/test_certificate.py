"""Certificate verification of cover parts, checked against the direct search.

``verify_partition`` decides a girth claim of a part of an exact partition
of K_n or K_{m,m} by a locally injective map into a certified base when it
can.  Every verdict here is compared with the girth search on the same part,
and every mutation that breaks the map must fall back to that search.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import girthcover
from girthcover import partition
from girthcover.algebraic import build_quadrangle
from girthcover.graph import Graph
from girthcover.partition import (
    EdgePartition,
    HostSpec,
    Part,
    cover_bipartite,
    cover_complete,
    verify_partition,
)
from conftest import searched_as


def search_verdicts(p: EdgePartition, target: int) -> list:
    return [Graph(p.host.n, part.edges).girth_exceeds(target - 1) for part in p.parts]


def decided(report) -> set:
    return {c.decided_by for c in report.checks}


def assert_matches_search(p: EdgePartition, report, target: int):
    assert [c.passed for c in report.checks] == search_verdicts(p, target)


@pytest.mark.parametrize("n, girth", [(n, 8) for n in (2, 3, 17, 64, 250)] + [(60, 12), (250, 12)])
def test_cover_complete_decided_by_certificate(n, girth):
    ep, _ = cover_complete(n, girth)
    report = verify_partition(ep)
    assert report.passed and decided(report) == {"certificate"}
    assert_matches_search(ep, report, girth)


@pytest.mark.parametrize("m, girth", [(100, 8), (125, 8), (30, 12)])
def test_cover_bipartite_decided_by_certificate(m, girth):
    ep = cover_bipartite(m, girth)
    report = verify_partition(ep)
    assert report.passed and decided(report) == {"certificate"}
    assert_matches_search(ep, report, girth)


def test_cover_k500_all_parts_by_certificate():
    ep, _ = cover_complete(500, 8)
    report = verify_partition(ep, girth_target=8)
    assert report.passed
    assert [c.decided_by for c in report.checks] == ["certificate"] * 174


def level_of(part: Part) -> str:
    return part.name.split("_")[0]


def test_edge_moved_within_level_falls_back_to_search():
    ep, _ = cover_complete(64, 8)
    a, b = [part for part in ep.parts if level_of(part) == "L1"][:2]
    b.edges = np.vstack([b.edges, a.edges[:1]])
    a.edges = a.edges[1:]
    assert ep.is_exact()
    report = verify_partition(ep)
    by_name = {c.name: c for c in report.checks}
    assert by_name[a.name].decided_by == "certificate"
    assert by_name[b.name].decided_by == searched_as(b.edges)
    assert_matches_search(ep, report, 8)


def plant_triangle(ep: EdgePartition) -> Part:
    """Move into the first part the edge that closes a triangle with two of
    its edges at one vertex; the partition stays exact."""
    part = ep.parts[0]
    points, degrees = np.unique(part.edges[:, 0], return_counts=True)
    x = points[degrees >= 2][0]
    y, z = part.edges[part.edges[:, 0] == x][:2, 1].tolist()
    other = next(p for p in ep.parts if ((p.edges[:, 0] == y) & (p.edges[:, 1] == z)).any())
    other.edges = other.edges[~((other.edges[:, 0] == y) & (other.edges[:, 1] == z))]
    part.edges = np.vstack([part.edges, [[y, z]]])
    return part


def test_planted_short_cycle_fails_both_ways():
    ep, _ = cover_complete(64, 8)
    part = plant_triangle(ep)
    assert ep.is_exact()
    index = ep.parts.index(part)
    assert not partition._certified(ep, [8] * len(ep.parts))[index]
    assert not search_verdicts(ep, 8)[index]
    report = verify_partition(ep)
    check = report.checks[index]
    assert not check.passed and check.decided_by == "search"
    assert not report.passed
    assert_matches_search(ep, report, 8)


def test_girth_13_claim_uses_search():
    ep, _ = cover_complete(250, 8)  # its first-level parts are whole quadrangles, of girth 8
    report = verify_partition(ep, girth_target=13)
    assert [c.decided_by for c in report.checks] == [searched_as(p.edges) for p in ep.parts]
    assert_matches_search(ep, report, 13)
    assert not report.passed


def test_relabelled_cover_falls_back_to_search_and_passes():
    ep, _ = cover_complete(64, 8)
    perm = np.random.default_rng(5).permutation(64)
    relabelled = EdgePartition(ep.host, [Part(p.name, perm[p.edges], girth_target=8) for p in ep.parts])
    report = verify_partition(relabelled)
    assert report.passed
    certified = partition._certified(relabelled, [8] * len(relabelled.parts))
    assert [c.decided_by for c in report.checks] == [
        "certificate" if by_certificate else searched_as(p.edges)
        for p, by_certificate in zip(relabelled.parts, certified)
    ]
    assert certified.count(False) >= len(report.checks) // 2
    assert_matches_search(relabelled, report, 8)


def test_wrong_shift_solver_falls_back_to_search(monkeypatch):
    # The map into the base is checked against the base's own edges, not
    # against the locator's shift: with every shift index off by one, parts
    # still share one class each, but no edge image is a base edge.
    ep, _ = cover_complete(64, 8)
    solve = partition._shift_index
    shifted = lambda p, l, q, arity: (solve(p, l, q, arity) + 1) % q ** (arity - 1)  # noqa: E731
    monkeypatch.setattr(partition, "_shift_index", shifted)
    report = verify_partition(ep)
    assert report.passed
    assert [c.decided_by for c in report.checks] == [searched_as(p.edges) for p in ep.parts]


def test_repeated_edge_within_a_part_fails_local_injectivity():
    # Not an exact partition, and far smaller than any base, so
    # verify_partition searches it; the certificate on its own must still
    # refuse it.
    host = HostSpec.complete(64)
    p = EdgePartition(host, [Part("a", [(0, 40), (0, 40)], girth_target=8)])
    assert partition._certified(p, [8]) == [False]
    assert partition._certified(EdgePartition(host, [Part("a", [(0, 40)])]), [8]) == [True]


def test_cover_missing_an_edge_is_certified_and_not_exact():
    # Exactness does not decide a part's girth: a cover with one edge
    # removed still has every part certified, and still fails exactness.
    ep, _ = cover_complete(500, 8)
    ep.parts[0].edges = ep.parts[0].edges[1:]
    report = verify_partition(ep, girth_target=8)
    assert not report.exact and not report.passed
    assert [c.decided_by for c in report.checks] == ["certificate"] * 174
    assert all(c.passed for c in report.checks)
    ep, _ = cover_complete(64, 8)
    plant_triangle(ep)
    ep.parts[1].edges = ep.parts[1].edges[1:]
    report = verify_partition(ep)
    assert not report.exact and report.checks[0].decided_by == "search"
    assert_matches_search(ep, report, 8)


@pytest.mark.parametrize(
    "host, edges, certified",
    [
        (HostSpec.complete(64), [(0, 40)], True),
        (HostSpec.complete(64), [(0, 64)], False),
        (HostSpec.complete(64), [(-1, 3)], False),
        (HostSpec.bipartite(5, 5), [(0, 5)], True),
        (HostSpec.bipartite(5, 5), [(0, 1)], False),
        (HostSpec.bipartite(5, 5), [(5, 9)], False),
    ],
)
def test_only_host_edges_are_certified(host, edges, certified):
    # the edges in the first part and in the last: every part's edges are checked
    for parts in ([Part("a", edges), Part("b", [])], [Part("b", []), Part("a", edges)]):
        assert partition._certified(EdgePartition(host, parts), [8, 8]) == [certified] * 2


def test_no_base_larger_than_the_parts_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(partition, "build_quadrangle", lambda q: built.append(q) or build_quadrangle(q))
    p = EdgePartition(HostSpec.complete(64), [Part("a", [(0, 40)], girth_target=8)])
    assert partition._certified(p, [8], max_base_edges=5**4 - 1) == [False] and built == []
    assert partition._certified(p, [8], max_base_edges=5**4) == [True] and built == [5]
    report = verify_partition(p)
    assert not report.exact and built == [5]
    assert report.checks[0].decided_by == searched_as(p.parts[0].edges)


def test_exactness_and_certificates_share_one_ordered_pass(monkeypatch):
    # verify_partition orders the part edges once for both checks, and each
    # still refuses what it refused: an edge within a side of K_{m,m}, in
    # place of a host edge or added to them, leaves the partition neither
    # exact nor certified; a dropped edge leaves it certified, not exact.
    # Exactness is still decided by one is_exact call, which tracers wrap.
    passes, exact_calls = [], []
    non_edges, is_exact = HostSpec._non_edges, EdgePartition.is_exact
    counted = lambda host, pairs: passes.append(len(pairs)) or non_edges(host, pairs)  # noqa: E731
    monkeypatch.setattr(HostSpec, "_non_edges", counted)
    monkeypatch.setattr(EdgePartition, "is_exact", lambda p: exact_calls.append(p) or is_exact(p))
    edges = cover_bipartite(125, 8).parts[0].edges
    for change, exact, certified in [
        (lambda e: e, True, True),
        (lambda e: np.vstack([e[1:], [[0, 1]]]), False, False),
        (lambda e: np.vstack([e, [[0, 1]]]), False, False),
        (lambda e: e[1:], False, True),
    ]:
        ep = cover_bipartite(125, 8)
        ep.parts[0].edges = change(edges)
        passes.clear()
        exact_calls.clear()
        report = verify_partition(ep)
        assert passes == [sum(len(p.edges) for p in ep.parts)]
        assert exact_calls == [ep] and ep._ordered is None
        assert report.exact == ep.is_exact() == exact
        assert {c.decided_by for c in report.checks} == ({"certificate"} if certified else {"search"})
        assert partition._certified(ep, [8] * len(ep.parts))[0] == certified
    # A host that no certificate decides is not ordered unless counted.
    host = HostSpec.bipartite(2, 3)
    for edges, exact in [([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], True), ([(0, 2)], False)]:
        passes.clear()
        report = verify_partition(EdgePartition(host, [Part("a", edges, girth_target=8)]))
        assert report.exact == exact and passes == ([6] if exact else [])


def test_explicit_host_and_cycle_claims_run_no_certificate(monkeypatch):
    def refuse(*args):
        raise AssertionError("certificate code ran")

    monkeypatch.setattr(partition, "_host_classes", refuse)
    ep, _ = cover_complete(17, 8)
    searched = [searched_as(p.edges) for p in ep.parts]
    assert [c.decided_by for c in verify_partition(ep, forbidden_cycle=6).checks] == searched
    edges = np.concatenate([p.edges for p in ep.parts])
    explicit = EdgePartition(HostSpec.explicit(Graph(17, edges)), ep.parts)
    report = verify_partition(explicit)
    assert report.passed and [c.decided_by for c in report.checks] == searched


CHECKS_SCRIPT = """
import networkx as nx
import numpy as np
from girthcover import partition
from girthcover.partition import EdgePartition, HostSpec, Part, cover_complete, verify_partition

def fail(message):
    raise SystemExit(message)

def searched_as(edges):
    return "acyclic" if nx.is_forest(nx.Graph(edges.tolist())) else "search"

ep, _ = cover_complete(64, 8)
if {c.decided_by for c in verify_partition(ep).checks} != {"certificate"}:
    fail("cover not decided by certificate")
part = ep.parts[0]
points, degrees = np.unique(part.edges[:, 0], return_counts=True)
x = points[degrees >= 2][0]
y, z = part.edges[part.edges[:, 0] == x][:2, 1].tolist()
for other in ep.parts:
    hit = (other.edges[:, 0] == y) & (other.edges[:, 1] == z)
    other.edges = other.edges[~hit]
part.edges = np.vstack([part.edges, [[y, z]]])
report = verify_partition(ep)
if report.passed or report.checks[0].decided_by != searched_as(part.edges):
    fail("planted triangle accepted")
small, _ = cover_complete(17, 8)
if verify_partition(small, girth_target=13).checks[0].decided_by != searched_as(small.parts[0].edges):
    fail("girth 13 decided by certificate")
p = EdgePartition(HostSpec.complete(64), [Part("a", [(0, 40), (0, 40)])])
if partition._certified(p, [8]) != [False]:
    fail("repeated edge certified")
ep, _ = cover_complete(64, 8)
solve = partition._shift_index
partition._shift_index = lambda p, l, q, a: (solve(p, l, q, a) + 1) % q ** (a - 1)
if [c.decided_by for c in verify_partition(ep).checks] != [searched_as(p.edges) for p in ep.parts]:
    fail("wrong shifts certified")
"""


def test_certificate_checks_hold_under_optimize():
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


FIRST_VERIFY_SCRIPT = """
import sys
from girthcover.partition import cover_complete, verify_partition
p, _ = cover_complete(60, 8)
before = set(sys.modules)
report = verify_partition(p)
if not report.passed or {c.decided_by for c in report.checks} != {"certificate"}:
    raise SystemExit("the cover did not pass by certificate")
if new := sorted(set(sys.modules) - before):
    raise SystemExit(f"imported {new}")
"""


def test_first_verify_imports_no_module():
    # A module imported on first use (numpy.ma, by the plain form of
    # np.unique) would be timed as part of the first verification.
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    done = subprocess.run(
        [sys.executable, "-c", FIRST_VERIFY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
