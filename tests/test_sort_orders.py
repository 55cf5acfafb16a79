"""The partition pipeline sorts only what is out of order.

Each fast path (the writer-order check of ``partition._part_rows``, the
packed-key sorts of ``graph._hom_failures``, ``graph.group_edges`` and the
rainbow pruning, the reverse-arc order) is checked against a reference
copy of the sort it replaced, and the one int64 fit check is checked at its
bound, also under ``python -O``.  ``decompose`` takes every order it needs
from ``graph._stable_argsort``.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import girthcover
from girthcover import graph, rainbow
from girthcover.graph import Graph, _hom_failures, _key_fits, group_edges
from girthcover.partition import (
    EdgePartition,
    HostSpec,
    Part,
    _edge_keys,
    _ordered,
    _part_rows,
    cover_complete,
    read_manifest,
    verify_partition,
    write_manifest,
)
from conftest import (
    random_graph,
    random_regular,
    reference_group_edges,
    reference_hom_failures,
    reference_part_rows,
    reference_reverse_arcs,
    skewed_graph,
)

ROOT = math.isqrt(2**63 - 1)  # 3,037,000,499: the largest n with every key u*n + v in int64


# -- the fit check ------------------------------------------------------------


def test_key_fits_at_its_bound():
    assert ROOT * ROOT <= 2**63 < (ROOT + 1) ** 2
    assert _key_fits(ROOT, ROOT) and not _key_fits(ROOT + 1, ROOT + 1)
    assert _key_fits(2**63) and not _key_fits(2**63 + 1)
    assert _key_fits(2**62, 2) and not _key_fits(2**62 + 1, 2)
    assert _key_fits(2**21, 2**21, 2**21) and not _key_fits(2**21, 2**21, 2**21 + 1)
    assert _key_fits() and _key_fits(0, 2**100) and _key_fits(-1, 2**100)
    assert _key_fits(np.int64(ROOT), np.int64(ROOT)) and not _key_fits(np.int64(ROOT + 1), np.int64(ROOT + 1))


def test_edge_keys_refuse_a_host_past_the_bound():
    pairs = np.array([[5, ROOT - 1]])
    keys, bad = _edge_keys(pairs, ROOT)
    assert keys.tolist() == [5 * ROOT + ROOT - 1] and not bad.any()
    with pytest.raises(ValueError, match=f"host of {ROOT + 1} vertices is too large for int64 edge keys"):
        _edge_keys(pairs, ROOT + 1)
    with pytest.raises(ValueError, match=f"vertex count {ROOT + 1} too large for int64 edge keys"):
        Graph(ROOT + 1, [])


FIT_SCRIPT = f"""
import math
import numpy as np
from girthcover.graph import _key_fits
from girthcover.partition import _edge_keys
root = math.isqrt(2**63 - 1)
if not (_key_fits(root, root) and not _key_fits(root + 1, root + 1)):
    raise SystemExit("wrong bound")
if not (_key_fits(2**63) and not _key_fits(2**63 + 1)):
    raise SystemExit("wrong bound for one span")
_edge_keys(np.array([[0, 1]]), root)
try:
    _edge_keys(np.array([[0, 1]]), root + 1)
except ValueError:
    pass
else:
    raise SystemExit("no error past the bound")
"""


def test_key_fits_under_optimize():
    src = os.path.dirname(os.path.dirname(girthcover.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", FIT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# -- partition._part_rows ---------------------------------------------------------


def random_parts(rng, n: int, count: int) -> list:
    """``count`` parts of random edges on 0..n-1, of sizes 0 to 20, some
    with shuffled rows, rows given as (v, u), repeats, loops or ids
    outside 0..n-1, and some repeating the previous part's last key."""
    parts = []
    for _ in range(count):
        size = int(rng.choice([0, 1, 2, int(rng.integers(3, 21))]))
        edges = np.sort(rng.integers(0, n, (size, 2)), axis=1)
        edges = edges[edges[:, 0] < edges[:, 1]]
        edges = np.unique(edges, axis=0)  # sorted, as the writer emits them
        kind = rng.integers(6)
        if kind == 1 and len(edges) > 1:
            edges = rng.permutation(edges)
        elif kind == 2 and len(edges):
            edges[rng.integers(len(edges))] = edges[rng.integers(len(edges))][::-1]
        elif kind == 3 and len(edges):
            edges = np.insert(edges, rng.integers(len(edges) + 1), edges[rng.integers(len(edges))], axis=0)
        elif kind == 4 and len(edges):
            edges[rng.integers(len(edges))] = rng.choice([[3, 3], [-1, 2], [0, n], [n + 1, n + 4]])
        elif kind == 5 and parts and len(parts[-1]):
            edges = np.concatenate([parts[-1][-1:], edges])
        parts.append(edges.reshape(-1, 2))
    return parts


@pytest.mark.parametrize("seed", range(40))
def test_part_rows_matches_two_stable_sorts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 5, 30, 1000]))
    parts = random_parts(rng, n, int(rng.integers(0, 12)))
    counts = [len(p) for p in parts]
    pairs = np.concatenate([np.empty((0, 2), np.int64)] + parts)
    for rows in (pairs, _ordered(pairs.copy())):  # raw rows, and each as (min, max) as the writer takes them
        keys = _edge_keys(rows, n)[0]
        order, *got = _part_rows(keys, counts)
        got = [np.arange(len(keys))[order], *got]  # the identity order comes as a slice
        for got, want in zip(got, reference_part_rows(keys, counts)):
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(5))
def test_ordered_turns_rows_in_place_like_a_row_sort(seed):
    pairs = np.random.default_rng(seed).integers(-3, 40, size=(int(200 * seed), 2))
    want = np.sort(pairs, axis=1)
    assert _ordered(pairs) is pairs and np.array_equal(pairs, want)


@pytest.mark.parametrize(
    "keys, counts, in_order",
    [
        ([], [], True),
        ([], [0, 0], True),
        ([7], [0, 1, 0], True),
        ([1, 2, 3], [3], True),
        ([3, 1, 2], [1, 2], True),  # a part may start below the last one's end
        ([1, 2, 2, 3], [2, 2], True),  # equal keys in adjacent parts
        ([1, 2, 2, 3], [3, 1], False),  # a repeat within a part
        ([2, 1], [2], False),
        ([1, 3, 2], [0, 3, 0], False),
    ],
)
def test_part_rows_sorts_only_what_is_out_of_order(keys, counts, in_order):
    keys = np.array(keys, np.int64)
    order, *got = _part_rows(keys, counts)
    got = [np.arange(len(keys))[order], *got]  # the identity order comes as a slice
    want = reference_part_rows(keys, counts)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert (got[0].tolist() == list(range(len(keys))) and not got[2].any()) == in_order


# -- graph._hom_failures -------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_hom_failures_matches_lexsort(seed):
    rng = np.random.default_rng(seed)
    target = random_graph(int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.9)), seed)
    m = int(rng.integers(0, 120))
    n_source = int(rng.integers(2, 60))
    u = rng.integers(0, n_source, m)
    v = rng.integers(0, n_source, m)
    phi = rng.integers(0, target.n, n_source)
    group = np.sort(rng.integers(0, int(rng.integers(1, 8)), m))
    args = (target._keys(), target.n, u, v, phi[u], phi[v], group)
    assert _hom_failures(*args).tolist() == reference_hom_failures(*args).tolist()


@pytest.mark.parametrize(
    "shift, why",
    [(2**40, "ids too large to pack"), (-(2**40), "negative ids")],
)
def test_hom_failures_falls_back_to_lexsort(shift, why):
    # Keys that do not fit, or negative digits, take the lexsort path: same
    # answer.  Every vertex below has repeated neighbour images.
    rng = np.random.default_rng(7)
    u = rng.integers(0, 6, 50) + shift
    v = rng.integers(6, 12, 50) + shift
    group = np.repeat(np.arange(5), 10) * 2**30
    fu, fv = u % 3, 3 + v % 3
    keys = np.sort([x * 6 + y for a in range(3) for b in range(3, 6) for x, y in ((a, b), (b, a))])
    got = _hom_failures(keys, 6, u, v, fu, fv, group)
    assert got.tolist() == reference_hom_failures(keys, 6, u, v, fu, fv, group).tolist()
    assert got.size, why


# -- group_edges, the rainbow pruning and the reverse arcs ------------------------


@pytest.mark.parametrize(
    "ids",
    [
        [],
        [4],
        [3, 1, 3, 0, 1, 3],
        [-1, 3, -1, 3, -1],  # -1 at both ends is a group like any other
        [2**62, -(2**62), 0, 2**62, -1],  # a span too wide to pack
        [2**63 - 1, -(2**63), 0, 2**63 - 1],
    ],
)
def test_group_edges_matches_dict_grouping(ids):
    ids = np.array(ids, np.int64)
    pairs = np.arange(2 * len(ids), dtype=np.int64).reshape(-1, 2)
    got = [(i, rows.tolist()) for i, rows in group_edges(pairs, ids)]
    assert got == reference_group_edges(pairs, ids)


@pytest.mark.parametrize("seed", range(10))
def test_group_edges_matches_dict_grouping_on_random_ids(seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(-5, int(rng.integers(1, 50)), int(rng.integers(0, 500)))
    pairs = rng.integers(0, 100, (len(ids), 2))
    got = [(i, rows.tolist()) for i, rows in group_edges(pairs, ids)]
    assert got == reference_group_edges(pairs, ids)


@pytest.mark.parametrize("seed", range(10))
def test_stable_argsort_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-5, int(rng.integers(1, 60)), int(rng.integers(0, 300)))
    for keys in (keys, keys * 2**55):  # packed, then too wide to pack
        order, ordered = graph._stable_argsort(keys)
        want = np.argsort(keys, kind="stable")
        assert order.tolist() == want.tolist() and ordered.tolist() == keys[want].tolist()


@pytest.mark.parametrize("seed", range(4))
def test_rainbow_pruning_keeps_the_lowest_neighbour_of_each_colour(seed):
    # An arc is kept iff its ends differ in colour and each end is the
    # lowest neighbour of its colour at the other.
    g = random_graph(60, 0.3, seed)
    color, kept = rainbow._try_rainbow(g, 12, random.Random(seed))
    lowest = {}
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            lowest[a, color[b]] = min(lowest.get((a, color[b]), b), b)
    want = [(u, v) for u, v in g.edges()
            if color[u] != color[v] and lowest[u, color[v]] == v and lowest[v, color[u]] == u]
    assert kept.tolist() == [list(e) for e in want]


@pytest.mark.parametrize("seed", range(8))
def test_reverse_arcs_match_stable_argsort(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(1, 80)), float(rng.uniform(0, 0.5)), seed)
    got = graph._stable_argsort(g._csr[1])[0]  # the reverse-arc order of the rainbow pruning
    assert got.tolist() == reference_reverse_arcs(g).tolist()
    tails = np.repeat(np.arange(g.n), np.diff(g._csr[0]))
    assert (tails[got] == g._csr[1]).all() and (g._csr[1][got] == tails).all()


# -- no stable sort on the writer's order, no numpy sort in decompose -----------


def count_stable_sorts(monkeypatch, every_argsort=False) -> dict:
    """Count the calls of ``np.lexsort`` and of a stable ``np.argsort``, or
    of any ``np.argsort`` with ``every_argsort``."""
    calls = {"argsort": 0, "lexsort": 0}
    argsort, lexsort = np.argsort, np.lexsort

    def counted_argsort(a, *args, **kwargs):
        if every_argsort or kwargs.get("kind") in ("stable", "mergesort") or kwargs.get("stable"):
            calls["argsort"] += 1
        return argsort(a, *args, **kwargs)

    def counted_lexsort(keys, *args, **kwargs):
        calls["lexsort"] += 1
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted_argsort)
    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    return calls


def test_manifest_round_trip_and_verify_run_no_stable_sort(tmp_path, monkeypatch):
    ep, _ = cover_complete(60, 8)
    calls = count_stable_sorts(monkeypatch)
    report = verify_partition(read_manifest(write_manifest(ep, tmp_path / "m")), girth_target=8)
    assert report.passed and {c.decided_by for c in report.checks} == {"certificate"}
    assert calls == {"argsort": 0, "lexsort": 0}
    # The counter sees the sort path: a part with its rows out of order is sorted.
    ep.parts[0].edges = ep.parts[0].edges[::-1]
    write_manifest(ep, tmp_path / "shuffled")
    assert calls["argsort"] == 2


def test_decompose_calls_neither_argsort_nor_lexsort(monkeypatch):
    # The shell forests, the rainbow pruning and the reverse arcs all sort
    # with graph._stable_argsort.
    graphs = [skewed_graph(4000, 12000, 3), random_regular(600, 40, 2)]
    calls = count_stable_sorts(monkeypatch, every_argsort=True)
    for g in graphs:
        assert rainbow.decompose(g).partition.is_exact()
    assert calls == {"argsort": 0, "lexsort": 0}
    # The counter sees an unstable argsort and a lexsort.
    np.argsort(np.arange(3)), np.lexsort((np.arange(3),))
    assert calls == {"argsort": 1, "lexsort": 1}


# -- int64 edge keys of hosts too large for them ---------------------------------

BIG = 2**40  # edge keys u*n + v of K_n would need 80 bits


def test_verify_refuses_a_host_too_large_for_edge_keys():
    # (5 + 2**24)*2**40 + 2**30 wraps to 5*2**40 + 2**30 in int64, the key of
    # another edge of K_BIG: without the fit check two host edges share a key.
    p = EdgePartition(HostSpec.complete(BIG), [Part("a", [(5 + 2**24, 2**30)])])
    with pytest.raises(ValueError, match=f"host of {BIG} vertices is too large for int64 edge keys"):
        verify_partition(p, forbidden_cycle=6)
    # An explicit host that large is refused when its Graph is built.
    with pytest.raises(ValueError, match=f"vertex count {BIG} too large for int64 edge keys"):
        Graph(BIG, [(5, 2**30)])


def test_write_manifest_refuses_a_host_too_large_for_edge_keys(tmp_path):
    # The two distinct edges share a wrapped key; they used to be reported
    # as "is a duplicate".
    p = EdgePartition(HostSpec.complete(BIG), [Part("a", [(5, 2**30), (5 + 2**24, 2**30)])])
    with pytest.raises(ValueError, match=f"host of {BIG} vertices is too large for int64 edge keys"):
        write_manifest(p, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def test_parts_check_takes_runs_too_large_to_key_a_part_at_a_time():
    # part*n + vertex would wrap for three parts on 2**62 vertices; each
    # part is then checked on its own, with the verdicts of the parts alone.
    n = 2**62
    triangle = np.array([[0, 1], [1, 2], [0, 2]])
    path = np.array([[0, 1], [1, 2], [2, n - 1]])
    hexagon = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]) + (n - 6)
    acyclic, holds, found = graph._parts_check(n, [triangle, path, hexagon], [(None, 6), (None, 6), (4, 6)])
    assert acyclic == [False, True, False]
    assert holds == [True, True, False]
    assert found == [None, None, tuple(range(n - 6, n))]
    # Two parts fit (keys below 2 * n = 2**63), and the second block still
    # ends at the union's last vertex, though 2 * n does not fit in int64.
    checked = graph._parts_check(n, [triangle, hexagon], [(4, 3), (7, 6)])
    assert checked == ([False, False], [False, False], [(0, 1, 2), tuple(range(n - 6, n))])
