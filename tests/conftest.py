import random

import networkx as nx
import numpy as np
import pytest

from girthcover._kernels import girth_scan
from girthcover.graph import Graph


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seeded random d-regular simple graph."""
    g = nx.random_regular_graph(d, n, seed=seed)
    return Graph(n, list(g.edges()))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def all_roots_girth(g: Graph, cap=None):
    """min(girth, cap) by the kernel's BFS from every vertex (cap n + 1 by default).

    Independent of the root sets that ``Graph`` chooses: the oracle for
    certified and cycle-hitting roots.
    """
    cap = g.n + 1 if cap is None else cap
    if g.m == 0:
        return cap
    indptr, indices = g._csr_arrays()
    return girth_scan(indptr, indices, g.n, cap, np.arange(g.n))


def read_edge_list_lines(path) -> Graph:
    """Line-by-line edge-list reader with the format's original semantics.

    Each stripped line that is blank or starts with '#' is skipped; the first
    other line is the header; every later one must split into two ``int()``
    tokens with u < v.  The oracle for ``read_edge_list``, which parses the
    body with numpy instead.
    """
    header = None
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split()
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: malformed edge line {line!r}") from None
            if not u < v:
                raise ValueError(f"{path}, line {lineno}: edge ({u},{v}) not in u < v form")
            edges.append((u, v))
    if header is None:
        raise ValueError(f"{path}: empty edge-list file")
    if len(header) not in (2, 5) or (len(header) == 5 and header[2] != "bipartite"):
        raise ValueError(f"{path}: malformed header {' '.join(header)}")
    n, m = int(header[0]), int(header[1])
    side = None
    if len(header) == 5:
        a, b = int(header[3]), int(header[4])
        if a + b != n:
            raise ValueError(f"{path}: bipartition sizes {a}+{b} != n={n}")
        side = [0] * a + [1] * b
    if m != len(edges):
        raise ValueError(f"{path}: header claims {m} edges, file has {len(edges)}")
    return Graph(n, edges, side=side)


@pytest.fixture
def petersen():
    from girthcover.graph import petersen_graph

    return petersen_graph()


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False, help="run slow tests"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
