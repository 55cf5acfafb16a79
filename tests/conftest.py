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
