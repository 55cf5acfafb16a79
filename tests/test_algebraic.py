import hashlib
import random

import pytest

from girthcover.algebraic import (
    ShiftH,
    ShiftQ,
    build_hexagon,
    build_quadrangle,
    index_to_tuple,
    is_edge_h,
    is_edge_q,
    shift_isomorphism_h,
    shift_isomorphism_q,
    solve_shift_h,
    solve_shift_q,
)
from girthcover.graph import Graph
from conftest import all_roots_girth, line_id, point_id, tuple_to_index


def without_certificate(g):
    """The same graph, built again without its automorphism certificate."""
    return Graph(g.n, list(g.edges()), side=g.side)


def edge_label_set(plg):
    """Edge set as frozenset of ((point tuple), (line tuple)) pairs."""
    out = set()
    for u, v in plg.graph.edges():
        p, l = (u, v) if u < v else (v, u)
        out.add((plg.point_coords(p), plg.line_coords(l)))
    return out


# -- quadrangle -------------------------------------------------------------


def test_quadrangle_counts_q5():
    plg = build_quadrangle(5)
    g = plg.graph
    assert g.n == 250 and g.m == 625
    assert all(g.degree(v) == 5 for v in range(g.n))
    assert g.side == (0,) * 125 + (1,) * 125


def test_quadrangle_defining_equations_q5():
    # direct substitution: 3-2 = 1*1 and 2-2*3 = -4 = 1 = -2*1*2 (mod 5)
    assert is_edge_q((1, 2, 3), (1, 3, 2), ShiftQ(0, 0), 5)
    plg = build_quadrangle(5)
    assert plg.graph.has_edge(point_id(plg, (1, 2, 3)), line_id(plg, (1, 3, 2)))


def test_quadrangle_every_edge_satisfies_equations():
    for shift in (ShiftQ(0, 0), ShiftQ(2, 3)):
        plg = build_quadrangle(5, shift)
        for p, l in edge_label_set(plg):
            assert is_edge_q(p, l, shift, 5)


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("shift", [ShiftQ(0, 0), ShiftQ(1, 2)])
def test_quadrangle_girth_8(q, shift):
    assert build_quadrangle(q, shift).graph.girth() == 8


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("shift", [ShiftQ(0, 0), ShiftQ(1, 2)])
def test_quadrangle_certified_girth_matches_all_roots(q, shift):
    g = build_quadrangle(q, shift).graph
    plain = without_certificate(g)
    # one point orbit, and one line orbit per value of l1
    assert len(g._girth_roots()) == q + 1
    assert g.girth() == plain.girth() == all_roots_girth(g)
    assert g.girth_exceeds(7) == plain.girth_exceeds(7) == (all_roots_girth(g, 8) > 7)


def test_quadrangle_rejects_bad_q():
    for bad in (4, 6, 9, 3):
        with pytest.raises(ValueError):
            build_quadrangle(bad)


# -- hexagon ----------------------------------------------------------------


def test_hexagon_counts_q5():
    plg = build_hexagon(5)
    g = plg.graph
    assert g.n == 6250 and g.m == 15625
    assert all(g.degree(v) == 5 for v in range(g.n))


def test_hexagon_zero_edge():
    assert is_edge_h((0,) * 5, (0,) * 5, ShiftH(), 5)
    plg = build_hexagon(5)
    assert plg.graph.has_edge(point_id(plg, (0,) * 5), line_id(plg, (0,) * 5))


def test_hexagon_every_edge_satisfies_equations():
    shift = ShiftH(1, 0, 2, 4)
    plg = build_hexagon(5, shift)
    rng = random.Random(0)
    edges = list(plg.graph.edges())
    for u, v in rng.sample(edges, 500):
        assert is_edge_h(plg.point_coords(u), plg.line_coords(v), shift, 5)


def test_hexagon_girth_12_shifted():
    assert build_hexagon(5, ShiftH(3, 1, 4, 2)).graph.girth() == 12


@pytest.mark.slow
def test_hexagon_certified_girth_matches_all_roots():
    g = build_hexagon(5, ShiftH(3, 1, 4, 2)).graph
    assert len(g._girth_roots()) == 2 * 5**3
    assert g.girth() == without_certificate(g).girth() == all_roots_girth(g)


# -- shift isomorphisms -----------------------------------------------------


def test_shift_isomorphism_q_examples():
    s = ShiftQ(2, 3)
    assert shift_isomorphism_q(("P", (1, 2, 3)), s, 5) == ("P", (1, 0, 0))
    assert shift_isomorphism_q(("L", (4, 1, 2)), s, 5) == ("L", (4, 1, 2))
    assert shift_isomorphism_q(("P", (1, 2, 3)), ShiftQ(0, 0), 5) == ("P", (1, 2, 3))


def test_shift_isomorphism_h_examples():
    s = ShiftH(1, 1, 1, 1)
    assert shift_isomorphism_h(("P", (0, 1, 1, 1, 1)), s, 5) == ("P", (0, 0, 0, 0, 0))
    assert shift_isomorphism_h(("L", (2, 3, 4, 0, 1)), s, 5) == ("L", (2, 3, 4, 0, 1))
    assert shift_isomorphism_h(("P", (2, 3, 4, 0, 1)), ShiftH(), 5) == ("P", (2, 3, 4, 0, 1))


def test_shift_isomorphism_rejects_malformed():
    with pytest.raises(ValueError):
        shift_isomorphism_q(("X", (1, 2, 3)), ShiftQ(0, 0), 5)
    with pytest.raises(ValueError):
        shift_isomorphism_q(("P", (1, 2)), ShiftQ(0, 0), 5)
    with pytest.raises(ValueError):
        shift_isomorphism_h(("P", (1, 2, 3)), ShiftH(), 5)


@pytest.mark.parametrize("shift", [ShiftQ(1, 0), ShiftQ(2, 3), ShiftQ(4, 4)])
def test_base_quadrangle_maps_onto_shifted(shift):
    # relabeling the base graph through the isomorphism gives the shifted
    # edge set exactly (set equality, not just isomorphism)
    base = edge_label_set(build_quadrangle(5))
    shifted = edge_label_set(build_quadrangle(5, shift))
    mapped = {(shift_isomorphism_q(("P", p), shift, 5)[1], l) for p, l in base}
    assert mapped == shifted


def test_base_hexagon_maps_onto_shifted():
    shift = ShiftH(2, 0, 3, 1)
    base = edge_label_set(build_hexagon(5))
    shifted = edge_label_set(build_hexagon(5, shift))
    mapped = {(shift_isomorphism_h(("P", p), shift, 5)[1], l) for p, l in base}
    assert mapped == shifted


# -- unique-shift solvers ---------------------------------------------------


def test_solve_shift_q_examples():
    assert solve_shift_q((0, 0, 0), (0, 0, 0), 5) == ShiftQ(0, 0)
    # base-graph edge, so the zero shift solves it
    assert solve_shift_q((1, 2, 3), (1, 3, 2), 5) == ShiftQ(0, 0)


def test_solve_shift_q_resubstitution_random():
    rng = random.Random(1)
    for _ in range(200):
        p = tuple(rng.randrange(7) for _ in range(3))
        l = tuple(rng.randrange(7) for _ in range(3))
        shift = solve_shift_q(p, l, 7)
        assert is_edge_q(p, l, shift, 7)


def test_solve_shift_h_examples():
    assert solve_shift_h((0,) * 5, (0,) * 5, 5) == ShiftH(0, 0, 0, 0)
    plg = build_hexagon(5)
    rng = random.Random(2)
    for u, v in rng.sample(list(plg.graph.edges()), 100):
        p, l = plg.point_coords(u), plg.line_coords(v)
        assert solve_shift_h(p, l, 5) == ShiftH(0, 0, 0, 0)


def test_solve_shift_h_resubstitution_random():
    rng = random.Random(3)
    for _ in range(200):
        p = tuple(rng.randrange(7) for _ in range(5))
        l = tuple(rng.randrange(7) for _ in range(5))
        shift = solve_shift_h(p, l, 7)
        assert is_edge_h(p, l, shift, 7)


def test_distinct_shifts_are_edge_disjoint():
    rng = random.Random(4)
    shifts = [(ShiftQ(0, 0), ShiftQ(1, 0)), (ShiftQ(2, 3), ShiftQ(2, 4))]
    for _ in range(3):
        a = ShiftQ(rng.randrange(5), rng.randrange(5))
        b = ShiftQ(rng.randrange(5), rng.randrange(5))
        if a != b:
            shifts.append((a, b))
    for a, b in shifts:
        ea = set(build_quadrangle(5, a).graph.edges())
        eb = set(build_quadrangle(5, b).graph.edges())
        assert not ea & eb


# -- tuple indexing ---------------------------------------------------------


def test_tuple_index_roundtrip():
    for q, arity in ((5, 3), (7, 5)):
        for idx in range(0, q**arity, 13):
            t = index_to_tuple(idx, q, arity)
            assert tuple_to_index(t, q) == idx
    with pytest.raises(ValueError):
        tuple_to_index((0, 5, 0), 5)


# Recorded from the per-point generator that the vectorised one replaced.
BUILD_SHA256 = {
    (build_quadrangle, 5): "9745877915db9f898718163fcb588f541ebbdf45c1e35988f3f197ae727f10e7",
    (build_quadrangle, 7): "9bd67be5b1785f239d01650d46f0a3a2b9382d0657f761dc302c35d474ce8ec2",
    (build_hexagon, 5): "be62ce46956395707fe30b3558fb871d686fcba7a09778ee4fb4682ed442a103",
    (build_hexagon, 7): "342603a6f1112e8a3cf55284161efbed4de8b01aa97519698bc43c0d32b0909e",
}


@pytest.mark.parametrize("build, q", sorted(BUILD_SHA256, key=lambda k: (k[0].__name__, k[1])))
def test_shifted_builds_match_recorded_hashes(build, q):
    shift = ShiftQ(1, 2) if build is build_quadrangle else ShiftH(3, 1, 4, 2)
    edges = list(build(q, shift).graph.edges())
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == BUILD_SHA256[(build, q)]
