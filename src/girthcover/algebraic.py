"""Algebraically defined bipartite graphs over F_q and their shifted copies.

Two constructions, both q-regular bipartite with coordinate-tuple vertices:

* the quadrangle graph on 2q^3 vertices (girth 8): point (p1,p2,p3) is
  adjacent to line (l1,l2,l3) iff

      l2 - (p2 + a2) = l1*p1
      l3 - 2*(p3 + a3) = -2*l1*(p2 + a2)

* the hexagon graph on 2q^5 vertices (girth 12): point (p1..p5) is adjacent
  to line (l1..l5) iff

      l2 - (p2 + b2) = l1*p1
      l3 - 2*(p3 + b3) = -2*l1*(p2 + b2)
      l4 - 3*(p4 + b4) = -3*l1*(p3 + b3)
      2*l5 - 3*(p5 + b5) = 3*l3*(p2 + b2) - 3*l2*(p3 + b3) + l4*p1

with all arithmetic mod q.  A shift is a tuple of arity - 1 integers,
(a2, a3) for the quadrangle and (b2, b3, b4, b5) for the hexagon, each
taken mod q.  It selects one member of a family of pairwise edge-disjoint
copies whose union is the complete bipartite graph on the two coordinate
spaces: for any point/line pair the triangular system above has a unique
shift solution.  Every copy is isomorphic to the zero-shift graph:
subtracting the shift from p2.. (lines fixed) maps the base onto it.

Sign conventions are kept exactly as written; re-normalizing the equations
would silently change the graph.  One vectorised generator,
``_incident_lines``, solves the system for the line through each point with
each first coordinate l1 (q neighbors per point), for all points at once;
the builders and the bipartite partitions both use it, and nothing tests all
pairs.  ``_shift_index`` solves it for the shift of many point/line pairs
at once, for the complete-graph locator.  ``is_edge_q/h`` and
``solve_shift_q/h`` check and solve it for a single pair, as oracles.

Each built graph carries an automorphism certificate for its girth search:
coordinate translations that preserve the incidence equations for every
shift (see ``_QUADRANGLE_AUTOMORPHISMS`` and ``_HEXAGON_AUTOMORPHISMS``).
The graph checks them before use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .field import is_prime
from .graph import Graph


def _check_q(q: int) -> None:
    if q < 5 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 5, got {q}")


def index_to_tuple(idx: int, q: int, arity: int) -> tuple[int, ...]:
    coords = []
    for _ in range(arity):
        coords.append(idx % q)
        idx //= q
    return tuple(reversed(coords))


@dataclass(frozen=True)
class PointLineGraph:
    """A quadrangle or hexagon graph together with its construction data.

    Vertices 0..q^arity-1 are points (index = mixed-radix tuple), vertices
    q^arity..2q^arity-1 are lines.
    """

    q: int
    arity: int  # 3 for the quadrangle, 5 for the hexagon
    shift: tuple[int, ...]  # reduced mod q
    graph: Graph

    @property
    def n_side(self) -> int:
        return self.q ** self.arity


def _coords(idx: np.ndarray, q: int, arity: int) -> list[np.ndarray]:
    """Coordinate arrays, first coordinate first, of the canonical indices ``idx``."""
    return [(idx // q ** (arity - 1 - i)) % q for i in range(arity)]


def _index(coords, q: int) -> np.ndarray:
    """Canonical indices of coordinate arrays, each reduced mod q first."""
    idx = 0
    for c in coords:
        idx = idx * q + c % q
    return idx


def _incident_lines(q: int, arity: int, shift: tuple[int, ...], n_points: int) -> np.ndarray:
    """Line indices of the edges of points 0..n_points-1 in one shifted copy.

    Entry [p, l1] of the (n_points, q) result is the canonical index of the
    unique line through point p with first coordinate l1, for the shift
    (a2, a3) or (b2, b3, b4, b5); read row by row, it lists the edges in
    point-major order.  The incidence equations are solved for l2, l3, l4
    in turn; l5 needs the inverse of 2.
    """
    p1, *rest = _coords(np.arange(n_points, dtype=np.int64)[:, None], q, arity)
    s2, s3, *s45 = (c + b for c, b in zip(rest, shift))
    l1 = np.arange(q, dtype=np.int64)
    l2 = (s2 + l1 * p1) % q
    l3 = (2 * s3 - 2 * l1 * s2) % q
    if arity == 3:
        return _index((l1, l2, l3), q)
    s4, s5 = s45
    l4 = (3 * s4 - 3 * l1 * s3) % q
    l5 = pow(2, -1, q) * (3 * s5 + 3 * l3 * s2 - 3 * l2 * s3 + l4 * p1)
    return _index((l1, l2, l3, l4, l5), q)


def _shift_index(points: np.ndarray, lines: np.ndarray, q: int, arity: int) -> np.ndarray:
    """Canonical index of the unique shift joining point ``points[i]`` and line
    ``lines[i]``, for all pairs at once: :func:`solve_shift_q` and
    :func:`solve_shift_h` on index arrays."""
    p1, p2, p3, *p45 = _coords(points, q, arity)
    l1, l2, l3, *l45 = _coords(lines, q, arity)
    b2 = (l2 - p2 - l1 * p1) % q
    s2 = (p2 + b2) % q
    b3 = (pow(2, -1, q) * (l3 + 2 * l1 * s2) - p3) % q
    if arity == 3:
        return _index((b2, b3), q)
    (p4, p5), (l4, l5) = p45, l45
    inv3 = pow(3, -1, q)
    s3 = (p3 + b3) % q
    b4 = inv3 * (l4 + 3 * l1 * s3) - p4
    b5 = inv3 * (2 * l5 - 3 * l3 * s2 + 3 * l2 * s3 - l4 * p1) - p5
    return _index((b2, b3, b4, b5), q)


def is_edge_q(p: tuple[int, int, int], l: tuple[int, int, int], shift: tuple[int, int], q: int) -> bool:
    p1, p2, p3 = p
    l1, l2, l3 = l
    a2, a3 = shift
    s2 = (p2 + a2) % q
    s3 = (p3 + a3) % q
    return (l2 - s2 - l1 * p1) % q == 0 and (l3 - 2 * s3 + 2 * l1 * s2) % q == 0


def is_edge_h(p: tuple[int, ...], l: tuple[int, ...], shift: tuple[int, ...], q: int) -> bool:
    p1, p2, p3, p4, p5 = p
    l1, l2, l3, l4, l5 = l
    b2, b3, b4, b5 = shift
    s2 = (p2 + b2) % q
    s3 = (p3 + b3) % q
    s4 = (p4 + b4) % q
    s5 = (p5 + b5) % q
    return (
        (l2 - s2 - l1 * p1) % q == 0
        and (l3 - 2 * s3 + 2 * l1 * s2) % q == 0
        and (l4 - 3 * s4 + 3 * l1 * s3) % q == 0
        and (2 * l5 - 3 * s5 - 3 * l3 * s2 + 3 * l2 * s3 - l4 * p1) % q == 0
    )


# Automorphisms as maps (point coords, line coords) -> (point coords, line
# coords), images taken mod q.  Substituting an image pair into the incidence
# equations gives back the original equations, whatever the shift.  The
# quadrangle maps make the points one orbit and leave q line orbits (one per
# l1); the hexagon maps move only p4, p5 and l4, l5, leaving q^3 orbits on
# each side.
_QUADRANGLE_AUTOMORPHISMS = (
    # (p1+1 ; l2+l1)
    lambda p, l: ((p[0] + 1, p[1], p[2]), (l[0], l[1] + l[0], l[2])),
    # (p2+1 ; l2+1, l3-2*l1)
    lambda p, l: ((p[0], p[1] + 1, p[2]), (l[0], l[1] + 1, l[2] - 2 * l[0])),
    # (p3+1 ; l3+2)
    lambda p, l: ((p[0], p[1], p[2] + 1), (l[0], l[1], l[2] + 2)),
)
_HEXAGON_AUTOMORPHISMS = (
    # (p4+1, p5-p1 ; l4+3)
    lambda p, l: ((p[0], p[1], p[2], p[3] + 1, p[4] - p[0]), (l[0], l[1], l[2], l[3] + 3, l[4])),
    # (p5+2 ; l5+3)
    lambda p, l: ((p[0], p[1], p[2], p[3], p[4] + 2), (l[0], l[1], l[2], l[3], l[4] + 3)),
)


def _automorphisms(q: int, arity: int) -> list[np.ndarray]:
    """The construction's automorphism generators as vertex permutations."""
    n_side = q**arity
    coords = _coords(np.arange(n_side, dtype=np.int64), q, arity)
    maps = _QUADRANGLE_AUTOMORPHISMS if arity == 3 else _HEXAGON_AUTOMORPHISMS
    perms = []
    for f in maps:
        points, lines = f(coords, coords)
        perms.append(np.concatenate([_index(points, q), n_side + _index(lines, q)]))
    return perms


def _build(q: int, arity: int, shift: Optional[Sequence[int]]) -> PointLineGraph:
    _check_q(q)
    given = (0,) * (arity - 1) if shift is None else shift
    try:
        shift = tuple(operator.index(s) % q for s in given)
    except TypeError:
        shift = ()
    if len(shift) != arity - 1:
        raise ValueError(f"shift must be {arity - 1} integers, got {given!r}")
    n_side = q**arity
    lines = n_side + _incident_lines(q, arity, shift, n_side)
    edges = np.stack([np.repeat(np.arange(n_side), q), lines.ravel()], axis=1)
    side = [0] * n_side + [1] * n_side
    automorphisms = partial(_automorphisms, q, arity)
    g = Graph(2 * n_side, edges, side=side, automorphisms=automorphisms)
    return PointLineGraph(q=q, arity=arity, shift=shift, graph=g)


def build_quadrangle(q: int, shift: Optional[Sequence[int]] = None) -> PointLineGraph:
    """The quadrangle graph shifted by (a2, a3), zero if None: 2q^3
    vertices, q-regular, girth 8."""
    return _build(q, 3, shift)


def build_hexagon(q: int, shift: Optional[Sequence[int]] = None) -> PointLineGraph:
    """The hexagon graph shifted by (b2, b3, b4, b5), zero if None: 2q^5
    vertices, q-regular, girth 12."""
    return _build(q, 5, shift)


# ---------------------------------------------------------------------------
# Unique-shift solvers: for any fixed point/line pair the shifted adjacency
# system is triangular in the shift, hence has exactly one solution.


def solve_shift_q(p: tuple[int, int, int], l: tuple[int, int, int], q: int) -> tuple[int, int]:
    """The unique shift (a2, a3) making p and l adjacent in the shifted copy."""
    _check_q(q)
    p1, p2, p3 = p
    l1, l2, l3 = l
    a2 = (l2 - p2 - l1 * p1) % q
    inv2 = pow(2, -1, q)
    a3 = (inv2 * (l3 + 2 * l1 * ((p2 + a2) % q)) - p3) % q
    shift = (a2, a3)
    if not is_edge_q(p, l, shift, q):
        raise AssertionError(f"solved shift {shift} does not join {p} and {l}")
    return shift


def solve_shift_h(p: tuple[int, ...], l: tuple[int, ...], q: int) -> tuple[int, int, int, int]:
    """The unique shift (b2..b5) making p and l adjacent in the shifted copy."""
    _check_q(q)
    p1, p2, p3, p4, p5 = p
    l1, l2, l3, l4, l5 = l
    inv2 = pow(2, -1, q)
    inv3 = pow(3, -1, q)
    b2 = (l2 - p2 - l1 * p1) % q
    s2 = (p2 + b2) % q
    b3 = (inv2 * (l3 + 2 * l1 * s2) - p3) % q
    s3 = (p3 + b3) % q
    b4 = (inv3 * (l4 + 3 * l1 * s3) - p4) % q
    b5 = (inv3 * (2 * l5 - 3 * l3 * s2 + 3 * l2 * s3 - l4 * p1) - p5) % q
    shift = (b2, b3, b4, b5)
    if not is_edge_h(p, l, shift, q):
        raise AssertionError(f"solved shift {shift} does not join {p} and {l}")
    return shift
