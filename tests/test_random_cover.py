import math

import pytest

from girthcover.graph import Graph
from girthcover.randomcover import (
    SeedGraph,
    builtin_seed_for_cycle,
    cover_for_cycle,
    cover_random,
    required_copies,
)
from conftest import complete_graph, petersen_graph


def test_required_copies_complete_seed():
    # seed = K_n: t reduces to ceil(C ln n)
    n, C = 30, 7.0
    t = required_copies(n, n * (n - 1) // 2, C)
    assert t == math.ceil(C * math.log(n))


def test_required_copies_petersen_example():
    # n=20, 15 seed edges, C=9: ceil(9 * ln 20 * 380 / 30)
    expected = math.ceil(9 * math.log(20) * 20 * 19 / (2 * 15))
    assert required_copies(20, 15, 9) == expected == 342


def test_required_copies_halves_with_density():
    t1 = required_copies(50, 40, 5)
    t2 = required_copies(50, 80, 5)
    assert t2 <= t1 and t1 <= 2 * t2 + 1


def test_required_copies_validation():
    with pytest.raises(ValueError):
        required_copies(1, 10, 1)
    with pytest.raises(ValueError):
        required_copies(10, 0, 1)
    with pytest.raises(ValueError):
        required_copies(10, 5, 0)
    for C in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite C > 0"):
            required_copies(10, 5, C)


def test_seed_certification():
    s = SeedGraph.certify(petersen_graph())
    assert s.girth == 5
    with pytest.raises(ValueError):
        SeedGraph.certify(Graph(3, []))
    with pytest.raises(ValueError):
        SeedGraph.certify(petersen_graph(), min_girth=6)


def test_seed_padding():
    s = SeedGraph.certify(petersen_graph()).padded_to(15)
    assert s.graph.n == 15 and s.graph.m == 15 and s.girth == 5
    with pytest.raises(ValueError):
        s.padded_to(5)


def test_cover_with_complete_seed_uses_first_copy():
    n = 12
    seed = SeedGraph.certify(complete_graph(n))
    outcome = cover_random(n, seed, 2.0, rng_seed=0)
    assert outcome.success
    assert set(outcome.assignment.values()) == {0}
    ep = outcome.to_partition()
    assert len(ep.parts) == 1 and ep.is_exact()


def test_cover_petersen_trials():
    seed = SeedGraph.certify(petersen_graph())
    successes = 0
    for trial in range(10):
        outcome = cover_random(20, seed, 9.0, rng_seed=trial)
        if outcome.success:
            successes += 1
            ep = outcome.to_partition()
            assert ep.is_exact()
            for part in ep.parts:
                assert Graph(20, part.edges).girth_exceeds(4)
    assert successes == 10


def test_failed_cover_is_a_value():
    seed = SeedGraph.certify(petersen_graph())
    outcome = cover_random(40, seed, 0.01, rng_seed=1)  # 2 copies: must fail
    assert outcome.copy_count == 2
    assert not outcome.success
    assert len(outcome.uncovered) >= 40 * 39 // 2 - 30
    with pytest.raises(ValueError):
        outcome.to_partition()


def test_coverage_calibration():
    # replay the returned permutations and compare mean coverage with
    # t * seed_edges / (n(n-1)/2)
    n = 20
    seed = SeedGraph.certify(petersen_graph()).padded_to(n)
    outcome = cover_random(n, seed, 3.0, rng_seed=5)
    counts = {}
    seed_edges = list(seed.graph.edges())
    for perm in outcome.copies:
        for u, v in seed_edges:
            a, b = perm[u], perm[v]
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    pairs = n * (n - 1) // 2
    mean = sum(counts.values()) / pairs
    expected = outcome.copy_count * len(seed_edges) / pairs
    assert abs(mean - expected) / expected < 0.05


def test_success_rate_monotone_in_C():
    seed = SeedGraph.certify(petersen_graph())
    rates = []
    for C in (0.2, 0.6, 1.5, 4.0):
        wins = sum(
            cover_random(20, seed, C, rng_seed=1000 * trial + int(C * 10)).success
            for trial in range(100)
        )
        rates.append(wins)
    assert rates == sorted(rates)


def test_builtin_seed_selection():
    s = builtin_seed_for_cycle(250, 3)
    assert s.graph.n == 250 and s.girth == 8
    # girth monotonicity: the same seed serves k=2
    s2 = builtin_seed_for_cycle(250, 2)
    assert s2.girth >= 6
    with pytest.raises(ValueError):
        builtin_seed_for_cycle(250, 4)
    with pytest.raises(ValueError):
        builtin_seed_for_cycle(100, 3)  # smallest quadrangle needs 250 vertices
    with pytest.raises(ValueError):
        builtin_seed_for_cycle(250, 5)  # smallest hexagon needs 6250 vertices


def test_cover_for_cycle_k3():
    outcome = cover_for_cycle(250, 3, 9.0, rng_seed=0)
    assert outcome.success
    ep = outcome.to_partition()
    assert ep.is_exact()
    for part in ep.parts[:20]:
        assert Graph(250, part.edges).girth_exceeds(7)


def test_cover_for_cycle_rejects_weak_seed():
    weak = SeedGraph.certify(complete_graph(5))  # girth 3
    with pytest.raises(ValueError):
        cover_for_cycle(20, 3, 9.0, rng_seed=0, seed=weak)
