import math

import numpy as np
import pytest

from girthcover.graph import Graph, _runs
from girthcover.randomcover import (
    SeedGraph,
    _copy_permutation,
    builtin_seed_for_cycle,
    cover_for_cycle,
    cover_random,
    required_copies,
)
from girthcover.algebraic import build_quadrangle
from girthcover.partition import CompleteCoverLocator, verify_partition
from conftest import complete_graph, first_cover_wins_dict, path_graph, petersen_graph, traced_peak


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
    with pytest.raises(ValueError, match="more copies than a float can count"):
        required_copies(250, 100, 1e308)  # finite C, but the count overflows


def test_seed_certification():
    s = SeedGraph.certify(petersen_graph())
    assert s.girth == 5
    with pytest.raises(ValueError):
        SeedGraph.certify(Graph(3, []))
    with pytest.raises(ValueError):
        SeedGraph.certify(petersen_graph(), min_girth=6)


def test_cover_refuses_seed_larger_than_n():
    s = SeedGraph.certify(petersen_graph())
    with pytest.raises(ValueError, match="seed has 10 vertices, more than n=5"):
        cover_random(5, s, 2.0, rng_seed=0)
    assert cover_random(10, s, 2.0, rng_seed=0).n == 10  # a seed on exactly n vertices is fine


def test_cover_with_complete_seed_uses_first_copy():
    n = 12
    seed = SeedGraph.certify(complete_graph(n))
    outcome = cover_random(n, seed, 2.0, rng_seed=0)
    assert outcome.success
    assert (outcome.owner == 0).all()
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


@pytest.mark.parametrize(
    "n, seed_graph, C, rng_seed, uncovered_count",
    [
        (20, petersen_graph(), 9.0, 3, 0),
        (40, petersen_graph(), 0.5, 1, 118),
        (12, path_graph(12), 6.0, 2, 0),  # a forest seed: classes claim girth 13
        (260, build_quadrangle(5).graph, 0.3, 1, 6278),
    ],
)
def test_cover_random_matches_dict_oracle(n, seed_graph, C, rng_seed, uncovered_count):
    seed = SeedGraph.certify(seed_graph)
    outcome = cover_random(n, seed, C, rng_seed)
    copies, assignment, uncovered = first_cover_wins_dict(
        n, seed.graph, outcome.copy_count, rng_seed
    )
    used = outcome.copies_used
    assert [_copy_permutation(n, rng_seed, i) for i in range(used)] == copies[:used]
    # sampling stops at the copy that completes the cover, and only there
    assert used == (outcome.copy_count if uncovered else outcome.owner.max() + 1)
    triu = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert outcome.owner.tolist() == [assignment.get(e, -1) for e in triu]
    assert list(map(tuple, outcome.uncovered.tolist())) == uncovered
    assert outcome.uncovered.shape == (len(uncovered), 2) and outcome.uncovered.dtype == np.int64
    assert len(uncovered) == uncovered_count
    if uncovered:
        return
    classes = {}
    for e in sorted(assignment):
        classes.setdefault(assignment[e], []).append(list(e))
    ep = outcome.to_partition()
    assert [(p.name, p.edges.tolist()) for p in ep.parts] == [
        (f"copy{i:05d}", classes[i]) for i in sorted(classes)
    ]
    assert verify_partition(ep).passed


def test_a_complete_cover_builds_no_array_of_the_pairs():
    # Only a failed cover lists the K_n pairs left uncovered; on success the
    # traced peak stays near the owner array, not the ~4x more of the pairs.
    seed = SeedGraph.certify(build_quadrangle(5).graph)
    peak, outcome = traced_peak(lambda: cover_random(600, seed, 9.0, rng_seed=1))
    assert outcome.success
    assert peak < 2 * outcome.owner.nbytes


def test_coverage_calibration():
    # replay the copies cover_random used through the seed graph's edge
    # list: they must leave exactly its uncovered pairs, and sampling stops
    # at full cover, so the copies before the last one leave some pair
    n = 20
    seed = SeedGraph.certify(petersen_graph())
    outcome = cover_random(n, seed, 3.0, rng_seed=5)
    covered = []
    for i in range(outcome.copies_used):
        perm = _copy_permutation(n, 5, i)
        covered.append({tuple(sorted((perm[u], perm[v]))) for u, v in seed.graph.edges()})
    triu = [(u, v) for u in range(n) for v in range(u + 1, n)]
    uncovered = [e for e in triu if not any(e in c for c in covered)]
    assert list(map(tuple, outcome.uncovered.tolist())) == uncovered
    assert 0 < outcome.copies_used <= outcome.copy_count
    if not uncovered:
        assert len(set(triu).difference(*covered[:-1])) > 0


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


def test_verify_builds_no_graph_per_searched_part(monkeypatch):
    # The parts that no certificate decides are searched on blocks of one
    # union graph per run, so verify builds a Graph per run and one per
    # certificate base (a quadrangle per prime), not one per searched part.
    ep = cover_for_cycle(250, 3, 3.0, 1).to_partition()
    built = []
    init = Graph.__init__

    def counted(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    report = verify_partition(ep)
    monkeypatch.undo()
    assert report.passed
    todo = [part for part, check in zip(ep.parts, report.checks) if check.decided_by != "certificate"]
    runs = len(list(_runs(todo, [len(part.edges) for part in todo])))
    bases = len({level.prime for level in CompleteCoverLocator(250, 8).plan.levels})
    searched = sum(check.decided_by == "search" for check in report.checks)
    assert len(built) <= runs + bases < searched, (built, runs, bases, searched)


def test_cover_for_cycle_rejects_weak_seed():
    weak = SeedGraph.certify(complete_graph(5))  # girth 3
    with pytest.raises(ValueError):
        cover_for_cycle(20, 3, 9.0, rng_seed=0, seed=weak)
