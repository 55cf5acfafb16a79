import random

import pytest

from girthcover.algebraic import (
    build_quadrangle,
    is_edge_h,
    is_edge_q,
    is_prime,
    next_prime_at_least,
    solve_shift_h,
    solve_shift_q,
)
from girthcover.partition import partition_bipartite_exact


def sieve_primes(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def test_modulus_must_be_prime_at_least_5():
    for bad in (0, 1, 4, 6, 9, 2, 3):
        with pytest.raises(ValueError):
            build_quadrangle(bad)
        with pytest.raises(ValueError):
            partition_bipartite_exact(bad, 3)


def test_next_prime_at_least():
    assert next_prime_at_least(5) == 5
    assert next_prime_at_least(6) == 7
    # oracle: sieve over the relevant window
    primes = sieve_primes(200)
    assert next_prime_at_least(120) == min(p for p in primes if p >= 120) == 127
    for m in range(5, 150):
        assert next_prime_at_least(m) == min(p for p in primes if p >= m)
    with pytest.raises(ValueError):
        next_prime_at_least(4)


def test_is_prime_against_sieve():
    primes = set(sieve_primes(1000))
    for n in range(1001):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("q", [5, 7, 11, 101, 1009])
def test_two_and_three_invertible(q):
    # the shift solvers divide by 2 (b3, a3) and by 3 (b4, b5)
    rng = random.Random(q)
    for _ in range(20):
        p = tuple(rng.randrange(q) for _ in range(5))
        l = tuple(rng.randrange(q) for _ in range(5))
        assert is_edge_q(p[:3], l[:3], solve_shift_q(p[:3], l[:3], q), q)
        assert is_edge_h(p, l, solve_shift_h(p, l, q), q)
