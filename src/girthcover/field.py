"""Primality helpers for the moduli of the algebraic constructions.

``is_prime`` validates a modulus q and ``next_prime_at_least`` picks the
smallest sufficient one.  The constructions compute in F_q with plain
integers mod q; q >= 5 guarantees that 2 and 3 are invertible, which the
defining equation systems and the shift solvers rely on.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (moduli fit in a word)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    i = 5
    while i * i <= n:
        if n % i == 0 or n % (i + 2) == 0:
            return False
        i += 6
    return True


def next_prime_at_least(m: int) -> int:
    """Smallest prime >= m.  Requires m >= 5."""
    if m < 5:
        raise ValueError(f"need m >= 5, got {m}")
    p = m
    while not is_prime(p):
        p += 1
    return p
