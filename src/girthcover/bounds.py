"""Closed-form bound calculators for even-cycle degree Ramsey numbers.

Exact rational arithmetic for the exponents; the upper-bound evaluator
requires its Turan-type constant explicitly because no defensible default
exists.
"""

from __future__ import annotations

import math
from fractions import Fraction


def lower_bound_exponent(k: int) -> Fraction:
    """Exponent of the general lower bound: 1 + 2/(3k - 5 + delta).

    delta is 1 for even k and 0 for odd k.  k = 2 gives 2 and k = 3 gives
    3/2, matching the tight orders for C_4 and C_6; larger k is weaker than
    the special-case bounds where those exist.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    delta = 1 if k % 2 == 0 else 0
    return 1 + Fraction(2, 3 * k - 5 + delta)


def tight_exponent(k: int) -> Fraction | None:
    """The known tight order s^(k/(k-1)) exponent, for k in {2, 3, 5} only."""
    return Fraction(k, k - 1) if k in (2, 3, 5) else None


def upper_bound(k: int, s: int, c_k: float) -> float:
    """Evaluate (s/c_k)^(1 + 1/(k-1)) - 1.

    c_k is the even-cycle Turan constant and must be supplied by the caller;
    the best known value is a literature constant, not something to invent.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if s < 1:
        raise ValueError("s must be >= 1")
    if c_k is None or not (math.isfinite(c_k) and c_k > 0):
        raise ValueError("the Turan constant c_k must be supplied, finite and positive")
    return (s / c_k) ** (1 + 1 / (k - 1)) - 1
