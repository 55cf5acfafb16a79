import math
from fractions import Fraction

import pytest

from girthcover.bounds import lower_bound_exponent, tight_exponent, upper_bound


def test_lower_bound_exponent_exact():
    assert lower_bound_exponent(2) == Fraction(2)
    assert lower_bound_exponent(3) == Fraction(3, 2)
    assert lower_bound_exponent(5) == Fraction(6, 5)
    assert lower_bound_exponent(4) == 1 + Fraction(2, 8)
    with pytest.raises(ValueError):
        lower_bound_exponent(1)


def test_lower_bound_is_exact_rational():
    for k in range(2, 20):
        e = lower_bound_exponent(k)
        assert isinstance(e, Fraction)
        delta = 1 if k % 2 == 0 else 0
        assert e == Fraction(3 * k - 5 + delta + 2, 3 * k - 5 + delta)


def test_tight_exponent():
    assert tight_exponent(2) == Fraction(2)
    assert tight_exponent(3) == Fraction(3, 2)
    assert tight_exponent(5) == Fraction(5, 4)
    assert tight_exponent(4) is None


def test_upper_bound_examples():
    # s = c_k: ratio 1 to any power, minus 1
    assert upper_bound(3, 2, 2.0) == 0
    # k=2: exponent 2
    assert upper_bound(2, 4, 1.0) == 15
    # k=3: (8 / 0.5)^{3/2} - 1 = 16^{3/2} - 1
    assert upper_bound(3, 8, 0.5) == pytest.approx(63)


def test_upper_bound_requires_ck():
    with pytest.raises(ValueError):
        upper_bound(3, 8, None)
    with pytest.raises(ValueError):
        upper_bound(3, 8, 0)
    for c_k in (math.nan, math.inf):
        with pytest.raises(ValueError):
            upper_bound(3, 8, c_k)
    with pytest.raises(ValueError):
        upper_bound(1, 8, 1.0)
    for s, c_k in ((100000, 1e-300), (100000, 1e-320), (10**400, 1.0)):
        with pytest.raises(ValueError, match="overflows a float"):
            upper_bound(3, s, c_k)  # finite inputs, but the bound is no float
