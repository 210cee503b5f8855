from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnslopes.numeric import (
    binomial,
    factorial,
)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(6) == 720
    assert factorial(10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(6, 2) == 15
    assert binomial(5, -1) == 0
    assert binomial(4, -2) == 0
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_factorial_ratio():
    # independent oracle: n! / (k! (n-k)!) wherever that expression is defined
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert binomial(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=-10, max_value=70))
def test_binomial_pascal(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_rational_rendering():
    # every emitter renders a rational as str(Fraction): lowest terms,
    # sign on the numerator, integers as a bare "p"
    assert str(Fraction(2459, 377)) == "2459/377"
    assert str(Fraction(-6, 4)) == "-3/2"
    assert str(Fraction(7)) == "7"
