"""Exact arithmetic primitives shared by every other module.

Python integers are already arbitrary precision and
:class:`fractions.Fraction` keeps values in lowest terms with a positive
denominator, so both are used directly.  Nothing in this package ever
touches floating point: every coefficient, intersection number and slope
is an exact integer or rational.
"""

from __future__ import annotations

from math import comb
from math import factorial as _math_factorial

__all__ = [
    "binomial",
    "factorial",
]


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    return _math_factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), equal to 0 whenever k < 0 or k > n.

    The zero convention is load bearing: the divisor-class coefficient
    formulas downstream are written uniformly in an index i and rely on
    terms like C(r-2, i-2) silently vanishing at small i instead of
    raising.
    """
    if k < 0 or k > n:
        return 0
    return comb(n, k)

