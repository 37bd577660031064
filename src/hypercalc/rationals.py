"""Exact arbitrary-precision rational arithmetic.

`fractions.Fraction` is the value type (unbounded integers, positive
denominator, always in lowest terms); this module adds the Euclidean gcd
with explicit domain errors and the `p/q` text form of a radius.  The
rank-1/rank-2 operator arithmetic on Fractions is `engine._apply`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers, by the
    Euclidean algorithm.  gcd(0, n) = n; gcd(0, 0) is a domain error."""
    if a < 0 or b < 0:
        raise DomainError("gcd arguments must be non-negative")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


def format_fraction(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"

