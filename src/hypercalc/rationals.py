"""Exact arbitrary-precision rational arithmetic.

`fractions.Fraction` is the value type (unbounded integers, positive
denominator, always in lowest terms); this module adds the Euclidean gcd
with explicit domain errors, the rank-1/rank-2 operator arithmetic, and
the `p/q` text form of a radius.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .terms import OpKind, Operator


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


def low_op(op: Operator, a: Fraction, b: Fraction) -> Fraction:
    """Apply a rank-1 or rank-2 operator exactly.

    `+` adds, `++` multiplies; `-` and `/` both subtract, `--` and `//`
    both divide (the slash families coincide with the minus families at
    these ranks).
    """
    if op.rank > 2:
        raise DomainError(f"low_op only handles ranks 1-2, got rank {op.rank}")
    if op.kind is OpKind.PLUS:
        return a + b if op.rank == 1 else a * b
    if op.rank == 1:
        return a - b
    if b == 0:
        raise DomainError("division by zero")
    return a / b


def format_fraction(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"

