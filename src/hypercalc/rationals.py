"""Exact arbitrary-precision rational arithmetic.

`fractions.Fraction` is the value type (unbounded integers, positive
denominator, always in lowest terms); this module adds the Euclidean gcd
with explicit domain errors, `digit_text`, the one conversion of an
integer to base-b digits, `decimal_texts` over a run of integers, and the
`p/q` text form of a radius.  The rank-1/rank-2 operator arithmetic on
Fractions is `engine._apply`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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


_DIGIT_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# `format` codes of the power-of-two bases, which C converts in linear time
# at any length.  Base 10 (`str`) is quadratic and refused past
# `sys.get_int_max_str_digits()` digits, at least 640, so C converts at most
# _C_LEAF_10 digits of it at a time: any n below 2^_C_LEAF_10_BITS.
_POW2_CODES = {2: "b", 8: "o", 16: "X"}
_C_LEAF_10 = 512
_C_LEAF_10_BITS = int(_C_LEAF_10 * math.log2(10))
# Below this many digits of another base a run of single-digit divmods beats
# another split.
_DIVMOD_LEAF = 32


def digit_text(n: int, base: int, count: int = 1) -> str:
    """n in base `base` (digits 0-9A-Z), zero-padded to at least `count`
    digits, after a "-" when n < 0; zero at count 0 is "0".

    Divide and conquer on base^(2^k): each split is one division of a
    number by a power about half its size, so the whole costs a few
    divisions of n's size, where one divmod per digit is quadratic.  A
    leaf is one C conversion in bases 2, 8, 10 and 16 and a run of divmods
    in any other base; a power-of-two base needs no split at all.
    """
    if n < 0:
        return "-" + digit_text(-n, base, count)
    if base == 10:
        if n.bit_length() <= _C_LEAF_10_BITS:
            return str(n).zfill(count)
    elif base in _POW2_CODES:
        return format(n, _POW2_CODES[base]).zfill(count)
    # n < 2^bits <= base^width; the float bound gets one digit of slack
    width = max(count, int(n.bit_length() * math.log(2) / math.log(base)) + 2)
    return _split(n, base, width).lstrip("0").zfill(max(count, 1))


def decimal_texts(start: int, stop: int) -> Iterator[str]:
    """`digit_text(j, 10)` for each j in range(start, stop), each made as
    the iterator reaches it.  When every j fits one C leaf that is `str`
    over the range, with no Python frame per integer."""
    if max(-start, stop - 1).bit_length() <= _C_LEAF_10_BITS:
        return map(str, range(start, stop))
    return (digit_text(j, 10) for j in range(start, stop))


def _split(n: int, base: int, count: int) -> str:
    """Exactly `count` base-`base` digits of 0 <= n < base^count."""
    leaf = _C_LEAF_10 if base == 10 else _DIVMOD_LEAF
    powers = [base]  # powers[k] = base^(2^k)
    while 1 << len(powers) < count:
        powers.append(powers[-1] ** 2)
    parts: list[str] = []

    def split(n: int, count: int) -> None:
        if count <= leaf:
            if base == 10:
                parts.append(str(n).zfill(count))
                return
            block = [0] * count
            for i in range(count - 1, -1, -1):
                n, block[i] = divmod(n, base)
            parts.append("".join(map(_DIGIT_ALPHABET.__getitem__, block)))
            return
        k = (count - 1).bit_length() - 1  # 2^k < count <= 2^(k+1)
        high, low = divmod(n, powers[k])
        split(high, count - (1 << k))
        split(low, 1 << k)

    split(n, count)
    return "".join(parts)


def format_fraction(r: Fraction) -> str:
    """`p/q` in base 10, at any length of p and q."""
    return f"{digit_text(r.numerator, 10)}/{digit_text(r.denominator, 10)}"

