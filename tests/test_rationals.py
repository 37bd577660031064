import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercalc.engine import _apply
from hypercalc.errors import DomainError
from hypercalc.rationals import _C_LEAF_10_BITS, decimal_texts, digit_text, format_fraction, gcd
from hypercalc.terms import OpKind, Operator

from test_engine import long_division_digits


def brute_force_gcd(a, b):
    # independent oracle: largest divisor of both, by scanning
    best = 0
    for d in range(1, min(a, b) + 1):
        if a % d == 0 and b % d == 0:
            best = d
    return best if best else max(a, b)


def test_gcd_examples():
    assert gcd(12, 8) == 4
    assert gcd(7, 1) == 1
    assert gcd(1071, 462) == brute_force_gcd(1071, 462) == 21
    assert gcd(0, 5) == 5
    assert gcd(5, 0) == 5


def test_gcd_domain_errors():
    with pytest.raises(DomainError):
        gcd(0, 0)
    with pytest.raises(DomainError):
        gcd(-4, 2)


@given(st.integers(0, 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert a % g == 0 and b % g == 0
    assert gcd(a // g if a else 0, b // g) == 1


# ranks 1-2 on exact operands: `engine._apply` returns exact Fractions, and
# the tolerance goes unused
TOL = Fraction(1, 10**10)


def exact(op, a, b):
    out = _apply(op, a, b, TOL)
    assert isinstance(out, Fraction)
    return out


PLUS1 = Operator(OpKind.PLUS, 1)
PLUS2 = Operator(OpKind.PLUS, 2)
MINUS1 = Operator(OpKind.MINUS, 1)
MINUS2 = Operator(OpKind.MINUS, 2)
SLASH1 = Operator(OpKind.SLASH, 1)
SLASH2 = Operator(OpKind.SLASH, 2)


def test_low_op_examples():
    one = Fraction(1)
    assert exact(PLUS1, one, one) == 2
    assert exact(SLASH1, Fraction(5), Fraction(5)) == 0
    assert exact(MINUS2, Fraction(3), Fraction(2)) == Fraction(3, 2)
    assert exact(PLUS2, Fraction(3), Fraction(2)) == 6


def test_low_op_division_by_zero():
    with pytest.raises(DomainError):
        _apply(MINUS2, Fraction(1), Fraction(0), TOL)
    with pytest.raises(DomainError):
        _apply(SLASH2, Fraction(1), Fraction(0), TOL)


small_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(small_fractions, small_fractions)
@settings(max_examples=300, deadline=None)
def test_minus_equals_slash(a, b):
    assert exact(MINUS1, a, b) == exact(SLASH1, a, b)
    if b != 0:
        assert exact(MINUS2, a, b) == exact(SLASH2, a, b)


@given(small_fractions, small_fractions, small_fractions)
@settings(max_examples=300, deadline=None)
def test_field_identities(a, b, c):
    assert exact(PLUS1, a, b) == exact(PLUS1, b, a)
    assert exact(PLUS2, a, b) == exact(PLUS2, b, a)
    assert exact(PLUS1, exact(PLUS1, a, b), c) == exact(PLUS1, a, exact(PLUS1, b, c))
    assert exact(PLUS2, exact(PLUS2, a, b), c) == exact(PLUS2, a, exact(PLUS2, b, c))
    # subtract-then-add restores exactly
    assert exact(PLUS1, exact(MINUS1, a, b), b) == a


def test_fraction_text_roundtrip():
    assert format_fraction(Fraction(-3, 7)) == "-3/7"
    assert format_fraction(Fraction(5)) == "5/1"
    for r in (Fraction(-3, 7), Fraction(5), Fraction(6, 4)):
        assert Fraction(format_fraction(r)) == r


@pytest.fixture
def lowest_str_limit():
    """`str` of an int refuses past `sys.get_int_max_str_digits()` digits;
    run at the lowest setting it allows, 640."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_fraction_text_past_the_int_string_limit(lowest_str_limit):
    # 10^-5000 / 3: both parts are far past the digits `str` allows
    text = format_fraction(Fraction(-1, 3 * 10**5000))
    assert text == "-1/3" + "0" * 5000


ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def long_division_text(n: int, base: int, count: int) -> str:
    """digit_text's contract from the long-division reference: the digits
    of n / base^count, head and tail run together, are n's digits."""
    sign, head, tail = long_division_digits(Fraction(n, base**count), base, count)
    text = "".join(ALPHABET[d] for d in head + tail).lstrip("0").zfill(max(count, 1))
    return ("-" if sign == "-" else "") + text


@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 511, 512, 513])
def test_digit_text_matches_long_division_in_every_base(count, lowest_str_limit):
    # the counts sit on the divmod leaf (32) and the base-10 C leaf (512)
    rng = random.Random(count)
    for base in range(2, 37):
        top = base**count
        for n in (0, top - 1, -top, rng.randrange(top), -rng.randrange(top * base**40)):
            assert digit_text(n, base, count) == long_division_text(n, base, count)


def test_digit_text_past_the_int_string_limit(lowest_str_limit):
    rng = random.Random(4400)
    count = 4400
    for n in (rng.randrange(10**count), -rng.randrange(10**(count + 200))):
        assert digit_text(n, 10, count) == long_division_text(n, 10, count)


def test_decimal_texts_is_digit_text_over_a_run(lowest_str_limit):
    # runs inside the C leaf, up to its top, across it and far past `str`'s
    # limit, of either sign, and an empty run
    top = 2**_C_LEAF_10_BITS
    for start, stop in ((-5, 6), (top - 3, top), (top - 3, top + 2), (-top + 1, -top + 4),
                        (-top - 2, -top + 3), (10**1000, 10**1000 + 3),
                        (-10**1000 - 3, -10**1000), (7, 7)):
        assert list(decimal_texts(start, stop)) == [digit_text(j, 10) for j in range(start, stop)]
