from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercalc.balls import Ball, as_ball, divide, from_endpoints, hull, round_ball
from hypercalc.errors import DomainError, HypercalcError, PrecisionError

balls = st.builds(
    Ball,
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=0, max_value=2, max_denominator=40),
)
points = st.fractions(min_value=-1, max_value=1, max_denominator=20)


# Fraction references for the two integer cores of `balls`: the snap, and the
# interval quotient by its four corners.  The front-ends (and, through
# test_midops, the fixed-point pipeline) are checked against code that
# shares nothing with the cores.


def reference_round_ball(x: Ball, bits: int) -> Ball:
    scale = 1 << bits
    c = x.center
    num = c.numerator * scale
    snapped = Fraction((2 * num + c.denominator) // (2 * c.denominator), scale)
    r = x.radius + abs(c - snapped)
    rnum = r.numerator * scale
    rup = Fraction(-((-rnum) // r.denominator), scale)  # ceil
    return Ball(snapped, rup)


def reference_divide(x, y) -> Ball:
    xb, yb = as_ball(x), as_ball(y)
    if yb.lo <= 0 <= yb.hi:
        if yb.is_exact:
            raise DomainError("division by zero")
        raise PrecisionError("divisor interval contains zero")
    corners = [xb.lo / yb.lo, xb.lo / yb.hi, xb.hi / yb.lo, xb.hi / yb.hi]
    return from_endpoints(min(corners), max(corners))


def outcome(fn, *args):
    """The Ball, or the error's class and message."""
    try:
        return fn(*args)
    except HypercalcError as err:
        return type(err), str(err)


def test_basics():
    b = Ball(Fraction(3), Fraction(1, 2))
    assert b.lo == Fraction(5, 2) and b.hi == Fraction(7, 2)
    assert b.contains(3) and not b.contains(4)
    assert not b.is_exact and Ball(Fraction(3)).is_exact
    with pytest.raises(ValueError):
        Ball(Fraction(0), Fraction(-1))


@given(balls, balls, points, points)
@settings(max_examples=300, deadline=None)
def test_arithmetic_encloses(x, y, s, t):
    # pick a concrete point of each ball and check the image stays inside
    px = x.center + s * x.radius
    py = y.center + t * y.radius
    assert (x + y).contains(px + py)
    assert (x - y).contains(px - py)
    assert (x * y).contains(px * py)
    assert (-x).contains(-px)


@given(balls, balls, points, points)
@settings(max_examples=300, deadline=None)
def test_divide_encloses(x, y, s, t):
    if y.lo <= 0 <= y.hi:
        with pytest.raises((DomainError, PrecisionError)):
            divide(x, y)
        return
    px = x.center + s * x.radius
    py = y.center + t * y.radius
    assert divide(x, y).contains(px / py)


def test_divide_by_exact_zero():
    with pytest.raises(DomainError):
        divide(Ball(Fraction(1)), Ball(Fraction(0)))


@given(balls, st.integers(4, 80), points)
@settings(max_examples=300, deadline=None)
def test_round_ball_encloses_and_snaps(x, bits, s):
    p = x.center + s * x.radius
    r = round_ball(x, bits)
    assert r.contains(p)
    assert r.center.denominator & (r.center.denominator - 1) == 0  # a dyadic
    assert r.radius <= x.radius + Fraction(2, 1 << bits)


# wide numerators and denominators, zeros and dyadics, and balls that touch
# or straddle 0 from either side
wide_rats = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**200)),
    st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-2**70, 2**70), st.integers(0, 90)),
)
wide_balls = st.builds(lambda c, r: Ball(c, abs(r)), wide_rats,
                       st.one_of(st.just(Fraction(0)), wide_rats))


@given(wide_balls, wide_balls)
@settings(max_examples=500, deadline=None)
def test_divide_matches_the_corner_reference(x, y):
    assert outcome(divide, x, y) == outcome(reference_divide, x, y)
    for z in (y.center, Ball(-x.lo), Ball(Fraction(0))):  # exact divisors
        assert outcome(divide, x, z) == outcome(reference_divide, x, z)
    assert outcome(divide, x, Ball(y.center, abs(y.center))) == outcome(
        reference_divide, x, Ball(y.center, abs(y.center)))  # touches 0


@given(wide_balls, st.integers(0, 400))
@settings(max_examples=500, deadline=None)
def test_round_ball_matches_the_fraction_reference(x, bits):
    assert round_ball(x, bits) == reference_round_ball(x, bits)
    halfway = Ball(Fraction(2 * x.center.numerator + 1, 1 << (bits + 1)), x.radius)
    assert round_ball(halfway, bits) == reference_round_ball(halfway, bits)  # ties round up


def test_hull_and_endpoints():
    h = hull(Ball(Fraction(1), Fraction(1)), Ball(Fraction(5)))
    assert h.lo == 0 and h.hi == 5
    e = from_endpoints(Fraction(2), Fraction(3))
    assert e.lo == 2 and e.hi == 3
    assert as_ball(3).center == 3
