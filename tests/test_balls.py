import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercalc import cli
from hypercalc.balls import Ball, _ball, _snap, as_ball, divide, hull, round_ball
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
    lo, hi = min(corners), max(corners)
    return Ball((lo + hi) / 2, (hi - lo) / 2)


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
    assert as_ball(3).center == 3


# The integer ball against the Fraction formulas it replaced: a ball is the
# pair (center, radius) of Fractions, and each operation below is the
# formula the Fraction representation used.


def pair(x: Ball) -> tuple[Fraction, Fraction]:
    return x.center, x.radius


def reference_mul(x, y):
    (c, r), (oc, orr) = x, y
    return c * oc, abs(c) * orr + abs(oc) * r + r * orr


scales = st.integers(1, 2**70)


@given(wide_rats, wide_rats, wide_rats, wide_rats, scales, scales)
@settings(max_examples=500, deadline=None)
def test_integer_balls_match_the_fraction_formulas(xc, xr, yc, yr, k, j):
    xr, yr = abs(xr), abs(yr)
    x, y = Ball(xc, xr), Ball(yc, yr)
    assert pair(x) == (xc, xr) and pair(y) == (yc, yr)
    # the same balls in integer forms that are not in lowest terms
    xs = _ball(x.c * k, x.r * k, x.d * k)
    ys = _ball(y.c * j, y.r * j, y.d * j)
    assert xs == x and ys == y and hash(xs) == hash(x) and repr(xs) == repr(x)
    assert (x == y) == ((xc, xr) == (yc, yr))
    for u, v in ((x, y), (xs, ys), (x, ys)):
        assert pair(u + v) == (xc + yc, xr + yr)
        assert pair(u - v) == (xc - yc, xr + yr)
        assert pair(u * v) == reference_mul((xc, xr), (yc, yr))
        assert pair(v + xc) == pair(xc + v) == (yc + xc, yr)
        assert pair(xc - v) == (xc - yc, yr)
        assert pair(v * xc) == pair(xc * v) == reference_mul((yc, yr), (xc, 0))
        assert outcome(divide, u, v) == outcome(reference_divide, x, y)
        assert u.overlaps(v) == (xc - xr <= yc + yr and yc - yr <= xc + xr)
    for u, (c, r) in ((x, (xc, xr)), (xs, (xc, xr)), (ys, (yc, yr))):
        assert pair(-u) == (-c, r)
        assert (u.lo, u.hi) == (c - r, c + r)
        assert u.is_exact == (r == 0)
        assert (u.c > u.r, u.c < -u.r) == (c - r > 0, c + r < 0)  # the sign tests
        for p in (c, c - r, c + r, yc, xc + yr, Fraction(0)):
            assert u.contains(p) == (c - r <= p <= c + r)


@given(wide_balls, scales, st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_snap_matches_the_fraction_reference_on_any_integer_form(x, k, bits):
    snapped = _snap(x.c * k, x.r * k, x.d * k, bits)
    assert snapped.d == 1 << bits  # the grid's denominator, with no gcd taken
    assert pair(snapped) == pair(reference_round_ball(x, bits))


def division_snap(c: int, r: int, d: int, bits: int) -> tuple[int, int, int]:
    """`_snap`'s division formula, for any d > 0."""
    s = ((c << (bits + 1)) + d) // (2 * d)
    return s, -(-((r << bits) + abs((c << bits) - s * d)) // d), 1 << bits


@given(st.integers(-2**4000, 2**4000), st.integers(0, 2**4000), st.integers(0, 4000),
       st.integers(0, 4000))
@settings(max_examples=300, deadline=None)
def test_a_dyadic_snap_is_the_division_formula(c, r, k, bits):
    # a power-of-two d rounds by a shift, bit for bit what the division gives
    snapped = _snap(c, r, 1 << k, bits)
    assert (snapped.c, snapped.r, snapped.d) == division_snap(c, r, 1 << k, bits)


def test_ball_construction_checks_its_radius():
    assert pair(Ball(3)) == (3, 0) and pair(Ball(Fraction(1, 3), 1)) == (Fraction(1, 3), 1)
    assert as_ball(Fraction(5, 7)) == Ball(Fraction(5, 7)) and Ball(1) != Ball(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        Ball(1, -1)
    assert Ball(1) != 1  # a ball equals balls only


def fractions_built(monkeypatch, argv) -> int:
    """Fractions constructed by one `hypercalc` command line."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(Fraction, "__new__", counting)
        assert cli.main(argv) == 0
    return count[0]


@pytest.mark.parametrize("text, before", [("[1000----3]", 352), ("[1.5++++0.75]", 935)])
def test_rank_4_probes_build_few_fractions(monkeypatch, text, before):
    # before: the count when balls, the root finder and power computed in
    # Fractions; the probe path now builds a Fraction only for what a probe
    # hands its function (x and its tolerance), a tolerance, or a center
    assert fractions_built(monkeypatch, ["eval", text, "--digits", "30"]) <= before // 4
