"""Ball arithmetic: a rational center plus a rational absolute-error radius.

Every approximate value in the package is a Ball whose interval
[center - radius, center + radius] is guaranteed to contain the represented
real.  Arithmetic here propagates radii rigorously; `round_ball` snaps a
ball onto a dyadic grid (widening the radius by the snap error) so that
long computations never accumulate giant exact-rational representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionError

Rational = int | Fraction


@dataclass(frozen=True)
class Ball:
    center: Fraction
    radius: Fraction = Fraction(0)

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("negative radius")

    @property
    def lo(self) -> Fraction:
        return self.center - self.radius

    @property
    def hi(self) -> Fraction:
        return self.center + self.radius

    @property
    def is_exact(self) -> bool:
        return self.radius == 0

    def contains(self, x: Rational) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Ball") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other: "Ball | Rational") -> "Ball":
        o = as_ball(other)
        return Ball(self.center + o.center, self.radius + o.radius)

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return Ball(-self.center, self.radius)

    def __sub__(self, other: "Ball | Rational") -> "Ball":
        return self + (-as_ball(other))

    def __rsub__(self, other: "Ball | Rational") -> "Ball":
        return as_ball(other) + (-self)

    def __mul__(self, other: "Ball | Rational") -> "Ball":
        o = as_ball(other)
        radius = (
            abs(self.center) * o.radius
            + abs(o.center) * self.radius
            + self.radius * o.radius
        )
        return Ball(self.center * o.center, radius)

    __rmul__ = __mul__


def as_ball(x: "Ball | Rational") -> Ball:
    if isinstance(x, Ball):
        return x
    return Ball(Fraction(x))


def from_endpoints(lo: Fraction, hi: Fraction) -> Ball:
    if hi < lo:
        raise ValueError("endpoints out of order")
    half = Fraction(hi - lo, 2)
    return Ball(lo + half, half)


def hull(a: Ball, b: Ball) -> Ball:
    return from_endpoints(min(a.lo, b.lo), max(a.hi, b.hi))


def divide(x: "Ball | Rational", y: "Ball | Rational") -> Ball:
    """Interval quotient; the divisor interval must exclude zero."""
    xb, yb = as_ball(x), as_ball(y)
    if yb.lo <= 0 <= yb.hi:
        if yb.is_exact:
            raise DomainError("division by zero")
        raise PrecisionError("divisor interval contains zero")
    corners = [xb.lo / yb.lo, xb.lo / yb.hi, xb.hi / yb.lo, xb.hi / yb.hi]
    return from_endpoints(min(corners), max(corners))


def round_ball(x: Ball, bits: int) -> Ball:
    """Snap onto the 2^-bits grid; the enclosure only ever widens.

    Both center and radius end up as dyadics with about `bits` fractional
    bits, keeping representation sizes bounded no matter how tangled the
    exact values were.
    """
    scale = 1 << bits
    c = x.center
    num = c.numerator * scale
    snapped = Fraction((2 * num + c.denominator) // (2 * c.denominator), scale)
    r = x.radius + abs(c - snapped)
    rnum = r.numerator * scale
    rup = Fraction(-((-rnum) // r.denominator), scale)  # ceil
    return Ball(snapped, rup)
