"""Ball arithmetic: a rational center plus a rational absolute-error radius.

Every approximate value in the package is a Ball whose interval
[center - radius, center + radius] is guaranteed to contain the represented
real.  Arithmetic here propagates radii rigorously.  Two rules live here
once, over integer balls (c +/- r) / d, d > 0: `_snap` puts a ball onto a
dyadic grid, widening the radius by the snap error, so that exact rationals
never grow without bound, and `_quotient` divides two balls by their extreme
corners.  `round_ball` and `divide` are their Fraction front-ends; `midops`'
fixed-point pipeline calls the integer cores directly.
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


def _ints(x: Ball) -> tuple[int, int, int]:
    """x as an integer ball (c, r, d): center c / d, radius r / d."""
    c, r = x.center, x.radius
    return c.numerator * r.denominator, r.numerator * c.denominator, c.denominator * r.denominator


def divide(x: "Ball | Rational", y: "Ball | Rational") -> Ball:
    """Interval quotient; the divisor interval must exclude zero."""
    xb, yb = as_ball(x), as_ball(y)
    q = _quotient(*_ints(xb), *_ints(yb))
    if q is None:
        raise (DomainError("division by zero") if yb.is_exact
               else PrecisionError("divisor interval contains zero"))
    return Ball(Fraction(q[0], q[2]), Fraction(q[1], q[2]))


def _quotient(xc: int, xr: int, xd: int,
              yc: int, yr: int, yd: int) -> tuple[int, int, int] | None:
    """(xc +/- xr) / xd divided by (yc +/- yr) / yd as an integer ball (c, r, d),
    all d > 0; None when the divisor interval reaches 0."""
    xl, xh, yl, yh = xc - xr, xc + xr, yc - yr, yc + yr
    if yl <= 0 <= yh:
        return None
    if yh < 0:  # x / y = -x / -y
        xl, xh, yl, yh = -xh, -xl, -yh, -yl
    hd, ld = (yl if xh >= 0 else yh), (yh if xl >= 0 else yl)  # extremes xh/hd, xl/ld
    return (xh * ld + xl * hd) * yd, (xh * ld - xl * hd) * yd, 2 * hd * ld * xd


def round_ball(x: Ball, bits: int) -> Ball:
    """Snap onto the 2^-bits grid; the enclosure only ever widens."""
    return _snap(*_ints(x), bits)


def _snap(c: int, r: int, d: int, bits: int) -> Ball:
    """The integer ball (c +/- r) / d, d > 0, r >= 0, on the 2^-bits grid: the center
    rounds to nearest (halves up), the radius grows by that and rounds up."""
    s = ((c << (bits + 1)) + d) // (2 * d)
    rup = -(-((r << bits) + abs((c << bits) - s * d)) // d)
    return Ball(Fraction(s, 1 << bits), Fraction(rup, 1 << bits))
