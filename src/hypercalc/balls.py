"""Ball arithmetic: the integer ball (c +/- r) / d, d > 0, r >= 0.

Every approximate value in the package is a Ball whose interval
[(c - r) / d, (c + r) / d] is guaranteed to contain the represented real.
The three integers are the representation, as in Arb's midpoint-radius
balls (Johansson, IEEE Trans. Computers 66(8), 2017), with the exponent
folded into d: arithmetic, the sign and order tests and `is_exact` are
integer operations, and no value is ever reduced to lowest terms.  Equality
compares values by cross-multiplication, so two forms of one ball are equal.
`center`, `radius`, `lo` and `hi` are Fraction views for the API's edges
(radius text, tests); `Ball(center, radius)` accepts ints and Fractions, and
`_ball(c, r, d)` builds the integer form directly.

Arithmetic propagates radii rigorously.  Two rules live here once: `_snap`
puts a ball onto the dyadic grid 2^-bits (d = 2^bits), widening the radius
by the snap error, so that exact rationals never grow without bound, and
`_quotient` divides two balls by their extreme corners; most balls `_snap`
meets are dyadic, and those it rounds by a shift.  `round_ball` and
`divide` are their Ball front-ends; `midops`' fixed-point pipeline calls the
integer cores directly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, PrecisionError

Rational = int | Fraction


class Ball:
    __slots__ = ("c", "r", "d")

    def __init__(self, center: Rational, radius: Rational = 0):
        c, d = center.numerator, center.denominator
        r = 0
        if radius:
            r, rd = radius.numerator, radius.denominator
            if r < 0:
                raise ValueError("negative radius")
            if rd != d:
                c, r, d = c * rd, r * d, d * rd
        self.c, self.r, self.d = c, r, d

    @property
    def center(self) -> Fraction:
        return Fraction(self.c, self.d)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.r, self.d)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.c - self.r, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.c + self.r, self.d)

    @property
    def is_exact(self) -> bool:
        return self.r == 0

    def contains(self, x: Rational) -> bool:
        n, m = x.numerator * self.d, x.denominator
        return (self.c - self.r) * m <= n <= (self.c + self.r) * m

    def overlaps(self, other: "Ball") -> bool:
        c, r, d, oc, orr, od = self.c, self.r, self.d, other.c, other.r, other.d
        return (c - r) * od <= (oc + orr) * d and (oc - orr) * d <= (c + r) * od

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return self.c * other.d == other.c * self.d and self.r * other.d == other.r * self.d

    def __hash__(self):
        return hash((self.center, self.radius))

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius!r})"

    def __add__(self, other: "Ball | Rational") -> "Ball":
        o = as_ball(other)
        d, od = self.d, o.d
        if d == od:
            return _ball(self.c + o.c, self.r + o.r, d)
        return _ball(self.c * od + o.c * d, self.r * od + o.r * d, d * od)

    __radd__ = __add__

    def __neg__(self) -> "Ball":
        return _ball(-self.c, self.r, self.d)

    def __sub__(self, other: "Ball | Rational") -> "Ball":
        return self + (-as_ball(other))

    def __rsub__(self, other: "Ball | Rational") -> "Ball":
        return as_ball(other) + (-self)

    def __mul__(self, other: "Ball | Rational") -> "Ball":
        o = as_ball(other)
        c, r, oc, orr = self.c, self.r, o.c, o.r
        return _ball(c * oc, abs(c) * orr + abs(oc) * r + r * orr, self.d * o.d)

    __rmul__ = __mul__


def _ball(c: int, r: int, d: int) -> Ball:
    """The Ball (c +/- r) / d, for d > 0 and r >= 0, taken as it is."""
    ball = object.__new__(Ball)
    ball.c, ball.r, ball.d = c, r, d
    return ball


def as_ball(x: "Ball | Rational") -> Ball:
    return x if isinstance(x, Ball) else Ball(x)


def hull(a: Ball, b: Ball) -> Ball:
    """The smallest ball holding both: from ln / ld up to hn / hd."""
    ln, ld = (a.c - a.r, a.d) if (a.c - a.r) * b.d <= (b.c - b.r) * a.d else (b.c - b.r, b.d)
    hn, hd = (a.c + a.r, a.d) if (a.c + a.r) * b.d >= (b.c + b.r) * a.d else (b.c + b.r, b.d)
    return _ball(ln * hd + hn * ld, hn * ld - ln * hd, 2 * ld * hd)


def divide(x: "Ball | Rational", y: "Ball | Rational") -> Ball:
    """Interval quotient; the divisor interval must exclude zero."""
    xb, yb = as_ball(x), as_ball(y)
    q = _quotient(xb.c, xb.r, xb.d, yb.c, yb.r, yb.d)
    if q is None:
        raise (DomainError("division by zero") if yb.r == 0
               else PrecisionError("divisor interval contains zero"))
    return _ball(*q)


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
    return _snap(x.c, x.r, x.d, bits)


def _snap(c: int, r: int, d: int, bits: int) -> Ball:
    """The integer ball (c +/- r) / d, d > 0, r >= 0, on the 2^-bits grid: the center
    rounds to nearest (halves up), the radius grows by that and rounds up.
    A d = 2^k takes a shift by k - bits, bit for bit the division."""
    if d & (d - 1):
        s = ((c << (bits + 1)) + d) // (2 * d)
        rup = -(-((r << bits) + abs((c << bits) - s * d)) // d)
        return _ball(s, rup, 1 << bits)
    k = d.bit_length() - 1 - bits
    if k <= 0:
        return _ball(c << -k, r << -k, 1 << bits)
    s = (c + (1 << (k - 1))) >> k
    return _ball(s, -(-(r + abs(c - (s << k))) >> k), 1 << bits)
