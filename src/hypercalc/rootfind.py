"""Bracketed scalar root finding over Ball-valued increasing functions.

`brent` drives an increasing function f(x, tol) -> Ball (an enclosure of
f(x) with radius <= tol) to a root enclosure of width <= 2 * x-tolerance.
Probe signs are resolved rigorously: a sign is accepted only from a ball
that excludes zero or is exact, and a ball that is exactly zero is an exact
root.  A ball that straddles zero is re-evaluated at a tolerance sized from
that ball (see `_sign`) before the probe is declared ambiguous.
`brent` moves an ambiguous probe by 1/1024 of the bracket, as it may sit
exactly on the root; one on an end not yet certified raises AmbiguityError,
as no probe beyond the bracket can certify that end.

Because f increases, the search is two endpoints: the root lies in [a, b],
a probe certified negative moves a up to it, and one certified positive
moves b down to it.  Every probe lies in [a, b], so each step goes toward
the root, and the answer rests only on the two certified ends.  At first
the ends are the given bracket's, not yet certified; a probe at an
uncertified end whose sign puts the root outside the bracket raises
DomainError.  So a good start never evaluates f far from the root.

f may answer a bare rational in place of a ball where it can only bound
f(x) (`hyperops._capped`, past the magnitude cap): its sign is the probe's
sign, and it is no enclosure.

Given a slope, the search first takes interval-Newton steps from the start
(Moore, Kearfott & Cloud, Introduction to Interval Analysis, SIAM 2009,
ch. 8; Krawczyk, Computing 4, 1969).  slope(X, t) must return a ball D
holding f' over the whole ball X.  X starts as the start +/- 2^-46
max(1, |start|), inside the bracket, on the grid 2^-s, s = max(bits, 46) + 8.
A step takes f at a point m of X (the start, then X's midpoint) through
`_sign`, and forms N(X) = m - f(m) / D, rounded out onto the grid.  When
N(X) lies strictly inside X, X holds a root, and every root in X lies in
N(X); X becomes N(X), which is then N(X) ∩ X.  That containment is the only
proof of a root the steps use.  A step stops them, and the probe loop
below starts over from the start, unchanged, when its N(X) is not strictly
inside X or not at most half as wide, when f(m) is a bound, not a ball,
when its sign stays ambiguous, or when D is missing or not positive.  The
steps take at most `MAX_ITERATIONS` probes, and end once the width is <= 2
tol.  N's width is at most 2 rad(f(m)) / lo(D) + |X| rad(D) /
lo(D), so f is asked at lo(D) / 2 times max(tol, |X| rad(D) / lo(D)), and D
is taken again, over the new X, only while |X| rad(D) / lo(D) > tol.  D's
roundings are asked at 2^-50, or finer when both |X| and tol / |X| are:
then the second term falls quadratically from step to step.

Without a slope or a start, or after a step that fails, a probe loop
searches.  In `hyperops` that is a super-root of a fractional order >= 1,
which has no slope, and an integer order whose steps fail, such as one of
a goal so close to 1 that its float start sits on the bracket's end; the
steps certify every search of the benchmark's workloads.  The loop takes
Newton-type steps.  It starts at the caller's estimate of
the root, or at the bracket's midpoint, and then steps x <- x - c/s, with c
the certified center of f at the last probe and s the secant slope through
the last two.  Each probe asks for f 2^-20 below the |f| it expects: a step
expects |s| h, what the closing pair will see, so its center is accurate
enough to step on.  Here h is the largest power of two <= the x-tolerance.
Once the residuals, shrinking at least at their last rate, put the next
point within h/8 of the root, two probes at that point -+ h close the
search.

The steps need no proof.  A Newton step is taken only when it lands
strictly inside (a, b) and is at most half the step before it.  A refused
step is replaced:

  * before both ends are certified, by a step from the last probe, itself
    the certified end, toward the other end: first min(|c|/16, 2^-52 max(1, |x|)),
    as if the slope were 1 and at most a float estimate's error, then
    x4 a step, clamped at that end.  The second probe is such a step.
  * once both are certified, by a split of [a, b]: at the mean of the ends'
    binary exponents when b > 4a > 0, else at the midpoint.  f is steep in
    towers: halving down from a far end probes just above the root, where
    x (+^4) q can have hundreds of thousands of bits.

The closing pair is also taken at a point that rounds onto a certified
end, where a Newton step is refused and a split would crawl down from the
other end.  After a closing pair that does not straddle the root, the
secant through its probes is accurate, so the next Newton step lands
inside [a, b] next to the root.

`expand_upper` and `bisect_integers` search integers only: doubling to a
first bracket, then bisection down to consecutive integers or an exact hit.
They stay apart from `brent`: their probes must be integers and their
answer is an integer bracket, not a ball, so one kernel would branch on
which caller it serves.

A `Bracket` is its two ordered endpoints: the integer searches return
lo = hi on an exact hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .balls import Ball, _ball, _quotient
from .errors import AmbiguityError, ConvergenceError, DomainError
from .midops import _tol_bits, tol_bits

BallFn = Callable[[Fraction, Fraction], "Ball | Fraction"]
SlopeFn = Callable[[Ball, Fraction], "Ball | None"]

_SIGN_ROUNDS = 60
_START_SIGN_TOL = Fraction(1, 1 << 12)
# A probe asks for f this many bits below the |f| its step predicts.
_PROBE_MARGIN = 20
# A start estimate is taken to be good to about a float's 52 bits; so is
# the first step toward an uncertified end.
_ESTIMATE_BITS = 52
# Each later step toward an uncertified end grows by 2^_WIDEN_BITS.
_WIDEN_BITS = 2
# The first interval-Newton ball is the start +/- 2^-_NEWTON_START_BITS
# max(1, |start|); a slope ball is asked for at 2^-_SLOPE_BITS or finer.
_NEWTON_START_BITS = 46
_SLOPE_BITS = 50
# Probes per `brent` search, and bracket doublings per `expand_upper`.
MAX_ITERATIONS = 1000
MAX_EXPANSIONS = 80


@dataclass(frozen=True)
class Bracket:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("bracket endpoints out of order")


@dataclass(frozen=True)
class RootConfig:
    x_tolerance: Fraction

    def __post_init__(self):
        if self.x_tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _sign(f: BallFn, x: Fraction, t: Fraction = _START_SIGN_TOL) -> tuple[int, Fraction]:
    """(sign, center-of-f) at x, evaluating f until the sign is certain;
    sign 0 means exactly zero.

    The query starts at tolerance t (the integer searches start at 2^-12).
    A ball c ± r that straddles zero is asked for again at min(t/4,
    2^-(tol_bits(|c|) + 3)), at most |c|/8, or for c = 0 at min(t/4,
    2^-(tol_bits(r) + 2)), at most r/4.  Probe balls usually come back much
    tighter than asked (`power` snaps at 16 bits below the tolerance), so
    |c| is close to |f(x)| and one re-query at |c|/8 separates the ball from
    zero; a fixed t/4 step would mostly ask again for the ball already in
    hand.  The tolerance only decides how hard f works: a sign is still
    taken only from a ball that excludes zero or is exact, so the rule
    cannot certify a wrong sign.  Every tolerance is a power of two and
    falls by at least 4x per round, even for an f that returns balls wider
    than asked.
    """
    for _ in range(_SIGN_ROUNDS):
        ball = f(x, t)
        if not isinstance(ball, Ball):  # a bound: only its sign is f's
            return (ball > 0) - (ball < 0), Fraction(ball)
        c, r = ball.c, ball.r
        if c > r:
            return 1, ball.center
        if c < -r:
            return -1, ball.center
        if not r:  # c = 0 exactly
            return 0, ball.center
        t = _retry_tol(ball, t)
    raise AmbiguityError(f"cannot resolve the sign of f({x}) — possible exact tie")


def _retry_tol(ball: Ball, t: Fraction) -> Fraction:
    """Next tolerance after `ball`, asked for at t, straddled zero."""
    if ball.c:
        bits = _tol_bits(abs(ball.c), ball.d) + 3
    else:
        bits = _tol_bits(ball.r, ball.d) + 2
    return min(t / 4, Fraction(1, 1 << bits))


def _probe_tol(expect: Fraction) -> Fraction:
    """A power of two 2^-_PROBE_MARGIN below the |f| a probe expects, for
    expect >= 0; the start tolerance when it is 0."""
    if not expect:
        return _START_SIGN_TOL
    return Fraction(1, 1 << (tol_bits(expect) + _PROBE_MARGIN))


def _exponent(x: Fraction) -> int:
    """floor(log2(x)), for x > 0."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    return e if (d << e <= n if e >= 0 else d <= n << -e) else e - 1


def brent(
    f: BallFn,
    bracket: Bracket,
    cfg: RootConfig,
    start: Fraction | float | None = None,
    slope: SlopeFn | None = None,
) -> Ball:
    """Enclose the root of an increasing f inside the bracket.

    f must increase in x on the bracket; a probe that puts the root outside
    it raises DomainError.  Every caller's f does: `hyperops` solves
    x (+^4) q = g, and a tower grows with its base; a fractional q splits
    into integer towers and a super-root, a composition of increasing maps.
    `start` is an estimate of the root (a float is fine); without one the
    search starts at the bracket's midpoint.  `slope(X, t)`, given with a
    start, must return a ball holding f' over the whole ball X (or None),
    each of its roundings within t; the search then first takes
    interval-Newton steps from the start.  Returns a Ball of radius <=
    cfg.x_tolerance containing the root; the ball is exact (radius 0) when a
    probe evaluates to exactly zero.
    """
    tol = cfg.x_tolerance
    if slope is not None and start is not None:
        root = _newton(f, slope, bracket, tol, Fraction(start))
        if root is not None:
            return root
    bits = tol_bits(tol)
    h = Fraction(1, 1 << bits)
    grid = 1 << (bits + 8)  # the Newton point rounds onto multiples of 1/grid
    a, b = bracket.lo, bracket.hi
    a_seen = b_seen = False  # whether f(a) < 0, f(b) > 0 are certified
    last: list[tuple[Fraction, Fraction]] = []  # the last two probes, (x, f's center)
    last_step = None  # the size of the last Newton-type step
    stride = None  # log2 of the size of the last step toward an uncertified end

    def plan() -> list[tuple[Fraction, Fraction]]:
        """The next probes, as (x, the |f| expected there)."""
        nonlocal last_step, stride
        x1, c1 = last[-1]
        previous, last_step = last_step, None
        slope = Fraction(0)  # the secant slope through the last two probes
        if len(last) == 2:
            x0, c0 = last[0]
            slope = (c1 - c0) / (x1 - x0)
        if slope:
            x = Fraction(round((x1 - c1 / slope) * grid), grid)  # halves to even
            step = abs(c1 / slope)
            # each step must at most halve the one before it, unless the
            # last probe was of another kind
            if a <= x <= b and (previous is None or 2 * step <= previous):
                expect = abs(slope) * h
                # the residual at x if the residuals keep shrinking at least
                # at their last rate, small^2 / large of |c0|, |c1|; within
                # h/8 of the root, close, even at a certified end
                small, large = sorted((abs(c0), abs(c1)))
                if 8 * small * small <= expect * large:
                    return [(min(max(p, a), b), expect) for p in (x - h, x + h)]
                if a < x < b:
                    last_step = step
                    return [(x, expect)]
        if not (a_seen and b_seen):
            # x1 is the certified end, so the root lies toward the other one:
            # first min(|c1| / 16, max(1, |x1|) 2^-_ESTIMATE_BITS), rounded
            # down to a power of two, then _WIDEN_BITS bits more each time
            if stride is None:
                whole = _exponent(abs(x1)) if abs(x1) > 1 else 0
                stride = min(_exponent(abs(c1)) - 4, whole - _ESTIMATE_BITS)
            else:
                stride += _WIDEN_BITS
            step = Fraction(2) ** stride
            return [(min(x1 + step, b) if c1 < 0 else max(x1 - step, a), abs(c1))]
        if b > 4 * a > 0:
            x = Fraction(2) ** ((_exponent(a) + _exponent(b)) // 2)
        else:
            x = (a + b) / 2
        return [(x, abs(slope) * (x - a) / 2)]

    x = (a + b) / 2 if start is None else min(max(Fraction(start), a), b)
    queue = [(x, Fraction(max(1, abs(x)), 1 << _ESTIMATE_BITS))]
    for _ in range(MAX_ITERATIONS):
        while not queue:
            queue = plan()
        x, expect = queue.pop(0)
        if (a_seen and x <= a) or (b_seen and x >= b):
            continue  # its sign follows from a certified end
        ft = _probe_tol(expect)
        try:
            s, c = _sign(f, x, ft)
        except AmbiguityError:
            if (x == a and not a_seen) or (x == b and not b_seen):
                raise AmbiguityError(f"cannot resolve the sign of f at the bracket's end"
                                     f" {x}; the root may sit exactly on it") from None
            # the probe may sit exactly on the root; nudge once before giving up
            nudge = (b - a) / 1024
            x = x + nudge if x + nudge <= b else x - nudge
            s, c = _sign(f, x, ft)
        if s == 0:
            return Ball(x)
        if x == (b if s < 0 else a):
            raise DomainError("bracket does not straddle a sign change")
        if s < 0:
            a, a_seen = x, True
        else:
            b, b_seen = x, True
        last = [*last[-1:], (x, c)]
        if a_seen and b_seen and b - a <= 2 * tol:
            return Ball((a + b) / 2, (b - a) / 2)
    raise ConvergenceError("root finder exceeded its iteration budget")


def _newton(f: BallFn, slope: SlopeFn, bracket: Bracket, tol: Fraction,
            x: Fraction) -> Ball | None:
    """The root's enclosure by interval-Newton steps from the estimate x, or
    None when a step fails (see the module docstring).  X is [L, U] / 2^s
    and m is M / 2^s."""
    tn, td = tol.numerator, tol.denominator
    bits = tol_bits(tol)
    s = max(bits, _NEWTON_START_BITS) + 8
    one = 1 << s
    M = round(x * one)
    w = max(one, abs(M)) >> _NEWTON_START_BITS
    L = max(M - w, math.ceil(bracket.lo * one))
    U = min(M + w, math.floor(bracket.hi * one))
    if not L < M < U:
        return None
    D = value = None

    def seen(x: Fraction, t: Fraction):
        """f, keeping the answer `_sign` decides on."""
        nonlocal value
        value = f(x, t)
        return value

    for _ in range(MAX_ITERATIONS):
        # |X| rad(D) / lo(D): N's width beyond the part f's tolerance adds
        if D is None or (U - L) * D.r * td > tn * (D.c - D.r) * one:
            # finer than 2^-_SLOPE_BITS only when neither |X| nor tol / |X| is
            # coarser, so that the next |X| rad(D) / lo(D) falls quadratically
            width = s - (U - L).bit_length()
            D = slope(_ball(L + U, U - L, 2 * one),
                      Fraction(1, 1 << max(_SLOPE_BITS, min(width, bits - width))))
            if D is None or D.c <= D.r:
                return None
        lo_D = D.c - D.r
        # aim N's width at max(tol, |X| rad(D) / lo(D)), half of it from f's radius
        ft = Fraction(1, 1 << _tol_bits(max(tn * lo_D * one, (U - L) * D.r * td),
                                        2 * td * D.d * one))
        try:
            sign, _ = _sign(seen, Fraction(M, one), ft)
        except AmbiguityError:
            return None
        if not isinstance(value, Ball):
            return None
        if not sign:
            return _ball(M, 0, one)
        qc, qr, qd = _quotient(value.c, value.r, value.d, D.c, D.r, D.d)
        NL = (M * qd - ((qc + qr) << s)) // qd
        NU = -((((qc - qr) << s) - M * qd) // qd)
        if not (L < NL and NU < U and 2 * (NU - NL) <= U - L):
            return None
        L, U = NL, NU
        if (U - L) * td <= 2 * tn * one:
            return _ball(L + U, U - L, 2 * one)
        M = (L + U) >> 1
    return None


def expand_upper(f: BallFn, target: Fraction) -> Bracket:
    """First doubling bracket [m_prev, m] with f(m) > target >= f(m_prev).

    For an increasing unbounded f with f(0) <= target; m runs 1, 2, 4, 8...
    A probe with f(m) exactly equal to the target returns the degenerate
    bracket [m, m].
    """
    prev = Fraction(0)
    m = Fraction(1)
    for _ in range(MAX_EXPANSIONS):
        s, _ = _sign(lambda x, t: f(x, t) - target, m)
        if s == 0:
            return Bracket(m, m)
        if s > 0:
            return Bracket(prev, m)
        prev = m
        m *= 2
    raise ConvergenceError(f"no upper bracket within {MAX_EXPANSIONS} doublings")


def bisect_integers(f: BallFn, bracket: Bracket) -> Bracket:
    """Narrow an integer-ended bracket of an increasing f to consecutive
    integers [n, n + 1], probing integers only.

    A probe with f(n) exactly zero returns the degenerate bracket [n, n];
    a degenerate bracket is returned as it is.
    """
    lo, hi = bracket.lo, bracket.hi
    while hi - lo > 1:
        mid = Fraction((lo + hi) // 2)
        s, _ = _sign(f, mid)
        if s == 0:
            return Bracket(mid, mid)
        if s < 0:
            lo = mid
        else:
            hi = mid
    return Bracket(lo, hi)
