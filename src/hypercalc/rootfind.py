"""Bracketed scalar root finding over Ball-valued increasing functions.

`brent` drives an increasing function f(x, tol) -> Ball (an enclosure of
f(x) with radius <= tol) to a root enclosure of width <= 2 * x-tolerance.
A probe's sign is accepted only from a ball that excludes zero or is exact,
and a ball that is exactly zero is an exact root; a ball that straddles
zero is asked for again (see `_sign`).  A probe that stays ambiguous is
moved once by 1/1024 of X (below), as it may sit exactly on the root.  As f
increases, a probe certified negative puts the root above it and one
certified positive below it, so every probe lies between the ends certified
so far.  f may answer a bare rational where it can only bound f(x)
(`hyperops._capped`): its sign is the probe's, and it is no enclosure.

The search is one interval-Newton loop, `_steps` (Moore, Kearfott &
Cloud, Introduction to Interval Analysis, SIAM 2009, ch. 8; Krawczyk,
Computing 4, 1969), on a ball X = [L, U] / 2^s, s = max(bits, 46) + 8.
slope(X, t, m) must return a ball D holding f' over all of X.  A step
takes f at a point m of X through `_sign` and forms N(X) = m - f(m) / D,
rounded out onto the grid; every root in X lies in N(X).  A step asks for
D before it takes f at m, and names m, so one pass over f's work at m can
give both (`hyperops` takes a tower and its slope so).  `brent` runs it
in two phases, from the estimate with `local`, then on the bracket:

  * From the estimate: X is the start +/- 2^-46 max(1, |start|), inside
    the bracket, and m the start.  When N(X) lies strictly inside X and is
    at most half as wide, X holds a root and becomes N(X): the only proof
    of a root from an estimate, which certifies both of X's ends.  When the
    step fails (N(X) is not, f(m) is a bound or stays ambiguous, D is
    missing or not positive), the loop starts again on the bracket.
  * On the bracket, after that step fails or at once without a start or a
    slope: X is the caller's bracket, rounded out onto the grid.  m is the
    start at the first step when it lies strictly inside X, then X's
    midpoint, or the mean of its ends' binary exponents when b > 4a > 0
    (halving down from a far end of a tower's bracket probes where x (+^4)
    q has hundreds of thousands of bits).  X keeps the half that f(m)'s
    sign allows, within N(X) when D has lo(D) > 0 and f(m) is a ball.  So
    each step at least halves X, and N(X) shrinks it quadratically near the
    root; without a slope it is a bisection.  It ends once X is at most 2
    tol wide.  An empty N(X) within X proves that X, and so the bracket,
    holds no root: DomainError.

The bracket's ends are checked lazily: once the loop has ended, an end is
probed only if no probe certified f's sign on its side and no N(X) moved
it, which proves that sign: N(X) holds every root in X, and when f(U) < 0
it reaches past U, as then |f(m)| >= lo(D) (U - m) + |f(U)|.  f exactly
zero at an end is the exact root, the wrong sign (the root lies
outside the bracket) raises DomainError, and a sign that stays ambiguous
raises AmbiguityError, as the root may sit exactly on that end.

Each phase takes at most `MAX_ITERATIONS` probes.  N's width is at most
2 rad(f(m)) / lo(D) + |X| rad(D) / lo(D): so f is asked at lo(D) / 2 times
max(tol, |X| rad(D) / lo(D)), and D again, over the current X, only while
|X| rad(D) / lo(D) > tol, at 2^-50, or finer when both |X| and tol / |X|
are, so that the second term falls quadratically.  Without D, f is asked
at 1/8 of the last probe's |f|, times tol at the bracket's end, which may
sit within tol of the root.

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
from collections.abc import Callable
from fractions import Fraction

from .balls import Ball, _ball, _quotient
from .errors import AmbiguityError, ConvergenceError, DomainError
from .midops import _tol_bits, tol_bits
from .records import Record, _set

BallFn = Callable[[Fraction, Fraction], "Ball | Fraction"]
SlopeFn = Callable[[Ball, Fraction, Fraction], "Ball | None"]

_SIGN_ROUNDS = 60
_START_SIGN_TOL = Fraction(1, 1 << 12)
# The first interval-Newton ball is the start +/- 2^-_NEWTON_START_BITS
# max(1, |start|); a slope ball is asked for at 2^-_SLOPE_BITS or finer.
_NEWTON_START_BITS = 46
_SLOPE_BITS = 50
# Probes per `brent` search, and bracket doublings per `expand_upper`.
MAX_ITERATIONS = 1000
MAX_EXPANSIONS = 80


class Bracket(Record):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("bracket endpoints out of order")
        _set(self, "lo", lo)
        _set(self, "hi", hi)


class RootConfig(Record):
    __slots__ = ("x_tolerance",)

    def __init__(self, x_tolerance: Fraction):
        if x_tolerance <= 0:
            raise ValueError("tolerance must be positive")
        _set(self, "x_tolerance", x_tolerance)


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


def brent(
    f: BallFn,
    bracket: Bracket,
    cfg: RootConfig,
    start: Fraction | float | None = None,
    slope: SlopeFn | None = None,
) -> Ball:
    """Enclose the root of an increasing f inside the bracket.

    f must increase in x on the bracket; a bracket that holds no root raises
    DomainError.  Every caller's f does: `hyperops` solves x (+^4) q = g,
    and a tower grows with its base; a fractional q splits into integer
    towers and a super-root, a composition of increasing maps.  `start` is
    an estimate of the root (a float is fine).  `slope(X, t, m)` must return
    a ball holding f' over the whole ball X (or None), each of its roundings
    within t; m is the point of X that the step probes next.  Given both,
    `_steps` runs from the start with `local`, an interval-Newton step on a
    ball around it; when that fails, or without them, `_steps` runs on the
    bracket, from the start when it lies inside.  A call without a slope is
    a certified bisection, bounded by `MAX_ITERATIONS` probes.  Returns a
    Ball of radius <= cfg.x_tolerance containing the root, exact (radius 0)
    when a probe evaluates to exactly zero.
    """
    tol = cfg.x_tolerance
    start = None if start is None else Fraction(start)
    if slope is not None and start is not None:
        root = _steps(f, slope, tol, bracket.lo, bracket.hi, start, local=True)
        if root is not None:
            return root
    return _steps(f, slope, tol, bracket.lo, bracket.hi, start)


def _eighth(c: Fraction) -> Fraction:
    """A power of two at most |c| / 8, c != 0: asked after a probe of f = c."""
    return Fraction(1, 1 << (_tol_bits(abs(c.numerator), c.denominator) + 3))


def _steps(f: BallFn, slope: SlopeFn | None, tol: Fraction, a: Fraction, b: Fraction,
           x: Fraction | None = None, local: bool = False) -> Ball | None:
    """Interval-Newton steps on X = [a, b], first at x when it lies inside,
    and then a probe of each end no probe certified; or, local, on X = x +/-
    2^-46 max(1, |x|) within [a, b], not yet known to hold a root, returning
    None when that first step fails.  X is [L, U] / 2^s and m is M / 2^s."""
    bits, tn, td = tol_bits(tol), tol.numerator, tol.denominator
    s = max(bits, _NEWTON_START_BITS) + 8
    one = 1 << s
    M = None if x is None else round(x * one)
    if local:
        w = max(one, abs(M)) >> _NEWTON_START_BITS
        L, U = max(M - w, math.ceil(a * one)), min(M + w, math.floor(b * one))
    else:
        L, U = math.floor(a * one), math.ceil(b * one)
    if M is not None and not L < M < U:
        if local:
            return None
        M = None
    D = value = c = None
    t = _START_SIGN_TOL
    signs = set()  # the signs of f that probes certified

    def seen(x: Fraction, t: Fraction):  # f, keeping the answer `_sign` decides on
        nonlocal value
        value = f(x, t)
        return value

    probes = 0
    while local or (U - L) * td > 2 * tn * one:
        if probes == MAX_ITERATIONS:
            raise ConvergenceError("root finder exceeded its iteration budget")
        probes += 1
        if M is None:
            M = 1 << ((L.bit_length() + U.bit_length()) // 2 - 1) if U > 4 * L > 0 else (L + U) >> 1
        m = Fraction(M, one)
        # |X| rad(D) / lo(D): N's width beyond the part f's tolerance adds
        if slope is not None and (D is None or (U - L) * D.r * td > tn * (D.c - D.r) * one):
            # finer than 2^-_SLOPE_BITS only when neither |X| nor tol / |X| is
            # coarser, so that the next |X| rad(D) / lo(D) falls quadratically
            width = s - (U - L).bit_length()
            D = slope(_ball(L + U, U - L, 2 * one),
                      Fraction(1, 1 << max(_SLOPE_BITS, min(width, bits - width))), m)
            if D is not None and D.c <= D.r:
                D = None
        if D is not None:
            # aim N's width at max(tol, |X| rad(D) / lo(D)), half of it from f's radius
            t = Fraction(1, 1 << _tol_bits(max(tn * (D.c - D.r) * one, (U - L) * D.r * td),
                                           2 * td * D.d * one))
        elif local:
            return None
        elif c is not None:
            t = _eighth(c)
        try:
            sign, c = _sign(seen, m, t)
        except AmbiguityError:
            if local:
                return None
            # m may sit exactly on the root; nudge it once, by 1/1024 of X
            nudge = max((U - L) >> 10, 1)
            M += nudge if M + nudge < U else -nudge
            sign, c = _sign(seen, Fraction(M, one), t)
        if not sign:
            return _ball(M, 0, one)
        NL, NU = L, U  # N(X), or X without D or with a bound for f(m)
        if D is not None and isinstance(value, Ball):
            qc, qr, qd = _quotient(value.c, value.r, value.d, D.c, D.r, D.d)
            NL = (M * qd - ((qc + qr) << s)) // qd
            NU = -((((qc - qr) << s) - M * qd) // qd)
        if not local:  # the half f(m)'s sign allows, within N(X)
            # f(m)'s sign, and that of each side whose end N(X) moved
            signs.update((sign, -1 if NL > L else sign, 1 if NU < U else sign))
            L, U = (max(M, NL), min(U, NU)) if sign < 0 else (max(L, NL), min(M, NU))
            if L > U:  # X holds no root, and so neither does the bracket
                raise DomainError("bracket does not straddle a sign change")
        elif L < NL and NU < U and 2 * (NU - NL) <= U - L:
            L, U, local, signs = NL, NU, False, {-1, 1}
        else:
            return None
        M = None
    for end, want in ((a, -1), (b, 1)):  # an end no probe certified
        if want in signs:
            continue
        try:
            sign, c = _sign(f, end, _START_SIGN_TOL if c is None else _eighth(c * tol))
        except AmbiguityError:
            raise AmbiguityError(f"cannot resolve the sign of f at the bracket's end"
                                 f" {end}; the root may sit exactly on it") from None
        if not sign:
            return Ball(end)
        if sign != want:
            raise DomainError("bracket does not straddle a sign change")
    return _ball(L + U, U - L, 2 * one)


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
