"""Bracketed scalar root finding over Ball-valued functions.

`brent` drives a function f(x, tol) -> Ball (an enclosure of f(x) with
radius <= tol) to a root enclosure of width <= 2 * x-tolerance.  Probe signs
are resolved rigorously: a sign is accepted only from a ball that excludes
zero or is exact, and a ball that is exactly zero is an exact root.  A ball
that straddles zero is re-evaluated at a tolerance sized from that ball
(see `_SignResolver`) before the probe is declared ambiguous.

The search takes Newton-type steps.  It starts at the caller's estimate of
the root, or at the bracket's midpoint, probes once more beside it (|c|/16
away, as if the slope were 1), and then steps x <- x - c/s, with c the
certified center of f at the last probe and s the secant slope through the
last two.  Each probe asks for f 2^-20 below the |f| it expects: a step
expects |s| h, what the closing pair will see, so its center is accurate
enough to step on.  Here h is the largest power of two <= the x-tolerance.
Once the residuals, shrinking at least at their last rate, put the next
point within h/8 of the root, two probes at that point -+ h close the
search.

The steps need no proof: the answer rests only on the certified bracket,
the closest pair of probes whose signs differ.  A step is refused when it
would leave that bracket (or, before any sign change, the given one), or
when it is more than half the step before it.  A refused step is a
bisection of the certified bracket; with no sign change yet, a pair of
probes instead widens geometrically (x4) around the last point until one
certifies.  A closing pair that does not straddle the root is followed by
a step inside the certified bracket, or, with no sign change yet, by the
same widening.  The given bracket only bounds the probes: its ends are
probed only when a widening reaches them, so a good start never evaluates f
far from the root.

`expand_upper` and `bisect_integers` search integers only: doubling to a
first bracket, then bisection down to consecutive integers or an exact hit.

A `Bracket` is its two ordered endpoints: the integer searches return
lo = hi on an exact hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .balls import Ball
from .errors import AmbiguityError, ConvergenceError, DomainError
from .midops import tol_bits

BallFn = Callable[[Fraction, Fraction], Ball]

_SIGN_ROUNDS = 60
_START_SIGN_TOL = Fraction(1, 1 << 12)
# A probe asks for f this many bits below the |f| its step predicts.
_PROBE_MARGIN = 20
# A start estimate is taken to be good to about a float's 52 bits.
_ESTIMATE_BITS = 52
# A widening pair's half-width grows by this factor a round.
_WIDEN = 4
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


class _SignResolver:
    """Evaluates f at probes, tightening tolerance until the sign is certain.

    A query starts at the tolerance its caller passes to `at` (the integer
    searches call the resolver directly and start at 2^-12).  A ball c ± r
    that straddles zero is asked for again at min(t/4, 2^-(tol_bits(|c|) +
    3)), at most |c|/8, or for c = 0 at min(t/4, 2^-(tol_bits(r) + 2)), at
    most r/4.  Probe balls usually come back much tighter than asked
    (`power` snaps at 16 bits below the tolerance), so |c| is close to
    |f(x)| and one re-query at |c|/8 separates the ball from zero; a fixed
    t/4 step would mostly ask again for the ball already in hand.  The
    tolerance only decides how hard f works: a sign is still taken only from
    a ball that excludes zero or is exact, so the rule cannot certify a
    wrong sign.  Every tolerance is a power of two and falls by at least 4x
    per round, even for an f that returns balls wider than asked.
    """

    def __init__(self, f: BallFn):
        self.f = f
        self.tol = _START_SIGN_TOL

    def at(self, x: Fraction, tol: Fraction) -> tuple[int, Fraction]:
        """The query at x, starting at tolerance tol."""
        self.tol = tol
        return self(x)

    def __call__(self, x: Fraction) -> tuple[int, Fraction]:
        """(sign, center-of-f) at x; sign 0 means exactly zero."""
        t = self.tol
        for _ in range(_SIGN_ROUNDS):
            ball = self.f(x, t)
            if ball.is_exact:
                if ball.center == 0:
                    return 0, ball.center
                return (1 if ball.center > 0 else -1), ball.center
            if ball.lo > 0:
                return 1, ball.center
            if ball.hi < 0:
                return -1, ball.center
            t = _retry_tol(ball, t)
        raise AmbiguityError(f"cannot resolve the sign of f({x}) — possible exact tie")


def _retry_tol(ball: Ball, t: Fraction) -> Fraction:
    """Next tolerance after `ball`, asked for at t, straddled zero."""
    if ball.center:
        bits = tol_bits(abs(ball.center)) + 3
    else:
        bits = tol_bits(ball.radius) + 2
    return min(t / 4, Fraction(1, 1 << bits))


def _probe_tol(expect: Fraction | None) -> Fraction:
    """A power of two 2^-_PROBE_MARGIN below the |f| a probe expects."""
    if not expect:
        return _START_SIGN_TOL
    return Fraction(1, 1 << (tol_bits(expect) + _PROBE_MARGIN))


def _power_of_two_below(v: Fraction) -> Fraction:
    """The largest power of two <= v, for v > 0."""
    p = Fraction(2) ** (v.numerator.bit_length() - v.denominator.bit_length())
    return p if p <= v else p / 2


def _sign_change(signs: dict[Fraction, int]) -> tuple[Fraction, Fraction] | None:
    """The closest pair of probes whose certified signs differ."""
    xs = sorted(signs)
    for a, b in zip(xs, xs[1:]):
        if signs[a] != signs[b]:
            return a, b
    return None


def brent(
    f: BallFn,
    bracket: Bracket,
    cfg: RootConfig,
    start: Fraction | float | None = None,
) -> Ball:
    """Enclose the unique root of a sign-changing f inside the bracket.

    `start` is an estimate of the root (a float is fine); without one the
    search starts at the bracket's midpoint.  Returns a Ball of radius <=
    cfg.x_tolerance containing the root; the ball is exact (radius 0) when a
    probe evaluates to exactly zero.
    """
    tol = cfg.x_tolerance
    bits = tol_bits(tol)
    h = Fraction(1, 1 << bits)  # the closing pair's half-width
    grid = 1 << (bits + 8)  # steps are rounded to multiples of 1/grid
    lo, hi = bracket.lo, bracket.hi
    resolve = _SignResolver(f)
    signs: dict[Fraction, int] = {}
    last: list[tuple[Fraction, Fraction]] = []  # the last two probes, (x, center)
    sides: tuple[Fraction, Fraction] | None = None  # the certified bracket
    center = w = None  # the probe pair being widened, and its half-width
    last_step = None  # the size of the last Newton-type step

    def pair(scale):
        # probes at center -+ w, clamped to the given bracket; known points
        # are skipped, and with no sign change yet the pair widens past them
        nonlocal w
        while True:
            points = sorted({min(max(center + k * w, lo), hi) for k in (-1, 1)})
            fresh = [(p, scale * w or None) for p in points if p not in signs]
            if fresh or sides is not None:
                return fresh
            if center - w <= lo and center + w >= hi:
                raise DomainError("bracket does not straddle a sign change")
            w *= _WIDEN

    def plan():
        nonlocal center, w, last_step
        x1, c1 = last[-1]
        if len(last) == 1:
            # a second probe beside the first gives the first slope; at
            # |c|/16 or less, as if the slope were 1, the difference of the
            # two centers stays far above their error
            d = _power_of_two_below(abs(c1) / 16)
            x2 = x1 + d if x1 + d <= hi else x1 - d
            if x2 >= lo:
                return [(x2, abs(c1))]
            center, w = x1, d
            return pair(0)
        x0, c0 = last[0]
        slope = (c1 - c0) / (x1 - x0)
        if sides is None and center is not None:
            w *= _WIDEN
            return pair(abs(slope))
        center, previous, last_step = None, last_step, None
        if slope:
            step = c1 / slope
            x = Fraction(round((x1 - step) * grid), grid)
            inside = lo <= x <= hi if sides is None else sides[0] < x < sides[1]
            # each step must at most halve the one before it, unless the
            # last probe was of another kind
            shrinks = previous is None or abs(step) <= previous / 2
            if inside and shrinks and x not in signs:
                # the residual at x if the residuals keep shrinking at least
                # at their last rate; within h/8 of the root, close
                small, large = sorted((abs(c0), abs(c1)))
                if small * small / large > abs(slope) * h / 8:
                    last_step = abs(step)
                    return [(x, abs(slope) * h)]
                center, w = x, h
                closing = pair(abs(slope))
                if closing:
                    return closing
                center = None  # both known: the root lies elsewhere
        if sides is not None:
            width = sides[1] - sides[0]
            return [(sides[0] + width / 2, abs(slope) * width / 4)]
        center, w = x1, _WIDEN * abs(x1 - x0)
        return pair(abs(slope))

    x = lo + (hi - lo) / 2 if start is None else min(max(Fraction(start), lo), hi)
    queue = [(x, Fraction(max(1, abs(x))) / (1 << _ESTIMATE_BITS))]
    for _ in range(MAX_ITERATIONS):
        while not queue:
            queue = plan()
        x, expect = queue.pop(0)
        if x in signs or (sides is not None and not sides[0] < x < sides[1]):
            continue  # already known, or its sign follows from the bracket
        try:
            s, c = resolve.at(x, _probe_tol(expect))
        except AmbiguityError:
            # the probe may sit exactly on the root; nudge once before giving up
            a, b = sides or (lo, hi)
            x = x + (b - a) / 1024 if x + (b - a) / 1024 <= b else x - (b - a) / 1024
            s, c = resolve.at(x, _probe_tol(expect))
        if s == 0:
            return Ball(x)
        signs[x] = s
        last = [*last[-1:], (x, c)]
        sides = _sign_change(signs)
        if sides is not None and sides[1] - sides[0] <= 2 * tol:
            half = (sides[1] - sides[0]) / 2
            return Ball(sides[0] + half, half)
    raise ConvergenceError("root finder exceeded its iteration budget")


def expand_upper(f: BallFn, target: Fraction) -> Bracket:
    """First doubling bracket [m_prev, m] with f(m) > target >= f(m_prev).

    For an increasing unbounded f with f(0) <= target; m runs 1, 2, 4, 8...
    A probe with f(m) exactly equal to the target returns the degenerate
    bracket [m, m].
    """
    resolve = _SignResolver(lambda x, t: f(x, t) - target)
    prev = Fraction(0)
    m = Fraction(1)
    for _ in range(MAX_EXPANSIONS):
        s, _ = resolve(m)
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
    resolve = _SignResolver(f)
    lo, hi = bracket.lo, bracket.hi
    while hi - lo > 1:
        mid = Fraction((lo + hi) // 2)
        s, _ = resolve(mid)
        if s == 0:
            return Bracket(mid, mid)
        if s < 0:
            lo = mid
        else:
            hi = mid
    return Bracket(lo, hi)
