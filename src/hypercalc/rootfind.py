"""Bracketed scalar root finding over Ball-valued functions.

`brent` drives a function f(x, tol) -> Ball (an enclosure of f(x) with
radius <= tol) to a root enclosure of width <= 2 * x-tolerance.  Probe signs
are resolved rigorously: a sign is accepted only from a ball that excludes
zero or is exact, and a ball that is exactly zero is an exact root.  A ball
that straddles zero is re-evaluated at a tolerance sized from that ball
(see `_SignResolver`) before the probe is declared ambiguous.

Probes are secant / inverse-quadratic candidates with a bisection fallback
that guarantees the bracket at least halves every two iterations.
Candidates are snapped onto a dyadic grid a few bits below the tolerance —
still exact rationals strictly inside the bracket — so coordinate
representations cannot balloon over many iterations.

`expand_upper` and `bisect_integers` search integers only: doubling to a
first bracket, then bisection down to consecutive integers or an exact hit.

A `Bracket` is its two ordered endpoints: `brent` resolves f's sign at both
itself, and the integer searches return lo = hi on an exact hit.
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

    A ball c ± r that straddles zero is asked for again at
    min(t/4, 2^-(tol_bits(|c|) + 3)), at most |c|/8, or for c = 0 at
    min(t/4, 2^-(tol_bits(r) + 2)), at most r/4.  Probe balls usually come
    back much tighter than asked (`power` snaps at 16 bits below the
    tolerance), so |c| is close to |f(x)| and one re-query at |c|/8
    separates the ball from zero; a fixed t/4 step would mostly ask again
    for the ball already in hand.  The tolerance only decides how hard f
    works: a sign is still taken only from a ball that excludes zero or is
    exact, so the rule cannot certify a wrong sign.  Every tolerance is a
    power of two and falls by at least 4x per round, even for an f that
    returns balls wider than asked; the last one that resolved a sign
    starts the next query.
    """

    def __init__(self, f: BallFn, start_tol: Fraction = _START_SIGN_TOL):
        self.f = f
        self.tol = start_tol

    def __call__(self, x: Fraction) -> tuple[int, Fraction]:
        """(sign, center-of-f) at x; sign 0 means exactly zero."""
        t = self.tol
        for _ in range(_SIGN_ROUNDS):
            ball = self.f(x, t)
            if ball.is_exact:
                self.tol = t
                if ball.center == 0:
                    return 0, ball.center
                return (1 if ball.center > 0 else -1), ball.center
            if ball.lo > 0:
                self.tol = t
                return 1, ball.center
            if ball.hi < 0:
                self.tol = t
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


def _snap_interior(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Snap x onto a dyadic grid a little finer than the bracket width,
    staying strictly inside (lo, hi).

    Interpolation candidates are exact rationals whose representations
    compound across iterations; snapping caps every probe's size at about
    the bracket's resolution plus a few bits.
    """
    width = hi - lo
    bits = tol_bits(width) + 12
    q = Fraction(1, 1 << bits)
    snapped = Fraction(round(x / q)) * q
    if lo < snapped < hi:
        return snapped
    if lo < x < hi and x.denominator.bit_length() <= bits + 64:
        return x
    return lo + width / 2


def brent(f: BallFn, bracket: Bracket, cfg: RootConfig) -> Ball:
    """Enclose the unique root of a sign-changing f inside the bracket.

    Returns a Ball of radius <= cfg.x_tolerance containing the root; the
    ball is exact (radius 0) when a probe evaluates to exactly zero.
    """
    tol = cfg.x_tolerance
    resolve = _SignResolver(f)
    lo, hi = bracket.lo, bracket.hi
    slo, flo = resolve(lo)
    if slo == 0:
        return Ball(lo)
    shi, fhi = resolve(hi)
    if shi == 0:
        return Ball(hi)
    if slo == shi:
        raise DomainError("bracket does not straddle a sign change")

    prev_x, prev_f = None, None  # replaced endpoint, for inverse-quadratic steps
    must_bisect = False
    evals = 2
    while evals < MAX_ITERATIONS:
        width = hi - lo
        if width <= 2 * tol:
            return Ball(lo + width / 2, width / 2)
        x = None
        if not must_bisect:
            x = _candidate(lo, flo, hi, fhi, prev_x, prev_f)
        if x is None:
            x = lo + width / 2
        x = _snap_interior(x, lo, hi)
        try:
            s, fx = resolve(x)
        except AmbiguityError:
            # the probe may sit exactly on the root; nudge once before giving up
            x = _snap_interior(x + width / 1024, lo, hi)
            s, fx = resolve(x)
        evals += 1
        if s == 0:
            return Ball(x)
        if s == slo:
            prev_x, prev_f = lo, flo
            lo, flo = x, fx
        else:
            prev_x, prev_f = hi, fhi
            hi, fhi = x, fx
        # force at least bisection-rate progress: if an interpolation step
        # failed to halve the bracket, the next step bisects
        must_bisect = (hi - lo) > width / 2
    raise ConvergenceError("root finder exceeded its iteration budget")


def _candidate(
    lo: Fraction,
    flo: Fraction,
    hi: Fraction,
    fhi: Fraction,
    prev_x: Fraction | None,
    prev_f: Fraction | None,
) -> Fraction | None:
    """Inverse-quadratic or secant candidate strictly inside (lo, hi)."""
    if flo == fhi:
        return None
    x = None
    if (
        prev_x is not None
        and prev_f not in (flo, fhi)
        and prev_x not in (lo, hi)
    ):
        # inverse quadratic interpolation through the three points
        try:
            x = (
                lo * fhi * prev_f / ((flo - fhi) * (flo - prev_f))
                + hi * flo * prev_f / ((fhi - flo) * (fhi - prev_f))
                + prev_x * flo * fhi / ((prev_f - flo) * (prev_f - fhi))
            )
        except ZeroDivisionError:
            x = None
    if x is None or not (lo < x < hi):
        x = hi - fhi * (hi - lo) / (fhi - flo)  # secant
    if not (lo < x < hi):
        return None
    return x


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
