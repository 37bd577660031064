"""Bracketed scalar root finding over Ball-valued functions.

`brent` drives a function f(x, tol) -> Ball (an enclosure of f(x) with
radius <= tol) to a root enclosure of width <= 2 * x-tolerance.  Probe signs
are resolved rigorously: a probe whose ball straddles zero is re-evaluated
at 4x tighter tolerance before being declared ambiguous, and a probe whose
ball is exactly zero is an exact root.

Two probe strategies:

* "interpolate" (default): secant / inverse-quadratic candidates with a
  bisection fallback that guarantees the bracket at least halves every two
  iterations.  Candidates are snapped onto a dyadic grid a few bits below
  the tolerance — still exact rationals strictly inside the bracket — so
  coordinate representations cannot balloon over many iterations.

* "mediant": an accelerated Stern-Brocot descent that only ever probes the
  lowest-denominator rationals consistent with the current bracket, with
  run doubling plus binary search so each continued-fraction coefficient of
  the root costs O(log) evaluations.  Used where the cost of evaluating
  f(p/q) grows with q, and where exact rational roots should be hit exactly.
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
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("bracket endpoints out of order")
        if self.f_lo_sign * self.f_hi_sign > 0:
            raise ValueError("bracket endpoints must differ in sign (or hit zero)")


@dataclass(frozen=True)
class RootConfig:
    x_tolerance: Fraction

    def __post_init__(self):
        if self.x_tolerance <= 0:
            raise ValueError("tolerance must be positive")


class _SignResolver:
    """Evaluates f at probes, tightening tolerance until the sign is certain."""

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
            t = t / 4
        raise AmbiguityError(f"cannot resolve the sign of f({x}) — possible exact tie")


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


def brent(
    f: BallFn,
    bracket: Bracket,
    cfg: RootConfig,
    *,
    probe: str = "interpolate",
) -> Ball:
    """Enclose the unique root of a sign-changing f inside the bracket.

    Returns a Ball of radius <= cfg.x_tolerance containing the root; the
    ball is exact (radius 0) when a probe evaluates to exactly zero.
    """
    if bracket.f_lo_sign == 0:
        return Ball(bracket.lo)
    if bracket.f_hi_sign == 0:
        return Ball(bracket.hi)
    if probe == "mediant":
        return _mediant_root(f, bracket, cfg)
    return _interpolating_root(f, bracket, cfg)


def _interpolating_root(f: BallFn, bracket: Bracket, cfg: RootConfig) -> Ball:
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


def _mediant_root(f: BallFn, bracket: Bracket, cfg: RootConfig) -> Ball:
    tol = cfg.x_tolerance
    resolve = _SignResolver(f)
    lo, hi = bracket.lo, bracket.hi
    slo, shi = bracket.f_lo_sign, bracket.f_hi_sign
    if lo < 0:
        raise DomainError("mediant search needs a non-negative bracket")

    def classify(p: int, q: int) -> tuple[int, Fraction | None]:
        # sign of f at p/q, consulting the bracket for out-of-range points
        x = Fraction(p, q)
        if x <= lo:
            return slo, None
        if x >= hi:
            return shi, None
        s, _ = resolve(x)
        return s, x

    # Stern-Brocot frame over [0, oo).  The certified bracket (lo, hi) can
    # pinch below the tolerance while the frame is still hunting for a sign
    # flip (f may jump across zero between probe-able rationals), so every
    # bracket update re-checks termination; probes get more expensive as
    # frame denominators grow, never cheaper.
    pl, ql, pr, qr = 0, 1, 1, 0
    evals = 0

    def step(p: int, q: int):
        nonlocal lo, hi, evals
        s, x = classify(p, q)
        evals += 1
        if x is not None and s != 0:
            if s == slo:
                lo = x
            else:
                hi = x
        done = Ball(Fraction(p, q)) if s == 0 else None
        if done is None and hi - lo <= 2 * tol:
            done = Ball(lo + (hi - lo) / 2, (hi - lo) / 2)
        return s, done

    while evals < MAX_ITERATIONS:
        if hi - lo <= 2 * tol:
            return Ball(lo + (hi - lo) / 2, (hi - lo) / 2)
        s, done = step(pl + pr, ql + qr)
        if done is not None:
            return done
        if s == slo:
            # root lies toward R: double the run L + k*R until the sign flips
            k = 2
            while True:
                s2, done = step(pl + k * pr, ql + k * qr)
                if done is not None:
                    return done
                if s2 != slo:
                    break
                k *= 2
            low_k, high_k = k // 2, k
            while high_k - low_k > 1:
                mid = (low_k + high_k) // 2
                s3, done = step(pl + mid * pr, ql + mid * qr)
                if done is not None:
                    return done
                if s3 == slo:
                    low_k = mid
                else:
                    high_k = mid
            pl, ql = pl + low_k * pr, ql + low_k * qr  # same side as lo
            pr, qr = pl + pr, ql + qr  # the flipped neighbor
        else:
            # root lies toward L: symmetric run k*L + R
            k = 2
            while True:
                s2, done = step(k * pl + pr, k * ql + qr)
                if done is not None:
                    return done
                if s2 == slo:
                    break
                k *= 2
            low_k, high_k = k // 2, k
            while high_k - low_k > 1:
                mid = (low_k + high_k) // 2
                s3, done = step(mid * pl + pr, mid * ql + qr)
                if done is not None:
                    return done
                if s3 == slo:
                    high_k = mid
                else:
                    low_k = mid
            pr, qr = low_k * pl + pr, low_k * ql + qr  # still on the hi side
            pl, ql = pl + pr, ql + qr  # the neighbor that crossed to the lo side
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
            return Bracket(m, m, 0, 0)
        if s > 0:
            return Bracket(prev, m, -1, 1)
        prev = m
        m *= 2
    raise ConvergenceError(f"no upper bracket within {MAX_EXPANSIONS} doublings")
