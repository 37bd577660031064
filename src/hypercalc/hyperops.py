"""Rank >= 4 hyperoperations: forward towers, super-roots, super-logs.

The forward operation at rank r unrolls one step at a time,

    a (+^r) b  =  a (+^(r-1)) (a (+^r) (b-1)),      b >= 1,

down to the rank-3 power, with `a (+^r) 0 = 1` and `a (+^r) 1 = a`.  At
rank 4 each level is `power`'s exact answer where its exponent has one
(`midops._exact_power`), else T_k = e^(T_(k-1) ln a), with ln a taken once
a tower, at the finest tolerance a level needs (`_tower_ln`).  A
fractional height 0 < p/q < 1 (always in lowest terms) splits as

    a (+^r) (p/q)  =  (a (+^r) p) (-^r) q,

so rational heights reduce to integer towers plus one super-root.  Below
the whole steps of a height, that tail is solved once, at the tolerance
its steps need: the budgets are sized in floats, from ln(a (+^4) p) and a
float estimate of its root of order q.  The inverses are bracketed searches:

  * super-root   x = a (-^r) b   solves x (+^r) b = a; at rank 4 by
    `brent`'s interval-Newton search inside [1, a], after an exact check of
    the nearest integer.  x (+^4) b grows with x.  The search starts at a
    float estimate of the root.  A step that needs a slope ball of x (+^4) b
    asks for it over its ball X, naming the point m of X where it probes
    next, and one pass over the levels at m gives both that ball and the
    probe at m (`_tower_pass`): ln m and each level's exp are taken once.
    The pass takes that probe at half the least tolerance the step then
    asks near the root, max(tol lo(D), |X| rad(D)) / 4 (`rootfind`), where
    rad(D) >= |X| f'' / 2 and f'' >= f'^2 / g, as x^^q is log-convex on x >=
    1, and f' >= s, the last slope ball's lower end, or g (ln g + 1) / m, as
    x (x^^q)' / x^^q = x (x^^(q-1))' ln x + x^^(q-1) >= ln g + 1 at the
    root: max(tol s, |X|^2 s^2 / (2 g)) / 8, and 2^-8 or finer.  A step that
    asks finer takes its probe again; the digits never depend on the rule.
    For an integer order q the slope is the forward-mode recurrence T_1 =
    X, T_1' = 1, T_k = e^(T_(k-1) ln X), T_k' = T_k (T_(k-1)' ln X + T_(k-1)
    / X), with ln X = ln m +/- R / lo(X), R the distance from m to X's
    farther end, and each level over X the level at m widened by exp's
    spread rule (`midops._exp_spread`).  It is >= 1 on x >= 1: by induction
    T_k >= 1, T_(k-1)' >= 0, ln x >= 0 and T_(k-1) / x >= 1, as T_(k-1) >=
    x.  A fractional order n + p/r is n levels over the split's tail y, y
    (+^4) r = x (+^4) p.  y increases with x, as both towers grow with their
    bases, so the hull Y of y at X's ends holds y over X.  Implicit
    differentiation gives y' = (x^^p)' / (y^^r)'(y), which lies in the
    quotient of the slope balls (x^^p)'(X) / (y^^r)'(Y), whose divisor is
    >= 1 as y >= 1.  The
    recurrence then runs its n levels from (Y, y') in place of (X, 1).  With
    y in [1, x] and y' >= 0, T_1' = x^y (y' ln x + y / x) >= y x^(y-1) >= 1,
    and T_k' >= T_(k-1) / x >= 1 after (orders below 1 reduce to integer
    ones first); from order 2 up, ln T_k = T_(k-1) ln x has slope >= 1 too.
    So an inexact goal g +/- r is one search at max(g, 1), widened by r, or
    from order 2 up by r / max(g - r, 1), ln's change over the goal (values
    below 1 read as 1).  The float estimate goes through the split too: it
    bisects ln(x (+^4) (n + p/r)) = ln a in floats, with the tail's float
    from the integer-order estimate;
  * super-log    x = a (/^r) b   solves b (+^r) x = a.

The split is not continuous in its height: 2 (+^4) (p/q) tends to sqrt(2)
or e^(1/e) as q grows, whatever p/q is.  So an inverse whose answer is a
height (the super-log, and the super-root's base at rank >= 5, which the
next rank down uses as a height) has no interior answer to certify.  Those
inverses are exact or refuse: they search the integers only, a super-log
between integer heights n and n + 1 is accepted only when a rational height
n + p/q checks exactly with integer towers, and every other input is a
DomainError naming the integers whose towers enclose it.

Integer towers over integer bases stay exact all the way up (2 (+^5) 3 is
exactly 65536), and over an inexact base a rank-4 tower is ball arithmetic
over its one ln.  Anything that would need an approximate
intermediate as the height of a rank >= 4 operator, a rank >= 5 tower over
an inexact base among them, is rejected: the rational-height construction
defines no enclosure there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import midops
from .balls import Ball, _ball, _snap, as_ball, divide, hull, round_ball
from .errors import (
    ConvergenceError, DomainError, MagnitudeError, PrecisionError, ResourceError,
)
from .midops import _EXP_ARG_CAP, SeriesConfig, _log_abs_float, _lowest, tol_bits
from .rootfind import (
    BallFn, Bracket, RootConfig, bisect_integers, brent, expand_upper,
)


# Integer height steps per rank >= 4 node: the tower-unrolling budget.
MAX_HEIGHT_STEPS = 50_000


@dataclass(frozen=True)
class EngineLimits:
    """The tower-unrolling budget `MAX_HEIGHT_STEPS` as a record, which the
    acceptance tests construct; the checks read the constant."""

    max_height_steps: int = MAX_HEIGHT_STEPS


# ---------------------------------------------------------------------------
# argument normalization


def _height_fraction(b, *, rank: int) -> Fraction:
    if isinstance(b, Ball):
        if not b.is_exact:
            raise DomainError(
                f"the height of a rank-{rank} operator must be an exact rational"
            )
        return b.center
    return Fraction(b)


# ---------------------------------------------------------------------------
# forward


def hyper_forward(
    rank: int,
    a: Fraction | Ball,
    b: Fraction | Ball,
    tol: Fraction,
) -> Ball:
    """Ball containing a (+^rank) b for rank >= 4, a >= 1, rational b >= 0."""
    if rank < 4:
        raise DomainError(f"hyper_forward needs rank >= 4, got {rank}")
    if tol <= 0:
        raise ValueError("precision target must be positive")
    height = _height_fraction(b, rank=rank)
    if height < 0:
        raise DomainError("heights below zero are not defined at rank >= 4")
    base = as_ball(a)
    if base.c + base.r < base.d:
        raise DomainError("rank >= 4 operators need a base >= 1")
    if base.c - base.r < base.d:
        raise PrecisionError("base interval reaches below 1")
    return _forward(rank, base, height, tol)


def _forward(rank: int, base: Ball, height, tol: Fraction) -> Ball:
    """Core recursion; height may be a Fraction or an exact-only Ball."""
    for value, _ in _levels(rank, base, height, tol):
        pass
    return value


def _levels(rank: int, base: Ball, height, tol: Fraction):
    """`_forward`'s values from the innermost up, each with the rank-4
    tower's ln (else None): the innermost value (the base, or a fractional
    height's tail) and then each whole step's level.  The ln is a thunk
    that takes it at its first call, once a tower (`_tower_ln`)."""
    if isinstance(height, Ball):
        if height.is_exact:
            height = height.center
        elif rank >= 4:
            raise _approximate_height(rank)
    if rank == 3:
        yield midops.power(base, height, SeriesConfig(tol)), None
        return
    if height == 0 or base.is_exact and base.c == base.d:
        yield Ball(1), None
        return
    if height == 1:
        yield base, None
        return
    if not base.is_exact and rank >= 5:
        # the first step is base (+^(rank-1)) base: the base is a height
        raise _approximate_height(rank - 1)

    # height = steps + p/q, 0 <= p/q < 1, with the last whole step in p/q = 1 when q = 1
    q = height.denominator
    steps, p = divmod(height.numerator, q)
    steps -= q == 1
    ln_base = _log_abs_float(*_lowest(base.c, base.d))
    if steps > MAX_HEIGHT_STEPS:
        if rank == 4 or base.c % base.d == 0:
            # The tower over an inner value >= 1 is at least base (+^4) steps,
            # so one that passes the magnitude cap within the first cap + 1
            # steps is a blow-up, whatever the cap says about its length.
            # So is one at rank r >= 5 over an integer a >= 2, as a (+^r) h >=
            # a (+^4) h: a (+^r) grows with its height and a (+^r) h >= h + 1, so by
            # induction on h, a (+^(r+1)) (h+1) = a (+^r) (a (+^(r+1)) h) >= a (+^r) (h+1).
            _tower_logs(0.0, ln_base, MAX_HEIGHT_STEPS + 1)
        raise _over_step_cap(height)

    def numerator_blowup() -> ResourceError:
        # The split detours through a tower of the fraction's numerator,
        # which can dwarf the (possibly modest) final value; a blow-up
        # there says nothing about the result's magnitude.
        return _split_blowup(
            f"{_quantity(base.center)} (+^{rank}) {p} (the tower of the height's numerator)")

    def fractional_tail(t: Fraction, start: float | None = None) -> Ball:
        try:
            tower = _forward(rank, base, Fraction(p), t / 4)
            return _inverse_minus(rank, tower, Fraction(q), t / 4, start)
        except MagnitudeError as err:
            raise numerator_blowup() from err

    value = base  # the innermost value: the base, or the fractional tail
    if not p:
        inner_log = ln_base
    elif steps == 0:
        yield fractional_tail(tol), None
        return
    elif rank >= 5:
        # exact (an integer base) or refused, whatever the tolerance
        value = fractional_tail(tol)
        inner_log = max(_log_abs_float(*_lowest(value.c, value.d)), 0.0)
    else:
        if q - 1 > MAX_HEIGHT_STEPS:
            # the tail refuses its order q (see `_inverse_minus`), or its
            # numerator's tower, at once; the float sizing below would take
            # about p + q steps first
            fractional_tail(tol)
        # sized in floats, from ln(base ^^ p) and the order-q root's estimate;
        # the tail itself is solved once, at its budgeted tolerance, and its
        # search starts at that estimate
        try:
            estimate = _tail_estimate(ln_base, p, q)
        except MagnitudeError as err:
            raise numerator_blowup() from err
        inner_log = max(math.log(estimate), 0.0)
        value = None
    # Each tower step amplifies the error underneath it by roughly
    # (step output) * ln(base); budget the inner tolerances accordingly.  The
    # budgets are estimates: one pass returns the ball it reaches, and
    # `engine.evaluate` re-runs the term tighter when that misses its target.
    logs = [inner_log] + _tower_logs(inner_log, ln_base, steps)  # ln T_0 .. ln T_steps
    budgets = _unroll_budgets(logs, ln_base)
    tn, td = tol.numerator, tol.denominator
    if value is None:
        value = fractional_tail(Fraction(tn, td << budgets[0]), estimate)
    ln = []  # the rank-4 tower's one ln, taken at its first use

    def ln_x() -> Ball:
        if not ln:
            ln.append(_tower_ln(base, logs, tol, budgets))
        return ln[0]

    yield value, ln_x if rank == 4 else None
    for i in range(1, steps + 1):
        level_tol = Fraction(tn, td << budgets[i])
        if rank > 4:
            value = _forward(rank - 1, base, value, level_tol)
        elif (exact := midops._exact_power(base, value, level_tol)) is not None:
            value = exact
        else:  # e^(T_(i-1) ln base) at `power`'s tolerances
            value = midops._exp_product(ln_x(), value, tn, td << (budgets[i] + 2),
                                        tol_bits(level_tol) + 16)
        yield value, ln_x


def _unroll_budgets(logs: list[float], ln_base: float) -> list[int]:
    """Extra bits of tolerance for the inner value and each unroll step,
    from the float logs ln T_0 .. ln T_steps of the rank-4 levels.

    Index 0 is the innermost value; index i >= 1 is the i-th tower step.
    An error entering step i is amplified by about exp(step output) * ln(base)
    through every later step, so earlier stages need geometrically (in the
    tower magnitudes) tighter tolerances.
    """
    steps = len(logs) - 1
    ln_ln_base = math.log(max(ln_base, 1e-300))
    # log2 of each step's amplification factor
    gains = [max(0.0, (out + ln_ln_base) / math.log(2)) for out in logs[1:]]
    budgets = [0] * (steps + 1)
    suffix = 0.0
    for i in range(steps, 0, -1):
        budgets[i] = math.ceil(suffix) + (steps - i) + 2
        suffix += gains[i - 1]
    budgets[0] = math.ceil(suffix) + steps + 4
    return budgets


def _tower_ln(x: Ball, logs: list[float], tol: Fraction, budgets: list[int]) -> Ball:
    """ln x for the levels T_k = e^(T_(k-1) ln x) of a tower, float logs
    logs[k] = ln T_k, level k within tol / 2^budgets[k]: at the finest of
    `midops.power`'s ln tolerances, level k's / 2^(log2 T_k + log2 T_(k-1)
    + 16), which puts ln x's share of each level's error below 2^-16 of it."""
    s = max(budgets[k] + math.ceil((logs[k] + max(logs[k - 1], 0.0)) / math.log(2))
            for k in range(1, len(logs)))
    return midops.ln_e(x, SeriesConfig(tol / (1 << (s + 16))))


def _tower_logs(inner_log: float, ln_base: float, steps: int) -> list[float]:
    """Float logs of the values of `steps` rank-4 steps over a base of log
    ln_base, starting from a value of log inner_log: each is exp(the last)
    * ln_base.  A value past the magnitude cap raises MagnitudeError, before
    its exp can overflow."""
    blow_threshold = math.log(_EXP_ARG_CAP) - math.log(max(ln_base, 1e-300))
    level = inner_log
    levels = []
    for _ in range(steps):
        if level > blow_threshold:  # exp(level) * ln_base would pass the cap
            raise MagnitudeError("tower magnitude exceeds the configured cap")
        level = math.exp(level) * ln_base
        if level > _EXP_ARG_CAP:
            raise MagnitudeError("tower magnitude exceeds the configured cap")
        levels.append(level)
    return levels


# ---------------------------------------------------------------------------
# super-root family


def hyper_inverse_minus(
    rank: int,
    a: Fraction | Ball,
    b: Fraction | Ball,
    tol: Fraction,
) -> Ball:
    """Ball containing the x >= 1 with x (+^rank) b = a, for a >= 1, b > 0."""
    if rank < 4:
        raise DomainError(f"hyper_inverse_minus needs rank >= 4, got {rank}")
    if tol <= 0:
        raise ValueError("precision target must be positive")
    order = _height_fraction(b, rank=rank)
    if order <= 0:
        raise DomainError("super-root order must be positive")
    target = as_ball(a)
    if target.c + target.r < target.d:
        raise DomainError("super-roots are defined for values >= 1")
    return _inverse_minus(rank, target, order, tol)


def _inverse_minus(rank: int, target: Ball, order: Fraction, tol: Fraction,
                   start: float | None = None) -> Ball:
    """`hyper_inverse_minus` past its checks.  `start` is a float estimate
    of the root that the caller has already made (a fractional tail's, from
    its budgets); without one the search makes its own."""
    if target.is_exact and target.c == target.d:
        return Ball(1)
    if order == 1:
        return target
    if order.denominator != 1 and order < 1:
        # x (-^r) (p/q) = (x (+^r) q) (-^r) p for fractional orders below 1
        p, q = order.numerator, order.denominator
        try:
            grown = _forward(rank, target, Fraction(q), tol / 8)
        except MagnitudeError as err:
            raise _split_blowup(f"x (+^{rank}) {q} (x the super-root's operand)") from err
        return _inverse_minus(rank, grown, Fraction(p), tol)
    if rank >= 5:
        if not target.is_exact:
            raise _refusal(f"a rank-{rank} super-root needs an exact value")
        bases = _integer_search(
            lambda x, ft: _forward(rank, Ball(x), order, ft), target.center)
        if bases.lo == bases.hi:
            return Ball(bases.lo)
        raise _refusal(
            f"the rank-{rank} super-root lies strictly between the integer"
            f" bases {bases.lo} and {bases.hi}"
        )
    if math.ceil(order) - 1 > MAX_HEIGHT_STEPS:
        # every probe's tower would pass the step cap: refused before the
        # estimate and the slope, each of which takes about `order` steps
        raise _over_step_cap(order)
    if not target.is_exact:
        # the roots of the goal's ends lie within r, from order 2 up within
        # r / max(g - r, 1), of max(g, 1)'s (the module docstring)
        center = _inverse_minus(rank, Ball(max(target.center, Fraction(1))), order, tol / 2, start)
        low = target.d if order < 2 else max(target.c - target.r, target.d)
        return round_ball(center + _ball(0, target.r, low), tol_bits(tol) + 16)

    goal = target.center  # exact rational > 1
    tower = _capped(lambda x, ft: _forward(rank, Ball(x), order, ft), goal)
    e = goal - 1
    if e.numerator << 53 <= e.denominator and e * e > tol:
        # g rounds to the float 1.0, and so does the root, as x^^q = 1 + d +
        # d^2 + O(d^3) at x = 1 + d: a float estimate would sit on the
        # bracket's end, where no interval-Newton step can start.  The root
        # is 1 + e - e^2 + O(e^3), and steps from there certify it.  When
        # e^2 <= tol no step can tell the root from the bracket's end g: the
        # float estimate 1.0 sits on the other end, and the steps on the
        # bracket [1, g] certify it
        start = 1 + e - e * e
    else:
        if start is None:
            start = _super_root_estimate(goal, order)
        if start is not None:  # without one, `brent` steps on the bracket alone
            # an integer root is checked exactly before any search
            n = round(start)
            if n >= 2 and abs(start - n) < 2.0**-30 and tower(Fraction(n), tol) == Ball(goal):
                return Ball(Fraction(n))
    bound = _cap_bound(goal)
    # log2 of tol, of g and of g (ln g + 1) (at the root, x (x^^q)' / x^^q >= ln
    # g + 1: the module docstring), in floats, as the pass's tolerance is a
    # power of two
    ln_g = _log_abs_float(goal.numerator, goal.denominator)
    tol_log, goal_log = math.log2(tol.numerator) - math.log2(tol.denominator), ln_g / math.log(2)
    root_log = goal_log + math.log2(ln_g + 1)
    passed, low = None, -math.inf  # (m, ft, f(m) within ft) of the last pass; log2 lo(D)

    def f(x: Fraction, ft: Fraction) -> Ball | Fraction:
        if passed is not None and x == passed[0] and ft >= passed[1]:
            return passed[2]
        return tower(x, ft) - goal

    def slope(x: Ball, t: Fraction, m: Fraction) -> Ball | None:
        # one pass takes the slope over x and f at m, where the step probes
        # next, at half the least tolerance the step asks near the root, max(tol
        # s, |x|^2 s^2 / (2 g)) / 8 (the module docstring), and at 2^-8 or
        # finer, as far from it x^^q passes g
        nonlocal passed, low
        s = max(root_log - math.log2(m.numerator) + math.log2(m.denominator), low)
        w = math.log2(x.r) - math.log2(x.d) + 1  # log2 |x|
        ft = Fraction(1, 1 << max(8, math.ceil(3 - max(tol_log + s, 2 * (w + s) - 1 - goal_log))))
        try:
            value, D = _tower_pass(x, m, order, ft, t)
        except MagnitudeError:
            if bound is None:
                return None  # the probe at m meets the failure itself
            value, D = bound, None
        except (ResourceError, PrecisionError, ConvergenceError):
            return None
        passed = (m, ft, value - goal)
        if D is not None and D.c > D.r:
            low = math.log2(D.c - D.r) - math.log2(D.d)
        return D

    return brent(f, Bracket(Fraction(1), goal), RootConfig(tol), start=start, slope=slope)


def _tower_pass(x: Ball, m: Fraction, order: Fraction, ft: Fraction,
                t: Fraction) -> tuple[Ball, Ball | None]:
    """(y (+^4) order at the point m of the ball x > 0 within ft, and a ball
    holding its derivative over x, or None when that fails), for an order
    >= 1, from one pass over the levels.

    The first is `_forward`'s ball, from `_levels`.  The second is the
    module docstring's recurrence over x, from (x, 1) for an integer order
    and from the tail's hull Y over x's ends and slope ball for an order n +
    p/r (its tail's own slopes are passes, within t).  It reuses ln m and
    each level T_k(m) = e^(T_(k-1)(m) ln m): ln X is ln m +/- R / lo(x),
    ln's Lipschitz bound on x > 0 for the distance R from m to x's farther
    end, and as T_(k-1)(X) ln X lies within its spread s of T_(k-1)(m) ln m,
    T_k(X) is T_k(m) widened by `midops._exp_spread` for s.  That side runs
    in integer balls on the grid 2^-(tol_bits(t) + 16), each level and
    slope snapped onto it, and ln m, 1 / X and the levels at m rounded onto
    it first: unsnapped, the slope of order 3,125 at the root of 10 (-^4)
    3125 would carry 1.4 million bits, and unrounded arguments cost time on
    every level.
    """
    levels = _levels(4, Ball(m), order, ft)
    value, _ = next(levels)  # m, or the tail at m
    if m == 1:  # a tower over 1 is 1 with no levels taken: ln 1 = 0 under each
        levels = ((Ball(1), lambda: Ball(0)) for _ in range(math.ceil(order) - 1))
    try:
        if order.denominator == 1:
            level, slope = x, Ball(1)
        else:
            tail = order - (math.ceil(order) - 1)  # p/r
            level = hull(_forward(4, Ball(x.lo), tail, t), _forward(4, Ball(x.hi), tail, t))
            up = _tower_slope(x, tail.numerator, t)
            down = _tower_slope(level, tail.denominator, t)
            slope = None if up is None or down is None else divide(up, down)
    except (ResourceError, PrecisionError, ConvergenceError):
        slope = None
    # (c, r) for the balls (c +/- r) / 2^b: the level L and the slope S over
    # x, the level A at m and, once a level needs them, 1 / X, ln m's center
    # and radius and ln X's radius.  L, A and 1 / X are > 0; ln m, S and the
    # sum S ln X + L / X may take either sign (x < 1 in the tail's hull)
    b, ln_r = tol_bits(t) + 16, None
    if slope is not None:
        (L_c, L_r), (S_c, S_r), (A_c, A_r) = (_grid(v, b) for v in (level, slope, value))
    for up, ln_m in levels:
        if slope is not None:
            try:
                if ln_r is None:
                    if x.c <= x.r:
                        raise PrecisionError("log argument interval reaches zero")
                    lo, hi = (x.d << b) // (x.c + x.r), -(-(x.d << b) // (x.c - x.r))
                    I_c, I_r = (lo + hi) >> 1, (hi - lo + 1) >> 1
                    ln_c, ln0_r = _grid(ln_m(), b)
                    # R / lo(x), for R = far / (q d) the distance from m = p / q
                    # to x's farther end
                    p, q = m.numerator, m.denominator
                    far = max(p * x.d - (x.c - x.r) * q, (x.c + x.r) * q - p * x.d)
                    ln_r = ln0_r - (-(far << b) // (q * (x.c - x.r)))
                U_c, U_r = _grid(up, b)
                # e^(L ln X) within the spread of L ln X from A ln m, over 2^2b,
                # of U = e^(A ln m)
                spread = (abs(ln_c) * (abs(L_c - A_c) + L_r + A_r) + L_c * ln_r + L_r * ln_r
                          + A_c * ln0_r + A_r * ln0_r)
                W_r = midops._exp_spread(U_c, U_r, spread, 1 << 2 * b)
                # S' = W (S ln X + L / X), with W = U +/- W_r, over 2^3b
                P_c = S_c * ln_c + L_c * I_c
                P_r = (abs(S_c) * ln_r + abs(ln_c) * S_r + S_r * ln_r + L_c * I_r + I_c * L_r
                       + L_r * I_r)
                out = _snap(U_c * P_c, U_c * P_r + abs(P_c) * W_r + W_r * P_r, 1 << 3 * b, b)
                (L_c, L_r), (S_c, S_r), (A_c, A_r) = (U_c, W_r), (out.c, out.r), (U_c, U_r)
            except PrecisionError:
                slope = None
        value = up
    if slope is not None:
        slope = _ball(S_c, S_r, 1 << b)
    return value, slope


def _grid(v: Ball, b: int) -> tuple[int, int]:
    """(c, r) of v snapped onto the grid 2^-b."""
    v = round_ball(v, b)
    return v.c, v.r


def _tower_slope(x: Ball, order: Fraction | int, t: Fraction) -> Ball | None:
    """`_tower_pass`'s slope ball of y (+^4) order over the ball x > 0, from
    the pass at x's center within t; None when the pass fails (past the
    magnitude cap, or a ball too wide)."""
    try:
        return _tower_pass(x, x.center, Fraction(order), t, t)[1]
    except (ResourceError, PrecisionError, ConvergenceError):
        return None


def _super_root_estimate(goal: Fraction, order: Fraction) -> float:
    """Float x >= 1 with x (+^4) order close to goal, for an order > 1.

    An integer order q is `_integer_order_estimate`'s.  A fractional order
    n + p/r goes through the split: x (+^4) order is n levels over the tail
    y, y (+^4) r = x (+^4) p, whose float is `_integer_order_estimate` of
    ln(x (+^4) p) and r; a root past where x (+^4) p passes the magnitude
    cap raises the split's blow-up.  It is only a start for the certified
    search.
    """
    ln_goal = _log_abs_float(goal.numerator, goal.denominator)
    if order.denominator == 1:
        return _integer_order_estimate(ln_goal, int(order))
    n = math.floor(order)
    p, r = (order - n).numerator, (order - n).denominator

    def tail(x: float) -> float:
        return _tail_estimate(math.log(x), p, r)

    # the root is at most goal, as x (+^4) order >= x; for n >= 2 it is at
    # most max(e, ln goal), as then ln(x (+^4) order) >= x ln x
    x = _float_root(ln_goal, n, math.exp(min(ln_goal, 709.0)) if n == 1
                    else max(math.e, ln_goal), tail)
    above = math.nextafter(x, math.inf)
    try:
        tail(above)
    except MagnitudeError:
        # the bisection stopped where x^^p passes the cap, short of the root:
        # every probe above is that blow-up, and towers just below it have
        # nearly the cap's bits
        raise _split_blowup(f"{Fraction(above)} (+^4) {p} (the tower of the height's"
                            " numerator)") from None
    return x


def _tail_estimate(ln_x: float, p: int, r: int) -> float:
    """Float of the split's tail y = x (+^4) (p/r), ln_x = ln x: y (+^4) r =
    x (+^4) p, past the magnitude cap a MagnitudeError."""
    return _integer_order_estimate(([ln_x] + _tower_logs(ln_x, ln_x, p - 1))[-1], r)


def _integer_order_estimate(ln_goal: float, order: int) -> float:
    """Float x >= 1 with x (+^4) order close to the goal of log ln_goal, for
    an integer order >= 2: the root lies in [1, max(e, ln_goal)], as for
    x >= e, x^^(order - 1) >= x."""
    return _float_root(ln_goal, order - 1, max(math.e, ln_goal))


def _float_root(ln_goal: float, steps: int, hi: float, tail=None) -> float:
    """Float x in [1, hi] where `steps` rank-4 levels over x, starting from
    the value tail(x) in [1, x] (x itself without a tail), reach the log
    ln_goal.

    It bisects T_(steps-1) * ln x = ln_goal in floats, with T_0 = tail(x)
    and T_k = x^T_(k-1), which increase in k; a tower that overflows counts
    as too big.
    """
    def too_big(x: float) -> bool:
        ln_x = math.log(x)
        try:
            level = x if tail is None else tail(x)
            for _ in range(steps - 1):
                if level * ln_x > ln_goal:
                    return True
                level, prev = math.exp(level * ln_x), level
                if level == prev:  # a convergent tower has settled
                    break
        except (OverflowError, MagnitudeError):
            return True
        return level * ln_x > ln_goal

    lo = 1.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if too_big(mid):
            hi = mid
        else:
            lo = mid


# ---------------------------------------------------------------------------
# super-log family


def hyper_inverse_slash(
    rank: int,
    a: Fraction | Ball,
    b: Fraction | Ball,
    tol: Fraction,
) -> Ball:
    """The x >= 0 with b (+^rank) x = a exactly, for a > 1, b > 1.

    An exact value with no integer or exactly checked rational answer, and
    an approximate value or base, raise DomainError; so does a non-integer
    base unless the value is the base itself (height 1).
    """
    if rank < 4:
        raise DomainError(f"hyper_inverse_slash needs rank >= 4, got {rank}")
    if tol <= 0:
        raise ValueError("precision target must be positive")
    target, base = as_ball(a), as_ball(b)
    if not (target.is_exact and base.is_exact):
        raise _refusal(f"a rank-{rank} super-log needs an exact value and base")
    for name, ball in (("value", target), ("base", base)):
        if ball.center <= 1:
            raise DomainError(f"super-log {name} must be > 1")
    goal = target.center
    if base.center.denominator != 1 and goal != base.center:
        raise DomainError(
            f"a rank-{rank} super-log to the non-integer base {_quantity(base.center)}"
            " is exact only at height 1: towers over a non-integer rational"
            " base are irrational above height 1"
        )
    heights = _integer_search(lambda x, ft: _forward(rank, base, x, ft), goal)
    n = heights.lo
    if heights.hi == n:
        return Ball(n)
    frac = _split_height(rank, base.center, goal, int(n))
    if frac is None:
        raise _refusal(
            f"the rank-{rank} super-log lies strictly between the integer"
            f" heights {n} and {n + 1}, and no rational height in between"
            " checks exactly"
        )
    return Ball(n + frac)


def _split_height(rank: int, base: Fraction, value: Fraction, n: int) -> Fraction | None:
    """The p/q in (0, 1) with base (+^rank) (n + p/q) = value, checked
    exactly with integer towers, or None.

    Peeling n levels off the value leaves c = base (+^rank) (p/q), with
    1 < c < base; by the split, c (+^rank) q = base (+^rank) p.  The base is
    an integer, both towers are exact only for an integer c, and both grow
    with their height, so one merged walk over p and q meets every candidate
    until a tower passes the magnitude cap.
    """
    c = value
    for _ in range(n):
        level = _integer_search(
            lambda x, ft: _forward(rank - 1, Ball(base), x, ft), c)
        if level.lo != level.hi:
            return None
        c = level.lo
    if c.denominator != 1:
        return None

    def tower(x: Fraction, height: int) -> Fraction:
        # integer base and height: exact, so the tolerance goes unused
        return _forward(rank, Ball(x), Fraction(height), Fraction(1)).center

    p = q = 1
    lower, upper = c, base  # c (+^rank) q and base (+^rank) p
    try:
        while lower != upper or math.gcd(p, q) != 1:
            if lower <= upper:
                q += 1
                lower = tower(c, q)
            else:
                p += 1
                upper = tower(base, p)
    except MagnitudeError:
        return None
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# shared by the forward and inverse operations


def _capped(tower: BallFn, goal: Fraction) -> BallFn:
    """tower, with a value past the magnitude cap read as certainly above
    goal (towers grow with base and height): `_cap_bound`'s bare rational,
    which the root finders take as a sign only."""
    bound = _cap_bound(goal)

    def capped(x: Fraction, ft: Fraction) -> Ball | Fraction:
        try:
            return tower(x, ft)
        except MagnitudeError:
            if bound is None:
                raise
            return bound

    return capped


def _cap_bound(goal: Fraction) -> Fraction | None:
    """2 goal + 2, a bound above goal for a tower past the magnitude cap;
    None for a goal too near the cap for that to prove anything."""
    goal_bits = goal.numerator.bit_length() - goal.denominator.bit_length()
    return 2 * goal + 2 if goal_bits < midops.MAX_MAGNITUDE_BITS - 64 else None


def _integer_search(tower: BallFn, goal: Fraction) -> Bracket:
    """[n, n] when tower(n) is exactly goal, else the consecutive integers
    [n, n + 1] whose towers enclose it; tower increasing, tower(0) <= goal."""
    tower = _capped(tower, goal)
    bracket = expand_upper(tower, goal)
    return bisect_integers(lambda x, ft: tower(x, ft) - goal, bracket)


def _over_step_cap(height: Fraction) -> ResourceError:
    """The refusal of a rank >= 4 height whose unrolling takes more whole
    steps than `MAX_HEIGHT_STEPS`."""
    return ResourceError(
        f"unrolling a height of {_quantity(height)} needs {_quantity(math.ceil(height) - 1)}"
        f" applications, over the cap of {MAX_HEIGHT_STEPS}"
    )


def _quantity(x: Fraction | int) -> str:
    """x for a message; past about 900 digits "about 1.5" or "about 10^k",
    as `str` of an int refuses more than 4,300 digits."""
    x = Fraction(x)
    if max(abs(x.numerator), x.denominator).bit_length() <= 3000:
        return str(x)
    k = math.floor(_log_abs_float(x.numerator, x.denominator) / math.log(10))
    return f"about {float(x):.6g}" if abs(k) < 300 else f"about 10^{k}"


def _approximate_height(rank: int) -> DomainError:
    """The refusal of an inexact value as the height of a rank >= 4 operator."""
    return DomainError(
        f"the height of a rank-{rank} operator must be an exact rational;"
        " this tower needs an approximate intermediate as a height"
    )


def _split_blowup(intermediate: str) -> ResourceError:
    """A magnitude blow-up in an intermediate of the rational-height split,
    as a plain ResourceError: it says nothing about the result's size, so
    callers that read a MagnitudeError as "too big" must not see one."""
    return ResourceError(
        f"the rational-height split's intermediate {intermediate} exceeds the"
        " magnitude cap; the value itself may be modest"
    )


def _refusal(reason: str) -> DomainError:
    return DomainError(
        f"{reason}; the rational-height split is not continuous in its"
        " height, so only exact answers can be certified"
    )
