import hashlib
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercalc import engine, hyperops, midops, rootfind
from hypercalc.balls import Ball
from hypercalc.engine import NumericContext, adaptive_evaluate, evaluate
from hypercalc.errors import (
    ConvergenceError, DomainError, MagnitudeError, ResourceError,
)
from hypercalc.hyperops import hyper_forward, hyper_inverse_minus, hyper_inverse_slash
from hypercalc.rootfind import RootConfig
from hypercalc.terms import parse

T12 = Fraction(1, 10**12)
T10 = Fraction(1, 10**10)
T8 = Fraction(1, 10**8)

# Frozen oracle roots (independent fixed-point bisection on x*ln x = ln c):
ROOT_XX_3 = Fraction("1.825455022924830040041469297740586222633833645")
ROOT_XX_2 = Fraction("1.559610469462369349970388768765002993284883511")
ROOT_XX_3_2 = Fraction("1.350249122507195093719476869290259240309499641")


def exact_int_tower(base: int, height: int) -> int:
    v = base
    for _ in range(height - 1):
        v = base**v
    return v


def random_rationals(seed, count, lo=1, hi=50, den=16):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = Fraction(rng.randrange(lo * den, hi * den), den)
        if r > 1:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# exact identities


def test_identity_suite_exact():
    heights = [Fraction(0), Fraction(1), Fraction(3), Fraction(1, 2), Fraction(7, 3)]
    for rank in (4, 5, 6):
        for a in random_rationals(777 + rank, 25):
            out = hyper_forward(rank, a, Fraction(0), T12)
            assert out.center == 1 and out.radius == 0
            out = hyper_forward(rank, a, Fraction(1), T12)
            assert out.center == a and out.radius == 0
            out = hyper_inverse_minus(rank, a, Fraction(1), T12)
            assert out.center == a and out.radius == 0
        for b in heights:
            out = hyper_forward(rank, Fraction(1), b, T12)
            assert out.center == 1 and out.radius == 0


def test_integer_towers_are_exact():
    assert hyper_forward(4, Fraction(2), Fraction(2), T12).center == 4
    assert hyper_forward(4, Fraction(2), Fraction(3), T12).center == 16
    assert hyper_forward(4, Fraction(2), Fraction(4), T12).center == 65536
    assert hyper_forward(4, Fraction(3), Fraction(3), T12).center == 3**27
    assert hyper_forward(5, Fraction(2), Fraction(3), T12).center == 65536
    # independent chain oracle
    assert exact_int_tower(2, 4) == 65536
    assert hyper_forward(4, Fraction(2), Fraction(5), T12).center == 2**65536


def test_forward_domain_errors():
    with pytest.raises(DomainError):
        hyper_forward(4, Fraction(1, 2), Fraction(2), T12)
    with pytest.raises(DomainError):
        hyper_forward(4, Fraction(2), Fraction(-1), T12)
    with pytest.raises(DomainError):
        hyper_forward(3, Fraction(2), Fraction(2), T12)
    with pytest.raises(DomainError):
        hyper_forward(4, Fraction(2), Ball(Fraction(2), Fraction(1, 10)), T12)


def test_blowup_cap():
    with pytest.raises(ResourceError):
        hyper_forward(4, Fraction(2), Fraction(6), T12)
    with pytest.raises(ResourceError):
        hyper_forward(6, Fraction(2), Fraction(3), T12)
    # past the height-step cap, but past the magnitude cap within its first
    # steps: a blow-up, not a cap on the tower's length; at rank 5 too, as
    # a (+5) h >= a (+4) h for an integer base a >= 2
    for rank, height in ((4, 65536), (5, 65537)):
        with pytest.raises(MagnitudeError):
            hyper_forward(rank, Fraction(2), Fraction(height), T12)


def test_height_step_cap(monkeypatch):
    # 50,001 unroll steps is one past the cap; a base this close to 1 keeps
    # the tower small, so only the cap can refuse it, and it must refuse
    # before any tower arithmetic runs
    def no_arithmetic(*args):
        raise AssertionError("tower arithmetic ran before the height-step cap")

    # a rank-4 level is an exact power or an exp over the tower's one ln,
    # and a rank-5 level a rank-4 tower
    for name in ("power", "_exact_power", "_ln_ball", "_exp_ball"):
        monkeypatch.setattr(midops, name, no_arithmetic)
    for rank in (4, 5):  # at rank 5 a non-integer base has no blow-up bound
        with pytest.raises(ResourceError, match="over the cap of 50000"):
            hyper_forward(rank, Fraction(10001, 10000), Fraction(50002), T8)


@pytest.mark.parametrize("text, height", [
    ("[1.4----[1000+++3]]", "1000000000"),  # the slope would take 10^9 powers
    ("[20----[1000+++3]]", "1000000000"),  # the float estimate, 10^9 steps a probe
    ("[1.4----[[1000+++3]+[1//2]]]", "2000000001/2"),  # a fractional order alike
    # a tail whose numerator or order passes the cap, under a whole step:
    # the float sizing of ln(1.4^^p) and of the order-q estimate
    ("[1.4++++[1+[[999+++3]//[1000+++3]]]]", "997002999"),
    ("[1.4++++[1+[1//[1000+++3]]]]", "1000000000"),
])
def test_a_height_past_the_step_cap_is_refused_before_any_search(monkeypatch, text, height):
    # every tower these values need passes the height-step cap, and the
    # values are modest (a super-root near e^(1/e)): the refusal names the
    # cap, not a magnitude, and comes before the float sizing, the estimate,
    # the slope and the search, each of which takes about `height` steps
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the height-step cap")

    for name in ("brent", "_tower_pass", "_tower_slope", "_integer_order_estimate"):
        monkeypatch.setattr(hyperops, name, unreachable)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=f"unrolling a height of {height} needs [0-9]+"
                                            " applications, over the cap of 50000"):
        adaptive_evaluate(parse(text), NumericContext(digits=30))
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# fractional heights via the mediant-table split


def test_half_height_matches_super_root_oracle():
    out = hyper_forward(4, Fraction(2), Fraction(1, 2), T10)
    assert out.radius <= T10
    assert abs(out.center - ROOT_XX_2) <= out.radius + Fraction(1, 10**45)
    out = hyper_forward(4, Fraction(3, 2), Fraction(1, 2), T10)
    assert abs(out.center - ROOT_XX_3_2) <= out.radius + Fraction(1, 10**45)


def test_unroll_makes_one_pass(monkeypatch):
    # With budgets of 0 extra bits (their blow-up checks still run), the
    # tower's one pass misses 10^-30 and returns the rigorous ball it
    # reached; `evaluate` then re-runs the term tighter, so the digits do
    # not change.  The slope is withheld (each pass returns its probe
    # alone): the loop's tail ball fills its tolerance, where the
    # interval-Newton one lands well inside it.
    T30 = Fraction(1, 10**30)
    want = hyper_forward(4, Fraction(2), Fraction(5, 2), T30)
    real_pass = hyperops._tower_pass
    monkeypatch.setattr(hyperops, "_tower_pass",
                        lambda x, m, order, ft, t: (real_pass(x, m, order, ft, t)[0], None))
    real_budgets, real_towers = hyperops._unroll_budgets, hyperops._levels
    monkeypatch.setattr(hyperops, "_unroll_budgets", lambda *args: [0] * len(real_budgets(*args)))
    real_level, ranks, levels = midops._exact_power, [], []

    def towers_spy(rank, base, height, tol):  # every tower, a probe's or a pass's
        ranks.append(rank)
        return real_towers(rank, base, height, tol)

    def level_spy(base, value, tol):  # every rank-4 level asks for an exact power first
        levels.append((base.center, tol))
        return real_level(base, value, tol)

    monkeypatch.setattr(hyperops, "_levels", towers_spy)
    monkeypatch.setattr(midops, "_exact_power", level_spy)
    # 2^^(5/2) = 2^2^(2^^(1/2)): each of the two levels over base 2 runs
    # once, at its tolerance, in the rank-4 loop and not through rank 3
    out = hyper_forward(4, Fraction(2), Fraction(5, 2), T30)
    assert out.radius > T30 and out.overlaps(want)
    assert 3 not in ranks
    assert [t for b, t in levels if b == 2 and t <= T30] == [T30, T30]
    _, expansion = adaptive_evaluate(parse("[2++++2.5]"), NumericContext(digits=30))
    assert expansion.text() == "7.715407895929149507014225249034"


def sqrt2_ball() -> Ball:
    return midops.root(Fraction(2), Fraction(2), midops.SeriesConfig(Fraction(1, 2**80)))


@pytest.mark.parametrize("base, height", [
    (Fraction(3 * 2**44 + 1, 2**45), Fraction(4)),  # x^^4 at a dyadic probe point
    (Fraction(2), Fraction(11, 4)),  # [2++++2.75]'s unroll: two levels over its tail
    (None, Fraction(50)),  # over the ball of sqrt 2
])
def test_a_rank_4_tower_takes_one_ln_of_its_base(monkeypatch, base, height):
    # every level is e^(T ln x) over one ln x, where a `power` a level took
    # ln x once per level
    base = sqrt2_ball() if base is None else Ball(base)
    real_ln, lns = midops._ln_ball, []

    def spy(ball, tn, td):
        lns.append(ball)
        return real_ln(ball, tn, td)

    monkeypatch.setattr(midops, "_ln_ball", spy)
    hyper_forward(4, base, height, T12)
    assert lns.count(base) == 1


def power_unroll(base: Ball, height: int, tol: Fraction) -> Ball:
    """base^^height by one `midops.power` a level at the unroll's budgets:
    the per-level reference for the one-ln tower."""
    ln_base = midops._log_abs_float(*midops._lowest(base.c, base.d))
    logs = [ln_base] + hyperops._tower_logs(ln_base, ln_base, height - 1)
    budgets = hyperops._unroll_budgets(logs, ln_base)
    value = base
    for i in range(1, height):
        value = midops.power(base, value, midops.SeriesConfig(tol / 2**budgets[i]))
    return value


TOWER_BASES = st.one_of(
    st.fractions(min_value=1, max_value=Fraction(8, 5), max_denominator=1000),  # exact
    st.integers(2**40, 2**40 * 8 // 5).map(lambda n: Fraction(n, 2**40)),  # dyadic
    st.builds(lambda c, k: Ball(Fraction(c, 1000), Fraction(1, 2**k)),  # balls
              st.integers(1001, 1600), st.integers(30, 80)),
)


@given(TOWER_BASES, st.integers(2, 8), st.integers(30, 400))
@settings(max_examples=40, deadline=None)
def test_the_one_ln_tower_holds_the_per_level_powers(base, height, bits):
    # a tower over its one ln overlaps the tower of one `power` a level at
    # the same budgets, and meets the tolerance wherever that one does
    base, tol = Ball(base) if isinstance(base, Fraction) else base, Fraction(1, 2**bits)
    want = power_unroll(base, height, tol)
    out = hyper_forward(4, base, Fraction(height), tol)
    assert out.overlaps(want)
    assert out.radius <= tol or want.radius > tol


@pytest.mark.parametrize("text, digits", [
    ("[2++++0.6]", "1.666774951264724950684505544750"),
    ("[2++++2.6]", "9.031968186735586767850245830509"),
])
def test_fifths_heights_certify(text, digits):
    # 2^^(3/5) and 2^^(13/5) take the super-root of 2^^3 = 16 of order 5,
    # whose search now starts near the root; the digits are mpmath's
    # rational-height split at 50 digits, truncated
    _, expansion = adaptive_evaluate(parse(text), NumericContext(digits=30))
    assert expansion.text() == digits


def mpmath_split_11_4(x: Fraction):
    """x^^(11/4) = x^(x^y) with y^^4 = x^^3, the rational-height split, by
    mpmath bisection for y at 200 bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        x = mpmath.mpf(x.numerator) / x.denominator
        goal, lo, hi = x ** (x ** x), mpmath.mpf(1), x
        for _ in range(200):  # y^^4 increases for y >= 1, and y <= x
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid ** (mid ** (mid ** mid)) < goal else (lo, mid)
        return x ** (x ** lo)


def eval_within(seconds, text):
    proc = subprocess.run([sys.executable, "-m", "hypercalc", "eval", text, "--digits", "20"],
                          capture_output=True, text=True, timeout=seconds)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_steep_super_root_searches_certify_within_five_seconds():
    # both searches start next to roots where x^^q is steep: one probe far
    # past the root would be a power of thousands of bits, so each ends at
    # once only if every probe goes toward the root
    value = eval_within(5, "[[2.75+++3]----[2.75-0]]")
    assert value == "2.13267592713549151056"
    x = Fraction(value)
    # 1331/64 is a float exactly
    assert mpmath_split_11_4(x) <= 1331 / 64 <= mpmath_split_11_4(x + Fraction(1, 10**20))
    # perfbench/oracles.tower_fractional(5, 11/4) at 400 bits, truncated
    value = eval_within(5, "[5++++2.75]")
    assert value == "60106627595490688163733857294361831027.06032680872600197724"


def counted_calls(monkeypatch, module, name):
    """A list that gets one entry per call of module.name."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_a_split_with_inexact_goals_searches_once_per_tail(monkeypatch):
    # every probe of the order-11/4 search evaluates x^^(11/4), whose tail
    # is one search for the inexact goal x^^3: 17 searches in all, where a
    # coarse tail solve and a search per end of each goal made 65
    searches = counted_calls(monkeypatch, hyperops, "brent")
    _, expansion = adaptive_evaluate(parse("[[2.75+++3]----[2.75-0]]"), NumericContext(digits=20))
    assert expansion.text() == "2.13267592713549151056"
    assert len(searches) <= 32


@pytest.mark.parametrize("digits", [20, 25, 30])
@pytest.mark.parametrize("text", ["[2++++2.75]", "[2++++2.5]", "[2++++1.5]", "[3++++1.5]",
                                  "[1.5++++2.5]", "[1.5++++0.75]"])
def test_a_fractional_height_is_one_search_in_one_round(monkeypatch, text, digits):
    # the tail's budgets are sized in floats, and they never cost the term
    # another refinement round
    searches = counted_calls(monkeypatch, hyperops, "brent")
    rounds = counted_calls(monkeypatch, engine, "_eval_once")
    adaptive_evaluate(parse(text), NumericContext(digits=digits))
    assert (len(searches), len(rounds)) == (1, 1)


def test_split_against_direct_root():
    # a ^^ (p/q) must agree with the root of X ^^ q = a ^^ p found directly
    from hypercalc.rootfind import Bracket, brent
    from hypercalc.hyperops import _forward

    for a in (Fraction(3, 2), Fraction(2), Fraction(3)):
        for p, q in ((1, 2), (1, 3), (2, 3), (3, 4)):
            split = hyper_forward(4, a, Fraction(p, q), T8)
            tower = hyper_forward(4, a, Fraction(p), Fraction(1, 10**16))

            def g(x, ft, t=tower.center):
                try:
                    return _forward(4, Ball(x), Fraction(q), ft) - t
                except ResourceError:
                    # integer towers grow monotonically, so a blowup is
                    # certainly above the target
                    return Ball(abs(t) + 1)

            direct = brent(
                g,
                Bracket(Fraction(1), tower.center),
                RootConfig(T8),
            )
            assert split.overlaps(direct), (a, p, q)


# ---------------------------------------------------------------------------
# super-root


def test_super_root_worked_example():
    out = hyper_inverse_minus(4, Fraction(3), Fraction(2), Fraction(1, 10**15))
    assert abs(out.center - ROOT_XX_3) <= out.radius + Fraction(1, 10**45)


def test_super_root_integer_answers():
    out = hyper_inverse_minus(4, Fraction(16), Fraction(3), T12)
    assert out.contains(2) and out.radius <= T12
    out = hyper_inverse_minus(4, Fraction(65536), Fraction(4), T10)
    assert out.contains(2)


def test_integer_super_roots_are_checked_exactly_before_any_search(monkeypatch):
    # an estimate within 2^-30 of an integer n >= 2 is checked with the exact
    # tower n^^q, and a hit is returned as Ball(n) without a search
    def no_search(*args, **kwargs):
        raise AssertionError("the root finder ran")

    monkeypatch.setattr(hyperops, "brent", no_search)
    for goal, order, root in ((27, 2, 3), (256, 2, 4), (65536, 4, 2), (16, 3, 2)):
        out = hyper_inverse_minus(4, Fraction(goal), Fraction(order), T12)
        assert out == Ball(Fraction(root))


def test_super_root_of_one_and_order_one():
    assert hyper_inverse_minus(4, Fraction(1), Fraction(5), T12).center == 1
    a = Fraction(7, 2)
    out = hyper_inverse_minus(4, a, Fraction(1), T12)
    assert out.center == a and out.radius == 0


def test_super_root_fractional_order():
    # x (-^4) (1/2) = (x (+^4) 2) (-^4) 1 = x (+^4) 2
    direct = hyper_inverse_minus(4, Fraction(2), Fraction(1, 2), T10)
    forward2 = hyper_forward(4, Fraction(2), Fraction(2), T10)
    assert direct.overlaps(forward2)
    # order above one, non-integer: solves x (+^4) (3/2) = 5
    out = hyper_inverse_minus(4, Fraction(5), Fraction(3, 2), T8)
    back = hyper_forward(4, out.center, Fraction(3, 2), Fraction(1, 10**10))
    assert abs(back.center - 5) <= 100 * (back.radius + out.radius * 30)


def mpmath_super_root(value: Fraction, order: int, bits: int = 300):
    """[lo, hi] around the x >= 1 with x^^order = value, for value >= 1, by
    mpmath bisection at `bits` bits on [1, max(value, 2)], which holds it as
    x^^order >= x; a tower stops once a level passes the value, as x^^k
    grows with k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(bits):
        v = mpmath.mpf(value.numerator) / value.denominator

        def too_big(x):
            level = x
            for _ in range(order - 1):
                if level > v:
                    return True
                level = x**level
            return level > v

        lo, hi = mpmath.mpf(1), max(v, mpmath.mpf(2))
        for _ in range(bits + 10):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if too_big(mid) else (mid, hi)
        return lo, hi


@given(order=st.integers(2, 5),
       goal=st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
       spread=st.integers(0, 1 << 20),
       bits=st.integers(30, 120))
@settings(max_examples=40, deadline=None)
def test_an_inexact_goal_takes_one_widened_search(order, goal, spread, bits):
    # an integer order q >= 2 and a goal g +/- r with g - r >= 1: one search
    # at g, widened by r, holds the roots of both ends, as x^^q has slope
    # >= 1 on x >= 1; the radius is at most tol beyond r (and at most tol
    # for an exact goal), where no enclosure of both roots can be within tol
    assume(goal > 1)
    radius = min(goal * Fraction(spread, 1 << 40), goal - 1)
    tol = Fraction(1, 1 << bits)
    out = hyper_inverse_minus(4, Ball(goal, radius), Fraction(order), tol)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(300):
        lo = mpmath.mpf(out.lo.numerator) / out.lo.denominator
        hi = mpmath.mpf(out.hi.numerator) / out.hi.denominator
        assert lo <= mpmath_super_root(goal - radius, order)[0]
        assert mpmath_super_root(goal + radius, order)[1] <= hi
    assert out.radius <= tol + radius
    if not radius:
        assert out.radius <= tol


def encloses_mpmath_root(out: Ball, goal: Fraction, order: int) -> bool:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(400):
        lo, hi = mpmath_super_root(goal, order, bits=400)
        return (mpmath.mpf(out.lo.numerator) / out.lo.denominator <= lo
                and hi <= mpmath.mpf(out.hi.numerator) / out.hi.denominator)


@given(order=st.integers(2, 6),
       goal=st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
       bits=st.integers(20, 200))
@settings(max_examples=40, deadline=None)
def test_an_exact_goal_is_one_search_within_tol(order, goal, bits):
    # the interval-Newton steps from a slope ball of x^^q certify the root
    # inside the one search; an integer root is checked without a search
    assume(goal > 1)
    tol = Fraction(1, 1 << bits)
    with pytest.MonkeyPatch.context() as mp:
        searches = counted_calls(mp, hyperops, "brent")
        out = hyper_inverse_minus(4, goal, Fraction(order), tol)
    assert out.radius <= tol
    if out.radius:
        assert encloses_mpmath_root(out, goal, order)
    else:  # an exact root, which no bisection bracket fits inside: its tower is goal
        assert hyper_forward(4, out.center, Fraction(order), tol) == Ball(goal)
    assert len(searches) == 1 or (not searches and out == Ball(out.center)
                                  and out.center.denominator == 1)


def capped_first_tower(monkeypatch, seam):
    """Certify 1000 (-^4) 3 with the first tower through `seam` past the
    magnitude cap: (each interval-Newton step's result, every answer of f,
    the numerators f(m) of the quotients f(m) / D)."""
    real, calls = getattr(hyperops, seam), []

    def tower(*args):
        calls.append(args)
        if len(calls) == 1:
            raise MagnitudeError("tower magnitude exceeds the configured cap")
        return real(*args)

    monkeypatch.setattr(hyperops, seam, tower)
    newton, steps = rootfind._newton, []
    monkeypatch.setattr(rootfind, "_newton", lambda *args: steps.append(newton(*args)) or steps[-1])
    quotient, numerators = rootfind._quotient, []
    monkeypatch.setattr(rootfind, "_quotient",
                        lambda c, r, d, *slope: numerators.append(Fraction(c, d)) or quotient(c, r, d, *slope))
    search, answers = hyperops.brent, []
    monkeypatch.setattr(hyperops, "brent", lambda f, *args, **kwargs: search(
        lambda x, ft: answers.append(f(x, ft)) or answers[-1], *args, **kwargs))
    tol = Fraction(1, 10**30)
    out = hyper_inverse_minus(4, Fraction(1000), Fraction(3), tol)
    assert out.radius <= tol and encloses_mpmath_root(out, Fraction(1000), 3)
    assert len(calls) > 1
    # probes f answered with the bound 2 goal + 2 - goal (the capped one,
    # and towers past the cap on the bracket) took no quotient
    assert Fraction(1002) in answers and Fraction(1002) not in numerators
    return steps, answers, numerators


def test_a_capped_probe_is_a_sign_and_never_a_newton_step(monkeypatch):
    # the first tower, the first step's pass, raises MagnitudeError, so
    # `_capped` answers with its bound 2 goal + 2, and f with goal + 2: a
    # sign, and no enclosure of f.  The step from the start stops there, as
    # its slope is missing too, and no quotient f(m) / D of any later step
    # takes the bound, so it never enters an N(X)
    steps, _, numerators = capped_first_tower(monkeypatch, "_levels")
    assert steps == [None] and numerators


def test_a_capped_lone_probe_is_a_sign_and_never_a_newton_step(monkeypatch):
    # the first probe a step makes alone, with the slope in hand, is past
    # the cap: the step from the start succeeds, and that probe's bound
    # enters no N(X) either
    steps, _, numerators = capped_first_tower(monkeypatch, "_forward")
    assert len(steps) == 1 and steps[0] is not None and len(numerators) >= 2


# the largest center drawn for each order: x^^order stays below 10^13
SLOPE_CENTERS = {1: 1000, 2: 8, 3: 3, 4: 2, 5: 1.8}


@given(order=st.integers(1, 5), data=st.data(), width=st.integers(8, 120),
       bits=st.integers(20, 200))
@settings(max_examples=80, deadline=None)
def test_tower_slope_holds_the_derivative_over_its_ball(order, data, width, bits):
    # (x^^q)' by mpmath at 600 bits, from T_1 = x, T_1' = 1, T_k = x^T_(k-1),
    # T_k' = T_k (T_(k-1)' ln x + T_(k-1) / x), at both ends and the middle
    # of X = [c, c + 2^(1-width) c] lies in the slope ball, which may be
    # None only for a ball too wide
    mpmath = pytest.importorskip("mpmath")
    c = 1 + Fraction(data.draw(st.floats(0, SLOPE_CENTERS[order] - 1))).limit_denominator(2**60)
    x = Ball(c + c / 2**width, c / 2**width)
    slope = hyperops._tower_slope(x, order, Fraction(1, 2**bits))
    if slope is None:
        assert width < 40
        return
    with mpmath.workprec(600):
        for point in (x.lo, x.center, x.hi):
            v = mpmath.mpf(point.numerator) / point.denominator
            level, d = v, mpmath.mpf(1)
            for _ in range(order - 1):
                up = mpmath.power(v, level)
                level, d = up, up * (d * mpmath.log(v) + level / v)
            want = Fraction(int(mpmath.floor(d * mpmath.mpf(2) ** 500)), 2**500)
            slack = (abs(want) + 1) / 2**490
            assert slope.lo - slack <= want <= slope.hi + slack


def mpmath_tower_slope(v, order: int):
    """(v^^order, (v^^order)') by mpmath, from T_1 = v, T_1' = 1."""
    mpmath = pytest.importorskip("mpmath")
    level, d = v, mpmath.mpf(1)
    for _ in range(order - 1):
        up = mpmath.power(v, level)
        level, d = up, up * (d * mpmath.log(v) + level / v)
    return level, d


@given(n=st.integers(1, 2), r=st.integers(2, 4), data=st.data(), width=st.integers(8, 120),
       bits=st.integers(20, 200))
@settings(max_examples=40, deadline=None)
def test_fractional_slope_holds_the_derivative_over_its_ball(n, r, data, width, bits):
    # (x^^(n + p/r))' by mpmath at 600 bits: y from y^^r = x^^p by findroot,
    # y' = (x^^p)' / (y^^r)'(y), then n levels of the recurrence from (y, y'),
    # at both ends and the middle of X = [c, c + 2^(1-width) c], lies in the
    # slope ball, which may be None only for a ball too wide
    mpmath = pytest.importorskip("mpmath")
    tail = Fraction(data.draw(st.integers(1, r - 1)), r)  # the split takes lowest terms
    p, r = tail.numerator, tail.denominator
    c = 1 + Fraction(data.draw(st.floats(0.01, 2))).limit_denominator(2**60)
    x = Ball(c + c / 2**width, c / 2**width)
    slope = hyperops._tower_slope(x, n + tail, Fraction(1, 2**bits))
    if slope is None:
        assert width < 40
        return
    with mpmath.workprec(600):
        for point in (x.lo, x.center, x.hi):
            v = mpmath.mpf(point.numerator) / point.denominator
            goal, up = mpmath_tower_slope(v, p)
            # y^^(r-1) ln y = ln goal: 60 bisection steps on [1, x] at 80
            # bits, then findroot's secant steps from the pair at 600
            g = lambda y: mpmath_tower_slope(y, r - 1)[0] * mpmath.log(y) - mpmath.log(goal)
            lo, hi = mpmath.mpf(1), v
            with mpmath.workprec(80):
                for _ in range(60):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
            y = mpmath.findroot(g, (lo, hi), tol=mpmath.mpf(2)**-1180)
            level, d = y, up / mpmath_tower_slope(y, r)[1]
            for _ in range(n):
                up = mpmath.power(v, level)
                level, d = up, up * (d * mpmath.log(v) + level / v)
            want = Fraction(int(mpmath.floor(d * mpmath.mpf(2) ** 500)), 2**500)
            slack = (abs(want) + 1) / 2**490
            assert slope.lo - slack <= want <= slope.hi + slack


@pytest.mark.parametrize("text", ["[1000----3]", "[1.5++++0.75]"])
def test_a_start_off_by_2_to_the_minus_30_falls_back_to_the_same_digits(monkeypatch, text):
    # X0 = start +/- 2^-46 x then misses the root, so N(X0) leaves X0; the
    # loop the steps fall back to certifies the same digits
    ctx = NumericContext(digits=30)
    want = adaptive_evaluate(parse(text), ctx)[1].text()
    estimate, newton, steps = hyperops._super_root_estimate, rootfind._newton, []
    monkeypatch.setattr(hyperops, "_super_root_estimate",
                        lambda goal, order: estimate(goal, order) + 2.0**-30)
    monkeypatch.setattr(rootfind, "_newton",
                        lambda *args: steps.append(newton(*args)) or steps[-1])
    assert adaptive_evaluate(parse(text), ctx)[1].text() == want
    assert steps == [None]


@pytest.mark.parametrize("goal, order", [
    (Ball(Fraction(100), Fraction(1, 10**9)), Fraction(5, 2)),
    (Ball(Fraction(100), Fraction(1, 10**9)), Fraction(7, 3)),
    (Ball(Fraction(3, 2), Fraction(1, 10**9)), Fraction(3, 4)),
    (Ball(1 + Fraction(1, 10**6), Fraction(2, 10**6)), Fraction(3)),  # reaches below 1
    (Ball(Fraction(10**50), Fraction(10**30)), Fraction(4)),
    (Ball(Fraction(10**50), Fraction(10**30)), Fraction(3, 2)),
])
def test_an_inexact_goal_of_any_order_is_one_search(goal, order):
    # x^^order has slope >= 1 on x >= 1 for every order, and from order 2
    # up so has its ln, so a goal g +/- r is the one search of max(g, 1),
    # widened by r, or by r / max(g - r, 1) from order 2 up: as many
    # searches as the exact goal's at tol / 2 (order 3/4 searches once, on
    # x^^4 = g^^4), and it holds the roots of both ends, an end below 1
    # read as 1
    with pytest.MonkeyPatch.context() as mp:
        searches = counted_calls(mp, hyperops, "brent")
        out = hyper_inverse_minus(4, goal, order, T12)
    with pytest.MonkeyPatch.context() as mp:
        exact = counted_calls(mp, hyperops, "brent")
        hyper_inverse_minus(4, max(goal.center, Fraction(1)), order, T12 / 2)
    assert len(searches) == len(exact) >= 1
    low = hyper_inverse_minus(4, max(goal.lo, Fraction(1)), order, T12 / 1000)
    high = hyper_inverse_minus(4, goal.hi, order, T12 / 1000)
    assert out.lo <= low.lo and high.hi <= out.hi
    if order >= 2:
        assert out.radius <= T12 + goal.radius / max(goal.lo, 1)
    elif order > 1:
        assert out.radius <= T12 + goal.radius


def test_a_steep_tail_over_a_ball_certifies():
    # the tail of 3.59^^2.75 solves y^^4 = x^^3 for a goal near 10^54, whose
    # radius is about 10^54 times the base's: widened by r, the tail's
    # radius would pass the spread exp takes in the next step; widened by r
    # / (g - r), the change of ln over the goal, the term certifies
    _, expansion = adaptive_evaluate(parse("[[5-[2---2]]++++2.75]"), NumericContext(digits=20))
    assert expansion.text() == "6571539464.59482751806915423121"


@pytest.mark.parametrize("height", [Fraction(3), Fraction(5, 2), Fraction(1, 2), Fraction(50),
                                    Fraction(500)])
def test_a_tower_over_a_ball_holds_the_towers_of_its_ends(height):
    # [[2---2]++++h]: ball arithmetic over the ball of sqrt 2, each level
    # over one ln and, for a fractional height, a search for an inexact goal,
    # holds the towers of both exact ends of that ball.  At 500 levels an
    # exp radius of 2 r e^c took the exp arguments past the spread exp takes
    base = sqrt2_ball()
    assert not base.is_exact
    out = hyper_forward(4, base, height, T12)
    for end in (base.lo, base.hi):
        want = hyper_forward(4, end, height, T12 / 1000)
        assert out.lo <= want.lo and want.hi <= out.hi


@pytest.mark.parametrize("goal, order", [(Fraction(3), 243), (Fraction(10), 3125)])
def test_the_slope_of_a_long_tower_is_a_ball(goal, order):
    # over a ball 2^-45 wide at the root's estimate: an exp radius of 2 r
    # e^c, twice e^c's Lipschitz bound, compounded level by level past the
    # spread exp takes (level 50 of 3,124), and the slope was None
    x = Fraction(hyperops._super_root_estimate(goal, Fraction(order)))
    slope = hyperops._tower_slope(Ball(x, Fraction(1, 2**46)), Fraction(order), Fraction(1, 2**60))
    assert slope is not None and slope.lo >= 1


# the largest center drawn for each order in the pass's property: its
# tower stays within reach of mpmath at 600 bits
PASS_CENTERS = {2: 3, 3: 3, 4: 2, 5: 1.8, 6: 1.6}


@given(order=st.integers(2, 6), data=st.data(), w=st.integers(20, 200),
       below=st.integers(0, 3), above=st.integers(1, 4), bits=st.integers(20, 200),
       probe_bits=st.integers(20, 200))
@settings(max_examples=60, deadline=None)
def test_a_tower_pass_gives_the_probe_and_the_slope_over_its_ball(
        order, data, w, below, above, bits, probe_bits):
    # one pass at the point x of X = [x - below 2^-w, x + above 2^-w], which
    # is off center as a bracket's halves are around their probe: its probe
    # overlaps the tower `_forward` takes at x, and its slope ball holds
    # (y^^order)' by mpmath at 600 bits at X's ends and middle.  The slope
    # may be None only for a ball too wide
    mpmath = pytest.importorskip("mpmath")
    x = 1 + Fraction(data.draw(st.floats(0, PASS_CENTERS[order] - 1))).limit_denominator(2**60)
    lo, hi = x - Fraction(below, 2**w), x + Fraction(above, 2**w)
    ft, t = Fraction(1, 2**probe_bits), Fraction(1, 2**bits)
    probe, slope = hyperops._tower_pass(Ball((lo + hi) / 2, (hi - lo) / 2), x, Fraction(order), ft, t)
    assert probe.overlaps(hyperops._forward(4, Ball(x), Fraction(order), ft))
    if slope is None:
        assert w < 40
        return
    with mpmath.workprec(600):
        for point in (lo, (lo + hi) / 2, hi):
            _, d = mpmath_tower_slope(mpmath.mpf(point.numerator) / point.denominator, order)
            want = Fraction(int(mpmath.floor(d * mpmath.mpf(2) ** 500)), 2**500)
            slack = (abs(want) + 1) / 2**490
            assert slope.lo - slack <= want <= slope.hi + slack


@pytest.mark.parametrize("center, order", [(Fraction(3, 10), 2), (Fraction(3, 10), 3),
                                           (Fraction(1, 2), 3), (Fraction(9, 10), 4)])
def test_a_tower_pass_below_one_holds_the_slope(center, order):
    # below 1, ln m, the slope and its factor S ln X + L / X go negative:
    # at 0.3 and order 3 a slope whose radii took them as nonnegative missed
    # (x^^3)' at x's ends
    mpmath = pytest.importorskip("mpmath")
    t = Fraction(1, 2**60)
    for r in (Fraction(1, 100), Fraction(1, 1000)):
        _, slope = hyperops._tower_pass(Ball(center, r), center, Fraction(order), t, t)
        with mpmath.workprec(300):
            for point in (center - r, center, center + r):
                _, d = mpmath_tower_slope(mpmath.mpf(point.numerator) / point.denominator, order)
                assert slope.lo <= Fraction(int(mpmath.floor(d * 2**200)), 2**200) <= slope.hi


@pytest.mark.parametrize("bits", [140, 106])
def test_a_newton_step_takes_one_tower_pass(monkeypatch, bits):
    # 5 (-^4) 4 certifies in two interval-Newton steps.  The first takes its
    # probe and its slope ball from one pass over the levels at its point,
    # one ln and three exps, and the second probes alone: 2 lns and 6 exps,
    # where a step that took its slope in a pass of its own made 4 and 12 at
    # 2^-140 (3 and 9 at 2^-106)
    lns = counted_calls(monkeypatch, midops, "_ln_fixed")
    exps = counted_calls(monkeypatch, midops, "_exp_fixed")
    tol = Fraction(1, 2**bits)
    out = hyper_inverse_minus(4, Fraction(5), Fraction(4), tol)
    assert (len(lns), len(exps)) == (2, 6)
    assert out.radius <= tol and encloses_mpmath_root(out, Fraction(5), 4)


# Digits of the searches that run on the bracket alone (no start estimate)
# and of fractional orders, whose passes start from the tail's point value
# and hull: 30 digits in full, and 300 as their last 24 digits and the first
# 16 hex digits of the text's sha256
PASS_DIGITS = {
    ("[1000----3]", True): ("2.384909788604395696350809008456",
                            "446434296599325578815104", "0e02890a4bee099b"),
    ("[5----4]", True): ("1.655390902316565458626735639722",
                         "604296310932119019572343", "326eb967080e05c7"),
    ("[1.5----3]", True): ("1.323071732497974374992197274387",
                           "325343772274457653342279", "e6283c1df572dff7"),
    ("[100----3]", True): ("2.212795806325899665140289117345",
                           "644428105085852857324674", "f46cfc422f31a1ce"),
    ("[1000----2.5]", False): ("2.856947410036250866430240085297",
                               "784829955095531203514722", "75f14e335b2b5853"),
    ("[1000----2.5]", True): ("2.856947410036250866430240085297",
                              "784829955095531203514722", "75f14e335b2b5853"),
    ("[5----[7//3]]", False): ("1.892598407982046079810458678617",
                               "996555795436171416461892", "f7bfe9fd43276988"),
    ("[5----[7//3]]", True): ("1.892598407982046079810458678617",
                              "996555795436171416461892", "f7bfe9fd43276988"),
    ("[100----[11//4]]", False): ("2.377574279826627898609493988166",
                                  "780595508281868478574600", "1b0374d5990643d2"),
    ("[[2.75+++3]----[2.75-0]]", False): ("2.132675927135491510560521043560",
                                          "687978958244430929737803", "d86b5f55797bb0a3"),
}


@pytest.mark.parametrize("text, bracket_only", sorted(PASS_DIGITS))
def test_one_pass_steps_certify_the_pinned_digits(monkeypatch, text, bracket_only):
    if bracket_only:
        monkeypatch.setattr(hyperops, "_super_root_estimate", lambda goal, order: None)
    short, tail, digest = PASS_DIGITS[text, bracket_only]
    assert adaptive_evaluate(parse(text), NumericContext(digits=30))[1].text() == short
    long = adaptive_evaluate(parse(text), NumericContext(digits=300))[1].text()
    assert long.startswith(short[:-1]) and long.endswith(tail)
    assert hashlib.sha256(long.encode()).hexdigest()[:16] == digest


def test_a_fractional_tail_estimates_its_root_once(monkeypatch):
    # the tail's budgets and its search start share one float estimate
    calls = counted_calls(monkeypatch, hyperops, "_integer_order_estimate")
    out = hyper_forward(4, Fraction(2), Fraction(11, 4), T12)
    assert calls == [(math.log(16), 4)]  # ln(2^^3), order 4
    assert out.contains(hyper_forward(4, Fraction(2), Fraction(11, 4), T12 / 1000).center)


@pytest.mark.parametrize("order, goal_bits, tol_bits, evaluations", [
    # (g - 1)^2 > tol: interval-Newton steps from 1 + e - e^2, e = g - 1,
    # certify the root (from the float estimate 1.0 the loop took 8 and 9)
    (3, 60, 200, 5), (6, 100, 300, 5),
    # (g - 1)^2 <= tol: the root lies within e^2 of the bracket's end g,
    # where no step can tell them apart; the loop certifies it from the
    # float estimate, with no wasted step
    (2, 100, 100, 7), (6, 300, 300, 15),
])
def test_a_goal_that_rounds_to_one_takes_newton_steps_where_they_certify(
        monkeypatch, order, goal_bits, tol_bits, evaluations):
    # the float estimate of such a root is 1.0, the bracket's lower end,
    # where no interval-Newton step can start
    newton, steps = rootfind._newton, []

    def spy(f, slope, bracket, tol, x):
        out = newton(f, slope, bracket, tol, x)
        steps.append(out is not None)
        return out

    monkeypatch.setattr(rootfind, "_newton", spy)
    search, probes = hyperops.brent, []
    monkeypatch.setattr(hyperops, "brent", lambda f, *args, **kwargs: search(
        lambda x, ft: probes.append(x) or f(x, ft), *args, **kwargs))
    goal, tol = 1 + Fraction(1, 1 << goal_bits), Fraction(1, 1 << tol_bits)
    out = hyper_inverse_minus(4, goal, Fraction(order), tol)
    assert steps == [Fraction(1, 1 << 2 * goal_bits) > tol]
    assert len(probes) <= evaluations
    assert out.radius <= tol
    # the root is within about (g - 1)^2 of g: the reference resolves that,
    # and the tolerance
    bits = max(2 * goal_bits, tol_bits) + 100
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(bits):
        lo, hi = mpmath_super_root(goal, order, bits=bits)
        assert mpmath.mpf(out.lo.numerator) / out.lo.denominator <= lo
        assert hi <= mpmath.mpf(out.hi.numerator) / out.hi.denominator


def test_super_root_domain():
    with pytest.raises(DomainError):
        hyper_inverse_minus(4, Fraction(1, 2), Fraction(2), T12)
    with pytest.raises(DomainError):
        hyper_inverse_minus(4, Fraction(3), Fraction(0), T12)
    with pytest.raises(DomainError):
        hyper_inverse_minus(4, Fraction(3), Fraction(-2), T12)


# ---------------------------------------------------------------------------
# super-log


def test_super_log_integer_answers():
    out = hyper_inverse_slash(4, Fraction(4), Fraction(2), T12)
    assert out.center == 2 and out.radius == 0
    out = hyper_inverse_slash(4, Fraction(16), Fraction(2), T12)
    assert out.center == 3 and out.radius == 0


def test_super_log_self():
    for b in (Fraction(3, 2), Fraction(2), Fraction(11, 3)):
        forward = hyper_forward(4, b, Fraction(1), T12)
        assert forward.center == b  # forward oracle for the self case
        out = hyper_inverse_slash(4, b, b, T12)
        assert out.center == 1 and out.radius == 0


def test_super_log_domain():
    with pytest.raises(DomainError):
        hyper_inverse_slash(4, Fraction(1), Fraction(2), T12)
    with pytest.raises(DomainError):
        hyper_inverse_slash(4, Fraction(4), Fraction(1), T12)
    with pytest.raises(DomainError):
        hyper_inverse_slash(4, Fraction(1, 2), Fraction(2), T12)


def test_super_log_exact_or_refuse():
    # integer answers, and rational heights whose split checks exactly with
    # integer towers: 4 (+4) (1/2) = 2 since 2 (+4) 2 = 4 (+4) 1
    for rank, value, base, height in [
        (4, 16, 2, 3), (4, 27, 3, 2), (4, 2, 4, Fraction(1, 2)),
        (4, 16, 4, Fraction(3, 2)), (4, 2, 16, Fraction(1, 3)),
        (4, 256, 16, Fraction(4, 3)), (5, 2, 4, Fraction(1, 2)),
        (5, 65536, 2, 3),  # 2 (+5) 3 = 65536; 2 (+5) 4 blows the cap
    ]:
        out = hyper_inverse_slash(rank, Fraction(value), Fraction(base), T12)
        assert (out.center, out.radius) == (height, 0), (rank, value, base)
    # everything else refuses at once, naming the enclosing integer heights
    for value, base, lo in [(3, 2, 1), (7, 2, 2), (10, 2, 2), (100, 3, 2),
                            (2, 3, 0), (Fraction(3, 2), 2, 0), (4, 16, 0)]:
        with pytest.raises(DomainError, match=f"integer heights {lo} and {lo + 1}"):
            hyper_inverse_slash(4, Fraction(value), Fraction(base), T12)
    with pytest.raises(DomainError, match="needs an exact value and base"):
        hyper_inverse_slash(4, Ball(Fraction(3), T12), Fraction(2), T12)


def test_super_root_rank5_exact_or_refuse():
    for value, order, root in [(4, 2, 2), (65536, 3, 2), (2, Fraction(1, 2), 4)]:
        out = hyper_inverse_minus(5, Fraction(value), Fraction(order), T12)
        assert (out.center, out.radius) == (root, 0), (value, order)
    for value, order, lo in [(5, 2, 2), (2, 2, 1)]:
        with pytest.raises(DomainError, match=f"integer bases {lo} and {lo + 1}"):
            hyper_inverse_minus(5, Fraction(value), Fraction(order), T12)
    # the forward split at rank 5 needs one: 3 (+5) (1/2) = 3 (-5) 2
    with pytest.raises(DomainError, match="integer bases 1 and 2"):
        hyper_forward(5, Fraction(3), Fraction(1, 2), T12)
    with pytest.raises(DomainError, match="needs an exact value"):
        hyper_inverse_minus(5, Ball(Fraction(5), T12), Fraction(2), T12)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_super_root_rank4():
    rng = random.Random(31)
    for _ in range(6):
        x = Fraction(rng.randrange(5, 12), 4)  # 1.25 .. 3
        for q in (Fraction(2), Fraction(3)):
            fwd = hyper_forward(4, x, q, Fraction(1, 10**14))
            back = hyper_inverse_minus(4, fwd, q, T10)
            assert back.contains(x), (x, q)


def test_round_trip_super_root_rank5_exact():
    fwd = hyper_forward(5, Fraction(2), Fraction(2), T12)
    back = hyper_inverse_minus(5, fwd, Fraction(2), Fraction(1, 10**6))
    assert back.contains(2)


def test_round_trip_super_log_rank4():
    # Exact integer towers land exactly.  A fractional height round-trips
    # only when its split checks exactly with integer towers (see
    # test_super_log_exact_or_refuse); the forward map is not continuous in
    # its height, so no search between integer heights can certify more.
    for b in (Fraction(2), Fraction(3)):
        fwd = hyper_forward(4, b, Fraction(2), Fraction(1, 10**14))
        assert fwd.is_exact
        back = hyper_inverse_slash(4, fwd, b, T8)
        assert back.contains(2), b
    fwd = hyper_forward(4, Fraction(2), Fraction(3), Fraction(1, 10**12))
    back = hyper_inverse_slash(4, fwd, Fraction(2), T8)
    assert back.contains(3)


def test_height_split_forgets_the_height_as_q_grows():
    # 2 (+4) (p/q) tends to sqrt(2) for p = 1 and to e^(1/e) for p = 3 as q
    # grows (mpmath, 100 bits: 1.4142..., 1.4504...), whatever p/q is; so
    # 3/40 < 1/10 maps above 1/10, while 2 (+4) 0 = 1
    sqrt2 = Fraction("1.41421356237309504880168872420969807857")
    e_1_e = Fraction("1.44466786100976613365833910859643022305")
    one_40 = hyper_forward(4, Fraction(2), Fraction(1, 40), T8)
    three_40 = hyper_forward(4, Fraction(2), Fraction(3, 40), T8)
    one_10 = hyper_forward(4, Fraction(2), Fraction(1, 10), T8)
    assert abs(one_40.center - sqrt2) + one_40.radius < Fraction(1, 10**6)
    assert abs(three_40.center - e_1_e) + three_40.radius < Fraction(1, 100)
    assert three_40.lo > one_10.hi
    assert hyper_forward(4, Fraction(2), Fraction(0), T8).center == 1


def test_height_map_is_not_monotone_across_denominators():
    # the documented pathology: 7/5 < 3/2 but the forward values reverse
    lo = hyper_forward(4, Fraction(2), Fraction(7, 5), T10)
    hi = hyper_forward(4, Fraction(2), Fraction(3, 2), T10)
    assert lo.lo > hi.hi


# ---------------------------------------------------------------------------
# structure


def test_rank_reduction():
    # a (+^r) 2 = a (+^(r-1)) a; the rank-6 case with base 3 already
    # unrolls a tower of height 3^27 and is a blow-up by design
    cases = [(4, Fraction(2)), (4, Fraction(3)), (4, Fraction(5, 2)),
             (5, Fraction(2)), (5, Fraction(3)), (6, Fraction(2))]
    for rank, a in cases:
        two = hyper_forward(rank, a, Fraction(2), T12)
        if rank == 4:
            from hypercalc.midops import SeriesConfig, power

            reference = power(a, a, SeriesConfig(T12))
        else:
            reference = hyper_forward(rank - 1, a, a, T12)
        assert two.overlaps(reference), (rank, a)
    with pytest.raises(ResourceError):
        hyper_forward(6, Fraction(3), Fraction(2), T12)


def test_monotone_in_base():
    bases = [Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
    values = [hyper_forward(4, a, Fraction(3, 2), T10) for a in bases]
    for lo, hi in zip(values, values[1:]):
        assert lo.hi < hi.lo


def test_monotone_in_height():
    heights = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
               Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2)]
    values = [hyper_forward(4, Fraction(2), b, T10) for b in heights]
    for lo, hi in zip(values, values[1:]):
        assert lo.hi < hi.lo


def test_ball_base_encloses_endpoints():
    base = Ball(Fraction(2), Fraction(1, 1000))
    out = hyper_forward(4, base, Fraction(3), T8)
    assert out.contains(16)
    lo_val = hyper_forward(4, base.lo, Fraction(3), T10)
    hi_val = hyper_forward(4, base.hi, Fraction(3), T10)
    assert out.lo <= lo_val.center <= out.hi
    assert out.lo <= hi_val.center <= out.hi


def test_root_finder_budget_is_one_config(monkeypatch):
    # a direct super-root call and the same operator reached through
    # `evaluate` run the same root search under the same caps: rootfind's
    # constants, read when each search runs
    real_brent, seen = hyperops.brent, []

    def spy(f, bracket, cfg, **kw):
        seen.append(bracket)
        return real_brent(f, bracket, cfg, **kw)

    monkeypatch.setattr(hyperops, "brent", spy)
    # [3----2] has an irrational root, so both paths search
    term = parse("[[[1+1]+1]----[1+1]]")
    hyper_inverse_minus(4, Fraction(3), Fraction(2), T12)
    direct = list(seen)
    seen.clear()
    evaluate(term, NumericContext(digits=12))
    assert direct == seen == [rootfind.Bracket(Fraction(1), Fraction(3))]
    assert (rootfind.MAX_ITERATIONS, rootfind.MAX_EXPANSIONS) == (1000, 80)
    # the search starts at an estimate good to about 2^-50, where one probe
    # and one slope ball of x^^2 certify the root at 2^-40 by an
    # interval-Newton step; so a budget that must stop it allows no probe
    monkeypatch.setattr(rootfind, "MAX_ITERATIONS", 1)
    assert hyper_inverse_minus(4, Fraction(16), Fraction(2), T12).radius <= T12
    monkeypatch.setattr(rootfind, "MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError, match="iteration budget"):
        hyper_inverse_minus(4, Fraction(16), Fraction(2), T12)
    with pytest.raises(ConvergenceError, match="iteration budget"):
        evaluate(term, NumericContext(digits=12))
