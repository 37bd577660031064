import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercalc import hyperops, rootfind
from hypercalc.balls import Ball
from hypercalc.engine import NumericContext, adaptive_evaluate
from hypercalc.errors import AmbiguityError, ConvergenceError, DomainError
from hypercalc.rootfind import (
    MAX_EXPANSIONS, Bracket, RootConfig, bisect_integers, brent, expand_upper,
)
from hypercalc.terms import parse

TOL10 = RootConfig(Fraction(1, 10**10))


def exact_fn(poly):
    """Wrap an exact rational function as a Ball-valued probe."""

    def f(x, tol):
        return Ball(poly(x))

    return f


def bisect_oracle(poly, lo, hi, steps):
    for _ in range(steps):
        mid = (lo + hi) / 2
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


SQRT2_62 = Fraction(
    "1.41421356237309504880168872420969807856967187537694807317667973"
)


def test_sqrt2_against_bisection_oracle():
    poly = lambda x: x * x - 2
    out = brent(exact_fn(poly), Bracket(Fraction(1), Fraction(2)), TOL10)
    assert out.radius <= Fraction(1, 10**10)
    lo, hi = bisect_oracle(poly, Fraction(1), Fraction(2), 40)
    assert out.lo <= (lo + hi) / 2 <= out.hi
    assert abs(out.center - SQRT2_62) <= out.radius + Fraction(1, 10**60)


def test_linear_interior_root_is_exact():
    out = brent(exact_fn(lambda x: x - 1), Bracket(Fraction(0), Fraction(2)), TOL10)
    assert out.center == 1 and out.radius == 0


def test_root_at_endpoint():
    out = brent(exact_fn(lambda x: x), Bracket(Fraction(0), Fraction(1)), TOL10)
    assert out.center == 0 and out.radius == 0


def test_root_at_upper_endpoint():
    out = brent(exact_fn(lambda x: x - 1), Bracket(Fraction(0), Fraction(1)), TOL10)
    assert out == Ball(Fraction(1))


def test_probe_on_a_root_that_never_certifies_is_nudged():
    # f(1/2) is a ball around 0 at every tolerance: the secant lands there,
    # the sign resolver gives up, and brent probes 1/1024 of the bracket
    # further before going on
    probes = []

    def f(x, tol):
        probes.append(x)
        return Ball(x - Fraction(1, 2), tol)

    out = brent(f, Bracket(Fraction(0), Fraction(1)), TOL10)
    assert out.contains(Fraction(1, 2)) and out.radius <= Fraction(1, 10**10)
    first = probes.index(Fraction(1, 2))
    assert probes[first:first + rootfind._SIGN_ROUNDS] == [Fraction(1, 2)] * rootfind._SIGN_ROUNDS
    assert probes[first + rootfind._SIGN_ROUNDS] == Fraction(1, 2) + Fraction(1, 1024)


def test_a_root_on_an_uncertified_end_is_ambiguous_at_once():
    # f is exactly 0 at the bracket's lower end but only ever answers a ball
    # around it: no probe inside the bracket can certify that end, so the
    # search stops at its first ambiguity there instead of nudging
    r = Fraction(547137, 100)
    calls = []

    def f(x, t):
        calls.append(x)
        y = x - r
        return Ball(Fraction(4 * y**3 + 48 * y, 2**34), t / 8)

    with pytest.raises(AmbiguityError, match="the root may sit exactly on it"):
        brent(f, Bracket(r, r + Fraction(856, 100)), RootConfig(Fraction(1, 10**5)))
    assert len(calls) <= 200
    assert calls[-rootfind._SIGN_ROUNDS:] == [r] * rootfind._SIGN_ROUNDS


def spy(*answers):
    """f answering its n-th call with the n-th of `answers` (the last one
    from then on), each a function of the tolerance asked for; the
    tolerances are recorded in f.tols."""

    def f(x, tol):
        f.tols.append(tol)
        return answers[min(len(f.tols), len(answers)) - 1](tol)

    f.tols = []
    return f


def is_power_of_two(t):
    return t.numerator == 1 and t.denominator & (t.denominator - 1) == 0


@pytest.mark.parametrize("center", [Fraction(1, 10**6), Fraction(-3, 10**7)])
def test_straddle_is_asked_again_below_its_center(center):
    # a ball c ± 2|c| straddles zero; the next ball is c ± tol/2
    f = spy(lambda t: Ball(center, 2 * abs(center)), lambda t: Ball(center, t / 2))
    sign, _ = rootfind._sign(f, Fraction(1))
    assert sign == (1 if center > 0 else -1) and len(f.tols) == 2
    first, second = f.tols
    assert is_power_of_two(second)
    assert second <= min(first / 4, abs(center) / 8)


@pytest.mark.parametrize("scale", [Fraction(1, 2**20), Fraction(3, 2**22)])
def test_straddle_around_zero_is_asked_again_below_its_radius(scale):
    radius = rootfind._START_SIGN_TOL * scale
    f = spy(lambda t: Ball(Fraction(0), radius), lambda t: Ball(Fraction(1), t))
    assert rootfind._sign(f, Fraction(1)) == (1, 1) and len(f.tols) == 2
    first, second = f.tols
    assert first == rootfind._START_SIGN_TOL
    assert is_power_of_two(second) and second <= radius / 4


def test_tolerance_falls_at_least_4x_for_balls_wider_than_asked():
    f = spy(lambda t: Ball(Fraction(1), Fraction(2)))
    with pytest.raises(AmbiguityError):
        rootfind._sign(f, Fraction(1))
    assert len(f.tols) == rootfind._SIGN_ROUNDS
    assert all(later <= earlier / 4 for earlier, later in zip(f.tols, f.tols[1:]))


def test_probe_with_a_sign_definite_second_ball_takes_two_evaluations():
    # f(x) = 3 * 2^-40, enclosed 2^20 times tighter than asked, with the
    # center off by half the radius: the first ball straddles zero, and the
    # second, asked for below its center, excludes it (a 4x step needs four)
    value = Fraction(3, 2**40)
    f = spy(lambda t: Ball(value + t / 2**21, t / 2**20))
    sign, _ = rootfind._sign(f, Fraction(1))
    assert sign == 1 and len(f.tols) == 2


def mpmath_cube_super_root(goal: Fraction) -> str:
    """The x >= 1 with x^(x^x) = goal, truncated to 30 digits, by mpmath
    bisection at 200 bits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        target = mpmath.mpf(goal.numerator) / goal.denominator
        lo, hi = mpmath.mpf(1), target
        for _ in range(200):  # x^(x^x) increases for x >= 1
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid ** (mid**mid) < target else (lo, mid)
        whole = int(mpmath.floor(lo * 10**30))
    return f"{whole // 10**30}.{whole % 10**30:030d}"


@pytest.mark.parametrize("text, goal", [
    ("[100----3]", Fraction(100)), ("[1000----3]", Fraction(1000)), ("[1.5----3]", Fraction(3, 2)),
])
def test_super_root_sign_queries_take_at_most_two_evaluations(monkeypatch, text, goal):
    evaluations, sign = [], rootfind._sign

    def counting(f, x, t=rootfind._START_SIGN_TOL):
        calls = []
        try:
            return sign(lambda x, t: calls.append(t) or f(x, t), x, t)
        finally:
            evaluations.append(len(calls))

    monkeypatch.setattr(rootfind, "_sign", counting)
    _, expansion = adaptive_evaluate(parse(text), NumericContext(digits=30))
    assert evaluations and max(evaluations) <= 2
    assert expansion.text() == mpmath_cube_super_root(goal)


def test_any_start_encloses_the_root_within_the_tolerance():
    # the start only places the first probe: at the root's float, a little
    # off it on either side, at either end of the bracket or at none, the
    # answer still contains the root with radius <= the tolerance
    rng = random.Random(7)
    for _ in range(30):
        root = 1 + Fraction(rng.randrange(1, 10**6), 10**6)
        f = exact_fn(lambda x, r=root: x**3 - r**3)
        for start in (None, 1.0, 3.0, float(root), float(root) + 1e-3, float(root) - 1e-7):
            out = brent(f, Bracket(Fraction(1), Fraction(3)), TOL10, start=start)
            assert out.contains(root) and out.radius <= TOL10.x_tolerance, (root, start)


MILLIONTHS = st.integers(-5 * 10**6, 5 * 10**6)
WIDTHS = st.integers(1, 10**7)


@given(MILLIONTHS, MILLIONTHS, st.integers(0, 50), st.integers(1, 50), WIDTHS, WIDTHS)
@settings(max_examples=40, deadline=None)
def test_every_probe_goes_toward_the_root(root, bend, cubic, linear, below, above):
    # f = cubic * ((x - s)^3 - (r - s)^3) + linear * (x - r) increases and
    # vanishes at r; a probe certified + at x is an upper end, so no later
    # probe exceeds x, and one certified - is a lower end
    r, s = Fraction(root, 10**6), Fraction(bend, 10**6)
    lo, hi = r - Fraction(below, 10**6), r + Fraction(above, 10**6)
    for start in (r, float(r), float(r) + 1e-9, float(r) - 1e-9, r + 10**6, lo, hi, None):
        probes = []

        def f(x, tol):
            ball = Ball(cubic * ((x - s) ** 3 - (r - s) ** 3) + linear * (x - r), tol / 8)
            probes.append((x, 1 if ball.lo > 0 else -1 if ball.hi < 0 else 0))
            return ball

        out = brent(f, Bracket(lo, hi), TOL10, start=start)
        assert out.contains(r) and out.radius <= TOL10.x_tolerance, start
        a, b = lo, hi
        for x, sign in probes:
            assert a <= x <= b, start
            a, b = (x, b) if sign < 0 else (a, x) if sign > 0 else (a, b)


# where the root r lies against the bracket, as the bracket's ends from r
# and two widths
PLACES = {
    "inside": lambda r, u, v: (r - u, r + v),
    "on the lower end": lambda r, u, v: (r, r + v),
    "on the upper end": lambda r, u, v: (r - u, r),
    "below": lambda r, u, v: (r + u, r + u + v),
    "above": lambda r, u, v: (r - u - v, r - u),
}


@given(MILLIONTHS, MILLIONTHS, st.integers(0, 50), st.integers(1, 50), WIDTHS, WIDTHS,
       st.sampled_from(sorted(PLACES)),
       st.sampled_from(["none", "root", "root's float", "lower end", "upper end", "offset"]),
       MILLIONTHS, st.booleans())
@settings(max_examples=60, deadline=None)
@example(0, 0, 0, 1, 1, 2, "inside", "none", 0, True)  # N(X) moves both ends at once
def test_an_end_no_probe_certified_is_checked_once_the_steps_end(
        root, bend, cubic, linear, u, v, place, start, offset, with_slope):
    # f = cubic * ((x - s)^3 - (r - s)^3) + linear * (x - r), exactly 0 at r
    # only, with its exact slope ball over X: the bracket's ends are probed
    # after every other probe, where none certified their sign and no N(X)
    # moved them.  A root inside is enclosed within the tolerance, one
    # exactly on an end is that end, exact, and one outside the bracket is
    # a DomainError, from any start
    r, s = Fraction(root, 10**6), Fraction(bend, 10**6)
    lo, hi = PLACES[place](r, Fraction(u, 10**6), Fraction(v, 10**6))
    x = {"none": None, "root": r, "root's float": float(r), "lower end": lo, "upper end": hi,
         "offset": r + Fraction(offset, 10**6)}[start]
    probes = []

    def f(x, tol):
        value = cubic * ((x - s) ** 3 - (r - s) ** 3) + linear * (x - r)
        ball = Ball(value, tol / 8 if value else 0)
        probes.append((x, -1 if ball.hi < 0 else 1 if ball.lo > 0 else 0))
        return ball

    def slope(X, t, m):  # 3 cubic (x - s)^2 + linear over X
        ends = ((X.lo - s) ** 2, (X.hi - s) ** 2)
        low, high = 0 if X.lo <= s <= X.hi else min(ends), max(ends)
        low, high = 3 * cubic * low + linear, 3 * cubic * high + linear
        return Ball((low + high) / 2, (high - low) / 2)

    search = lambda: brent(f, Bracket(lo, hi), TOL10, start=x, slope=slope if with_slope else None)
    if place in ("below", "above"):
        with pytest.raises(DomainError, match="does not straddle"):
            search()
    else:
        out = search()
        if place == "inside":
            assert out.contains(r) and out.radius <= TOL10.x_tolerance
        else:
            assert out.center == r and out.radius == 0
    inner = [sign for x, sign in probes if lo < x < hi]
    ends = [x for x, _ in probes[len(inner):]]
    assert all(x in (lo, hi) for x in ends)
    assert lo not in ends or -1 not in inner
    assert hi not in ends or 1 not in inner
    if place == "inside" and out.radius and not with_slope:
        # a bisection: an end is probed wherever no probe certified it
        assert (lo in ends or -1 in inner) and (hi in ends or 1 in inner)
    if place == "inside" and with_slope and not cubic:
        # f is linear and its slope ball exact, so from any start the first
        # N(X) is the root within f's radius, strictly inside X: it moves
        # both ends, or proves X around the estimate, and no end is probed
        assert not ends


def evaluations_per_search(monkeypatch):
    """A list that gets, for each `hyperops.brent` search as it runs, the
    number of times the search evaluates its f."""
    real_brent, counts = hyperops.brent, []

    def spy(f, *args, **kwargs):
        counts.append(0)

        def counted(x, t):
            counts[-1] += 1
            return f(x, t)

        return real_brent(counted, *args, **kwargs)

    monkeypatch.setattr(hyperops, "brent", spy)
    return counts


@pytest.mark.parametrize("text", ["[5----4]", "[1000----3]", "[100----3]", "[1.5----3]", "[2++++0.5]",
                                  "[5++++2.75]", "[3----[3+++5]]"])
def test_super_root_searches_take_at_most_eight_evaluations(monkeypatch, text):
    # each starts at a float estimate with a slope ball of x^^q: one
    # interval-Newton step there and one or two more certify the root
    # (the loop without a slope took up to 8: a probe there, one beside it,
    # Newton-type steps and the closing pair).  The order-243 slope ball
    # holds over all its levels only with exp's radius at e^c r (1 + r):
    # at 2 r e^c it failed, and the search bisected in 90 evaluations
    counts = evaluations_per_search(monkeypatch)
    adaptive_evaluate(parse(text), NumericContext(digits=30))
    assert counts and max(counts) <= 4


def test_a_newton_point_on_a_certified_end_still_closes(monkeypatch):
    # at 25 digits the loop's Newton point of [1.5----3] rounds onto its
    # certified lower end, where a split would halve down from the upper end
    # (34 evaluations); the interval-Newton steps never get there
    counts = evaluations_per_search(monkeypatch)
    adaptive_evaluate(parse("[1.5----3]"), NumericContext(digits=25))
    assert counts and max(counts) <= 4


@pytest.mark.parametrize("text, estimate", [
    ("[100----3]", 1e6), ("[100----3]", 1.0), ("[100----3]", None),
    ("[1.5----3]", 1e6), ("[1.5----3]", None), ("[2++++0.5]", 1.0),
    ("[5----4]", 1e6), ("[5----4]", None),
    # fractional tails, whose budgets are sized by their own estimate
    ("[2++++2.75]", None), ("[2++++2.75]", 1e6), ("[1.5++++0.75]", None), ("[1.5++++0.75]", 1e6),
    # a start on the bracket's end and none at all: the steps on [1, g]
    # must stay clear of towers whose ln passes the series term cap, and of
    # the split's blow-up at the midpoint of [1, 2.75^^3]
    ("[1000----3]", 1.0), ("[[2.75+++3]----[2.75-0]]", None),
])
def test_a_bad_start_estimate_certifies_the_same_digits(monkeypatch, text, estimate):
    # the estimate only places the first probe: one far above the root
    # (clamped to the goal), at the bracket's lower end, or none at all (the
    # bracket's midpoint) still ends in the same certified digits
    ctx = NumericContext(digits=30)
    want = adaptive_evaluate(parse(text), ctx)[1].text()
    monkeypatch.setattr(hyperops, "_super_root_estimate", lambda goal, order: estimate)
    # a fractional tail hands its search the estimate that sized its
    # budgets; dropping it sends that search to the bad one as well
    inverse = hyperops._inverse_minus
    monkeypatch.setattr(hyperops, "_inverse_minus",
                        lambda rank, target, order, tol, start=None: inverse(rank, target, order, tol))
    search, starts = hyperops.brent, []
    monkeypatch.setattr(hyperops, "brent", lambda *args, start=None, **kwargs: starts.append(start)
                        or search(*args, start=start, **kwargs))
    assert adaptive_evaluate(parse(text), ctx)[1].text() == want
    assert starts and all(start == estimate for start in starts)


# (x, ft) for each probe `brent` hands f, as (n, e, t) for x = n / 2^e and
# ft = 2^-t, for the searches behind the inputs at 30 digits.  [1000----3]
# with its slope takes an interval-Newton step at the start, asked at about
# |X| rad(D) / lo(D), and one at the midpoint of N, asked at the tolerance.
# The other two pin the steps on the bracket [1, goal].  With the start
# 2^-30 above its estimate, the first step's box misses the root; the steps
# on the bracket probe the start again at 2^-12, as no slope ball holds over
# [1, 1000], halve X at |c| / 8 until one does, and then close on N(X).
# [100----3] without a start estimate splits the bracket at the mean binary
# exponent of its ends, then at midpoints while the slope ball is missing or
# too wide, and certifies by steps on N(X) once it is not.  A step that asks
# for a slope ball gets f(m) from the same pass, within a finer tolerance than
# the step asks, so after the first interval-Newton step the points sit where
# N(X) from that ball puts them; each search probes as often, at the same
# tolerances, as when the step's probe was a tower of its own.
PINNED_PROBES = [
    ("[100----3]", "no estimate", Fraction(1, 408 * 10**40), [
        (8, 0, 12),
        (2, 0, 4),
        (5, 0, 4),
        (7, 1, 4),
        (11, 2, 4),
        (19, 3, 4),
        (35, 4, 4),
        (73, 5, 4),
        (143, 6, 4),
        (283, 7, 1),
        (6317743145915546595871911926603169043432402603, 151, 7),
        (6316419219455910650134700299318465753236143875, 151, 22),
        (3158207709024744539530811432127907643439584819, 150, 54),
        (6316415418016128722272884819559347429316963779, 151, 119),
        (1579103854504032180567578311265027313575727901, 149, 134),
    ]),
    ("[1000----3]", "with slope", Fraction(1, 4008 * 10**40), [
        (2685169708817751, 50, 73),
        (1701928496548741144684663050302199133415904579, 149, 133),
    ]),
    ("[1000----3]", "off by 2^-30", Fraction(1, 4008 * 10**40), [
        (2685169709866327, 50, 73),
        (2685169709866327, 50, 12),
        (3811069616708951, 51, 21),
        (9181409036441605, 52, 4),
        (19922087875906913, 53, 4),
        (41403445554837529, 54, 4),
        (84366160912698761, 55, 4),
        (170291591628421225, 56, 1),
        (54407018053314976283383462177137937843806418971, 154, 1),
        (13615264179228177842078439885127261356760824599, 152, 13),
        (54461711807840956707239727888649100960699762519, 154, 39),
        (54461711889559719347924209533892581643782174547, 154, 86),
        (27230855944779858314954608804832947392640273817, 153, 133),
    ]),
]


@pytest.mark.parametrize("text, estimate, tol, pinned", PINNED_PROBES)
def test_integer_search_repeats_the_fraction_search_probes(monkeypatch, text, estimate, tol, pinned):
    searches = []

    def recorded(f, bracket, cfg, start=None, slope=None):
        probes = []
        searches.append((cfg.x_tolerance, probes))
        return brent(lambda x, ft: probes.append((x, ft)) or f(x, ft), bracket, cfg,
                     start=start, slope=slope)

    monkeypatch.setattr(hyperops, "brent", recorded)
    real = hyperops._super_root_estimate
    if estimate == "off by 2^-30":
        monkeypatch.setattr(hyperops, "_super_root_estimate",
                            lambda goal, order: real(goal, order) + 2.0**-30)
    if estimate == "no estimate":
        monkeypatch.setattr(hyperops, "_super_root_estimate", lambda goal, order: None)
    adaptive_evaluate(parse(text), NumericContext(digits=30))
    want = [(Fraction(n, 1 << e), Fraction(1, 1 << t)) for n, e, t in pinned]
    assert searches == [(tol, want)]


# A fractional order has a slope ball through the split, and a start
# estimate through it: the outer search of [1000----2.5] at 30 digits takes
# an interval-Newton step at the start and one at the midpoint of N.  Its
# probes (x, ft) as (n, e, t): x = n / 2^e, ft = 2^-t.
FRACTIONAL_PROBES = [
    (3216636822814091, 50, 74),
    (32620572793252055513796242060467390138876067729, 153, 134),
]


def test_a_fractional_order_search_repeats_the_pinned_probes(monkeypatch):
    searches = []

    def recorded(f, bracket, cfg, start=None, slope=None):
        probes = []
        searches.append((cfg.x_tolerance, slope is not None, probes))
        return brent(lambda x, ft: probes.append((x, ft)) or f(x, ft), bracket, cfg,
                     start=start, slope=slope)

    monkeypatch.setattr(hyperops, "brent", recorded)
    adaptive_evaluate(parse("[1000----2.5]"), NumericContext(digits=30))
    want = [(Fraction(n, 1 << e), Fraction(1, 1 << t)) for n, e, t in FRACTIONAL_PROBES]
    assert searches[0] == (Fraction(1, 4136 * 10**40), True, want)


@pytest.mark.parametrize("text", ["[1000----2.5]", "[[2.75+++3]----[2.75-0]]", "[5----[7//3]]",
                                  "[100----[11//4]]"])
def test_a_fractional_order_takes_at_most_twelve_evaluations(monkeypatch, text):
    # the outer search and the tails its probes and slope balls solve, all
    # certified by interval-Newton steps from their estimates (the probe
    # loop without a slope took 43-58)
    counts = evaluations_per_search(monkeypatch)
    newton, steps = rootfind._newton, []
    monkeypatch.setattr(rootfind, "_newton", lambda *args: steps.append(newton(*args)) or steps[-1])
    adaptive_evaluate(parse(text), NumericContext(digits=30))
    assert sum(counts) <= 12
    assert steps and None not in steps


def test_a_nudge_finer_than_the_points_so_far():
    # the certified phase splits [0, 1] at 1/2, a root f never certifies:
    # the nudge is 1/1024 of X, finer than any point before it, and the
    # slope ball's steps then close the search
    tol = Fraction(1, 2**20)
    root = Fraction(1, 2)
    probes = []

    def f(x, t):
        probes.append(x)
        return Ball(x - root, t)

    out = rootfind._steps(f, lambda x, t, m: Ball(1), tol, Fraction(0), Fraction(1))
    rounds = rootfind._SIGN_ROUNDS
    assert probes[:rounds] == [root] * rounds
    assert probes[rounds] == root + Fraction(1, 1024)
    assert out.contains(root) and out.radius <= tol


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(Fraction(2), Fraction(1))
    with pytest.raises(DomainError):
        brent(exact_fn(lambda x: x + 1), Bracket(Fraction(0), Fraction(1)), TOL10)


def test_iteration_budget(monkeypatch):
    # the budget is read when a search starts
    monkeypatch.setattr(rootfind, "MAX_ITERATIONS", 5)
    cfg = RootConfig(Fraction(1, 10**30))
    with pytest.raises(ConvergenceError, match="iteration budget"):
        brent(exact_fn(lambda x: x * x - 2), Bracket(Fraction(1), Fraction(2)), cfg)


@pytest.mark.parametrize("poly", [lambda x: x**3 - 2, lambda x: x - Fraction(1, 3)])
def test_a_call_without_a_slope_certifies_within_the_budget(poly):
    # a certified bisection on the bracket, about one bit a probe down to
    # 2^-200, and a probe of each end no probe certified once it stops
    probes = []

    def f(x, t):
        probes.append(x)
        return Ball(poly(x), t / 8)

    tol = Fraction(1, 2**200)
    out = brent(f, Bracket(Fraction(0), Fraction(2)), RootConfig(tol))
    assert out.radius <= tol and poly(out.lo) <= 0 <= poly(out.hi)
    assert len(probes) <= rootfind.MAX_ITERATIONS


def test_bracket_preservation_and_width_decay():
    evals = []

    def f(x, tol):
        evals.append(x)
        return Ball(x * x * x - 5)

    out = brent(f, Bracket(Fraction(1), Fraction(2)), TOL10)
    # f(lo) < 0 < f(hi) held at every accepted probe by construction; check
    # the recorded probes all stayed inside the original bracket
    assert all(1 <= x <= 2 for x in evals)
    assert out.radius <= Fraction(1, 10**10)
    # width decreases at least at bisection rate per pair of evaluations
    n = len(evals)
    assert Fraction(1, 2 ** ((n - 2) // 2 + 1)) >= out.radius or n < 60


def test_monotone_polynomial_suite_against_bisection():
    rng = random.Random(424242)
    for _ in range(50):
        coeffs = [Fraction(rng.randrange(1, 30), rng.randrange(1, 10)) for _ in range(3)]
        shift = Fraction(rng.randrange(1, 200), rng.randrange(1, 20))

        def poly(x, c=coeffs, s=shift):
            # strictly increasing on [0, oo): positive odd powers
            return c[0] * x + c[1] * x**3 + c[2] * x**5 - s

        lo, hi = Fraction(0), Fraction(4)
        if poly(hi) <= 0:
            continue
        out = brent(exact_fn(poly), Bracket(lo, hi), TOL10)
        blo, bhi = bisect_oracle(poly, lo, hi, 40)
        mid = (blo + bhi) / 2
        assert out.lo <= mid <= out.hi or abs(out.center - mid) <= Fraction(1, 10**9)


def test_ambiguous_function_raises():
    # a "function" that can never resolve the sign near its root
    def f(x, tol):
        return Ball(x - 1, tol * 4 + abs(x - 1) * 2)

    with pytest.raises(ConvergenceError):
        brent(f, Bracket(Fraction(0), Fraction(2)), RootConfig(Fraction(1, 10**6)))


def test_expand_upper_examples():
    def pow2(x, tol):
        # 2^x for integer doubling probes; exact
        return Ball(Fraction(2) ** int(x) if x.denominator == 1 else Fraction(0))

    b = expand_upper(pow2, Fraction(5))
    assert (b.lo, b.hi) == (2, 4)
    ident = lambda x, tol: Ball(x)
    b = expand_upper(ident, Fraction(1, 2))
    assert (b.lo, b.hi) == (0, 1)
    # the last probe is m = 2^(MAX_EXPANSIONS - 1)
    top = Fraction(2 ** (MAX_EXPANSIONS - 1))
    assert expand_upper(ident, top - 1) == Bracket(top / 2, top)
    with pytest.raises(ConvergenceError) as err:
        expand_upper(ident, top + 1)
    assert f"within {MAX_EXPANSIONS} doublings" in str(err.value)


def test_expand_upper_exact_hit():
    ident = lambda x, tol: Ball(x)
    b = expand_upper(ident, Fraction(4))
    assert b.lo == b.hi == 4
    out = brent(lambda x, t: Ball(x - 4), b, TOL10)
    assert out.center == 4 and out.radius == 0


def test_bisect_integers_probes_integers_only():
    probes = []

    def cube_minus(goal):
        def f(x, tol):
            probes.append(x)
            return Ball(x**3 - goal)
        return f

    # 5^3 < 200 < 6^3, inside the doubling bracket [4, 8]
    b = bisect_integers(cube_minus(200), Bracket(Fraction(4), Fraction(8)))
    assert b == Bracket(Fraction(5), Fraction(6))
    assert probes and all(x.denominator == 1 for x in probes)
    b = bisect_integers(cube_minus(343), Bracket(Fraction(4), Fraction(8)))
    assert b == Bracket(Fraction(7), Fraction(7))
    degenerate = Bracket(Fraction(4), Fraction(4))
    assert bisect_integers(cube_minus(64), degenerate) == degenerate
