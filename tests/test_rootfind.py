import random
from fractions import Fraction

import pytest

from hypercalc import rootfind
from hypercalc.balls import Ball
from hypercalc.errors import ConvergenceError, DomainError
from hypercalc.rootfind import (
    MAX_EXPANSIONS, Bracket, RootConfig, bisect_integers, brent, expand_upper,
)

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
