import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercalc import midops
from hypercalc.balls import Ball, _ball
from hypercalc.errors import (
    DomainError, HypercalcError, MagnitudeError, PrecisionError, ResourceError,
)
from hypercalc.midops import SeriesConfig, exp_e, ln_e, log, power, root

from test_balls import reference_divide, reference_round_ball

# Frozen reference values, computed independently by fixed-point partial
# sums: e by sum 1/n! with the factorial tail bound, ln 2 by the Mercator
# series sum (1/2)^n / n, sqrt(2) by integer square root.  62 digits each.
E_62 = Fraction(
    "2.71828182845904523536028747135266249775724709369995957496696762"
)
LN2_62 = Fraction(
    "0.69314718055994530941723212145817656807550013436025525412068000"
)
SQRT2_62 = Fraction(
    "1.41421356237309504880168872420969807856967187537694807317667973"
)

# log base 1 + 2^-20 of 3, by mpmath at 50 digits; 45 kept
LOG3_BASE_NEAR_ONE = Fraction("1151979.02850850881200065633891308166733630719")

TIGHT = SeriesConfig(Fraction(1, 10**40))
MED = SeriesConfig(Fraction(1, 10**12))


def sum_inverse_factorials(terms):
    acc, term = Fraction(0), Fraction(1)
    for n in range(terms):
        acc += term
        term /= n + 1
    return acc


def mercator_ln2(terms):
    acc = Fraction(0)
    p = Fraction(1)
    for n in range(1, terms):
        p /= 2
        acc += p / n
    return acc


def bisect_sqrt(c, halvings):
    lo, hi = Fraction(1), Fraction(c)
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if mid * mid < c:
            lo = mid
        else:
            hi = mid
    return lo


def test_frozen_oracles_are_what_they_claim():
    assert abs(sum_inverse_factorials(60) - E_62) < Fraction(1, 10**60)
    assert abs(mercator_ln2(220) - LN2_62) < Fraction(1, 10**60)
    s = bisect_sqrt(2, 220)
    assert abs(s - SQRT2_62) < Fraction(1, 10**60)


def test_exp_zero_is_exact():
    out = exp_e(Fraction(0), TIGHT)
    assert out.center == 1 and out.radius == 0


def test_exp_one_to_forty_digits():
    out = exp_e(Fraction(1), TIGHT)
    assert out.radius <= Fraction(1, 10**40)
    assert abs(out.center - E_62) <= out.radius + Fraction(1, 10**60)


def test_exp_negative_and_large():
    out = exp_e(Fraction(-3), MED)
    # e^-3 = 1/e^3; compare against the reciprocal of the frozen e cubed
    approx = 1 / E_62**3
    assert abs(out.center - approx) <= out.radius + Fraction(1, 10**30)
    # e^200 against a direct exact partial sum of 200^n/n! (tail < last
    # term once n > 400, by the ratio test)
    acc, term = Fraction(0), Fraction(1)
    for n in range(1, 900):
        acc += term
        term = term * 200 / n
    big = exp_e(Fraction(200), MED)
    assert abs(big.center - acc) <= big.radius + acc * Fraction(1, 10**40)


def test_exp_magnitude_cap():
    with pytest.raises(ResourceError):
        exp_e(Fraction(10**6), MED)


def test_series_term_cap(monkeypatch):
    # the cap is read when a series runs
    monkeypatch.setattr(midops, "MAX_SERIES_TERMS", 3)
    with pytest.raises(ResourceError, match="exp series exceeded the term budget"):
        exp_e(Fraction(1, 3), TIGHT)
    with pytest.raises(ResourceError, match="log series exceeded the term budget"):
        ln_e(Fraction(3), TIGHT)


def test_ln_one_is_exact():
    out = ln_e(Fraction(1), TIGHT)
    assert out.center == 0 and out.radius == 0


def test_ln_two_to_forty_digits():
    out = ln_e(Fraction(2), TIGHT)
    assert out.radius <= Fraction(1, 10**40)
    assert abs(out.center - LN2_62) <= out.radius + Fraction(1, 10**60)


def test_ln_domain():
    with pytest.raises(DomainError):
        ln_e(Fraction(-1), MED)
    with pytest.raises(DomainError):
        ln_e(Fraction(0), MED)


def test_round_trips():
    rng = random.Random(99)
    for _ in range(40):
        a = Fraction(rng.randrange(-1000, 1001), rng.randrange(1, 100))
        if abs(a) > 10:
            continue
        forward = exp_e(a, MED)
        back = ln_e(forward, SeriesConfig(Fraction(1, 10**10)))
        assert back.contains(a), a
    for _ in range(40):
        a = Fraction(rng.randrange(1, 10**4 * 100), rng.randrange(1, 100))
        back = exp_e(ln_e(a, MED), SeriesConfig(Fraction(1, 10**8)))
        assert back.contains(a), a


def test_enclosure_nesting():
    rng = random.Random(7)
    for _ in range(30):
        a = Fraction(rng.randrange(1, 500), rng.randrange(1, 50))
        wide = ln_e(a, SeriesConfig(Fraction(1, 10**8)))
        tight = ln_e(a, SeriesConfig(Fraction(1, 10**8 * 4)))
        assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_power_identity_and_exact():
    rng = random.Random(5)
    for _ in range(25):
        a = Fraction(rng.randrange(1, 400), rng.randrange(1, 40))
        out = power(a, Fraction(1), MED)
        assert out.center == a and out.radius == 0
    out = power(Fraction(2), Fraction(10), MED)
    assert out.center == 1024 and out.radius == 0
    out = power(Fraction(2, 3), Fraction(-2), MED)
    assert out.center == Fraction(9, 4) and out.radius == 0


def test_power_sqrt2():
    out = power(Fraction(2), Fraction(1, 2), SeriesConfig(Fraction(1, 10**10)))
    assert out.radius <= Fraction(1, 10**10)
    assert abs(out.center - SQRT2_62) <= out.radius + Fraction(1, 10**60)


def test_a_failed_root_certificate_falls_back_to_exp_and_ln(monkeypatch):
    # with no guard ulps the Newton root's bracket [r, r] cannot hold the
    # root, so the certificate fails and `power` takes exp/ln instead
    mpmath = pytest.importorskip("mpmath")
    tol = Fraction(1, 10**40)
    assert midops._algebraic_power(2, 1, 1, 3, tol.numerator, tol.denominator) is not None
    monkeypatch.setattr(midops, "_ROOT_GUARD", 0)
    assert midops._algebraic_power(2, 1, 1, 3, tol.numerator, tol.denominator) is None
    out = power(Fraction(2), Fraction(1, 3), SeriesConfig(tol))
    assert out.radius <= tol
    with mpmath.workprec(300):
        want = mpmath.cbrt(2)
        assert mpmath.mpf(out.lo.numerator) / out.lo.denominator <= want
        assert want <= mpmath.mpf(out.hi.numerator) / out.hi.denominator


def test_power_negative_base():
    out = power(Fraction(-2), Fraction(3), MED)
    assert out.center == -8 and out.radius == 0
    with pytest.raises(DomainError):
        power(Fraction(-2), Fraction(1, 2), MED)


def test_power_of_a_ball_reaching_zero():
    # an integer power n >= 2 of a base ball that reaches 0 lies within
    # max|x|^n of 0, snapped at tol_bits + 16 bits
    cfg = SeriesConfig(Fraction(1, 10**40))
    x = Ball(Fraction(0), Fraction(1, 2**40))
    out = power(x, Fraction(3), cfg)
    assert out.center == 0 and out.radius <= Fraction(1, 2**120)
    assert power(x, Fraction(2), cfg) == Ball(Fraction(0), Fraction(1, 2**80))
    # [-1/4, 3/4] and [-1, 0]
    assert power(Ball(Fraction(1, 4), Fraction(1, 2)), Fraction(3), cfg) == Ball(
        Fraction(0), Fraction(27, 64))
    assert power(Ball(Fraction(-1, 2), Fraction(1, 2)), Fraction(2), cfg) == Ball(
        Fraction(0), Fraction(1))
    # past the exact path's size cap, (1/3)^(10^6) is below the snap grid
    assert power(Ball(Fraction(0), Fraction(1, 3)), Fraction(10**6), cfg).radius == Fraction(
        1, 2**150)
    with pytest.raises(MagnitudeError):
        power(Ball(Fraction(0), Fraction(3)), Fraction(10**6), cfg)
    # exponents 0 and 1 keep their exact paths; the rest still refuse
    assert power(x, Fraction(0), cfg) == Ball(Fraction(1))
    assert power(x, Fraction(1), cfg) == x
    for b in (Fraction(-1), Fraction(1, 2), Ball(Fraction(2), Fraction(1, 2**40))):
        with pytest.raises(PrecisionError, match="power base interval reaches zero"):
            power(x, b, cfg)
    with pytest.raises(DomainError, match="power base must be positive"):
        power(Ball(Fraction(-1, 2), Fraction(1, 2)), Fraction(-2), cfg)


def test_power_underflow_is_the_snap_grid_ball(monkeypatch):
    # (1/2)^(10^30000) = 2^-(10^30000) is far below power's snap grid
    # 2^-(tol_bits + 16), which holds it: the ball 0 +/- grid, with no ln or
    # exp sized to the exponent's 100,000 bits
    calls = []
    for name in ("_ln_fixed", "_exp_fixed"):
        monkeypatch.setattr(midops, name, counted(calls, name, getattr(midops, name)))
    bits = midops.tol_bits(TIGHT.target_error) + 16
    grid = Ball(Fraction(0), Fraction(1, 2**bits))
    huge = Fraction(10**30000)
    assert 10**30000 >= bits  # 2^-(10^30000) <= 2^-bits
    assert power(Fraction(1, 2), huge, TIGHT) == grid
    assert power(Fraction(2), -huge, TIGHT) == grid
    assert calls == ["_ln_fixed", "_ln_fixed"]  # the 64-bit certificates
    # balls: every a^b on them is below the grid
    assert power(Ball(Fraction(1, 2), Fraction(1, 2**70)), Ball(huge, Fraction(1)), TIGHT) == grid
    assert power(Ball(Fraction(3), Fraction(1, 10**9)), Ball(-huge, huge / 2), TIGHT) == grid


@pytest.mark.parametrize("b", [Fraction(k, 2) for k in (299, 301, 303, 305, 307)])
@pytest.mark.parametrize("sign", [1, -1])
def test_power_underflow_at_the_grid(monkeypatch, b, sign):
    # bits = 150 at TIGHT.  2^-|b| for |b| = 149.5 ... 153.5: the shortcut
    # takes only the powers below 2^-(bits + 2), and gives each the ball the
    # general path gives it; 2^-150.5, under the grid but over its half,
    # and 2^-149.5 snap to the center 2^-150
    bits = midops.tol_bits(TIGHT.target_error) + 16
    assert bits == 150
    a, b = (Fraction(1, 2), b) if sign > 0 else (Fraction(2), -b)
    out = power(a, b, TIGHT)
    assert (midops._underflow_bits(Ball(a), Ball(b), TIGHT.target_error) != 0) == (abs(b) > 152)
    monkeypatch.setattr(midops, "_underflow_bits", lambda *args: 0)
    assert power(a, b, TIGHT) == out
    grid = Fraction(1, 2**bits)
    assert out == (Ball(grid, grid) if abs(b) < 151 else Ball(Fraction(0), grid))
    # out holds 2^-|b|: lo^2 <= 2^-2|b| <= hi^2, 2|b| odd
    assert max(out.lo, 0) ** 2 <= Fraction(1, 2 ** int(2 * abs(b))) <= out.hi**2


def test_no_underflow_without_a_certain_sign():
    # b ln a must be certainly negative on the balls: a ball exponent around
    # 0 or a ball base around 1 takes the general path
    tol = TIGHT.target_error
    half, big = Ball(Fraction(1, 2)), Fraction(10**6)
    assert midops._underflow_bits(half, Ball(Fraction(0), big), tol) == 0
    assert midops._underflow_bits(Ball(Fraction(1), Fraction(1, 2)), Ball(big), tol) == 0
    assert midops._underflow_bits(Ball(Fraction(2)), Ball(big), tol) == 0
    assert midops._underflow_bits(half, Ball(-big), tol) == 0
    assert midops._underflow_bits(half, Ball(big), tol) == 150
    # (1/2)^152 is a quarter grid exactly: the certificate bounds ln a from
    # below and ln 2 from above, each with an error, so it cannot pass there
    assert midops._underflow_bits(half, Ball(Fraction(152)), tol) == 0
    assert midops._underflow_bits(half, Ball(Fraction(153)), tol) == 150
    # a base ball is judged by its largest value: (1/2)^153 is below a
    # quarter grid, but [1/4, 3/4] reaches (3/4)^153, about 2^-63
    wide = Ball(Fraction(1, 2), Fraction(1, 4))
    assert midops._underflow_bits(wide, Ball(Fraction(153)), tol) == 0


def test_underflow_of_balls_keeps_the_general_grid(monkeypatch):
    # every rank-3 ball result snaps at tol_bits(tol) + 16, ball operands
    # too: at tol = 2^-60 the shortcut gives a ball base the grid 2^-78, the
    # ball the general path gives it and an exact base
    tol = Fraction(1, 2**60)
    cfg = SeriesConfig(tol)
    a, b = Ball(Fraction(1, 2), Fraction(1, 2**70)), Fraction(1000)
    grid = Ball(Fraction(0), Fraction(1, 2**78))
    assert midops._underflow_bits(Ball(a.center), Ball(b), tol) == 78
    assert midops._underflow_bits(a, Ball(b), tol) == 78
    assert power(a, b, cfg) == grid
    assert power(a.center, b + Fraction(1, 3), cfg) == grid
    monkeypatch.setattr(midops, "_underflow_bits", lambda *args: 0)
    assert power(a, b, cfg) == grid
    assert power(a.center, b + Fraction(1, 3), cfg) == grid


def test_power_zero_base():
    assert power(Fraction(0), Fraction(3), MED).center == 0
    with pytest.raises(DomainError):
        power(Fraction(0), Fraction(-1), MED)
    with pytest.raises(DomainError):
        power(Fraction(0), Fraction(0), MED)


def test_power_cap():
    with pytest.raises(ResourceError):
        power(Fraction(2), Fraction(2**21), MED)


def test_root_examples():
    a = Fraction(7, 3)
    out = root(a, Fraction(1), MED)
    assert out.center == a and out.radius == 0
    assert root(Fraction(8), Fraction(3), MED).contains(2)
    out = root(Fraction(2), Fraction(2), SeriesConfig(Fraction(1, 10**10)))
    assert abs(out.center - SQRT2_62) <= out.radius + Fraction(1, 10**60)
    with pytest.raises(DomainError):
        root(Fraction(-1), Fraction(2), MED)
    with pytest.raises(DomainError):
        root(Fraction(2), Fraction(0), MED)


def test_log_examples():
    rng = random.Random(11)
    for _ in range(20):
        a = Fraction(rng.randrange(2, 500), 1) + Fraction(1, rng.randrange(1, 7))
        assert log(a, a, MED).center == 1
    out = log(Fraction(1), Fraction(7, 2), MED)
    assert out.center == 0 and out.radius == 0
    assert log(Fraction(16), Fraction(2), MED).contains(4)
    with pytest.raises(DomainError):
        log(Fraction(-1), Fraction(2), MED)
    with pytest.raises(DomainError):
        log(Fraction(2), Fraction(1), MED)


def test_log_makes_one_attempt(monkeypatch):
    # ln of each operand once, at the target; ln(1 + 2^-20) is about 2^-20,
    # so the quotient's error is about 2^40 times the logs' errors, and the
    # rigorous ball comes back wider than the target for the caller to
    # tighten
    calls = []
    real = midops._ln_fixed

    def spy(num, den, tn, td):
        calls.append(Fraction(num, den))
        return real(num, den, tn, td)

    monkeypatch.setattr(midops, "_ln_fixed", spy)
    tol = Fraction(1, 10**30)
    out = log(Fraction(3), Fraction(7, 2), SeriesConfig(tol))
    assert len(calls) == 2 and out.radius <= tol
    calls.clear()
    out = log(Fraction(3), 1 + Fraction(1, 2**20), SeriesConfig(tol))
    assert len(calls) == 2
    assert tol < out.radius < tol * 2**41
    assert abs(out.center - LOG3_BASE_NEAR_ONE) <= out.radius + Fraction(1, 10**38)


def test_log_refuses_a_base_ball_around_one():
    # a base ball around 1, or an exact base whose ln at the target still
    # reaches 0: `engine.evaluate` asks again at a tighter target
    near = Ball(1 + Fraction(1, 2**40), Fraction(1, 2**38))
    with pytest.raises(PrecisionError, match="log base interval reaches 1"):
        log(Fraction(3), near, MED)
    with pytest.raises(PrecisionError, match="log base interval reaches 1"):
        log(Fraction(3), 1 + Fraction(1, 2**100), SeriesConfig(Fraction(1, 2**50)))


def test_ball_arguments():
    b = Ball(Fraction(2), Fraction(1, 10**6))
    out = exp_e(b, MED)
    assert out.contains(E_62**2)
    out = ln_e(b, MED)
    lo = ln_e(Fraction(2) - Fraction(1, 10**6), SeriesConfig(Fraction(1, 10**12)))
    assert out.contains(lo.center)
    out = power(b, Fraction(2), MED)
    assert out.contains(4)
    out = power(Fraction(2), Ball(Fraction(1, 2), Fraction(1, 10**8)), MED)
    assert out.contains(SQRT2_62) or abs(out.center - SQRT2_62) <= out.radius


small_rats = st.fractions(min_value=Fraction(11, 10), max_value=4, max_denominator=30)
exponents = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=12)


@given(small_rats, exponents, exponents)
@settings(max_examples=60, deadline=None)
def test_power_homomorphism_overlap(a, b1, b2):
    cfg = SeriesConfig(Fraction(1, 10**12))
    combined = power(a, b1 + b2, cfg)
    split = power(a, b1, cfg) * power(a, b2, cfg)
    assert combined.overlaps(split)


@given(small_rats, small_rats, exponents)
@settings(max_examples=60, deadline=None)
def test_power_monotone_in_base(a1, a2, d):
    if a1 == a2:
        return
    lo, hi = sorted((a1, a2))
    cfg = SeriesConfig(Fraction(1, 10**15))
    p_lo = power(lo, d, cfg)
    p_hi = power(hi, d, cfg)
    # strict order with a 4x-radius separation margin
    gap = p_hi.center - p_lo.center
    if gap > 4 * (p_lo.radius + p_hi.radius):
        assert p_lo.hi < p_hi.lo


# ---------------------------------------------------------------------------
# fixed-point kernels

big_ints = st.integers(min_value=-(2**3100), max_value=2**3100)


@given(big_ints, st.integers(min_value=1, max_value=3100))
@settings(max_examples=200, deadline=None)
def test_shift_round_is_nearest(a, bits):
    b = 1 << bits
    assert midops._shift_round(a, bits) == (2 * a + b) // (2 * b)


@given(big_ints, st.integers(min_value=0, max_value=3100),
       st.integers(min_value=1, max_value=2**40))
@settings(max_examples=200, deadline=None)
def test_shift_div_round_is_nearest(a, bits, n):
    b = n << bits
    assert midops._shift_div_round(a, bits, n) == (2 * a + b) // (2 * b)


def floor_fraction(mp_value, bits):
    """floor(v * 2^bits) / 2^bits of an mpmath value: within 2^-bits of it."""
    mpmath = pytest.importorskip("mpmath")
    return Fraction(int(mpmath.floor(mp_value * mpmath.mpf(2) ** bits)), 1 << bits)


def reference(fn, x: Fraction, bits: int) -> Fraction:
    """fn(x) from mpmath to 2^-(bits + 40), independent of hypercalc."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(bits + 80):
        value = getattr(mpmath, fn)(mpmath.mpf(x.numerator) / x.denominator)
        return floor_fraction(value, bits + 40)


def assert_fixed_encloses(kernel_out, want: Fraction, prec: int):
    value, err = kernel_out
    slack = Fraction(1, 1 << (prec + 40))  # the reference's own error
    assert abs(Fraction(value, 1 << prec) - want) <= Fraction(err, 1 << prec) + slack


K_ONE = 1 << midops._SPLIT_BITS


def ln_split(m: Fraction, prec: int):
    return midops._ln_split_fixed(m.numerator, m.denominator, prec)


def exp_split(x: Fraction, prec: int):
    return midops._exp_split_fixed(x.numerator, x.denominator, prec)

# m near 1/2, 1 and 2; c = 2^K (m within 2^-(K+1) of 1, so p = 0); b = 0
# (m a K-bit dyadic, so t = 1); and 3,000-bit dyadics
LN_ARGUMENTS = [
    Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**40), Fraction(2),
    Fraction(2) - Fraction(1, 2**33), Fraction(1) - Fraction(1, 2**30),
    Fraction(1) + Fraction(1, 2**30), Fraction(1) + Fraction(1, 2**20),
    Fraction(3, 4), Fraction(12345678, K_ONE), Fraction(7, 5),
    Fraction(2**2999 + 0x9E3779B97F4A7C15, 2**2999),
    Fraction(3 * 2**2998 - 0x2545F4914F6CDD1D, 2**3000),
]


@pytest.mark.parametrize("prec", [64, 3000])
@pytest.mark.parametrize("m", LN_ARGUMENTS)
def test_ln_split_kernel_encloses(m, prec):
    assert_fixed_encloses(ln_split(m, prec), reference("log", m, prec), prec)


def test_ln_split_kernel_skips_exact_zero_parts(monkeypatch):
    # ln 1 is (0, 0).  From the crossover on, the split skips a part that is
    # exactly zero: c = 2^K leaves only the full-width series, b = 0 (m a
    # K-bit dyadic) only the small-ratio one; at 200 bits both m take the
    # one series in z
    assert ln_split(Fraction(1), 200) == (0, 0)
    near_one = Fraction(1) + Fraction(1, 2**40)
    assert midops._fix(near_one.numerator, near_one.denominator, midops._SPLIT_BITS) == K_ONE
    dyadic = Fraction(3 * 2**23 + 1, 2**24)
    assert (dyadic * K_ONE).denominator == 1
    calls = []
    for name in ("_atanh_series_fixed", "_atanh_ratio_fixed"):
        monkeypatch.setattr(midops, name, counted(calls, name, getattr(midops, name)))
    for m, split_runs in ((near_one, "_atanh_series_fixed"), (dyadic, "_atanh_ratio_fixed")):
        for prec in (200, 3000):
            calls.clear()
            assert_fixed_encloses(ln_split(m, prec), reference("log", m, prec), prec)
            assert calls == ["_atanh_series_fixed" if prec < midops._BASECASE_PREC else split_runs]


@pytest.mark.parametrize("prec", [64, midops._BASECASE_PREC - 1, midops._BASECASE_PREC, 3000])
def test_ln_of_a_small_height_rational_is_one_series(monkeypatch, prec):
    # num + den below 2^(K+1): 2 atanh((num - den)/(num + den)) alone, the
    # same kernel with the same bound, on both sides of the crossover
    calls = []
    for name in ("_atanh_series_fixed", "_atanh_ratio_fixed"):
        monkeypatch.setattr(midops, name, counted(calls, name, getattr(midops, name)))
    for m in (Fraction(7, 5), Fraction(3, 4), Fraction(1, 2), Fraction(2**24 - 3, 2**24 - 1)):
        calls.clear()
        value, err = ln_split(m, prec)
        assert calls == ["_atanh_ratio_fixed"]
        assert_fixed_encloses((value, err), reference("log", m, prec), prec)
    # one more bit of height: below the crossover one full-width series in
    # z, from it on the split's two series
    m = Fraction(2**24 - 3, 2**24 + 5)
    calls.clear()
    value, err = ln_split(m, prec)
    if prec < midops._BASECASE_PREC:
        assert calls == ["_atanh_series_fixed"]
    else:
        assert sorted(calls) == ["_atanh_ratio_fixed", "_atanh_series_fixed"]
    assert_fixed_encloses((value, err), reference("log", m, prec), prec)


EXP_ARGUMENTS = [
    Fraction(1), Fraction(-1), Fraction(1, 2**40), Fraction(-1, 2**30),
    Fraction(5, 8), Fraction(-12345678, K_ONE), Fraction(2, 3), Fraction(-5, 7),
    Fraction(2**2999 - 0x9E3779B97F4A7C15, 2**3000),
]


@pytest.mark.parametrize("prec", [64, 3000])
@pytest.mark.parametrize("x", EXP_ARGUMENTS)
def test_exp_split_kernel_encloses(x, prec):
    assert_fixed_encloses(exp_split(x, prec), reference("exp", x, prec), prec)


@given(st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=10**12),
       st.sampled_from([64, 3000]))
@settings(max_examples=40, deadline=None)
def test_ln_split_kernel_random(m, prec):
    assert_fixed_encloses(ln_split(m, prec), reference("log", m, prec), prec)


@given(st.fractions(min_value=-1, max_value=1, max_denominator=10**12),
       st.sampled_from([64, 3000]))
@settings(max_examples=40, deadline=None)
def test_exp_split_kernel_random(x, prec):
    assert_fixed_encloses(exp_split(x, prec), reference("exp", x, prec), prec)


# ---------------------------------------------------------------------------
# the full-width kernels, summed by rectangular splitting

def series_block(terms: int) -> int:
    """The documented block size k for a term estimate N: isqrt(N/2), or 1
    below `_MIN_SPLIT_TERMS` terms."""
    return math.isqrt(terms // 2) if terms >= midops._MIN_SPLIT_TERMS else 1


def series_bound(kernel: str, xf: int, prec: int) -> int:
    """The ulp bound the kernel's docstring proves, from its argument: J + k +
    1 (exp) or 2J + k + 1 (atanh), with k the documented block size and J
    at most the blocks before the first block start where the scaled term
    is below 1, |x| < 2^-s with s = prec - bits(xf)."""
    s = prec - abs(xf).bit_length()
    shed = -(-prec // s)  # terms n with s n >= prec
    if kernel == "exp":  # x^n / n! 2^prec <= 1/2 from n = max(2, shed)
        k = series_block(prec // s)
        return -(-max(2, shed) // k) + k + 1
    k = series_block(prec // (2 * s))  # b^(2n+1) 2^prec <= 1 from 2n + 1 = shed
    return 2 * -(-max(0, shed - 1) // (2 * k)) + k + 1


def exp_term_loop(xf: int, prec: int) -> int:
    """The term-by-term exp loop the blocks replaced, as it stood."""
    acc, term, n = (1 << prec) + xf, xf, 1
    while not (abs(term) <= 2 and n >= 2):
        n += 1
        term = midops._shift_div_round(term * xf, prec, n)
        acc += term
    return acc


def atanh_term_loop(bf: int, prec: int) -> int:
    """The term-by-term 2 atanh loop the blocks replaced, as it stood."""
    b2 = midops._shift_round(bf * bf, prec)
    acc, power, n = bf, bf, 1
    while abs(power) > 2:
        power = midops._shift_round(power * b2, prec)
        acc += (power + n) // (2 * n + 1)
        n += 1
    return 2 * acc


def assert_series_kernel(kernel: str, x: Fraction, prec: int):
    """The kernel at xf = round(x 2^prec) is within its error of mpmath's
    2^prec f(x) at prec + 64 bits, and that error within the proved bound."""
    mpmath = pytest.importorskip("mpmath")
    xf = midops._fix(x.numerator, x.denominator, prec)
    if kernel == "exp":
        value, err = midops._exp_series_fixed(xf, prec)
    else:
        value, err = midops._atanh_series_fixed(xf, prec)
    assert err <= series_bound(kernel, xf, prec)
    with mpmath.workprec(prec + 64):
        arg = mpmath.mpf(x.numerator) / x.denominator
        f = mpmath.exp(arg) if kernel == "exp" else 2 * mpmath.atanh(arg)
        want = f * mpmath.mpf(2) ** prec
        assert abs(value - want) <= err


@st.composite
def series_arguments(draw):
    """(prec, x): |x| <= 2^-K, the splits' bound, given to 30 bits past
    prec, so that xf's rounding counts too."""
    prec = draw(st.integers(min_value=64, max_value=6000))
    top = 1 << (prec + 30 - midops._SPLIT_BITS)
    n = draw(st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top)))
    return prec, Fraction(n, 1 << (prec + 30))


@given(series_arguments(), st.sampled_from(["exp", "atanh"]))
@example((64, Fraction(1, K_ONE)), "exp")
@example((64, Fraction(-1, K_ONE)), "atanh")
@example((6000, Fraction(1, K_ONE)), "exp")
@example((6000, Fraction(-1, K_ONE)), "atanh")
@settings(max_examples=150, deadline=None)
def test_series_kernels_enclose_within_their_bound(args, kernel):
    assert_series_kernel(kernel, args[1], args[0])


@given(st.integers(min_value=30, max_value=800), st.data())
@settings(max_examples=150, deadline=None)
def test_short_series_are_the_term_loop(prec, data):
    # below `_MIN_SPLIT_TERMS` estimated terms k = 1, and the kernels give
    # the term-by-term loop's value to the bit
    top = 1 << (prec - midops._SPLIT_BITS)
    xf = data.draw(st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top)))
    s = prec - abs(xf).bit_length()
    if prec // s < midops._MIN_SPLIT_TERMS:
        assert midops._exp_series_fixed(xf, prec)[0] == exp_term_loop(xf, prec)
    if prec // (2 * s) < midops._MIN_SPLIT_TERMS:
        assert midops._atanh_series_fixed(xf, prec)[0] == atanh_term_loop(xf, prec)


@pytest.mark.parametrize("kernel", ["exp", "atanh"])
@pytest.mark.parametrize("x", [Fraction(1, K_ONE), Fraction(-1, K_ONE),
                               Fraction(-0x2545F4914F6CDD1D, 1 << 90), Fraction(0)])
def test_series_kernels_enclose_at_32000_bits(kernel, x):
    assert_series_kernel(kernel, x, 32000)


@st.composite
def wide_series_arguments(draw, kernel):
    """(prec, x) over the whole range each bound is proved for: |x| <= 2^-6
    for exp (`_exp_fixed`'s reduction below the crossover), |x| <= 1/3 for
    atanh (`_ln_split_fixed`'s z on [1/2, 2])."""
    prec = draw(st.integers(min_value=48, max_value=4000))
    top = (1 << (prec + 30 - 6)) if kernel == "exp" else (1 << (prec + 30)) // 3
    n = draw(st.one_of(st.sampled_from([top, -top, top - 1]), st.integers(-top, top)))
    return prec, Fraction(n, 1 << (prec + 30))


@given(st.data(), st.sampled_from(["exp", "atanh"]))
@settings(max_examples=120, deadline=None)
def test_series_kernels_enclose_over_their_whole_range(data, kernel):
    prec, x = data.draw(wide_series_arguments(kernel))
    assert_series_kernel(kernel, x, prec)


# `_exp_fixed` and `_ln_fixed` on both sides of `_BASECASE_PREC`: the reduced
# exp with its squarings bounded once, and ln's one full-width series on a
# full-height m, against mpmath.  Arguments are full-height dyadics like the
# root finders' probes; ln's m sits at both ends of [1/sqrt 2, sqrt 2), where
# |z| is largest, scaled by a power of two.
CROSSOVER_BITS = st.one_of(st.integers(48, 400), st.integers(48, 2 * midops._BASECASE_PREC))


def assert_fixed_kernel_encloses(kernel, x: Fraction, bits: int):
    mpmath = pytest.importorskip("mpmath")
    fixed = midops._exp_fixed if kernel == "exp" else midops._ln_fixed
    value, err, prec = fixed(x.numerator, x.denominator, 1, 1 << bits)
    assert err << bits <= 1 << prec  # err / 2^prec <= 2^-bits
    with mpmath.workprec(prec + 200):
        arg = mpmath.mpf(x.numerator) / x.denominator
        want = (mpmath.exp(arg) if kernel == "exp" else mpmath.log(arg)) * mpmath.mpf(2) ** prec
        assert abs(value - want) <= err


@st.composite
def exp_probe_arguments(draw):
    """(bits, x): x in [-40, 40] as a dyadic of bits + 8 bits past the
    point, like a probe, or that scaled down by 2^-e; a float's top bits,
    then random ones (hypothesis draws integers of a wide range mostly
    small)."""
    bits = draw(CROSSOVER_BITS)
    top = math.floor(Fraction(draw(st.floats(-40, 40))) * 2 ** (bits + 8))
    low = draw(st.randoms(use_true_random=False)).getrandbits(bits - 40)
    e = draw(st.sampled_from([0, 0, 0, 8, 60]))
    return bits, Fraction(top + low, 1 << (bits + 8 + e))


@given(exp_probe_arguments())
@example((midops._BASECASE_PREC - 40, Fraction(-40)))
@example((midops._BASECASE_PREC - 30, Fraction(40)))
@example((48, Fraction(1, 2**60)))
@settings(max_examples=80, deadline=None)
def test_exp_fixed_encloses_across_the_crossover(case):
    bits, x = case
    assert_fixed_kernel_encloses("exp", x, bits)


@given(CROSSOVER_BITS, st.integers(0, 2**20), st.booleans(), st.integers(-60, 60),
       st.integers(40, 200))
@example(midops._BASECASE_PREC - 30, 0, True, 0, 100)
@example(midops._BASECASE_PREC - 30, 0, False, 0, 100)
@example(48, 0, False, -60, 40)
@settings(max_examples=80, deadline=None)
def test_ln_fixed_encloses_across_the_crossover(bits, offset, low, shift, height):
    # m = N / 2^height within offset ulps of 1/sqrt 2 (from above) or of
    # sqrt 2 (from below), times 2^shift
    if low:
        num = math.isqrt(1 << (2 * height - 1)) + 1 + offset
    else:
        num = math.isqrt(1 << (2 * height + 1)) - offset
    m = Fraction(num, 1 << height)
    assert Fraction(1, 2) <= m * m < 2
    assert_fixed_kernel_encloses("ln", m * Fraction(2) ** shift, bits)


# ---------------------------------------------------------------------------
# the small-ratio kernels, summed in blocks of `_block_terms` terms

# blocks of 3 terms at 8 bits, 3 to 16 at 64 and 200 bits, 32 from 1000 bits
RATIO_PRECS = [8, 64, 200, 1000, 3000, 32000]


def term_loop_bound(kernel, args):
    """The ulp bound of the term-by-term loop the blocks replaced: 2N + 4 for
    atanh and N + 2 for exp, N its term count under per-term rounding."""
    if kernel == "atanh":
        p, q, prec = args
        w, n = midops._fix(p, q, prec), 0
        while abs(w) > 1:
            w, n = (2 * w * p * p + q * q) // (2 * q * q), n + 1
        return 2 * n + 4
    c, prec = args
    w, n = 1 << prec, 0
    while n == 0 or abs(w) > 1:
        n += 1
        w = midops._shift_div_round(w * c, midops._SPLIT_BITS, n)
    return n + 2


def assert_ratio_kernel(kernel, args):
    """The kernel encloses mpmath's value within its bound, and the bound is
    no wider than the term loop's."""
    prec = args[-1]
    if kernel == "atanh":  # 2 atanh(p/q) = ln((q + p)/(q - p))
        p, q, _ = args
        out, want = midops._atanh_ratio_fixed(*args), reference("log", Fraction(q + p, q - p), prec)
    else:
        out, want = midops._exp_ratio_fixed(*args), reference("exp", Fraction(args[0], K_ONE), prec)
    assert_fixed_encloses(out, want, prec)
    assert out[1] <= term_loop_bound(kernel, args)


# 1/3 is `_ln2_copy`'s ratio; the long pairs are ln's splits (c - 2^K)/(c +
# 2^K) of m = 0.7071068, 1 + 2^-20 and 1.4142135, reduced by their gcd
ATANH_RATIOS = [(1, 3), (-1, 3), (-5, 17), (2, 11), (-1228483, 7160125),
                (1, 2097153), (6949349, 40503781)]
EXP_RATIOS = [1, -1, K_ONE, -K_ONE, 12345678, -9876543, 0]


@pytest.mark.parametrize("prec", RATIO_PRECS)
@pytest.mark.parametrize("p, q", ATANH_RATIOS)
def test_atanh_ratio_kernel_encloses(p, q, prec):
    assert_ratio_kernel("atanh", (p, q, prec))


@pytest.mark.parametrize("prec", RATIO_PRECS)
@pytest.mark.parametrize("c", EXP_RATIOS)
def test_exp_ratio_kernel_encloses(c, prec):
    assert_ratio_kernel("exp", (c, prec))


@given(st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3), max_denominator=2**26),
       st.integers(-K_ONE, K_ONE), st.integers(2, 4000))
@settings(max_examples=60, deadline=None)
def test_ratio_kernels_random(r, c, prec):
    assert_ratio_kernel("atanh", (r.numerator, r.denominator, prec))
    assert_ratio_kernel("exp", (c, prec))


def test_series_term_budget_counts_terms(monkeypatch):
    # the kernels stop at the first block start n (a multiple of the block
    # size B) whose scaled term is at most 1, within 9/16 (atanh) or 3/4
    # (exp) of the exact term; where the exact terms at block starts stay
    # clear of that band, the term count n is known, and a cap of n - 1
    # terms refuses while a cap of n does not
    K = midops._SPLIT_BITS
    cases = []
    for prec in (200, 1000):
        B = midops._block_terms(prec, 3)  # atanh(1/3): bits(9) - bits(1)
        n = B  # exact terms 2^prec / 3^(2n+1)
        while 2**prec * 16 > 25 * 3 ** (2 * n + 1):
            n += B
        assert 2**prec * 16 < 7 * 3 ** (2 * n + 1)
        cases.append((midops._atanh_ratio_fixed, (1, 3, prec), n, B))
        B = midops._block_terms(prec, prec.bit_length() - 2 + K - (K + 1))
        n = B  # exp(1): exact terms 2^prec / n!
        while 2**prec * 4 > 7 * math.factorial(n):
            n += B
        assert 2**prec * 4 < math.factorial(n)
        cases.append((midops._exp_ratio_fixed, (K_ONE, prec), n, B))
    for kernel, args, terms, B in cases:
        assert terms // B < terms - 1  # a cap on blocks would not refuse
        want = kernel(*args)
        monkeypatch.setattr(midops, "MAX_SERIES_TERMS", terms)
        assert kernel(*args) == want
        monkeypatch.setattr(midops, "MAX_SERIES_TERMS", terms - 1)
        with pytest.raises(ResourceError, match="series exceeded the term budget"):
            kernel(*args)
        monkeypatch.undo()


@given(st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3), max_denominator=2**40),
       st.integers(64, 20_000), st.integers(100, 600))
@settings(max_examples=80, deadline=None)
def test_atanh_ratio_budget_refuses_exactly_the_runs_past_it(r, prec, budget):
    # the unbudgeted run's error 2 blocks + 4 counts its blocks of B terms;
    # under a budget of a few hundred terms the kernel raises exactly when
    # those blocks pass it, whether before its first block or in its loop,
    # and otherwise returns the unbudgeted pair
    p, q = r.numerator, r.denominator
    want = midops._atanh_ratio_fixed(p, q, prec)
    B = midops._block_terms(prec, (q * q).bit_length() - (p * p).bit_length())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(midops, "MAX_SERIES_TERMS", budget)
        if (want[1] - 4) // 2 * B > budget:
            with pytest.raises(ResourceError, match="log series exceeded the term budget"):
                midops._atanh_ratio_fixed(p, q, prec)
        else:
            assert midops._atanh_ratio_fixed(p, q, prec) == want


@pytest.mark.parametrize("bits", [64, 3000, 32000])
def test_split_ln_exp_balls_contain_reference(bits):
    tol = Fraction(1, 1 << bits)
    slack = Fraction(1, 1 << (bits + 40))
    a = Fraction(2**bits + 0x9E3779B97F4A7C15, 3 << (bits - 2))  # about 4/3
    out = ln_e(a, SeriesConfig(tol))
    assert out.radius <= tol
    assert abs(out.center - reference("log", a, bits)) <= out.radius + slack
    x = Fraction(-0x2545F4914F6CDD1D, 1 << 61)  # about -1.17: one halving
    out = exp_e(x, SeriesConfig(tol))
    assert out.radius <= tol
    assert abs(out.center - reference("exp", x, bits)) <= out.radius + slack


def test_ln2_copy_encloses_in_either_order():
    for order in ([64, 3000, 4096, 190], [3000, 64, 3000, 190], [190, 190, 64]):
        for prec in order:
            value, err = midops._ln2_fixed(prec)
            assert abs(Fraction(value, 1 << prec) - LN2_62) <= (
                Fraction(err, 1 << prec) + Fraction(1, 10**60))
            if prec > 200:
                assert_fixed_encloses((value, err), reference("log", Fraction(2), prec), prec)


@pytest.mark.parametrize("prec", [28, 200])
def test_ln2_depends_on_the_precision_alone(prec):
    # 28 bits came out one ulp apart before and after a 5000-bit request when
    # the process kept only its widest copy
    midops._ln2_copy.cache_clear()
    first = midops._ln2_fixed(prec)
    midops._ln2_fixed(5000)
    assert midops._ln2_fixed(prec) == first


# ---------------------------------------------------------------------------
# the Fraction pipeline as a reference: `power`, `log` and their exp/ln cores
# written over Balls, with test_balls' Fraction snap and corner division per
# step, so no integer core of `balls` is shared.  The integer pipeline must
# return the same center and radius, bit for bit.


def reference_tol_bits(tol: Fraction) -> int:
    if tol >= 1:
        return 1
    return (tol.denominator // tol.numerator).bit_length() + 1


def reference_log_abs_float(x: Fraction) -> float:
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    m = abs(x) / Fraction(2) ** shift
    return math.log(float(m)) + shift * math.log(2)


huge_ints = st.integers(min_value=1, max_value=2**5000)


@given(huge_ints, huge_ints, st.booleans())
@settings(max_examples=200, deadline=None)
def test_tol_bits_and_log_abs_float_match_the_fraction_reference(num, den, negative):
    x = Fraction(-num if negative else num, den)
    assert midops._log_abs_float(x.numerator, x.denominator) == reference_log_abs_float(x)
    assert midops.tol_bits(abs(x)) == reference_tol_bits(abs(x))


@given(st.integers(min_value=1, max_value=2**300), st.integers(min_value=0, max_value=400),
       st.integers(min_value=-1, max_value=1), st.integers(min_value=1, max_value=2**700))
@settings(max_examples=300, deadline=None)
@example(tn=1, k=0, delta=0, td=1)
@example(tn=3, k=1, delta=-1, td=1)
@example(tn=2**64 - 1, k=64, delta=1, td=1)
def test_tol_bits_of_int_pairs_matches_the_division_form(tn, k, delta, td):
    # the division form is reference_tol_bits; td = tn * 2^k and its
    # neighbours are the edges of the bit-length rule
    for num, den in ((tn, (tn << k) + delta), (tn, td), (td, tn)):
        if den >= 1:
            assert midops._tol_bits(num, den) == reference_tol_bits(Fraction(num, den))


def reference_exp_rational(a: Fraction, tol: Fraction) -> tuple[Ball, int]:
    """(e^a, prec): the ball and the grid 2^-prec it lies on."""
    if a > midops._EXP_ARG_CAP:
        raise MagnitudeError("exp argument too large; result would blow past the magnitude cap")
    if a == 0:
        return Ball(Fraction(1)), reference_tol_bits(tol) + 26
    halvings = 0
    x = a
    while abs(x) > 1:
        x = x / 2
        halvings += 1
    mag_bits = 2 if a <= 0 else (3 * a.numerator) // (2 * a.denominator) + 2
    bits = reference_tol_bits(tol)
    prec = bits + 2 * halvings + mag_bits + 26
    if prec < midops._BASECASE_PREC:
        # halved into |x| <= 2^-r, squared back by rounding to nearest, and
        # the error bounded once: ceil((1 + 2^-8) (e_0 + 1/2) 2^m max(v, 1))
        r = max(6, math.isqrt(bits))
        halvings, x = 0, a
        while abs(x) > Fraction(1, 2**r):
            x, halvings = x / 2, halvings + 1
        prec = bits + halvings + mag_bits + 26
        scale = 1 << prec
        value, err = midops._exp_series_fixed(math.floor(x * scale + Fraction(1, 2)), prec)
        for _ in range(halvings):
            value = math.floor(Fraction(value * value, scale) + Fraction(1, 2))
        if halvings:
            spread = (2 * err + 1) * max(value, scale)
            err = math.ceil(Fraction(spread + spread // 256 + 1, 2 * scale) * 2**halvings)
        out = Ball(Fraction(value, scale), Fraction(err, scale))
    else:
        scale = 1 << prec
        value, err = midops._exp_split_fixed(x.numerator, x.denominator, prec)
        out = Ball(Fraction(value, scale), Fraction(err, scale))
        for _ in range(halvings):
            out = reference_round_ball(out * out, prec)
    out = reference_round_ball(out, prec)
    if out.radius > tol:
        raise PrecisionError("exp failed to reach the requested radius")
    return out, prec


def reference_ln_rational(a: Fraction, tol: Fraction) -> tuple[Ball, int]:
    """(ln a, prec): the ball and the grid 2^-prec it lies on."""
    if a <= 0:
        raise DomainError("log of a non-positive value")
    if a == 1:
        return Ball(Fraction(0)), reference_tol_bits(tol) + 26
    num, den = a.numerator, a.denominator
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        den <<= shift
    else:
        num <<= -shift
    if num * num >= 2 * den * den:
        den <<= 1
        shift += 1
    elif 2 * num * num < den * den:
        num <<= 1
        shift -= 1
    prec = reference_tol_bits(tol) + max(1, abs(shift)).bit_length() + 26
    scale = 1 << prec
    value, err = midops._ln_split_fixed(num, den, prec)
    if shift:
        ln2, ln2_err = midops._ln2_fixed(prec)
        value += shift * ln2
        err += abs(shift) * ln2_err
    out = reference_round_ball(Ball(Fraction(value, scale), Fraction(err, scale)), prec)
    if out.radius > tol:
        raise PrecisionError("ln failed to reach the requested radius")
    return out, prec


def ceil_to(x: Fraction, prec: int) -> Fraction:
    """x rounded up onto the grid 2^-prec."""
    return Fraction(math.ceil(x * 2**prec), 2**prec)


def reference_ln_ball(a: Ball, tol: Fraction) -> Ball:
    """ln of the ball a: the rational reference at a's center, widened by
    ln's Lipschitz term radius / lo rounded up onto the center's grid;
    unsnapped."""
    core, prec = reference_ln_rational(a.center, tol)
    if a.is_exact:
        return core
    return Ball(core.center, core.radius + ceil_to(a.radius / a.lo, prec))


def reference_exp_ball(x: Ball, tol: Fraction) -> Ball:
    """e^x for |x's spread| <= 5/8: the rational reference at x's center,
    widened by e^r - 1 <= r (1 + r) rounded up onto the center's grid;
    unsnapped."""
    if x.radius > Fraction(5, 8):
        raise PrecisionError("exp argument too imprecise for an enclosure")
    core, prec = reference_exp_rational(x.center, tol)
    if x.is_exact:
        return core
    r = x.radius
    return Ball(core.center, core.radius + ceil_to(r * (1 + r) * (core.center + core.radius), prec))


def reference_power_series(av: Ball, bv: Ball, tol: Fraction) -> Ball:
    """`power`'s one attempt, for a positive base off the exact paths."""
    ln_a = reference_ln_ball(av, tol / (1 << midops._power_scale_bits(av, bv)))
    b, rb = bv.center, bv.radius
    x = Ball(b * ln_a.center,
             abs(b) * ln_a.radius + abs(ln_a.center) * rb + ln_a.radius * rb)
    if x.center > midops._EXP_ARG_CAP:
        raise MagnitudeError("power result would blow past the magnitude cap")
    return reference_round_ball(reference_exp_ball(x, tol / 4), reference_tol_bits(tol) + 16)


def reference_log_series(av: Ball, bv: Ball, tol: Fraction) -> Ball:
    """`log`'s one attempt, for positive value and base off the exact paths."""
    denom = reference_ln_ball(bv, tol)
    if denom.lo <= 0 <= denom.hi:
        raise PrecisionError("log base interval reaches 1")
    quotient = reference_divide(reference_ln_ball(av, tol), denom)
    return reference_round_ball(quotient, reference_tol_bits(tol) + 16)


def outcome(fn, *args):
    """(center, radius) of a Ball result, or the error's class and message."""
    try:
        out = fn(*args)
    except HypercalcError as err:
        return type(err), str(err)
    return out.center, out.radius


positive_rats = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=60)
any_rats = st.fractions(min_value=-40, max_value=40, max_denominator=60)
radii = st.sampled_from([0, 0, Fraction(1, 2**20), Fraction(1, 10**9), Fraction(3, 2**70)])
tols = st.sampled_from([Fraction(1, 10**8), Fraction(1, 10**30), Fraction(1, 3 * 2**100)])


@given(positive_rats, radii, any_rats, radii, tols)
@settings(max_examples=150, deadline=None)
@example(Fraction(1, 3), 0, Fraction(279, 10), Fraction(1, 2**20), Fraction(1, 10**8))
def test_power_and_log_match_the_fraction_reference(a, ra, b, rb, tol):
    av, bv = Ball(a, ra), Ball(b, rb)
    if av.lo <= 0:
        return  # refused before any series runs
    cfg = SeriesConfig(tol)
    exact_a, exact_b = av.is_exact, bv.is_exact
    if exact_a and exact_b:
        return  # the exact-operand paths have properties of their own below
    if not ((exact_a and a == 1) or (exact_b and b.denominator == 1)):
        want = outcome(reference_power_series, av, bv, tol)
        assert outcome(power, a if exact_a else av, b if exact_b else bv, cfg) == want
    if bv.lo > 0 and not (exact_b and b == 1):
        want = outcome(reference_log_series, av, bv, tol)
        assert outcome(log, a if exact_a else av, b if exact_b else bv, cfg) == want


# radii up to 2^-8; with exponents up to 400 the spread of b ln a reaches
# past 1/2 (2 +/- 2^-8 to the 300th: about 0.59), up to `_exp_ball`'s 5/8
ball_radii = st.one_of(st.just(Fraction(0)), st.builds(
    lambda m, k: Fraction(m, 2**k), st.integers(1, 256), st.integers(16, 90)))


@given(positive_rats, ball_radii, st.fractions(min_value=-400, max_value=400, max_denominator=60),
       ball_radii, positive_rats, ball_radii, tols)
@settings(max_examples=150, deadline=None)
@example(Fraction(2), Fraction(1, 2**8), Fraction(300), Fraction(0),
         Fraction(3), Fraction(1, 2**8), Fraction(1, 10**8))
def test_power_and_log_of_balls_enclose_mpmath(a, ra, b, rb, c, rc, tol):
    # independent of the Fraction references: mpmath's a^b and log_c a at
    # 800 bits, at the operand boxes' centers and all four corners, lie in
    # the returned balls; a ball too wide for an enclosure may be refused
    mpmath = pytest.importorskip("mpmath")
    av, bv, cv = Ball(a, ra), Ball(b, rb), Ball(c, rc)
    if av.lo <= 0 or cv.lo <= 0 or cv == Ball(1):
        return
    cfg = SeriesConfig(tol)
    for fn, mp_fn, yv in ((power, mpmath.power, bv), (log, mpmath.log, cv)):
        try:
            out = fn(av, yv, cfg)
        except PrecisionError:
            continue
        points = [(av.center, yv.center)] + [(x, y) for x in (av.lo, av.hi) for y in (yv.lo, yv.hi)]
        with mpmath.workprec(800):
            for x, y in points:
                want = floor_fraction(mp_fn(mpmath.mpf(x.numerator) / x.denominator,
                                            mpmath.mpf(y.numerator) / y.denominator), 700)
                slack = (abs(want) + 1) / 2**700  # mpmath's error and the floor
                assert out.lo - slack <= want <= out.hi + slack, (fn.__name__, x, y)


@given(positive_rats, radii, any_rats, radii, tols, st.integers(2, 2**40))
@settings(max_examples=100, deadline=None)
def test_results_do_not_depend_on_the_integer_form(a, ra, b, rb, tol, k):
    # a ball's integer form (c +/- r) / d is not in lowest terms; scaled by k
    # it is the same ball, and every operation gives the same result on it
    cfg = SeriesConfig(tol)
    for x, y in ((Ball(a, ra), Ball(b, rb)), (Ball(b, rb), Ball(a, ra))):
        xk, yk = _ball(x.c * k, x.r * k, x.d * k), _ball(y.c * k, y.r * k, y.d * k)
        for op in (exp_e, ln_e):
            assert outcome(op, xk, cfg) == outcome(op, x, cfg)
        for op in (power, log, root):
            assert outcome(op, xk, yk, cfg) == outcome(op, x, y, cfg)


# ---------------------------------------------------------------------------
# exact operands: algebraic powers and rational logs

algebraic_exponents = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60),
    st.sampled_from([2, 3, 5, 12, 37, 60, 255])
).filter(lambda b: b.denominator > 1)
wide_tols = st.sampled_from([Fraction(1, 10**8), Fraction(1, 10**30), Fraction(1, 3 * 2**100),
                             Fraction(1, 2**1000), Fraction(1, 2**3400)])


@given(st.one_of(positive_rats, st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                                             max_denominator=10**6)),
       st.one_of(any_rats, algebraic_exponents), wide_tols)
@settings(max_examples=150, deadline=None)
def test_algebraic_power_encloses_the_root(a, b, tol):
    # exact base, exact non-integer exponent P/Q: the ball holds the root,
    # checked in Fractions as lo^Q <= a^P <= hi^Q, within tol and no wider
    # than the exp/ln reference on the same inputs
    if a == 1 or b.denominator == 1:
        return  # the exact paths above the algebraic one
    P, Q = b.numerator, b.denominator
    out = power(a, b, SeriesConfig(tol))
    assert out.radius <= tol
    assert max(out.lo, 0) ** Q <= a**P <= out.hi ** Q
    want = outcome(reference_power_series, Ball(a), Ball(b), tol)
    if not isinstance(want[0], type):
        assert out.radius <= want[1]


@pytest.mark.parametrize("a, b, want", [
    (Fraction(9, 4), Fraction(1, 2), Fraction(3, 2)),
    (Fraction(27, 8), Fraction(-2, 3), Fraction(4, 9)),
    (Fraction(1, 32), Fraction(3, 5), Fraction(1, 8)),
    (Fraction(36), Fraction(1, 2), Fraction(6)),
    (Fraction(3**40, 7**20), Fraction(7, 20), Fraction(3**14, 7**7)),
])
def test_perfect_power_roots_are_exact(a, b, want):
    assert power(a, b, TIGHT) == Ball(want)
    assert root(a, 1 / b, TIGHT) == Ball(want)


def test_exact_roots_respect_the_size_cap():
    # 4^((2^21 + 1)/2) = 2^(2^21 + 1) is past the cap, as the integer path
    # refuses it; the reciprocal is a ball near 0 from exp/ln, as before
    with pytest.raises(MagnitudeError):
        power(Fraction(4), Fraction(2**21 + 1, 2), MED)
    out = power(Fraction(1, 4), Fraction(2**21 + 1, 2), MED)
    assert out.lo <= 0 < out.hi <= Fraction(1, 10**12)


def test_algebraic_power_magnitude_cap(monkeypatch):
    # a result past MAX_MAGNITUDE_BITS raises, read at call time
    monkeypatch.setattr(midops, "MAX_MAGNITUDE_BITS", 8)
    with pytest.raises(MagnitudeError, match="power result would blow past the magnitude cap"):
        power(Fraction(2**40 + 1), Fraction(1, 2), MED)


@pytest.mark.parametrize("a, b, takes_series", [
    (Fraction(3), Fraction(5, 2), False),
    (Fraction(3), Fraction(1, 2**16 - 1), False),
    (Fraction(3), Fraction(1, 2**16), True),  # q past the gate
    (Fraction(3), Fraction(3, 2) + Fraction(1, 2**24), True),  # a probe's dyadic
    (Fraction(3**200 + 1), Fraction(1, 2), True),  # height past the precision
    (Ball(Fraction(3), Fraction(1, 2**80)), Fraction(1, 2), True),
    (Fraction(3), Ball(Fraction(1, 2), Fraction(1, 2**80)), True),
])
def test_algebraic_gate(monkeypatch, a, b, takes_series):
    calls = []
    monkeypatch.setattr(midops, "_ln_fixed", counted(calls, "_ln_fixed", midops._ln_fixed))
    power(a, b, SeriesConfig(Fraction(1, 10**30)))
    assert bool(calls) == takes_series


@given(st.integers(min_value=1, max_value=2**3000), st.integers(min_value=2, max_value=300))
@settings(max_examples=200, deadline=None)
def test_iroot_is_the_floor_root(x, q):
    r = midops._iroot(x, q)
    assert r**q <= x < (r + 1) ** q
    assert midops._exact_root(r**q, q) == r
    assert midops._exact_root(x, q) == (r if r**q == x else None)


@given(st.integers(min_value=0, max_value=2**400), st.integers(min_value=1, max_value=70),
       st.sampled_from([1, 64, 300]))
@settings(max_examples=200, deadline=None)
def test_pow_fixed_rounds_down_and_up(x, e, prec):
    exact = Fraction(x, 1 << prec) ** e * (1 << prec)
    assert midops._pow_fixed(x, e, prec, False) <= exact <= midops._pow_fixed(x, e, prec, True)


@pytest.mark.parametrize("a, b, want", [
    (Fraction(8), Fraction(4), Fraction(3, 2)),
    (Fraction(27, 8), Fraction(9, 4), Fraction(3, 2)),
    (Fraction(2), Fraction(16), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(16), Fraction(-1, 2)),
    (Fraction(4, 9), Fraction(27, 8), Fraction(-2, 3)),
    (Fraction(5, 7), Fraction(5, 7), Fraction(1)),
    (Fraction(10**30), Fraction(1000), Fraction(10)),
    (Fraction(144), Fraction(12), Fraction(2)),
    (Fraction(2**4000), Fraction(2**4096), Fraction(4000, 4096)),
])
def test_rational_logs_are_exact(a, b, want):
    assert log(a, b, MED) == Ball(want)


def test_rational_log_search_is_bounded_by_height():
    # both heights past the bound: the series answers, as before
    out = log(Fraction(2**5000), Fraction(2**4100), MED)
    assert out.radius > 0 and out.contains(Fraction(50, 41))


@given(positive_rats, positive_rats, tols)
@settings(max_examples=150, deadline=None)
def test_log_of_exact_operands(a, b, tol):
    # exact exactly when a^k = b^j for small j, k; else the series reference
    if b == 1:
        return
    out = log(a, b, SeriesConfig(tol))
    rational = [Fraction(j, k) for k in range(1, 13) for j in range(-72, 73)
                if a**k == b**j]
    if rational:
        assert out == Ball(rational[0])
    else:
        assert (out.center, out.radius) == outcome(reference_log_series, Ball(a), Ball(b), tol)


def reference_exp_e(b: Ball, tol: Fraction) -> Ball:
    return reference_round_ball(reference_exp_ball(b, tol), reference_tol_bits(tol) + 16)


def reference_ln_e(b: Ball, tol: Fraction) -> Ball:
    if b.lo <= 0:
        if b.hi <= 0:
            raise DomainError("log of a non-positive value")
        raise PrecisionError("log argument interval reaches zero")
    return reference_round_ball(reference_ln_ball(b, tol), reference_tol_bits(tol) + 16)


@given(any_rats, radii, tols)
@settings(max_examples=60, deadline=None)
def test_exp_and_ln_match_the_fraction_reference(x, r, tol):
    b = Ball(x, r)
    cfg = SeriesConfig(tol)
    assert outcome(exp_e, b, cfg) == outcome(reference_exp_e, b, tol)
    assert outcome(ln_e, b, cfg) == outcome(reference_ln_e, b, tol)


@given(center=st.fractions(min_value=-40, max_value=40, max_denominator=2**30),
       radius=st.one_of(st.just(Fraction(5, 8)), st.fractions(
           min_value=0, max_value=Fraction(5, 8), max_denominator=2**64)),
       bits=st.integers(8, 400))
@settings(max_examples=150, deadline=None)
@example(Fraction(40), Fraction(5, 8), 64)
@example(Fraction(-40), Fraction(5, 8), 64)
@example(Fraction(0), Fraction(5, 8), 8)
@example(Fraction(1, 3), Fraction(1, 2**60), 300)
def test_exp_ball_encloses_exp_over_the_whole_ball(center, radius, bits):
    # e^x by mpmath at 1,500 bits at both ends of the ball lies in the
    # widened ball, up to the largest spread it takes; e^x grows, so its
    # ends hold e^x over the whole ball.  The widening e^c r (1 + r) leaves
    # about e^c r^2 / 2 of room at a small r and 0.15 e^c at 5/8, and the
    # radius is no more than it past the center's error
    mpmath = pytest.importorskip("mpmath")
    x = Ball(center, radius)
    out = _ball(*midops._exp_ball(x.c, x.r, x.d, 1, 1 << bits))
    with mpmath.workprec(1500):
        def mp(v: Fraction):
            return mpmath.mpf(v.numerator) / v.denominator
        assert mp(out.lo) <= mpmath.exp(mp(x.lo))
        assert mpmath.exp(mp(x.hi)) <= mp(out.hi)
    assert out.radius <= out.center * radius * (1 + radius) + Fraction(1, 1 << bits)


def mp_fraction(v: Fraction):
    mpmath = pytest.importorskip("mpmath")
    return mpmath.mpf(v.numerator) / v.denominator


dyadic_or_not = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=2**30),
    st.builds(lambda m, k: Fraction(m, 2**k), st.integers(-2**60, 2**60), st.integers(0, 3000)))


@given(center=dyadic_or_not.filter(lambda c: abs(c) <= 40),
       radius=st.one_of(st.fractions(min_value=0, max_value=Fraction(5, 8), max_denominator=2**64),
                        # m / 2^k <= 5 * 2^17 / 2^20 = 5/8, the kernel's spread limit
                        st.builds(lambda m, k: Fraction(m, 2**k), st.integers(1, 5 * 2**17),
                                  st.integers(20, 3000))),
       bits=st.integers(8, 400))
@settings(max_examples=150, deadline=None)
@example(Fraction(0), Fraction(1, 3 * 2**40), 64)
@example(Fraction(0), Fraction(5, 8), 8)
@example(Fraction(40), Fraction(1, 3 * 2**210), 100)
def test_exp_ball_is_dyadic_within_an_ulp_of_the_exact_widening(center, radius, bits):
    # the ball lies on the center's grid 2^-prec, or on the tolerance's for
    # e^0 = 1, holds e^x at both ends of its input (mpmath at 1,500 bits),
    # and its radius is the kernel's error plus the exact widening e^c r (1
    # + r), rounded up by less than an ulp
    mpmath = pytest.importorskip("mpmath")
    x = Ball(center, radius)
    value, err, prec = midops._exp_fixed(x.c, x.d, 1, 1 << bits)
    n, e, den = midops._exp_ball(x.c, x.r, x.d, 1, 1 << bits)
    assert den == 1 << (prec or (midops.tol_bits(Fraction(1, 1 << bits)) + 26 if radius else 0))
    out = _ball(n, e, den)
    with mpmath.workprec(1500):
        assert mp_fraction(out.lo) <= mpmath.exp(mp_fraction(x.lo))
        assert mpmath.exp(mp_fraction(x.hi)) <= mp_fraction(out.hi)
    exact = Fraction(err, 1 << prec) + Fraction(value + err, 1 << prec) * radius * (1 + radius)
    assert exact <= out.radius < exact + Fraction(1, den)


@given(center=st.one_of(st.fractions(min_value=Fraction(1, 50), max_value=50,
                                     max_denominator=2**30),
                        st.builds(lambda m, k: Fraction(m, 2**k), st.integers(1, 2**60),
                                  st.integers(55, 3000))),
       share=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=2**64),
       bits=st.integers(8, 400))
@settings(max_examples=150, deadline=None)
@example(Fraction(1), Fraction(1, 3 * 2**40), 64)
@example(Fraction(1), Fraction(1, 2), 8)
@example(Fraction(3, 2**1500), Fraction(1, 7), 300)
def test_ln_ball_is_dyadic_within_an_ulp_of_the_exact_widening(center, share, bits):
    # radius = share * center, so the ball stays positive: it lies on the
    # center's grid 2^-prec, or on the tolerance's for ln 1 = 0, holds ln x
    # at both ends of its input (mpmath at 1,500 bits), and its radius is
    # the kernel's error plus the exact r / lo, rounded up by less than an ulp
    mpmath = pytest.importorskip("mpmath")
    x = Ball(center, share * center)
    value, err, prec = midops._ln_fixed(center.numerator, center.denominator, 1, 1 << bits)
    n, e, den = midops._ln_ball(x, 1, 1 << bits)
    assert den == 1 << (prec or (midops.tol_bits(Fraction(1, 1 << bits)) + 26 if share else 0))
    out = _ball(n, e, den)
    with mpmath.workprec(1500):
        assert mp_fraction(out.lo) <= mpmath.log(mp_fraction(x.lo))
        assert mpmath.log(mp_fraction(x.hi)) <= mp_fraction(out.hi)
    exact = Fraction(err, 1 << prec) + (x.radius / x.lo if share else 0)
    assert exact <= out.radius < exact + Fraction(1, den)


# `power` makes one attempt: one ln and one exp, at tolerances sized from
# the result's magnitude, and returns the rigorous ball they reach; a caller
# that needs it tighter asks again.  Without the magnitude estimate ln a runs
# at the target itself, too coarse for a large or sharp result, so the ball
# comes back wider than asked: for the 2^34/3 over a base near 1, b ln a's
# spread is about 0.14, within the 5/8 that e^r - 1 <= r (1 + r) is taken up
# to.  An unsized call misses 3^(29/2) and the larger rows (3^(31/2) by
# about 9 times), and meets the target at 3^(27/2).
# The exponents over 2^41, like the root finders' dyadic probes, and the
# 2^34/3 over a 301-bit base are past the algebraic path's gate.
T30 = Fraction(1, 10**30)
NEAR_ONE = 1 + Fraction(1, 2**300)
DYADIC = Fraction(1, 2**40)


def counted(calls, name, real):
    """`real`, appending `name` to `calls` at each call."""
    def spy(*args):
        calls.append(name)
        return real(*args)
    return spy


@pytest.mark.parametrize("sized", [True, False])
@pytest.mark.parametrize("a, b, tol", [
    (Fraction(3), Fraction(31, 2) + DYADIC, T30),
    (Fraction(3), Fraction(41, 2) + DYADIC, T30),
    (NEAR_ONE, Fraction(2**34, 3), Fraction(1, 2**10)),
    (Fraction(3), Fraction(61, 2) + DYADIC, T30),
    (Fraction(3), Fraction(65, 2) + DYADIC, T30),
])
def test_power_makes_one_attempt(monkeypatch, a, b, tol, sized):
    mpmath = pytest.importorskip("mpmath")
    if not sized:
        monkeypatch.setattr(midops, "_power_scale_bits", lambda av, bv: 0)
    calls = []
    for name in ("_ln_fixed", "_exp_fixed"):
        monkeypatch.setattr(midops, name, counted(calls, name, getattr(midops, name)))
    out = power(a, b, SeriesConfig(tol))
    assert calls == ["_ln_fixed", "_exp_fixed"]
    assert (out.radius <= tol) == sized
    with mpmath.workprec(800):
        want = mpmath.power(mpmath.mpf(a.numerator) / a.denominator,
                            mpmath.mpf(b.numerator) / b.denominator)
        assert abs(out.center - floor_fraction(want, 700)) <= out.radius + Fraction(1, 2**700)
