"""Rank-3 operations: exponential, natural log, power, root, logarithm.

The rank-3 pipeline runs in integer fixed point (values scaled by 2^prec)
with explicit ulp accounting, so results are rigorous Balls.  Every rounding
is to nearest: a division by 2^prec is a rounding shift, and a division by
2^prec * n is that shift then a small-int divide, so no series step divides
by a big integer.

Both series split their argument at a K-bit dyadic (K = _SPLIT_BITS; Brent
& Zimmermann, Modern Computer Arithmetic, 4.4 and 4.9):

  exp(x) = exp(c/2^K) * exp(x - c/2^K),  c = round(x 2^K), after halving
           the argument into |x| <= 1.  The first factor is sum u^n/n! with
           u = c/2^K, each term the previous one times c/(n 2^K), a
           linear-time step; the second is the full-width Taylor series of
           an argument below 2^-K, about prec/K terms.  One fixed-point
           product joins them.
  ln(m)  = 2 atanh(p/q) + 2 atanh(b),  m = a / 2^shift in [1/sqrt 2, sqrt 2),
           c = round(m 2^K), p/q = (c - 2^K)/(c + 2^K), |p/q| < 0.18,
           b = (m 2^K - c)/(m 2^K + c), |b| < 2^-K.  The first series steps
           by the small-int ratio p^2/q^2 in linear time; the second is
           full width but needs only about prec/(2K) terms.
  ln(a)  = ln(m) + shift * ln 2,  ln 2 = 2 atanh(1/3) by the small-ratio
           series, kept as one copy per power-of-two width; a request is a
           rounding shift of the copy at the next power of two above it (plus
           guard bits), with error ceil(e/2^d) + 1 ulps for a copy e ulps off
           and d bits wider, so it depends on the request alone.

Each kernel's docstring states its error bound in ulps of 2^-prec with the
proof.  Above them `_exp_fixed` and `_ln_fixed` return (value, err, prec) for
a tolerance passed as ints (tn, td), and exp squares its halved value by
`round_ball`'s rule: s = (v^2 + 2^(prec-1)) >> prec, err' = ceil((2|v| err +
err^2 + |v^2 - s 2^prec|) / 2^prec).

The general power `[a+++b]` is exp(b * ln a), root `[a---b]` is pow(a, 1/b),
and log `[a///b]` is ln a / ln b; `power` and `log` test their bounds by
integer cross-multiplication and build one Ball at the exit with `balls`'
integer snap (`log` divides with its integer quotient first), with the digits
and radii that the same formulas give over Fractions.  Integer exponents take
an exact path when the result stays representable; a base ball that reaches 0
takes an integer exponent n >= 2 to within max|x|^n of 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .balls import Ball, _quotient, _snap, as_ball, divide, round_ball
from .errors import DomainError, MagnitudeError, PrecisionError, ResourceError

# Any value whose integer part would exceed 2^MAX_MAGNITUDE_BITS is treated
# as a blow-up; exp() arguments are capped at MAX_MAGNITUDE_BITS * ln 2.
MAX_MAGNITUDE_BITS = 1 << 20
_EXP_ARG_CAP = 726_817  # floor(2^20 * ln 2)

_REFINE_ATTEMPTS = 9

# Terms per series call.
MAX_SERIES_TERMS = 100_000


@dataclass(frozen=True)
class SeriesConfig:
    target_error: Fraction

    def __post_init__(self):
        if self.target_error <= 0:
            raise ValueError("target error must be positive")


def tol_bits(tol: Fraction) -> int:
    """Bits b with 2^-b <= tol."""
    return _tol_bits(tol.numerator, tol.denominator)


def _tol_bits(tn: int, td: int) -> int:
    """tol_bits(tn / td), for a tolerance passed as a pair of ints > 0."""
    return 1 if tn >= td else (td // tn).bit_length() + 1


def _fix(num: int, den: int, bits: int) -> int:
    """num/den * 2^bits rounded to nearest (halves up), for den > 0."""
    return ((num << (bits + 1)) + den) // (2 * den)


def _shift_round(x: int, bits: int) -> int:
    """x / 2^bits rounded to nearest (halves up), for bits >= 1."""
    return (x + (1 << (bits - 1))) >> bits


def _shift_div_round(x: int, bits: int, n: int) -> int:
    """x / (2^bits * n) rounded to nearest (halves up), for n >= 1.

    Equal to (2x + B) // (2B) with B = 2^bits * n, because
    floor(floor(y) / n) = floor(y / n): the shift does the wide division
    in linear time and leaves only a small-int divide.
    """
    return ((2 * x + (n << bits)) >> (bits + 1)) // n


# The series split their arguments at K-bit dyadics, so the full-width
# series run on arguments below 2^-K.
_SPLIT_BITS = 24


# ---------------------------------------------------------------------------
# fixed-point kernels


def _exp_series_fixed(xf: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of exp(x) for |x| <= 1, given
    xf = x 2^prec rounded to nearest."""
    acc = (1 << prec) + xf
    term = xf
    n = 1
    while not (abs(term) <= 2 and n >= 2):
        n += 1
        if n > MAX_SERIES_TERMS:
            raise ResourceError("exp series exceeded the term budget")
        term = _shift_div_round(term * xf, prec, n)
        acc += term
    # per-term rounding <= 1 ulp each, tail <= 2*(|term|+1) <= 6, snap <= 2
    return acc, n + 10


def _exp_ratio_fixed(c: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of exp(u), u = c/2^K, |u| <= 1.

    The terms t_0 = 2^prec and t_n = round(t_(n-1) c / (n 2^K)) cost a
    product by the K-bit c, a shift and a small-int divide each.  Against
    the exact scaled terms T_n, |t_n - T_n| <= |t_(n-1) - T_(n-1)| |u|/n
    + 1/2, which is 0 for n = 0, 1/2 for n = 1 and at most 3/4 after.  The
    loop stops at the first N >= 1 with |t_N| <= 1, so |T_N| < 2; every
    later ratio |u|/(n+1) is at most 1/(N+1), so the tail is below
    |T_N| / N <= 2.  Error: N terms of at most 3/4 plus the tail, < N + 2.
    """
    acc = term = 1 << prec
    n = 0
    while n == 0 or abs(term) > 1:
        n += 1
        if n > MAX_SERIES_TERMS:
            raise ResourceError("exp series exceeded the term budget")
        term = _shift_div_round(term * c, _SPLIT_BITS, n)
        acc += term
    return acc, n + 2


def _exp_split_fixed(num: int, den: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of exp(x), x = num/den, |x| <= 1.

    exp(x) = exp(c/2^K) exp(r) with c = round(x 2^K), so |c| <= 2^K and
    |r| <= 2^-(K+1): the first factor takes the linear-time series, the
    second the full-width one, which now needs about prec/K terms.  With
    values v1, v2 and errors e1, e2 (in ulps), the scaled product error is
    |v1 v2 - V1 V2| <= |v1| e2 + |V2| e1 <= |v1| e2 + (|v2| + e2) e1 in
    2^-2prec units; after the rounding shift by prec that is at most
    spread / 2^prec + 1/2 < (spread >> prec) + 2 ulps.
    """
    c = _fix(num, den, _SPLIT_BITS)
    if c == 0:
        return _exp_series_fixed(_fix(num, den, prec), prec)
    v1, e1 = _exp_ratio_fixed(c, prec)
    r_num = (num << _SPLIT_BITS) - c * den  # r = r_num / (den 2^K)
    if r_num == 0:
        return v1, e1
    v2, e2 = _exp_series_fixed(_fix(r_num, den << _SPLIT_BITS, prec), prec)
    spread = abs(v1) * e2 + (abs(v2) + e2) * e1
    return _shift_round(v1 * v2, prec), (spread >> prec) + 2


def _atanh_series_fixed(bf: int, prec: int) -> tuple[int, int]:
    """(value, error) in ulps of 2*sum b^(2n+1)/(2n+1) = 2*atanh(b), |b| <= 1/3,
    given bf = b 2^prec rounded to nearest."""
    b2 = _shift_round(bf * bf, prec)
    acc = bf
    power = bf
    n = 1
    while abs(power) > 2:
        if n > MAX_SERIES_TERMS:
            raise ResourceError("log series exceeded the term budget")
        power = _shift_round(power * b2, prec)
        acc += (power + n) // (2 * n + 1)  # nearest, as 2n+1 is odd
        n += 1
    return 2 * acc, 3 * n + 10


def _atanh_ratio_fixed(p: int, q: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of 2 atanh(p/q), q > 0, |p/q| <= 1/3.

    With r = p/q, the powers w_0 = round(p 2^prec / q) and
    w_n = round(w_(n-1) p^2 / q^2) are linear-time steps for small p, q.
    Against W_n = r^(2n+1) 2^prec, |w_0 - W_0| <= 1/2 and |w_n - W_n| <=
    |w_(n-1) - W_(n-1)| r^2 + 1/2 <= 9/16, as r^2 <= 1/9.  So the summand
    round(w_n / (2n+1)) is within 9/16/3 + 1/2 < 1 of W_n / (2n+1) (w_0
    itself, within 1/2, for n = 0).  The loop stops at the first N with
    |w_N| <= 1, so |W_N| < 2 and the tail sum_(n>N) |W_n|/(2n+1) is below
    |W_N| r^2/(1 - r^2)/(2N+3) < 1/12 < 0.2.  Doubled, the N+1 summands
    and the tail give less than 2(N+1) + 0.4 < 2N + 4 ulps.
    """
    p2x2, q2, q2x2 = 2 * p * p, q * q, 2 * q * q
    power = _fix(p, q, prec)
    acc = power
    n = 0
    while abs(power) > 1:
        n += 1
        if n > MAX_SERIES_TERMS:
            raise ResourceError("log series exceeded the term budget")
        power = (power * p2x2 + q2) // q2x2
        acc += (power + n) // (2 * n + 1)  # nearest, as 2n+1 is odd
    return 2 * acc, 2 * n + 4


def _ln_split_fixed(num: int, den: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of ln m, m = num/den in [1/2, 2].

    m = (c/2^K) t with c = round(m 2^K) in [2^(K-1), 2^(K+1)], so
    ln m = 2 atanh(p/q) + 2 atanh(b) with p/q = (c - 2^K)/(c + 2^K) in
    [-1/3, 1/3] and b = (t - 1)/(t + 1) = (m 2^K - c)/(m 2^K + c), where
    |m 2^K - c| <= 1/2 and m 2^K + c >= 2^K - 1/2 give |b| < 2^-K.  The
    first part takes the small-ratio series, the second the full-width one
    in about prec/(2K) terms; the error is the sum of their two bounds.
    Either part is skipped when it is exactly zero (c = 2^K, or b = 0).
    """
    one = 1 << _SPLIT_BITS
    c = _fix(num, den, _SPLIT_BITS)
    value = err = 0
    if c != one:
        g = math.gcd(c - one, c + one)
        value, err = _atanh_ratio_fixed((c - one) // g, (c + one) // g, prec)
    scaled = num << _SPLIT_BITS  # b = (scaled - c den) / (scaled + c den)
    if scaled != c * den:
        v, e = _atanh_series_fixed(_fix(scaled - c * den, scaled + c * den, prec), prec)
        value += v
        err += e
    return value, err


@functools.cache
def _ln2_copy(wide: int) -> tuple[int, int]:
    return _atanh_ratio_fixed(1, 3, wide)


def _ln2_fixed(prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of ln 2 = 2 atanh(1/3).

    The copy shifted down is the one at the next power of two at or above
    prec plus guard bits that cover the series' ulps, so the result depends
    on prec alone; one copy per width is kept.  A request d bits narrower
    than its copy is that copy shifted right with rounding: value / 2^d is
    within e / 2^d of the scaled ln 2 and the rounding adds 1/2 ulp, so the
    error is ceil(e / 2^d) + 1 ulps.
    """
    # guard bits: the series' 2N + 4 ulps, N ~ prec/3, shift to ~2 ulps
    wide = 1 << (prec + prec.bit_length() + 1).bit_length()
    value, err = _ln2_copy(wide)
    d = wide - prec
    return _shift_round(value, d), -(-err >> d) + 1


# ---------------------------------------------------------------------------
# exp / ln: integer cores and their Ball wrappers


def _exp_fixed(num: int, den: int, tn: int, td: int) -> tuple[int, int, int]:
    """(value, err, prec) of e^(num/den), den > 0, with err / 2^prec <= tn / td.

    Each series stops within M = MAX_SERIES_TERMS terms (else ResourceError),
    so the kernel errs by under 4 M < 2^19 ulps of 2^-prec (about 0.5 prec in
    practice).  Squaring back h halvings, roundings included, scales that by
    under 2.01^h, and e^x < 2^(mag_bits - 1): prec's 2h + mag_bits + 26 bits over
    tol_bits leave the error below tol / 2^7, and the check only guards this.
    """
    if num > _EXP_ARG_CAP * den:
        raise MagnitudeError("exp argument too large; result would blow past the magnitude cap")
    if num == 0:
        return 1, 0, 0
    halvings = max(0, abs(num).bit_length() - den.bit_length())
    halvings += abs(num) > den << halvings  # the fewest h with |num| <= den 2^h
    mag_bits = 2 if num < 0 else (3 * num) // (2 * den) + 2
    # 2 bits above the 24 guard bits keep the split series' ulps below the
    # single series' ones, so no radius widens
    prec = _tol_bits(tn, td) + 2 * halvings + mag_bits + 26
    value, err = _exp_split_fixed(num, den << halvings, prec)
    for _ in range(halvings):  # round_ball's rule for a squared ball
        square = value * value
        s = _shift_round(square, prec)
        err = -(-(2 * abs(value) * err + err * err + abs(square - (s << prec))) >> prec)
        value = s
    if err * td > tn << prec:
        raise PrecisionError("exp failed to reach the requested radius")
    return value, err, prec


def _ln_fixed(num: int, den: int, tn: int, td: int) -> tuple[int, int, int]:
    """(value, err, prec) of ln(num/den), den > 0, with err / 2^prec <= tn / td.

    Each series stops within M = MAX_SERIES_TERMS terms (else ResourceError),
    so ln m errs by at most 5 M + 17 ulps of 2^-prec and ln 2 by 2 M + 4; with
    s = bit_length(max(1, |shift|)), ln m + shift ln 2 errs by under 2^(s + 20)
    ulps (about 0.5 prec in practice).  prec's s + 26 bits over tol_bits put
    the error below tol / 2^6, so the check only guards this.
    """
    if num <= 0:
        raise DomainError("log of a non-positive value")
    if num == den:
        return 0, 0, 0
    # scale by powers of two into m = num/den in (1/2, 2), then into
    # [1/sqrt 2, sqrt 2), where the small-ratio series steps by (p/q)^2 < 0.03
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
    # 2 bits above the 24 guard bits keep the split series' ulps below the
    # single series' ones, so no radius widens
    prec = _tol_bits(tn, td) + max(1, abs(shift)).bit_length() + 26
    value, err = _ln_split_fixed(num, den, prec)
    if shift:
        ln2, ln2_err = _ln2_fixed(prec)
        value += shift * ln2
        err += abs(shift) * ln2_err
    if err * td > tn << prec:
        raise PrecisionError("ln failed to reach the requested radius")
    return value, err, prec


def exp_e(a: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing e^a with radius <= the configured target error."""
    tol = cfg.target_error
    b = as_ball(a)
    num, den = b.center.numerator, b.center.denominator
    if b.is_exact:
        value, err, prec = _exp_fixed(num, den, tol.numerator, tol.denominator)
        return _snap(value, err, 1 << prec, prec)
    if b.radius > Fraction(1, 2):
        raise PrecisionError("exp argument too imprecise")
    value, err, prec = _exp_fixed(num, den, tol.numerator, 2 * tol.denominator)
    # e^(c +/- r) within e^c * e^(+/-r), and e^r - 1 <= 2r for r <= ln 2
    rn, rd = b.radius.numerator, b.radius.denominator
    return _snap(value * rd, err * rd + 2 * rn * (value + err), rd << prec, tol_bits(tol) + 16)


def ln_e(a: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing ln a (a > 0) with radius <= the target error."""
    tol = cfg.target_error
    b = as_ball(a)
    num, den = b.center.numerator, b.center.denominator
    if b.is_exact:
        value, err, prec = _ln_fixed(num, den, tol.numerator, tol.denominator)
        return _snap(value, err, 1 << prec, prec)
    if b.lo <= 0:
        if b.hi <= 0:
            raise DomainError("log of a non-positive value")
        raise PrecisionError("log argument interval reaches zero")
    value, err, prec = _ln_fixed(num, den, tol.numerator, 2 * tol.denominator)
    extra = b.radius / b.lo  # Lipschitz bound 1/min on [lo, hi]
    xn, xd = extra.numerator, extra.denominator
    return _snap(value * xd, err * xd + (xn << prec), xd << prec, tol_bits(tol) + 16)


# ---------------------------------------------------------------------------
# power / root / log


def _exact_int_pow(base: Fraction, n: int) -> Fraction | None:
    """base**n when the representation stays within the magnitude cap."""
    digits = max(base.numerator.bit_length(), base.denominator.bit_length())
    if digits * abs(n) > MAX_MAGNITUDE_BITS + 64:
        return None
    return base**n


def power(a: Fraction | Ball, b: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing a^b.

    Domain: a > 0 with any rational/ball b; a < 0 only with an exact
    integer b (sign by parity); a = 0 only with exact b > 0; a ball that
    reaches 0 only with an exact integer b >= 0.
    """
    tol = cfg.target_error
    av = as_ball(a)
    bv = as_ball(b)
    n = bv.center.numerator if bv.is_exact and bv.center.denominator == 1 else None

    if av.lo <= 0:  # a base that is not certainly positive
        if av.is_exact and av.center == 0:
            if bv.is_exact and bv.center > 0:
                return Ball(Fraction(0))
            raise DomainError("0 may only be raised to an exact positive power")
        if n is None and av.is_exact:
            raise DomainError("negative base needs an exact integer exponent")
        if n is not None and av.hi < 0:  # sign by parity
            out = power(-av, bv, cfg)
            return -out if n % 2 else out
        if n is not None and n >= 2:  # x^n within M^n of 0, M = max |x|
            bound = power(max(-av.lo, av.hi), bv, cfg).hi
            return round_ball(Ball(Fraction(0), bound), tol_bits(tol) + 16)
        if n not in (0, 1):  # exponents 0 and 1 take the exact paths below
            if av.hi <= 0:
                raise DomainError("power base must be positive")
            raise PrecisionError("power base interval reaches zero")

    if av.is_exact and av.center == 1:
        return Ball(Fraction(1))
    if bv.is_exact:
        if bv.center == 0:
            return Ball(Fraction(1))
        if bv.center == 1:
            return round_ball(av, tol_bits(tol) + 16) if not av.is_exact else av
        if n is not None and av.is_exact:
            exact = _exact_int_pow(av.center, n)
            if exact is not None:
                return Ball(exact)
            if av.center > 1 and n > 0:
                raise MagnitudeError("integer power exceeds the magnitude cap")

    # Refine only the computational error; spread inherited from ball inputs
    # is propagated rigorously but cannot be shrunk here, so it rides on top
    # of the target (whole-expression refinement re-requests tighter inputs).
    tn, td, bn, bd = tol.numerator, tol.denominator, bv.center.numerator, bv.center.denominator
    ln_shift = _power_scale_bits(av, bv)  # ln's tolerance is tol / 2^ln_shift
    ln_input = av.radius / av.lo  # Lipschitz bound for ln over [lo, hi]
    for _ in range(_REFINE_ATTEMPTS):
        L, l_err, p = _ln_fixed(av.center.numerator, av.center.denominator, tn, td << ln_shift)
        if bn * L > (_EXP_ARG_CAP * bd) << p:
            raise MagnitudeError("power result would blow past the magnitude cap")
        if 8 * abs(bn) * l_err > bd << p:  # r_comp = |b| l_err / 2^p > 1/8
            ln_shift += 4
            continue
        r_input = abs(bv.center) * ln_input + bv.radius * (
            Fraction(abs(L) + l_err, 1 << p) + ln_input)
        if r_input > Fraction(1, 2):
            raise PrecisionError("power inputs too imprecise for an enclosure")
        E, e_err, q = _exp_fixed(bn * L, bd << p, tn, td << 2)
        # e^r - 1 <= 2r for r <= ln 2: r_comp widens by 2 r_comp (E + e_err) / 2^q
        d = bd << (p + q)
        widen_comp = 2 * abs(bn) * l_err * (E + e_err)
        if 2 * widen_comp * td > tn * d:  # widen_comp / d > tol / 2
            ln_shift += 4
            continue
        widen = 2 * r_input * Fraction(E + e_err, 1 << q)  # the inputs' share
        wn, wd = widen.numerator, widen.denominator
        return _snap(((E * bd) << p) * wd, (((e_err * bd) << p) + widen_comp) * wd + wn * d,
                     d * wd, _tol_bits(tn * wd + wn * td, td * wd) + 16)
    raise PrecisionError("power failed to reach the requested radius")


def _log_abs_float(x: Fraction) -> float:
    """Rough ln|x| for a nonzero rational of any magnitude."""
    num, den = abs(x.numerator), x.denominator
    shift = num.bit_length() - den.bit_length()
    # int true division is correctly rounded, as float(Fraction) is
    m = num / (den << shift) if shift >= 0 else (num << -shift) / den
    return math.log(m) + shift * math.log(2)


def _power_scale_bits(av: Ball, bv: Ball) -> int:
    """Extra tolerance bits the exponent needs for |result| = e^(b ln a).

    The absolute output error scales with the result magnitude times the
    exponent's error, and the exponent's error scales with |b| times the
    log's error; a magnitude-blind starting tolerance would take thousands
    of refinement rounds on tower-sized values.  Blow-ups surface here
    before any expensive arithmetic runs.
    """
    ln2 = math.log(2)
    ln_a = _log_abs_float(av.center) if av.center != 1 else 0.0
    b_log = _log_abs_float(bv.center) if bv.center != 0 else -1e9
    positive = (bv.center > 0) == (ln_a > 0)
    if ln_a == 0.0:
        magnitude = 0.0
    else:
        ln_exponent = b_log + math.log(abs(ln_a))
        if ln_exponent > math.log(_EXP_ARG_CAP):
            if positive:
                raise MagnitudeError("power result would blow past the magnitude cap")
            magnitude = 0.0
        else:
            magnitude = math.exp(ln_exponent) / ln2 if positive else 0.0
    return math.ceil(magnitude + max(0.0, b_log) / ln2) + 16


def root(a: Fraction | Ball, b: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing the b-th root of a: the x with x^b = a (a > 0, b != 0)."""
    bv = as_ball(b)
    if bv.is_exact:
        if bv.center == 0:
            raise DomainError("0th root")
        recip: Fraction | Ball = 1 / bv.center
    else:
        recip = divide(Ball(Fraction(1)), bv)
    av = as_ball(a)
    if (av.is_exact and av.center <= 0) or (not av.is_exact and av.hi <= 0):
        raise DomainError("root base must be positive")
    return power(a, recip, cfg)


def log(a: Fraction | Ball, b: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing log base b of a (a > 0, b > 0, b != 1)."""
    tol = cfg.target_error
    av = as_ball(a)
    bv = as_ball(b)
    if bv.is_exact and bv.center == 1:
        raise DomainError("log base 1")
    if av.is_exact and bv.is_exact:
        if av.center == bv.center and av.center > 1:
            return Ball(Fraction(1))
        if av.center == 1 and bv.center > 0:
            return Ball(Fraction(0))
    for name, ball in (("value", av), ("base", bv)):
        if (ball.is_exact and ball.center <= 0) or ball.hi <= 0:
            raise DomainError(f"log {name} must be positive")
        if ball.lo <= 0:
            raise PrecisionError(f"log {name} interval reaches zero")
    extra_a = av.radius / av.lo
    extra_b = bv.radius / bv.lo
    tn, td = tol.numerator, tol.denominator

    def widened(v, e, p, extra):  # v / 2^p +/- (e / 2^p + extra) as an integer ball
        xn, xd = extra.numerator, extra.denominator
        return v * xd, e * xd + (xn << p), xd << p

    for attempt in range(_REFINE_ATTEMPTS):  # the logs' tolerance is tol / 16^attempt
        ln_a = _ln_fixed(av.center.numerator, av.center.denominator, tn, td << 4 * attempt)
        ln_b = _ln_fixed(bv.center.numerator, bv.center.denominator, tn, td << 4 * attempt)
        full = _quotient(*widened(*ln_a, extra_a), *widened(*ln_b, extra_b))
        if full is None:
            if bv.is_exact:  # b != 1 exactly, so tightening must separate it
                continue
            raise PrecisionError("log base interval reaches 1")
        # computational part alone must meet the target; input spread rides
        _, cr, cd = _quotient(*widened(*ln_a, 0), *widened(*ln_b, 0))
        if cr * td > tn * cd:
            continue
        _, fr, fd = full  # rounded at tol_bits(tol + fr/fd - cr/cd) + 16 bits
        return _snap(*full, _tol_bits(tn * fd * cd + td * (fr * cd - cr * fd), td * fd * cd) + 16)
    raise PrecisionError("log failed to reach the requested radius")

