"""Rank-3 operations: exponential, natural log, power, root, logarithm.

The rank-3 pipeline runs in integer fixed point (values scaled by 2^prec)
with explicit ulp accounting, so results are rigorous Balls.  Every rounding
is to nearest: a division by 2^prec is a rounding shift, and a division by
2^prec * n is that shift then a divide by n alone, so no series step divides
by a number of the working width.

From _BASECASE_PREC bits of working precision up, both series split their
argument at a K-bit dyadic (K = _SPLIT_BITS; Brent & Zimmermann, Modern
Computer Arithmetic, 4.4 and 4.9):

  exp(x) = exp(c/2^K) * exp(x - c/2^K),  c = round(x 2^K), after halving
           the argument into |x| <= 1.  The first factor is sum u^n/n! with
           u = c/2^K, a small-ratio series (below); the second is the
           full-width Taylor series of an argument below 2^-K, N ~ prec/K
           terms in about 2 sqrt(2N) products (below).  One fixed-point
           product joins them.
  ln(m)  = 2 atanh(p/q) + 2 atanh(b),  m = a / 2^shift in [1/sqrt 2, sqrt 2),
           c = round(m 2^K), p/q = (c - 2^K)/(c + 2^K), |p/q| < 0.18,
           b = (m 2^K - c)/(m 2^K + c), |b| < 2^-K.  The first is a
           small-ratio series in p^2/q^2; the second is full width, N ~
           prec/(2K) terms in about 2 sqrt(2N) products.  A small-height
           m = num/den, num + den < 2^(K+1), needs only the first series,
           with p/q = (num - den)/(num + den).
  ln(a)  = ln(m) + shift * ln 2,  ln 2 = 2 atanh(1/3) by the small-ratio
           series, kept as one copy per power-of-two width; a request is a
           rounding shift of the copy at the next power of two above it (plus
           guard bits), with error ceil(e/2^d) + 1 ulps for a copy e ulps off
           and d bits wider, so it depends on the request alone.

Below _BASECASE_PREC bits of working precision the split's two series cost
more than one short series, and a full-height argument takes that instead
(Brent & Zimmermann, 4.3-4.4; mpmath's `exp_basecase`):

  exp(x) = exp(x / 2^m)^(2^m),  m the fewest halvings with |x| / 2^m <=
           2^-r, r = max(6, isqrt(tol_bits)): one full-width series of
           about prec / r terms and m squarings rounded to nearest, whose
           error is bounded once, after them, from the series' error.
  ln(m)  = 2 atanh(z),  z = (num - den)/(num + den), |z| < 0.172 on
           [1/sqrt 2, sqrt 2): one full-width series of about prec / 5
           terms.

A small-height m keeps the small-ratio series at every precision: its terms
shrink by a ratio of small ints, so for m = 7/5 it costs 5.8 us against the
z series' 7.6 at 128 bits, and 192 against 798 at 3,200.  The measured table
is at _BASECASE_PREC; above it both kernels split as before.

In the two small-ratio series each term is the last one times a small
rational, c/(n 2^K) or (p/q)^2 (2n-1)/(2n+1), so they sum blocks of B terms
in one full-width step each (rectangular, or concurrent, series splitting:
Brent & Zimmermann, 4.4.3; mpmath's `log_taylor` and `exp_basecase` share
one full-width product between two terms).  A Horner loop of small-int
steps builds the block's exact sum as one rational U/V, as wide as B small
ratios; the block adds round(w U/V) to the sum, w the scaled first term,
and rounds w times the block's ratio into the next block's first term.  A
block thus costs about what one term did, and the roundings, and so the
ulps of error, count blocks, not terms.  B is a quarter of the series'
estimated length, prec over the bits a term drops (bits(q^2) - bits(p^2),
or about log2 prec + K - bits(c)), held within [3, 32]: blocks of 3 to 10
terms at 64-256 bits, of 32 at 3,000 bits.
MAX_SERIES_TERMS still counts terms.

The two full-width series have no small ratio between terms, so there a
term costs a full-width product unless the products are shared:
rectangular splitting in Smith's concurrent form (D. M. Smith, Math. Comp.
52, 1989; Brent & Zimmermann, 4.4.3; mpmath's `exponential_series`).  The
term n = jk + i is x^i (x = b^2 for atanh) times a shrinking a that moves
by small-int divides within a block of k terms and by one product with x^k
between blocks, and each column i sums its a's before one product with
x^i.  The powers x^2 ... x^k take k - 1 products, the blocks one each and
the columns k - 1: about N/k + 2k products for N terms, least at k =
sqrt(N/2), so k = isqrt(N/2) for N estimated from prec and the argument's
bit length.  Below _MIN_SPLIT_TERMS = 16 terms (about 400 bits for the
split's exp series, 800 for its atanh) k = 1, the term-by-term loop, which
costs least there.  At 3,000 bits an exp series of about 100 terms takes
about 30 products, and at 32,000 bits one of about 1,000 terms about 90.

Each kernel's docstring states its error bound in ulps of 2^-prec with the
proof.  Above them `_exp_fixed` and `_ln_fixed` return (value, err, prec) for
a tolerance passed as ints (tn, td), and exp squares its halved value
back, rounding to nearest, and bounds the error once, after the squarings.

The general power `[a+++b]` is exp(b * ln a), root `[a---b]` is pow(a, 1/b),
and log `[a///b]` is ln a / ln b.  Every operation reads its operands as
integer balls (c +/- r) / d, and ln and exp of a ball are each written once
(as in Arb's midpoint-radius model, Johansson, IEEE Trans. Computers 66(8),
2017): `_ln_ball` is `_ln_fixed` at the center widened by ln's Lipschitz
term r / (c - r), and `_exp_ball` is `_exp_fixed` at the center widened by
`_exp_spread`'s e^r - 1 <= r (1 + r), for the spread r <= 5/8 that it
checks, the one spread check of the module.  Both return unsnapped integer
balls on the center's grid 2^-prec, the widening rounded up to it, so an
operand's long denominator never reaches the result.  `power` multiplies
the ln ball by b with `Ball`'s exact product and takes its exp, `log`
divides two ln balls with `balls`' integer quotient, and `exp_e` and `ln_e`
are one primitive each; every ball result is then snapped once, onto the grid
2^-(tol_bits(tol) + 16).  Those steps depend on values only, so a ball's
integer form, which is not in lowest terms, gives the digits and radii that
the same formulas give over Fractions.  Two steps depend on the form,
`_ln_fixed`'s small-height series and `_log_abs_float`'s split of a
rational into mantissa and exponent; they take their input in lowest terms
(`_lowest`).  Integer exponents take an exact path when the result stays
representable, and exact non-integer ones the certified root below, on an
exact base and a ball alike; a base ball that reaches 0 takes an integer
exponent n >= 2 to within max|x|^n of 0.  A power certainly below a quarter
of the snap grid is the ball 0 +/- that grid, the ball the general path
snaps it to, before any series runs (`_underflow_bits`, integers only).

Each operation makes one attempt and returns the rigorous ball it reaches,
which may be wider than asked (a base near 1 multiplies log's errors by
1/ln b); an operand ball too wide for an enclosure raises PrecisionError.
`engine.evaluate`, not a kernel, re-runs at a tighter tolerance.

Exact exponents and exact logs skip the series where the answer is
algebraic (Brent & Zimmermann, 1.5.2 and 4.2; Bernstein, "Detecting perfect
powers in essentially linear time", Math. Comp. 67, 1998):

  x^(P/Q), Q >= 2, over the base's interval [lo, hi] = [(c - r)/d, (c + r)/d],
           c > r >= 0.  An exact base (r = 0), n/d in lowest terms, is exact
           when n and d are perfect Q-th powers (integer Newton roots, one
           exact power each), under the integer path's size cap.  Otherwise,
           with P > 0 after swapping n and d, P is folded into the radicand:
           lo = hi = M = n^P / d^P, and P = 1 from here.  A ball keeps P: a
           negative P first inverts the interval into [d/(c + r), d/(c - r)],
           and the radicand M is its midpoint in lowest terms, so the result
           cannot depend on the ball's integer form.  With k = floor((bits
           num(M) - bits den(M)) / Q) and m = M^(1/Q) / 2^k in (2^(-1/Q), 2):
           Newton's y' = ((Q-1) y + A / y^(Q-1)) / Q on A = round(m^Q 2^prec),
           from a 50-bit float start at precisions p <= 2p' - bits(Q) - 4, so
           each step's quadratic term stays below an ulp; it lands within
           about 2 ulps of m 2^prec.  The root's slope x^(1/Q - 1) / Q is
           largest at lo, and lo^(1/Q) <= M^(1/Q), so the ends' roots lie
           within M^(1/Q) (hi - lo) / (2 Q lo) of the midpoint's; the bracket
           is y -/+ g, g = G + ceil(y (hi - lo) / (2 Q lo)), G = 64 (g = G for
           an exact base).  g only sizes it.  Certificate: ((y - g)/2^prec)^Q
           2^prec rounded up at every product is at most lo 2^prec / 2^(kQ),
           and (y + g)'s rounded down at least hi 2^prec / 2^(kQ).  Products
           of nonnegative values are monotone, so those bounds bracket the
           exact powers, and (y - g)^Q <= lo, hi <= (y + g)^Q put the root of
           every x in [lo, hi] within [y - g, y + g] / 2^prec.  A failed
           check, or a bracket that reaches 0, falls back to exp/ln; nothing
           widens to pass.  The bracket's ends are raised to P by the same
           binary powering, rounded down and up, which holds x^(P/Q) over the
           interval since x^P grows on x >= 0, and the ball snaps onto
           exp/ln's 2^-(tol_bits + 16) grid.  prec = tol_bits + 16 + kP + t +
           bits(P - 1) + 16, with m^(P-1) < 2^t, puts the G ulps' share P
           m^(P-1) G of the result at 2^-(tol_bits + 26), and the powers'
           roundings below it; for P = 1 that is tol_bits + 16 + k + 16, and
           the snap ends at one ulp, never wider than exp/ln's own result (a
           ball's, than exp/ln's and one grid step).  Gates: Q <
           2^_ROOT_Q_BITS; for an exact base a radicand height P bits(a)
           within prec, and for a ball P < 2^_ROOT_Q_BITS and a result below
           2^(MAX_MAGNITUDE_BITS + 1).  exp/ln takes ball exponents, the root
           finders' dyadic ones (Q >= 2^24), tall radicands and the balls the
           gates refuse, so an underflow keeps `_underflow_bits`' grid ball
           and a result past the cap its immediate MagnitudeError.
  log_b a, a, b > 0 exact.  Rational exactly when a = c^j and b = c^k for the
           c > 1 that is no perfect power: c is the primitive root of the
           operand of smaller height, found by prime roots below its bit
           length (skipped past _EXACT_LOG_HEIGHT bits), and one exact power
           tests the other.  The answer is j/k.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .balls import Ball, _ball, _quotient, _snap, as_ball, divide, round_ball
from .errors import DomainError, MagnitudeError, PrecisionError, ResourceError
from .records import Record, _set

# Any value whose integer part would exceed 2^MAX_MAGNITUDE_BITS is treated
# as a blow-up; exp() arguments are capped at MAX_MAGNITUDE_BITS * ln 2.
MAX_MAGNITUDE_BITS = 1 << 20
_EXP_ARG_CAP = math.floor(MAX_MAGNITUDE_BITS * math.log(2))

# Terms per series call.
MAX_SERIES_TERMS = 100_000


class SeriesConfig(Record):
    __slots__ = ("target_error",)

    def __init__(self, target_error: Fraction):
        if target_error <= 0:
            raise ValueError("target error must be positive")
        _set(self, "target_error", target_error)


def tol_bits(tol: Fraction) -> int:
    """Bits b with 2^-b <= tol."""
    return _tol_bits(tol.numerator, tol.denominator)


def _tol_bits(tn: int, td: int) -> int:
    """tol_bits(tn / td), for a tolerance passed as a pair of ints > 0.

    (td // tn).bit_length() + 1 without the division: with k the bit
    lengths' difference, td // tn has k + 1 bits when td >= tn * 2^k, else k.
    """
    if tn >= td:
        return 1
    k = td.bit_length() - tn.bit_length()
    return k + 1 + (td >= tn << k)


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
# Bounds on the terms a small-ratio series sums per full-width step.
_MIN_BLOCK, _MAX_BLOCK = 3, 32
# A full-width series of fewer terms than this is summed term by term (k =
# 1): below about 400 bits a block's small-int steps cost what the products
# they save do (CPython 3.11, 64-1,000 bits).
_MIN_SPLIT_TERMS = 16
# Below this working precision `_exp_fixed` and `_ln_split_fixed` skip the
# K-bit split for a full-height argument: exp reduces it to |x| <= 2^-6 or
# less and squares back, ln sums one full-width series on the whole z.  Per
# call in us, CPython 3.11 on a 2-core x86-64 container, best of 21 over 16
# full-height arguments (x in [-3, 6], ln's a in [1, 40]), by tol_bits; the
# working precision is about 30 bits more:
#
#   tol_bits      48    100   160   230   500  1,000  1,500  1,850  2,000  2,500  3,200
#   exp split   13.3   15.4  14.9  20.1  38.9   79.3    139    192    216    302    458
#   exp reduced  8.1   10.1  10.2  13.4  23.6   58.8    111    169    195    327    511
#   ln split     7.8   10.9  15.1  20.0  43.5    102    180    246    308    393    594
#   ln z series  5.4    8.5  10.8  14.3  29.8   78.4    153    248    319    426    705
#
# ln's one series stops paying near 1,900 working bits, exp's reduction near
# 2,400; the series-digits workload's calls (2,883 bits and more) keep the
# split either way.
_BASECASE_PREC = 1920


# ---------------------------------------------------------------------------
# fixed-point kernels


def _exp_series_fixed(xf: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of exp(x) for |x| <= 2^-6, given
    xf = x 2^prec rounded to nearest.  The K-bit split hands it |x| < 2^-K,
    `_exp_fixed`'s reduction below _BASECASE_PREC |x| <= 2^-6.

    Rectangular splitting in the concurrent form of the module docstring.
    With x' = xf / 2^prec, s = prec - bits(xf) (so |x'| < 2^-s), k =
    isqrt(N/2) for the term estimate N = prec / s (k = 1 below
    _MIN_SPLIT_TERMS terms), and n = jk + i, the term x'^n / n! is A_n x'^i
    with A_n = x'^(jk) / n!.  The powers P_i ~ x'^i 2^prec (P_1 = xf) take
    k - 1 products.  a_n ~ A_n 2^prec is
    a_(n-1) / n, a small-int divide, except at a block start (i = 0), where
    the divide also takes one product by P_k of the shrinking a_(n-1).  a_n
    adds into its column's sum S_i, and the value is S_0 + sum_(i>=1)
    round(S_i P_i / 2^prec), k - 1 products more.  Block 0 and a_k are
    formed before the loop (for k = 1, a_1 = xf); k = 1 is the term-by-term
    loop.  The loop stops at the first block start N = Jk >= 2 with |a_N| <=
    2.

    Error.  |x'| <= 2^-6, as xf rounds a value of at most 2^(prec-6).  P_i
    is within d_i <= d_(i-1) |x'| + 1/2 < 0.51 of x'^i 2^prec.  a_0 = 2^prec
    and a_1 (2^prec / 1, or xf when k = 1) are exact; at n >= 2 a divide
    adds 1/2 to e_(n-1) / n, a block start adds 1/2 to (e_(n-1) |P_k| + d_k
    |A_(n-1)| 2^prec) / (n 2^prec) <= (2^-5.9 e_(n-1) + 0.51) / n, so every
    e_n <= 1 and a block start's <= 0.77.  S_0 is then within 0.77 J and
    each S_i, i >= 1, within J.  round(S_i P_i / 2^prec) is within J
    (|x'|^i + 2^-prec) + 0.51 |sum_j A_(jk+i)| + 1/2 of its exact column.
    Over i >= 1 the first parts add to under 0.016 J (k > 1 needs N >= 16,
    so prec >= 96, and (k - 1) J <= MAX_SERIES_TERMS < 2^17), and the sums
    of |A_(jk+i)| to at most sum_(n>=1) 1/n! < 1.72.  The terms past N fall
    by |x'| / (N + 1) <= 2^-6 / 3 a term from |A_N 2^prec| < 3, so they add
    under 0.016, and e^x - e^x' adds 0.51 for xf's rounding (e^x < 1.016).
    Total: 0.786 J + (k - 1)/2 + 0.88 + 0.016 + 0.51 < J + k + 1.
    """
    terms = prec // (prec - xf.bit_length())
    k = math.isqrt(terms >> 1) if terms >= _MIN_SPLIT_TERMS else 1
    a = xk = xf  # for k = 1, block 0 is a_0 alone and a_1 = xf is exact
    if k > 1:  # the powers, then block 0's columns i >= 1 and a_k
        powers = [xf]
        for _ in range(k - 1):
            powers.append(_shift_round(powers[-1] * xf, prec))
        xk = powers.pop()
        inner, sums, a = range(k - 1), [], 1 << prec
        for i in range(1, k):
            a = ((a << 1) + i) // (i << 1)
            sums.append(a)
        a = _shift_div_round(a * xk, prec, k)
    acc = (1 << prec) + a
    n = k
    while abs(a) > 2 or n < 2:
        if n + k > MAX_SERIES_TERMS:
            raise ResourceError("exp series exceeded the term budget")
        if k > 1:  # an empty loop's set-up would cost k = 1 a tenth
            for i in inner:
                n += 1
                a = ((a << 1) + n) // (n << 1)
                sums[i] += a
        n += 1
        # `_shift_div_round(a * xk, prec, n)`, written out: the call costs
        # 64-400-bit series about a tenth of their time
        a = ((2 * (a * xk) + (n << prec)) >> (prec + 1)) // n
        acc += a
    if k > 1:
        for column, power in zip(sums, powers):
            acc += _shift_round(column * power, prec)
    return acc, n // k + k + 1


def _block_terms(prec: int, shed: int) -> int:
    """Terms per block of a small-ratio series that starts near 2^prec and
    loses about `shed` bits a term: a quarter of its prec / shed terms,
    within [_MIN_BLOCK, _MAX_BLOCK].  Each block is a handful of small-int
    steps a term and one full-width product and rounding, so blocks pay
    once there are several of them; the cap bounds the block's exact
    rational, as wide as B small ratios."""
    return min(_MAX_BLOCK, max(_MIN_BLOCK, prec // (4 * shed)))


def _exp_ratio_fixed(c: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of exp(u), u = c/2^K, |u| <= 1.

    Blocks of B terms (`_block_terms`, B >= _MIN_BLOCK = 3): from the exact
    scaled terms T_n = u^n/n! 2^prec, T_(n+j) = T_n F_j with F_j = c^j /
    (2^(Kj) (n+1) ... (n+j)).  A Horner loop of small-int steps builds the
    block's sum F = sum_(j<B) F_j = U / (V 2^(K(B-1))), so w ~ T_n adds
    round(w F), a product, a rounding shift and a divide by V, a product of
    B - 1 term indices; then w <- round(w F_B), with F_B = c^B / (2^(KB)
    (n+1) ... (n+B)), starts the next block.  w starts exact at 2^prec.
    Its error e_k at the k-th block is at most 3/4: e_1 <= 1/2 and e_(k+1)
    <= e_k |F_B| + 1/2 with |F_B| <= 1/B! <= 1/6, as B >= 3.  A block's sum
    is then within e_k |F| + 1/2 of the exact one: within 1/2 for k = 0,
    and within 3/4 * 3/2 + 1/2 = 13/8 after, as |F| <= sum (1/(n+1))^j <=
    3/2 for n >= B.  The loop stops after the first block whose next w has
    |w| <= 1 and adds that w, the term T_N of N = B * blocks terms, within
    3/4; so |T_N| < 7/4, every later ratio |u|/(n+1) is at most 1/(N+1),
    and the tail is below |T_N| / N < 7/8.  Error: 1/2 + 13/8 (blocks - 1)
    + 3/4 + 7/8 <= 2 blocks + 1.
    """
    K = _SPLIT_BITS
    B = _block_terms(prec, max(1, prec.bit_length() - 2 + K - abs(c).bit_length()))
    cB, s, one, inner = c**B, K * (B - 1), 1 << K, range(B - 1)
    acc, w, n = 0, 1 << prec, 0
    while True:
        n += B
        if n > MAX_SERIES_TERMS:
            raise ResourceError("exp series exceeded the term budget")
        # Horner from the block's last term n - 1 down: each step multiplies
        # z by (index << K), so z = V 2^(K(B-1)) at the end
        u = z = 1
        m = n << K
        for _ in inner:
            m -= one
            z *= m
            u = z + c * u
        acc += ((w * u + (z >> 1)) >> s) // (z >> s)
        z *= n << K
        w = ((w * cB + (z >> 1)) >> (s + K)) // (z >> (s + K))
        if abs(w) <= 1:
            return acc + w, 2 * (n // B) + 1


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
    """(value, error) in 2^-prec ulps of 2 atanh(b) = 2 sum b^(2n+1)/(2n+1)
    for |b| <= 1/3, given bf = b 2^prec rounded to nearest.  The K-bit
    split hands it |b| < 2^-K, `_ln_split_fixed` below _BASECASE_PREC the
    whole z = (num - den)/(num + den), |z| <= 1/3 on [1/2, 2].

    Rectangular splitting in the concurrent form of the module docstring,
    in y = b^2.  With b' = bf / 2^prec, s = prec - bits(bf) (so |b'| <
    2^-s), y' = b'^2, k = isqrt(N/2) for the term estimate N = prec / 2s
    (k = 1 below _MIN_SPLIT_TERMS terms), and n = jk + i, the term
    b'^(2n+1) / (2n+1) is A_j y'^i / (2n+1) with A_j = b' y'^(jk).  The
    powers Y_i ~ y'^i 2^prec (Y_1 = round(bf^2 / 2^prec)) take k products.
    a_0 = bf, and a_j ~ A_j 2^prec is round(a_(j-1) Y_k / 2^prec), one
    product of the shrinking a per block; the block adds round(a_j /
    (2n+1)), a small-int divide, into each column's sum S_i.  The value is
    2 (S_0 + sum_(i>=1) round(S_i Y_i / 2^prec)), k - 1 products more.  k =
    1 is the term-by-term loop.  The loop stops after the first block J
    with |a_J| <= 2.

    Error.  |b'| < 0.3334, so y' < 0.1112.  Y_i is within h_i <= h_(i-1)
    (y' + 2^-prec) + y'^(i-1) h_1 + 1/2 < 0.63 of y'^i 2^prec (h_1 <= 1/2),
    and a_j within e_j <= e_(j-1) (y'^k + 2^-prec) + |A_(j-1)| h_k + 1/2 <
    0.8, as |A| <= |b'|.  So round(a_j / (2n+1)) is within 0.8/3 + 1/2 <
    0.77 of its exact term for n >= 1 and exact for n = 0: S_0 within 0.77
    J, each S_i within 0.77 (J + 1).  round(S_i Y_i / 2^prec) is within
    0.77 (J + 1) (y'^i + 2^-prec) + |S_i exact| h_i / 2^prec + 1/2 of its
    exact column, with |S_i exact| <= |b'| 2^prec / ((1 - y') (2i+1)): over
    i = 1 .. k - 1 the first parts add to under 0.097 (J + 1) and the
    second to under 0.24 sum 1/(2i+1) <= 0.12 ln(2k - 1).  The terms after
    block J fall from |A_J 2^prec| < 2.8 by y' a term, under 0.12, and
    bf's rounding adds 0.57 (atanh' <= 1/(1 - y')).  So the half-sum errs by
    0.867 J + k/2 + 0.12 ln(2k - 1) + 0.29, under J + k/2 + 1/2 when k = 1
    and when J >= k.  And k > 1 gives J >= k: |b'| >= 2^-(s+1) and the
    loop stops only once 2.8 > |A_J| 2^prec >= 2^(prec - (s+1)(2Jk+1)),
    while N = floor(prec / 2s) >= 2k^2 puts prec >= 4sk^2, so 2Jk + 1 >
    (4sk^2 - 2) / (s + 1) >= 2k^2 - 1 (s >= 1) and Jk > k^2 - 1.  Doubled:
    the error is under 2J + k + 1.
    """
    terms = prec // (2 * (prec - bf.bit_length()))
    k = math.isqrt(terms >> 1) if terms >= _MIN_SPLIT_TERMS else 1
    half = 1 << (prec - 1)
    yk = (bf * bf + half) >> prec
    if k > 1:  # the powers Y_1 .. Y_(k-1), Y_k and block 0's columns i >= 1
        powers = [yk]
        for _ in range(k - 1):
            powers.append(_shift_round(powers[-1] * powers[0], prec))
        yk = powers.pop()
        inner = range(k - 1)
        sums = [(bf + i + 1) // (2 * i + 3) for i in inner]  # nearest, as 2n+1 is odd
    acc = a = bf
    n = 0
    while abs(a) > 2:
        n += k
        if n + k - 1 > MAX_SERIES_TERMS:
            raise ResourceError("log series exceeded the term budget")
        a = (a * yk + half) >> prec
        acc += (a + n) // (2 * n + 1)
        if k > 1:  # as in `_exp_series_fixed`
            for i in inner:
                m = n + i + 1
                sums[i] += (a + m) // (2 * m + 1)
    if k > 1:
        for column, power in zip(sums, powers):
            acc += _shift_round(column * power, prec)
    return 2 * acc, 2 * (n // k) + k + 1


def _atanh_ratio_fixed(p: int, q: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of 2 atanh(p/q), q > 0, |p/q| <= 1/3.

    Blocks of B terms (`_block_terms`, B >= _MIN_BLOCK = 3): with r = p/q,
    x = r^2 and W_n = r^(2n+1) 2^prec, the terms n to n + B - 1 sum to W_n
    U/V, U/V = sum_(j<B) x^j / (2(n+j)+1), an exact rational that a Horner
    loop of small-int steps builds.  So w ~ W_n adds round(w U/V), and w <-
    round(w p^(2B) / q^(2B)) starts the next block, each one product and
    one divide.  w_0 = round(p 2^prec / q) is within 1/2 of W_0, and each
    step keeps w within 9/16, as e' <= e x^B + 1/2 with x <= 1/9.  U/V is
    at most (9/8) / (2n+1): the first block's sum is within 1/2 * 9/8 + 1/2
    < 1.07 of the exact one, every later one (2n+1 >= 5) within 9/16 *
    9/40 + 1/2 < 0.63.  The loop stops at the first block start N with |w|
    <= 1, so |W_N| < 25/16 and the tail sum_(n>=N) |W_n|/(2n+1) is below
    25/16 * 9/8 / (2N+1): under 0.36 for N >= B >= 3, and 1.76 if no block
    ran.  Doubled: 2 * 1.76 < 4 with no block, else 2 (1.07 + 0.63 (blocks
    - 1) + 0.36) < 2 blocks + 4.

    Budget.  A block shrinks |w| by at most 2^-D, D = bits(Q) - bits(P) + 1
    >= 10, and its rounding by at most 1/2, so after k <= (bits(w_0) - 2) //
    D blocks |w| > 2 - 1/2 (1 - 2^-D)^-1 > 1 and another block runs.  A run
    whose B times that many blocks pass MAX_SERIES_TERMS is refused at once.
    """
    p2, q2 = p * p, q * q
    B = _block_terms(prec, q2.bit_length() - p2.bit_length())
    P, Q, inner = p2**B, q2**B, range(B - 1)
    half = Q >> 1
    w = _fix(p, q, prec)
    if B * ((abs(w).bit_length() - 2) // (Q.bit_length() - P.bit_length() + 1) + 1) > MAX_SERIES_TERMS:
        raise ResourceError("log series exceeded the term budget")
    acc = n = 0
    while abs(w) > 1:
        n += B
        if n > MAX_SERIES_TERMS:
            raise ResourceError("log series exceeded the term budget")
        # Horner from the block's last term n - 1 down: u/v = 1/d + x u/v
        # over the odd d = 2(n - B) + 1 ... 2n - 1
        u = 1
        v = d = 2 * n - 1
        for _ in inner:
            d -= 2
            t = q2 * v
            u = t + d * p2 * u
            v = d * t
        acc += (w * u + (v >> 1)) // v
        w = (w * P + half) // Q
    return 2 * acc, 2 * (n // B) + 4


def _ln_split_fixed(num: int, den: int, prec: int) -> tuple[int, int]:
    """(value, error) in 2^-prec ulps of ln m, m = num/den in [1/2, 2].

    ln m = 2 atanh(z), z = (num - den)/(num + den), |z| <= 1/3 on [1/2, 2].
    m = 1 is (0, 0).  A small-height m, num + den below 2^(K+1), is one
    small-ratio series in z, at every precision: its terms shrink by a
    ratio of small ints, so it costs far less than a full-width one.  A
    full-height m below _BASECASE_PREC is one full-width series in z; both
    kernels' bounds hold for |z| <= 1/3 as they stand.

    Otherwise m = (c/2^K) t with c = round(m 2^K) in [2^(K-1), 2^(K+1)], so
    ln m = 2 atanh(p/q) + 2 atanh(b) with p/q = (c - 2^K)/(c + 2^K) in
    [-1/3, 1/3] and b = (t - 1)/(t + 1) = (m 2^K - c)/(m 2^K + c), where
    |m 2^K - c| <= 1/2 and m 2^K + c >= 2^K - 1/2 give |b| < 2^-K.  The
    first part takes the small-ratio series, the second the full-width one
    in about prec/(2K) terms; the error is the sum of their two bounds.
    Either part is skipped when it is exactly zero (c = 2^K, or b = 0).
    """
    if num == den:
        return 0, 0
    if (num + den).bit_length() <= _SPLIT_BITS + 1:
        g = math.gcd(num - den, num + den)
        return _atanh_ratio_fixed((num - den) // g, (num + den) // g, prec)
    if prec < _BASECASE_PREC:
        return _atanh_series_fixed(_fix(num - den, num + den, prec), prec)
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
    # guard bits: enough to shift 2N + 4 ulps, N ~ prec/3 terms, to ~2 ulps;
    # the series' blocks err by far less
    wide = 1 << (prec + prec.bit_length() + 1).bit_length()
    value, err = _ln2_copy(wide)
    d = wide - prec
    return _shift_round(value, d), -(-err >> d) + 1


# ---------------------------------------------------------------------------
# exp / ln: integer cores and their Ball wrappers


def _halvings(a: int, den: int) -> int:
    """The fewest h >= 0 with a <= den 2^h, for a >= 0 and den > 0."""
    h = max(0, a.bit_length() - den.bit_length())
    return h + (a > den << h)


def _exp_fixed(num: int, den: int, tn: int, td: int) -> tuple[int, int, int]:
    """(value, err, prec) of e^(num/den), den > 0, with err / 2^prec <= tn / td.

    The argument x is halved h times, a kernel sums e^(x / 2^h) at prec
    bits, and h squarings take it back; e^x < 2^(mag_bits - 1).

    At or above _BASECASE_PREC, h halvings bring x into |x| <= 1 and
    `_exp_split_fixed` sums it at prec = tol_bits + 2h + mag_bits + 26.
    Each series stops within M = MAX_SERIES_TERMS terms (else
    ResourceError), so the kernel errs by under 4 M < 2^19 ulps of 2^-prec
    (about 0.1 prec at 3,000 bits in practice).

    Below it (the table there), h halvings bring x into |x| <= 2^-r, r =
    max(6, isqrt(tol_bits)), and one `_exp_series_fixed` runs at prec =
    tol_bits + h + mag_bits + 26 (r more halvings, for about prec / r terms
    instead of prec / K plus the small-ratio series); it errs by under 2^18
    ulps.

    On both paths the h squarings round to nearest and the error is
    bounded once, after them.  With V_j the exact scaled e^(x 2^(j-h)), v_j
    the computed one, e_0 the kernel's error and t = (e_0 + 1/2) 2^h /
    2^prec: t is under 2^-10, as prec >= 2h + 29 with e_0 < 2^19 on the
    split path and prec >= h + 29 with e_0 < 2^18 below it, and |v_(j+1) -
    V_(j+1)| <= |v_j - V_j| (2 V_j + |v_j - V_j|) / 2^prec + 1/2.  For x >
    0 every V_j >= 2^prec, so the relative errors n_j obey 1 + n_(j+1) <=
    (1 + n_j)^2 (1 + 2^-(prec+1)): ln(1 + n_h) <= t, n_h <= t (1 + t), and
    the error is at most n_h v_h / (1 - n_h) <= 1.003 t v_h.  For x < 0
    every V_j <= 2^prec, so f_j = e_j + 1/2 obeys f_(j+1) <= 2 f_j (1 + f_j
    / 2^(prec+1)): f_h <= 1.002 2^h f_0 = 1.002 t 2^prec.  Either way the
    error is at most (1 + 2^-8) t max(v_h, 2^prec), under 2^(18 + h +
    mag_bits) ulps, so prec's bits over tol_bits leave it below tol / 2^8
    on both paths.  The check only guards these bounds.
    """
    if num > _EXP_ARG_CAP * den:
        raise MagnitudeError("exp argument too large; result would blow past the magnitude cap")
    if num == 0:
        return 1, 0, 0
    bits = _tol_bits(tn, td)
    mag_bits = 2 if num < 0 else (3 * num) // (2 * den) + 2
    halvings = _halvings(abs(num), den)
    # 2 bits above the 24 guard bits keep the split series' ulps below the
    # single series' ones, so no radius widens
    prec = bits + 2 * halvings + mag_bits + 26
    if prec < _BASECASE_PREC:
        halvings = _halvings(abs(num) << max(6, math.isqrt(bits)), den)
        prec = bits + halvings + mag_bits + 26
        value, err = _exp_series_fixed(_fix(num, den << halvings, prec), prec)
    else:
        value, err = _exp_split_fixed(num, den << halvings, prec)
    for _ in range(halvings):
        value = _shift_round(value * value, prec)
    if halvings:  # ceil((1 + 2^-8) t max(v_h, 2^prec)) ulps
        spread = (2 * err + 1) * max(value, 1 << prec)
        err = -(-(spread + (spread >> 8) + 1) >> (prec + 1 - halvings))
    if err * td > tn << prec:
        raise PrecisionError("exp failed to reach the requested radius")
    return value, err, prec


def _ln_fixed(num: int, den: int, tn: int, td: int) -> tuple[int, int, int]:
    """(value, err, prec) of ln(num/den), den > 0, with err / 2^prec <= tn / td.

    num/den = m 2^shift with m in [1/sqrt 2, sqrt 2), and `_ln_split_fixed`
    takes ln m in one of its three ways: a small height by the small-ratio
    series at any precision, where it beats a full-width one (the module
    docstring), a full height below _BASECASE_PREC (the table there) by one
    full-width series in z = (num - den)/(num + den), |z| <= 3 - 2 sqrt 2 <
    0.172, and otherwise by the K-bit split.

    Each series stops within M = MAX_SERIES_TERMS terms (else ResourceError),
    so ln m errs by at most 5 M + 17 ulps of 2^-prec and ln 2 by 2 M + 4; with
    s = bit_length(max(1, |shift|)), ln m + shift ln 2 errs by under 2^(s + 20)
    ulps (about 0.03 prec at 3,000 bits in practice).  prec's s + 26 bits
    over tol_bits put the error below tol / 2^6, so the check only guards
    this.

    ln 2 (shift != 0) is taken before ln m: 2 atanh(1/3) at a width of at
    least prec sheds 3.17 bits a term, the fewest of any series ln takes,
    so when ln m's series would pass the term budget ln 2's fails first,
    mostly before its first block (`_atanh_ratio_fixed`).
    """
    if num <= 0:
        raise DomainError("log of a non-positive value")
    if num == den:
        return 0, 0, 0
    # scale by powers of two into m = num/den in (1/2, 2), then into
    # [1/sqrt 2, sqrt 2), where a series in z steps by z^2 < 0.03
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
    ln2, ln2_err = _ln2_fixed(prec) if shift else (0, 0)
    value, err = _ln_split_fixed(num, den, prec)
    value, err = value + shift * ln2, err + abs(shift) * ln2_err
    if err * td > tn << prec:
        raise PrecisionError("ln failed to reach the requested radius")
    return value, err, prec


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n / d in lowest terms, d > 0: the form `_ln_fixed` and `_log_abs_float`
    are defined on (their results depend on it, not on the value alone).
    Over d = 2^k a shift replaces the gcd."""
    if n and not d & (d - 1):
        k = min((n & -n).bit_length(), d.bit_length()) - 1
        return n >> k, d >> k
    g = math.gcd(n, d)
    return n // g, d // g


def _ln_ball(b: Ball, tn: int, td: int) -> tuple[int, int, int]:
    """ln of the ball b, c > r >= 0, as the integer ball (n +/- e) / 2^prec:
    `_ln_fixed` at b's center in lowest terms, at tolerance tn / td, widened
    by ln's Lipschitz bound 1/lo over [lo, hi], r / (c - r), rounded up.
    ln 1, at `_ln_fixed`'s prec 0, takes the grid 2^-(tol_bits + 26).
    Unsnapped."""
    c, r = b.c, b.r
    value, err, prec = _ln_fixed(*_lowest(c, b.d), tn, td)
    if not r:
        return value, err, 1 << prec
    if not prec:  # ln 1 = 0 exactly
        prec = _tol_bits(tn, td) + 26
    return value, err + -(-(r << prec) // (c - r)), 1 << prec


def _exp_ball(c: int, r: int, d: int, tn: int, td: int) -> tuple[int, int, int]:
    """e^((c +/- r) / d) as the integer ball (n +/- e) / 2^prec: `_exp_fixed`
    at the center, at tolerance tn / td, widened by `_exp_spread` for the
    spread r / d.  e^0, at `_exp_fixed`'s prec 0, takes the grid
    2^-(tol_bits + 26).  Unsnapped; a spread past 5/8 raises PrecisionError."""
    value, err, prec = _exp_fixed(c, d, tn, td)
    if not r:
        return value, err, 1 << prec
    if not prec:  # e^0 = 1 exactly
        prec = _tol_bits(tn, td) + 26
        value <<= prec
    return value, _exp_spread(value, err, r, d), 1 << prec


def _exp_spread(value: int, err: int, r: int, d: int) -> int:
    """The radius of e^y over every y within r' = r / d of a point c', from a
    ball value +/- err (on any grid, value + err >= 0) that holds e^c'.

    e^(c' + s) - e^c' lies within e^c' (e^r' - 1) <= e^c' r' (1 + r') for
    |s| <= r' <= 5/8, where sum_(k>=2) r'^(k-2) / k! <= 0.63, and e^c' <=
    value + err: err + (value + err) r (d + r) / d^2, rounded up.  A wider
    spread raises PrecisionError.  Its callers are `_exp_ball`, with c' the
    center `_exp_fixed` took, and `hyperops`' tower pass, which widens each
    level it took at a point into that level over a ball."""
    if 8 * r > 5 * d:
        raise PrecisionError("exp argument too imprecise for an enclosure")
    return err + -(-(value + err) * r * (d + r) // (d * d))


def exp_e(a: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing e^a, snapped to the 2^-(tol_bits + 16) grid."""
    tol = cfg.target_error
    b = as_ball(a)
    return _snap(*_exp_ball(b.c, b.r, b.d, tol.numerator, tol.denominator), tol_bits(tol) + 16)


def ln_e(a: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing ln a (a > 0), snapped to the 2^-(tol_bits + 16) grid."""
    tol = cfg.target_error
    b = as_ball(a)
    if b.c <= b.r:
        if b.c + b.r <= 0:
            raise DomainError("log of a non-positive value")
        raise PrecisionError("log argument interval reaches zero")
    return _snap(*_ln_ball(b, tol.numerator, tol.denominator), tol_bits(tol) + 16)


# ---------------------------------------------------------------------------
# power / root / log


def _exact_int_pow(base: Fraction, n: int) -> Fraction | None:
    """base**n when the representation stays within the magnitude cap."""
    digits = max(base.numerator.bit_length(), base.denominator.bit_length())
    if digits * abs(n) > MAX_MAGNITUDE_BITS + 64:
        return None
    return base**n


# ---------------------------------------------------------------------------
# q-th roots: exact integer roots and the algebraic power kernel

# The algebraic path takes exponents p/q with q below 2^_ROOT_Q_BITS.  Its
# cost grows with log q and stayed below exp/ln's up to q = 2^20 at 64 to
# 10,000 bits (CPython 3.11); the dyadic exponents of the root finders'
# probes, q >= 2^24, keep exp/ln.
_ROOT_Q_BITS = 16
# Newton's fixed-point start: a float estimate good to about 50 bits.
_ROOT_START_BITS = 50
# The certified bracket's half-width, in ulps of the fixed point; the
# Newton iterate lands within about 2 of the root.
_ROOT_GUARD = 64
# `log` looks for a rational result while the smaller operand's height in
# bits, which bounds its prime-exponent search, is at most this.
_EXACT_LOG_HEIGHT = 4096


def _iroot(x: int, q: int) -> int:
    """floor(x^(1/q)) for x >= 1 and q >= 2.

    From any r >= 1 the integer Newton step floor(((q - 1) r + floor(x /
    r^(q-1))) / q) lands at or above the floor root (the arithmetic-geometric
    mean inequality, through the floors), and from above it falls strictly
    while r^q > x; so the first step that does not fall stops at the floor
    root.  Newton falls only linearly from far above, so the start is a float
    estimate from x's top 64 bits, good to far better than 2^-30 relative,
    raised just above the root: then a few steps remain.
    """
    if q == 2:
        return math.isqrt(x)
    bits = x.bit_length()
    if bits <= q:
        return 1
    cut = max(0, bits - 64)
    log2_root = (math.log2(x >> cut) + cut) / q
    whole = int(log2_root)
    r = int(2.0 ** (log2_root - whole + 52))  # 53 bits
    r = r << (whole - 52) if whole >= 52 else r >> (52 - whole)
    r += (r >> 30) + 2
    r = ((q - 1) * r + x // r ** (q - 1)) // q  # at or above the floor root
    while True:
        step = ((q - 1) * r + x // r ** (q - 1)) // q
        if step >= r:
            return r
        r = step


def _exact_root(x: int, q: int) -> int | None:
    """The r with r^q = x, for x >= 1 and q >= 2, or None."""
    if x == 1:
        return 1
    if x.bit_length() <= q:  # 1 < x < 2^q: any root lies strictly in (1, 2)
        return None
    r = _iroot(x, q)
    return r if r**q == x else None


def _pow_fixed(x: int, e: int, prec: int, up: bool) -> int:
    """(x / 2^prec)^e 2^prec for x >= 0 and e >= 1, by binary powering with
    every product rounded down (up); as products of nonnegative values are
    monotone, the result is a lower (upper) bound of the exact scaled power."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else (
                -((-result * x) >> prec) if up else (result * x) >> prec)
        e >>= 1
        if not e:
            return result
        x = -((-x * x) >> prec) if up else (x * x) >> prec


def _algebraic_power(c: int, d: int, P: int, Q: int, tn: int, td: int, r: int = 0) -> Ball | None:
    """Ball containing x^(P/Q) for every x in [(c - r)/d, (c + r)/d], for c >
    r >= 0 (r = 0: an exact base), d > 0 and P/Q in lowest terms with Q >= 2,
    on the 2^-(tol_bits + 16) grid with radius <= tn / td past the interval's
    own spread; or None where exp/ln should run instead.

    The certified Newton root of the module docstring, behind its gates: an
    exact base is exact when its parts are perfect Q-th powers and otherwise
    folds P into the radicand, and a ball roots its midpoint and raises the
    bracket to P.  None when the certificate fails or the bracket reaches 0.
    """
    bits = _tol_bits(tn, td) + 16  # the snap grid of power's exp/ln exit
    if r:  # the radicand u/v is the midpoint, and the bracket is raised to P
        if P < 0:  # x^P = (1/x)^-P, and 1/x runs over [d / (c + r), d / (c - r)]
            c, r, d, P = d * c, d * r, (c - r) * (c + r), -P
        if Q.bit_length() > _ROOT_Q_BITS or P.bit_length() > _ROOT_Q_BITS:
            return None
        u, v = _lowest(c, d)
    else:  # P folds into the radicand u/v
        u, v = _lowest(c, d)
        rd = _exact_root(v, Q)
        ru = rd and _exact_root(u, Q)
        if ru:
            exact = _exact_int_pow(Fraction(ru, rd), P)
            if exact is not None:
                return Ball(exact)
        if P < 0:
            u, v, P = v, u, -P
        # the gate: q below the crossover, and the radicand's height within the
        # precision below, with k estimated from the base's bit lengths
        k_estimate = (P * (u.bit_length() - v.bit_length())) // Q
        height = P * max(u.bit_length(), v.bit_length())
        if Q.bit_length() > _ROOT_Q_BITS or height > max(bits + k_estimate + 16, 64):
            return None
        c, d = u, v = u**P, v**P
        P = 1
    span = u.bit_length() - v.bit_length()
    # u/v / 2^(kQ) lies in (1/2, 2^(span - kQ + 1)), so its root m, m 2^prec
    # the Newton iterate y, has m^(P-1) < 2^top and x^(P/Q) < 2^(kP + top + 1)
    k = span // Q
    top = -(-(P - 1) * (span - k * Q + 1) // Q)
    if k * P + top > MAX_MAGNITUDE_BITS:
        if r:
            return None
        raise MagnitudeError("power result would blow past the magnitude cap")
    prec = max(bits + 16 + k * P + top + (P - 1).bit_length(), 64)
    shift = prec - k * Q  # x 2^(prec - kQ) for x = s/t is (s << up) / (t << down)
    up, down = max(shift, 0), max(-shift, 0)
    A = _fix(u << up, v << down, 0)
    # Newton on y^Q = A at doubling precisions, each step p <= 2 p' - margin
    # over the previous p', so the quadratic term stays below an ulp
    margin = Q.bit_length() + 4
    steps = []
    p = prec
    while p > _ROOT_START_BITS:
        steps.append(p)
        p = (p + margin + 1) // 2
    cut = A.bit_length() - 64
    log2_m = (math.log2(A >> cut) + cut - prec) / Q
    y, last = int(2.0 ** (log2_m + _ROOT_START_BITS)), _ROOT_START_BITS
    for p in reversed(steps):
        y <<= p - last
        w = y if Q == 2 else _pow_fixed(y, Q - 1, p, False)
        y = ((Q - 1) * y + ((A >> (prec - p)) << p) // w) // Q
        last = p
    # the ends' roots lie within y (hi - lo) / (2 Q lo) of the midpoint's
    g = _ROOT_GUARD + -(-y * r // (Q * (c - r)))
    lo, hi, D = y - g, y + g, d << down
    if lo <= 0 or not (_pow_fixed(lo, Q, prec, True) * D <= (c - r) << up
                       and (c + r) << up <= _pow_fixed(hi, Q, prec, False) * D):
        return None
    lo, hi = _pow_fixed(lo, P, prec, False), _pow_fixed(hi, P, prec, True)
    return _snap(lo + hi, hi - lo, 1 << (prec - k * P + 1), bits)


def _primitive_power(x: Fraction) -> tuple[int, int, int]:
    """(u, v, e) with x = (u/v)^e, u > v >= 1 coprime, and u/v no perfect
    power, for x > 0 and x != 1.

    A p-th root of u/v other than itself needs u >= 2^p and v = 1 or v >=
    2^p, so only primes p below both bit lengths are tried, each until it
    fails.
    """
    u, v, e = x.numerator, x.denominator, 1
    if u < v:
        u, v, e = v, u, -1
    p = 2
    while p < u.bit_length() and (v == 1 or p < v.bit_length()):
        rv = _exact_root(v, p)
        ru = rv and _exact_root(u, p)
        if ru:
            u, v, e = ru, rv, e * p
        else:
            p += 1
            while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
                p += 1
    return u, v, e


def _rational_log(a: Fraction, b: Fraction) -> Fraction | None:
    """log_b a when it is rational, for a, b > 0 and b != 1; None when it is
    irrational or the operands' heights are past the search bound.

    log_b a = j/k exactly when a^k = b^j, that is (unique factorization)
    when a = c^j and b = c^k for the c > 1 that is no perfect power.  So c is
    the primitive root of b (or of a, whichever has the smaller height; the
    search costs a root per prime below it), and j follows from the heights:
    a's larger part is c's numerator to the |j|.  One exact power decides.
    """
    if a == 1:
        return Fraction(0)
    height_a = max(a.numerator, a.denominator).bit_length()
    height_b = max(b.numerator, b.denominator).bit_length()
    if min(height_a, height_b) > _EXACT_LOG_HEIGHT:
        return None
    if height_a < height_b:
        inverse = _rational_log(b, a)
        return inverse and 1 / inverse
    u, v, e = _primitive_power(b)
    j = round(math.log2(max(a.numerator, a.denominator)) / math.log2(u))
    j = j if a > 1 else -j
    if j and Fraction(u, v) ** j == a:
        return Fraction(j, e)
    return None


def power(a: Fraction | Ball, b: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing a^b on the 2^-(tol_bits + 16) grid; a ball operand's
    spread widens it past the target.

    Domain: a > 0 with any rational/ball b; a < 0 only with an exact
    integer b (sign by parity); a = 0 only with exact b > 0; a ball that
    reaches 0 only with an exact integer b >= 0.  A power that underflows
    the snap grid returns 0 +/- the grid at once.

    One attempt: an exact exponent P/Q over a positive base, exact or a
    ball, is the certified root of `_algebraic_power`; otherwise, or where
    that declines, ln a at a tolerance sized from the result's magnitude and
    exp of the ball b ln a.
    """
    tol = cfg.target_error
    av = as_ball(a)
    bv = as_ball(b)
    ac, ar = av.c, av.r
    bc, br, bd = bv.c, bv.r, bv.d
    n = bc // bd if not br and not bc % bd else None

    if ac <= ar:  # a base that is not certainly positive
        if not ar and not ac:
            if not br and bc > 0:
                return Ball(0)
            raise DomainError("0 may only be raised to an exact positive power")
        if n is None and not ar:
            raise DomainError("negative base needs an exact integer exponent")
        if n is not None and ac + ar < 0:  # sign by parity
            out = power(-av, bv, cfg)
            return -out if n % 2 else out
        if n is not None and n >= 2:  # x^n within M^n of 0, M = max |x|
            bound = power(max(-av.lo, av.hi), bv, cfg).hi
            return round_ball(Ball(0, bound), tol_bits(tol) + 16)
        if n not in (0, 1):  # exponents 0 and 1 take the exact paths below
            if ac + ar <= 0:
                raise DomainError("power base must be positive")
            raise PrecisionError("power base interval reaches zero")

    if (exact := _exact_power(av, bv, tol)) is not None:
        return exact
    bits = _underflow_bits(av, bv, tol)
    if bits:
        return Ball(0, Fraction(1, 1 << bits))
    # past the certified root: ln a at a tolerance sized from the result's
    # magnitude, and exp of the ball b ln a
    tn, td = tol.numerator, tol.denominator
    ln_a = _ball(*_ln_ball(av, tn, td << _power_scale_bits(av, bv)))
    return _exp_product(ln_a, bv, tn, td << 2, tol_bits(tol) + 16)


def _exact_power(av: Ball, bv: Ball, tol: Fraction) -> Ball | None:
    """`power`'s answers without exp/ln, or None: a = 1 or b in {0, 1}, an
    exact integer power under the magnitude cap (past it for a > 1 and b >
    0 a MagnitudeError), and `_algebraic_power` of a base > 0, exact or a
    ball, to an exact non-integer b."""
    ac, ar, ad = av.c, av.r, av.d
    bc, br, bd = bv.c, bv.r, bv.d
    if not ar and ac == ad or not br and not bc:
        return Ball(1)
    if not br and bc == bd:
        return round_ball(av, tol_bits(tol) + 16) if ar else av
    if br or ar and ac <= ar:  # a ball exponent, or a ball base reaching 0
        return None
    if bc % bd:
        return _algebraic_power(ac, ad, *_lowest(bc, bd), tol.numerator, tol.denominator, ar)
    if ar:
        return None
    exact = _exact_int_pow(av.center, bc // bd)
    if exact is not None:
        return Ball(exact)
    if ac > ad and bc > 0:
        raise MagnitudeError("integer power exceeds the magnitude cap")
    return None


def _exp_product(ln_a: Ball, b: Ball, tn: int, td: int, bits: int) -> Ball:
    """e^(b ln a): `_exp_ball` of the ball product at tolerance tn / td,
    snapped to the 2^-bits grid, past the magnitude cap a MagnitudeError."""
    x = ln_a * b
    if x.c > _EXP_ARG_CAP * x.d:
        raise MagnitudeError("power result would blow past the magnitude cap")
    return _snap(*_exp_ball(x.c, x.r, x.d, tn, td), bits)


def _underflow_bits(av: Ball, bv: Ball, tol: Fraction) -> int:
    """The bits of `power`'s snap grid, bits = tol_bits(tol) + 16, when a^b
    <= 2^-(bits + 2) over the whole balls, for a > 0, else 0.  Then Ball(0,
    2^-bits) holds the power, and it is the ball the general path gives
    there: that path's center, at most a few ulps above 2^-(bits + 2),
    snaps to 0 and its radius rounds up to the grid.  (Just under a half
    grid the two could part, as that center may round either way.)  The
    ln and exp that the general path sizes to the exponent's magnitude
    (100,000 bits and more for an exponent near 10^30000) never run.

    a^b = e^(b ln a) <= 2^-(bits + 2) when b and ln a have opposite signs on
    the balls and |b| |ln a| >= (bits + 2) ln 2.  Bit lengths bound |b| <
    2^s and |ln a| < (k + 1) ln 2 for a's binary exponent k, so most calls
    end at an integer comparison.  Otherwise `_ln_ball` at tolerance 2^-64
    bounds |ln a| from below, |b| >= (|c_b| - r_b) / d_b, and a 64-bit
    `_ln2_fixed` bounds ln 2 from above; all in integers.
    """
    ac, ar, ad = av.c, av.r, av.d
    bc, br, bd = bv.c, bv.r, bv.d
    if bc - br > 0:
        if ac + ar >= ad:  # b > 0 needs a < 1 throughout
            return 0
        k = ad.bit_length() - (ac - ar).bit_length()
    elif bc + br < 0:
        if ac - ar <= ad:  # b < 0 needs a > 1 throughout
            return 0
        k = (ac + ar).bit_length() - ad.bit_length()
    else:
        return 0
    bits = tol_bits(tol) + 16
    s = (abs(bc) + br).bit_length() - bd.bit_length() + 1
    if (k + 1) << max(s, 0) <= bits + 2:
        return 0
    n, e, den = _ln_ball(av, 1, 1 << 64)
    m = abs(n) - e  # |ln a| >= m / den
    ln2, ln2_err = _ln2_fixed(64)
    certain = m > 0 and (abs(bc) - br) * (m << 64) >= (bits + 2) * (ln2 + ln2_err) * bd * den
    return bits if certain else 0


def _log_abs_float(num: int, den: int) -> float:
    """Rough ln|num/den| for a nonzero rational of any magnitude, den > 0."""
    num = abs(num)
    shift = num.bit_length() - den.bit_length()
    # int true division is correctly rounded, as float(Fraction) is
    m = num / (den << shift) if shift >= 0 else (num << -shift) / den
    return math.log(m) + shift * math.log(2)


def _power_scale_bits(av: Ball, bv: Ball) -> int:
    """Extra tolerance bits the exponent needs for |result| = e^(b ln a).

    The absolute output error scales with the result magnitude times the
    exponent's error, and the exponent's error scales with |b| times the
    log's error; a magnitude-blind tolerance would miss the target by
    thousands of bits on tower-sized values.  Blow-ups surface here before
    any expensive arithmetic runs.  The centers' logs are taken in lowest
    terms.
    """
    ln2 = math.log(2)
    ln_a = _log_abs_float(*_lowest(av.c, av.d)) if av.c != av.d else 0.0
    b_log = _log_abs_float(*_lowest(bv.c, bv.d)) if bv.c else -1e9
    positive = (bv.c > 0) == (ln_a > 0)
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
        if bv.c == 0:
            raise DomainError("0th root")
        recip: Fraction | Ball = 1 / bv.center
    else:
        recip = divide(Ball(1), bv)
    av = as_ball(a)
    if av.c + av.r <= 0:
        raise DomainError("root base must be positive")
    return power(a, recip, cfg)


def log(a: Fraction | Ball, b: Fraction | Ball, cfg: SeriesConfig) -> Ball:
    """Ball containing log base b of a (a > 0, b > 0, b != 1)."""
    tol = cfg.target_error
    av = as_ball(a)
    bv = as_ball(b)
    if bv.is_exact and bv.c == bv.d:
        raise DomainError("log base 1")
    for name, ball in (("value", av), ("base", bv)):
        if ball.c + ball.r <= 0:
            raise DomainError(f"log {name} must be positive")
        if ball.c <= ball.r:
            raise PrecisionError(f"log {name} interval reaches zero")
    if av.is_exact and bv.is_exact:
        exact = _rational_log(av.center, bv.center)
        if exact is not None:
            return Ball(exact)
    tn, td = tol.numerator, tol.denominator
    quotient = _quotient(*_ln_ball(av, tn, td), *_ln_ball(bv, tn, td))
    if quotient is None:
        raise PrecisionError("log base interval reaches 1")
    return _snap(*quotient, tol_bits(tol) + 16)
