"""Independent references for every benchmark operation, and the outcome check.

Nothing here imports hypercalc.  Values come from `fractions.Fraction` and
long division (ranks 1-2), from `mpmath` at extra precision (rank 3), and
from an mpmath bisection oracle that applies the paper's rational-height
split definition (rank >= 4):

    a^^(n + p/q) = a^(a^(...^(x)))   (n exponentiations),
    x = the q-th super-root of a^^p, i.e. the x >= 1 with x^^q = a^^p.

An expected outcome is either the truncated base-b digits of the value
(`hypercalc ... --format json` prints them as the `value` key, exit 0) or a
known error exit code.  A value that sits exactly on a digit boundary has
two acceptable outcomes: its exact digits, or exit 3, because certified
ball arithmetic may decline to print digits it cannot separate from the
boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import mpmath

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

EXIT_OK, EXIT_DOMAIN, EXIT_NUMERIC = 0, 2, 3

# Extra bits carried by every mpmath reference beyond the printed digits.
GUARD_BITS = 64

# Rank-3 draws whose value lies outside 2^-MAX_VALUE_BITS..2^MAX_VALUE_BITS
# are out of the workload's range (nested powers of small operands can reach
# towers no digit string can hold).
MAX_VALUE_BITS = 512


@dataclass(frozen=True)
class Expected:
    """The outcome an operation must produce to count as correct."""

    exit_code: int = EXIT_OK
    value: str | None = None  # digits printed as JSON `value` on success
    trace_lines: int | None = None  # length of the JSON `trace` list
    boundary: bool = False  # exit 3 is also accepted (value on a digit boundary)


# Outcome classes.  A refusal gives no answer: exit 3 (a numeric failure:
# precision, convergence or a resource cap) or an exception escaping
# `cli.main`.  A wrong answer prints other digits, succeeds where an error
# is expected, or claims another parse or domain error.
OK, REFUSED, WRONG = "ok", "refused", "wrong"


def judge(expected: Expected, exit_code, stdout: str) -> str:
    """Classify one operation's outcome against its reference."""
    if not isinstance(exit_code, int):
        return REFUSED  # an exception escaped cli.main
    if exit_code != EXIT_OK:
        if exit_code == expected.exit_code:
            return OK
        if exit_code == EXIT_NUMERIC:
            return OK if expected.boundary else REFUSED
        return WRONG
    if expected.exit_code != EXIT_OK:
        return WRONG
    lines = stdout.strip().splitlines()
    try:
        payload = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:
        payload = None
    if not isinstance(payload, dict) or payload.get("value") != expected.value:
        return WRONG
    if expected.trace_lines is not None:
        trace = payload.get("trace")
        if not isinstance(trace, list) or len(trace) != expected.trace_lines:
            return WRONG
    return OK


# ---------------------------------------------------------------------------
# truncated positional digits


def _int_text(n: int, base: int) -> str:
    if n == 0:
        return "0"
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(ALPHABET[d])
    return "".join(reversed(out))


def _scaled_text(negative: bool, scaled: int, base: int, digits: int) -> str:
    whole, frac = divmod(scaled, base**digits)
    text = ("-" if negative else "") + _int_text(whole, base)
    if digits:
        text += "." + _int_text(frac, base).rjust(digits, "0")
    return text


def exact_digits(value: Fraction, base: int, digits: int) -> str:
    """Digits of a rational truncated toward zero, by long division."""
    x = abs(value)
    return _scaled_text(value < 0, x.numerator * base**digits // x.denominator,
                        base, digits)


class Unsettled(ValueError):
    """The reference cannot decide the truncated digits at this precision."""


class OutOfRange(ValueError):
    """The drawn input lies outside the range a workload covers."""


def real_digits(value: mpmath.mpf, base: int, digits: int) -> str:
    """Truncated digits of an mpmath value carrying GUARD_BITS extra bits.

    Raises Unsettled when the value lies so close to a digit boundary that
    the guard bits cannot decide the last digit.
    """
    scaled = abs(value) * mpmath.mpf(base) ** digits
    floor = int(mpmath.floor(scaled))
    margin = mpmath.mpf(2) ** (-(GUARD_BITS // 2))
    if scaled - floor < margin or floor + 1 - scaled < margin:
        raise Unsettled("value within the reference error of a digit boundary")
    return _scaled_text(value < 0, floor, base, digits)


def settled_digits(fn, base: int, digits: int, magnitude_bits: int = 64) -> str:
    """Truncated digits of `fn()`, a value below 2^magnitude_bits.

    `fn` is evaluated at the printed precision plus 2 * GUARD_BITS, then
    with GUARD_BITS more; both must give the same digits.
    """
    bits = int(digits * mpmath.log(base, 2)) + magnitude_bits + 2 * GUARD_BITS
    texts = []
    for extra in (0, GUARD_BITS):
        with mpmath.workprec(bits + extra):
            texts.append(real_digits(fn(), base, digits))
    if texts[0] != texts[1]:
        raise Unsettled("reference digits moved with the working precision")
    return texts[0]


# ---------------------------------------------------------------------------
# rank 3: expression trees over exact rationals
#
# A series tree is ("rat", p, q) for p/q or (kind, left, right) with kind one of
# "pow" ([x+++y] = x^y), "root" ([x---y] = x^(1/y)) and "log"
# ([x///y] = ln x / ln y).


def series_value(tree) -> mpmath.mpf:
    """Evaluate a series tree at the current mpmath precision."""
    if tree[0] == "rat":
        return mpmath.mpf(tree[1]) / tree[2]
    x, y = series_value(tree[1]), series_value(tree[2])
    if x <= 0 or (tree[0] == "log" and y <= 0):
        raise OutOfRange("non-positive base or log argument (a domain error)")
    if tree[0] == "pow":
        return mpmath.power(x, y)
    if tree[0] == "root":
        return mpmath.power(x, 1 / y)
    return mpmath.log(x) / mpmath.log(y)


def series_digits(tree, base: int, digits: int) -> str:
    """Reference digits of a rank-3 tree."""
    with mpmath.workprec(64):
        log2 = mpmath.log(abs(series_value(tree)), 2)
    if abs(log2) > MAX_VALUE_BITS:
        raise OutOfRange("value magnitude outside the workload's range")
    return settled_digits(lambda: series_value(tree), base, digits,
                          max(int(log2), 0) + 1)


# ---------------------------------------------------------------------------
# rank >= 4: towers, super-roots and super-logs


def tower(a, n: int):
    """a^^n for a non-negative integer height (exact for int/Fraction a)."""
    value = 1 if not isinstance(a, mpmath.mpf) else mpmath.mpf(1)
    for _ in range(n):
        value = a**value
    return value


def super_root(goal: mpmath.mpf, order: int) -> mpmath.mpf:
    """The x >= 1 with x^^order = goal (goal > 1), by bisection.

    The upper end grows by 5/4 at a time, so no probe tower overshoots the
    goal by more than one such step.
    """
    lo, hi = mpmath.mpf(1), mpmath.mpf(5) / 4
    while tower(hi, order) < goal:
        lo, hi = hi, hi * 5 / 4
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec + 8)
    while hi - lo > eps * hi:
        mid = (lo + hi) / 2
        if tower(mid, order) < goal:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def tower_fractional(a: Fraction, height: Fraction) -> mpmath.mpf:
    """a^^height by the rational-height split, for a >= 1 and height >= 0."""
    base = mpmath.mpf(a.numerator) / a.denominator
    whole = height.numerator // height.denominator
    frac = height - whole
    if frac == 0:
        return tower(base, whole)
    inner = super_root(tower(base, frac.numerator), frac.denominator)
    for _ in range(whole):
        inner = base**inner
    return inner


def integer_super_log(value: int, base: int, limit: int = 8) -> int | None:
    """n with base^^n == value exactly (integers), or None."""
    for n in range(limit):
        t = tower(base, n)
        if t == value:
            return n
        if t > value:
            return None
    return None
