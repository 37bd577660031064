"""Whole-term evaluation with adaptive precision and base-b rendering.

`evaluate` walks a term bottom-up (each binary operation fires as soon as
both operands are values, the order of the printable reduction chain) and
dispatches on operator rank: ranks 1-2 are exact rational arithmetic,
rank 3 the series operations, rank >= 4 the hyperoperation engine.  Results
stay exact whenever every step was exact; otherwise they are Balls whose
radius is driven below base^-(digits+guard) by re-running at tighter
working tolerances.

`to_base_b` produces truncated positional digits per the digit recurrences
(quotient/remainder above the point, digit = floor(base * fractional-part)
below), certifying for approximate values that every real in the ball
shares the emitted digits; `adaptive_render` doubles the guard digits until
certification succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import hyperops, midops
from .balls import Ball, divide, round_ball
from .errors import HypercalcError, PrecisionError
from .hyperops import EngineLimits
from .midops import SeriesConfig, tol_bits
from .rationals import low_op
from .rootfind import RootConfig
from .terms import Leaf, Node, OpKind, Path, Term, TraceEvent, internal_nodes

_DIGIT_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

Value = Fraction | Ball


@dataclass(frozen=True)
class NumericContext:
    base: int = 10
    digits: int = 20
    guard_digits: int = 10
    max_doublings: int = 8
    series: SeriesConfig = field(default_factory=lambda: midops.DEFAULT_SERIES)
    root: RootConfig = field(default_factory=lambda: RootConfig(Fraction(1, 10**30)))
    verify_split: bool = False

    def __post_init__(self):
        if not 2 <= self.base <= 36:
            raise ValueError("base must be in [2, 36]")
        if self.digits < 0 or self.guard_digits < 0:
            raise ValueError("digit counts must be non-negative")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be positive")

    def precision_target(self) -> Fraction:
        return Fraction(1, self.base) ** (self.digits + self.guard_digits)

    def limits(self) -> EngineLimits:
        return EngineLimits.from_configs(self.series, self.root, self.verify_split)


@dataclass(frozen=True)
class EvalResult:
    value: Value
    trace: tuple[TraceEvent, ...] | None = None

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def ball(self) -> Ball:
        return Ball(self.value) if isinstance(self.value, Fraction) else self.value


@dataclass(frozen=True)
class BasebExpansion:
    sign: str  # "+" or "-"
    base: int
    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...]

    def text(self) -> str:
        head = "".join(_DIGIT_ALPHABET[d] for d in self.int_digits)
        out = ("-" if self.sign == "-" else "") + head
        if self.frac_digits:
            out += "." + "".join(_DIGIT_ALPHABET[d] for d in self.frac_digits)
        return out

    __str__ = text


# ---------------------------------------------------------------------------
# evaluation


def evaluate(term: Term, ctx: NumericContext, *, collect_trace: bool = False) -> EvalResult:
    """Evaluate with a final radius <= base^-(digits+guard), or exactly."""
    target = ctx.precision_target()
    ops = max(1, internal_nodes(term))
    working = target / (4 * ops)
    for _ in range(ctx.max_doublings + 1):
        value, events = _eval_once(term, ctx, working, collect_trace)
        if isinstance(value, Fraction) or value.radius <= target:
            return EvalResult(value, tuple(events) if collect_trace else None)
        # a power of an inexact base amplifies its error by far more than 16,
        # so the next round asks for the overshoot it just measured
        working /= max(16, 2 * math.ceil(value.radius / target))
    raise PrecisionError("evaluation radius did not reach the precision target")


def trace_reduce(term: Term, ctx: NumericContext) -> tuple[TraceEvent, ...]:
    """One event per binary operation, reproducing the printable chain."""
    result = evaluate(term, ctx, collect_trace=True)
    return result.trace or ()


def _eval_once(term, ctx, op_tol, collect):
    values: dict[Path, Value] = {}
    display: dict[Path, str] = {}
    events: list[TraceEvent] = []
    limits = ctx.limits()
    stack: list[tuple[Term, Path, bool]] = [(term, (), False)]
    while stack:
        t, path, expanded = stack.pop()
        if isinstance(t, Leaf):
            values[path] = Fraction(1)
            continue
        if not expanded:
            stack.append((t, path, True))
            stack.append((t.right, path + ("R",), False))
            stack.append((t.left, path + ("L",), False))
            continue
        left = values.pop(path + ("L",))
        right = values.pop(path + ("R",))
        try:
            value = _apply(t.op, left, right, op_tol, limits)
        except HypercalcError as err:
            if err.path is None:
                err.path = path
            raise
        values[path] = value
        if collect:
            before = _render_with(term, display)
            display[path] = _display_value(value, ctx)
            events.append(TraceEvent(len(events) + 1, path, before,
                                     _render_with(term, display)))
    return values[()], events


def _apply(op, a: Value, b: Value, tol: Fraction, limits: EngineLimits) -> Value:
    value = _apply_ball(op, a, b, tol, limits)
    if isinstance(value, Ball) and value.is_exact:
        return value.center
    return value


def _apply_ball(op, a, b, tol, limits):
    if op.rank <= 2:
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return low_op(op, a, b)
        av = a if isinstance(a, Ball) else Ball(a)
        bv = b if isinstance(b, Ball) else Ball(b)
        if op.kind is OpKind.PLUS:
            out = av + bv if op.rank == 1 else av * bv
        elif op.rank == 1:
            out = av - bv
        else:
            out = divide(av, bv)
        return round_ball(out, tol_bits(tol) + 32) if not out.is_exact else out
    if op.rank == 3:
        series = SeriesConfig(tol, limits.max_terms)
        if op.kind is OpKind.PLUS:
            return midops.power(a, b, series)
        if op.kind is OpKind.MINUS:
            return midops.root(a, b, series)
        return midops.log(a, b, series)
    if op.kind is OpKind.PLUS:
        return hyperops.hyper_forward(op.rank, a, b, tol, limits=limits)
    if op.kind is OpKind.MINUS:
        return hyperops.hyper_inverse_minus(op.rank, a, b, tol, limits=limits)
    return hyperops.hyper_inverse_slash(op.rank, a, b, tol, limits=limits)


# ---------------------------------------------------------------------------
# trace display


def _render_with(term: Term, display: dict[Path, str]) -> str:
    out: list[str] = []
    work: list = [(term, ())]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, path = item
        if path in display:
            out.append(display[path])
            continue
        if isinstance(t, Leaf):
            out.append("1")
            continue
        work.extend(
            ["]", (t.right, path + ("R",)), t.op.text(), (t.left, path + ("L",)), "["]
        )
    return "".join(out)


def _display_value(value: Value, ctx: NumericContext) -> str:
    """Compact human form of an intermediate value for trace lines."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        exp = _expansion_of_exact(value, ctx.base, ctx.digits)
        return _trim_zeros(exp)
    center = _expansion_of_exact(value.center, ctx.base, ctx.digits)
    return center.text()


def _trim_zeros(exp: "BasebExpansion") -> str:
    frac = list(exp.frac_digits)
    while len(frac) > 1 and frac[-1] == 0:
        frac.pop()
    return replace(exp, frac_digits=tuple(frac)).text()


# ---------------------------------------------------------------------------
# base-b digit extraction


def _expansion_of_exact(r: Fraction, base: int, digits: int) -> BasebExpansion:
    sign = "-" if r < 0 else "+"
    scaled = abs(r.numerator) * base**digits // r.denominator
    return _expansion_from_scaled(scaled, base, digits, sign)


# Below this many digits a run of single-digit divmods beats another split.
_DIGIT_LEAF = 32


def _digits(n: int, base: int, count: int) -> list[int]:
    """The lowest `count` base-`base` digits of n >= 0, most significant first.

    Divide and conquer on base^(2^k): each split is one division of a
    number by a power about half its size, so the whole costs a few
    divisions of n's size, where one divmod per digit is quadratic.
    """
    powers = [base]  # powers[k] = base^(2^k)
    while 1 << len(powers) < count:
        powers.append(powers[-1] ** 2)
    out: list[int] = []

    def split(n: int, count: int) -> None:
        if count <= _DIGIT_LEAF:
            block = [0] * count
            for i in range(count - 1, -1, -1):
                n, block[i] = divmod(n, base)
            out.extend(block)
            return
        k = (count - 1).bit_length() - 1  # 2^k < count <= 2^(k+1)
        high, low = divmod(n, powers[k])
        split(high, count - (1 << k))
        split(low, 1 << k)

    split(n, count)
    return out


def _int_digits(n: int, base: int) -> tuple[int, ...]:
    # n < 2^bits <= base^count; the float bound gets one digit of slack
    count = int(n.bit_length() * math.log(2) / math.log(base)) + 2
    ds = _digits(n, base, count)
    first = next((i for i, d in enumerate(ds) if d), len(ds) - 1)
    return tuple(ds[first:])


def _expansion_from_scaled(scaled: int, base: int, digits: int, sign: str) -> BasebExpansion:
    whole, frac = divmod(scaled, base**digits)
    return BasebExpansion(sign, base, _int_digits(whole, base), tuple(_digits(frac, base, digits)))


def to_base_b(value: EvalResult | Value, ctx: NumericContext) -> BasebExpansion:
    """Truncated base-b digits, certified over the whole ball.

    Exact rationals convert directly.  For a ball, every real in
    [lo, hi] must share the emitted digits, else PrecisionError; the
    caller (`adaptive_render`) reacts by tightening and retrying.
    """
    v = value.value if isinstance(value, EvalResult) else value
    if isinstance(v, Ball) and v.is_exact:
        v = v.center
    if isinstance(v, Fraction):
        return _expansion_of_exact(v, ctx.base, ctx.digits)
    if v.radius > ctx.precision_target():
        raise PrecisionError("ball radius exceeds the certification precondition")
    scale = ctx.base**ctx.digits
    lo, hi = v.lo, v.hi
    if lo >= 0:
        sign = "+"
    elif hi <= 0:
        sign = "-"
        lo, hi = -hi, -lo
    else:
        if max(-lo, hi) * scale < 1:
            return BasebExpansion("+", ctx.base, (0,), (0,) * ctx.digits)
        raise PrecisionError("sign of the value is not certified at this radius")
    d_lo = (lo * scale).__floor__()
    d_hi = (hi * scale).__floor__()
    if d_lo != d_hi:
        raise PrecisionError("digits are not certified at this radius")
    return _expansion_from_scaled(d_lo, ctx.base, ctx.digits, sign)


def adaptive_evaluate(term: Term, ctx: NumericContext) -> tuple[EvalResult, BasebExpansion]:
    """Evaluate, certify digits, and escalate guard digits until certified."""
    guard = max(1, ctx.guard_digits)
    last: EvalResult | None = None
    for _ in range(ctx.max_doublings + 1):
        attempt_ctx = replace(ctx, guard_digits=guard)
        last = evaluate(term, attempt_ctx)
        try:
            return last, to_base_b(last, attempt_ctx)
        except PrecisionError:
            guard *= 2
    assert last is not None
    uncertified = _expansion_of_exact(last.ball().center, ctx.base, ctx.digits)
    raise PrecisionError(
        "digits not certified after doubling guard digits "
        f"{ctx.max_doublings} times; uncertified digits {uncertified.text()}, "
        f"radius {float(last.ball().radius):.3e}; the value may sit exactly "
        "on a digit boundary"
    )


def adaptive_render(term: Term, ctx: NumericContext) -> BasebExpansion:
    return adaptive_evaluate(term, ctx)[1]
