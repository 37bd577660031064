"""Whole-term evaluation with adaptive precision and base-b rendering.

`evaluate` takes a term's post-order entries from `terms.flatten`, each
holding a node's operator and the indices of its two operands (-1 for the
constant 1): a parsed term carries them from the parse, and a term built by
hand is walked once, iteratively.  Every retry round then loops over that
list, so each binary operation fires as soon as both operands are values
(the order of the printable reduction chain), and stores its result at its
own index until its parent fires.  Nothing is keyed by a node's path, so
the walk is linear in the term's size.  A node's path is rebuilt from
`_parents`' links only when it is read: when an error escapes the node, or
when a trace's events are.

Entries are not nodes.  A literal n is one `Chain` object standing for
n - 1 `[X+1]` nodes, and every chain of k steps, a `Chain` or hand-built
`Node`s, is one entry "X plus k", evaluated as the one node X + k: the
constant k + 1 over the leaf, one exact addition over a rational X, and
over a ball one `round_ball` of X + k in `_apply`.  That is bit for bit the
ball the k rounded steps reach, as `balls._snap` commutes with adding an
integer: in both of its branches the center and the radius move by whole
grid steps, and a ball already on the grid snaps to itself.  The working
tolerance divides by nodes, not entries, so folding changes no radius.

`_apply` is the single rank dispatcher: ranks 1-2 are exact arithmetic on
Fractions (balls once an operand is approximate), rank 3 the series
operations in `midops`, rank >= 4 the hyperoperations in `hyperops`.
Results stay exact whenever every step was exact; otherwise they are Balls
whose radius is driven below base^-(digits+guard) by re-running at tighter
working tolerances.  Only `evaluate` re-runs work to meet a radius: the
kernels (`midops.power` and `log`, `hyperops`' tower unrolling) make one
attempt each.  A miss sets the next working tolerance from the measured
overshoot, and a kernel's PrecisionError (an operand ball too wide for its
operation) divides it by 16.

The reduction trace is not part of a round: a traced round keeps every
entry's value, and once a round meets the target `_Trace.replay` walks
the list again with those values, so a trace is built once.  A chain
entry fires k events, each display made as the trace asks for it: n + j's
digits over an exact integer n, and otherwise `_apply`'s X + j at the
round's working tolerance, which over a ball is again one rounding per
step.  `_Trace` splices each display into the term's render.
An event costs a copy of its line: a chain builds its runs of `[` and
`+1]` once, and each line takes a slice of each.  The `TraceEvent`s are
built from those lines and the entries only when `EvalResult.trace` is
read, each path joined then; the command line prints the lines and builds
no path.

`to_base_b` truncates the value scaled by base^digits to an integer and
prints it with `rationals.digit_text`, whose leaves are CPython's C
conversions in bases 2, 8, 10 and 16.  A ball is certified on its integer
form (c +/- r) / d: the radius bound, the sign and the shared truncated
digits are each an integer comparison, and one divmod of (c - r) * base^digits
by d gives the digits, certified when every real in the ball truncates to
them.  An exact rational n / d is the ball (n +/- 0) / d, and a trace line
shows a ball's center as the ball (c +/- 0) / d.  No Fraction is built.
`adaptive_evaluate` doubles the guard digits until certification succeeds;
a traced call traces its first round only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import hyperops, midops
from .balls import Ball, divide, round_ball
from .errors import DomainError, HypercalcError, PrecisionError, ResourceError
from .midops import SeriesConfig, tol_bits
from .rationals import decimal_texts, digit_text
from .records import Record, _set
from .terms import _LEAF, OpKind, Path, Term, TraceEvent, _Flat, flatten, render

# Refinement rounds: `evaluate` re-runs at a tighter working tolerance, and
# `adaptive_evaluate` doubles the guard digits, at most this many times each.
MAX_DOUBLINGS = 8
# Characters of text a reduction trace may build: the k events of a k-step
# chain each hold up to ~2k characters, a square in the literal's length.
MAX_TRACE_CHARS = 20_000_000

Value = Fraction | Ball

# module aliases: each read of a member through `OpKind` is a class
# attribute lookup, paid on every `_apply` call
_PLUS = OpKind.PLUS
_MINUS = OpKind.MINUS


class NumericContext(Record):
    """What an evaluation is asked for: `digits` certified base-`base`
    digits, worked out with `guard_digits` extra digits of precision.

    The budgets are not settable here; each is a constant of the layer that
    enforces it: the refinement rounds (`MAX_DOUBLINGS` = 8) here, the only
    retries of a kernel; the series terms per call (`midops.MAX_SERIES_TERMS`
    = 100,000), the root finder's probes and bracket doublings
    (`rootfind.MAX_ITERATIONS` = 1000, `rootfind.MAX_EXPANSIONS` = 80), and
    the tower height steps (`hyperops.MAX_HEIGHT_STEPS` = 50,000).
    """

    __slots__ = ("base", "digits", "guard_digits")

    def __init__(self, base: int = 10, digits: int = 20, guard_digits: int = 10):
        if not 2 <= base <= 36:
            raise ValueError("base must be in [2, 36]")
        if digits < 0 or guard_digits < 0:
            raise ValueError("digit counts must be non-negative")
        _set(self, "base", base)
        _set(self, "digits", digits)
        _set(self, "guard_digits", guard_digits)

    def precision_target(self) -> Fraction:
        return Fraction(1, self.base) ** (self.digits + self.guard_digits)


class EvalResult(Record):
    """A value, and for a traced evaluation its reduction chain as lines;
    `trace` builds the chain's events when it is first read."""

    __slots__ = ("value", "chain", "_trace")

    def __init__(self, value: Value, chain: _Chain | None = None):
        _set(self, "value", value)
        _set(self, "chain", chain)

    @property
    def trace(self) -> tuple[TraceEvent, ...] | None:
        if not hasattr(self, "_trace"):
            _set(self, "_trace", None if self.chain is None else tuple(self.chain))
        return self._trace

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def ball(self) -> Ball:
        return Ball(self.value) if isinstance(self.value, Fraction) else self.value


class BasebExpansion(Record):
    """Truncated base-b digits as text (0-9A-Z): `int_text` has no leading
    zeros but is "0" below 1, `frac_text` holds every fractional digit."""

    __slots__ = ("sign", "base", "int_text", "frac_text")  # sign is "+" or "-"

    def __init__(self, sign: str, base: int, int_text: str, frac_text: str):
        _set(self, "sign", sign)
        _set(self, "base", base)
        _set(self, "int_text", int_text)
        _set(self, "frac_text", frac_text)

    @property
    def int_digits(self) -> tuple[int, ...]:
        return tuple(int(c, 36) for c in self.int_text)

    @property
    def frac_digits(self) -> tuple[int, ...]:
        return tuple(int(c, 36) for c in self.frac_text)

    def text(self) -> str:
        out = ("-" if self.sign == "-" else "") + self.int_text
        return out + "." + self.frac_text if self.frac_text else out

    __str__ = text


# ---------------------------------------------------------------------------
# evaluation


def evaluate(term: Term, ctx: NumericContext, *, collect_trace: bool = False) -> EvalResult:
    """Evaluate with a final radius <= base^-(digits+guard), or exactly;
    `collect_trace` adds the trace of the round that met that radius."""
    target = ctx.precision_target()
    flat = flatten(term)
    nodes = sum(k or 1 for *_, k in flat)
    working = target / (4 * max(1, nodes))
    for attempt in range(MAX_DOUBLINGS + 1):
        kept = None  # a missed round's values go before the next round runs
        try:
            values = _eval_once(flat, working)
            kept = _kept(values) if collect_trace else deque(values, maxlen=1)
        except PrecisionError:  # an operand ball too wide for its operation
            if attempt == MAX_DOUBLINGS:
                raise
            working /= 16
            continue
        value = kept[-1] if kept else Fraction(1)  # the root's, or the leaf's 1
        if isinstance(value, Fraction) or value.r * target.denominator <= target.numerator * value.d:
            if not collect_trace:
                return EvalResult(value)
            return EvalResult(value, _Trace(flat, render(term), nodes).replay(kept, ctx, working))
        # a power of an inexact base amplifies its error by far more than 16,
        # so the next round asks for the overshoot it just measured
        overshoot = -(-(value.r * target.denominator) // (target.numerator * value.d))
        working /= max(16, 2 * overshoot)
    raise PrecisionError("evaluation radius did not reach the precision target")


def trace_reduce(term: Term, ctx: NumericContext) -> tuple[TraceEvent, ...]:
    """One event per binary operation, reproducing the printable chain."""
    return evaluate(term, ctx, collect_trace=True).trace


def _eval_once(flat: _Flat, op_tol: Fraction) -> Iterator[Value]:
    """Each entry's value in turn.  Entry i's value sits at `values[i]`
    until its parent fires, then the slot is let go, so a round holds only
    the values still pending; a caller that wants them all keeps them."""
    one = Fraction(1)
    values: list[Value] = [one] * (len(flat) + 1)  # the leaf's 1 fills the last slot
    for i, (op, l, r, k) in enumerate(flat):
        left = values[l]
        try:
            if k and isinstance(left, Fraction):
                value = left + k
            else:  # a node, or a chain over a ball as the one node X + k
                value = _apply(op, left, k or values[r], op_tol)
        except HypercalcError as err:
            if err.path is None:
                err.path = _path_of(i, *_parents(flat))
            raise
        values[i] = value
        values[l] = values[r] = one
        yield value


def _parents(flat: _Flat) -> tuple[list[int], list[str]]:
    """Parent index and the steps ("L"/"R") down from it, per entry; the
    root's parent is -1, and a chain's X is k steps "L" below it."""
    parent = [-1] * len(flat)
    step = [""] * len(flat)
    for i, (_, l, r, k) in enumerate(flat):
        if l != _LEAF:
            parent[l], step[l] = i, "L" * (k or 1)
        if r != _LEAF:
            parent[r], step[r] = i, "R"
    return parent, step


def _path_of(i: int, parent: list[int], step: list[str]) -> Path:
    steps: list[str] = []
    while parent[i] != -1:
        steps.extend(step[i])
        i = parent[i]
    return tuple(reversed(steps))


def _apply(op, a: Value, b: Value, tol: Fraction) -> Value:
    if op.rank <= 2:
        # `-` and `/` coincide at these ranks: `-`/`/` subtract, `--`/`//` divide
        if op.kind is _PLUS:
            value = a + b if op.rank == 1 else a * b
        elif op.rank == 1:
            value = a - b
        elif isinstance(a, Fraction) and isinstance(b, Fraction):
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        else:
            value = divide(a, b)
        if isinstance(value, Ball) and not value.is_exact:
            value = round_ball(value, tol_bits(tol) + 32)
    elif op.rank == 3:
        series = SeriesConfig(tol)
        if op.kind is _PLUS:
            value = midops.power(a, b, series)
        elif op.kind is _MINUS:
            value = midops.root(a, b, series)
        else:
            value = midops.log(a, b, series)
    elif op.kind is _PLUS:
        value = hyperops.hyper_forward(op.rank, a, b, tol)
    elif op.kind is _MINUS:
        value = hyperops.hyper_inverse_minus(op.rank, a, b, tol)
    else:
        value = hyperops.hyper_inverse_slash(op.rank, a, b, tol)
    if isinstance(value, Ball) and value.is_exact:
        return value.center
    return value


# ---------------------------------------------------------------------------
# trace display


def _kept(values: Iterable[Value]) -> list[Value]:
    """Every value of a traced round, for `_Trace.replay`, counted against
    `MAX_TRACE_CHARS` at 3 digits per 10 bits (an integer's display is all
    its digits), so a round holds no more than its trace text may."""
    kept, digits = [], 0
    for v in values:
        n, d = (v.numerator, v.denominator) if isinstance(v, Fraction) else (v.c, v.d)
        digits += (n.bit_length() + d.bit_length()) * 3 // 10
        if digits > MAX_TRACE_CHARS:
            raise ResourceError(f"the reduction trace's values passed {MAX_TRACE_CHARS:,} digits")
        kept.append(v)
    return kept


class _Trace:
    """The reduction chain, spliced line by line into the term's render.

    The first line is `render`'s text, and each event adds one line.
    Entry i's text starts at `start[i]` in the first line and is `size[i]`
    long, sized from operator ranks alone: a node is `[`, its operands, its
    operator and `]`, and a chain of k steps over X is `size[X] + 4k` long,
    X starting k characters in.  In post-order i's subtree is entries
    `first[i]` to i, and `shift[j]` is the length change of the events
    before entry j.  Each earlier event lies left of i's span or inside it,
    so when i fires its span runs from `start[i] + shift[first[i]]` to
    `start[i] + size[i] + shift[i]`; the text around it, split off once, is
    the head and tail of each of i's lines.  A node fires one event, its
    value's text spliced over the span.  A chain fires k, one per step: step
    j's line keeps k - j of the chain's `[`s and `+1]`s around step j's
    value.  `_Trace` holds no paths: `_Chain` builds the events, paths and
    all, from the lines and the entries when they are read.

    An event costs a copy of its line: its `[`s and `+1]`s are prefixes of
    the chain's two runs.  An integer chain's steps are
    `rationals.decimal_texts` of its run.  Each event checks `MAX_TRACE_CHARS`
    before it builds its line, and the trace stops with a `ResourceError`
    past it; its message names the term's `node_count`, the number of
    events a full trace makes.
    """

    def __init__(self, flat: _Flat, text: str, node_count: int):
        n = len(flat)
        size = [0] * n + [1]  # size[_LEAF] is the leaf's 1
        first = list(range(n + 1))  # first[_LEAF] = n, past every entry
        for i, (op, l, r, k) in enumerate(flat):
            # `[`, operator, `]`; a chain's right is the leaf, not in its size
            size[i] = size[l] + 4 * k if k else 2 + op.rank + size[l] + size[r]
            first[i] = min(first[l], first[r], i)
        start = [0] * (n + 1)  # start[_LEAF] is scratch; `fire` never reads it
        for i in range(n - 1, -1, -1):  # reverse post-order: parents first
            op, l, r, k = flat[i]
            start[l] = start[i] + (k or 1)
            start[r] = start[l] + size[l] + op.rank
        self.flat, self.start, self.size, self.first = flat, start, size, first
        self.shift = [0]
        self.node_count = node_count
        self.lines, self.chars = [text], len(text)

    def replay(self, values: list[Value], ctx, op_tol) -> _Chain:
        """Every entry's lines from one round's values, entry i's at
        `values[i]`; step j of a chain over X shows X + j, taken at that
        round's `op_tol`."""
        values = [*values, Fraction(1)]  # the leaf's 1, where `_LEAF` reads it
        for i, (op, l, _, k) in enumerate(self.flat):
            # displays are made as `fire` asks for them, so a trace stopped at
            # the text cap partway through a chain builds none of the rest
            left = values[l]
            if not k:
                shown = (_display_value(values[i], ctx),)
            elif isinstance(left, Fraction) and left.denominator == 1:
                n = left.numerator  # an integer's digits, no Fraction per step
                shown = decimal_texts(n + 1, n + k + 1)
            else:
                shown = (_display_value(_apply(op, left, j, op_tol), ctx) for j in range(1, k + 1))
            self.fire(i, k, shown)
        return _Chain(tuple(self.lines), self.flat)

    def fire(self, i: int, k: int, shown: Iterable[str]) -> None:
        """Entry i's lines: one for a node (k = 0), or one per step of a
        chain of k steps; `shown` yields each line's display in turn."""
        shift, lines = self.shift, self.lines
        text = lines[-1]
        at = self.start[i] + shift[self.first[i]]
        end = self.start[i] + self.size[i] + shift[i]
        head, tail = text[:at], text[end:]
        # the event at depth d keeps d of the chain's `[`s and `+1]`s
        deepest = k - 1 if k else 0
        opens, closes = "[" * deepest, "+1]" * deepest
        chars, kept, add = self.chars, len(head) + len(tail), lines.append
        for d, display in zip(range(deepest, -1, -1), shown):
            chars += kept + 4 * d + len(display)
            if chars > MAX_TRACE_CHARS:
                raise ResourceError(
                    f"the reduction trace passed {MAX_TRACE_CHARS:,} characters of "
                    f"text at step {len(lines)} of {self.node_count:,}"
                )
            add(f"{head}{opens[:d]}{display}{closes[:3 * d]}{tail}")
        self.chars = chars
        shift.append(shift[i] + len(lines[-1]) - len(text))


class _Chain(Record):
    """A traced round's reduction chain as `_Trace` leaves it: `lines[0]`
    is the term's render and `lines[s]` the line after step s, and `flat`
    is the round's entries.  Iterating it builds the `TraceEvent`s: each
    entry's path is joined from `_parents`' links, parents first, and a
    chain of k steps fires its k events from k - 1 steps "L" below it up
    to itself."""

    __slots__ = ("lines", "flat")

    def __init__(self, lines: tuple[str, ...], flat: _Flat):
        _set(self, "lines", lines)
        _set(self, "flat", flat)

    def __iter__(self) -> Iterator[TraceEvent]:
        parent, step = _parents(self.flat)
        paths = [""] * (len(self.flat) + 1)  # the last slot is the root's parent's, at -1
        for i in range(len(self.flat) - 1, -1, -1):
            paths[i] = paths[parent[i]] + step[i]
        lines, s = self.lines, 0
        for i, (*_, k) in enumerate(self.flat):
            path = tuple(paths[i] + "L" * (k - 1))  # "" for a node, k = 0
            for m in range(len(path), len(path) - (k or 1), -1):
                s += 1
                yield TraceEvent(s, path[:m], lines[s - 1], lines[s])


def _display_value(value: Value, ctx: NumericContext) -> str:
    """Compact human form of an intermediate value for trace lines: a ball
    shows its center's digits."""
    if isinstance(value, Ball):
        return _certified_digits(value.c, 0, value.d, ctx).text()
    if value.denominator == 1:
        return digit_text(value.numerator, 10)
    exp = _certified_digits(value.numerator, 0, value.denominator, ctx)
    # trailing zeros go, down to one fractional digit
    frac = exp.frac_text.rstrip("0") or exp.frac_text[:1]
    return BasebExpansion(exp.sign, exp.base, exp.int_text, frac).text()


# ---------------------------------------------------------------------------
# base-b digit extraction


def _expansion_from_scaled(scaled: int, base: int, digits: int, sign: str) -> BasebExpansion:
    """The expansion of sign * scaled / base^digits, scaled >= 0."""
    text = digit_text(scaled, base, digits + 1)  # at least one digit before the point
    cut = len(text) - digits
    return BasebExpansion(sign, base, text[:cut], text[cut:])


def to_base_b(value: EvalResult | Value, ctx: NumericContext) -> BasebExpansion:
    """Truncated base-b digits, certified over the whole ball.

    Every real in the ball [lo, hi] must share the emitted digits, else
    PrecisionError; the caller (`adaptive_evaluate`) reacts by tightening
    and retrying.  The ball is checked as the integer ball (c +/- r) / d,
    d > 0, and an exact rational n / d is the ball (n +/- 0) / d.
    """
    v = value.value if isinstance(value, EvalResult) else value
    if isinstance(v, Fraction):
        return _certified_digits(v.numerator, 0, v.denominator, ctx)
    return _certified_digits(v.c, v.r, v.d, ctx)


def _certified_digits(c: int, r: int, d: int, ctx: NumericContext) -> BasebExpansion:
    """The digits of the integer ball (c +/- r) / d, certified as `to_base_b`
    says.  Trace displays and the uncertified-digits message, which show a
    ball's center as r = 0, call this core, so that every `to_base_b` call
    is a certification."""
    base, digits = ctx.base, ctx.digits
    scale = base**digits
    if r * scale * base**ctx.guard_digits > d:  # radius > base^-(digits+guard)
        raise PrecisionError("ball radius exceeds the certification precondition")
    lo, hi = c - r, c + r  # the ball's ends times d
    if lo >= 0:
        sign = "+"
    elif hi <= 0:
        sign = "-"
        lo = -hi
    else:
        if max(-lo, hi) * scale < d:
            return BasebExpansion("+", base, "0", "0" * digits)
        raise PrecisionError("sign of the value is not certified at this radius")
    # every real in the ball truncates to q when lo*scale/d and
    # hi*scale/d = (lo*scale + 2r*scale)/d share their integer part
    q, rem = divmod(lo * scale, d)
    if rem + 2 * r * scale >= d:
        raise PrecisionError("digits are not certified at this radius")
    return _expansion_from_scaled(q, base, digits, sign)


def adaptive_evaluate(
    term: Term, ctx: NumericContext, *, collect_trace: bool = False
) -> tuple[EvalResult, BasebExpansion]:
    """Evaluate, certify digits, and escalate guard digits until certified;
    `collect_trace` traces the first round, at guard max(1, guard_digits)."""
    guard = max(1, ctx.guard_digits)
    last: EvalResult | None = None
    for _ in range(MAX_DOUBLINGS + 1):
        attempt_ctx = NumericContext(ctx.base, ctx.digits, guard)
        result = evaluate(term, attempt_ctx, collect_trace=collect_trace and last is None)
        last = result if last is None else EvalResult(result.value, last.chain)
        try:
            return last, to_base_b(last, attempt_ctx)
        except PrecisionError:
            guard *= 2
    assert last is not None
    ball = last.ball()
    uncertified = _certified_digits(ball.c, 0, ball.d, ctx)
    # n/d < 2^(bits(n) - bits(d) + 1); a float of n/d underflows to 0 below 1e-308
    n, d = ball.radius.numerator, ball.radius.denominator
    raise PrecisionError(
        "digits not certified after doubling guard digits "
        f"{MAX_DOUBLINGS} times; uncertified digits {uncertified.text()}, "
        f"radius < 2^{n.bit_length() - d.bit_length() + 1}; the value may sit "
        "exactly on a digit boundary"
    )


def adaptive_render(term: Term, ctx: NumericContext) -> BasebExpansion:
    return adaptive_evaluate(term, ctx)[1]
