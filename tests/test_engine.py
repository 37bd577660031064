import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercalc import engine
from hypercalc.balls import Ball, _ball
from hypercalc.engine import (
    BasebExpansion,
    NumericContext,
    adaptive_evaluate,
    adaptive_render,
    evaluate,
    to_base_b,
    trace_reduce,
)
from hypercalc.errors import DomainError, HypercalcError, PrecisionError, ResourceError
from hypercalc import rationals
from hypercalc.rationals import digit_text
from hypercalc.terms import Leaf, Node, OpKind, Operator, TraceEvent, parse, render

CTX10 = NumericContext(digits=10, guard_digits=10)

ROOT_XX_3 = Fraction("1.825455022924830040041469297740586222633833645")


# ---------------------------------------------------------------------------
# an independent exact-rational evaluator for rank <= 2 trees


def rational_eval(term):
    if isinstance(term, Leaf):
        return Fraction(1)
    a, b = rational_eval(term.left), rational_eval(term.right)
    kind, rank = term.op.kind, term.op.rank
    if rank == 1:
        return a + b if kind is OpKind.PLUS else a - b
    if kind is OpKind.PLUS:
        return a * b
    return a / b


def random_low_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Leaf()
    op = Operator(rng.choice(list(OpKind)), rng.randrange(1, 3))
    left = random_low_term(rng, depth - 1)
    right = random_low_term(rng, depth - 1)
    if op.rank == 2 and op.kind in (OpKind.MINUS, OpKind.SLASH):
        try:
            if rational_eval(right) == 0:
                right = Leaf()
        except ZeroDivisionError:
            right = Leaf()
    return Node(op, left, right)


def test_exactness_matches_independent_evaluator():
    rng = random.Random(2024)
    checked = 0
    for _ in range(400):
        t = random_low_term(rng, 5)
        try:
            expected = rational_eval(t)
        except ZeroDivisionError:
            continue
        result = evaluate(t, CTX10)
        assert result.is_exact
        assert result.value == expected
        checked += 1
    assert checked > 300


def test_evaluate_examples():
    assert evaluate(parse("[1-1]"), CTX10).value == 0
    assert evaluate(parse("[[1+1]///[1+1]]"), CTX10).ball().contains(1)
    ball = evaluate(parse("[[1+[1+1]]----[1+1]]"), CTX10).ball()
    assert ball.contains(ROOT_XX_3)
    assert ball.radius <= Fraction(1, 10**20)


def test_dispatch_all_ranks():
    # every (rank, family) pair `_apply` routes: exact ranks 1-2 (`-` and
    # `/` subtract, `--` and `//` divide), rank-3 series, rank 4
    for text, value in (("[2+3]", 5), ("[2++3]", 6), ("[2+++3]", 8), ("[2++++3]", 16),
                        ("[5-3]", 2), ("[5/5]", 0), ("[6--3]", 2), ("[3--2]", Fraction(3, 2)),
                        ("[16////2]", 3), ("[6//3]", 2)):
        result = evaluate(parse(text), CTX10)
        assert result.is_exact and result.value == value, text
    assert evaluate(parse("[8---3]"), CTX10).ball().contains(2)
    # division by zero, on exact and on approximate dividends
    for text in ("[1--[1-1]]", "[1//[1-1]]", "[[[1+1]+++[1--[1+1]]]//[1-1]]"):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse(text), CTX10)


def test_evaluate_error_paths_carry_node_path():
    with pytest.raises(DomainError) as err:
        evaluate(parse("[[1-1]----[1+1]]"), CTX10)
    assert err.value.path == ()
    with pytest.raises(DomainError) as err:
        evaluate(parse("[1+[1--[1-1]]]"), CTX10)
    assert err.value.path == ("R",)


def test_evaluate_retries_from_the_overshoot():
    # 9^(6/5) raised to 39/2 is x = 3^(234/5): the power amplifies the
    # inexact base's error far beyond a fixed /16 per retry.  x^5 = 3^234
    # checks the truncated digits exactly.
    term = parse("[[[27--3]+++[24--20]]---[2--39]]")
    for digits in (30, 1025):
        exp = adaptive_render(term, NumericContext(digits=digits))
        low = Fraction(exp.text())
        assert low**5 <= 3**234 < (low + Fraction(1, 10**digits)) ** 5
    assert exp.text().startswith("21343946363862392998112.869329202494020386323438192828039")


def test_evaluate_retries_kernel_precision_errors():
    # A kernel's PrecisionError means an operand ball was too wide for its
    # operation; `evaluate` re-runs the term at a 16x tighter working
    # tolerance.  2^(2^-120) raised to 2^130 is exactly 2^1024, so no radius
    # certifies its digits, but the power's inputs do get tight enough.
    term = parse("[[[1+1]---[[1+1]+++120]]+++[[1+1]+++130]]")
    result = evaluate(term, NumericContext(digits=20))
    assert result.ball().contains(Fraction(2**1024))
    with pytest.raises(PrecisionError, match="may sit exactly on a digit boundary"):
        adaptive_evaluate(term, NumericContext(digits=20))
    # sqrt 2 - sqrt 2 reaches zero at every precision: after the last round
    # the last error comes out as it was raised
    rounds = mock.Mock(wraps=engine._eval_once)
    with mock.patch.object(engine, "_eval_once", rounds):
        with pytest.raises(PrecisionError, match="divisor interval contains zero") as err:
            evaluate(parse("[1//[[[1+1]---[1+1]]-[[1+1]---[1+1]]]]"), CTX10)
    assert err.value.path == ()
    working = [call.args[1] for call in rounds.call_args_list]
    assert working == [working[0] / 16**k for k in range(engine.MAX_DOUBLINGS + 1)]


def test_a_radius_that_never_shrinks_fails_after_the_last_round():
    # an operator whose ball keeps radius 1/2 at every working tolerance: each
    # round misses the target, and after the last one the evaluation says so
    calls = []

    def wide(op, a, b, tol):
        calls.append(tol)
        return Ball(Fraction(1), Fraction(1, 2))

    with mock.patch.object(engine, "_apply", wide):
        with pytest.raises(PrecisionError, match="evaluation radius did not reach the precision target"):
            evaluate(parse("[[1+1]++[1+1]]"), CTX10)
    assert len(calls) == engine.MAX_DOUBLINGS + 1


@pytest.mark.parametrize("text, digits", [
    # log base 1 + 2^-30 of 3 and log base 2^(2^-120) of 3 = 2^120 log2 3:
    # the base's ln is near 0, so the quotient's error is the logs' times
    # 2^60 or more, and only the whole-term retry can pay for it.  At
    # 2^(2^-130) the base ball first reaches 1 ("log base interval reaches
    # 1"), and the retry at a tighter working tolerance separates it.
    ("[3///[[[[1+1]+++30]+1]--[[1+1]+++30]]]", "1179625963.25261677491959903592"),
    ("[3///[[1+1]---[[1+1]+++120]]]",
     "2106776528227830709928956833162496941.81697010403480288099"),
    ("[3///[[1+1]---[[1+1]+++130]]]",
     "2157339164905298646967251797158396868420.57738653163815013846"),
])
def test_log_base_near_one_certifies(text, digits):
    assert adaptive_render(parse(text), NumericContext(digits=20)).text() == digits


def test_evaluate_rejects_irrational_heights():
    # the height of a rank-4 operator must come out exactly rational
    with pytest.raises(DomainError) as err:
        evaluate(parse("[[1+1]++++[[1+1]---[1+1]]]"), CTX10)
    assert "exact rational" in str(err.value)


# ---------------------------------------------------------------------------
# base-b expansions


def long_division_digits(value, base, digits):
    sign = "-" if value < 0 else "+"
    x = abs(value)
    whole = x.numerator // x.denominator
    if whole == 0:
        head = [0]
    else:
        head = []
        n = whole
        while n:
            n, d = divmod(n, base)
            head.append(d)
        head.reverse()
    rem = x - whole
    tail = []
    for _ in range(digits):
        rem *= base
        d = rem.numerator // rem.denominator
        tail.append(d)
        rem -= d
    return sign, tuple(head), tuple(tail)


def test_to_base_b_examples():
    exp = to_base_b(Fraction(23, 4), NumericContext(base=2, digits=2))
    assert exp.text() == "101.11"
    exp = to_base_b(Fraction(1, 3), NumericContext(base=10, digits=5))
    assert exp.text() == "0.33333"
    exp = to_base_b(Fraction(0), NumericContext(base=10, digits=3))
    assert exp.text() == "0.000"
    exp = to_base_b(Fraction(-7, 2), NumericContext(base=10, digits=2))
    assert exp.text() == "-3.50"
    exp = to_base_b(Fraction(255), NumericContext(base=16, digits=0))
    assert exp.text() == "FF"


def test_to_base_b_matches_long_division():
    rng = random.Random(77)
    for _ in range(500):
        value = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        for base in (2, 10, 16):
            ctx = NumericContext(base=base, digits=rng.randrange(0, 12))
            exp = to_base_b(value, ctx)
            sign, head, tail = long_division_digits(value, base, ctx.digits)
            assert (exp.sign, exp.int_digits, exp.frac_digits) == (sign, head, tail)
            # truncation bound
            scale = base**ctx.digits
            approx = Fraction(
                sum(d * base**i for i, d in enumerate(reversed(head))) * scale
                + sum(d * base**i for i, d in enumerate(reversed(tail))),
                scale,
            )
            if sign == "-":
                approx = -approx
            assert abs(value - approx) < Fraction(1, scale)
            if value >= 0:
                assert approx <= value
            else:
                assert approx >= value


@given(st.integers(min_value=-(10**400), max_value=10**400),
       st.integers(min_value=1, max_value=10**300),
       st.integers(min_value=2, max_value=36), st.integers(min_value=0, max_value=300))
@settings(max_examples=150, deadline=None)
@example(num=-1, den=4097, base=2, digits=0)  # a ball that straddles 0
def test_expansion_matches_long_division_any_base(num, den, base, digits):
    value = Fraction(num, den)
    ctx = NumericContext(base=base, digits=digits)
    exp = to_base_b(value, ctx)
    assert (exp.sign, exp.int_digits, exp.frac_digits) == long_division_digits(value, base, digits)
    # a ball takes the scaled-integer path; one that straddles 0 cannot
    # certify its sign (see test_ball_straddling_zero_prints_unsigned)
    ball = Ball(value, Fraction(1, base ** (digits + 12)))
    if ball.lo < 0 < ball.hi:
        return
    try:
        exp = to_base_b(ball, NumericContext(base=base, digits=digits, guard_digits=12))
    except PrecisionError:  # the ball straddles a digit boundary
        return
    assert (exp.sign, exp.int_digits, exp.frac_digits) == long_division_digits(value, base, digits)


def test_ball_straddling_zero_prints_unsigned():
    # -1/4097 prints as "-0" at 0 binary digits, but a ball around it of
    # radius 2^-12 reaches past 0, so its sign cannot be certified
    value = Fraction(-1, 4097)
    ctx = NumericContext(base=2, digits=0)
    assert to_base_b(value, ctx).text() == "-0"
    ball = Ball(value, Fraction(1, 2**12))
    assert ball.lo < 0 < ball.hi
    assert to_base_b(ball, NumericContext(base=2, digits=0, guard_digits=12)).text() == "0"


def test_to_base_b_certifies_balls():
    ctx = NumericContext(base=10, digits=4, guard_digits=6)
    ball = Ball(Fraction(1, 3), Fraction(1, 10**12))
    assert to_base_b(ball, ctx).text() == "0.3333"
    # a ball straddling a digit boundary cannot certify
    boundary = Ball(Fraction(1, 2), Fraction(1, 10**12))
    with pytest.raises(PrecisionError):
        to_base_b(boundary, NumericContext(base=10, digits=1, guard_digits=6))
    # but an exact rational on the boundary is fine (truncation fast path)
    assert to_base_b(Fraction(1, 2), NumericContext(base=10, digits=1, guard_digits=6)).text() == "0.5"
    assert to_base_b(Fraction(1, 2), NumericContext(base=10, digits=0, guard_digits=6)).text() == "0"
    # radius precondition
    with pytest.raises(PrecisionError):
        to_base_b(Ball(Fraction(1, 3), Fraction(1, 100)), ctx)


def test_display_value_trims_trailing_zeros_to_one_digit():
    ctx = NumericContext(base=10, digits=4)
    shown = [engine._display_value(Fraction(n, d), ctx)
             for n, d in ((5, 2), (1, 100000), (-7, 3), (10**5000, 1))]
    assert shown == ["2.5", "0.0", "-2.3333", "1" + "0" * 5000]
    assert engine._display_value(Fraction(5, 2), NumericContext(base=10, digits=0)) == "2"
    assert engine._display_value(Ball(Fraction(5, 2), Fraction(1, 10**9)), ctx) == "2.5000"


def fraction_certification(ball, ctx):
    """to_base_b's certification of a ball by Fraction endpoints: the
    PrecisionError message it raises, or (sign, truncated digits as an int)."""
    if ball.radius > ctx.precision_target():
        return "ball radius exceeds the certification precondition"
    scale = ctx.base**ctx.digits
    lo, hi = ball.lo, ball.hi
    if lo >= 0:
        sign = "+"
    elif hi <= 0:
        sign, lo, hi = "-", -hi, -lo
    elif max(-lo, hi) * scale < 1:
        return "+", 0
    else:
        return "sign of the value is not certified at this radius"
    if math.floor(lo * scale) != math.floor(hi * scale):
        return "digits are not certified at this radius"
    return sign, math.floor(lo * scale)


def test_integer_certification_matches_the_fraction_rule():
    rng = random.Random(2024)
    for _ in range(3000):
        base, digits, guard = rng.randrange(2, 37), rng.randrange(0, 30), rng.randrange(0, 6)
        ctx = NumericContext(base=base, digits=digits, guard_digits=guard)
        scale, target = base**digits, ctx.precision_target()
        m = rng.randrange(-(10**6), 10**6)
        kind = rng.randrange(5)
        if kind == 0:  # anywhere
            center = Fraction(rng.randrange(-(10**30), 10**30), rng.randrange(1, 10**20))
        elif kind == 1:  # on a digit boundary: lo and hi truncate differently
            center = Fraction(m, scale)
        elif kind == 2:  # lo on a boundary, or just below or above it
            center = Fraction(m, scale) + target + Fraction(rng.choice((-1, 0, 1)), 10**40)
        elif kind == 3:  # straddles 0, its ends below or above base^-digits
            center = Fraction(rng.randrange(-(10**6), 10**6), 10**6) * target
        else:  # a truncated digit run that differs between lo and hi
            center = Fraction(m, scale) + Fraction(rng.randrange(1, 10**6), 10**6) * target
        radius = rng.choice((
            target,  # exactly at the precision target
            target * Fraction(rng.randrange(1, 10**6), 10**6),
            target + Fraction(1, 10**50),  # just past it
        ))
        ball = Ball(center, radius)
        expected = fraction_certification(ball, ctx)
        try:
            exp = to_base_b(ball, ctx)
        except PrecisionError as err:
            assert str(err) == expected
            continue
        sign, scaled = expected
        _, head, tail = long_division_digits(Fraction(scaled, scale), base, digits)
        assert (exp.sign, exp.int_digits, exp.frac_digits) == (sign, head, tail)


def test_integer_certification_edges():
    # guard 0: the precision target is base^-digits itself
    ctx = NumericContext(base=10, digits=2, guard_digits=0)
    unit = Fraction(1, 100)
    # a radius exactly at the target passes the precondition (and fails on
    # the digits); a radius past it does not
    assert to_base_b(Ball(Fraction(37, 200), unit / 4), ctx).text() == "0.18"
    with pytest.raises(PrecisionError, match="digits"):
        to_base_b(Ball(Fraction(37, 200), unit), ctx)
    with pytest.raises(PrecisionError, match="precondition"):
        to_base_b(Ball(Fraction(37, 200), unit + Fraction(1, 10**30)), ctx)
    # straddling 0 with both ends inside base^-digits prints 0; an end at or
    # beyond it leaves the sign uncertified
    assert to_base_b(Ball(unit / 10, unit / 2), ctx).text() == "0.00"
    with pytest.raises(PrecisionError, match="sign"):
        to_base_b(Ball(unit / 4, unit * 3 / 4), ctx)  # hi is base^-digits exactly
    # lo exactly on a boundary certifies, hi exactly on the next does not
    assert to_base_b(Ball(unit * 3 + unit / 4, unit / 4), ctx).text() == "0.03"
    with pytest.raises(PrecisionError, match="digits"):
        to_base_b(Ball(unit * 3 + unit / 2, unit / 2), ctx)
    assert to_base_b(Ball(-unit * 3 - unit / 4, unit / 4), ctx).text() == "-0.03"


def test_to_base_b_zero_straddling_ball():
    ctx = NumericContext(base=10, digits=3, guard_digits=8)
    assert to_base_b(Ball(Fraction(0), Fraction(1, 10**11)), ctx).text() == "0.000"


def test_no_leading_zero():
    exp = to_base_b(Fraction(205), NumericContext(base=10, digits=0))
    assert exp.int_digits == (2, 0, 5)
    exp = to_base_b(Fraction(1, 2), NumericContext(base=10, digits=2))
    assert exp.int_digits == (0,)


# ---------------------------------------------------------------------------
# adaptive rendering


def test_adaptive_render_examples():
    assert adaptive_render(parse("[1+1]"), NumericContext(digits=0)).text() == "2"
    exp = adaptive_render(parse("[[1+[1+1]]----[1+1]]"), NumericContext(digits=8))
    assert exp.text() == "1.82545502"


def test_adaptive_render_extends_prefixes():
    texts = [
        adaptive_render(parse("[1.5++++0.5]"), NumericContext(digits=n)).text()
        for n in (10, 20, 30)
    ]
    assert texts[1].startswith(texts[0])
    assert texts[2].startswith(texts[1])
    assert ROOT_XX_3 != texts  # just to keep the linter honest about imports


def test_adaptive_render_boundary_tie_raises():
    # an approximate value that sits exactly on a digit edge can never be
    # certified: 1 / (sqrt 2 * sqrt 2) is exactly 1/2, computed through
    # balls, and 1/2 lies on every base-10 digit grid
    term = parse("[1--[[[1+1]---[1+1]]++[[1+1]---[1+1]]]]")
    ctx = NumericContext(digits=1, guard_digits=4)
    with pytest.raises(PrecisionError) as err:
        adaptive_render(term, ctx)
    # the radius is printed as a power-of-two bound, not as a float that
    # underflows to 0: 4 guard digits doubled 8 times is 1024 digits
    message = str(err.value)
    assert f"doubling guard digits {engine.MAX_DOUBLINGS} times" in message
    assert "uncertified digits 0.5," in message
    exponent = int(message.split("radius < 2^")[1].split(";")[0])
    assert exponent < -3400  # below 10^-1025
    last = evaluate(term, NumericContext(digits=1, guard_digits=4 * 2**engine.MAX_DOUBLINGS))
    assert Fraction(2) ** (exponent - 2) < last.value.radius < Fraction(2) ** exponent
    # in base 3 the same value repeats (0.111...) and certifies fine
    assert adaptive_render(term, NumericContext(base=3, digits=6, guard_digits=4)).text() == "0.111111"


def test_adaptive_evaluate_returns_both():
    result, exp = adaptive_evaluate(parse("[1--[1+1]]"), NumericContext(digits=3))
    assert result.value == Fraction(1, 2)
    assert exp.text() == "0.500"


# ---------------------------------------------------------------------------
# traces


def test_trace_worked_example():
    events = trace_reduce(parse("[[1+[1+1]]----[1+1]]"), CTX10)
    assert [e.after for e in events[:-1]] == [
        "[[1+2]----[1+1]]",
        "[3----[1+1]]",
        "[3----2]",
    ]
    assert events[-1].after.startswith("1.8254550229")
    # consecutive events chain together
    for prev, nxt in zip(events, events[1:]):
        assert nxt.before == prev.after
    assert [e.step for e in events] == [1, 2, 3, 4]


def test_trace_trivial_cases():
    assert trace_reduce(parse("1"), CTX10) == ()
    events = trace_reduce(parse("[1+1]"), CTX10)
    assert len(events) == 1 and events[0].after == "2"


def test_trace_paths_address_the_rewrite():
    events = trace_reduce(parse("[[1+[1+1]]----[1+1]]"), CTX10)
    assert [e.path for e in events] == [("L", "R"), ("L",), ("R",), ()]


def test_trace_of_a_long_chain_is_linear():
    # 1,528 events over a 6,113-piece render: re-rendering per event is
    # quadratic and takes tens of seconds
    term = parse("[[800+1]++[[700--3]+1.5]]")
    events = trace_reduce(term, CTX10)
    assert len(events) == 1528
    assert events[0].before == render(term)
    for prev, nxt in zip(events, events[1:]):
        assert nxt.before == prev.after
    assert events[-1].after == "188101.5"
    assert [e.step for e in events] == list(range(1, 1529))


def test_evaluate_deep_literal_in_bounded_memory():
    # a 20,000-deep chain: a path tuple per node would need gigabytes
    term = parse("[20000+1]")
    tracemalloc.start()
    try:
        value = evaluate(term, CTX10).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 20001
    assert peak < 64 * 2**20


def test_a_left_deep_sum_of_large_values_in_bounded_memory():
    # 300 additions over 2^500,000, each value 62 KB: untraced, an operand
    # is let go once its parent fires; traced, the values kept for the
    # replay count against the text budget, whose 20,000,000 characters of
    # trace text are about 40 MB
    term = parse("[" * 300 + "[2+++[1000++500]]" + "+[1+1]]" * 300)
    tracemalloc.start()
    try:
        value = evaluate(term, CTX10).value
        _, untraced = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ResourceError, match="reduction trace's values passed"):
            trace_reduce(term, CTX10)
        _, traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 2**500_000 + 600
    assert untraced < 4 * 2**20
    assert traced < 48 * 2**20


# ---------------------------------------------------------------------------
# the path-keyed evaluator that post-order arrays replaced, kept as the
# reference for values, traces and error paths


def reference_eval_once(term, ctx, op_tol, collect):
    values, display, events = {}, {}, []
    stack = [(term, (), False)]
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
            value = engine._apply(t.op, left, right, op_tol)
        except HypercalcError as err:
            if err.path is None:
                err.path = path
            raise
        values[path] = value
        if collect:
            before = reference_render_with(term, display)
            display[path] = engine._display_value(value, ctx)
            events.append(TraceEvent(len(events) + 1, path, before,
                                     reference_render_with(term, display)))
    return values[()], events


def reference_render_with(term, display):
    out, work = [], [(term, ())]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, path = item
        if path in display:
            out.append(display[path])
        elif isinstance(t, Leaf):
            out.append("1")
        else:
            work.extend(["]", (t.right, path + ("R",)), t.op.text(), (t.left, path + ("L",)), "["])
    return "".join(out)


def post_order_run(term, op_tol, collect):
    """One `_eval_once` round, and its trace replayed from the round's values."""
    flat = engine._flatten(term)
    values = [*engine._eval_once(flat, op_tol)] or [Fraction(1)]  # the leaf's 1
    events = engine._Trace(flat, render(term)).replay(values, CTX10, op_tol) if collect else ()
    return values[-1], list(events)


def outcome(run):
    try:
        value, events = run()
    except HypercalcError as err:
        return type(err), err.path
    return value, isinstance(value, Fraction), events


# Depth 3 over operands up to 3 keeps every exact value below 27^27 before
# the last operator; 0 makes divisions, roots and logs of zero, 0.5 and
# roots make balls.  40 is a long `+1` chain whose powers of powers hit the
# magnitude cap at once, and the last operand is a chain over a ball.
SMALL_OPERANDS = [
    parse(text) for text in ("1", "2", "3", "0", "0.5", "40", "[[[2+++0.5]+1]+1]")
]
PLUS1 = Operator(OpKind.PLUS, 1)


@st.composite
def low_rank_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(SMALL_OPERANDS))
    if draw(st.integers(0, 3)) == 0:  # a `+1` chain over a drawn operand
        term = draw(low_rank_terms(depth - 1))
        for _ in range(draw(st.integers(1, 3))):
            term = Node(PLUS1, term, Leaf())
        return term
    op = Operator(draw(st.sampled_from(list(OpKind))), draw(st.integers(1, 3)))
    return Node(op, draw(low_rank_terms(depth - 1)), draw(low_rank_terms(depth - 1)))


@given(low_rank_terms(), st.booleans())
@settings(max_examples=300, deadline=None)
@example(term=parse("[[[[1--0]+1]+1]+1]"), collect=False)  # an error below a chain
# 2.75 is a 373-node term: drawn at random, the reference's render per
# traced event takes the test from seconds to most of a minute
@example(term=parse("[[2.75+++[[2+++0.5]+1]]+1]"), collect=False)
@example(term=parse("[[2.75---[1+1]]+[2.75//0]]"), collect=True)
# traced chains over an operator's result, a non-integer rational and a ball
@example(term=parse("[[[2++3]+1]+1]"), collect=True)
@example(term=parse("[[[1--2]+1]+1]"), collect=True)
@example(term=parse("[[[2+++0.5]+1]+1]"), collect=True)
def test_post_order_evaluation_matches_path_keyed_reference(term, collect):
    # a `+1` chain is one entry, traced or not; the reference takes a step
    # and fires an event per node
    op_tol = CTX10.precision_target() / 64
    new = outcome(lambda: post_order_run(term, op_tol, collect))
    old = outcome(lambda: reference_eval_once(term, CTX10, op_tol, collect))
    assert new == old


@given(low_rank_terms())
@settings(max_examples=300, deadline=None)
@example(term=parse("[[[[2+++0.5]+1]+1]+[[40+1]---[3+1]]]"))
def test_trace_paths_follow_from_the_previous_event(term):
    path_of = engine._path_of
    calls = []

    def counted(*args):
        calls.append(args)
        return path_of(*args)

    op_tol = CTX10.precision_target() / 64
    with mock.patch.object(engine, "_path_of", counted):
        try:
            _, events = post_order_run(term, op_tol, True)
        except HypercalcError:
            assert len(calls) <= 1  # only the escaping error's path
            return
    # no walk up the parent links per event
    assert calls == []
    _, reference = reference_eval_once(term, CTX10, op_tol, True)
    assert [e.path for e in events] == [e.path for e in reference]


@given(low_rank_terms(), st.sampled_from([0, 1, 3]), st.sampled_from([2, 10]))
@settings(max_examples=150, deadline=None)
# at guard 0 this root's display is ...216.47 and at guard 1 ...216.46
@example(term=parse("[[2+++7]+++[[5++0.5]///[2---7]]]"), guard=0, digits=2)
@example(term=parse("[[2.75---[1+1]]+[2.75//0]]"), guard=0, digits=10)
def test_a_traced_evaluation_shows_its_first_rounds_trace(term, guard, digits):
    # `adaptive_evaluate` traces its first round, at guard max(1, guard), and
    # no other; a term that fails there fails with the untraced error
    ctx = NumericContext(digits=digits, guard_digits=guard)
    try:
        expected = trace_reduce(term, NumericContext(digits=digits, guard_digits=max(1, guard)))
    except HypercalcError as err:
        with pytest.raises(type(err)) as again:
            adaptive_evaluate(term, ctx, collect_trace=True)
        assert (str(again.value), again.value.path) == (str(err), err.path)
        return
    try:
        result, _ = adaptive_evaluate(term, ctx, collect_trace=True)
    except PrecisionError as err:  # digits never certified, as untraced
        assert "digits not certified" in str(err)
        return
    assert result.trace == expected


def test_trace_of_an_explicit_chain_in_closed_form():
    steps = 1000
    events = trace_reduce(parse("[" * steps + "1" + "+1]" * steps), CTX10)
    assert len(events) == steps
    assert {type(event) for event in events} == {TraceEvent}
    for j, event in enumerate(events, start=1):
        assert event.path == ("L",) * (steps - j)
        assert event.after == "[" * (steps - j) + str(j + 1) + "+1]" * (steps - j)


@pytest.mark.parametrize("text, path", [
    ("[[1+[1--[1-1]]]+1]", ("L", "R")),
    # the chain 5 fires four events before the division fails below a chain
    ("[[[5+[1--[1-1]]]+1]+1]", ("L", "L", "R")),
    ("[[40+1]++[[2--[[3+1]-4]]+1]]", ("R", "L")),
])
def test_trace_error_below_a_chain_keeps_its_path(text, path):
    for collect in (False, True):
        with pytest.raises(DomainError) as err:
            evaluate(parse(text), CTX10, collect_trace=collect)
        assert err.value.path == path
        assert str(err.value) == f"division by zero (at {'.'.join(path)})"


# ---------------------------------------------------------------------------
# `[X+1]` chains in one step


def test_folded_chain_over_a_ball_matches_per_node_steps():
    term = parse("[2+++0.5]")
    for _ in range(2000):
        term = Node(PLUS1, term, Leaf())
    folded = engine._flatten(term)
    # 2, 5 and 10 are chains, then `--`, `+++` and the 2,000-step chain
    assert len(folded) == 6
    op_tol = CTX10.precision_target() / 64
    value, _ = post_order_run(term, op_tol, False)
    assert isinstance(value, Ball)
    # the reference takes the 2,016 nodes one by one
    assert value == reference_eval_once(term, CTX10, op_tol, False)[0]


def test_a_chain_over_a_ball_is_one_apply_call(monkeypatch):
    # `--` makes 0.5, `+++` the ball, and the 2,000-step chain over it is one
    # rounding of X + 2000; the chains 2, 5 and 10 are exact additions
    term = parse("[2+++0.5]")
    for _ in range(2000):
        term = Node(PLUS1, term, Leaf())
    calls = []
    apply = engine._apply

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(engine, "_apply", counted)
    assert isinstance(evaluate(term, CTX10).value, Ball)
    assert len(calls) == 3


def _form(value):
    """A value's representation: a ball's three integers, or the Fraction."""
    return (value.c, value.r, value.d) if isinstance(value, Ball) else value


@given(
    st.integers(-(2**80), 2**80),
    st.integers(0, 2**40),
    st.one_of(
        st.integers(0, 2**70).map(lambda m: 2 * m + 1),  # the snap's division
        st.integers(0, 200).map(lambda e: 1 << e),  # its shift, either way
    ),
    st.integers(0, 120),
    st.integers(1, 60),
)
@settings(max_examples=300, deadline=None)
@example(c=-7, r=1, d=3, bits=0, k=5)
@example(c=-(2**70) - 1, r=1, d=1 << 200, bits=10, k=60)  # finer than the grid
@example(c=-3, r=1, d=2, bits=100, k=7)  # coarser than the grid
def test_x_plus_k_is_k_rounded_steps(c, r, d, bits, k):
    # the identity a chain over a ball relies on: `balls._snap` commutes with
    # adding an integer, so one rounding of X + k is the k rounded steps
    tol = Fraction(1, 1 << bits)
    x = _ball(c, r, d)
    stepped = x
    for _ in range(k):
        stepped = engine._apply(PLUS1, stepped, Fraction(1), tol)
    assert _form(engine._apply(PLUS1, x, k, tol)) == _form(stepped)


def test_trace_stops_partway_through_a_chain_without_the_rest(monkeypatch):
    # 99999's chain shows n + j per step; each display is made as its event
    # fires, so the text cap stops the trace before the other steps' digits
    def counted(convert, built):
        def wrapper(*args):
            built.append(args)
            return convert(*args)
        return wrapper

    # below the C leaf `rationals.decimal_texts` shows each step with `str`
    built = []
    monkeypatch.setattr(rationals, "str", counted(str, built), raising=False)
    monkeypatch.setattr(engine, "MAX_TRACE_CHARS", 10**6)
    with pytest.raises(ResourceError) as err:
        trace_reduce(parse("99999"), CTX10)
    step = int(re.search(r"at step (\d+) of 99,998$", str(err.value)).group(1))
    assert step < 1000
    assert len(built) <= step + 1
    monkeypatch.undo()
    # past the leaf with `digit_text`: the chain over 10^600 starts at step
    # 610, after lines of about 20,000 characters each
    built = []
    monkeypatch.setattr(rationals, "digit_text", counted(digit_text, built))
    monkeypatch.setattr(engine, "MAX_TRACE_CHARS", 15 * 10**6)
    with pytest.raises(ResourceError) as err:
        trace_reduce(parse("[" * 5000 + "[10+++600]" + "+1]" * 5000), CTX10)
    step = int(re.search(r"at step (\d+) of 5,609$", str(err.value)).group(1))
    assert 609 < step < 1000
    assert len(built) <= step - 609


def test_the_text_cap_names_the_step_it_stops_at(monkeypatch):
    # the cap counts the render and every line, chains' steps and nodes
    # alike: `MAX_TRACE_CHARS` = the render plus every line up to step s
    # stops the trace at step s + 1, and the whole text lets it finish
    term = parse("[[[6.1+81]+[[2---2]+[1--3]]]+[" + "[" * 40 + "1" + "+1]" * 40 + "+1]]")
    events = trace_reduce(term, CTX10)
    nodes = len(events)
    total = len(render(term))
    for s, event in enumerate(events):
        monkeypatch.setattr(engine, "MAX_TRACE_CHARS", total)
        with pytest.raises(ResourceError, match=f"at step {s + 1} of {nodes:,}$"):
            trace_reduce(term, CTX10)
        total += len(event.after)
    monkeypatch.setattr(engine, "MAX_TRACE_CHARS", total)
    assert trace_reduce(term, CTX10) == events


@pytest.mark.parametrize("text, value", [
    # 1,001 digits, past the C leaf of `digit_text`
    ("[[[10+++1000]+1]+1]", 10**1000),
    # 10,001 digits, past the 4,300 that `str()` of an int allows
    ("[[[10+++[100++100]]+1]+1]", 10**10000),
], ids=["1001-digits", "10001-digits"])
def test_an_integer_chain_shows_each_step_as_digit_text(text, value):
    events = trace_reduce(parse(text), CTX10)
    assert [e.after for e in events[-2:]] == [
        "[" + digit_text(value + 1, 10) + "+1]",
        digit_text(value + 2, 10),
    ]


def test_literal_evaluates_without_operator_calls(monkeypatch):
    calls = []
    apply = engine._apply

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(engine, "_apply", counted)
    assert evaluate(parse("99999"), CTX10).value == 99999
    assert calls == []


def test_render_emits_chains_whole():
    # 50,000 steps nest past `MAX_DEPTH`, so the text is built, not parsed
    steps = 50_000
    assert render(parse(str(steps + 1))) == "[" * steps + "1" + "+1]" * steps
    ball = parse("[2+++0.5]")
    term = ball
    for _ in range(steps):
        term = Node(PLUS1, term, Leaf())
    assert render(term) == "[" * steps + render(ball) + "+1]" * steps
    chain_over_ball = "[[" + render(ball) + "+1]+1]"
    for text in ("[" * 9000 + "1" + "+1]" * 9000, chain_over_ball, "[[[1+1]+[1+1]]+1]"):
        assert render(parse(text)) == text
