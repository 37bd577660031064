"""Seeded workload generators.

Each generator is an endless, deterministic stream of `Case`s for one seed:
the `hypercalc` command line to run and the outcome its independent
reference expects.  The program sees only the generated expression text and
its output flags.  Streams are built in rounds (a seeded permutation of a
fixed mix of slots), so every run of a given length sees the same mix of
work whatever its seed, and run-to-run spread comes from the program, not
from the draw.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath

from . import oracles
from .oracles import EXIT_DOMAIN, Expected


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]  # arguments for hypercalc.cli.main
    expected: Expected


def _argv(command: str, text: str, base: int, digits: int) -> tuple[str, ...]:
    return (command, text, "--digits", str(digits), "--base", str(base),
            "--format", "json")


# ---------------------------------------------------------------------------
# series-digits: rank-3 power / root / log at about 3,000 bits

# Digit ranges per output base, chosen so every slot works at about 3,000
# bits: the cost of one operation then depends on its kind and operands, not
# on how many digits its draw asked for.  Boundary cases print 1,000-1,100
# binary digits.
SERIES_DIGITS = {2: (2800, 3200), 10: (950, 1050), 16: (790, 870)}
BOUNDARY_DIGITS = (1000, 1100)
SERIES_KINDS = ("pow", "root", "log", "nested")
_SYMBOL = {"pow": "+++", "root": "---", "log": "///"}
OPERAND_MAX = 40


def series_text(tree) -> str:
    if tree[0] == "rat":
        return f"[{tree[1]}--{tree[2]}]"
    return f"[{series_text(tree[1])}{_SYMBOL[tree[0]]}{series_text(tree[2])}]"


def _rat(rng):
    return ("rat", rng.randint(1, OPERAND_MAX), rng.randint(1, OPERAND_MAX))


def _simple(rng, kind):
    """One rank-3 node over two [p--q] operands that takes the series path."""
    while True:
        x, y = _rat(rng), _rat(rng)
        p, q = y[1], y[2]
        if kind == "pow" and p % q == 0:
            continue  # integer exponent: exact path, no series
        if kind == "root" and q % p == 0:
            continue  # integer reciprocal exponent: exact path
        if kind == "log" and p == q:
            continue  # log base 1
        return (kind, x, y)


def _nested(rng):
    outer = rng.choice(("pow", "root", "log"))
    inner = _simple(rng, rng.choice(("pow", "root", "log")))
    if rng.random() < 0.5:
        return (outer, inner, _simple(rng, outer)[2])
    return (outer, _rat(rng), inner)


# Rank-3 terms whose value is an exact terminating fraction in bases 2, 10
# and 16: the certified digits sit on a digit boundary.
_BOUNDARY = (
    (("root", ("rat", 9, 4), ("rat", 2, 1)), Fraction(3, 2)),
    (("root", ("rat", 25, 4), ("rat", 2, 1)), Fraction(5, 2)),
    (("root", ("rat", 27, 8), ("rat", 3, 1)), Fraction(3, 2)),
    (("pow", ("rat", 25, 16), ("rat", 1, 2)), Fraction(5, 4)),
    (("pow", ("rat", 9, 16), ("rat", 3, 2)), Fraction(27, 64)),
    (("pow", ("rat", 36, 1), ("rat", 1, 2)), Fraction(6)),
    (("log", ("rat", 8, 1), ("rat", 4, 1)), Fraction(3, 2)),
    (("log", ("rat", 32, 1), ("rat", 4, 1)), Fraction(5, 2)),
    (("log", ("rat", 2, 1), ("rat", 16, 1)), Fraction(1, 4)),
    (("log", ("rat", 1, 4), ("rat", 16, 1)), Fraction(-1, 2)),
)


def _series_case(rng, kind: str, base: int) -> Case:
    if kind == "boundary":
        digits = rng.randint(*BOUNDARY_DIGITS)
        tree, exact = rng.choice(_BOUNDARY)
        value = oracles.exact_digits(exact, base, digits)
        return Case(_argv("eval", series_text(tree), base, digits),
                    Expected(value=value, boundary=True))
    digits = rng.randint(*SERIES_DIGITS[base])
    while True:
        tree = _nested(rng) if kind == "nested" else _simple(rng, kind)
        try:
            value = oracles.series_digits(tree, base, digits)
        except (oracles.Unsettled, oracles.OutOfRange, ZeroDivisionError):
            continue  # exact, huge or log-base-1 draws: not this slot's work
        return Case(_argv("eval", series_text(tree), base, digits),
                    Expected(value=value))


def series_digits(seed: int) -> Iterator[Case]:
    """Rounds of every (kind, base) slot plus one digit-boundary case.

    Boundary cases print in base 2: in bases 10 and 16 one of them costs as
    much as 10-40 ordinary operations (see README), which would make a run's
    total depend on how many of them it happened to reach.
    """
    rng = random.Random(f"series-digits/{seed}")
    bases = sorted(SERIES_DIGITS)
    while True:
        slots = [(k, b) for k in SERIES_KINDS for b in bases]
        slots.append(("boundary", 2))
        rng.shuffle(slots)
        for kind, base in slots:
            yield _series_case(rng, kind, base)


# ---------------------------------------------------------------------------
# tower-search: a small repeating grid of rank >= 4 expressions at 20-30 digits

TOWER_DIGITS = (20, 25, 30)


def _fwd(a, h):
    return lambda: oracles.tower_fractional(Fraction(a), Fraction(h))


def _sroot(goal, order):
    goal = Fraction(goal)
    return lambda: oracles.super_root(
        mpmath.mpf(goal.numerator) / goal.denominator, order)


# (expression, reference): a zero-argument mpmath function for approximate
# values, an exact Fraction, or an error exit code (int).  The grid has
# seven cheap entries (exact or rejected at once), eleven of moderate cost
# and four heavy ones, so the median and the 90th percentile each fall inside
# one cost group rather than on the edge between two.
TOWER_GRID = (
    ("[2++++2.75]", _fwd(2, Fraction(11, 4))),
    ("[1.5++++0.75]", _fwd(Fraction(3, 2), Fraction(3, 4))),
    ("[1000----3]", _sroot(1000, 3)),
    ("[5----4]", _sroot(5, 4)),
    ("[2++++2.5]", _fwd(2, Fraction(5, 2))),
    ("[2++++1.5]", _fwd(2, Fraction(3, 2))),
    ("[2++++0.5]", _fwd(2, Fraction(1, 2))),
    ("[3++++1.5]", _fwd(3, Fraction(3, 2))),
    ("[3++++0.25]", _fwd(3, Fraction(1, 4))),
    ("[1.5++++2.5]", _fwd(Fraction(3, 2), Fraction(5, 2))),
    ("[10----2]", _sroot(10, 2)),
    ("[3----2]", _sroot(3, 2)),
    ("[100----3]", _sroot(100, 3)),
    ("[2----3]", _sroot(2, 3)),
    ("[1.5----3]", _sroot(Fraction(3, 2), 3)),
    ("[16////2]", Fraction(oracles.integer_super_log(16, 2))),
    ("[27////3]", Fraction(oracles.integer_super_log(27, 3))),
    ("[2+++++3]", Fraction(oracles.tower(2, oracles.tower(2, 2)))),
    ("[3+++++2]", Fraction(oracles.tower(3, 3))),
    ("[4-----2]", Fraction(2)),  # 2^^2 = 4 and x^^x is increasing
    ("[[1--2]++++2]", EXIT_DOMAIN),  # base below 1
    ("[2++++[[1+1]---[1+1]]]", EXIT_DOMAIN),  # irrational height
)


def tower_expected(ref, base: int, digits: int) -> Expected:
    if isinstance(ref, int):
        return Expected(exit_code=ref)
    if isinstance(ref, Fraction):
        return Expected(value=oracles.exact_digits(ref, base, digits))
    return Expected(value=oracles.settled_digits(ref, base, digits))


def tower_search(seed: int) -> Iterator[Case]:
    """Rounds that draw every grid entry once, in a seeded order.

    Entry i runs at TOWER_DIGITS[(i + round + seed) % 3] digits, so every
    three rounds give each entry each digit count once.
    """
    rng = random.Random(f"tower-search/{seed}")
    memo: dict[tuple[str, int], Expected] = {}
    for round_no in itertools.count():
        order = list(enumerate(TOWER_GRID))
        rng.shuffle(order)
        for i, (text, ref) in order:
            digits = TOWER_DIGITS[(i + round_no + seed) % len(TOWER_DIGITS)]
            key = (text, digits)
            if key not in memo:
                memo[key] = tower_expected(ref, 10, digits)
            yield Case(_argv("eval", text, 10, digits), memo[key])


# ---------------------------------------------------------------------------
# exact-structure: rank-1/2 terms of up to ~3,000 nodes, a fifth of them traced

# Internal-node targets per round slot: four evaluations and one trace.
# Evaluation memory grows with the square of the longest literal chain, so
# the largest slot always holds one literal of SPINE nodes and no other
# literal is that long: every run then reaches the same peak.
EXACT_EVAL_SIZES = ((300, 800), (800, 1500), (1500, 2300), (2700, 3000))
EXACT_TRACE_SIZE = (120, 300)
SPINE = 2400
LEAVES = 3
EXACT_BASES = (2, 10, 16)
_LOW_OPS = ("+", "-", "/", "++", "--", "//")


def _literal(rng, budget: int) -> tuple[str, Fraction, int]:
    """(text, value, internal nodes) of a literal spending `budget` nodes.

    One literal in 30 is `0` instead (it desugars to `[1-1]`), so a few
    divisions divide by zero.
    """
    if rng.random() < 1 / 30:
        return "0", Fraction(0), 1
    if budget >= 30 and rng.random() < 0.35:
        places = 1 if budget < 300 else rng.choice((1, 2))
        den = 10**places
        whole = budget - den + 1  # [whole--den]: (w-1) + (den-1) + 1 nodes
        text = str(whole).rjust(places + 1, "0")
        text = text[:-places] + "." + text[-places:]
        return text, Fraction(whole, den), (whole - 1) + (den - 1) + 1
    n = budget + 1
    return str(n), Fraction(n), n - 1


def _low_value(op: str, a: Fraction, b: Fraction) -> Fraction:
    if op == "+":
        return a + b
    if op in ("-", "/"):
        return a - b
    if op == "++":
        return a * b
    if b == 0:
        raise ZeroDivisionError
    return a / b


def exact_term(rng, target: int) -> tuple[str, Fraction | None, int]:
    """(text, exact value or None on division by zero, internal nodes).

    The nodes are shared about evenly (within 15%) by LEAVES literals, since
    evaluation cost grows with the square of each literal's chain; a target
    above SPINE spends SPINE nodes on one integer literal.
    """
    spine = target > SPINE
    parts = LEAVES - spine
    spend = target - (LEAVES - 1) - (SPINE if spine else 0)
    weights = [rng.uniform(0.85, 1.15) for _ in range(parts)]
    budgets = [max(1, round(spend * w / sum(weights))) for w in weights]
    items = [_literal(rng, b) for b in budgets]
    if spine:
        items.insert(rng.randrange(LEAVES), (str(SPINE + 1), Fraction(SPINE + 1), SPINE))
    texts = [t for t, _, _ in items]
    values: list[Fraction | None] = [v for _, v, _ in items]
    nodes = sum(n for _, _, n in items)
    while len(texts) > 1:
        i = rng.randrange(len(texts) - 1)
        op = rng.choice(_LOW_OPS)
        a, b = values[i], values[i + 1]
        try:
            v = None if a is None or b is None else _low_value(op, a, b)
        except ZeroDivisionError:
            v = None
        texts[i:i + 2] = [f"[{texts[i]}{op}{texts[i + 1]}]"]
        values[i:i + 2] = [v]
        nodes += 1
    return texts[0], values[0], nodes


def _exact_case(rng, command: str, size: tuple[int, int]) -> Case:
    base = rng.choice(EXACT_BASES)
    digits = rng.randint(20, 40)
    text, value, nodes = exact_term(rng, rng.randint(*size))
    if value is None:
        expected = Expected(exit_code=EXIT_DOMAIN)
    else:
        expected = Expected(
            value=oracles.exact_digits(value, base, digits),
            trace_lines=nodes - 1 if command == "trace" else None,
        )
    return Case(_argv(command, text, base, digits), expected)


def exact_structure(seed: int) -> Iterator[Case]:
    """Rounds of four evaluations of growing size and one reduction trace."""
    rng = random.Random(f"exact-structure/{seed}")
    while True:
        slots = [("eval", s) for s in EXACT_EVAL_SIZES]
        slots.append(("trace", EXACT_TRACE_SIZE))
        rng.shuffle(slots)
        for command, size in slots:
            yield _exact_case(rng, command, size)


MIN_OPS = 100  # so the 90th latency percentile has >= 10 samples beyond it


@dataclass(frozen=True)
class Workload:
    stream: Callable[[int], Iterator[Case]]
    round_size: int  # cases per round
    ops_per_second: float  # operations per second on the baseline machine (README)
    traced_ops: int  # fixed case count of the traced run (whole rounds)

    def timed_ops(self, seconds: float) -> int:
        """Case count of a timed run: whole rounds that took about `seconds`
        of operation time when the benchmark was defined.  The count depends on `seconds` only,
        never on the machine's speed, so a seed's run always attempts the
        same operations and meets the same failures."""
        ops = max(MIN_OPS, seconds * self.ops_per_second)
        return math.ceil(ops / self.round_size) * self.round_size


WORKLOADS = {
    "series-digits": Workload(series_digits, 13, 18.0, 104),
    "tower-search": Workload(tower_search, len(TOWER_GRID), 13.0, 132),
    "exact-structure": Workload(exact_structure, 5, 10.5, 150),
}
