"""Bracket-notation number terms: parsing and rendering.

A term is the constant `1` or a bracketed binary operation `[a OP b]` where
OP is a maximal run of one operator symbol (`+`, `-` or `/`).  The run length
is the operator's rank: `+` is addition, `++` multiplication, `+++`
exponentiation, `++++` tetration, and so on; `-`/`/` runs are the matching
inverse families.

The parser also accepts two layers of sugar for human input: decimal integer
literals (`3` desugars to `[[1+1]+1]`) and decimal fraction literals (`1.5`
desugars to `[15--10]`).  Rendering never emits sugar, so parse/render
round-trips are exact.

A literal n stands for the chain of n - 1 `[X+1]` steps over `1`, but it is
held as one `Chain(n - 1, ONE)` of constant size.  A `Chain` walks like
the `Node` tree it stands for (`op`, `left`, `right`), so per-node code
needs no case for it; `plus_one_chain` reads its length in O(1).  Explicit
`[X+1]` text still parses to `Node`s.  A term's identity is its canonical
text: `render` alone writes bracket text, and terms are equal, and hash
alike, when they render alike, however `Node`s and `Chain`s hold them.
"""

from __future__ import annotations

import enum
import itertools
import re
from collections import namedtuple

from .errors import ParseError
from .records import Record, _set

# Bracket nesting per parsed term.
MAX_DEPTH = 10_000
# Internal nodes per parsed term, literals counted as desugared: an integer
# literal n counts as its n - 1 `[X+1]` steps.  A literal is one `Chain`
# object and evaluates as one addition, but its canonical text and its
# trace still grow with its steps, so the cap is what bounds literals.
MAX_NODES = 100_000

Path = tuple[str, ...]


class OpKind(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    SLASH = "/"

    @property
    def symbol(self) -> str:
        return self.value


class Operator(Record):
    __slots__ = ("kind", "rank")

    def __init__(self, kind: OpKind, rank: int):
        if rank < 1:
            raise ValueError(f"operator rank must be >= 1, got {rank}")
        _set(self, "kind", kind)
        _set(self, "rank", rank)

    def text(self) -> str:
        return self.kind.symbol * self.rank


class Leaf(Record):
    """The constant `1`."""

    __slots__ = ()


class Node(Record):
    """`[left op right]`.  `==` and `hash` compare `render` text; repr walks
    the tree with an explicit stack, as bracket text nests up to `MAX_DEPTH`."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: Operator, left: Term, right: Term):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if not isinstance(other, (Node, Chain)):
            return NotImplemented
        return self is other or render(self) == render(other)

    def __hash__(self):
        return hash(render(self))

    def __repr__(self):
        out: list[str] = []
        work: list = [self]  # terms to print, or literal strings to emit
        while work:
            t = work.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, Node):
                work += [")", t.right, ", right=", t.left, f"Node(op={t.op!r}, left="]
            else:
                out.append(repr(t))
        return "".join(out)


ONE = Leaf()
_PLUS1 = Operator(OpKind.PLUS, 1)


class Chain(Record):
    """`base` under k >= 1 `[X+1]` steps, held as one object.

    It reads as the top node of that chain: `op` is `+`, `right` is `1` and
    `left` is the chain one step shorter (`base` at k = 1).  It shares
    `Node`'s `==` and `hash`, so it is hashable, and it equals and hashes
    like the `Node` tree it stands for: both render to the same text.
    """

    __slots__ = ("k", "base")

    def __init__(self, k: int, base: Term):
        if k < 1:
            raise ValueError(f"a chain takes k >= 1 steps, got {k}")
        _set(self, "k", k)
        _set(self, "base", base)

    op = _PLUS1
    right = ONE

    @property
    def left(self) -> "Term":
        return Chain(self.k - 1, self.base) if self.k > 1 else self.base

    __eq__ = Node.__eq__
    __hash__ = Node.__hash__


Term = Leaf | Node | Chain


class TraceEvent(namedtuple("TraceEvent", "step path before after")):
    """One reduction step: the subterm at `path` was replaced by its value,
    taking line `before` to `after`.  `EvalResult.trace` builds them."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# parser (iterative, so deeply nested input cannot overflow the call stack)


def desugar_integer(value: int) -> Term:
    """The left-nested `[..[1+1]..+1]` chain of value - 1 steps, as one
    `Chain(value - 1, ONE)`; 1 is `ONE` and 0 becomes `[1-1]`."""
    if value < 0:
        raise ValueError("only non-negative integer literals desugar")
    if value == 0:
        return Node(Operator(OpKind.MINUS, 1), ONE, ONE)
    return Chain(value - 1, ONE) if value > 1 else ONE


def _literal_values(lexeme: str) -> list[int] | None:
    """The integers a literal desugars from: [n] for `n`, [m, 10^k] for a
    decimal with digits m and k fractional places.

    None when one of them has more than `len(str(MAX_NODES))` digits,
    which makes it at least ten times the cap.  Such a run is never
    converted: `int()` of a long run is slow, and past 4,300 digits refused.
    """
    whole, _, frac = lexeme.partition(".")
    runs = [whole + frac] + (["1" + "0" * len(frac)] if frac else [])
    runs = [run.lstrip("0") or "0" for run in runs]
    if any(len(run) > len(str(MAX_NODES)) for run in runs):
        return None
    return [int(run) for run in runs]


def _literal_nodes(values: list[int] | None) -> int:
    if values is None:
        return MAX_NODES + 1
    return len(values) - 1 + sum(v - 1 if v else 1 for v in values)


def _desugar_literal(values: list[int]) -> Term:
    if len(values) == 1:
        return desugar_integer(values[0])
    num, den = values
    return Node(Operator(OpKind.MINUS, 2), desugar_integer(num), desugar_integer(den))


# One match per token, in group 1, with the whitespace and comments before
# it.  Whitespace (`\s` is exactly `str.isspace`) does not matter, and `#`
# starts a comment that runs to the end of the line.  Operator runs are
# maximal: `+++` is one token, never `+` then `++`, and `+-` is two runs.
# Literal digits are ASCII only: `str.isdigit` would also take `²`, which
# `int` refuses, and `١`.  Group 2 is a character no token can start, and the
# end of the text is the empty token.
_TOKEN = re.compile(r"(?:\s|#[^\n]*)*([\[\]]|\++|-+|/+|[0-9]+(?:\.[0-9]+)?|(.)|\Z)")


def _expected(what: str, token: re.Match) -> ParseError:
    got = f", got {token[1]!r}" if token[1] else ""
    return ParseError(f"expected {what}{got}", token.start(1))


def parse(text: str) -> Term:
    """Parse bracket notation (plus literal sugar) into a Term.

    Raises ParseError with the character offset of the first problem:
    unbalanced brackets, a missing operand, stray characters, nesting
    deeper than `MAX_DEPTH`, or a term of more than `MAX_NODES`
    internal nodes.  A stray character anywhere is reported before any
    other problem.  Literals count as desugared (`20000` is 19,999 nodes,
    `0.001` is 1,000), so a short literal can exceed the cap; the error
    then points at that literal, and it is refused before it is built.  A
    mixed run such as `+-` tokenizes as two adjacent runs and is rejected
    where the second one appears.
    """
    tokens = _TOKEN.finditer(text)
    nodes = 0
    # (left, operator) of each open bracket, None until its operator is read
    stack: list = []
    try:
        while True:
            # an operand: `[` opens a bracket, whose left operand comes next
            token = next(tokens)
            lexeme = token[1]
            if lexeme == "[":
                nodes += 1
                if nodes > MAX_NODES:
                    raise ParseError(f"term has more than {MAX_NODES} nodes with literals desugared",
                                     token.start(1))
                stack.append(None)
                if len(stack) > MAX_DEPTH:
                    raise ParseError(f"nesting deeper than {MAX_DEPTH}", token.start(1))
                continue
            if lexeme == "1":
                term: Term = ONE
            elif "0" <= lexeme[:1] <= "9":
                values = _literal_values(lexeme)
                nodes += _literal_nodes(values)
                if nodes > MAX_NODES:
                    raise ParseError(f"term has more than {MAX_NODES} nodes with literals desugared",
                                     token.start(1))
                term = _desugar_literal(values)
            else:
                raise _expected("an operand", token)
            # close every bracket whose right operand this is
            while stack and stack[-1] is not None:
                left, op = stack.pop()
                token = next(tokens)
                if token[1] != "]":
                    raise _expected("']'", token)
                term = Node(op, left, term)
            # then an operator, or the end
            token = next(tokens)
            lexeme = token[1]
            if not stack:
                if lexeme:
                    raise ParseError(f"trailing {lexeme!r}", token.start(1))
                return term
            if lexeme[:1] not in ("+", "-", "/"):
                raise _expected("an operator", token)
            stack[-1] = (term, Operator(OpKind(lexeme[0]), len(lexeme)))
    except ParseError:
        # a stray character anywhere comes before any other problem; the
        # tokens read so far are not stray, or they would not have parsed
        for token in itertools.chain([token], tokens):
            if token[2]:
                raise ParseError(f"stray character {token[2]!r}", token.start(2)) from None
        raise


# ---------------------------------------------------------------------------
# rendering


def plus_one_chain(term: Term) -> tuple[int, Term]:
    """(k, X) for a term that is X under k `[X+1]` steps with the leaf on
    the right, such as a literal n, which is (n - 1, `1`); k is 0 for none.
    A `Chain` adds its k at once; `Node` steps are walked one by one."""
    k, plus = 0, OpKind.PLUS  # an enum member costs a lookup per use
    while True:
        if isinstance(term, Chain):
            k += term.k
            term = term.base
        elif (isinstance(term, Node) and isinstance(term.right, Leaf)
              and term.op.rank == 1 and term.op.kind is plus):
            k += 1
            term = term.left
        else:
            return k, term


def render(term: Term) -> str:
    """Render a Term as canonical bracket notation, the exact inverse of
    `parse`: literals come out desugared.  A chain of k `[X+1]` steps is
    emitted whole, as k `[`s, X and k `+1]`s, not node by node."""
    out: list[str] = []
    work: list = [term]  # terms to render, or literal strings to emit
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        k, bottom = plus_one_chain(item)
        if k:
            work.extend(["+1]" * k, bottom, "[" * k])
        elif isinstance(item, Node):
            work.extend(["]", item.right, item.op.text(), item.left, "["])
        else:
            out.append("1")
    return "".join(out)
