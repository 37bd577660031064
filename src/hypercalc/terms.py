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
needs no case for it.  Explicit `[X+1]` text still parses to `Node`s.  A
term's identity is its canonical text: `render` alone writes bracket text,
and terms are equal, and hash alike, when they render alike, however
`Node`s and `Chain`s hold them.

A term's one recording is the evaluator's post-order entries, one per
`[X+1]` chain and one per other node; `_close` is the rule that folds
`[X+1]` steps into chains.  `parse` meets every node in post-order, so in
the same pass it records the entries on the root, in its `_parsed` slot,
which equality, hashing, copies and pickles ignore.  `flatten` returns
them, and walks a term built by hand into the same entries; `render`
writes the text from them, a chain of k steps as k `[`s, X and k `+1]`s.
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


# The operators of runs of up to 8 symbols, shared by every parse; a
# longer run builds its own
_OPERATORS = {s * rank: Operator(OpKind(s), rank) for s in "+-/" for rank in range(1, 9)}
_PLUS1, _MINUS1, _MINUS2 = _OPERATORS["+"], _OPERATORS["-"], _OPERATORS["--"]


class Leaf(Record):
    """The constant `1`."""

    __slots__ = ()


class Node(Record):
    """`[left op right]`.  `==` and `hash` compare `render` text; repr walks
    the tree with an explicit stack, as bracket text nests up to `MAX_DEPTH`."""

    __slots__ = ("op", "left", "right", "_parsed")

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


class Chain(Record):
    """`base` under k >= 1 `[X+1]` steps, held as one object.

    It reads as the top node of that chain: `op` is `+`, `right` is `1` and
    `left` is the chain one step shorter (`base` at k = 1).  It shares
    `Node`'s `==` and `hash`, so it is hashable, and it equals and hashes
    like the `Node` tree it stands for: both render to the same text.
    """

    __slots__ = ("k", "base", "_parsed")

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
        return Node(_MINUS1, ONE, ONE)
    return Chain(value - 1, ONE) if value > 1 else ONE


# Entries in post-order, the evaluator's input: (op, left, right, k), where
# an operand is the index of an earlier entry or _LEAF for the constant 1,
# and k > 0 marks the chain of k `[X+1]` steps over X = left.
_Flat = tuple[tuple[Operator, int, int, int], ...]

_LEAF = -1


def _close(entries: list, op: Operator, left: int, right: int, steps: int) -> int:
    """Record in `entries` the node `[left op right]`, or for steps > 0
    that many `[X+1]` steps over X = left, the right being the leaf, and
    return the index of its entry.  Steps over a chain lengthen it."""
    if steps and left != _LEAF and entries[left][3]:
        _, bottom, _, k = entries[left]  # the chain is the last entry
        entries[left] = (op, bottom, _LEAF, k + steps)
        return left
    entries.append((op, left, right, steps))
    return len(entries) - 1


def _integer(run: str, entries: list) -> tuple[Term, int, int] | None:
    """(term, entry index, internal nodes) of a literal's digit run, with
    its entry recorded: the chain of n - 1 steps over `1`.

    None when the run has more than `len(str(MAX_NODES))` digits, which
    makes it at least ten times the cap.  Such a run is never converted:
    `int()` of a long run is slow, and past 4,300 digits refused.
    """
    run = run.lstrip("0") or "0"
    if len(run) > len(str(MAX_NODES)):
        return None
    value = int(run)
    if value == 1:
        return ONE, _LEAF, 0
    if value:
        at = _close(entries, _PLUS1, _LEAF, _LEAF, value - 1)
    else:
        at = _close(entries, _MINUS1, _LEAF, _LEAF, 0)
    return desugar_integer(value), at, max(value - 1, 1)  # [1-1] is one node


def _literal(lexeme: str, entries: list) -> tuple[Term, int, int] | None:
    """`_integer` of a literal: `n`, or `[m--10^k]` for a decimal with digits
    m and k fractional places."""
    whole, _, frac = lexeme.partition(".")
    if not frac:
        return _integer(whole, entries)
    num = _integer(whole + frac, entries)
    den = _integer("1" + "0" * len(frac), entries)
    if num is None or den is None:
        return None
    at = _close(entries, _MINUS2, num[1], den[1], 0)
    return Node(_MINUS2, num[0], den[0]), at, num[2] + den[2] + 1


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
    entries: list = []  # the recording, `flatten`'s entries
    # (left, its entry, operator) of each open bracket, None until its
    # operator is read
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
                at = _LEAF
            elif "0" <= lexeme[:1] <= "9":
                term, at, count = _literal(lexeme, entries) or (None, None, MAX_NODES + 1)
                nodes += count
                if nodes > MAX_NODES:
                    raise ParseError(f"term has more than {MAX_NODES} nodes with literals desugared",
                                     token.start(1))
            else:
                raise _expected("an operand", token)
            # close every bracket whose right operand this is
            while stack and stack[-1] is not None:
                left, left_at, op = stack.pop()
                token = next(tokens)
                if token[1] != "]":
                    raise _expected("']'", token)
                at = _close(entries, op, left_at, at, 1 if term is ONE and op is _PLUS1 else 0)
                term = Node(op, left, term)
            # then an operator, or the end
            token = next(tokens)
            lexeme = token[1]
            if not stack:
                if lexeme:
                    raise ParseError(f"trailing {lexeme!r}", token.start(1))
                if term is not ONE:  # the shared leaf carries nothing
                    _set(term, "_parsed", tuple(entries))
                return term
            op = _OPERATORS.get(lexeme)
            if op is None:
                if lexeme[:1] not in ("+", "-", "/"):
                    raise _expected("an operator", token)
                op = Operator(OpKind(lexeme[0]), len(lexeme))
            stack[-1] = (term, at, op)
    except ParseError:
        # a stray character anywhere comes before any other problem; the
        # tokens read so far are not stray, or they would not have parsed
        for token in itertools.chain([token], tokens):
            if token[2]:
                raise ParseError(f"stray character {token[2]!r}", token.start(2)) from None
        raise


# ---------------------------------------------------------------------------
# rendering


def flatten(term: Term) -> _Flat:
    """The evaluator's entries of a term in post-order: one per `[X+1]`
    chain, and one per other node.  A parsed term's are the parse's
    recording; a term built by hand is walked by `_walk`."""
    parsed = getattr(term, "_parsed", None)
    return _walk(term) if parsed is None else parsed


def _walk(term: Term) -> _Flat:
    """`flatten` of a term built by hand: a `Chain` closes as its k steps, a
    `Node` `[X+1]` as one step and any other node as none."""
    flat: list = []
    done: list[int] = []  # entry indices of finished operands, innermost last
    # (term, None) is still to expand, (node, steps) closes once its operands are done
    stack: list[tuple[Term, int | None]] = [(term, None)]
    plus = OpKind.PLUS  # an enum member costs a lookup per use
    while stack:
        t, steps = stack.pop()
        if steps is not None:
            right = _LEAF if steps else done.pop()
            done.append(_close(flat, t.op, done.pop(), right, steps))
        elif isinstance(t, Leaf):
            done.append(_LEAF)
        elif isinstance(t, Chain):
            stack += ((t, t.k), (t.base, None))
        elif isinstance(t.right, Leaf) and t.op.rank == 1 and t.op.kind is plus:
            stack += ((t, 1), (t.left, None))
        else:
            stack += ((t, 0), (t.right, None), (t.left, None))
    return tuple(flat)


def render(term: Term) -> str:
    """Render a Term as canonical bracket notation, the exact inverse of
    `parse`: literals come out desugared.  The text is written in pre-order
    from `flatten`'s entries, a chain of k `[X+1]` steps whole, as k `[`s,
    X and k `+1]`s, not step by step."""
    flat = flatten(term)
    out: list[str] = []
    work: list = [len(flat) - 1]  # entry indices, the root's last, and strings
    while work:
        item = work.pop()
        if item.__class__ is str:
            out.append(item)
        elif item == _LEAF:
            out.append("1")
        else:
            op, left, right, k = flat[item]
            if k:
                # the runs go in whole, and `+1]`s first: a concatenated copy,
                # or the other order, left the heap so that an exact-structure
                # run peaked 0.3 MB higher
                closes = "+1]" * k
                out.append("[" * k)
                work += (closes, left)
            else:
                out.append("[")
                work += ("]", right, op.text(), left)
    return "".join(out)
