import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercalc import engine
from hypercalc.engine import NumericContext, evaluate
from hypercalc.errors import HypercalcError, ParseError
from hypercalc.terms import (
    MAX_DEPTH,
    MAX_NODES,
    ONE,
    Chain,
    Leaf,
    Node,
    OpKind,
    Operator,
    TraceEvent,
    desugar_integer,
    parse,
    plus_one_chain,
    render,
)

PLUS1 = Operator(OpKind.PLUS, 1)
MINUS4 = Operator(OpKind.MINUS, 4)


def test_parse_smallest_composite():
    assert parse("[1+1]") == Node(PLUS1, ONE, ONE)


def test_parse_worked_example_tree():
    tree = parse("[[1+[1+1]]----[1+1]]")
    expected = Node(
        MINUS4,
        Node(PLUS1, ONE, Node(PLUS1, ONE, ONE)),
        Node(PLUS1, ONE, ONE),
    )
    assert tree == expected


def test_parse_missing_right_operand_offset():
    with pytest.raises(ParseError) as err:
        parse("[1+]")
    assert err.value.offset == 3


def test_parse_integer_sugar():
    assert parse("3") == Node(PLUS1, Node(PLUS1, ONE, ONE), ONE)
    assert parse("0") == Node(Operator(OpKind.MINUS, 1), ONE, ONE)
    assert parse("1") is ONE or parse("1") == ONE
    with pytest.raises(ValueError, match="only non-negative integer literals desugar"):
        desugar_integer(-1)


def test_parse_decimal_sugar():
    assert parse("1.5") == Node(
        Operator(OpKind.MINUS, 2), desugar_integer(15), desugar_integer(10)
    )


def test_parse_rejects_garbage():
    for text, offset in [
        ("[1+", 3),
        ("]", 0),
        ("[1x1]", 2),
        ("", 0),
        ("[1+-1]", 3),
        ("[+1]", 1),
        ("1]", 1),
        ("[1+1]]", 5),
        # literals take ASCII digits only: `int()` raised ValueError on the
        # superscript two, and Arabic-Indic 12 parsed as 12
        ("[1+\u00b2]", 3),
        ("[2.\u00b2+1]", 2),
        ("\u0661\u0662", 0),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset, text
    for text, message, offset in [
        ("[1", "expected an operator", 2),
        ("[1 1]", "expected an operator, got '1'", 3),
        ("[1+1", "expected ']'", 4),
        ("[1+1 1]", "expected ']', got '1'", 5),
        # a stray character anywhere comes before any grammar error
        ("[+1]\u00b2", "stray character '\u00b2'", 4),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} at offset {offset}", text


def test_parse_mixed_run_is_two_runs():
    # `+-` must never fuse into one operator
    with pytest.raises(ParseError):
        parse("[1+-1]")


def test_whitespace_and_comments():
    text = "[ 1 +\n1 ]  # trailing comment"
    assert parse(text) == Node(PLUS1, ONE, ONE)


def test_every_space_character_is_whitespace():
    spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    assert parse("[1" + spaces + "+1]") == Node(PLUS1, ONE, ONE)


def test_depth_cap():
    def nested(depth):
        return "[" * depth + "1" + "+1]" * depth

    assert render(parse(nested(MAX_DEPTH))).count("[") == MAX_DEPTH
    with pytest.raises(ParseError) as err:
        parse(nested(MAX_DEPTH + 1))
    assert err.value.offset == MAX_DEPTH
    assert f"nesting deeper than {MAX_DEPTH}" in str(err.value)


def test_node_cap_counts_desugared_literals():
    assert render(parse("[20000+1]")).count("[") == 20000
    assert render(parse("[1+100000]")).count("[") == MAX_NODES
    with pytest.raises(ParseError) as err:
        parse("[1+100001]")
    assert err.value.offset == 3
    # refused from the lexeme: int() of 5,000 digits would raise ValueError
    with pytest.raises(ParseError) as err:
        parse("[1+" + "7" * 5000 + "]")
    assert err.value.offset == 3
    # leading zeros do not count
    assert parse("0" * 5000 + "2.5") == parse("2.5")
    # 10^11 nodes in eleven characters
    with pytest.raises(ParseError) as err:
        parse("0.00000000001")
    assert err.value.offset == 0
    # brackets count too
    with pytest.raises(ParseError) as err:
        parse("[99999+" + "[1+" * 5 + "1" + "]" * 6)
    assert err.value.offset == 10


def test_render_canonical():
    assert render(Node(PLUS1, ONE, ONE)) == "[1+1]"
    assert render(ONE) == "1"
    t = parse("[[1+[1+1]]----[1+1]]")
    assert render(t) == "[[1+[1+1]]----[1+1]]"


def test_operator_rank_validation():
    with pytest.raises(ValueError):
        Operator(OpKind.PLUS, 0)


def test_operator_text_roundtrip():
    op = Operator(OpKind.MINUS, 4)
    assert op.text() == "----"


# ---------------------------------------------------------------------------
# random round-trip

SYMBOLS = list(OpKind)


def random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return ONE
    op = Operator(rng.choice(SYMBOLS), rng.randrange(1, 7))
    return Node(op, random_term(rng, depth - 1), random_term(rng, depth - 1))


def test_random_roundtrip_bulk():
    rng = random.Random(1234)
    for _ in range(2000):
        t = random_term(rng, rng.randrange(0, 9))
        assert parse(render(t)) == t


@st.composite
def term_strategy(draw, max_depth=6):
    if max_depth == 0 or draw(st.booleans()):
        return ONE
    op = Operator(draw(st.sampled_from(SYMBOLS)), draw(st.integers(1, 8)))
    return Node(
        op,
        draw(term_strategy(max_depth=max_depth - 1)),
        draw(term_strategy(max_depth=max_depth - 1)),
    )


@given(term_strategy())
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(t):
    assert parse(render(t)) == t


@given(term_strategy())
@settings(max_examples=200, deadline=None)
def test_grammar_soundness(t):
    # canonical text contains only grammar tokens, with operators as maximal
    # homogeneous runs separating two operands
    text = render(t)
    assert set(text) <= set("1[]+-/")
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "+-/":
            j = i
            while j < n and text[j] == c:
                j += 1
            # run ends: neighbors must be operand edges
            assert text[i - 1] in "1]"
            assert text[j] in "1["
            i = j
        else:
            i += 1


# ---------------------------------------------------------------------------
# a literal is one Chain object


def per_node(term):
    """The same tree with every `Chain` spelled out as `Node` steps."""
    if isinstance(term, Leaf):
        return term
    if isinstance(term, Chain):
        tree = per_node(term.base)
        for _ in range(term.k):
            tree = Node(PLUS1, tree, ONE)
        return tree
    return Node(term.op, per_node(term.left), per_node(term.right))


def literal_tree(n):
    """The literal n as the parser once built it, one `Node` per step."""
    if n == 0:
        return Node(Operator(OpKind.MINUS, 1), ONE, ONE)
    tree = ONE
    for _ in range(n - 1):
        tree = Node(PLUS1, tree, ONE)
    return tree


CTX = NumericContext(digits=10, guard_digits=10)


def evaluated(term, collect):
    try:
        result = evaluate(term, CTX, collect_trace=collect)
    except HypercalcError as err:
        return type(err), str(err), err.path
    return result.value, result.trace


def assert_same_term(chain, reference):
    assert chain == reference and reference == chain
    assert not (chain != reference or reference != chain)
    assert render(chain) == render(reference)
    for collect in (False, True):
        assert evaluated(chain, collect) == evaluated(reference, collect)


@given(st.integers(0, MAX_NODES))
@settings(max_examples=20, deadline=None)
@example(0)
@example(1)
@example(2)
@example(MAX_NODES)
def test_literal_chain_is_the_per_node_literal(n):
    term = parse(str(n))
    # past a few thousand steps both traces stop at the text cap; a lower
    # cap stops them at the same step in a fraction of the time
    with mock.patch.object(engine, "MAX_TRACE_CHARS", 10**6):
        assert_same_term(term, literal_tree(n))
    if n >= 2:
        assert term == Chain(n - 1, ONE)
        assert plus_one_chain(term) == (n - 1, ONE)


# 0.5 and [2+++0.5] make a ball under the chain, [1--0] an error below it
CHAIN_OPERANDS = [parse(text) for text in ("1", "0", "2.75", "40", "[2+++0.5]", "[1--0]")]


@given(st.sampled_from(CHAIN_OPERANDS), st.integers(1, 60), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_chain_over_an_operand_is_its_node_steps(operand, k, outer):
    # `outer` hand-built Node steps over the Chain: a mixed chain
    term = Chain(k, operand)
    for _ in range(outer):
        term = Node(PLUS1, term, ONE)
    reference = per_node(operand)
    for _ in range(k + outer):
        reference = Node(PLUS1, reference, ONE)
    assert plus_one_chain(term) == plus_one_chain(reference)
    assert_same_term(term, reference)


def test_chain_reads_as_its_top_node():
    term = Chain(3, parse("0.5"))
    assert (term.op, term.right, term.left) == (PLUS1, ONE, Chain(2, parse("0.5")))
    assert Chain(1, ONE).left is ONE
    with pytest.raises(AttributeError):
        term.k = 4
    assert term.k == 3
    with pytest.raises(ValueError):
        Chain(0, ONE)
    # a Chain over a chain counts both
    assert plus_one_chain(Chain(2, Chain(3, ONE))) == (5, ONE)
    assert Chain(2, Chain(3, ONE)) == parse("6")
    assert parse("6") != parse("7") and parse("6") != parse("[1+5]")
    # the same steps over another base
    half, zero = parse("0.5"), parse("0")
    assert Chain(2, half) != Chain(2, zero)
    assert Chain(2, half) != per_node(Chain(2, zero)) != Chain(2, half)


def test_deep_literals_compare_and_print():
    # as 4,999 nested Nodes these recurse past the interpreter's stack limit
    assert parse("5000") == parse("5000")
    assert parse("5000") != parse("5001")
    assert parse("5000") == literal_tree(5000)
    assert repr(parse("5000")) == "Chain(k=4999, base=Leaf())"
    # a `Chain` hashes like the `Node` tree it stands for
    assert hash(parse("5000")) == hash(literal_tree(5000))
    assert len({parse("5000"), literal_tree(5000), parse("5001")}) == 2


# explicit bracket text nests up to `MAX_DEPTH` `Node`s; as dataclass
# methods, `==`, `hash` and `repr` recursed once per level past the
# interpreter's stack limit
DEEP_PLUS1 = "[" * 5000 + "1" + "+1]" * 5000
DEEP_TIMES1 = "[" * 3000 + "[1+[1+1]]" + "++1]" * 3000


@pytest.mark.parametrize("text", [DEEP_PLUS1, DEEP_TIMES1], ids=["plus-one", "times-one"])
def test_deep_bracket_text_compares_hashes_and_prints(text):
    a, b = parse(text), parse(text)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    innermost_differs = parse(text.replace("1+1]", "1-1]", 1))
    assert a != innermost_differs and innermost_differs != a
    shown = repr(a)
    assert shown.startswith("Node(op=Operator(kind=<OpKind.PLUS: '+'>, rank=")
    assert shown.endswith(", right=Leaf())")
    assert shown.count("Node(") == text.count("[")


def test_deep_bracket_text_against_chains():
    deep = parse(DEEP_PLUS1)
    assert deep == parse("5001") and parse("5001") == deep
    assert deep != parse("5002") and parse("5002") != deep
    # a `Node` tree holding a `Chain` hashes like its all-`Node` copy; the
    # deep one is spelled out in text, as `per_node` recurses per level
    mixed = parse("[" * 3000 + "5" + "++1]" * 3000)
    spelled = parse("[" * 3000 + "[[[[1+1]+1]+1]+1]" + "++1]" * 3000)
    assert mixed == spelled and hash(mixed) == hash(spelled)
    mixed = parse("[[5++1]+[2.5---7]]")
    assert mixed == per_node(mixed) and hash(mixed) == hash(per_node(mixed))


def tree_tuple(term):
    """The nested tuple that the dataclass `__eq__` and `__hash__` compared."""
    if isinstance(term, Leaf):
        return ()
    return (term.op, tree_tuple(term.left), tree_tuple(term.right))


def dataclass_repr(term):
    if isinstance(term, Leaf):
        return "Leaf()"
    return f"Node(op={term.op!r}, left={dataclass_repr(term.left)}, right={dataclass_repr(term.right)})"


@given(term_strategy(), term_strategy())
@settings(max_examples=200, deadline=None)
def test_node_methods_match_the_dataclass_ones(a, b):
    for copy in (parse(render(a)), per_node(a)):
        assert a == copy and hash(a) == hash(copy)
    assert (a == b) == (tree_tuple(a) == tree_tuple(b)) == (not a != b)
    assert repr(a) == dataclass_repr(a)


def test_largest_literal_parses_in_constant_memory():
    tracemalloc.start()
    try:
        term = parse("99999")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert term == Chain(99998, ONE)
    assert peak < 64 * 2**10


def test_trace_event_contract():
    # a named tuple: four fields in this order, read-only, equal and
    # hashing alike when their fields are, with a keyword-style repr
    event = TraceEvent(3, ("L", "R"), "[[1+1]+[1+1]]", "[2+[1+1]]")
    assert TraceEvent._fields == ("step", "path", "before", "after")
    assert (event.step, event.path, event.before, event.after) == (
        3, ("L", "R"), "[[1+1]+[1+1]]", "[2+[1+1]]")
    with pytest.raises(AttributeError):
        event.step = 4
    twin = TraceEvent(step=3, path=("L", "R"), before="[[1+1]+[1+1]]", after="[2+[1+1]]")
    assert twin == event and hash(twin) == hash(event) and twin is not event
    assert event != TraceEvent(4, ("L", "R"), "[[1+1]+[1+1]]", "[2+[1+1]]")
    assert repr(event) == (
        "TraceEvent(step=3, path=('L', 'R'), before='[[1+1]+[1+1]]', after='[2+[1+1]]')")
