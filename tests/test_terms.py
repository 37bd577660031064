import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercalc.errors import ParseError
from hypercalc.terms import (
    MAX_DEPTH,
    MAX_NODES,
    ONE,
    Leaf,
    Node,
    OpKind,
    Operator,
    desugar_integer,
    parse,
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
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset, text


def test_parse_mixed_run_is_two_runs():
    # `+-` must never fuse into one operator
    with pytest.raises(ParseError):
        parse("[1+-1]")


def test_whitespace_and_comments():
    text = "[ 1 +\n1 ]  # trailing comment"
    assert parse(text) == Node(PLUS1, ONE, ONE)


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

