"""The package's frozen records: how they are built, compared, hashed and
shown, that their fields are read-only, and the checks their constructors
make on their values."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from hypercalc.engine import BasebExpansion, NumericContext, evaluate
from hypercalc.farey import FareyEntry, FareyIndex
from hypercalc.hyperops import MAX_HEIGHT_STEPS, EngineLimits
from hypercalc.midops import SeriesConfig
from hypercalc.rootfind import Bracket, RootConfig
from hypercalc.terms import Leaf, OpKind, Operator, parse

# (class, field names, field values, repr of the record of those values)
RECORDS = [
    (NumericContext, ("base", "digits", "guard_digits"), (16, 30, 5),
     "NumericContext(base=16, digits=30, guard_digits=5)"),
    (SeriesConfig, ("target_error",), (Fraction(1, 8),),
     "SeriesConfig(target_error=Fraction(1, 8))"),
    (RootConfig, ("x_tolerance",), (Fraction(1, 8),),
     "RootConfig(x_tolerance=Fraction(1, 8))"),
    (EngineLimits, ("max_height_steps",), (7,), "EngineLimits(max_height_steps=7)"),
    (Bracket, ("lo", "hi"), (Fraction(1), Fraction(3, 2)),
     "Bracket(lo=Fraction(1, 1), hi=Fraction(3, 2))"),
    (BasebExpansion, ("sign", "base", "int_text", "frac_text"), ("-", 10, "3", "14"),
     "BasebExpansion(sign='-', base=10, int_text='3', frac_text='14')"),
    (FareyEntry, ("top", "bottom"), (1, 2), "FareyEntry(top=1, bottom=2)"),
    (FareyIndex, ("row", "position"), (2, 2), "FareyIndex(row=2, position=2)"),
    (Operator, ("kind", "rank"), (OpKind.PLUS, 1), "Operator(kind=<OpKind.PLUS: '+'>, rank=1)"),
    (Leaf, (), (), "Leaf()"),
]


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values, shown):
    record = cls(*values)
    twin = cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    assert record == twin and not record != twin and record is not twin
    assert hash(record) == hash(twin)
    # a record is not the tuple of its fields
    assert record != values and values != record
    assert repr(record) == shown
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


def test_record_defaults_and_field_inequality():
    assert NumericContext() == NumericContext(10, 20, 10)
    assert NumericContext(digits=5) == NumericContext(10, 5, 10)
    assert NumericContext(base=2) != NumericContext(base=3)
    assert EngineLimits() == EngineLimits(MAX_HEIGHT_STEPS)
    assert Bracket(Fraction(1), Fraction(1)) != Bracket(Fraction(1), Fraction(2))
    assert Operator(OpKind.PLUS, 1) != Operator(OpKind.MINUS, 1)
    assert Leaf() == Leaf() and hash(Leaf()) == hash(Leaf())
    assert len({FareyEntry(1, 2), FareyEntry(1, 2), FareyEntry(1, 3)}) == 2


@pytest.mark.parametrize("build, message", [
    (lambda: NumericContext(base=1), "base must be in [2, 36]"),
    (lambda: NumericContext(base=37), "base must be in [2, 36]"),
    (lambda: NumericContext(digits=-1), "digit counts must be non-negative"),
    (lambda: NumericContext(guard_digits=-1), "digit counts must be non-negative"),
    (lambda: SeriesConfig(Fraction(0)), "target error must be positive"),
    (lambda: RootConfig(Fraction(-1, 2)), "tolerance must be positive"),
    (lambda: Bracket(Fraction(2), Fraction(1)), "bracket endpoints out of order"),
    (lambda: Operator(OpKind.SLASH, 0), "operator rank must be >= 1, got 0"),
])
def test_record_checks_refuse_bad_values(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_a_traced_result_builds_its_trace_once():
    result = evaluate(parse("[[1+1]++[1+1]]"), NumericContext(), collect_trace=True)
    assert result.trace is result.trace
    assert [event.after for event in result.trace] == ["[2++[1+1]]", "[2++2]", "4"]
    assert evaluate(parse("[1+1]"), NumericContext()).trace is None


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_copy_and_pickle(cls, names, values, shown):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == shown


def test_terms_copy_and_pickle():
    term = parse("[[3++2.5]---[1+1]]")
    assert pickle.loads(pickle.dumps(term)) == term and copy.deepcopy(term) == term
