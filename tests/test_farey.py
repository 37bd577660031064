import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from hypercalc import farey
from hypercalc.errors import DomainError, ResourceError
from hypercalc.farey import LOCATE_DEPTH_CAP, ROW_CAP, FareyEntry, FareyIndex, farey_row, locate
from hypercalc.rationals import gcd


# Independent oracle: the two-index recursion applied literally, one entry
# at a time.  Odd positions copy the previous row, even positions sum the
# two flanking previous-row entries; row 1 is ((0,1), (1,1)).
@lru_cache(maxsize=None)
def entry_oracle(k: int, position: int) -> tuple[int, int]:
    assert 1 <= position <= 2 ** (k - 1) + 1
    if k == 1:
        return (0, 1) if position == 1 else (1, 1)
    if position % 2 == 1:
        return entry_oracle(k - 1, (position + 1) // 2)
    at, ab = entry_oracle(k - 1, position // 2)
    bt, bb = entry_oracle(k - 1, position // 2 + 1)
    return (at + bt, ab + bb)


def test_row_one():
    assert farey_row(1) == [FareyEntry(0, 1), FareyEntry(1, 1)]


def test_rows_two_three_by_hand():
    assert farey_row(2) == [FareyEntry(0, 1), FareyEntry(1, 2), FareyEntry(1, 1)]
    assert farey_row(3) == [
        FareyEntry(0, 1),
        FareyEntry(1, 3),
        FareyEntry(1, 2),
        FareyEntry(2, 3),
        FareyEntry(1, 1),
    ]


def test_row_rejects_bad_index():
    with pytest.raises(DomainError):
        farey_row(0)


def test_row_cap(monkeypatch):
    # row 21 has exactly ROW_CAP entries; row 22 is refused before it is built
    assert ROW_CAP == 2**20 + 1
    with pytest.raises(ResourceError) as err:
        farey_row(22)
    assert f"cap is {ROW_CAP}" in str(err.value)
    # the cap is read when the row is asked for
    monkeypatch.setattr(farey, "ROW_CAP", 33)
    farey_row(6)
    with pytest.raises(ResourceError):
        farey_row(7)


def test_row_cap_is_decided_from_the_index_size():
    # row 20000's 2^19999 + 1 entries pass the int-to-str digit limit, and
    # 2^(10^9 - 1) alone is a 125 MB integer: neither is built
    tracemalloc.start()
    try:
        for k in (20_000, 10**9):
            with pytest.raises(ResourceError) as err:
                farey_row(k)
            assert str(err.value) == f"row {k} has 2^{k - 1} + 1 entries, cap is {ROW_CAP}"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_rows_match_entry_oracle():
    for k in range(1, 9):
        row = farey_row(k)
        for pos, entry in enumerate(row, start=1):
            assert (entry.top, entry.bottom) == entry_oracle(k, pos)


def test_row_structure_up_to_12():
    prev = None
    for k in range(1, 13):
        row = farey_row(k)
        assert len(row) == 2 ** (k - 1) + 1
        values = [Fraction(e.top, e.bottom) for e in row]
        assert values == sorted(set(values)), f"row {k} not strictly increasing"
        for e in row:
            assert gcd(e.top, e.bottom) == 1
            assert 0 <= Fraction(e.top, e.bottom) <= 1
        if prev is not None:
            assert row[::2] == prev, f"row {k} odd positions differ from row {k-1}"
        prev = row


def test_locate_examples():
    assert locate(1, 1) == FareyIndex(1, 2)
    assert locate(0, 1) == FareyIndex(1, 1)
    assert locate(1, 2) == FareyIndex(2, 2)
    assert locate(3, 4) == FareyIndex(4, 8)


def test_locate_validation():
    with pytest.raises(DomainError):
        locate(2, 4)  # not reduced
    with pytest.raises(DomainError):
        locate(3, 2)  # outside [0, 1]
    with pytest.raises(DomainError):
        locate(1, 0)


def test_locate_depth_cap():
    # 1/q first appears in row q
    assert locate(1, LOCATE_DEPTH_CAP) == FareyIndex(LOCATE_DEPTH_CAP, 2)
    with pytest.raises(ResourceError) as err:
        locate(1, LOCATE_DEPTH_CAP + 1)
    assert f"exceeded depth {LOCATE_DEPTH_CAP}" in str(err.value)


def test_locate_against_enumeration_small():
    # exhaustive scan of materialized rows for everything that first appears
    # within row depth 12
    first_seen = {}
    for k in range(1, 13):
        for pos, e in enumerate(farey_row(k), start=1):
            first_seen.setdefault((e.top, e.bottom), FareyIndex(k, pos))
    for (p, q), idx in first_seen.items():
        assert locate(p, q) == idx


def test_locate_against_entry_oracle_q64():
    # row sizes explode, so beyond materialized rows verify each located
    # index with the single-entry recursion plus the parity minimality
    # argument (odd positions are copies, so a first appearance must sit at
    # an even position; the base row is the exception)
    for q in range(1, 65):
        for p in range(0, q + 1):
            try:
                g = gcd(p, q)
            except DomainError:
                continue
            if g != 1:
                continue
            idx = locate(p, q)
            assert entry_oracle(idx.row, idx.position) == (p, q)
            if idx.row > 1:
                assert idx.position % 2 == 0
