"""Mediant table of reduced fractions in [0, 1].

Row 1 is [(0,1), (1,1)].  Row k has 2^(k-1)+1 entries: odd positions copy
row k-1 and even positions are the component-wise sums (mediants) of the two
flanking row-(k-1) entries.  Every entry is a reduced fraction, every row is
strictly increasing, and every reduced p/q in [0,1] appears first in the row
equal to its mediant-tree depth, so the table lists every fractional height
p/q that the rational-height split accepts.  No evaluation path reads the
table; the `farey` command prints its rows, and `locate` recovers a
fraction's first table position without enumerating rows.
"""

from __future__ import annotations

from .errors import DomainError, ResourceError
from .rationals import gcd
from .records import Record, _set

# Entries of the largest row `farey_row` builds, and rows `locate` descends.
ROW_CAP = 2**20 + 1
LOCATE_DEPTH_CAP = 10**6


class FareyEntry(Record):
    __slots__ = ("top", "bottom")  # numerator, denominator

    def __init__(self, top: int, bottom: int):
        _set(self, "top", top)
        _set(self, "bottom", bottom)


class FareyIndex(Record):
    __slots__ = ("row", "position")  # position is 1-based within the row

    def __init__(self, row: int, position: int):
        _set(self, "row", row)
        _set(self, "position", position)


def farey_row(k: int) -> list[FareyEntry]:
    """Entries of row k, built by the copy/mediant recursion from row 1."""
    if k < 1:
        raise DomainError(f"row index must be >= 1, got {k}")
    # 2^(k-1) + 1 > ROW_CAP, decided without building (or printing) 2^(k-1)
    if k > 1 and k - 1 >= (ROW_CAP - 1).bit_length():
        raise ResourceError(f"row {k} has 2^{k - 1} + 1 entries, cap is {ROW_CAP}")
    row = [FareyEntry(0, 1), FareyEntry(1, 1)]
    for _ in range(k - 1):
        nxt = []
        for left, right in zip(row, row[1:]):
            nxt.append(left)
            nxt.append(FareyEntry(left.top + right.top, left.bottom + right.bottom))
        nxt.append(row[-1])
        row = nxt
    return row


def locate(p: int, q: int) -> FareyIndex:
    """First (row, position) at which the reduced fraction p/q appears.

    Descends the mediant tree between the current pair of adjacent table
    neighbors, tracking their positions; O(depth) instead of enumerating
    rows, whose sizes grow exponentially.
    """
    if q <= 0 or p < 0 or p > q:
        raise DomainError(f"{p}/{q} is not a fraction in [0, 1]")
    if gcd(p, q) != 1:
        raise DomainError(f"{p}/{q} is not reduced")
    if (p, q) == (0, 1):
        return FareyIndex(1, 1)
    if (p, q) == (1, 1):
        return FareyIndex(1, 2)
    lo_top, lo_bot, lo_pos = 0, 1, 1
    hi_top, hi_bot = 1, 1
    row = 1
    while row < LOCATE_DEPTH_CAP:
        row += 1
        lo_pos = 2 * lo_pos - 1
        mid_top, mid_bot = lo_top + hi_top, lo_bot + hi_bot
        # compare p/q with the mediant by cross-multiplication
        lhs, rhs = p * mid_bot, mid_top * q
        if lhs == rhs:
            return FareyIndex(row, lo_pos + 1)
        if lhs < rhs:
            hi_top, hi_bot = mid_top, mid_bot
        else:
            lo_top, lo_bot, lo_pos = mid_top, mid_bot, lo_pos + 1
    raise ResourceError(f"mediant descent for {p}/{q} exceeded depth {LOCATE_DEPTH_CAP}")
