"""Partitions, skew diagrams, hooks, residues, and k-conjugation.

Partitions are plain tuples of weakly decreasing positive ints.  Cells are
(row, col) pairs, 1-based, with row 1 the bottom (longest) row, so row i of
a diagram has length equal to part i.
"""

from __future__ import annotations

import operator
import reprlib
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

Parts = tuple[int, ...]
Cell = tuple[int, int]

# An error shows an input value by its repr, cut by reprlib and then to at most
# _ECHO_CHARS characters: a small value in full, a huge or deep one briefly.
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxother = 3, 80, 80
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = _ECHO.maxset = 8
_ECHO_CHARS = 200


def _cut(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


def _echo(value) -> str:
    return _cut(_ECHO.repr(value))


def partition(parts: Sequence[int]) -> Parts:
    """Canonicalize a part sequence: drop trailing zeros, validate monotonicity."""
    out = tuple(map(operator.index, parts))
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    out = out[:end]  # one copy, however many trailing zeros
    if any(p <= 0 for p in out):
        raise ValueError(f"parts must be positive: {_echo(parts)}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {_echo(parts)}")
    return out


def part_at(p: Parts, i: int) -> int:
    """Part in row i (1-based), zero beyond the last row."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def is_k_bounded(p: Parts, k: int) -> bool:
    return not p or p[0] <= k


def require_k_bounded(k: int, *ps: Parts) -> None:
    """The check of every k-Young entry point: k >= 1 and each of ps k-bounded."""
    if k < 1:
        raise ValueError(f"k must be positive: {_echo(k)}")
    for p in ps:
        if p and p[0] > k:
            raise ValueError(f"partition {_echo(p)} is not {_echo(k)}-bounded")


def require_rectangle(m: int, k: int, n: int = 1) -> None:
    """The rule of a rectangle (m^n) at level k, a k-rectangle or one that
    an ideal sits below: 1 <= m <= k and n >= 1."""
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k: m={_echo(m)} k={_echo(k)}")
    if n < 1:
        raise ValueError(f"need n >= 1: n={_echo(n)}")


def conjugate(p: Parts) -> Parts:
    """Ordinary conjugate: column lengths of the diagram.

    One pass tallies the parts by value; column j holds the parts of value
    at least j, the suffix sum of the tally from j, so the whole conjugate
    takes O(len(p) + p[0]).
    """
    if not p:
        return ()
    tally = [0] * p[0]
    for v in p:
        tally[v - 1] += 1
    return tuple(accumulate(reversed(tally)))[::-1]


def _column_height(p: Parts, j: int) -> int:
    """Number of parts of p that are at least j: part j of conjugate(p)."""
    return bisect_left(p, 1 - j, key=operator.neg)


def contains(inner: Parts, outer: Parts) -> bool:
    """Whether inner fits inside outer componentwise."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def union(a: Parts, b: Parts) -> Parts:
    """Multiset union of parts, re-sorted."""
    return tuple(sorted(a + b, reverse=True))


def residue(cell: Cell, modulus: int) -> int:
    """Diagonal residue (col - row) mod modulus."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive: {_echo(modulus)}")
    row, col = cell
    return (col - row) % modulus


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Parts]:
    """All partitions of n with parts at most max_part, largest part first.

    Reverse lexicographic order: each step lowers the last part above 1 by
    one and refills what follows greedily with parts no larger.
    """
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    if n < 0 or bound <= 0:
        return
    parts = [bound] * (n // bound) + ([n % bound] if n % bound else [])
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        top = parts.pop()
        q, r = divmod(top + ones, top - 1)
        parts += [top - 1] * q
        if r:
            parts.append(r)


def partitions_in_box(width: int, height: int) -> Iterator[Parts]:
    """All partitions with at most height parts, each at most width.

    Depth-first preorder: a partition comes before its extensions by one more
    part, and the extensions of a prefix come in increasing last part.
    """
    parts: list[int] = []
    while True:
        yield tuple(parts)
        if len(parts) < height and (parts or width > 0):
            parts.append(1)
            continue
        while parts and parts[-1] == (parts[-2] if len(parts) > 1 else width):
            parts.pop()
        if not parts:
            return
        parts[-1] += 1


def k_bounded_partitions(k: int, max_degree: int) -> Iterator[Parts]:
    """All k-bounded partitions of degree at most max_degree, by degree."""
    for d in range(max_degree + 1):
        yield from partitions_of(d, k)


class SkewShape(NamedTuple):
    """Skew diagram outer/inner: row i spans columns inner_i+1 .. outer_i, and
    column j spans rows conj(inner)_j+1 .. conj(outer)_j."""

    outer: Parts
    inner: Parts

    def inner_at(self, i: int) -> int:
        return part_at(self.inner, i)

    def row_lengths(self) -> Parts:
        return tuple(o - self.inner_at(i + 1) for i, o in enumerate(self.outer))

    def column_heights(self) -> tuple[int, ...]:
        """conjugate(outer) - conjugate(inner), componentwise.

        Row i covers columns inner_i+1 .. outer_i, so one pass adds 1 at
        column inner_i+1 and takes 1 off past column outer_i, and the running
        sum of these steps is each column's height.
        """
        outer, inner = self.outer, self.inner
        if not outer:
            return ()
        steps = [0] * (outer[0] + 1)
        steps[0] = len(outer) - len(inner)  # the rows with inner part 0
        for a in inner:
            steps[a] += 1
        for o in outer:
            steps[o] -= 1
        steps.pop()  # past the last column
        return tuple(accumulate(steps))

    def sorted_heights(self) -> Parts:
        """The column heights, largest first: of a k-skew diagram, the k-conjugate."""
        return tuple(sorted(self.column_heights(), reverse=True))

    def cells(self) -> Iterator[Cell]:
        for i, o in enumerate(self.outer, start=1):
            for j in range(self.inner_at(i) + 1, o + 1):
                yield (i, j)

    def hook_length(self, cell: Cell) -> int:
        """Arm plus leg plus one if the cell itself lies in the diagram.

        The cell must sit inside the outer shape; it may lie in the inner
        (removed) part, in which case only arm and leg count.
        """
        i, j = cell
        if not (1 <= i <= len(self.outer) and 1 <= j <= self.outer[i - 1]):
            raise ValueError(f"cell {_echo(cell)} outside outer shape {_echo(self.outer)}")
        arm = self.outer[i - 1] - max(self.inner_at(i), j)
        leg = _column_height(self.outer, j) - max(i, _column_height(self.inner, j))
        own = 1 if j > self.inner_at(i) else 0
        return arm + leg + own

    def to_json_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner)}


def skew_shape(outer: Sequence[int], inner: Sequence[int] = ()) -> SkewShape:
    """Validated skew shape; inner must fit inside outer.  The public
    constructor of the exported SkewShape: k_skew builds only shapes that are
    valid by construction, so it calls SkewShape itself."""
    o, i = partition(outer), partition(inner)
    if not contains(i, o):
        raise ValueError(f"inner {_echo(i)} not contained in outer {_echo(o)}")
    return SkewShape(o, i)


@lru_cache(maxsize=None)
def k_skew(p: Parts, k: int) -> SkewShape:
    """The k-skew diagram of a k-bounded partition.

    Rows are placed top row first, for the parts taken smallest to largest;
    each new row goes below the placed ones, as far left as the hook bound k
    and skewness allow.  The hook of the new row's leftmost cell is its length
    plus the placed cells above it in its column, and skewness keeps the row
    from starting left of the row above.  Placed rows have nondecreasing
    starts and ends, so every placed row starts at or left of any column from
    the row above's start s on, and the rows over such a column are exactly
    those whose end lies beyond it.  At most k - length of them may remain,
    so the row starts at max(s, ends[t-1]) with t = len(ends) - (k - length),
    or at s when t < 1.
    """
    require_k_bounded(k, p)
    inner: list[int] = []
    ends: list[int] = []
    start = placed = 0
    for length in reversed(p):
        t = placed - (k - length)
        if t >= 1 and ends[t - 1] > start:
            start = ends[t - 1]
        if start:  # the starts ascend from 0; inner drops its zero parts
            inner.append(start)
        ends.append(start + length)
        placed += 1
    ends.reverse()
    inner.reverse()
    return SkewShape(tuple(ends), tuple(inner))


@lru_cache(maxsize=None)
def k_conjugate(p: Parts, k: int) -> Parts:
    """Column lengths of the k-skew diagram, sorted decreasing."""
    return k_skew(p, k).sorted_heights()


class KRectangle(namedtuple("KRectangle", "width k")):
    """The tuple (width, k) of the rectangle (width^(k-width+1)), whose corner hook is k."""

    __slots__ = ()

    def __new__(cls, width: int, k: int):
        require_rectangle(width, k)
        return super().__new__(cls, width, k)

    @classmethod
    def _make(cls, values):  # _replace makes its copy here
        return cls(*values)

    @property
    def height(self) -> int:
        return self.k - self.width + 1

    @property
    def parts(self) -> Parts:
        return (self.width,) * self.height


def all_k_rectangles(k: int) -> list[KRectangle]:
    return [KRectangle(w, k) for w in range(1, k + 1)]


def rectangle_k_conjugate(m: int, n: int, k: int) -> Parts:
    """Closed form for the k-conjugate of the rectangle (m^n).

    With w = k - m + 1: the result is ((w)^a, b^m) where b = n mod w and
    a = m * (n // w), zero parts dropped.
    """
    require_rectangle(m, k)  # n = 0 is the empty partition here
    if n < 0:
        raise ValueError(f"n must be non-negative: {_echo(n)}")
    w = k - m + 1
    b = n % w
    a = m * (n // w)
    tail = (b,) * m if b else ()
    return (w,) * a + tail
