"""Partitions, skew diagrams, hooks, residues, and k-conjugation.

Partitions are plain tuples of weakly decreasing positive ints.  Cells are
(row, col) pairs, 1-based, with row 1 the bottom (longest) row, so row i of
a diagram has length equal to part i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

Parts = tuple[int, ...]
Cell = tuple[int, int]


def partition(parts: Sequence[int]) -> Parts:
    """Canonicalize a part sequence: drop trailing zeros, validate monotonicity."""
    out = tuple(int(p) for p in parts)
    while out and out[-1] == 0:
        out = out[:-1]
    if any(p <= 0 for p in out):
        raise ValueError(f"parts must be positive: {parts!r}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts!r}")
    return out


def part_at(p: Parts, i: int) -> int:
    """Part in row i (1-based), zero beyond the last row."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def degree(p: Parts) -> int:
    return sum(p)


def is_k_bounded(p: Parts, k: int) -> bool:
    return not p or p[0] <= k


def conjugate(p: Parts) -> Parts:
    """Ordinary conjugate: column lengths of the diagram."""
    if not p:
        return ()
    return tuple(sum(1 for v in p if v >= j) for j in range(1, p[0] + 1))


def contains(inner: Parts, outer: Parts) -> bool:
    """Whether inner fits inside outer componentwise."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def union(a: Parts, b: Parts) -> Parts:
    """Multiset union of parts, re-sorted."""
    return tuple(sorted(a + b, reverse=True))


def sum_parts(a: Parts, b: Parts) -> Parts:
    """Componentwise sum."""
    n = max(len(a), len(b))
    return tuple(part_at(a, i) + part_at(b, i) for i in range(1, n + 1))


def residue(cell: Cell, modulus: int) -> int:
    """Diagonal residue (col - row) mod modulus."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive: {modulus}")
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
    """Skew diagram outer/inner; row i spans columns inner_i+1 .. outer_i."""

    outer: Parts
    inner: Parts

    def inner_at(self, i: int) -> int:
        return part_at(self.inner, i)

    def row_lengths(self) -> Parts:
        return tuple(o - self.inner_at(i + 1) for i, o in enumerate(self.outer))

    def column_heights(self) -> tuple[int, ...]:
        if not self.outer:
            return ()
        return tuple(
            sum(1 for i in range(1, len(self.outer) + 1) if self.inner_at(i) < c <= self.outer[i - 1])
            for c in range(1, self.outer[0] + 1)
        )

    def cells(self) -> Iterator[Cell]:
        for i, o in enumerate(self.outer, start=1):
            for j in range(self.inner_at(i) + 1, o + 1):
                yield (i, j)

    def degree(self) -> int:
        return sum(self.row_lengths())

    def hook_length(self, cell: Cell) -> int:
        """Arm plus leg plus one if the cell itself lies in the diagram.

        The cell must sit inside the outer shape; it may lie in the inner
        (removed) part, in which case only arm and leg count.
        """
        i, j = cell
        if not (1 <= i <= len(self.outer) and 1 <= j <= self.outer[i - 1]):
            raise ValueError(f"cell {cell} outside outer shape {self.outer}")
        arm = self.outer[i - 1] - max(self.inner_at(i), j)
        leg = sum(
            1
            for r in range(i + 1, len(self.outer) + 1)
            if self.inner_at(r) < j <= self.outer[r - 1]
        )
        own = 1 if j > self.inner_at(i) else 0
        return arm + leg + own

    def corners(self, direction: str) -> list[Cell]:
        """Removable or addable corner cells, sorted by increasing row.

        Removable: row-end cells with no cell directly above, with (1, outer_1)
        always included.  Addable: squares (i, outer_i + 1) supported from
        below for i >= 2, (1, outer_1 + 1) when row 1 is nonempty, and always
        (len(outer) + 1, 1) on top.  The empty shape has the single addable
        square (1, 1).
        """
        outer, ell = self.outer, len(self.outer)
        out: list[Cell] = []
        if direction == "removable":
            for i in range(1, ell + 1):
                o = outer[i - 1]
                if o == self.inner_at(i):
                    continue
                if i == 1 or i == ell or outer[i] < o:
                    out.append((i, o))
            return out
        if direction == "addable":
            if ell == 0:
                return [(1, 1)]
            for i in range(1, ell + 1):
                o = outer[i - 1]
                if o == self.inner_at(i):
                    continue
                j = o + 1
                if i == 1 or (self.inner_at(i - 1) < j <= outer[i - 2]):
                    out.append((i, j))
            out.append((ell + 1, 1))
            return out
        raise ValueError(f"direction must be 'removable' or 'addable': {direction!r}")

    def to_json_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner)}


def skew_shape(outer: Sequence[int], inner: Sequence[int] = ()) -> SkewShape:
    """Validated skew shape; inner must fit inside outer."""
    o, i = partition(outer), partition(inner)
    if not contains(i, o):
        raise ValueError(f"inner {i} not contained in outer {o}")
    return SkewShape(o, i)


@lru_cache(maxsize=None)
def k_skew(p: Parts, k: int) -> SkewShape:
    """The k-skew diagram of a k-bounded partition.

    Rows are added bottommost-first for the parts taken smallest-to-largest;
    each new bottom row of length part goes as far left as the hook bound k
    and skewness allow.  The hook of the new row's leftmost cell is the part
    length plus the number of cells above it in its column, so scanning start
    columns rightward until that is at most k places the row.
    """
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    if not is_k_bounded(p, k):
        raise ValueError(f"partition {p} is not {k}-bounded")
    spans: list[tuple[int, int]] = []
    for length in reversed(p):
        start = spans[0][0] if spans else 0
        while True:
            col = start + 1
            leg = sum(1 for s, e in spans if s < col <= e)
            if length + leg <= k:
                break
            start += 1
        spans.insert(0, (start, start + length))
    outer = tuple(e for _, e in spans)
    inner = tuple(s for s, _ in spans)
    while inner and inner[-1] == 0:
        inner = inner[:-1]
    return SkewShape(outer, inner)


@lru_cache(maxsize=None)
def k_conjugate(p: Parts, k: int) -> Parts:
    """Column lengths of the k-skew diagram, sorted decreasing."""
    return tuple(sorted(k_skew(p, k).column_heights(), reverse=True))


def to_core(p: Parts, k: int) -> Parts:
    """Outer shape of the k-skew diagram, a (k+1)-core."""
    return k_skew(p, k).outer


@dataclass(frozen=True)
class KRectangle:
    """Rectangle (width^(k-width+1)) whose corner hook is exactly k."""

    width: int
    k: int

    def __post_init__(self):
        if not 1 <= self.width <= self.k:
            raise ValueError(f"width must be in 1..k: width={self.width} k={self.k}")

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
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k: m={m} k={k}")
    if n < 0:
        raise ValueError(f"n must be non-negative: {n}")
    w = k - m + 1
    b = n % w
    a = m * (n // w)
    tail = (b,) * m if b else ()
    return (w,) * a + tail
