"""The principal ideals below rectangles: membership, duality, meet and join.

Membership below the m x n rectangle in the k-Young order has a box
characterization: fit inside the rectangle with at most k - m + 1 parts
strictly smaller than m.  Within such an ideal the order is plain
containment, so the lattice operations are componentwise, and IdealLayout
holds the Hasse diagram as the one-box covers between members: `kyoung
ideal` exports it, and structure-subposet holds its members and edges to
lattice.build_ideal's vertices and k-covers.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain

from .lattice import ideal_name
from .partitions import Parts, _echo, partitions_in_box, require_rectangle
from .qpoly import QPoly


class IdealSpec(namedtuple("IdealSpec", "m n k")):
    """The tuple (m, n, k) of the rectangle (m^n) at level k, which require_rectangle admits."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, k: int):
        require_rectangle(m, k, n)
        return super().__new__(cls, m, n, k)

    @classmethod
    def _make(cls, values):  # _replace makes its copy here
        return cls(*values)

    @property
    def rectangle(self) -> Parts:
        return (self.m,) * self.n

    @property
    def top_rank(self) -> int:
        return self.m * self.n


def short_rows(p: Parts, m: int) -> int:
    """Number of positive parts strictly smaller than m."""
    return sum(1 for v in p if 0 < v < m)


def is_member(p: Parts, spec: IdealSpec) -> bool:
    """A partition inside the rectangle whose parts other than m, its short
    rows, number at most k - m + 1.  A tuple with a zero or an increase is
    not a partition, so it is no member."""
    if not p:
        return True
    m = spec.m
    return (
        len(p) <= spec.n
        and p[0] <= m
        and p[-1] > 0
        and all(map(operator.ge, p, p[1:]))
        and len(p) - p.count(m) <= spec.k - m + 1
    )


def _ranks(spec: IdealSpec) -> tuple[list[Parts], list[list[tuple[int, int]]]]:
    """The box of the members with no row equal to m, the partitions in the
    (m - 1) x min(n, k - m + 1) box, by size, then lexicographically; and
    the members (m^j) over box[t] as pairs (j, t), degree by degree.

    Of two members of one degree, the one with more rows equal to m is the
    lexicographically greater, so degree d lists j ascending, then the box
    partitions of size d - mj with at most n - j parts in their order.
    """
    m, n = spec.m, spec.n
    box = sorted(partitions_in_box(m - 1, min(n, spec.k - m + 1)), key=sum)  # stable: lex
    top = sum(box[-1])  # the largest size in the box
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for t, b in enumerate(box):
        by_size[sum(b)].append(t)
    return box, [
        [
            (j, t)
            for j in range(max(0, -((top - d) // m)), min(n, d // m) + 1)  # d - mj <= top
            for t in by_size[d - m * j]
            if len(box[t]) <= n - j
        ]
        for d in range(m * n + 1)
    ]


def _members(m: int, box: list[Parts], ranks: list[list[tuple[int, int]]]) -> list[Parts]:
    """The members (m^j) over box[t] of ranks as tuples, in position order."""
    return [(m,) * j + box[t] for rank in ranks for j, t in rank]


def enumerate_ideal(spec: IdealSpec) -> list[Parts]:
    """All members, ordered by degree then lexicographically.  Each is (m^j)
    over a partition in the (m - 1) x min(n - j, k - m + 1) box, j = 0 .. n."""
    return _members(spec.m, *_ranks(spec))


class IdealLayout:
    """The ideal's Hasse diagram as tables: the members as (j, t) pairs,
    (m^j) over box[t], rank by rank as _ranks lists them, the one-box steps
    of each box partition, and the position of each member.  It writes
    through lattice.write_json and lattice.write_dot as a HasseDiagram does,
    rank by rank, and holds no vertex tuple and no edge list.

    The order is containment, so (m^j) over a box partition b is covered by
    the members with one box more: b with a box at the first row of each
    distinct part, or with a new row of 1.  The step stays in the box, becomes
    (m^(j + 1)) over the rest when the first row reaches m, or leaves the
    box by one row too many.  The steps of each box partition are found
    once and lifted to every j as positions; a step to no position leaves
    the rectangle.
    """

    def __init__(self, spec: IdealSpec):
        m = spec.m
        self.k, self.name, self.m = spec.k, ideal_name(spec.rectangle), m
        self.box, self.ranks = box, ranks = _ranks(spec)
        index = {b: t for t, b in enumerate(box)}
        # steps[t]: (dj, s), the step of box[t] to (m^(j + dj)) over box[s].
        # A new row of 1 is lexicographically least, and a box on a higher row
        # gives a greater partition, so the steps come in (dj, s) order: only
        # the top row can reach m, and at m = 1 the box holds () alone.
        self.steps = steps = []
        for b in box:
            rows = [i for i in range(len(b) - 1, -1, -1) if i == 0 or b[i - 1] > b[i]]
            raised = [b + (1,)] + [b[:i] + (b[i] + 1,) + b[i + 1:] for i in rows]
            lifted = [(1, index[c[1:]]) if c[0] == m else (0, index.get(c)) for c in raised]
            steps.append([step for step in lifted if step[1] is not None])
        self.position = position = [[-1] * len(box) for _ in range(spec.n + 2)]  # no j > n
        for i, (j, t) in enumerate(chain.from_iterable(ranks)):
            position[j][t] = i

    def rank_texts(self, opening: str, sep: str, closing: str) -> Iterator[list[str]]:
        """Rank by rank, the text of each member as HasseDiagram.rank_texts
        writes it: the text of (m^j), built once per j in the rank, joined
        with that of box[t], built once per box partition."""
        m = str(self.m)
        # box[0] is (); alone[t] is box[t] with no row m, tails[t] follows a head
        alone = ["[]"] + [opening + sep.join(map(str, b)) + closing for b in self.box[1:]]
        tails = [closing] + [sep + text[len(opening):] for text in alone[1:]]
        for rank in self.ranks:
            heads = {j: opening + sep.join([m] * j) for j in {j for j, _ in rank} if j}
            yield [heads[j] + tails[t] if j else alone[t] for j, t in rank]

    def edge_chunks(self) -> Iterator[list[tuple[int, int]]]:
        """The edges up from each rank as (position, position) pairs, lower
        end first.  Members and steps are both in position order, so the
        edges come sorted."""
        position, steps = self.position, self.steps
        start = 0
        for rank in self.ranks:
            yield [
                (i, u)
                for i, (j, t) in enumerate(rank, start)
                for dj, s in steps[t]
                if (u := position[j + dj][s]) >= 0
            ]
            start += len(rank)


def gamma_set(spec: IdealSpec) -> list[Parts]:
    """Members with exactly w = k - m + 1 short rows, the new stratum at level
    k: (m^j) over w rows of 1 topped by a partition in the (m - 2) x w box,
    for j = 0 .. n - w, so none for n < w."""
    m, w = spec.m, spec.k - spec.m + 1
    if spec.k <= m:
        raise ValueError(f"gamma set needs k > m: m={_echo(m)} k={_echo(spec.k)}")
    if m == 1:  # no part lies strictly between 0 and 1
        return []
    gamma = (
        (m,) * j + tuple(v + 1 for v in rest) + (1,) * (w - len(rest))
        for j in range(spec.n - w + 1)
        for rest in partitions_in_box(m - 2, w)
    )
    return sorted(gamma, key=lambda p: (sum(p), p))


def _require_member(p: Parts, spec: IdealSpec) -> None:
    if not is_member(p, spec):
        m, n, k = map(_echo, spec)
        raise ValueError(f"{_echo(p)} is not a member of L^{k}({m},{n})")


def complement_dual_parts(p: Parts, spec: IdealSpec) -> Parts:
    """Rotate the complement in the rectangle: row i maps to m - p_(n+1-i),
    with no check that p is a member."""
    m = spec.m
    return (m,) * (spec.n - len(p)) + tuple(m - v for v in reversed(p) if v < m)


def complement_dual(p: Parts, spec: IdealSpec) -> Parts:
    """complement_dual_parts of a member."""
    _require_member(p, spec)
    return complement_dual_parts(p, spec)


def meet_parts(a: Parts, b: Parts) -> Parts:
    """Componentwise minimum, with no check that a and b are members."""
    return tuple(map(min, a, b))


def join_parts(a: Parts, b: Parts) -> Parts:
    """Componentwise maximum, with no check that a and b are members; the
    longer argument's tail is kept as it is."""
    return (*map(max, a, b), *a[len(b):], *b[len(a):])


def meet(a: Parts, b: Parts, spec: IdealSpec) -> Parts:
    """meet_parts of two members."""
    _require_member(a, spec)
    _require_member(b, spec)
    return meet_parts(a, b)


def join(a: Parts, b: Parts, spec: IdealSpec) -> Parts:
    """join_parts of two members."""
    _require_member(a, spec)
    _require_member(b, spec)
    return join_parts(a, b)


def rank_vector(members: Iterable[Parts], top_rank: int) -> QPoly:
    """Tally degrees: coefficient i counts the members of degree i.  Any
    member beyond top_rank is an error."""
    counts = [0] * (top_rank + 1)
    for p in members:
        d = sum(p)
        if d > top_rank:
            raise ValueError(f"degree {_echo(d)} exceeds top rank {_echo(top_rank)}")
        counts[d] += 1
    return QPoly(counts)
