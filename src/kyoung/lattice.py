"""Covering relations, order tests, and Hasse diagrams of the k-Young lattice.

The order on k-bounded partitions is generated by covers: lam is covered by
mu when mu has one more box and both mu and its k-conjugate contain lam and
its k-conjugate.  Covers are computed from corner residues of the k-skew
diagram, whose rule _corner_covers states and _covers memoises; the
definitional test lives in covers_oracle.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain

from .partitions import (
    Parts,
    SkewShape,
    _echo,
    contains,
    k_conjugate,
    k_skew,
    require_k_bounded,
    union,
    KRectangle,
)


def _add_box(p: Parts, row: int) -> Parts:
    if row == len(p) + 1:
        return p + (1,)
    return p[: row - 1] + (p[row - 1] + 1,) + p[row:]


def _remove_box(p: Parts, row: int) -> Parts:
    if row == len(p) and p[row - 1] == 1:
        return p[:-1]
    return p[: row - 1] + (p[row - 1] - 1,) + p[row:]


def _corner_covers(p: Parts, shape: SkewShape, k: int, direction: str) -> tuple[Parts, ...]:
    """Covers of p, read off shape, its k-skew diagram: add (up) or remove
    (down) a box at the topmost addable or removable corner of each residue
    of the diagram, and keep the results that are k-bounded partitions.

    Row r of the k-skew diagram spans columns inner_r+1 .. outer_r and is
    never empty.  Its addable corner is (r, outer_r + 1) when r = 1 or when
    inner_(r-1) <= outer_r < outer_(r-1), the square then resting on row
    r-1 and free of it; (len(p) + 1, 1) on top is always addable.  Its
    removable corner is (r, outer_r) when r = 1, r = len(p) or
    outer_(r+1) < outer_r.  One pass by increasing row keeps the last, so
    topmost, row of each residue (col - row) mod (k+1).  One step changes
    one part of p, so the result is a k-bounded partition exactly when that
    part stays within its neighbours: a box goes on row r when row r-1 is
    longer (at r = 1, when p_1 < k), and comes off row r when r is the last
    row or row r+1 is shorter.
    """
    outer, ell, mod = shape.outer, len(p), k + 1
    top: dict[int, int] = {}  # residue -> topmost row of a corner
    if direction == "up":
        inner = shape.inner + (0,) * (ell - len(shape.inner))
        if p:
            top[outer[0] % mod] = 1
        for r in range(2, ell + 1):
            o = outer[r - 1]
            if inner[r - 2] <= o < outer[r - 2]:
                top[(o + 1 - r) % mod] = r
        top[-ell % mod] = ell + 1
        q = p + (0,)
        out = [
            _add_box(p, r) for r in top.values() if (q[r - 2] > q[r - 1] if r > 1 else q[0] < k)
        ]
    else:
        for r in range(1, ell + 1):
            o = outer[r - 1]
            if r == 1 or r == ell or outer[r] < o:
                top[(o - r) % mod] = r
        out = [_remove_box(p, r) for r in top.values() if r == ell or p[r] < p[r - 1]]
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _covers(p: Parts, k: int, direction: str) -> tuple[Parts, ...]:
    """Covers of p by the corner rule on its k-skew diagram."""
    return _corner_covers(p, k_skew(p, k), k, direction)


def _require_direction(direction: str) -> None:
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down': {_echo(direction)}")


def covers(p: Parts, k: int, direction: str = "up") -> list[Parts]:
    """Partitions covering p (up) or covered by p (down) in the k-Young order."""
    require_k_bounded(k, p)
    _require_direction(direction)
    return list(_covers(p, k, direction))


def covers_oracle(p: Parts, k: int, direction: str = "up") -> list[Parts]:
    """Definitional covers: one-box steps with containment of both k-conjugates."""
    require_k_bounded(k, p)
    _require_direction(direction)
    pk = k_conjugate(p, k)
    q = p + (0,)
    out = []
    if direction == "up":
        for r in range(1, len(p) + 2):
            if r > 1 and q[r - 2] <= q[r - 1]:
                continue
            cand = _add_box(p, r)
            if cand[0] > k:
                continue
            if contains(pk, k_conjugate(cand, k)):
                out.append(cand)
    else:
        for r in range(1, len(p) + 1):
            if q[r - 1] <= q[r]:
                continue
            cand = _remove_box(p, r)
            if contains(k_conjugate(cand, k), pk):
                out.append(cand)
    return sorted(out)


def leq(a: Parts, b: Parts, k: int) -> bool:
    """Whether a precedes b in the k-Young order.

    Breadth-first search upward through covers from a, pruning any partition
    whose parts or k-conjugate parts leave b's; containment both ways is
    necessary for comparability, so no witness chain is lost.
    """
    require_k_bounded(k, a, b)
    if a == b:
        return True
    if sum(a) >= sum(b) or not contains(a, b):
        return False
    bk = k_conjugate(b, k)
    if not contains(k_conjugate(a, k), bk):
        return False
    frontier = {a}
    for _ in range(sum(a), sum(b)):
        nxt = set()
        for v in frontier:
            for u in _covers(v, k, "up"):
                if contains(u, b) and contains(k_conjugate(u, k), bk):
                    nxt.add(u)
        if not nxt:
            return False
        frontier = nxt
    return b in frontier


class HasseDiagram:
    """Graded cover graph.  ranks[d] lists the degree-d vertices in lex order,
    and edges holds each cover once as a (position, position) pair along
    vertices(), lower end first, the pairs sorted."""

    def __init__(self, k: int, name: str, ranks: list[list[Parts]], edges: list | None = None):
        self.k, self.name, self.ranks = k, name, ranks
        self.edges: list[tuple[int, int]] = [] if edges is None else edges

    def vertices(self) -> list[Parts]:
        return [v for rank in self.ranks for v in rank]

    def vertex_count(self) -> int:
        return sum(len(rank) for rank in self.ranks)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "name": self.name,
            "ranks": self.ranks,
            "edges": self.edges,
        }

    def rank_texts(self, opening: str, sep: str, closing: str) -> Iterator[list[str]]:
        """Rank by rank, the text of each vertex: its parts joined by sep
        between opening and closing, and "[]" for the empty partition."""
        for rank in self.ranks:
            yield [opening + sep.join(map(str, v)) + closing if v else "[]" for v in rank]

    def edge_chunks(self) -> Iterator[list[tuple[int, int]]]:
        """The edges, all in one chunk."""
        yield self.edges

    def to_dot(self) -> str:
        pieces: list[str] = []
        write_dot(pieces.append, self)
        return "".join(pieces)


# The writers read a diagram through k, name, rank_texts and edge_chunks
# alone, so that HasseDiagram and ideals.IdealLayout, which holds no vertex
# and no edge list, share them.  A vertex's text holds only digits, commas,
# brackets and whitespace, so it is safe inside a %-format template.

def write_json(write: Callable[[str], object], diagram) -> None:
    """Write through write, rank by rank and then chunk by chunk, what
    json.dumps(diagram.to_json_dict(), indent=2) writes, and a newline."""
    k, name = json.dumps(diagram.k), json.dumps(diagram.name)
    write(f'{{\n  "k": {k},\n  "name": {name},\n  "ranks": [')
    opening = "\n    "
    for texts in diagram.rank_texts("[\n        ", ",\n        ", "\n      ]"):
        if texts:
            write(opening + "[\n      ")
            write(",\n      ".join(texts))
            write("\n    ]")
        else:
            write(opening + "[]")
        opening = ",\n    "
    write('],\n  "edges": [' if opening == "\n    " else '\n  ],\n  "edges": [')
    opening = "\n    "
    for chunk in diagram.edge_chunks():
        if chunk:
            write(opening)
            text = ",\n    ".join(["[\n      %d,\n      %d\n    ]"] * len(chunk))
            write(text % tuple(chain.from_iterable(chunk)))
            opening = ",\n    "
    write("]\n}\n" if opening == "\n    " else "\n  ]\n}\n")


def write_dot(write: Callable[[str], object], diagram) -> None:
    """Write the DOT text of diagram through write: a line of the vertices
    of each rank that has any, then the edges, chunk by chunk."""
    write("digraph kyoung {\n  rankdir=BT;\n  node [shape=box];\n")
    start = 0  # the position of the rank's first vertex
    for texts in diagram.rank_texts("[", ",", "]"):
        if texts:
            row = '"]; v%d [label="'.join(texts)
            write(f'  {{ rank=same; v%d [label="{row}"]; }}\n' % tuple(range(start, start + len(texts))))
            start += len(texts)
    for chunk in diagram.edge_chunks():
        write("  v%d -> v%d;\n" * len(chunk) % tuple(chain.from_iterable(chunk)))
    write("}\n")


def ideal_name(generator: Parts) -> str:
    """The name of the diagram of the ideal below generator."""
    return "ideal [" + ",".join(map(str, generator)) + "]"


def build_ideal(generator: Parts, k: int) -> HasseDiagram:
    """Hasse diagram of the principal order ideal below generator."""
    require_k_bounded(k, generator)
    top = sum(generator)
    levels: list[list[Parts]] = [[] for _ in range(top + 1)]
    levels[top] = [generator]
    covered: list[tuple[Parts, Parts]] = []
    for d in range(top, 0, -1):
        children = set()
        for v in levels[d]:
            for c in _covers(v, k, "down"):
                children.add(c)
                covered.append((c, v))
        levels[d - 1] = sorted(children)
    position = {v: i for i, v in enumerate(v for level in levels for v in level)}
    return HasseDiagram(
        k=k,
        name=ideal_name(generator),
        ranks=levels,
        edges=sorted((position[c], position[v]) for c, v in covered),
    )


def check_rectangle_translation(
    lam: Parts, rect: KRectangle, k: int
) -> tuple[tuple[Parts, ...], tuple[Parts, ...]]:
    """Covers above lam-union-rectangle and translated covers above lam, both
    sorted: the translation holds when the two are equal."""
    if rect.k != k:
        raise ValueError(f"rectangle {_echo(rect)} is not a {_echo(k)}-rectangle")
    require_k_bounded(k, lam)
    box = rect.parts
    return _covers(union(lam, box), k, "up"), _translated(_covers(lam, k, "up"), box)


def _translated(ups: Iterable[Parts], box: Parts) -> tuple[Parts, ...]:
    """The partitions ups, each joined with box, sorted: the side of the
    rectangle translation built from the covers above lam."""
    return tuple(sorted(union(mu, box) for mu in ups))
