"""Partition core: conjugation, skew diagrams, hooks, corners, rectangles."""

import itertools
import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from kyoung import ideals, lattice, qpoly, partitions as pc
from kyoung.partitions import (
    KRectangle,
    SkewShape,
    all_k_rectangles,
    conjugate,
    contains,
    k_bounded_partitions,
    k_conjugate,
    k_skew,
    partition,
    partitions_in_box,
    partitions_of,
    rectangle_k_conjugate,
    residue,
    skew_shape,
    union,
)

def recursive_partitions_of(n, max_part=None):
    """Oracle: the recursive enumeration, first part from largest down."""
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    if n < 0 or bound <= 0:
        return
    for first in range(bound, 0, -1):
        for rest in recursive_partitions_of(n - first, first):
            yield (first,) + rest


def recursive_partitions_in_box(width, height):
    """Oracle: the recursive enumeration, a prefix before its extensions."""
    yield ()
    if height == 0 or width == 0:
        return
    for first in range(1, width + 1):
        for rest in recursive_partitions_in_box(first, height - 1):
            yield (first,) + rest


small_partitions = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
small_k = st.integers(1, 6)


def bounded(draw_k):
    """Pair a k with a k-bounded partition."""
    return draw_k.flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(1, k), max_size=7).map(
                lambda xs: tuple(sorted(xs, reverse=True))
            ),
        )
    )


class TestBasics:
    def test_partition_canonicalizes(self):
        assert partition([3, 2, 0, 0]) == (3, 2)
        assert partition([]) == ()

    def test_partition_rejects_increasing(self):
        with pytest.raises(ValueError):
            partition([1, 2])

    def test_partition_rejects_negative(self):
        with pytest.raises(ValueError):
            partition([3, -1])

    def test_partition_rejects_non_integers(self):
        # int() would truncate 1.7 to 1 and accept (1, 1)
        with pytest.raises(TypeError):
            partition([1.7, 1])

    def test_partition_matches_the_zero_stripping_loop(self):
        """Every sequence over -1..2 of length at most 6 gives the value or
        the message that stripping one trailing zero at a time gives."""

        def stripped(parts):
            out = tuple(parts)
            while out and out[-1] == 0:
                out = out[:-1]
            if any(p <= 0 for p in out):
                return f"parts must be positive: {parts!r}"
            if any(a < b for a, b in zip(out, out[1:])):
                return f"parts must be weakly decreasing: {parts!r}"
            return out

        for size in range(7):
            for parts in itertools.product(range(-1, 3), repeat=size):
                try:
                    got = partition(list(parts))
                except ValueError as exc:
                    got = str(exc)
                assert got == stripped(list(parts)), parts

    def test_partition_drops_many_trailing_zeros_at_once(self):
        """(1, 0^200000): one slice, not one copy per zero.  Run in a child
        with a deadline; the list is built there, as a command line this
        long would pass the limit on one argument."""
        code = (
            "from kyoung.partitions import partition\n"
            "assert partition([1] + [0] * 200000) == (1,)\n"
            "assert partition([0] * 200000) == ()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert proc.returncode == 0, proc.stderr

    def test_conjugate(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(()) == ()

    @given(small_partitions)
    def test_conjugate_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(small_partitions)
    def test_conjugate_degree(self, p):
        assert sum(conjugate(p)) == sum(p)

    def test_conjugate_matches_counting_definition(self):
        """Part j of the conjugate counts the parts of value at least j."""

        def counted(p):
            return tuple(sum(1 for v in p if v >= j) for j in range(1, (p[0] if p else 0) + 1))

        for n in range(17):
            for p in partitions_of(n):
                assert conjugate(p) == counted(p), p
        for n in (1, 2, 7, 40, 300):
            assert conjugate((n,) * n) == counted((n,) * n) == (n,) * n, n

    def test_column_height_is_conjugate_part(self):
        for p in partitions_in_box(6, 6):
            for j in range(1, 9):
                assert pc._column_height(p, j) == pc.part_at(conjugate(p), j), (p, j)

    def test_contains(self):
        assert contains((2, 1), (3, 2, 1))
        assert not contains((3, 2, 1), (2, 1))
        assert contains((), (1,))
        assert not contains((1, 1), (2,))

    def test_union_and_sum(self):
        assert union((3, 1), (2, 2)) == (3, 2, 2, 1)

    def test_residue(self):
        assert residue((1, 5), 5) == 4
        assert residue((3, 2), 5) == 4
        assert residue((1, 1), 3) == 0

    def test_residue_bad_modulus(self):
        with pytest.raises(ValueError):
            residue((1, 1), 0)

    def test_partitions_of(self):
        assert sorted(partitions_of(4, 2)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2)]
        assert list(partitions_of(0)) == [()]

    def test_partitions_in_box_count(self):
        # choose which of m+n steps go right: C(m+n, m) lattice paths
        from math import comb

        for m in range(4):
            for n in range(4):
                assert len(list(partitions_in_box(m, n))) == comb(m + n, m)

    def test_enumerators_match_recursive_oracle(self):
        for n in range(16):
            for max_part in (None, *range(n + 2)):
                assert list(partitions_of(n, max_part)) == list(
                    recursive_partitions_of(n, max_part)
                ), (n, max_part)
        for width in range(6):
            for height in range(6):
                assert list(partitions_in_box(width, height)) == list(
                    recursive_partitions_in_box(width, height)
                ), (width, height)

    def test_enumerators_do_not_recurse_per_part(self):
        assert len(list(k_bounded_partitions(1, 1200))) == 1201
        assert len(list(partitions_in_box(1, 1200))) == 1201


def inner_at_corners(s, direction):
    """Oracle: the removable or addable corner cells, by increasing row, read
    row by row through inner_at, which gives zero above the inner shape's
    last row.  Removable: row-end cells with no cell directly above, and
    (1, outer_1) always.  Addable: squares (i, outer_i + 1) supported from
    below for i >= 2, (1, outer_1 + 1) when row 1 is nonempty, and always
    (len(outer) + 1, 1) on top; the empty shape has the single addable
    square (1, 1)."""
    outer, ell = s.outer, len(s.outer)
    out = []
    if direction == "removable":
        for i in range(1, ell + 1):
            o = outer[i - 1]
            if o != s.inner_at(i) and (i == 1 or i == ell or outer[i] < o):
                out.append((i, o))
        return out
    if ell == 0:
        return [(1, 1)]
    for i in range(1, ell + 1):
        o = outer[i - 1]
        j = o + 1
        if o != s.inner_at(i) and (i == 1 or s.inner_at(i - 1) < j <= outer[i - 2]):
            out.append((i, j))
    out.append((ell + 1, 1))
    return out


def box_skew_shapes(width, height):
    """Every skew shape whose outer shape fits the width x height box."""
    for outer in partitions_in_box(width, height):
        for inner in partitions_in_box(outer[0] if outer else 0, len(outer)):
            if contains(inner, outer):
                yield SkewShape(outer, inner)


class TestSkewShape:
    def test_factory_validates(self):
        with pytest.raises(ValueError):
            skew_shape((2, 1), (3,))

    def test_cells_and_rows(self):
        s = skew_shape((3, 2), (1,))
        assert list(s.cells()) == [(1, 2), (1, 3), (2, 1), (2, 2)]
        assert s.row_lengths() == (2, 2)
        assert sum(s.row_lengths()) == 4

    def test_column_heights(self):
        s = skew_shape((5, 5, 4, 1), (4, 2))
        assert s.column_heights() == (2, 1, 2, 2, 2)
        assert sum(s.column_heights()) == sum(s.row_lengths())

    @staticmethod
    def per_column_heights(s):
        """Oracle: each column's height, one column at a time."""
        columns = range(1, (s.outer[0] if s.outer else 0) + 1)
        return tuple(pc._column_height(s.outer, c) - pc._column_height(s.inner, c) for c in columns)

    def test_column_heights_match_per_column_oracle(self):
        hand_built = [
            skew_shape(()),
            skew_shape((1,)),
            skew_shape((3, 3, 3), (3, 3)),
            skew_shape((4, 4), (4,)),
            skew_shape((6, 2, 2, 1), (5, 1)),
            skew_shape((5, 5, 4, 1), (4, 2)),
            skew_shape((7, 7, 7, 7), (7, 6, 1)),
        ]
        for s in hand_built + list(box_skew_shapes(5, 5)):
            assert s.column_heights() == self.per_column_heights(s), s
        for k in range(1, 9):
            for p in k_bounded_partitions(k, 12):
                s = k_skew(p, k)
                assert s.column_heights() == self.per_column_heights(s), (p, k)

    def test_hook_lengths_worked_example(self):
        s = skew_shape((5, 5, 4, 1), (4, 2))
        assert s.hook_length((1, 3)) == 3
        assert s.hook_length((3, 2)) == 3

    def test_hook_inside_straight_shape(self):
        s = skew_shape((4, 3, 1))
        # arm 3 + leg 2 + 1
        assert s.hook_length((1, 1)) == 6
        assert s.hook_length((1, 4)) == 1

    def test_hook_outside_raises(self):
        s = skew_shape((3, 2))
        with pytest.raises(ValueError):
            s.hook_length((1, 4))
        with pytest.raises(ValueError):
            s.hook_length((3, 1))

    def test_removable_corners_with_forced_first_row(self):
        assert inner_at_corners(skew_shape((2, 2)), "removable") == [(1, 2), (2, 2)]

    def test_removable_corners_staircase(self):
        assert inner_at_corners(skew_shape((3, 2, 1)), "removable") == [(1, 3), (2, 2), (3, 1)]

    def test_addable_corners_empty_shape(self):
        assert inner_at_corners(SkewShape((), ()), "addable") == [(1, 1)]
        assert inner_at_corners(SkewShape((), ()), "removable") == []

    def test_addable_corners_straight(self):
        assert inner_at_corners(skew_shape((2, 2)), "addable") == [(1, 3), (3, 1)]
        assert inner_at_corners(skew_shape((3, 1)), "addable") == [(1, 4), (2, 2), (3, 1)]

    def test_corners_figure_example(self):
        s = skew_shape((6, 2, 1, 1), (2,))
        addable = inner_at_corners(s, "addable")
        assert addable == [(1, 7), (2, 3), (3, 2), (5, 1)]
        assert [residue(c, 5) for c in addable] == [1, 1, 4, 1]
        removable = inner_at_corners(s, "removable")
        assert removable == [(1, 6), (2, 2), (4, 1)]


def _skew_is_valid(p, k):
    """Directly scan the defining conditions of the k-skew diagram."""
    s = k_skew(p, k)
    if s.row_lengths() != p:
        return False
    if any(s.hook_length(c) > k for c in s.cells()):
        return False
    for i in range(1, len(s.outer) + 1):
        for j in range(1, s.inner_at(i) + 1):
            below_diagram = any(
                s.inner_at(r) < j <= s.outer[r - 1] for r in range(i + 1, len(s.outer) + 1)
            )
            if below_diagram and s.hook_length((i, j)) <= k:
                return False
    return True


def scanned_k_skew(p, k):
    """Oracle: place each row by scanning start columns rightward from the
    row above's start until the hook of its leftmost cell, the row length
    plus the placed rows covering that column, is at most k."""
    starts, ends = [], []
    for length in reversed(p):
        start = starts[-1] if starts else 0
        while length + bisect_left(starts, start + 1) - bisect_left(ends, start + 1) > k:
            start += 1
        starts.append(start)
        ends.append(start + length)
    inner = tuple(reversed(starts))
    while inner and inner[-1] == 0:
        inner = inner[:-1]
    return SkewShape(tuple(reversed(ends)), inner)


class TestKSkew:
    def test_golden_example(self):
        s = k_skew((4, 3, 2, 2, 1, 1), 4)
        assert s.outer == (9, 5, 3, 2, 1, 1)
        assert s.inner == (5, 2, 1)

    def test_small_hook_is_straight(self):
        # whole shape fits under the hook bound, so nothing shifts
        assert k_skew((2, 1), 3) == SkewShape((2, 1), ())

    def test_empty(self):
        assert k_skew((), 3) == SkewShape((), ())

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            k_skew((4, 1), 3)

    def test_long_column_is_linear(self):
        """(1^200000) at k = 200000: one column, every row starting at 0.
        Run in a child with a deadline; the partition is built there, as a
        command line this long would pass the limit on one argument."""
        code = (
            "from kyoung.partitions import k_conjugate, k_skew\n"
            "p = (1,) * 200000\n"
            "s = k_skew(p, 200000)\n"
            "assert s.outer == p and s.inner == (), s.inner[:5]\n"
            "assert k_conjugate(p, 200000) == (200000,)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert proc.returncode == 0, proc.stderr

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_skew((1,), 0)

    def test_rectangle_block_diagonal(self):
        s = k_skew((3,) * 7, 4)
        assert s.outer == (12, 9, 9, 6, 6, 3, 3)
        assert s.inner == (9, 6, 6, 3, 3)

    def test_matches_column_scan(self):
        for k in range(1, 9):
            for p in k_bounded_partitions(k, 18):
                assert k_skew(p, k) == scanned_k_skew(p, k), (p, k)

    def test_defining_conditions_sweep(self):
        for k in range(1, 6):
            for p in k_bounded_partitions(k, 9):
                assert _skew_is_valid(p, k), (p, k)

    def test_core_has_no_small_hooks_at_modulus(self):
        # outer shape admits no hook equal to k+1 anywhere
        for k in range(1, 5):
            for p in k_bounded_partitions(k, 8):
                core = k_skew(p, k).outer
                s = skew_shape(core)
                assert all(s.hook_length(c) != k + 1 for c in s.cells()), (p, k)


class TestKConjugate:
    def test_golden_example(self):
        assert k_conjugate((4, 3, 2, 2, 1, 1), 4) == (3, 2, 2, 1, 1, 1, 1, 1, 1)

    def test_rectangle(self):
        assert k_conjugate((3,) * 7, 4) == (2,) * 9 + (1,) * 3

    def test_empty(self):
        assert k_conjugate((), 5) == ()

    def test_matches_conjugate_for_small_hook(self):
        # main hook within bound: k-conjugation degenerates to conjugation
        for k in range(1, 7):
            for p in k_bounded_partitions(k, 10):
                if not p or p[0] + len(p) - 1 <= k:
                    assert k_conjugate(p, k) == conjugate(p), (p, k)

    def test_involution_sweep(self):
        for k in range(1, 6):
            for p in k_bounded_partitions(k, 9):
                kc = k_conjugate(p, k)
                assert sum(kc) == sum(p)
                assert pc.is_k_bounded(kc, k)
                assert k_conjugate(kc, k) == p

    @given(bounded(small_k))
    def test_involution_random(self, pair):
        k, p = pair
        assert k_conjugate(k_conjugate(p, k), k) == p


class TestRectangles:
    def test_krectangle_fields(self):
        r = KRectangle(2, 4)
        assert r.height == 3
        assert r.parts == (2, 2, 2)
        assert r.width + r.height == r.k + 1

    def test_krectangle_validates(self):
        with pytest.raises(ValueError):
            KRectangle(5, 4)
        # a k-rectangle's width and the k-conjugated rectangle's m share one text
        for make in (lambda: KRectangle(0, 3), lambda: rectangle_k_conjugate(0, 1, 3)):
            with pytest.raises(ValueError, match=r"^need 1 <= m <= k: m=0 k=3$"):
                make()

    def test_krectangle_is_a_checked_value(self):
        """A k-rectangle is the tuple (width, k): made by position or by
        keyword, equal and hashed as that tuple, read only, shown with its
        field names, and held to require_rectangle however it is made."""
        r = KRectangle(width=2, k=4)
        assert r == KRectangle(2, 4) == (2, 4) and r != KRectangle(2, 5)
        assert hash(r) == hash(KRectangle(2, 4)) == hash((2, 4))
        assert repr(r) == "KRectangle(width=2, k=4)"
        for field in ("width", "k", "height"):
            with pytest.raises(AttributeError):
                setattr(r, field, 3)
        assert r._replace(k=5).height == 4
        for make in (lambda: r._replace(k=1), lambda: KRectangle._make((2, 1))):
            with pytest.raises(ValueError, match=r"^need 1 <= m <= k: m=2 k=1$"):
                make()

    def test_all_k_rectangles(self):
        assert [r.parts for r in all_k_rectangles(3)] == [(1, 1, 1), (2, 2), (3,)]

    def test_corner_hook_is_exactly_k(self):
        for k in range(1, 8):
            for r in all_k_rectangles(k):
                assert skew_shape(r.parts).hook_length((1, 1)) == k

    def test_rectangle_k_conjugate_closed_form(self):
        assert rectangle_k_conjugate(3, 2, 4) == (2, 2, 2)
        assert rectangle_k_conjugate(3, 7, 4) == (2,) * 9 + (1,) * 3
        assert rectangle_k_conjugate(2, 3, 2) == (1,) * 6
        assert rectangle_k_conjugate(3, 0, 4) == ()

    def test_rectangle_k_conjugate_validates(self):
        with pytest.raises(ValueError):
            rectangle_k_conjugate(5, 2, 4)
        with pytest.raises(ValueError):
            rectangle_k_conjugate(3, -1, 4)

    def test_rectangle_k_conjugate_matches_recursive(self):
        for k in range(1, 7):
            for m in range(1, k + 1):
                for n in range(0, 7):
                    assert rectangle_k_conjugate(m, n, k) == k_conjugate((m,) * n, k)

    def test_union_with_rectangle_identity(self):
        # k-conjugation distributes over union with a k-rectangle
        for k in range(1, 6):
            for rect in all_k_rectangles(k):
                box_conj = k_conjugate(rect.parts, k)
                assert box_conj == conjugate(rect.parts)
                for p in k_bounded_partitions(k, 8):
                    lhs = k_conjugate(union(p, rect.parts), k)
                    assert lhs == union(k_conjugate(p, k), box_conj), (p, rect, k)

    def test_rectangle_plus_small_partition(self):
        # below a k-rectangle, conjugation acts piecewise
        for k in range(1, 6):
            for rect in all_k_rectangles(k):
                w = rect.width
                for mu in partitions_in_box(max(w - 1, 0), k - w):
                    left = rect.parts + mu
                    expected = conjugate(rect.parts) + conjugate(mu)
                    assert k_conjugate(left, k) == expected, (rect, mu, k)


def covers_from_corners(p, k, direction):
    """Oracle: covers by the corner rule read off inner_at_corners: the
    topmost corner of each residue of the k-skew diagram, its row stepped by
    one box, kept when the step is a k-bounded partition."""
    corners = inner_at_corners(k_skew(p, k), "addable" if direction == "up" else "removable")
    rows = {residue(c, k + 1): c[0] for c in corners}.values()
    out = []
    for r in rows:
        parts = [*p, 0]
        parts[r - 1] += 1 if direction == "up" else -1
        try:
            cand = partition(parts)
        except ValueError:
            continue
        if pc.is_k_bounded(cand, k):
            out.append(cand)
    return tuple(sorted(out))


class TestCornerResidues:
    @staticmethod
    def check_covers(cases):
        for p, k in cases:
            for direction in ("up", "down"):
                expected = covers_from_corners(p, k, direction)
                assert lattice._covers(p, k, direction) == expected, (p, k, direction)

    def test_covers_step_at_the_topmost_corner_of_each_residue(self):
        # the k-skew of every k-bounded partition, as the covering family reads
        self.check_covers((p, k) for k in range(1, 9) for p in k_bounded_partitions(k, 12))

    def test_covers_of_a_union_with_a_k_rectangle_step_at_the_topmost_corners(self):
        # the k-skew of p with a k-rectangle's rows, as the rectangle families read
        self.check_covers(
            (union(p, rect.parts), k)
            for k in range(1, 8)
            for rect in all_k_rectangles(k)
            for p in k_bounded_partitions(k, 10)
        )

    def test_distinct_residues_inside_rectangle(self):
        # removable corners below a k-rectangle never share a residue
        for k in range(1, 7):
            for m in range(1, k + 1):
                for p in partitions_in_box(m, k - m + 1):
                    corners = inner_at_corners(skew_shape(p), "removable")
                    residues = [residue(c, k + 1) for c in corners]
                    assert len(set(residues)) == len(residues), (p, k)

    def test_equal_residue_rows_at_rectangle_block(self):
        # exactly k-w+1 parts equal to w: addable corners repeat the residue
        # one row above the block and at its lowest row
        for k in range(2, 6):
            for p in k_bounded_partitions(k, 9):
                for w in set(p):
                    block = [i for i, v in enumerate(p, start=1) if v == w]
                    if len(block) != k - w + 1:
                        continue
                    r = block[0]
                    corners = inner_at_corners(k_skew(p, k), "addable")
                    by_row = {row: residue((row, col), k + 1) for row, col in corners}
                    assert r in by_row and r + k - w + 1 in by_row, (p, k, w)
                    assert by_row[r] == by_row[r + k - w + 1], (p, k, w)


HUGE_PARTS = (1,) * 10**5
HUGE_INT = 10**4000


@pytest.mark.parametrize(
    "raise_it",
    [
        lambda: ideals.meet(HUGE_PARTS, (), ideals.IdealSpec(2, 3, 3)),
        lambda: ideals.complement_dual(HUGE_PARTS, ideals.IdealSpec(2, 3, 3)),
        lambda: ideals.gamma_set(ideals.IdealSpec(HUGE_INT, 1, HUGE_INT)),
        lambda: ideals.rank_vector([(HUGE_INT,)], 0),
        lambda: skew_shape(HUGE_PARTS, (2,) * 10**5),
        lambda: skew_shape(HUGE_PARTS).hook_length((10**5 + 1, 1)),
        lambda: lattice.check_rectangle_translation((), pc.KRectangle(HUGE_INT, HUGE_INT), 3),
        lambda: qpoly.window_failures(qpoly.LimitColumn(3), 3, 4, list(range(10**5))),
        lambda: qpoly.window_sum(qpoly.LimitColumn(3), HUGE_INT, 3, [1]),
        lambda: qpoly.window_sum(qpoly.LimitColumn(3), 3, 4, [-HUGE_INT]),
        lambda: qpoly.QPoly.monomial(-HUGE_INT),
        lambda: qpoly.QPoly.one().shifted(-HUGE_INT),
        lambda: residue((1, 1), -HUGE_INT),
        lambda: rectangle_k_conjugate(2, -HUGE_INT, 3),
        lambda: qpoly.times_geometric(qpoly.QPoly.one(), -HUGE_INT, 1),
        lambda: qpoly.times_geometric(qpoly.QPoly.one(), 1, -HUGE_INT),
        lambda: qpoly.sieved_sums(qpoly.QPoly.one(), -HUGE_INT),
        lambda: qpoly.cyclotomic_polynomial(-HUGE_INT),
        lambda: qpoly.vanishes_mod_cyclotomic([0, 0, 0], -HUGE_INT),
        lambda: qpoly.cyclotomic_check(3, 4, 3, -HUGE_INT),
    ],
    ids=[
        "meet",
        "complement-dual",
        "gamma-set",
        "rank-vector",
        "skew-shape",
        "hook-length",
        "rectangle-translation",
        "window-failures",
        "window-sum",
        "window-sum-x",
        "monomial",
        "shifted",
        "residue",
        "rectangle-k-conjugate",
        "times-geometric-step",
        "times-geometric-terms",
        "sieved-sums",
        "cyclotomic-polynomial",
        "vanishes-mod-cyclotomic",
        "cyclotomic-check",
    ],
)
def test_a_library_error_echoes_a_bounded_value(raise_it):
    # an input of 10^5 parts, 10^6 characters or 4,001 digits is shown
    # briefly, as the CLI shows its arguments
    with pytest.raises(ValueError) as info:
        raise_it()
    assert len(str(info.value)) < 1000, str(info.value)[:300]
