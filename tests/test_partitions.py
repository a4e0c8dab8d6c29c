"""Partition core: conjugation, skew diagrams, hooks, corners, rectangles."""

import pytest
from hypothesis import given, strategies as st

from kyoung import partitions as pc
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
    sum_parts,
    to_core,
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

    def test_conjugate(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(()) == ()

    @given(small_partitions)
    def test_conjugate_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(small_partitions)
    def test_conjugate_degree(self, p):
        assert sum(conjugate(p)) == sum(p)

    def test_contains(self):
        assert contains((2, 1), (3, 2, 1))
        assert not contains((3, 2, 1), (2, 1))
        assert contains((), (1,))
        assert not contains((1, 1), (2,))

    def test_union_and_sum(self):
        assert union((3, 1), (2, 2)) == (3, 2, 2, 1)
        assert sum_parts((3, 1), (2, 2)) == (5, 3)
        assert sum_parts((), (2,)) == (2,)

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


class TestSkewShape:
    def test_factory_validates(self):
        with pytest.raises(ValueError):
            skew_shape((2, 1), (3,))

    def test_cells_and_rows(self):
        s = skew_shape((3, 2), (1,))
        assert list(s.cells()) == [(1, 2), (1, 3), (2, 1), (2, 2)]
        assert s.row_lengths() == (2, 2)
        assert s.degree() == 4

    def test_column_heights(self):
        s = skew_shape((5, 5, 4, 1), (4, 2))
        assert s.column_heights() == (2, 1, 2, 2, 2)
        assert sum(s.column_heights()) == s.degree()

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
        assert skew_shape((2, 2)).corners("removable") == [(1, 2), (2, 2)]

    def test_removable_corners_staircase(self):
        assert skew_shape((3, 2, 1)).corners("removable") == [(1, 3), (2, 2), (3, 1)]

    def test_addable_corners_empty_shape(self):
        assert SkewShape((), ()).corners("addable") == [(1, 1)]
        assert SkewShape((), ()).corners("removable") == []

    def test_addable_corners_straight(self):
        assert skew_shape((2, 2)).corners("addable") == [(1, 3), (3, 1)]
        assert skew_shape((3, 1)).corners("addable") == [(1, 4), (2, 2), (3, 1)]

    def test_corners_figure_example(self):
        s = skew_shape((6, 2, 1, 1), (2,))
        addable = s.corners("addable")
        assert addable == [(1, 7), (2, 3), (3, 2), (5, 1)]
        assert [residue(c, 5) for c in addable] == [1, 1, 4, 1]
        removable = s.corners("removable")
        assert removable == [(1, 6), (2, 2), (4, 1)]

    def test_corners_bad_direction(self):
        with pytest.raises(ValueError):
            skew_shape((1,)).corners("sideways")


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

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_skew((1,), 0)

    def test_rectangle_block_diagonal(self):
        s = k_skew((3,) * 7, 4)
        assert s.outer == (12, 9, 9, 6, 6, 3, 3)
        assert s.inner == (9, 6, 6, 3, 3)

    def test_defining_conditions_sweep(self):
        for k in range(1, 6):
            for p in k_bounded_partitions(k, 9):
                assert _skew_is_valid(p, k), (p, k)

    def test_core_has_no_small_hooks_at_modulus(self):
        # outer shape admits no hook equal to k+1 anywhere
        for k in range(1, 5):
            for p in k_bounded_partitions(k, 8):
                core = to_core(p, k)
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
        with pytest.raises(ValueError):
            KRectangle(0, 4)

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


class TestCornerResidues:
    def test_distinct_residues_inside_rectangle(self):
        # removable corners below a k-rectangle never share a residue
        for k in range(1, 7):
            for m in range(1, k + 1):
                for p in partitions_in_box(m, k - m + 1):
                    corners = skew_shape(p).corners("removable")
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
                    corners = k_skew(p, k).corners("addable")
                    by_row = {row: residue((row, col), k + 1) for row, col in corners}
                    assert r in by_row and r + k - w + 1 in by_row, (p, k, w)
                    assert by_row[r] == by_row[r + k - w + 1], (p, k, w)
