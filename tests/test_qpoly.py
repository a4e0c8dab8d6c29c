"""Exact q-polynomials, Gaussian binomials, generating functions, cyclotomics."""

import itertools
import math
import operator
import random
import re
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, strategies as st

from kyoung import qpoly
from kyoung.ideals import IdealSpec, enumerate_ideal, gamma_set, rank_vector
from kyoung.qpoly import (
    LimitColumn,
    QPoly,
    conjecture_sum,
    count_Lk,
    cyclotomic_check,
    cyclotomic_polynomial,
    gaussian,
    is_symmetric,
    is_unimodal,
    rank_gen_Lk,
    rank_gen_gamma,
    sieved_sums,
    times_geometric,
    vanishes_mod_cyclotomic,
    window_failures,
    window_sum,
)


def box_counts_by_degree(width: int, height: int) -> list[int]:
    """Oracle: count partitions inside a box, split by degree, by recursion
    on whether the largest part is full width."""

    @lru_cache(maxsize=None)
    def count(w, h, d):
        if d == 0:
            return 1
        if w == 0 or h == 0:
            return 0
        full = count(w, h - 1, d - w) if d >= w else 0
        return count(w - 1, h, d) + full

    return [count(width, height, d) for d in range(width * height + 1)]


def q_pascal_rows(a_max: int) -> list[list[QPoly]]:
    """Oracle: rows a = 0 .. a_max of Gaussian binomials, built iteratively by
    the q-Pascal rule [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b]."""
    rows = [[QPoly.one()]]
    for a in range(1, a_max + 1):
        prev = rows[-1]
        inner = [prev[b - 1] + prev[b].shifted(b) for b in range(1, a)]
        rows.append([QPoly.one(), *inner, QPoly.one()])
    return rows


def is_unimodal_by_window(p: QPoly) -> bool:
    """Oracle: copy the support window, climb while weakly rising, then
    descend while weakly falling; unimodal when that reaches the end."""
    cs = p.coeffs
    if not cs:
        return True
    lo = next(i for i, c in enumerate(cs) if c)
    window = cs[lo:]
    i = 1
    while i < len(window) and window[i] >= window[i - 1]:
        i += 1
    while i < len(window) and window[i] <= window[i - 1]:
        i += 1
    return i >= len(window)


ints = st.lists(st.integers(-9, 9), max_size=8)


class TestQPoly:
    def test_normalization(self):
        assert QPoly([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly().is_zero()

    def test_coercion_and_stripping(self):
        cases = [
            ([1, 0, 0], (1,)),
            ((True, 2), (1, 2)),
            ([0], ()),
            (iter([3, 0]), (3,)),
        ]
        for given_coeffs, expected in cases:
            coeffs = QPoly(given_coeffs).coeffs
            assert coeffs == expected
            assert all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("coeffs", [[0.5, 1.9], ["3", "4"]], ids=["float", "str"])
    def test_rejects_non_integers(self, coeffs):
        # int() would truncate the floats to q and parse the strings to 3 + 4q
        with pytest.raises(TypeError):
            QPoly(coeffs)

    def test_constructors(self):
        assert QPoly.zero().degree == -1
        assert QPoly.one().coeffs == (1,)
        assert QPoly.monomial(3).coeffs == (0, 0, 0, 1)
        assert QPoly.monomial(0, 5).coeffs == (5,)
        assert QPoly.geometric(3, 3).coeffs == (1, 0, 0, 1, 0, 0, 1)
        assert QPoly.geometric(2, 1) == QPoly.one()
        assert QPoly.geometric(2, 0).is_zero()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QPoly.monomial(-1)
        with pytest.raises(ValueError):
            QPoly.geometric(0, 3)
        with pytest.raises(ValueError):
            QPoly.geometric(2, -1)

    def test_immutable(self):
        p = QPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_arithmetic(self):
        one_plus_q = QPoly([1, 1])
        assert (one_plus_q * one_plus_q).coeffs == (1, 2, 1)
        assert (one_plus_q - QPoly.one()).coeffs == (0, 1)
        assert (-one_plus_q).coeffs == (-1, -1)
        assert (one_plus_q * 3).coeffs == (3, 3)
        assert (one_plus_q + (-one_plus_q)).is_zero()
        assert (QPoly.zero() * one_plus_q).is_zero()

    def test_coefficient_out_of_range(self):
        p = QPoly([1, 2])
        assert p.coefficient(0) == 1
        assert p.coefficient(5) == 0
        assert p.coefficient(-1) == 0

    def test_shift_and_eval(self):
        p = QPoly([1, 2, 3])
        assert p.shifted(2).coeffs == (0, 0, 1, 2, 3)
        assert QPoly.zero().shifted(4).is_zero()
        with pytest.raises(ValueError):
            p.shifted(-1)
        assert p(1) == 6
        assert p(2) == 17
        assert p(0) == 1

    def test_divmod_exact(self):
        q, r = divmod(QPoly([-1, 0, 1]), QPoly([-1, 1]))
        assert q.coeffs == (1, 1)
        assert r.is_zero()

    def test_divmod_remainder(self):
        q, r = divmod(QPoly([1, 1, 1]), QPoly([0, 1]))
        assert q.coeffs == (1, 1)
        assert r.coeffs == (1,)

    def test_divmod_short_dividend(self):
        q, r = divmod(QPoly([1]), QPoly([1, 1]))
        assert q.is_zero()
        assert r == QPoly([1])

    def test_divmod_errors(self):
        with pytest.raises(ZeroDivisionError):
            divmod(QPoly([1]), QPoly.zero())
        with pytest.raises(ValueError):
            divmod(QPoly([1, 1]), QPoly([0, 2]))

    @given(ints, ints)
    def test_divmod_monic_round_trip(self, acs, bcs):
        a = QPoly(acs)
        b = QPoly(bcs + [1])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_geometric_telescopes(self):
        for m in range(1, 5):
            for t in range(5):
                lhs = QPoly.geometric(m, t) * (QPoly.one() - QPoly.monomial(m))
                assert lhs == QPoly.one() - QPoly.monomial(m * t)

    def test_times_geometric_matches_schoolbook_product(self):
        rng = random.Random(20261018)
        polys = [QPoly.zero(), QPoly.one(), QPoly([0, 0, 5])]
        polys += [QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]) for _ in range(60)]
        for p in polys:
            for step in range(1, 6):
                for terms in range(0, 6):
                    expected = QPoly.geometric(step, terms) * p
                    assert times_geometric(p, step, terms) == expected, (p, step, terms)

    def test_times_geometric_validation(self):
        with pytest.raises(ValueError):
            times_geometric(QPoly.one(), 0, 3)
        with pytest.raises(ValueError):
            times_geometric(QPoly.one(), 2, -1)

    def test_geometric_is_one_times_geometric(self):
        # QPoly.geometric has no route of its own: the expanded sum, and the
        # same two messages
        for step in range(1, 6):
            for terms in range(6):
                expanded = [int(i % step == 0) for i in range(step * (terms - 1) + 1)]
                assert QPoly.geometric(step, terms) == QPoly(expanded)
        for step, terms, message in (
            (0, 3, "step must be positive: 0"),
            (2, -1, "terms must be non-negative: -1"),
        ):
            for build in (QPoly.geometric, lambda s, t: times_geometric(QPoly.one(), s, t)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    build(step, terms)

    def test_str(self):
        assert str(QPoly.zero()) == "0"
        assert str(QPoly([1, 1, 2])) == "1 + q + 2q^2"
        assert str(QPoly([1, -1])) == "1 - q"
        assert str(QPoly([0, -1])) == "-q"
        assert str(QPoly([0, 0, 3])) == "3q^2"

    def test_repr_and_json(self):
        assert repr(QPoly([1, 2])) == "QPoly([1, 2])"
        assert QPoly([1, 0, 2]).to_json_list() == [1, 0, 2]

    def test_hash_and_eq(self):
        assert QPoly([1, 2]) == QPoly((1, 2, 0))
        assert hash(QPoly([1, 2])) == hash(QPoly((1, 2)))
        assert QPoly([1]) != (1,)


class TestGaussian:
    def test_golden(self):
        assert gaussian(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert gaussian(3, 1).coeffs == (1, 1, 1)
        assert gaussian(5, 0) == QPoly.one()
        assert gaussian(5, 5) == QPoly.one()
        assert gaussian(3, 4).is_zero()
        assert gaussian(3, -1).is_zero()

    def test_counts_box_partitions(self):
        for a in range(10):
            for b in range(a + 1):
                expected = tuple(box_counts_by_degree(a - b, b))
                assert gaussian(a, b).coeffs == expected, (a, b)

    def test_matches_q_pascal_oracle(self):
        for a, row in enumerate(q_pascal_rows(40)):
            for b, expected in enumerate(row):
                assert gaussian(a, b) == expected, (a, b)
            assert gaussian(a, -1).is_zero()
            assert gaussian(a, a + 1).is_zero()

    def test_cache_holds_only_requested_values(self):
        # rank_gen_Lk reads [k choose m-1]_q alone: its head is that Gaussian
        # times (1 - q^(k+1)) / (1 - q^m)
        gaussian.cache_clear()
        rank_gen_Lk(68, 69, 136)
        assert gaussian.cache_info().currsize == 1

    def test_specializes_to_binomial(self):
        for a in range(9):
            for b in range(a + 1):
                assert gaussian(a, b)(1) == comb(a, b)

    def test_symmetry_and_unimodality(self):
        for a in range(10):
            for b in range(a + 1):
                g = gaussian(a, b)
                assert is_symmetric(g, b * (a - b)), (a, b)
                assert is_unimodal(g), (a, b)

    def test_pascal_complement(self):
        for a in range(8):
            for b in range(a + 1):
                assert gaussian(a, b) == gaussian(a, a - b)

    def test_limit_column_matches_the_product_formula(self):
        """LimitColumn(m) walks [x choose m-1]_q up by the column recurrence.
        Under each difference series it reads lies the product formula's
        Gaussian, and the limit series repeats with period m past its
        degree.  Every x up to 300 is read for m = 2 and 3; for larger m the
        product formula is dear, so x runs to m + 40 and then reads 300,
        which the column reaches by the same walk.  A read whose a falls
        starts the column again."""
        product = gaussian.__wrapped__  # the product formula, past the memo

        def gaussian_under(delta, m):
            # G = F (1 - q^m), F the running sums of the differences
            f = list(itertools.accumulate(delta))
            return [c - (f[i - m] if i >= m else 0) for i, c in enumerate(f)]

        for m in (2, 3, 17, 31, 60):
            column = qpoly.LimitColumn(m)
            xs = range(m, 301) if m < 4 else [*range(m, m + 41), 300, m]
            for x in xs:
                below, above = column._read(x, x + 1)
                for y, delta in ((x, below), (x + 1, above)):
                    expected = [*product(y, m - 1).coeffs, *[0] * m]
                    assert gaussian_under(delta, m) == expected, (m, y)


class TestRankGen:
    def test_golden(self):
        assert rank_gen_Lk(3, 3, 4).coeffs == (1, 1, 2, 2, 2, 2, 2, 2, 1, 1)
        assert rank_gen_Lk(3, 3, 3) == QPoly.geometric(1, 10)
        assert rank_gen_Lk(3, 3, 5) == gaussian(6, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_gen_Lk(4, 3, 3)
        with pytest.raises(ValueError):
            rank_gen_Lk(0, 3, 3)
        with pytest.raises(ValueError):
            rank_gen_Lk(3, 0, 5)

    def test_count_golden(self):
        assert count_Lk(3, 3, 3) == 10
        assert count_Lk(3, 3, 4) == 16
        assert count_Lk(3, 3, 5) == 20

    def test_count_matches_evaluation_at_one(self):
        for m in range(1, 5):
            for k in range(m, 8):
                for n in range(max(1, k - m + 1), 7):
                    assert rank_gen_Lk(m, n, k)(1) == count_Lk(m, n, k)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            count_Lk(4, 3, 3)
        with pytest.raises(ValueError):
            count_Lk(3, 0, 5)

    @pytest.mark.parametrize(
        "m, n, k, message",
        [
            (4, 3, 3, "need 1 <= m <= k: m=4 k=3"),
            (0, 3, 3, "need 1 <= m <= k: m=0 k=3"),
            (3, 0, 5, "need n >= 1: n=0"),
        ],
        ids=["m-above-k", "m-zero", "n-short"],
    )
    def test_rank_gen_and_count_share_one_range(self, m, n, k, message):
        for f in (rank_gen_Lk, count_Lk):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                f(m, n, k)

    def test_saturation_gives_full_box(self):
        # once k >= m + n - 1 everything in the box is a member
        for m in range(1, 4):
            for n in range(1, 5):
                for k in range(m + n - 1, m + n + 3):
                    assert rank_gen_Lk(m, n, k) == gaussian(m + n, m)
                    assert count_Lk(m, n, k) == comb(m + n, m)

    def test_matches_enumeration(self):
        for m in range(1, 4):
            for k in range(m, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
                    assert rank_gen_Lk(m, n, k) == rv, spec
                    assert rank_gen_Lk(m, n, k).degree == spec.top_rank

    def test_head_is_the_product_formula_gaussian(self):
        # rank_gen_Lk takes its head, [k+1 choose m]_q, from the tail's
        # [k choose m-1]_q.  At n = k - m + 1 the tail is 0, and one step on it
        # is q^(k+1) [k choose m-1]_q
        cases = [(m, k) for m in range(1, 13) for k in range(m, 41)] + [(68, 136), (68, 137)]
        for m, k in cases:
            head, tail = gaussian(k + 1, m), gaussian(k, m - 1).shifted(k + 1)
            assert rank_gen_Lk(m, k - m + 1, k) == head, (m, k)
            assert rank_gen_Lk(m, k - m + 2, k) == head + tail, (m, k)


class TestGammaGen:
    def test_golden(self):
        assert rank_gen_gamma(3, 3, 4).coeffs == (0, 0, 1, 1, 1, 1, 1, 1)
        assert rank_gen_gamma(3, 3, 5).coeffs == (0, 0, 0, 1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_gen_gamma(3, 3, 3)
        with pytest.raises(ValueError):
            rank_gen_gamma(0, 3, 4)
        with pytest.raises(ValueError):
            rank_gen_gamma(3, 1, 5)

    @pytest.mark.parametrize(
        "f, args, window, message",
        [
            (rank_gen_gamma, (3, 2, 3), (3, 2, 3, 2), "need 1 <= m <= a < b: m=3 a=2 b=3"),
            (rank_gen_gamma, (3, 1, 5), (3, 4, 5, 1), "need x >= b - m + 1: m=3 x=1 b=5"),
            (conjecture_sum, (3, 3, 4), (4, 3, 3, 9), "need 1 <= m <= a < b: m=4 a=3 b=3"),
        ],
        ids=["gamma-window", "gamma-x", "limit-window"],
    )
    def test_takes_the_window_rule(self, f, args, window, message):
        # the level-k stratum is the window (k-1, k] at x = n, and the limit
        # sum is a window at every x: both raise window_sum's texts
        m, a, b, x = window
        for call in (lambda: f(*args), lambda: window_sum(LimitColumn(m), a, b, [x])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_is_the_shifted_geometric_product(self):
        # the factor q^(k-m+1) enters as leading zeros of one coefficient list
        for m in range(1, 7):
            for k in range(m + 1, 12):
                for n in range(k - m + 1, 14):
                    expected = times_geometric(gaussian(k - 1, m - 2), m, n - k + m)
                    assert rank_gen_gamma(m, n, k) == expected.shifted(k - m + 1), (m, n, k)

    def test_width_one_stratum_is_empty(self):
        assert rank_gen_gamma(1, 4, 3).is_zero()

    def test_matches_enumeration(self):
        for m in range(2, 4):
            for k in range(m + 1, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(gamma_set(spec), spec.top_rank)
                    assert rv == rank_gen_gamma(m, n, k), spec

    def test_symmetric_about_top_rank(self):
        for m in range(2, 4):
            for k in range(m + 1, 7):
                for n in range(max(1, k - m + 1), 6):
                    assert is_symmetric(rank_gen_gamma(m, n, k), m * n), (m, n, k)

    def test_decomposition_into_chain_plus_strata(self):
        for m in range(1, 4):
            for k in range(m, 7):
                for n in range(max(1, k - m + 1), 6):
                    total = QPoly.geometric(1, m * n + 1)
                    for r in range(m + 1, k + 1):
                        total = total + rank_gen_gamma(m, n, r)
                    assert total == rank_gen_Lk(m, n, k), (m, n, k)


class TestShapeTests:
    def test_unimodal(self):
        assert is_unimodal(QPoly([1, 2, 2, 1]))
        assert is_unimodal(QPoly([1]))
        assert is_unimodal(QPoly.zero())
        assert is_unimodal(QPoly([0, 0, 1, 2, 1]))
        assert is_unimodal(QPoly([3, 1]))
        assert not is_unimodal(QPoly([1, 0, 1]))
        assert not is_unimodal(QPoly([2, 1, 2]))
        assert not is_unimodal(QPoly([1, 2, 1, 2]))

    def test_unimodal_matches_window_scan(self):
        verdicts = set()
        for length in range(8):
            for coeffs in itertools.product((0, 1, 2), repeat=length):
                p = QPoly(coeffs)
                verdicts.add(is_unimodal(p))
                assert is_unimodal(p) == is_unimodal_by_window(p), coeffs
        assert verdicts == {True, False}

    def test_symmetric(self):
        assert is_symmetric(QPoly([1, 2, 1]), 2)
        assert is_symmetric(QPoly([0, 1, 1]), 3)
        assert is_symmetric(QPoly.zero(), 5)
        assert not is_symmetric(QPoly([1, 2]), 1)
        assert not is_symmetric(QPoly([1]), 2)
        assert not is_symmetric(QPoly([1, 1]), -1)

    def test_symmetric_matches_the_definition(self):
        """c_i = c_(twice_center - i) for every i, a coefficient outside
        the tuple reading 0: on every polynomial of at most 6 coefficients
        in {0, 1, 2} and every center from -2 to 14."""

        def by_definition(p, twice_center):
            top = max(p.degree, twice_center)
            return all(p.coefficient(i) == p.coefficient(twice_center - i) for i in range(top + 1))

        verdicts = set()
        for length in range(7):
            for coeffs in itertools.product((0, 1, 2), repeat=length):
                p = QPoly(coeffs)
                for twice_center in range(-2, 15):
                    verdict = is_symmetric(p, twice_center)
                    assert verdict == by_definition(p, twice_center), (coeffs, twice_center)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSieved:
    def test_sieved_sums_golden(self):
        assert sieved_sums(gaussian(4, 2), 2) == [4, 2]
        assert sieved_sums(gaussian(4, 2), 1) == [6]
        assert sieved_sums(QPoly.zero(), 3) == [0, 0, 0]

    def test_sieved_sums_oracle(self):
        p = gaussian(7, 3)
        for m in range(1, 6):
            expected = [0] * m
            for i, c in enumerate(p.coeffs):
                expected[i % m] += c
            assert sieved_sums(p, m) == expected

    def test_sieved_sums_validation(self):
        with pytest.raises(ValueError):
            sieved_sums(QPoly.one(), 0)

    def test_gaussian_residues_are_the_sieved_sums(self):
        # q-Pascal mod q^m - 1 against the residue totals of the product
        # formula's Gaussians; x starts at m - 1 and stops at top
        for m in range(2, 20):
            residues = list(enumerate(qpoly.gaussian_residues(m, 80), m - 1))
            assert [x for x, _ in residues] == list(range(m - 1, 81))
            for x, sums in residues:
                assert sums == sieved_sums(gaussian(x, m - 1), m), (m, x)
            assert list(qpoly.gaussian_residues(m, m - 2)) == []


def finite_strata_by_addition(m, n, a, b):
    """Oracle: the strata at levels a+1 .. b, one QPoly addition a level;
    no level past n+m-1 has a stratum."""
    total = QPoly.zero()
    for j in range(a + 1, min(b, n + m - 1) + 1):
        total = total + rank_gen_gamma(m, n, j)
    return total


def limit_strata_by_addition(m, a, b):
    """Oracle: q^(j-a-1) [j-1 choose m-2]_q summed over j = a+1 .. b."""
    total = QPoly.zero()
    for j in range(a + 1, b + 1):
        total = total + QPoly.monomial(j - a - 1) * gaussian(j - 1, m - 2)
    return total


def is_period_insertion(before, after, m):
    """Oracle: whether after is before with one period put in again at the
    lowest exponent s where they differ, after[s:] == before[s-m:]."""
    s = next(i for i, c in enumerate((after - before).coeffs) if c)
    return after.coeffs[s:] == before.coeffs[s - m:]


def decided_at(m, a, b):
    """The first x of the window (a, b] with s = m(x+1) - deg D above
    c = floor(m x / 2): from there on P_x is the stride-m prefix sums of D up
    to its center, and window_failures decides x by one comparison."""
    top = (m - 1) * (b - m + 1)
    return next(x for x in itertools.count(b - m + 1) if m * (x + 1) - top > m * x // 2)


def check_window(column, a, b, oracle, xs):
    """window_sum against oracle(x) at each x of the range xs, one x at a
    time and all of xs at once, and all of xs reversed, with a column of its
    own and with column, the LimitColumn of m that the caller's windows share
    in ascending a, and window_failures against is_unimodal of the oracle,
    over xs and one x at a time; returns the x at which the oracle is not
    unimodal.  The last x is past deg D + m, so window_sum reads S and T past
    the difference series the column keeps."""
    m = column.m
    assert m * xs[-1] - a + m - 1 > (m - 1) * (b - m + 1) + m + 1, (m, a, b)
    failing, polys = [], []
    for x in xs:
        poly = oracle(x)
        assert window_sum(LimitColumn(m), a, b, [x]) == [poly], (m, a, b, x)
        assert window_sum(column, a, b, [x]) == [poly], (m, a, b, x)
        expected = [] if is_unimodal(poly) else [x]
        assert window_failures(LimitColumn(m), a, b, range(x, x + 1)) == expected, (m, a, b, x)
        failing += expected
        polys.append(poly)
    assert window_sum(column, a, b, xs) == polys, (m, a, b)
    assert window_sum(LimitColumn(m), a, b, xs[::-1]) == polys[::-1], (m, a, b)
    assert window_failures(LimitColumn(m), a, b, xs) == failing, (m, a, b)
    return failing


def failures_by_full_scan(m, a, b, xs):
    """Oracle: the x of xs at which the window (a, b] falls before its
    centre, with every stretch compared in full and no x left unread.
    S = D / (1 - q^m) and T = H / (1 - q^m) come from the product formula's
    D = [b choose m-1]_q - [a choose m-1]_q and H, D reversed from its lowest
    term (see qpoly._window_differences); P_x is S - q^s T with s = m(x+1) - deg D."""
    top = (m - 1) * (b - m + 1)
    d = list((gaussian(b, m - 1) - gaussian(a, m - 1)).coeffs)

    def differences(p):  # of p / (1 - q^m), to deg D + m + 1 terms
        p = p + [0] * (top + m + 1 - len(p))
        for r in range(m):
            p[r::m] = itertools.accumulate(p[r::m])
        return [y - x for x, y in zip([0, *p], p)]

    dp, dt = differences(d), differences(d[a - m + 2:][::-1])
    # past deg D, S repeats with period m, so it falls somewhere iff it falls by deg D + m
    fall = next((i for i in range(a - m + 3, top + m + 1) if dp[i] < 0), math.inf)
    failing = []
    for x in xs:
        s, c = m * (x + 1) - top, m * x // 2
        if fall <= min(c, s - 1) or not all(map(operator.ge, dp[s:c + 1], dt)):
            failing.append(x)
    return failing


class TestStrataWalk:
    """The stratum windows walked over x: window_sum and window_failures
    against the per-x oracles at each window's first x, and on both sides of
    the first x that window_failures decides in closed form."""

    def test_conjecture_gen_windows_match_repeated_addition(self):
        outcomes = set()
        for m in range(2, 7):
            column = qpoly.LimitColumn(m)
            for a in range(m, m + 5):
                for b in range(a + 1, a + 6):
                    oracle = lambda x: finite_strata_by_addition(m, x, a, b)  # noqa: E731
                    first, decided = b - m + 1, decided_at(m, a, b)
                    xs = range(first, max(first + 2, decided + 1) + 1)
                    outcomes.add(bool(check_window(column, a, b, oracle, xs)))
        # windows that pass, and windows that do not qualify and fail
        assert outcomes == {True, False}

    def test_conjecture_u_windows_match_rank_gen_gamma(self):
        outcomes, offsets = set(), set()
        for m in (2, 3, 5, 7):
            column = qpoly.LimitColumn(m)
            for k in range(m + 1, m + 13):
                for b in (k, k + 1):  # u_k, and u_k + u_(k+1)
                    first, decided = b - m + 1, decided_at(m, k - 1, b)

                    def oracle(x):
                        total = rank_gen_gamma(m, x, k)
                        return total + rank_gen_gamma(m, x, k + 1) if b > k else total

                    xs = range(first, decided + 3)
                    outcomes.add(bool(check_window(column, k - 1, b, oracle, xs)))
                    offsets.add(decided - first)
        # windows decided at their first x, and windows decided many x in
        assert outcomes == {True, False}
        assert 0 in offsets and max(offsets) >= 5

    def test_every_window_matches_the_full_scan(self):
        """window_failures, which compares each stretch only past the last
        one that held and stops at the first x from which every later x
        passes, against the full scan of 250 n on every window of m 2-12
        and m <= a < b <= 36, qualifying or not: with one LimitColumn per m
        read in ascending a, as the checks read it, and with a column of
        the window's own."""
        windows = failing = 0
        for m in range(2, 13):
            column = qpoly.LimitColumn(m)
            for a in range(m, 37):
                for b in range(a + 1, 37):
                    xs = range(b - m + 1, b - m + 251)
                    expected = failures_by_full_scan(m, a, b, xs)
                    assert window_failures(column, a, b, xs) == expected, (m, a, b)
                    assert window_failures(LimitColumn(m), a, b, xs) == expected, (m, a, b)
                    windows += 1
                    failing += bool(expected)
        assert (windows, failing) == (4_840, 2_814)

    def test_a_descent_in_xs_raises(self):
        # (5, 8] at m = 3 fails at x = 6 and is decided as passing from x = 7
        # up, where the range stops being read
        assert window_failures(LimitColumn(3), 5, 8, range(6, 7)) == [6]
        assert window_failures(LimitColumn(3), 5, 8, range(6, 10**30)) == [6]
        assert window_failures(LimitColumn(3), 5, 8, range(6, 47, 39)) == [6]
        # only an ascending range carries its ascent: a list, a tuple or an
        # iterator does not, even when its values ascend
        for xs in ([6], (6, 45), iter([6, 45]), [45, 6], range(9, 6, -1), range(9, 6)[::-1]):
            with pytest.raises(ValueError, match="xs must be an ascending range"):
                window_failures(LimitColumn(3), 5, 8, xs)
        # (5, 9] at m = 3 fails from x = 10 up and is never decided: every x is read
        assert window_failures(LimitColumn(3), 5, 9, range(8, 12)) == [10, 11]
        assert window_failures(LimitColumn(3), 5, 9, range(8, 15, 3)) == [11, 14]

    def test_m_one_has_no_strata(self):
        # G_j = [j-1 choose -1]_q = 0, so D = 0 and every sum is 0
        for a, b in ((1, 2), (1, 6), (4, 9)):
            sums = window_sum(LimitColumn(1), a, b, range(b, b + 5))
            assert [poly.is_zero() for poly in sums] == [True] * 5
            for x in range(b, b + 5):
                assert finite_strata_by_addition(1, x, a, b).is_zero()
            assert window_failures(LimitColumn(1), a, b, range(b, b + 5)) == []

    def test_validation(self):
        for m, a, b, x in ((0, 1, 2, 5), (3, 2, 4, 5), (3, 4, 4, 5), (3, 4, 6, 3)):
            with pytest.raises(ValueError):
                window_sum(LimitColumn(m), a, b, [x])
            with pytest.raises(ValueError, match="need"):
                window_failures(LimitColumn(m), a, b, range(x, x + 1))
        with pytest.raises(ValueError, match="need"):  # a bad window raises with no x
            window_failures(LimitColumn(3), 4, 4, range(5, 5))
        assert window_failures(LimitColumn(3), 4, 5, range(5, 5)) == []
        # so does window_sum, and each x of xs is held to the rule
        with pytest.raises(ValueError, match="need 1 <= m <= a < b"):
            window_sum(LimitColumn(3), 4, 4, [])
        assert window_sum(LimitColumn(3), 4, 5, []) == []
        with pytest.raises(ValueError, match="need x"):
            window_sum(LimitColumn(3), 3, 5, [10, 2, 10])
        with pytest.raises(ValueError, match="need x"):  # its first x is below b-m+1
            window_failures(LimitColumn(3), 3, 5, range(2, 10**30))

    def test_the_rule_reads_m_off_the_column(self, monkeypatch):
        # m is the column's: (3, 5] is outside the rule at m = 4, and (1, 2]
        # at m = 0 and m = -2, so both raise the rule's text and the column
        # is never read
        monkeypatch.setattr(LimitColumn, "_read", lambda *args: pytest.fail("read"))
        for m, a, b, x in ((4, 3, 5, 3), (0, 1, 2, 2), (-2, 1, 2, 2)):
            message = f"need 1 <= m <= a < b: m={m} a={a} b={b}"
            for read, xs in ((window_failures, range(x, x + 7)), (window_sum, [x])):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    read(LimitColumn(m), a, b, xs)

    def test_one_read_writes_every_x(self, monkeypatch):
        # window_sum reads the window's difference series once, however many
        # x it writes, and not at all for none
        reads, real = [], qpoly._window_differences
        counting = lambda *args: reads.append(args) or real(*args)  # noqa: E731
        monkeypatch.setattr(qpoly, "_window_differences", counting)
        polys = qpoly.window_sum(LimitColumn(3), 5, 9, range(8, 40))
        assert len(reads) == 1 and len(polys) == 32
        assert qpoly.window_sum(LimitColumn(3), 5, 9, []) == [] and len(reads) == 1
        monkeypatch.undo()
        assert polys[::7] == [finite_strata_by_addition(3, x, 5, 9) for x in range(8, 40, 7)]

    def test_the_first_sum_is_the_only_polynomial_built(self, monkeypatch):
        # window_sum builds the sum at the window's first x and nothing else,
        # not even a Gaussian; window_failures builds no polynomial at all
        built = []

        def counting(*args):
            built.append(args)
            return QPoly(*args)

        monkeypatch.setattr(qpoly, "QPoly", counting)
        (poly,) = qpoly.window_sum(LimitColumn(5), 6, 8, [4])
        assert len(built) == 1
        assert qpoly.window_failures(LimitColumn(5), 6, 8, range(4, 40)) == [] and len(built) == 1
        monkeypatch.undo()
        assert poly == finite_strata_by_addition(5, 4, 6, 8)


class TestConjectureSum:
    def test_limit_golden(self):
        assert conjecture_sum(3, 4, 3).coeffs == (1, 1, 1)
        assert conjecture_sum(3, 6, 3).coeffs == (1, 2, 3, 2, 2, 1, 1)

    def test_limit_is_shifted_gaussian_pieces(self):
        # the oracle of the telescoped closed form: one piece added per level
        for m in range(1, 9):
            for a in range(m, m + 7):
                for b in range(a + 1, a + 9):
                    assert conjecture_sum(a, b, m) == limit_strata_by_addition(m, a, b), (m, a, b)

    def test_full_window_recovers_ideal(self):
        # chain plus all strata up to k is the whole ideal
        m, n, k = 3, 5, 6
        total = QPoly.geometric(1, m * n + 1) + finite_strata_by_addition(m, n, m, k)
        assert total == rank_gen_Lk(m, n, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_sum(2, 4, 3)
        with pytest.raises(ValueError):
            conjecture_sum(3, 3, 3)


class TestCyclotomic:
    def test_small_goldens(self):
        assert cyclotomic_polynomial(1).coeffs == (-1, 1)
        assert cyclotomic_polynomial(2).coeffs == (1, 1)
        assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
        assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
        assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
        assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)

    def test_prime_case(self):
        for p in (2, 3, 5, 7, 11):
            assert cyclotomic_polynomial(p) == QPoly.geometric(1, p)

    def test_product_over_divisors(self):
        for n in range(1, 13):
            prod = QPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == QPoly.monomial(n) - QPoly.one(), n

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_check_golden(self):
        assert cyclotomic_check(2, 4, 2, 2)
        assert cyclotomic_check(3, 6, 3, 3)
        assert not cyclotomic_check(3, 4, 2, 2)

    def test_check_matches_explicit_reduction(self):
        # power sums mod the quadratic cyclotomic collapse to alternating sums
        for a in range(2, 7):
            for b in range(a + 1, 9):
                expected = sum((-1) ** j for j in range(a + 1, b + 1)) == 0
                assert cyclotomic_check(a, b, 2, 2) == expected, (a, b)

    def test_check_matches_unshifted_sum(self):
        # the definition: sum q^j [j-1 choose m-2]_q itself, reduced mod Phi_d
        for m in (2, 3, 4, 6):
            for d in (d for d in range(2, m + 1) if m % d == 0):
                for a in range(m, m + 6):
                    for b in range(a + 1, a + 8):
                        total = QPoly.zero()
                        for j in range(a + 1, b + 1):
                            total = total + gaussian(j - 1, m - 2).shifted(j)
                        _, rem = divmod(total, cyclotomic_polynomial(d))
                        assert cyclotomic_check(a, b, m, d) == rem.is_zero(), (m, d, a, b)

    def test_fold_matches_full_reduction(self):
        # sieved sums mod m, folded mod d | m, against dividing the whole sum by Phi_d
        verdicts = set()
        for m in range(1, 13):
            for d in (d for d in range(1, m + 1) if m % d == 0):
                for a in range(m, m + 5):
                    for b in range(a + 1, a + 9):
                        limit = conjecture_sum(a, b, m)
                        _, rem = divmod(limit, cyclotomic_polynomial(d))
                        folded = vanishes_mod_cyclotomic(sieved_sums(limit, m), d)
                        verdicts.add(folded)
                        assert folded == rem.is_zero(), (m, d, a, b)
        assert verdicts == {True, False}

    def test_equal_sums_are_the_divisions_at_every_divisor(self):
        """The lemma behind sieved's cyclotomic clause: each m-th root of unity
        z != 1 is a primitive d-th root for one d | m with d > 1, and
        sum s_r z^r vanishes at all of them exactly when s is constant.
        Every s in {0,1,2}^m for m <= 8 and in {0,1}^m for m <= 12."""
        for m in range(1, 13):
            divisors = [d for d in range(2, m + 1) if m % d == 0]
            for sums in itertools.product(range(3 if m <= 8 else 2), repeat=m):
                divided = all(vanishes_mod_cyclotomic(list(sums), d) for d in divisors)
                assert divided == (len(set(sums)) == 1), sums

    def test_fold_validation(self):
        with pytest.raises(ValueError):
            vanishes_mod_cyclotomic([1, 2, 3], 2)
        with pytest.raises(ValueError):
            vanishes_mod_cyclotomic([1, 2], 0)

    def test_check_validation(self):
        with pytest.raises(ValueError):
            cyclotomic_check(3, 5, 3, 1)
        with pytest.raises(ValueError):
            cyclotomic_check(3, 5, 3, 2)
        with pytest.raises(ValueError):
            cyclotomic_check(2, 5, 3, 3)
