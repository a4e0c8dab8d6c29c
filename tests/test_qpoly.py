"""Exact q-polynomials, Gaussian binomials, generating functions, cyclotomics."""

from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, strategies as st

from kyoung.ideals import IdealSpec, enumerate_ideal, gamma_set, rank_vector
from kyoung.qpoly import (
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


ints = st.lists(st.integers(-9, 9), max_size=8)


class TestQPoly:
    def test_normalization(self):
        assert QPoly([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly().is_zero()

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
        assert (2 * one_plus_q).coeffs == (2, 2)
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
        gaussian.cache_clear()
        rank_gen_Lk(68, 69, 136)
        assert gaussian.cache_info().currsize == 2

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
            rank_gen_Lk(3, 1, 5)

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
            count_Lk(3, 1, 5)

    def test_saturation_gives_full_box(self):
        # once k >= m + n - 1 everything in the box is a member
        for m in range(1, 4):
            for n in range(1, 5):
                k = m + n - 1
                assert rank_gen_Lk(m, n, k) == gaussian(m + n, m)
                assert count_Lk(m, n, k) == comb(m + n, m)

    def test_matches_enumeration(self):
        for m in range(1, 4):
            for k in range(m, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
                    assert rank_gen_Lk(m, n, k).coeffs == tuple(
                        rv.counts[: rank_gen_Lk(m, n, k).degree + 1]
                    ), spec
                    assert rank_gen_Lk(m, n, k).degree == spec.top_rank


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

    def test_width_one_stratum_is_empty(self):
        assert rank_gen_gamma(1, 4, 3).is_zero()

    def test_matches_enumeration(self):
        for m in range(2, 4):
            for k in range(m + 1, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(gamma_set(spec), spec.top_rank)
                    g = rank_gen_gamma(m, n, k)
                    assert tuple(rv.counts) == tuple(
                        g.coefficient(i) for i in range(spec.top_rank + 1)
                    ), spec

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

    def test_symmetric(self):
        assert is_symmetric(QPoly([1, 2, 1]), 2)
        assert is_symmetric(QPoly([0, 1, 1]), 3)
        assert is_symmetric(QPoly.zero(), 5)
        assert not is_symmetric(QPoly([1, 2]), 1)
        assert not is_symmetric(QPoly([1]), 2)
        assert not is_symmetric(QPoly([1, 1]), -1)


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


class TestConjectureSum:
    def test_limit_golden(self):
        assert conjecture_sum(3, 4, 3).coeffs == (1, 1, 1)
        assert conjecture_sum(3, 6, 3).coeffs == (1, 2, 3, 2, 2, 1, 1)

    def test_limit_is_shifted_gaussian_pieces(self):
        m, a, b = 3, 4, 7
        expected = QPoly.zero()
        for j in range(a + 1, b + 1):
            expected = expected + QPoly.monomial(j - a - 1) * gaussian(j - 1, m - 2)
        assert conjecture_sum(a, b, m) == expected

    def test_finite_sums_strata(self):
        m, n = 3, 5
        for a in range(m, 6):
            for b in range(a + 1, n + m - 1):
                expected = QPoly.zero()
                for j in range(a + 1, b + 1):
                    expected = expected + rank_gen_gamma(m, n, j)
                assert conjecture_sum(a, b, m, n) == expected, (a, b)

    def test_full_window_recovers_ideal(self):
        # chain plus all strata up to k is the whole ideal
        m, n, k = 3, 5, 6
        total = QPoly.geometric(1, m * n + 1) + conjecture_sum(m, k, m, n)
        assert total == rank_gen_Lk(m, n, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_sum(2, 4, 3)
        with pytest.raises(ValueError):
            conjecture_sum(3, 3, 3)
        with pytest.raises(ValueError):
            conjecture_sum(3, 9, 3, 4)


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

    def test_check_validation(self):
        with pytest.raises(ValueError):
            cyclotomic_check(3, 5, 3, 1)
        with pytest.raises(ValueError):
            cyclotomic_check(3, 5, 3, 2)
        with pytest.raises(ValueError):
            cyclotomic_check(2, 5, 3, 3)
