"""Exact integer q-polynomials: Gaussian binomials, rank generating functions,
unimodality and symmetry tests, sieved sums, and cyclotomic reduction.

Coefficients are arbitrary-precision Python ints in a dense tuple; geometric
factors are always expanded to finite sums, never left as rational functions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Iterable


class QPoly:
    """Immutable polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPoly":
        if power < 0:
            raise ValueError(f"power must be non-negative: {power}")
        return cls((0,) * power + (coeff,))

    @classmethod
    def geometric(cls, step: int, terms: int) -> "QPoly":
        """1 + q^step + ... + q^(step*(terms-1)), expanded."""
        if step < 1:
            raise ValueError(f"step must be positive: {step}")
        if terms < 0:
            raise ValueError(f"terms must be non-negative: {terms}")
        cs = [0] * (step * max(terms - 1, 0) + 1)
        for t in range(terms):
            cs[step * t] = 1
        return cls(cs if terms else ())

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return QPoly(cs)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly.zero()
        cs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    cs[i + j] += x * y
        return QPoly(cs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def shifted(self, s: int) -> "QPoly":
        """Multiply by q^s."""
        if s < 0:
            raise ValueError(f"shift must be non-negative: {s}")
        if self.is_zero():
            return self
        return QPoly((0,) * s + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, divisor: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Long division over the integers; every step must divide exactly."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        lead = dcs[-1]
        if len(rem) < len(dcs):
            return QPoly.zero(), self
        quot = [0] * (len(rem) - len(dcs) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(dcs) - 1]
            if c % lead != 0:
                raise ValueError("inexact polynomial division over the integers")
            f = c // lead
            quot[i] = f
            if f:
                for j, d in enumerate(dcs):
                    rem[i + j] -= f * d
        return QPoly(quot), QPoly(rem)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                pieces.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    pieces.append(q)
                elif c == -1:
                    pieces.append(f"-{q}")
                else:
                    pieces.append(f"{c}{q}")
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def to_json_list(self) -> list[int]:
        return list(self.coeffs)


# Cached because sweeps repeat the same few (a, b), and perfbench/traced.py reads cache_info().
@lru_cache(maxsize=None)
def gaussian(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b]_q by the product formula.

    The product of (1 - q^(a-b+i)) / (1 - q^i) over i = 1 .. min(b, a-b), taken
    in place on one coefficient list: multiply by the numerator factor, then
    divide exactly by the denominator as a prefix sum with stride i, which
    leaves the top i entries zero.
    """
    if b < 0 or b > a:
        return QPoly.zero()
    b = min(b, a - b)
    cs = [1]
    for i in range(1, b + 1):
        s = a - b + i
        cs += [0] * s
        cs[s:] = [x - y for x, y in zip(cs[s:], cs)]
        for r in range(i):
            cs[r::i] = accumulate(cs[r::i])
        del cs[-i:]
    return QPoly(cs)


def rank_gen_Lk(m: int, n: int, k: int) -> QPoly:
    """Rank generating function of the ideal below (m^n) at level k.

    [k+1 choose m]_q plus q^(k+1) times the degree-m geometric sum with
    n-k+m-1 terms times [k choose m-1]_q.
    """
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k: m={m} k={k}")
    if n < k - m + 1:
        raise ValueError(f"need n >= k - m + 1: m={m} n={n} k={k}")
    tail = QPoly.geometric(m, n - k + m - 1) * gaussian(k, m - 1)
    return gaussian(k + 1, m) + tail.shifted(k + 1)


def count_Lk(m: int, n: int, k: int) -> int:
    """Member count of the ideal below (m^n) at level k."""
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k: m={m} k={k}")
    if n < k - m + 1:
        raise ValueError(f"need n >= k - m + 1: m={m} n={n} k={k}")
    return math.comb(k + 1, m) + (n - k + m - 1) * math.comb(k, m - 1)


def rank_gen_gamma(m: int, n: int, k: int) -> QPoly:
    """Rank generating function of the level-k stratum below (m^n).

    q^(k-m+1) times the degree-m geometric sum with n-k+m terms times
    [k-1 choose m-2]_q; palindromic about mn/2.
    """
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k: m={m} k={k}")
    if n < k - m + 1:
        raise ValueError(f"need n >= k - m + 1: m={m} n={n} k={k}")
    return (QPoly.geometric(m, n - k + m) * gaussian(k - 1, m - 2)).shifted(k - m + 1)


def is_unimodal(p: QPoly) -> bool:
    """Weakly rises then weakly falls across the support window.

    Interior zeros count as values, so gaps in the support break unimodality.
    The zero polynomial is unimodal.
    """
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


def is_symmetric(p: QPoly, twice_center: int) -> bool:
    """Whether coefficients satisfy c_i = c_(twice_center - i) for all i."""
    cs = p.coeffs
    if not cs:
        return True
    if twice_center < 0:
        return False
    hi = max(len(cs) - 1, twice_center)
    return all(p.coefficient(i) == p.coefficient(twice_center - i) for i in range(hi + 1))


def sieved_sums(p: QPoly, m: int) -> list[int]:
    """Coefficient totals by residue class of the exponent mod m."""
    if m < 1:
        raise ValueError(f"m must be positive: {m}")
    return [sum(p.coeffs[r::m]) for r in range(m)]


def conjecture_sum(a: int, b: int, m: int, n: int | None = None) -> QPoly:
    """Partial sum of stratum generating functions for levels a+1 .. b.

    With n given this is the finite form, the sum of rank_gen_gamma(m, n, j);
    with n omitted it is the large-n limit, the sum of
    q^(j-a-1) [j-1 choose m-2]_q.
    """
    if not m <= a < b:
        raise ValueError(f"need m <= a < b: m={m} a={a} b={b}")
    if m < 1:
        raise ValueError(f"m must be positive: {m}")
    total = QPoly.zero()
    if n is None:
        for j in range(a + 1, b + 1):
            total = total + gaussian(j - 1, m - 2).shifted(j - (a + 1))
        return total
    if b > n + m - 1:
        raise ValueError(f"need b <= n + m - 1: b={b} m={m} n={n}")
    for j in range(a + 1, b + 1):
        total = total + rank_gen_gamma(m, n, j)
    return total


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> QPoly:
    """d-th cyclotomic polynomial: divide q^d - 1 by the lower cyclotomics."""
    if d < 1:
        raise ValueError(f"d must be positive: {d}")
    poly = QPoly.monomial(d) - QPoly.one()
    for e in _divisors(d)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(e))
        if not rem.is_zero():
            raise ArithmeticError(f"cyclotomic recurrence left a remainder at d={d}")
    return poly


def cyclotomic_check(a: int, b: int, m: int, d: int) -> bool:
    """Whether sum of q^j [j-1 choose m-2]_q over j = a+1 .. b vanishes at
    every primitive d-th root of unity, by exact reduction mod the d-th
    cyclotomic polynomial."""
    if d <= 1 or m % d != 0:
        raise ValueError(f"d must be a divisor of m larger than 1: m={m} d={d}")
    # That sum is q^(a+1) times the large-n conjecture_sum, and q is a unit
    # mod the d-th cyclotomic polynomial, so reducing the latter decides it.
    _, rem = divmod(conjecture_sum(a, b, m), cyclotomic_polynomial(d))
    return rem.is_zero()
