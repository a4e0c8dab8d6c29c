"""Exact integer q-polynomials: Gaussian binomials, rank generating functions,
unimodality and symmetry tests, sieved sums, and cyclotomic reduction.

Coefficients are arbitrary-precision Python ints in a dense tuple.  A
geometric factor (1 - q^(st)) / (1 - q^s) is applied to a coefficient list in
place: a multiply by 1 - q^(st), then an exact division by 1 - q^s, which is
a prefix sum with stride s.  No rational function is ever left over, since
each such division is exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, islice, repeat, starmap
from operator import add, ge, gt, index, sub
from typing import Iterable, Iterator


class QPoly:
    """Immutable polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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


def _times_quotient(cs: list[int], s: int, i: int) -> None:
    """Multiply cs in place by 1 - q^s, then divide exactly by 1 - q^i.

    The division is a prefix sum with stride i; the caller guarantees it is
    exact, which leaves the top i entries zero, and they are dropped.
    """
    cs += [0] * s
    cs[s:] = [x - y for x, y in zip(cs[s:], cs)]
    for r in range(i):
        cs[r::i] = accumulate(cs[r::i])
    del cs[-i:]


def times_geometric(p: QPoly, step: int, terms: int) -> QPoly:
    """p times 1 + q^step + ... + q^(step*(terms-1)), that is times
    (1 - q^(step*terms)) / (1 - q^step), computed in place."""
    if step < 1:
        raise ValueError(f"step must be positive: {step}")
    if terms < 0:
        raise ValueError(f"terms must be non-negative: {terms}")
    cs = list(p.coeffs)
    _times_quotient(cs, step * terms, step)
    return QPoly(cs)


# Cached because sweeps repeat the same few (a, b), and perfbench/traced.py reads cache_info().
@lru_cache(maxsize=None)
def gaussian(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b]_q by the product formula.

    The product of (1 - q^(a-b+i)) / (1 - q^i) over i = 1 .. min(b, a-b), taken
    in place on one coefficient list; each partial product is a Gaussian
    binomial, so every division is exact.
    """
    if b < 0 or b > a:
        return QPoly.zero()
    b = min(b, a - b)
    cs = [1]
    for i in range(1, b + 1):
        _times_quotient(cs, a - b + i, i)
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
    tail = times_geometric(gaussian(k, m - 1), m, n - k + m - 1)
    return gaussian(k + 1, m) + tail.shifted(k + 1)


def count_Lk(m: int, n: int, k: int) -> int:
    """Member count of the ideal below (m^n) at level k."""
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k: m={m} k={k}")
    if n < k - m + 1:
        raise ValueError(f"need n >= k - m + 1: m={m} n={n} k={k}")
    return math.comb(k + 1, m) + (n - k + m - 1) * math.comb(k, m - 1)


def rank_gen_gamma(m: int, n: int, k: int) -> QPoly:
    """Rank generating function of the level-k stratum below (m^n), in closed
    form: q^(k-m+1) times the degree-m geometric sum with n-k+m terms times
    [k-1 choose m-2]_q, palindromic about mn/2.  No sweep calls it: the tests
    hold the window (k-1, k] of strata_walk to it."""
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k: m={m} k={k}")
    if n < k - m + 1:
        raise ValueError(f"need n >= k - m + 1: m={m} n={n} k={k}")
    cs = [0] * (k - m + 1) + list(gaussian(k - 1, m - 2).coeffs)
    _times_quotient(cs, m * (n - k + m), m)
    return QPoly(cs)


def is_unimodal(p: QPoly) -> bool:
    """Weakly rises then weakly falls across the support window.

    Interior zeros count as values, so gaps in the support break unimodality.
    The zero polynomial is unimodal.
    """
    cs = p.coeffs
    lo = next((i for i, c in enumerate(cs) if c), len(cs))
    steps = zip(islice(cs, lo, None), islice(cs, lo + 1, None))
    any(starmap(gt, steps))  # consume the rise up to and with its first descent
    return all(starmap(ge, steps))  # after it, no step rises


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


def _shift_walk(
    p: list[int], h: list[int], s: int, m: int, top: int
) -> Iterator[tuple[QPoly, bool]]:
    """Yield P_0 = p, then P_(r+1) = P_r + q^(s+rm) H, each with whether it
    is settled: whether it is its predecessor with one period inserted.

    p is extended in place: a step adds len(h) coefficients.  Needs s >= m.
    D = (1 - q^m) P_r + q^(s+rm) H is the same for every r, of degree top,
    and P_(r+1)[i] - P_r[i-m] = D[i], so the step at s+rm inserts exactly
    when s+rm > top.  In strata_walk D is the window polynomial, so the sum
    at x is settled exactly when x > n and m x > 2 deg D = 2(m-1)(b-m+1).

    Lemma (for non-negative coefficients).  Say the step at s_r = s + rm
    inserts, P_(r+1)[s_r:] == P_r[s_r-m:]: P_(r+1) is P_r with the block
    B = P_r[s_r-m:s_r] put in again at s_r.  For i >= s_r + m,
    P_(r+2)[i] = P_(r+1)[i] + H[i-s_r-m] = P_r[i-m] + H[i-m-s_r] = P_(r+1)[i-m],
    so the next step inserts too, and its block P_(r+1)[s_r:s_r+m] is B.
    Every later P is then P_(r+1) with more copies of B beside the BB it
    holds.  If B is not constant, its cyclic differences hold a fall and a
    rise, and BB shows a fall before a rise; a fall needs a positive
    coefficient, so both lie past the leading zeros, and no such P is
    unimodal.  If B is constant, a longer run of it changes no outcome.  So
    every P from the first settled one on has that one's outcome.
    """
    settled = False
    while True:
        yield QPoly(p), settled
        p += [0] * (s + len(h) - len(p))
        p[s:s + len(h)] = map(add, p[s:s + len(h)], h)
        settled = s > top
        s += m


def strata_walk(m: int, a: int, b: int, n: int) -> Iterator[tuple[QPoly, bool]]:
    """The sum of the strata at levels a+1 .. b below (m^x) for x = n, n+1,
    ..., each with whether it is settled: from the first settled one on,
    every sum has its outcome under is_unimodal (see _shift_walk).

    Needs m <= a < b and n >= b-m+1, where every level has a stratum.
    """
    if not 1 <= m <= a < b:
        raise ValueError(f"need 1 <= m <= a < b: m={m} a={a} b={b}")
    if n < b - m + 1:
        raise ValueError(f"need n >= b - m + 1: m={m} n={n} b={b}")
    # Level j's stratum is q^(j-m+1) G_j (1 - q^(m(x-j+m))) / (1 - q^m), with
    # G_j = [j-1 choose m-2]_q.  Summed over the levels, (1 - q^m) P_x =
    # D - H_x, where D = sum q^(j-m+1) G_j = [b choose m-1]_q - [a choose m-1]_q
    # by q-Pascal, and H_x = sum q^(j-m+1+m(x-j+m)) G_j is what the levels
    # gain from x to x+1.  G_j is palindromic of degree (m-2)(j-m+1), so H_x
    # is D reversed about m(x+1): H_x[i] = D[m(x+1) - i].
    if m == 1:  # every G_j is 0, and so is every sum
        return repeat((QPoly.zero(), True))
    upper, lower = gaussian(b, m - 1).coeffs, gaussian(a, m - 1).coeffs
    d = [*map(sub, upper, lower), *upper[len(lower):]]
    low = next(i for i, c in enumerate(d) if c)
    h = d[low:][::-1]
    s = m * (n + 1) - len(d) + 1  # the lowest exponent of H_n
    p = d + [0] * (s + len(h) - len(d))
    p[s:] = map(sub, p[s:], h)
    for r in range(m):  # divide by 1 - q^m: a prefix sum with stride m
        p[r::m] = accumulate(p[r::m])
    del p[-m:]  # the division is exact, so these are zero
    return _shift_walk(p, h, s, m, len(d) - 1)  # (1 - q^m) P_n + q^s H_n is D


def conjecture_sum(a: int, b: int, m: int) -> QPoly:
    """Large-n limit of the partial sum of stratum generating functions for
    levels a+1 .. b: the sum of q^(j-a-1) [j-1 choose m-2]_q."""
    if not m <= a < b:
        raise ValueError(f"need m <= a < b: m={m} a={a} b={b}")
    if m < 1:
        raise ValueError(f"m must be positive: {m}")
    # q-Pascal, [j choose m-1]_q = q^(j-m+1) [j-1 choose m-2]_q + [j-1 choose m-1]_q,
    # telescopes the limit to ([b choose m-1]_q - [a choose m-1]_q) / q^(a-m+2)
    return QPoly((gaussian(b, m - 1) - gaussian(a, m - 1)).coeffs[a - m + 2:])


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


def vanishes_mod_cyclotomic(sums: list[int], d: int) -> bool:
    """Whether the d-th cyclotomic polynomial divides a polynomial, given the
    polynomial's sieved_sums mod a multiple m of d.

    Those m sums are the polynomial's remainder mod q^m - 1.  Folded mod d
    they are its remainder mod q^d - 1, which divides q^m - 1; the d-th
    cyclotomic polynomial divides q^d - 1, so dividing the fold by it leaves
    the polynomial's own remainder.
    """
    if d < 1 or len(sums) % d != 0:
        raise ValueError(f"d must divide the number of sums: {len(sums)} sums, d={d}")
    folded = QPoly([sum(sums[r::d]) for r in range(d)])
    _, rem = divmod(folded, cyclotomic_polynomial(d))
    return rem.is_zero()


def cyclotomic_check(a: int, b: int, m: int, d: int) -> bool:
    """Whether sum of q^j [j-1 choose m-2]_q over j = a+1 .. b vanishes at
    every primitive d-th root of unity, by exact reduction mod the d-th
    cyclotomic polynomial."""
    if d <= 1 or m % d != 0:
        raise ValueError(f"d must be a divisor of m larger than 1: m={m} d={d}")
    # That sum is q^(a+1) times the large-n conjecture_sum, and q is a unit
    # mod the d-th cyclotomic polynomial, so reducing the latter decides it.
    return vanishes_mod_cyclotomic(sieved_sums(conjecture_sum(a, b, m), d), d)
