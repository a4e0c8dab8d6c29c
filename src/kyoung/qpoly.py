"""Exact integer q-polynomials: Gaussian binomials, rank generating functions,
the window sums of strata and their limit series, unimodality and symmetry
tests, sieved sums and residue tables mod q^m - 1, and cyclotomic reduction.

Coefficients are arbitrary-precision Python ints in a dense tuple.  A
geometric factor (1 - q^(st)) / (1 - q^s) is applied to a coefficient list in
place: a multiply by 1 - q^(st), then an exact division by 1 - q^s, which is
a prefix sum with stride s.  No rational function is ever left over, since
each such division is exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, chain, count, cycle, islice, starmap
from operator import add, ge, gt, index, sub

from .partitions import _echo, require_rectangle


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
            raise ValueError(f"power must be non-negative: {_echo(power)}")
        return cls((0,) * power + (coeff,))

    @classmethod
    def geometric(cls, step: int, terms: int) -> "QPoly":
        """1 + q^step + ... + q^(step*(terms-1)), expanded."""
        return times_geometric(cls.one(), step, terms)

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

    def shifted(self, s: int) -> "QPoly":
        """Multiply by q^s."""
        if s < 0:
            raise ValueError(f"shift must be non-negative: {_echo(s)}")
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
        raise ValueError(f"step must be positive: {_echo(step)}")
    if terms < 0:
        raise ValueError(f"terms must be non-negative: {_echo(terms)}")
    cs = list(p.coeffs)
    _times_quotient(cs, step * terms, step)
    return QPoly(cs)


# Cached: rank_gen_Lk repeats each (k, m-1) over n, and perfbench/traced.py reads cache_info().
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


def _level(m: int, n: int, k: int) -> int:
    """min(k, m + n - 1): from level m + n - 1 on, the ideal below (m^n) is the whole box."""
    require_rectangle(m, k, n)
    return min(k, m + n - 1)


def rank_gen_Lk(m: int, n: int, k: int) -> QPoly:
    """Rank generating function of the ideal below (m^n) at level k.

    [k+1 choose m]_q plus q^(k+1) times the degree-m geometric sum with
    n-k+m-1 terms times [k choose m-1]_q, at k no larger than m + n - 1.
    The head is the tail's Gaussian times (1 - q^(k+1)) / (1 - q^m).
    """
    k = _level(m, n, k)
    g = gaussian(k, m - 1)
    head = list(g.coeffs)
    _times_quotient(head, k + 1, m)
    return QPoly(head) + times_geometric(g, m, n - k + m - 1).shifted(k + 1)


def count_Lk(m: int, n: int, k: int) -> int:
    """Member count of the ideal below (m^n) at level k."""
    k = _level(m, n, k)
    return math.comb(k + 1, m) + (n - k + m - 1) * math.comb(k, m - 1)


def rank_gen_gamma(m: int, n: int, k: int) -> QPoly:
    """Rank generating function of the level-k stratum below (m^n), in closed
    form: q^(k-m+1) times the degree-m geometric sum with n-k+m terms times
    [k-1 choose m-2]_q, palindromic about mn/2.  No sweep calls it: the tests
    hold window_sum(LimitColumn(m), k-1, k, [n]) to it, and it takes that
    window's rule."""
    _check_window(m, k - 1, k, n)
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
    lo = twice_center + 1 - len(cs)  # each c_i below lo pairs with a zero past the top
    return not cs or lo >= 0 and not any(cs[:lo]) and cs[lo:] == cs[lo:][::-1]


def sieved_sums(p: QPoly, m: int) -> list[int]:
    """Coefficient totals by residue class of the exponent mod m."""
    if m < 1:
        raise ValueError(f"m must be positive: {_echo(m)}")
    return [sum(p.coeffs[r::m]) for r in range(m)]


def gaussian_residues(m: int, top: int) -> Iterator[list[int]]:
    """sieved_sums([x choose m-1]_q, m) for x = m-1 .. top, with no Gaussian built.

    The m totals are the remainder mod q^m - 1, and q-Pascal,
    [i+j choose j] = [i+j-1 choose j] + q^i [i+j-1 choose j-1], holds in
    Z[q]/(q^m - 1), where q^i rotates the totals by i.  So the rows
    j = 0 .. m-1 are filled for i = x-m+1 = 0, 1, ... in turn, m^2 additions
    an i, from i = -1, where row 0 is 1 and every other row is 0.
    """
    if top < m - 1:  # no x to yield: build no rows
        return
    rows = [[1, *[0] * (m - 1)], *([0] * m for _ in range(m - 1))]
    for i in range(top - m + 2):
        r = i % m
        for j in range(1, m):
            row = rows[j - 1]
            rows[j] = list(map(add, rows[j], row[-r:] + row[:-r]))
        yield rows[-1]


def _check_window(m: int, a: int, b: int, x: float = math.inf) -> None:
    """The rule of the window (a, b] below (m^x), x infinite in the large-x limit."""
    if not 1 <= m <= a < b:
        raise ValueError(f"need 1 <= m <= a < b: m={_echo(m)} a={_echo(a)} b={_echo(b)}")
    if x < b - m + 1:
        raise ValueError(f"need x >= b - m + 1: m={_echo(m)} x={_echo(x)} b={_echo(b)}")


class LimitColumn:
    """The first differences of the limit series F_x = [x choose m-1]_q / (1 - q^m)
    of one m, for the windows (a, b] that read them in turn.

    G_x = [x choose m-1]_q comes from G_(x-1) by the column recurrence
    G_x = G_(x-1) (1 - q^x) / (1 - q^(x-m+1)) (Andrews, The Theory of
    Partitions, ch. 3): one _times_quotient an x, from G_(m-1) = 1.  Each G_x
    is divided by 1 - q^m once, however many windows read it.  Past deg G_x,
    F_x repeats with period m, so the difference series is kept to
    deg G_x + m + 1 terms, one period further, and from deg G_x + 2 on it
    repeats too.  The callers read windows with a never falling, so a read of
    (a, b) drops every x below a; a read below that starts the column again.
    A column is read only through window_sum and window_failures, which judge
    m and the window first.
    """

    def __init__(self, m: int):
        self.m = m
        self._x, self._g = m - 1, [1]  # G_x at x = m - 1
        self._low = m - 1  # every x below it is dropped
        self._deltas: dict[int, list[int]] = {}

    def _read(self, a: int, b: int) -> tuple[list[int], list[int]]:
        """The difference series of F_a and of F_b, for m <= a < b."""
        if a < self._low:
            self.__init__(self.m)
        for x in range(self._low, a):
            self._deltas.pop(x, None)
        self._low = a
        while self._x < b:
            self._x += 1
            _times_quotient(self._g, self._x, self._x - self.m + 1)
            if self._x >= a:  # F_x = G_x / (1 - q^m) is a prefix sum with stride m
                f = [*self._g, *[0] * self.m]
                for r in range(self.m):
                    f[r::self.m] = accumulate(f[r::self.m])
                self._deltas[self._x] = list(map(sub, f, [0, *f]))
        return self._deltas[a], self._deltas[b]


def _window_differences(column: LimitColumn, a: int, b: int) -> tuple[list[int], list[int]]:
    """dS and dT of the window (a, b] at the column's m, to deg D + m + 1
    terms: past deg D, S and T repeat with period m, and so do dS and dT.

    Level j's stratum below (m^x) is q^(j-m+1) G_j (1 - q^(m(x-j+m))) / (1 - q^m),
    with G_j = [j-1 choose m-2]_q.  Summed over the levels a+1 .. b,
    (1 - q^m) P_x = D - q^s H with s = m(x+1) - deg D, where
    D = sum q^(j-m+1) G_j = [b choose m-1]_q - [a choose m-1]_q by q-Pascal,
    and H is D reversed from its lowest term q^(a-m+2), as G_j is palindromic
    of degree (m-2)(j-m+1).  So P_x = S - q^s T with S = D / (1 - q^m) and
    T = H / (1 - q^m).  At m = 1, D = 0.

    Both Gaussians are palindromic, so reversing D about its degree gives
    H = [b choose m-1]_q - q^((m-1)(b-a)) [a choose m-1]_q.  So with the limit
    series F_x of the column, each window is read by subtraction:
    S = F_b - F_a and T = F_b - q^((m-1)(b-a)) F_a.
    """
    m = column.m
    da, db = column._read(a, b)
    shift = (m - 1) * (b - a)  # len(db) = deg D + m + 1 = len(da) + shift
    dp = list(map(sub, db, [*da, *islice(cycle(da[-m:]), shift)]))  # dp[i] = S[i] - S[i-1]
    return dp, list(map(sub, db, [0] * shift + da))


def window_sum(column: LimitColumn, a: int, b: int, xs: list[int]) -> list[QPoly]:
    """P_x, the sum of the strata at levels a+1 .. b below (m^x), m = column.m,
    for each x of xs where _check_window admits, all cut from one read of the
    window's difference series off column and one prefix sum."""
    m = column.m
    _check_window(m, a, b, min(xs, default=math.inf))
    if not xs:
        return []
    size = m * max(xs) - a + m - 1  # deg P_x = m x - (a-m+2)
    dp, dt = _window_differences(column, a, b)
    p, t = (list(islice(accumulate(chain(d, cycle(d[-m:]))), size)) for d in (dp, dt))
    sums = []
    for x in xs:
        cut, s = p[:m * x - a + m - 1], m * (x + 1) - (m - 1) * (b - m + 1)
        cut[s:] = map(sub, cut[s:], t)
        sums.append(QPoly(cut))
    return sums


def window_failures(column: LimitColumn, a: int, b: int, xs: range) -> list[int]:
    """The x of xs, an ascending range, at which window_sum(column, a, b, [x])
    is not unimodal, m = column.m.  xs is read only up to the first x from
    which every larger x passes.

    Every stratum below (m^x) is palindromic about m x / 2, so P_x is too, and
    it is unimodal exactly when it weakly rises from its lowest term
    q^(a-m+2) up to c = floor(m x / 2).  P_x is S below s = m(x+1) - deg D
    and S - q^s T from s on (see _window_differences).  So x passes when S
    does not fall on [a-m+2, min(c, s-1)] and its stretch holds:
    dS[j] >= dT[j - s] for every j in [s, c].

    A stretch is compared only past the c of the latest x whose stretch held.
    dT[i] - dT[i-m] is the rise of H at i, and H, D reversed, rises up to
    deg D / 2, past every stretch, since each stratum of D is unimodal
    (Sylvester) and centred at or below deg D / 2.  So dT rises with stride m
    there, and a stretch that held at x holds at each later x up to that c,
    where s has moved by a multiple of m.
    """
    if not isinstance(xs, range) or xs.step < 1:
        raise ValueError(f"xs must be an ascending range: {_echo(xs)}")
    m = column.m
    _check_window(m, a, b, xs[0] if xs else b - m + 1)  # every later x is larger
    top = (m - 1) * (b - m + 1)  # deg D
    dp, dt = _window_differences(column, a, b)
    # past deg D, S repeats with period m, so its first fall, if any, is by deg D + m
    lo = a - m + 3
    fall = math.inf if min(dp[lo:], default=0) >= 0 else next(i for i in count(lo) if dp[i] < 0)
    held = 0  # dp[j] >= dt[j - s] for every j below it, at every later x
    failures = []
    for x in xs:
        s, c = m * (x + 1) - top, m * x // 2
        if s > c and fall == math.inf:  # s - c grows with x: every later x passes
            break
        if fall <= c and fall < s:
            failures.append(x)
            continue
        # the stretch [s, c] is empty when s > c, and inside dp when s <= c: then c <= deg D - m
        j = s if s > held else held
        if all(map(ge, dp[j:c + 1], dt[j - s:c + 1 - s])):
            held = c + 1 if c >= held else held
        else:
            failures.append(x)
    return failures


def conjecture_sum(a: int, b: int, m: int) -> QPoly:
    """Large-n limit of the partial sum of stratum generating functions for
    levels a+1 .. b: the sum of q^(j-a-1) [j-1 choose m-2]_q."""
    _check_window(m, a, b)
    # q-Pascal, [j choose m-1]_q = q^(j-m+1) [j-1 choose m-2]_q + [j-1 choose m-1]_q,
    # telescopes the limit to ([b choose m-1]_q - [a choose m-1]_q) / q^(a-m+2)
    return QPoly((gaussian(b, m - 1) - gaussian(a, m - 1)).coeffs[a - m + 2:])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> QPoly:
    """d-th cyclotomic polynomial: divide q^d - 1 by the lower cyclotomics."""
    if d < 1:
        raise ValueError(f"d must be positive: {_echo(d)}")
    poly = QPoly.monomial(d) - QPoly.one()
    for e in _divisors(d)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(e))
        if not rem.is_zero():
            raise ArithmeticError(f"cyclotomic recurrence left a remainder at d={_echo(d)}")
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
        count = _echo(len(sums))
        raise ValueError(f"d must divide the number of sums: {count} sums, d={_echo(d)}")
    folded = QPoly([sum(sums[r::d]) for r in range(d)])
    _, rem = divmod(folded, cyclotomic_polynomial(d))
    return rem.is_zero()


def cyclotomic_check(a: int, b: int, m: int, d: int) -> bool:
    """Whether sum of q^j [j-1 choose m-2]_q over j = a+1 .. b vanishes at
    every primitive d-th root of unity, by exact reduction mod the d-th
    cyclotomic polynomial."""
    if d <= 1 or m % d != 0:
        raise ValueError(f"d must be a divisor of m larger than 1: m={_echo(m)} d={_echo(d)}")
    # That sum is q^(a+1) times the large-n conjecture_sum, and q is a unit
    # mod the d-th cyclotomic polynomial, so reducing the latter decides it.
    return vanishes_mod_cyclotomic(sieved_sums(conjecture_sum(a, b, m), d), d)
