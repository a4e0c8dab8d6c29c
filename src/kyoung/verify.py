"""Sweep runners that check the structural theorems and the unimodality
conjectures over parameter grids, producing JSON-serializable reports.

Theorem-status checks must never fail (a failure is an implementation bug);
conjecture-status checks record counterexamples as findings.  Skipped cells
are those where a statement makes no claim, and are never counted as passes.

Every check is a generator of cells: a ``Pass`` of cells that all hold, a
``Skip`` of cells where no claim is made, a ``Note`` of the check's own
findings, or the counterexample dict of one cell that fails.
``VerificationReport._add`` alone tallies them into a report, through
``_sweep`` or, for the per-ideal structure families, the walk
``_each_ideal``.  A cell that holds is a ``Pass``, so a counterexample is
built only for a cell that fails.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import ideals, lattice, partitions, qpoly
from .ideals import IdealSpec
from .partitions import Parts, _echo
from .qpoly import QPoly

Range = int | tuple[int, int]


def _as_values(r: Range) -> range:
    lo, hi = (r, r) if isinstance(r, int) else r
    if lo > hi:
        raise ValueError(f"empty range: {_echo(lo)}:{_echo(hi)}")
    if hi - lo >= sys.maxsize:  # len() of a longer range overflows
        raise ValueError(
            f"range too long: {_echo(lo)}:{_echo(hi)} has more than {sys.maxsize} values"
        )
    return range(lo, hi + 1)  # never expanded: a window reads n up to the first it decides


def _require_m(m: Range, least: int) -> Range:
    """m, an int or a range, when none of its values is below least: the
    rule of conjecture-gen (least 1) and of sieved (least 2)."""
    lo = _as_values(m).start
    if lo < least:
        raise ValueError(f"m must be at least {least}: {_echo(lo)}")
    return m


# Miller-Rabin with the first 13 prime bases is exact below the least
# composite that passes all of them (Sorenson and Webster, Math. Comp. 86,
# 2017); no primality is decided from there on.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _require_below_prime_limit(n: int) -> None:
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {_PRIME_LIMIT}: {_echo(n)}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases; n at or past
    _PRIME_LIMIT is an error, since no probable prime is taken for prime."""
    _require_below_prime_limit(n)
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(m: int) -> int:
    """m, when it is prime: the rule of conjecture-u."""
    if not is_prime(m):
        raise ValueError(f"m must be prime: {_echo(m)}")
    return m


def _primes_in(values: range) -> list[int]:
    """The primes in values, a range of step 1.  A range narrower than a
    thirty-second of the square root of its end has each value tested by
    is_prime; any other is one sieve, struck by the primes up to that root."""
    lo, hi = max(values.start, 2), values.stop - 1
    if hi < lo:
        return []
    _require_below_prime_limit(hi)
    root = math.isqrt(hi)
    if 32 * (hi - lo + 1) < root:  # about where the two cost the same, 10^10 <= hi <= 10^16
        return list(filter(is_prime, range(lo, hi + 1)))
    sieve = bytearray(b"\x01") * (hi - lo + 1)  # sieve[i]: lo + i is not yet struck out
    for p in _primes_in(range(2, root + 1)):
        start = max(p * p, -(-lo // p) * p) - lo
        sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return list(itertools.compress(range(lo, hi + 1), sieve))


def qualifies(a: int, b: int, m: int) -> bool:
    """Neither endpoint is -1 mod a prime divisor of m: a + 1 and b + 1 are prime to m.
    qualifies(x, x, m) is the rule's one-endpoint form: whether x may end a window."""
    return math.gcd(a + 1, m) == 1 and math.gcd(b + 1, m) == 1


class VerificationReport:
    """Outcome of one check over a grid; grid counts evaluated cells only."""

    def __init__(self, check: str, status: str):
        self.check, self.status = check, status
        self.grid = self.passed = self.failed = self.skipped = self.elapsed_ms = 0
        self.counterexamples: list[dict] = []
        self.notes: list[str] = []
        self._skips: Counter = Counter()
        self._seconds = 0.0

    def _add(self, cells: Iterable[SweepCell]) -> None:
        """Tally and time one run of cells; a report may take several."""
        t0 = time.perf_counter()
        for cell in cells:
            if isinstance(cell, Pass):
                self.passed += cell.count
            elif isinstance(cell, Skip):
                self._skips[cell.reason] += cell.count
            elif isinstance(cell, Note):
                self.notes.append(cell.text)
            else:
                self.failed += 1
                self.counterexamples.append(cell)
        self.grid = self.passed + self.failed
        self.skipped = sum(self._skips.values())
        self._seconds += time.perf_counter() - t0

    def _close(self) -> "VerificationReport":
        """The report, its notes the check's own, in the order its cells
        yield them, then one note per skip reason, timed over every run."""
        t0 = time.perf_counter()
        self.notes += [f"skipped {n}: {reason}" for reason, n in sorted(self._skips.items())]
        self.elapsed_ms = int((self._seconds + time.perf_counter() - t0) * 1000)
        return self

    def all_pass(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "grid": self.grid,
            "pass": self.passed,
            "fail": self.failed,
            "skip": self.skipped,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
            "elapsed_ms": self.elapsed_ms,
        }


class Skip(NamedTuple):
    """count cells, all skipped for one reason: the statement makes no claim there."""

    reason: str
    count: int = 1


class Pass(NamedTuple):
    """count cells that all hold, tallied without a counterexample each."""

    count: int


class Note(NamedTuple):
    """A finding of the check itself, reported in the order it is yielded."""

    text: str


SweepCell = Pass | Skip | Note | dict  # a dict is the counterexample of one failing cell

_HOLDS = Pass(1)  # one cell that holds, shared by every family


def _sweep(check: str, status: str, cells: Iterable[SweepCell]) -> VerificationReport:
    """Tally every cell into one timed report."""
    report = VerificationReport(check, status)
    report._add(cells)
    return report._close()


def verify_conjecture_u(m: int, k_range: Range, n_range: Range) -> VerificationReport:
    """Unimodality of the stratum generating functions for prime m.

    Each claim is a window that qualifies admits: the stratum (k-1, k] itself
    when it qualifies, else its sum with the next stratum, (k-1, k+1], for
    n > k - m + 1.  At prime m these are the paper's k not congruent to -1 or
    0 mod m and k congruent to -1.  Cells where no claim is made are skipped.
    """
    _require_prime(m)
    return _sweep("conjecture-u", "conjecture", _conjecture_u_cells(m, k_range, n_range))


def _window_cells(
    column: qpoly.LimitColumn, a: int, b: int, n_values: range, where: Callable[[int], dict]
) -> Iterator[SweepCell]:
    """One unimodality cell per n in the range n_values of the window (a, b],
    read off column, the LimitColumn of m that the check's windows share."""
    failures = qpoly.window_failures(column, a, b, n_values)
    for n, poly in zip(failures, qpoly.window_sum(column, a, b, failures)):
        yield {**where(n), "coefficients": poly.to_json_list()}
    yield Pass(len(n_values) - len(failures))


def _conjecture_u_cells(m: int, k_range: Range, n_range: Range) -> Iterator[SweepCell]:
    yield Note(f"m={m}")
    boundary = 0
    n_values = _as_values(n_range)
    column = qpoly.LimitColumn(m)  # its windows (k-1, b] come with k ascending
    for k in _as_values(k_range):
        if k <= m:
            yield Skip("k <= m", len(n_values))
            continue
        later = range(max(n_values.start, k - m + 1), n_values.stop)
        if len(later) < len(n_values):
            yield Skip("n < k-m+1", len(n_values) - len(later))
        if not later:
            continue
        at_first = later[0] == k - m + 1
        if qualifies(k - 1, k, m):
            b, mode = k, "u_k"
            boundary += at_first
        elif qualifies(k - 1, k + 1, m):
            if at_first:
                yield Skip("k = -1 mod m at n = k-m+1 (no claim)")
                later = later[1:]
            b, mode = k + 1, "u_k + u_k+1"
        else:
            yield Skip("k = 0 mod m (no claim)", len(later))
            continue
        if later:
            yield from _window_cells(
                column, k - 1, b, later, lambda n: {"m": m, "k": k, "n": n, "mode": mode}
            )
    yield Note(f"boundary n = k-m+1 cells evaluated under the k != -1,0 clause: {boundary}")


def verify_conjecture_gen(m: Range, a: Range, b: Range, n: Range) -> VerificationReport:
    """Unimodality of partial stratum sums for general m on qualifying windows.

    A window (a, b) qualifies when neither endpoint is congruent to -1 modulo
    any prime divisor of m; non-qualifying windows and cells where the finite
    form is undefined (n < b - m + 1) are skipped; m < 1 raises ValueError.
    """
    _require_m(m, 1)
    return _sweep("conjecture-gen", "conjecture", _conjecture_gen_cells(m, a, b, n))


def _conjecture_gen_cells(m: Range, a: Range, b: Range, n: Range) -> Iterator[SweepCell]:
    m_values, a_values, b_values, n_values = map(_as_values, (m, a, b, n))
    for m_val in m_values:
        column = qpoly.LimitColumn(m_val)  # its windows (a, b] come with a ascending
        for a_val in a_values:
            if a_val < m_val:
                yield Skip("a < m", len(b_values) * len(n_values))
                continue
            skips = Counter()  # each reason yielded once per (m, a)
            for b_val in b_values:
                if b_val <= a_val:
                    skips["b <= a"] += len(n_values)
                    continue
                if not qualifies(a_val, b_val, m_val):
                    skips["endpoint = -1 mod a prime divisor of m"] += len(n_values)
                    continue
                later = range(max(n_values.start, b_val - m_val + 1), n_values.stop)
                skips["n < b-m+1"] += len(n_values) - len(later)
                if later:
                    yield from _window_cells(
                        column, a_val, b_val, later, lambda n: dict(m=m_val, a=a_val, b=b_val, n=n)
                    )
            yield from (Skip(reason, count) for reason, count in skips.items() if count)


def verify_sieved(m: Range, a: Range, b: Range, k: Range | None = None) -> VerificationReport:
    """Sieved-sum identities: equal residue-class totals of the limit-form
    partial sums with cyclotomic vanishing for every divisor d > 1 of m, and,
    for prime m over the optional k range, of the single Gaussian binomial
    [k-1 choose m-2]_q, the window (k-1, k].  Each claim is a window that
    qualifies admits, which for the single Gaussian at prime m is the paper's
    k not congruent to -1 or 0 mod m.  A window outside m <= a < b, or one
    that does not qualify, is skipped, whether m, a and b come as ints or as
    ranges; m < 2 raises ValueError.

    Every cell is read off one tally per m: the residue totals of
    [x choose m-1]_q, its remainder mod q^m - 1, which
    qpoly.gaussian_residues fills by q-Pascal in that ring, so no Gaussian
    is built.
    """
    _require_m(m, 2)
    return _sweep("sieved", "theorem", _sieved_cells(m, a, b, k))


def _window_sums(tally: dict[int, list[int]], m: int, a: int, b: int) -> tuple[list[int], int]:
    # q-Pascal, [j choose m-1]_q = q^(j-m+1) [j-1 choose m-2]_q + [j-1 choose m-1]_q,
    # telescopes conjecture_sum(a, b, m) to ([b choose m-1]_q - [a choose m-1]_q) over
    # q^(a-m+2), whose residue r is residue r + a - m + 2 of the two Gaussians.  Its
    # total at q = 1 is sum C(j-1, m-2), j = a+1 .. b, by the hockey stick.
    d = list(map(operator.sub, tally[b], tally[a]))
    return d[(a + 2) % m:] + d[:(a + 2) % m], math.comb(b, m - 1) - math.comb(a, m - 1)


def _sieved_cells(m: Range, a: Range, b: Range, k: Range | None) -> Iterator[SweepCell]:
    a_values, b_values = _as_values(a), _as_values(b)
    k_values = [] if k is None else _as_values(k)
    single = 0  # the single-Gaussian cells of every prime m
    for m_val in _as_values(m):
        levels = k_values if is_prime(m_val) else []  # the single-Gaussian half's k
        claimed = [x for x in levels if x > m_val and qualifies(x - 1, x, m_val)]
        # the windows read the tally to max(b) only if some a puts a b inside m <= a < b
        reads_b = any(m_val <= a_val < b_values[-1] for a_val in a_values)
        top = max([b_values[-1]] * reads_b + claimed, default=-1)
        # the ends of a window and of a claimed (k-1, k] are at least m and qualify one by one
        residues = enumerate(qpoly.gaussian_residues(m_val, top), m_val - 1)
        tally = {x: sums for x, sums in residues if x >= m_val and qualifies(x, x, m_val)}
        for a_val in a_values:
            inside = [b_val for b_val in b_values if m_val <= a_val < b_val]
            if len(inside) < len(b_values):
                yield Skip("window outside m <= a < b", len(b_values) - len(inside))
            windows = [b_val for b_val in inside if qualifies(a_val, b_val, m_val)]
            if len(windows) < len(inside):
                yield Skip("endpoint = -1 mod a prime divisor of m", len(inside) - len(windows))
            for b_val in windows:
                sums, total = _window_sums(tally, m_val, a_val, b_val)
                # The cyclotomic clause, that the d-th cyclotomic polynomial divides
                # the window for every d | m with d > 1, says sum sums[r] z^r = 0 at
                # every m-th root of unity z != 1, each a primitive d-th root for one
                # such d.  So the discrete Fourier transform of the sums vanishes away
                # from 0: the sums are equal.  The tests check this against the division.
                equal = len(set(sums)) == 1
                yield _HOLDS if equal and sums[0] * m_val == total else {
                    "m": m_val,
                    "a": a_val,
                    "b": b_val,
                    "sieved_sums": sums,
                    "total": total,
                    "cyclotomic": equal,
                }
        if len(claimed) < len(levels):
            yield Skip(
                "k <= m or k = -1,0 mod m (no single-gaussian claim)", len(levels) - len(claimed)
            )
        for k_val in claimed:
            sums, total = _window_sums(tally, m_val, k_val - 1, k_val)  # [k-1 choose m-2]_q
            yield _HOLDS if len(set(sums)) == 1 and sums[0] * m_val == total else {
                "m": m_val,
                "k": k_val,
                "sieved_sums": sums,
                "expected_total": total,
            }
        single += len(claimed)
    if k is not None:
        yield Note(f"single-gaussian cells for prime m: {single}")


class _Grid(NamedTuple):
    """Bounds of the structure sweep."""

    m_max: int
    n_max: int
    k_max: int
    degree_max: int


def _grid_cells(g: _Grid) -> Iterator[IdealSpec]:
    for m in range(1, g.m_max + 1):
        for k in range(m, g.k_max + 1):
            for n in range(max(1, k - m + 1), g.n_max + 1):
                yield IdealSpec(m, n, k)


def _involution_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            kc = partitions.k_conjugate(p, k)
            ok = (
                partitions.k_conjugate(kc, k) == p
                and sum(kc) == sum(p)
                and partitions.is_k_bounded(kc, k)
            )
            yield _HOLDS if ok else {"k": k, "partition": list(p)}


def _kskew_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            s = partitions.k_skew(p, k)
            # the hook of inner cell (i, j) is p_i + h_j, h_j the skew cells in
            # column j, and one with h_j > 0 must have hook > k; so the least
            # nonzero h_j over columns 1..inner_i must exceed k - p_i
            least = list(
                itertools.accumulate((h or k + 1 for h in s.column_heights()), min, initial=k + 1)
            )
            # along a row of skew cells the arm and the leg both shrink to the
            # right, so each row's largest hook is at its first cell
            inner = s.inner + (0,) * (len(p) - len(s.inner))
            ok = s.row_lengths() == p and all(
                s.hook_length((i, a + 1)) <= k and least[a] > k - length
                for i, (length, a) in enumerate(zip(p, inner), 1)
            )
            yield _HOLDS if ok else {"k": k, "partition": list(p)}


def _covering_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            for direction in ("up", "down"):
                ok = lattice.covers(p, k, direction) == lattice.covers_oracle(p, k, direction)
                yield _HOLDS if ok else {"k": k, "partition": list(p), "dir": direction}


def _rectangle_conjugate_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        bounded = list(partitions.k_bounded_partitions(k, g.degree_max))
        for rect in partitions.all_k_rectangles(k):
            box = rect.parts
            box_conj = partitions.k_conjugate(box, k)
            for p in bounded:
                ok = partitions.k_conjugate(partitions.union(p, box), k) == partitions.union(
                    partitions.k_conjugate(p, k), box_conj
                )
                yield _HOLDS if ok else {"k": k, "width": rect.width, "partition": list(p)}
    for m in range(1, g.m_max + 1):
        for k in range(m, g.k_max + 1):
            for n in range(0, g.n_max + 1):
                ok = partitions.rectangle_k_conjugate(m, n, k) == partitions.k_conjugate(
                    (m,) * n, k
                )
                yield _HOLDS if ok else {"m": m, "n": n, "k": k}
    for k in range(1, g.k_max + 1):
        for rect in partitions.all_k_rectangles(k):
            w, box = rect.width, rect.parts
            box_conj = partitions.conjugate(box)
            for mu in partitions.partitions_in_box(max(w - 1, 0), k - w):
                ok = partitions.k_conjugate(box + mu, k) == box_conj + partitions.conjugate(mu)
                yield _HOLDS if ok else {"k": k, "width": w, "mu": list(mu)}


def _rectangle_translation_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        bounded = list(partitions.k_bounded_partitions(k, g.degree_max))
        for rect in partitions.all_k_rectangles(k):
            for p in bounded:
                lhs, rhs = lattice.check_rectangle_translation(p, rect, k)
                if lhs == rhs:
                    yield _HOLDS
                    continue
                yield {
                    "k": k,
                    "width": rect.width,
                    "partition": list(p),
                    "lhs": [list(x) for x in lhs],
                    "rhs": [list(x) for x in rhs],
                }


def _one_box_below(p: Parts) -> Iterator[Parts]:
    """The partitions one box below p, lexicographically: p with a box taken
    off each row longer than the next, the first row first."""
    for i, v in enumerate(p):
        if i + 1 == len(p) or p[i + 1] < v:
            yield p[:i] + (v - 1,) + p[i + 1:] if v > 1 else p[:i]  # a row of 1 is the last


class _IdealView:
    """One ideal as the per-ideal families read it: its diagram, the
    members, their positions, the members one box below each member, and
    whether the members are closed under meet and join.  Each part is built
    when a family first reads it, so its time is that family's, and the
    walk drops the view before the next ideal."""

    def __init__(self, spec: IdealSpec):
        self.spec = spec

    @functools.cached_property
    def diagram(self) -> lattice.HasseDiagram:
        """The members and their one-box steps."""
        return ideals.hasse_diagram(self.spec)

    @functools.cached_property
    def members(self) -> list[Parts]:
        """By degree, then lexicographically."""
        return self.diagram.vertices()

    @functools.cached_property
    def position(self) -> dict[Parts, int]:
        """Each member's position in members."""
        return {p: i for i, p in enumerate(self.members)}

    @functools.cached_property
    def below(self) -> list[list[int]]:
        """The positions of the members one box below each member, in
        ascending order: _one_box_below looked up among the members, not
        read off the diagram."""
        position = self.position
        return [[position[q] for q in _one_box_below(p) if q in position] for p in self.members]

    @functools.cached_property
    def closed(self) -> bool:
        """Whether the members are closed under meet and join.  Meet (join)
        takes the smaller (larger) length and number of parts equal to m,
        and membership depends on those alone, so one pair per pair of such
        classes decides.  Each class's representative is checked a member
        once, and the pairs are combined by the unchecked meet_parts and
        join_parts."""
        spec, position = self.spec, self.position
        reps = {(len(p), p.count(spec.m)): p for p in self.members}.values()
        pairs = list(itertools.combinations_with_replacement(reps, 2))
        return (
            all(ideals.is_member(x, spec) for x in reps)
            and all(p in position for p in itertools.starmap(ideals.meet_parts, pairs))
            and all(p in position for p in itertools.starmap(ideals.join_parts, pairs))
        )


def _subposet_cells(view: _IdealView) -> Iterator[SweepCell]:
    spec, steps, members = view.spec, view.diagram, view.members
    diagram = lattice.build_ideal(spec.rectangle, spec.k)
    vertices = diagram.vertices()
    if vertices != members:  # both come by degree, then lexicographically
        vertex_set = set(vertices)
        extra = [list(v) for v in vertices if v not in view.position]
        missing = [list(p) for p in members if p not in vertex_set]
        yield {**spec._asdict(), "extra": extra, "missing": missing}
        return
    # the k-covers must be the diagram's one-box steps, and those the steps
    # looked up among the members, all sorted (lower, upper) position pairs:
    # the lowest lower end among the pairs on one side only is the child
    looked = sorted((x, y) for y, xs in enumerate(view.below) for x in xs)
    for found, expected in ((diagram.edges, steps.edges), (steps.edges, looked)):
        if found != expected:
            diff = set(found) ^ set(expected)
            x = min(diff)[0]
            extra = [list(members[u]) for v, u in found if v == x and (v, u) in diff]
            missing = [list(members[u]) for v, u in expected if v == x and (v, u) in diff]
            yield {**spec._asdict(), "child": list(members[x]), "extra": extra, "missing": missing}
            return
    # Closed under meet and join, the members are a distributive lattice
    # under containment.  A cover u < v in it makes v the join of u and a
    # join-irreducible j whose meet with u is j_*, the one member j covers
    # (Stanley, EC1 3.4).  Size is a valuation on the box, so j is as many
    # boxes above j_* as v is above u, and a member one box below j would
    # lie below j_* and yet be larger.  So when every member other than ()
    # has a step into it, every cover is one box, and reachability along
    # the steps is containment: the N^2 pair cells hold, for N members, and
    # so does one cover cell per step, a path of exactly one edge.
    holds = view.closed and all(view.below[1:])
    yield Pass(len(members) ** 2 + len(looked)) if holds else spec._asdict()


def _counts_cells(view: _IdealView) -> Iterator[SweepCell]:
    spec, members = view.spec, view.members
    poly = qpoly.rank_gen_Lk(spec.m, spec.n, spec.k)
    ok = (
        len(members) == qpoly.count_Lk(spec.m, spec.n, spec.k)
        and len(members) == poly(1)
        and ideals.rank_vector(members, spec.top_rank) == poly
    )
    yield _HOLDS if ok else spec._asdict()


def _duality_cells(view: _IdealView) -> Iterator[SweepCell]:
    spec, members, below = view.spec, view.members, view.below
    # the members come off the ideal's diagram, and each dual must be one of
    # them (position.get gives None for any other), so they rotate unchecked
    dual = [view.position.get(ideals.complement_dual_parts(p, spec)) for p in members]
    # Order reversal: with the members closed and every member other than ()
    # a step above another, containment is reachability along the steps
    # (see _subposet_cells), so the involution reverses it exactly when it
    # takes each step x below y to a step dual(y) below dual(x).
    ok = (
        qpoly.is_symmetric(ideals.rank_vector(members, spec.top_rank), spec.top_rank)
        and None not in dual
        and all(dual[d] == x for x, d in enumerate(dual))
        and view.closed
        and all(below[1:])
        and all(dual[y] in below[dual[x]] for y, xs in enumerate(below) for x in xs)
    )
    yield _HOLDS if ok else spec._asdict()


def _gamma_cells(view: _IdealView) -> Iterator[SweepCell]:
    spec, diagram = view.spec, view.diagram
    if spec.k == spec.m:  # a chain: one member per degree
        chain = [len(rank) for rank in diagram.ranks] == [1] * (spec.top_rank + 1)
        yield _HOLDS if chain else spec._asdict()
        return
    # level k - 1's members, enumerated on their own: L^k splits as L^(k-1) and gamma
    smaller = set(ideals.enumerate_ideal(spec._replace(k=spec.k - 1)))
    gamma = set(ideals.gamma_set(spec))
    ok = view.position.keys() == smaller | gamma and not (smaller & gamma)
    # the window (k-1, k], read through a column of its own
    (poly,) = qpoly.window_sum(qpoly.LimitColumn(spec.m), spec.k - 1, spec.k, [spec.n])
    ok = ok and ideals.rank_vector(gamma, spec.top_rank) == poly
    ok = ok and qpoly.is_symmetric(poly, spec.top_rank)
    # the up-edges are the one-box steps between members: none crosses two strata
    rows = [ideals.short_rows(x, spec.m) for x in view.members]
    ok = ok and all(abs(rows[u] - rows[x]) <= 1 for x, u in diagram.edges)
    yield _HOLDS if ok else spec._asdict()


def _decomposition_cells(view: _IdealView) -> Iterator[SweepCell]:
    spec = view.spec
    strata = QPoly.zero()
    if spec.k > spec.m:  # the strata at levels m+1 .. k
        (strata,) = qpoly.window_sum(qpoly.LimitColumn(spec.m), spec.m, spec.k, [spec.n])
    total = QPoly.geometric(1, spec.top_rank + 1) + strata
    yield _HOLDS if total == qpoly.rank_gen_Lk(spec.m, spec.n, spec.k) else spec._asdict()


_STRUCTURE_FAMILIES = (
    ("structure-involution", _involution_cells),
    ("structure-kskew", _kskew_cells),
    ("structure-covering", _covering_cells),
    ("structure-rectangle-conjugate", _rectangle_conjugate_cells),
    ("structure-rectangle-translation", _rectangle_translation_cells),
)

# each a function of one ideal's view, keeping nothing from one ideal to the next
_PER_IDEAL_FAMILIES = (
    ("structure-subposet", _subposet_cells),
    ("structure-counts", _counts_cells),
    ("structure-duality", _duality_cells),
    ("structure-gamma", _gamma_cells),
    ("structure-decomposition", _decomposition_cells),
)


def _each_ideal(g: _Grid) -> list[VerificationReport]:
    """The per-ideal families' reports on g, walked ideal by ideal: every
    family reads one view of an ideal before the next ideal's is built."""
    reports = [VerificationReport(name, "theorem") for name, _ in _PER_IDEAL_FAMILIES]
    for spec in _grid_cells(g):
        view = _IdealView(spec)
        for report, (_, family) in zip(reports, _PER_IDEAL_FAMILIES):
            report._add(family(view))
    return [report._close() for report in reports]


def verify_structure(
    m_max: int = 4, n_max: int = 6, k_max: int = 7, degree_max: int = 10
) -> list[VerificationReport]:
    """Run every structural invariant family; all are theorem-status."""
    g = _Grid(m_max, n_max, k_max, degree_max)
    per_item = [_sweep(name, "theorem", cells(g)) for name, cells in _STRUCTURE_FAMILIES]
    return per_item + _each_ideal(g)


def render(obj: Any) -> str:
    """JSON text of a report or a list of reports: what
    json.dumps(payload, indent=2) writes, and a newline."""
    payload = [r.to_json_dict() for r in obj] if isinstance(obj, list) else obj.to_json_dict()
    return json.dumps(payload, indent=2) + "\n"


def export(obj: Any, path: str) -> None:
    """Write render(obj) to path; identical inputs give identical bytes."""
    text = render(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class SweepConfig:
    """One named check with its parameter grid and output destination.  The
    params are parsed once, defaults included, when the config is made."""

    def __init__(self, check: str, params: dict, out: str | None = None):
        self.check, self.params, self.out = check, params, out
        self._runner, self._values = _parse_params(check, params)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"sweep config entry must be an object: {_echo(data)}")
        _require_keys(data, {"check", "params", "out"})
        if "check" not in data:
            raise ValueError("sweep config needs a 'check' name")
        for key in ("check", "out"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"sweep config {key!r} must be a string: {_echo(data[key])}")
        if not isinstance(data.get("params", {}), dict):
            raise ValueError("sweep config 'params' must be an object")
        return cls(data["check"], data.get("params", {}), data.get("out"))

    @classmethod
    def list_from_json(cls, data) -> list["SweepConfig"]:
        """The entries of a sweep config document, {"sweeps": [...]} or one entry."""
        if not (isinstance(data, dict) and "sweeps" in data):
            return [cls.from_json_dict(data)]
        _require_keys(data, {"sweeps"})
        entries = data["sweeps"]
        if not isinstance(entries, list):
            raise ValueError(f"sweep config 'sweeps' must be a list of objects: {_echo(entries)}")
        return [cls.from_json_dict(entry) for entry in entries]


def _require_keys(data: dict, known: set[str]) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {_echo(unknown)}")


def _is_int(value) -> bool:
    """An int that is not a bool: JSON true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))


def _param_range(value) -> Range:
    """An int, or a [lo, hi] pair of ints for the inclusive range lo..hi,
    neither empty nor too long."""
    if _is_int(value):
        return value
    if _is_pair(value):
        _as_values(tuple(value))
        return tuple(value)
    raise ValueError(f"expected int or [lo, hi]: {_echo(value)}")


def _param_int(value) -> int:
    """A structure bound: an int >= 0, where 0 leaves a family empty."""
    if not _is_int(value):
        raise ValueError(f"expected int: {_echo(value)}")
    if value < 0:
        raise ValueError(f"expected int >= 0: {_echo(value)}")
    return value


def _m_range(value, least: int) -> Range:
    """conjecture-gen's and sieved's m: a range, none of whose values is below least."""
    return _require_m(_param_range(value), least)


def _prime_values(value, depth: int = 2) -> list[int]:
    """conjecture-u's m: a prime int, the primes of a [lo, hi] range, or a
    list of those or of lists of those, no deeper.

    Two ints read as [lo, hi], as in every check, so [[2], [7]] is 2 and 7.
    """
    if _is_int(value):
        return [_require_prime(value)]
    if _is_pair(value):
        primes = _primes_in(_as_values(value))
        if not primes:
            raise ValueError(f"no prime m in {_echo(value[0])}:{_echo(value[1])}")
        return primes
    if depth and isinstance(value, (list, tuple)) and value:
        return [p for item in value for p in _prime_values(item, depth - 1)]
    raise ValueError(f"expected m as int, [lo, hi], or a list of those: {_echo(value)}")


# check -> (runner, {param: (parser, default)}); a param outside the map is an
# error.  A parser judges the whole value, its check's rule on m included,
# through the same _require_* that the verify_* call, so a sweep file is
# judged before any of its sweeps runs.  The runners take parsed values and
# look each verify_* up at call time, so a wrapper set on the module
# attribute (a tracer) is the one that runs.
_CHECKS = {
    "conjecture-u": (
        lambda m, k, n: [verify_conjecture_u(p, k, n) for p in m],
        {"m": (_prime_values, (2, 7)), "k": (_param_range, (1, 25)), "n": (_param_range, (1, 30))},
    ),
    "conjecture-gen": (
        lambda m, a, b, n: [verify_conjecture_gen(m, a, b, n)],
        {"m": (functools.partial(_m_range, least=1), (2, 12)), "a": (_param_range, (2, 19)),
         "b": (_param_range, (3, 20)), "n": (_param_range, (1, 25))},
    ),
    "sieved": (
        lambda m, a, b, k: [verify_sieved(m, a, b, k)],
        {"m": (functools.partial(_m_range, least=2), (2, 12)), "a": (_param_range, (2, 19)),
         "b": (_param_range, (3, 20)), "k": (_param_range, (3, 30))},
    ),
    "structure": (
        lambda **bounds: verify_structure(**bounds),
        # verify_structure's own defaults: each argument has one, and they lead co_varnames
        {name: (_param_int, bound) for name, bound in
         zip(verify_structure.__code__.co_varnames, verify_structure.__defaults__)},
    ),
}


def _parse_params(check: str, params: dict) -> tuple[Callable, dict]:
    """The runner of check and all its params parsed, defaults included; an
    unknown check or param, or a malformed value, is an error."""
    if check not in _CHECKS:
        *others, last = _CHECKS
        raise ValueError(f"unknown check {_echo(check)}; expected {', '.join(others)}, or {last}")
    runner, spec = _CHECKS[check]
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ValueError(f"unknown params for {check}: {_echo(unknown)}; expected {sorted(spec)}")
    return runner, {name: parse(params.get(name, d)) for name, (parse, d) in spec.items()}


def run_check(check: str, params: dict) -> list[VerificationReport]:
    """Dispatch a named check; returns one report per family or m value."""
    return run_sweep(SweepConfig(check, params))


def run_sweep(config: SweepConfig) -> list[VerificationReport]:
    """Run the parsed check of config and write its reports to config.out, if set."""
    reports = config._runner(**config._values)
    if config.out is not None:
        export(reports if len(reports) > 1 else reports[0], config.out)
    return reports
