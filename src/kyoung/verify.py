"""Sweep runners that check the structural theorems and the unimodality
conjectures over parameter grids, producing JSON-serializable reports.

Theorem-status checks must never fail (a failure is an implementation bug);
conjecture-status checks record counterexamples as findings.  Skipped cells
are those where a statement makes no claim, and are never counted as passes.

Every check is a generator of cells run through one runner, ``_sweep``: a
cell is either a ``Skip`` or an ``(ok, counterexample)`` outcome.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from . import ideals, lattice, partitions, qpoly
from .ideals import IdealSpec
from .partitions import Parts
from .qpoly import QPoly

Range = int | tuple[int, int]


def _as_values(r: Range) -> list[int]:
    if isinstance(r, int):
        return [r]
    lo, hi = r
    if lo > hi:
        raise ValueError(f"empty range: {r}")
    return list(range(lo, hi + 1))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def qualifies(a: int, b: int, m: int) -> bool:
    """Neither endpoint congruent to -1 modulo any prime divisor of m."""
    return all(a % p != p - 1 and b % p != p - 1 for p in prime_factors(m))


@dataclass
class VerificationReport:
    """Outcome of one check over a grid; grid counts evaluated cells only."""

    check: str
    status: str
    grid: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed_ms: int = 0
    skip_reasons: Counter = field(default_factory=Counter)

    def record(self, ok: bool, counterexample: dict | None = None) -> None:
        self.grid += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.counterexamples.append(counterexample or {})

    def skip(self, reason: str, count: int = 1) -> None:
        self.skipped += count
        self.skip_reasons[reason] += count

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


SweepCell = Skip | tuple[bool, dict]


def _sweep(
    check: str, status: str, cells: Iterable[SweepCell], notes: list[str] | None = None
) -> VerificationReport:
    """Tally every cell into one timed report.

    notes are the check's own findings; the cell generator may append to the
    list until it is exhausted.  They come before one note per skip reason.
    """
    t0 = time.perf_counter()
    report = VerificationReport(check=check, status=status)
    for cell in cells:
        if isinstance(cell, Skip):
            report.skip(*cell)
        else:
            report.record(*cell)
    report.notes = list(notes or ())
    for reason, count in sorted(report.skip_reasons.items()):
        report.notes.append(f"skipped {count}: {reason}")
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def verify_conjecture_u(m: int, k_range: Range, n_range: Range) -> VerificationReport:
    """Unimodality of the stratum generating functions for prime m.

    For k not congruent to -1 or 0 mod m the stratum polynomial itself must
    be unimodal; for k congruent to -1 and n > k - m + 1 the sum with the
    next stratum must be.  Cells where no claim is made are skipped.
    """
    if not is_prime(m):
        raise ValueError(f"m must be prime: {m}")
    notes = [f"m={m}"]
    cells = _conjecture_u_cells(m, k_range, n_range, notes)
    return _sweep("conjecture-u", "conjecture", cells, notes)


def _conjecture_u_cells(
    m: int, k_range: Range, n_range: Range, notes: list[str]
) -> Iterator[SweepCell]:
    boundary = 0
    for k in _as_values(k_range):
        for n in _as_values(n_range):
            r = k % m
            if k <= m:
                yield Skip("k <= m")
            elif n < k - m + 1:
                yield Skip("n < k-m+1")
            elif r == 0:
                yield Skip("k = 0 mod m (no claim)")
            elif r == m - 1 and n == k - m + 1:
                yield Skip("k = -1 mod m at n = k-m+1 (no claim)")
            else:
                if r == m - 1:
                    poly = qpoly.rank_gen_gamma(m, n, k) + qpoly.rank_gen_gamma(m, n, k + 1)
                    mode = "u_k + u_k+1"
                else:
                    poly = qpoly.rank_gen_gamma(m, n, k)
                    mode = "u_k"
                    boundary += n == k - m + 1
                yield qpoly.is_unimodal(poly), {
                    "m": m,
                    "k": k,
                    "n": n,
                    "mode": mode,
                    "coefficients": poly.to_json_list(),
                }
    notes.append(f"boundary n = k-m+1 cells evaluated under the k != -1,0 clause: {boundary}")


def _prefix_sums(m: int, n: int, b_max: int) -> list[QPoly]:
    """prefix[x] = sum of stratum polynomials for levels m+1 .. x, x <= b_max."""
    prefix = [QPoly.zero()] * (b_max + 1)
    acc = QPoly.zero()
    for j in range(m + 1, b_max + 1):
        if n >= j - m + 1:
            acc = acc + qpoly.rank_gen_gamma(m, n, j)
        prefix[j] = acc
    return prefix


def verify_conjecture_gen(m: Range, a: Range, b: Range, n: Range) -> VerificationReport:
    """Unimodality of partial stratum sums for general m on qualifying windows.

    A window (a, b) qualifies when neither endpoint is congruent to -1 modulo
    any prime divisor of m; non-qualifying windows and cells where the finite
    form is undefined (n < b - m + 1) are skipped.
    """
    return _sweep("conjecture-gen", "conjecture", _conjecture_gen_cells(m, a, b, n))


def _conjecture_gen_cells(m: Range, a: Range, b: Range, n: Range) -> Iterator[SweepCell]:
    m_values, a_values, b_values, n_values = map(_as_values, (m, a, b, n))
    for m_val in m_values:
        if m_val < 1:
            raise ValueError(f"m must be positive: {m_val}")
        prefixes: dict[int, list[QPoly]] = {}
        for a_val in a_values:
            if a_val < m_val:
                yield Skip("a < m", len(b_values) * len(n_values))
                continue
            for b_val in b_values:
                if b_val <= a_val:
                    yield Skip("b <= a", len(n_values))
                    continue
                if not qualifies(a_val, b_val, m_val):
                    yield Skip("endpoint = -1 mod a prime divisor of m", len(n_values))
                    continue
                for n_val in n_values:
                    if n_val < b_val - m_val + 1:
                        yield Skip("n < b-m+1")
                        continue
                    if n_val not in prefixes:
                        prefixes[n_val] = _prefix_sums(m_val, n_val, max(b_values))
                    poly = prefixes[n_val][b_val] - prefixes[n_val][a_val]
                    yield qpoly.is_unimodal(poly), {
                        "m": m_val,
                        "a": a_val,
                        "b": b_val,
                        "n": n_val,
                        "coefficients": poly.to_json_list(),
                    }


def verify_sieved(m: Range, a: Range, b: Range, k: Range | None = None) -> VerificationReport:
    """Sieved-sum identities: equal residue-class totals of the limit-form
    partial sums with cyclotomic vanishing for every divisor d > 1 of m, and,
    for prime m over the optional k range, equal residue-class totals of the
    single Gaussian binomial [k-1 choose m-2]_q when k is not congruent to
    -1 or 0 mod m.

    Called with all-scalar m, a, b the window must qualify, otherwise
    ValueError; ranges sweep and skip non-qualifying cells.
    """
    notes: list[str] = []
    return _sweep("sieved", "theorem", _sieved_cells(m, a, b, k, notes), notes)


def _sieved_cells(
    m: Range, a: Range, b: Range, k: Range | None, notes: list[str]
) -> Iterator[SweepCell]:
    scalar = isinstance(m, int) and isinstance(a, int) and isinstance(b, int)
    for m_val in _as_values(m):
        if m_val < 2:
            raise ValueError(f"m must be at least 2: {m_val}")
        divisors = [d for d in range(2, m_val + 1) if m_val % d == 0]
        for a_val in _as_values(a):
            for b_val in _as_values(b):
                if not m_val <= a_val < b_val:
                    if scalar:
                        raise ValueError(f"need m <= a < b: m={m_val} a={a_val} b={b_val}")
                    yield Skip("window outside m <= a < b")
                    continue
                if not qualifies(a_val, b_val, m_val):
                    if scalar:
                        raise ValueError(
                            f"window endpoints must avoid -1 mod every prime divisor of m:"
                            f" m={m_val} a={a_val} b={b_val}"
                        )
                    yield Skip("endpoint = -1 mod a prime divisor of m")
                    continue
                limit = qpoly.conjecture_sum(a_val, b_val, m_val, None)
                sums = qpoly.sieved_sums(limit, m_val)
                total = limit(1)
                cyclo = all(qpoly.cyclotomic_check(a_val, b_val, m_val, d) for d in divisors)
                yield len(set(sums)) == 1 and sums[0] * m_val == total and cyclo, {
                    "m": m_val,
                    "a": a_val,
                    "b": b_val,
                    "sieved_sums": sums,
                    "total": total,
                    "cyclotomic": cyclo,
                }
    if k is None:
        return
    gauss_cells = 0
    for m_val in filter(is_prime, _as_values(m)):
        for k_val in _as_values(k):
            if k_val <= m_val or k_val % m_val in (0, m_val - 1):
                yield Skip("k <= m or k = -1,0 mod m (no single-gaussian claim)")
                continue
            sums = qpoly.sieved_sums(qpoly.gaussian(k_val - 1, m_val - 2), m_val)
            expected = math.comb(k_val - 1, m_val - 2)
            gauss_cells += 1
            yield len(set(sums)) == 1 and sums[0] * m_val == expected, {
                "m": m_val,
                "k": k_val,
                "sieved_sums": sums,
                "expected_total": expected,
            }
    notes.append(f"single-gaussian cells for prime m: {gauss_cells}")


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


def _sample_triples(members: list[Parts], limit: int, seed: int) -> list[tuple[Parts, Parts, Parts]]:
    size = len(members)
    if size**3 <= limit:
        return list(itertools.product(members, repeat=3))
    rng = random.Random(seed)
    draws = iter(lambda: members[rng.randrange(size)], None)
    return list(itertools.islice(zip(draws, draws, draws), limit))


def _involution_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            kc = partitions.k_conjugate(p, k)
            ok = (
                partitions.k_conjugate(kc, k) == p
                and sum(kc) == sum(p)
                and partitions.is_k_bounded(kc, k)
            )
            yield ok, {"k": k, "partition": list(p)}


def _kskew_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            s = partitions.k_skew(p, k)
            ok = s.row_lengths() == p
            ok = ok and all(s.hook_length(c) <= k for c in s.cells())
            for i in range(1, len(s.outer) + 1):
                for j in range(1, s.inner_at(i) + 1):
                    below = any(
                        s.inner_at(r) < j <= s.outer[r - 1]
                        for r in range(i + 1, len(s.outer) + 1)
                    )
                    if below and s.hook_length((i, j)) <= k:
                        ok = False
            yield ok, {"k": k, "partition": list(p)}


def _covering_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            for direction in ("up", "down"):
                ok = lattice.covers(p, k, direction) == lattice.covers_oracle(p, k, direction)
                yield ok, {"k": k, "partition": list(p), "dir": direction}


def _rectangle_conjugate_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for rect in partitions.all_k_rectangles(k):
            box = rect.parts
            box_conj = partitions.k_conjugate(box, k)
            for p in partitions.k_bounded_partitions(k, g.degree_max):
                ok = partitions.k_conjugate(partitions.union(p, box), k) == partitions.union(
                    partitions.k_conjugate(p, k), box_conj
                )
                yield ok, {"k": k, "width": rect.width, "partition": list(p)}
    for m in range(1, g.m_max + 1):
        for k in range(m, g.k_max + 1):
            for n in range(0, g.n_max + 1):
                ok = partitions.rectangle_k_conjugate(m, n, k) == partitions.k_conjugate(
                    (m,) * n, k
                )
                yield ok, {"m": m, "n": n, "k": k}
    for k in range(1, g.k_max + 1):
        for rect in partitions.all_k_rectangles(k):
            w = rect.width
            for mu in partitions.partitions_in_box(max(w - 1, 0), k - w):
                left = rect.parts + mu
                ok = partitions.k_conjugate(left, k) == (
                    partitions.conjugate(rect.parts) + partitions.conjugate(mu)
                )
                yield ok, {"k": k, "width": w, "mu": list(mu)}


def _rectangle_translation_cells(g: _Grid) -> Iterator[SweepCell]:
    for k in range(1, g.k_max + 1):
        for rect in partitions.all_k_rectangles(k):
            for p in partitions.k_bounded_partitions(k, g.degree_max):
                witness = lattice.check_rectangle_translation(p, rect, k)
                yield witness.equal, {
                    "k": k,
                    "width": rect.width,
                    "partition": list(p),
                    "lhs": [list(x) for x in witness.lhs],
                    "rhs": [list(x) for x in witness.rhs],
                }


def _subposet_cells(g: _Grid) -> Iterator[SweepCell]:
    for spec in _grid_cells(g):
        where = asdict(spec)
        members = ideals.enumerate_ideal(spec)
        for x in members:
            for y in members:
                ok = lattice.leq(x, y, spec.k) == partitions.contains(x, y)
                yield ok, {**where, "a": list(x), "b": list(y)}
        for y in members:
            down = set(lattice.covers(y, spec.k, "down"))
            for x in members:
                if sum(x) + 1 == sum(y) and partitions.contains(x, y):
                    yield x in down, {**where, "child": list(x), "parent": list(y)}


def _counts_cells(g: _Grid) -> Iterator[SweepCell]:
    for spec in _grid_cells(g):
        members = ideals.enumerate_ideal(spec)
        rv = ideals.rank_vector(members, spec.top_rank)
        poly = qpoly.rank_gen_Lk(spec.m, spec.n, spec.k)
        expected = tuple(poly.coefficient(i) for i in range(spec.top_rank + 1))
        ok = (
            len(members) == qpoly.count_Lk(spec.m, spec.n, spec.k)
            and len(members) == poly(1)
            and rv.counts == expected
        )
        yield ok, asdict(spec)


def _duality_cells(g: _Grid) -> Iterator[SweepCell]:
    for spec in _grid_cells(g):
        members = ideals.enumerate_ideal(spec)
        member_set = set(members)
        dual = functools.partial(ideals.complement_dual, spec=spec)
        meet = functools.partial(ideals.meet, spec=spec)
        join = functools.partial(ideals.join, spec=spec)
        triples = _sample_triples(members, 200, seed=spec.m * 100 + spec.n * 10 + spec.k)
        ok = (
            ideals.rank_vector(members, spec.top_rank).is_palindromic()
            and all((d := dual(p)) in member_set and dual(d) == p for p in members)
            and all(
                partitions.contains(x, y) == partitions.contains(dual(y), dual(x))
                for x in members
                for y in members
            )
            and all(
                meet(x, y) in member_set
                and join(x, y) in member_set
                and meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
                and join(x, meet(y, z)) == meet(join(x, y), join(x, z))
                for x, y, z in triples
            )
        )
        yield ok, asdict(spec)


def _gamma_cells(g: _Grid) -> Iterator[SweepCell]:
    for spec in _grid_cells(g):
        if spec.k == spec.m:
            chain = ideals.enumerate_ideal(spec)
            ok = len(chain) == spec.top_rank + 1 and all(sum(p) == i for i, p in enumerate(chain))
            yield ok, asdict(spec)
            continue
        members = set(ideals.enumerate_ideal(spec))
        smaller = set(ideals.enumerate_ideal(IdealSpec(spec.m, spec.n, spec.k - 1)))
        gamma = set(ideals.gamma_set(spec))
        ok = smaller <= members and members == smaller | gamma and not (smaller & gamma)
        gamma_rv = ideals.rank_vector(sorted(gamma), spec.top_rank)
        poly = qpoly.rank_gen_gamma(spec.m, spec.n, spec.k)
        ok = ok and gamma_rv.counts == tuple(
            poly.coefficient(i) for i in range(spec.top_rank + 1)
        )
        ok = ok and qpoly.is_symmetric(poly, spec.top_rank)
        for parent in members:
            stratum_parent = ideals.short_rows(parent, spec.m)
            for row in range(1, len(parent) + 1):
                if partitions.part_at(parent, row) <= partitions.part_at(parent, row + 1):
                    continue
                child = lattice._remove_box(parent, row)
                if child in members and abs(ideals.short_rows(child, spec.m) - stratum_parent) > 1:
                    ok = False
        yield ok, asdict(spec)


def _decomposition_cells(g: _Grid) -> Iterator[SweepCell]:
    for spec in _grid_cells(g):
        total = QPoly.geometric(1, spec.top_rank + 1)
        for r in range(spec.m + 1, spec.k + 1):
            total = total + qpoly.rank_gen_gamma(spec.m, spec.n, r)
        yield total == qpoly.rank_gen_Lk(spec.m, spec.n, spec.k), asdict(spec)


_STRUCTURE_FAMILIES = (
    ("structure-involution", _involution_cells),
    ("structure-kskew", _kskew_cells),
    ("structure-covering", _covering_cells),
    ("structure-rectangle-conjugate", _rectangle_conjugate_cells),
    ("structure-rectangle-translation", _rectangle_translation_cells),
    ("structure-subposet", _subposet_cells),
    ("structure-counts", _counts_cells),
    ("structure-duality", _duality_cells),
    ("structure-gamma", _gamma_cells),
    ("structure-decomposition", _decomposition_cells),
)


def verify_structure(
    m_max: int = 4, n_max: int = 6, k_max: int = 7, degree_max: int = 10
) -> list[VerificationReport]:
    """Run every structural invariant family; all are theorem-status."""
    g = _Grid(m_max, n_max, k_max, degree_max)
    return [_sweep(name, "theorem", cells(g)) for name, cells in _STRUCTURE_FAMILIES]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def export(obj: Any, fmt: str, path: str) -> None:
    """Write a diagram, report, rank vector, or polynomial to path.

    Formats: dot (diagrams), json (everything), csv (rank vectors).  Output
    is deterministic for identical in-memory inputs.
    """
    text = render(obj, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def render(obj: Any, fmt: str) -> str:
    if isinstance(obj, lattice.HasseDiagram):
        if fmt == "dot":
            return obj.to_dot()
        if fmt == "json":
            return _json_text(obj.to_json_dict())
    if isinstance(obj, VerificationReport):
        if fmt == "json":
            return _json_text(obj.to_json_dict())
    if isinstance(obj, list) and all(isinstance(r, VerificationReport) for r in obj):
        if fmt == "json":
            return _json_text([r.to_json_dict() for r in obj])
    if isinstance(obj, ideals.RankVector):
        if fmt == "csv":
            return obj.to_csv()
        if fmt == "json":
            return _json_text(obj.to_json_list())
    if isinstance(obj, QPoly):
        if fmt == "json":
            return _json_text(obj.to_json_list())
    raise ValueError(f"unsupported export: {type(obj).__name__} as {fmt!r}")


@dataclass
class SweepConfig:
    """One named check with its parameter grid and output destination."""

    check: str
    params: dict
    out: str | None = None
    fmt: str = "json"

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError(f"sweep config entry must be an object: {data!r}")
        unknown = set(data) - {"check", "params", "out", "format"}
        if unknown:
            raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
        if "check" not in data:
            raise ValueError("sweep config needs a 'check' name")
        for key in ("check", "out", "format"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"sweep config {key!r} must be a string: {data[key]!r}")
        if not isinstance(data.get("params", {}), dict):
            raise ValueError("sweep config 'params' must be an object")
        return cls(
            check=data["check"],
            params=data.get("params", {}),
            out=data.get("out"),
            fmt=data.get("format", "json"),
        )


def _is_pair(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) for v in value)
    )


def _param_range(value) -> Range:
    """An int, or a [lo, hi] pair of ints for the inclusive range lo..hi."""
    if isinstance(value, int):
        return value
    if _is_pair(value):
        return tuple(value)
    raise ValueError(f"expected int or [lo, hi]: {value!r}")


def _param_int(value) -> int:
    if isinstance(value, int):
        return value
    raise ValueError(f"expected int: {value!r}")


def _prime_values(value) -> list[int]:
    """conjecture-u's m: an int, the primes of a [lo, hi] range, or a list of those.

    Two ints read as [lo, hi], as in every check.  An int that is not prime
    is left for verify_conjecture_u to reject.
    """
    if isinstance(value, int):
        return [value]
    if _is_pair(value):
        primes = [p for p in _as_values(value) if is_prime(p)]
        if not primes:
            raise ValueError(f"no prime m in {value[0]}:{value[1]}")
        return primes
    if isinstance(value, (list, tuple)) and value:
        return [p for item in value for p in _prime_values(item)]
    raise ValueError(f"expected m as int, [lo, hi], or a list of those: {value!r}")


# check -> (runner, {param: default}); a param outside the map is an error.
# The runners look each verify_* up at call time, so a wrapper set on the
# module attribute (a tracer, a test double) is the one that runs.
_CHECKS = {
    "conjecture-u": (
        lambda m, k, n: [
            verify_conjecture_u(p, _param_range(k), _param_range(n)) for p in _prime_values(m)
        ],
        {"m": (2, 7), "k": (1, 25), "n": (1, 30)},
    ),
    "conjecture-gen": (
        lambda m, a, b, n: [verify_conjecture_gen(*map(_param_range, (m, a, b, n)))],
        {"m": (2, 12), "a": (2, 19), "b": (3, 20), "n": (1, 25)},
    ),
    "sieved": (
        lambda m, a, b, k: [verify_sieved(*map(_param_range, (m, a, b, k)))],
        {"m": (2, 12), "a": (2, 19), "b": (3, 20), "k": (3, 30)},
    ),
    "structure": (
        lambda **bounds: verify_structure(**{name: _param_int(v) for name, v in bounds.items()}),
        {"m_max": 4, "n_max": 6, "k_max": 7, "degree_max": 10},
    ),
}


def run_check(check: str, params: dict) -> list[VerificationReport]:
    """Dispatch a named check; returns one report per family or m value."""
    if check not in _CHECKS:
        raise ValueError(
            f"unknown check {check!r}; expected conjecture-u, conjecture-gen, sieved, or structure"
        )
    runner, defaults = _CHECKS[check]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown params for {check}: {unknown}; expected {sorted(defaults)}")
    values = {name: params.get(name) for name in defaults}
    return runner(**{name: defaults[name] if v is None else v for name, v in values.items()})


def run_sweep(config: SweepConfig) -> list[VerificationReport]:
    reports = run_check(config.check, config.params)
    if config.out:
        export(reports if len(reports) > 1 else reports[0], config.fmt, config.out)
    return reports
