"""Report plumbing, sweep runners, exports, and configuration parsing."""

import functools
import itertools
import json
import math
import operator
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from check_targets import report_digest
from kyoung import ideals, lattice, partitions, qpoly, verify
from kyoung.ideals import IdealSpec
from kyoung.lattice import HasseDiagram, build_ideal
from kyoung.qpoly import QPoly, conjecture_sum
from test_cli import run_capped
from test_qpoly import finite_strata_by_addition, is_period_insertion
from kyoung.verify import (
    Note,
    Pass,
    Skip,
    SweepConfig,
    VerificationReport,
    export,
    is_prime,
    qualifies,
    render,
    run_check,
    run_sweep,
    verify_conjecture_gen,
    verify_conjecture_u,
    verify_sieved,
    verify_structure,
)


def spec_dict(spec):
    """A failing structure cell's counterexample: the literal dict of its
    spec, keys m, n, k in that order."""
    return {"m": spec.m, "n": spec.n, "k": spec.k}


def each_ideal(family, grid):
    """The cells of one per-ideal family on each ideal of grid in turn, read
    through a view of its own."""
    views = map(verify._IdealView, verify._grid_cells(grid))
    return itertools.chain.from_iterable(map(family, views))


def each_level(family, grid):
    """The cells of one per-level family on each level of grid in turn, read
    through a view of its own."""
    levels = (verify._Level(k, grid.degree_max) for k in range(1, grid.k_max + 1))
    return itertools.chain.from_iterable(map(family, levels))


# The per-item families as five sweeps, the walk's oracle: each enumerates
# every level again, and reads k-skews, k-conjugates and covers through the
# memos.  They read partitions and lattice through verify's view of them,
# where the fault tests plant their faults.


def oracle_involution_cells(g):
    partitions = verify.partitions
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            kc = partitions.k_conjugate(p, k)
            ok = (
                partitions.k_conjugate(kc, k) == p
                and sum(kc) == sum(p)
                and partitions.is_k_bounded(kc, k)
            )
            yield verify._HOLDS if ok else {"k": k, "partition": list(p)}


def oracle_kskew_cells(g):
    partitions = verify.partitions
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            s = partitions.k_skew(p, k)
            least = list(
                itertools.accumulate((h or k + 1 for h in s.column_heights()), min, initial=k + 1)
            )
            inner = s.inner + (0,) * (len(p) - len(s.inner))
            ok = s.row_lengths() == p and all(
                s.hook_length((i, a + 1)) <= k and least[a] > k - length
                for i, (length, a) in enumerate(zip(p, inner), 1)
            )
            yield verify._HOLDS if ok else {"k": k, "partition": list(p)}


def oracle_covering_cells(g):
    partitions, lattice = verify.partitions, verify.lattice
    for k in range(1, g.k_max + 1):
        for p in partitions.k_bounded_partitions(k, g.degree_max):
            for direction in ("up", "down"):
                ok = lattice.covers(p, k, direction) == lattice.covers_oracle(p, k, direction)
                yield verify._HOLDS if ok else {"k": k, "partition": list(p), "dir": direction}


def oracle_rectangle_conjugate_cells(g):
    partitions = verify.partitions
    for k in range(1, g.k_max + 1):
        bounded = list(partitions.k_bounded_partitions(k, g.degree_max))
        for rect in partitions.all_k_rectangles(k):
            box = rect.parts
            box_conj = partitions.k_conjugate(box, k)
            for p in bounded:
                ok = partitions.k_conjugate(partitions.union(p, box), k) == partitions.union(
                    partitions.k_conjugate(p, k), box_conj
                )
                yield verify._HOLDS if ok else {"k": k, "width": rect.width, "partition": list(p)}
    for m in range(1, g.m_max + 1):
        for k in range(m, g.k_max + 1):
            for n in range(0, g.n_max + 1):
                ok = partitions.rectangle_k_conjugate(m, n, k) == partitions.k_conjugate(
                    (m,) * n, k
                )
                yield verify._HOLDS if ok else {"m": m, "n": n, "k": k}
    for k in range(1, g.k_max + 1):
        for rect in partitions.all_k_rectangles(k):
            w, box = rect.width, rect.parts
            box_conj = partitions.conjugate(box)
            for mu in partitions.partitions_in_box(max(w - 1, 0), k - w):
                ok = partitions.k_conjugate(box + mu, k) == box_conj + partitions.conjugate(mu)
                yield verify._HOLDS if ok else {"k": k, "width": w, "mu": list(mu)}


def oracle_rectangle_translation_cells(g):
    partitions, lattice = verify.partitions, verify.lattice
    for k in range(1, g.k_max + 1):
        bounded = list(partitions.k_bounded_partitions(k, g.degree_max))
        for rect in partitions.all_k_rectangles(k):
            for p in bounded:
                lhs, rhs = lattice.check_rectangle_translation(p, rect, k)
                if lhs == rhs:
                    yield verify._HOLDS
                    continue
                yield {
                    "k": k,
                    "width": rect.width,
                    "partition": list(p),
                    "lhs": [list(x) for x in lhs],
                    "rhs": [list(x) for x in rhs],
                }


ORACLE_FAMILIES = (
    ("structure-involution", oracle_involution_cells),
    ("structure-kskew", oracle_kskew_cells),
    ("structure-covering", oracle_covering_cells),
    ("structure-rectangle-conjugate", oracle_rectangle_conjugate_cells),
    ("structure-rectangle-translation", oracle_rectangle_translation_cells),
)


def untimed(reports):
    """Each report's JSON document by check name, its elapsed_ms set to 0."""
    return {r.check: {**r.to_json_dict(), "elapsed_ms": 0} for r in reports}


def per_item_reports(grid):
    """The per-item families' reports on grid, by the walk and by the oracle,
    untimed."""
    oracle = [verify._sweep(name, "theorem", cells(grid)) for name, cells in ORACLE_FAMILIES]
    return untimed(verify._each_level(grid)), untimed(oracle)


def upsets(rows, spec, reverse=False):
    """Bit j of entry x is set when rows[x] fits inside rows[j] (reverse: when
    rows[j] fits inside rows[x]), rows being partitions in the m x n box.

    Part comparisons only, no order theory: for each row index i and
    threshold t, the rows whose part i is at least t (at most t); the entry
    of x ANDs these over i at t = x_i.
    """
    padded = [x + (0,) * (spec.n - len(x)) for x in rows]
    tables = []
    for parts in zip(*padded):
        by_part = [0] * (spec.m + 1)
        for j, v in enumerate(parts):
            by_part[v] |= 1 << j
        if reverse:
            tables.append(list(itertools.accumulate(by_part, operator.or_)))
        else:
            tables.append(list(itertools.accumulate(by_part[::-1], operator.or_))[::-1])
    return [functools.reduce(operator.and_, map(list.__getitem__, tables, x)) for x in padded]


def closed_over_every_pair(view):
    """Whether the meet and the join of every pair of members, through
    verify's view of ideals, is a member."""
    pairs = list(itertools.combinations_with_replacement(view.members, 2))
    combined = itertools.chain(
        itertools.starmap(verify.ideals.meet_parts, pairs),
        itertools.starmap(verify.ideals.join_parts, pairs),
    )
    return set(view.members).issuperset(combined)


def subposet_over_every_pair(view):
    """structure-subposet's verdict by the all-pairs route: the k-cover
    diagram's vertices are the members, each k-cover adds one box, the
    members reachable from each member along the k-covers are those that
    contain it, compared as bitsets, and the members are closed over every
    pair.  A k-cover's upper end has the later position, so walking the
    sorted edges backwards reads each reach[u] once it is final."""
    spec, members, edges = view.spec, view.members, view.diagram.edges
    if view.diagram.vertices() != members:
        return False
    reach = [1 << v for v in range(len(members))]
    for v, u in reversed(edges):
        reach[v] |= reach[u]
    return (
        all(sum(members[u]) == sum(members[v]) + 1 for v, u in edges)
        and reach == upsets(members, spec)
        and closed_over_every_pair(view)
    )


def duality_over_every_pair(view):
    """structure-duality's verdict by the all-pairs route: a palindromic rank
    vector, duals through verify's view of complement_dual_parts that are an
    involution on the members, the members' up-sets equal to the duals'
    down-sets, and closure over every pair."""
    spec, members = view.spec, view.members
    dual = {p: verify.ideals.complement_dual_parts(p, spec) for p in members}
    return (
        qpoly.is_symmetric(ideals.rank_vector(members, spec.top_rank), spec.top_rank)
        and all(dual.get(d) == p for p, d in dual.items())
        and upsets(members, spec) == upsets(list(dual.values()), spec, reverse=True)
        and closed_over_every_pair(view)
    )


class TestHelpers:
    def test_as_values(self):
        assert verify._as_values(5) == range(5, 6)
        assert verify._as_values((2, 5)) == range(2, 6)
        assert verify._as_values((3, 3)) == range(3, 4)
        assert verify._as_values((1, 10**12)) == range(1, 10**12 + 1)  # never expanded
        assert len(verify._as_values((1, sys.maxsize))) == sys.maxsize
        with pytest.raises(ValueError, match="empty range"):
            verify._as_values((5, 2))
        for r in ((0, sys.maxsize), (1, 10**19)):
            with pytest.raises(ValueError, match="range too long"):
                verify._as_values(r)

    def test_is_prime(self):
        assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
        # strong pseudoprimes to the first 4, 9 and 12 prime bases, then the
        # Mersenne numbers 2^31 - 1 and 2^61 - 1 (prime) and 2^67 - 1 (not)
        for n in (3215031751, 3825123056546413051, 318665857834031151167461, 2**67 - 1):
            assert not is_prime(n), n
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
        assert not is_prime(verify._PRIME_LIMIT - 1)  # even

    def test_is_prime_refuses_past_the_exact_bound(self):
        # the least strong pseudoprime to the first 13 prime bases
        for n in (verify._PRIME_LIMIT, 2**89 - 1):
            with pytest.raises(ValueError, match="primality is decided only below"):
                is_prime(n)
            with pytest.raises(ValueError, match="primality is decided only below"):
                verify._primes_in(range(n - 10, n + 1))

    def test_is_prime_matches_the_sieve_below_a_million(self):
        assert list(filter(is_prime, range(10**6))) == verify._primes_in(range(10**6))

    def test_narrow_ranges_far_from_zero_match_the_sieve(self):
        # each range here is narrow enough to be tested value by value, and
        # so is compared with the primes a sieve of a wider range gives
        for lo in (10**6, 10**8 - 10, 10**10 + 7):
            narrow = range(lo, lo + 25)
            assert 32 * len(narrow) < math.isqrt(lo + 24)
            wide = range(lo - 10**5, lo + 10**5)
            assert verify._primes_in(narrow) == [p for p in verify._primes_in(wide) if p in narrow]

    def test_range_sieve_matches_is_prime(self):
        for lo in range(-3, 40):
            for hi in range(lo, 130):
                expected = [p for p in range(lo, hi + 1) if is_prime(p)]
                assert verify._primes_in(range(lo, hi + 1)) == expected, (lo, hi)

    def test_qualifies(self):
        assert qualifies(3, 6, 3)
        assert not qualifies(2, 5, 3)
        assert not qualifies(5, 6, 3)
        assert qualifies(6, 10, 6)
        assert not qualifies(4, 8, 6)
        assert not qualifies(4, 5, 6)

    def test_qualifies_is_the_prime_divisor_rule(self):
        # the definition: no prime divisor p of m has a = -1 or b = -1 mod p
        def by_prime_divisors(a, b, m):
            primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]
            return all(a % p != p - 1 and b % p != p - 1 for p in primes)

        for m in range(1, 61):
            for a in range(-3, 80):
                for b in range(a, a + 3):
                    assert qualifies(a, b, m) == by_prime_divisors(a, b, m), (a, b, m)


class TestWindowRule:
    """qualifies alone decides which windows the window checks claim."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_conjecture_u(5, (1, 30), (1, 30)),
            lambda: verify_conjecture_gen((2, 8), (2, 15), (3, 16), (1, 20)),
            lambda: verify_sieved((2, 8), (2, 15), (3, 16), (3, 30)),
        ],
        ids=["conjecture-u", "conjecture-gen", "sieved"],
    )
    def test_no_window_qualifies_no_cell_is_evaluated(self, monkeypatch, run):
        assert run().grid > 0
        monkeypatch.setattr(verify, "qualifies", lambda a, b, m: False)
        rep = run()
        assert (rep.grid, rep.failed) == (0, 0) and rep.skipped > 0

    def test_every_window_qualifies_conjecture_u_claims_each_stratum(self, monkeypatch):
        m, k_top = 5, 30
        read = []

        def recorded(column, a, b, xs):
            read.append((a, b))
            return []

        view = SimpleNamespace(**{**vars(qpoly), "window_failures": recorded})
        monkeypatch.setattr(verify, "qpoly", view)
        monkeypatch.setattr(verify, "qualifies", lambda a, b, m: True)
        verify_conjecture_u(m, (1, k_top), (1, 40))
        assert read == [(k - 1, k) for k in range(m + 1, k_top + 1)]

    def test_the_tally_keeps_only_the_residues_a_window_can_end_at(self, monkeypatch):
        """A qualifying window's ends each qualify, so the tally of m keeps the
        residue totals of [x choose m-1]_q only for x + 1 prime to m, and every
        one a cell reads.  No Gaussian is built."""
        asked = set()

        def recorded_cell(tally, m, a, b, where):
            asked.update((x, m) for x in tally)
            return sieved_cell(tally, m, a, b, where)

        def unused(*args):
            raise AssertionError("sieved built a Gaussian")

        sieved_cell = verify._sieved_cell
        monkeypatch.setattr(verify, "_sieved_cell", recorded_cell)
        monkeypatch.setattr(verify, "qpoly", SimpleNamespace(**{**vars(qpoly), "gaussian": unused}))
        rep = verify_sieved((2, 12), (2, 25), (3, 26), (3, 40))
        assert rep.grid > 0 and rep.failed == 0
        read = set()
        for m in range(2, 13):
            ends = [(a, b) for a in range(2, 26) for b in range(3, 27) if m <= a < b]
            if is_prime(m):
                ends += [(k - 1, k) for k in range(m + 1, 41)]
            read.update((x, m) for a, b in ends if qualifies(a, b, m) for x in (a, b))
        wasted = sorted((x, m) for x, m in asked if math.gcd(x + 1, m) != 1)
        assert wasted == [] and asked == read, wasted[:5]

    def test_the_q_series_checks_fill_no_gaussian_memo(self, monkeypatch):
        # sieved reads residue tables and the window checks read LimitColumns,
        # so none of the three fills gaussian's unbounded memo; nor do the
        # window checks' counterexamples, when every window is claimed and
        # the windows that do not qualify fail
        qpoly.gaussian.cache_clear()
        assert verify_sieved((2, 12), (2, 25), (3, 26), (3, 40)).grid > 0
        for every in (False, True):
            if every:
                monkeypatch.setattr(verify, "qualifies", lambda a, b, m: True)
            gen = verify_conjecture_gen((2, 8), (2, 15), (3, 16), (1, 20))
            u = verify_conjecture_u(5, (1, 30), (1, 30))
            assert gen.grid > 0 and u.grid > 0
            assert (gen.failed > 0, u.failed > 0) == (every, every)
            assert qpoly.gaussian.cache_info().currsize == 0


# every family's cells on a grid where each cell holds, by check name
HOLDING_GRIDS = {
    **{
        name: (lambda family=family: each_level(family, verify._Grid(3, 4, 5, 6)))
        for name, family in verify._PER_LEVEL_FAMILIES
    },
    "structure-rectangle-conjugate": lambda: itertools.chain(
        each_level(verify._rectangle_conjugate_cells, verify._Grid(3, 4, 5, 6)),
        verify._rectangle_form_cells(verify._Grid(3, 4, 5, 6)),
    ),
    **{
        name: (lambda family=family: each_ideal(family, verify._Grid(3, 4, 5, 6)))
        for name, family in verify._PER_IDEAL_FAMILIES
    },
    "sieved": lambda: verify._sieved_cells((2, 8), (2, 12), (3, 13), (3, 20)),
    "conjecture-gen": lambda: verify._conjecture_gen_cells((2, 6), (2, 9), (3, 10), (1, 15)),
    "conjecture-u": lambda: verify._conjecture_u_cells(3, (1, 12), (1, 14)),
}


class TestReport:
    def test_record_and_counts(self):
        cells = [Pass(1), {"cell": 1}, {}, Skip("no claim")]
        rep = verify._sweep("x", "theorem", cells)
        assert (rep.grid, rep.passed, rep.failed, rep.skipped) == (3, 1, 2, 1)
        assert rep.counterexamples == [{"cell": 1}, {}]
        assert rep.notes == ["skipped 1: no claim"]
        assert not rep.all_pass()

    def test_pass_tallies_as_passing_outcomes(self):
        def report(cells):
            doc = verify._sweep("x", "theorem", [Note("note"), *cells]).to_json_dict()
            del doc["elapsed_ms"]
            return doc

        ok = Pass(1)
        bad = {"cell": 1}
        assert report([Skip("no claim", 2), Pass(3), bad, Pass(0), Pass(1)]) == report(
            [Skip("no claim", 2), ok, ok, ok, bad, ok]
        )
        assert report([Pass(5)])["pass"] == report([Pass(5)])["grid"] == 5

    @pytest.mark.parametrize("check", list(HOLDING_GRIDS))
    def test_a_cell_that_holds_is_a_pass(self, monkeypatch, check):
        """Where every cell holds, a family yields only Pass, Skip and Note
        cells, and builds no counterexample dict for a spec."""

        def unused(spec):
            raise AssertionError("a cell that holds built its counterexample")

        monkeypatch.setattr(IdealSpec, "_asdict", unused)
        cells = list(HOLDING_GRIDS[check]())
        assert all(isinstance(cell, (Pass, Skip, Note)) for cell in cells)
        assert sum(cell.count for cell in cells if isinstance(cell, Pass)) > 0

    def test_json_schema(self):
        doc = verify._sweep("x", "conjecture", [Pass(1)]).to_json_dict()
        assert list(doc) == [
            "check",
            "status",
            "grid",
            "pass",
            "fail",
            "skip",
            "counterexamples",
            "notes",
            "elapsed_ms",
        ]
        assert doc["check"] == "x"
        assert doc["status"] == "conjecture"
        assert doc["pass"] == 1 and doc["fail"] == 0
        assert json.dumps(doc)

    def test_a_new_report_is_empty(self):
        """A report is made with its check and status alone, its counts 0
        and its lists empty and its own, for _sweep to tally."""
        first, second = VerificationReport("x", "theorem"), VerificationReport("x", "theorem")
        assert first.to_json_dict() == {
            "check": "x", "status": "theorem", "grid": 0, "pass": 0, "fail": 0, "skip": 0,
            "counterexamples": [], "notes": [], "elapsed_ms": 0,
        }
        first.counterexamples.append({})
        first.notes.append("note")
        assert second.counterexamples == [] and second.notes == []
        with pytest.raises(TypeError):
            VerificationReport("x", "theorem", 1)


class TestConjectureU:
    def test_requires_prime(self):
        with pytest.raises(ValueError):
            verify_conjecture_u(4, (1, 6), (1, 6))
        with pytest.raises(ValueError):
            verify_conjecture_u(1, (1, 6), (1, 6))

    def test_small_grid_all_pass(self):
        rep = verify_conjecture_u(3, (1, 12), (1, 12))
        assert rep.status == "conjecture"
        assert rep.failed == 0
        assert rep.grid > 0
        assert rep.grid == rep.passed + rep.failed
        assert rep.grid + rep.skipped == 12 * 12
        assert "m=3" in rep.notes

    def test_skip_reasons_annotated(self):
        rep = verify_conjecture_u(3, (1, 9), (1, 9))
        blob = "\n".join(rep.notes)
        assert "k <= m" in blob
        assert "n < k-m+1" in blob
        assert "k = 0 mod m (no claim)" in blob

    def test_m_two_only_uses_paired_clause(self):
        # for m = 2 every eligible k is -1 mod 2, so no single-u cells exist
        rep = verify_conjecture_u(2, (3, 10), (1, 12))
        blob = "\n".join(rep.notes)
        assert "boundary n = k-m+1 cells evaluated under the k != -1,0 clause: 0" in blob
        assert rep.failed == 0

    def test_counterexamples_past_the_first_insertion_are_the_oracle_sums(self, monkeypatch):
        """As for conjecture-gen: the two kinds of window, u_k and
        u_k + u_(k+1), fail exactly from their first period insertion on."""
        m, k_r, n_r = 3, (4, 14), (1, 30)
        cells, failing = [], set()  # failing holds (k, n)
        for k in verify._as_values(k_r):
            if k % m == 0:
                continue
            pair = k % m == m - 1
            mode = "u_k + u_k+1" if pair else "u_k"
            first = k - m + 1 + pair
            sums = [
                (n, sum((qpoly.rank_gen_gamma(m, n, j) for j in range(k, k + 1 + pair)), QPoly()))
                for n in range(first, 31)
            ]
            cells += [({"m": m, "k": k, "n": n, "mode": mode}, poly) for n, poly in sums]
            inserted = [is_period_insertion(x, y, m) for (_, x), (_, y) in zip(sums, sums[1:])]
            failing.update((k, n) for n, _ in sums[inserted.index(True) + 1:])
        # the window of level k is (k-1, k] or (k-1, k+1]
        monkeypatch.setattr(
            qpoly,
            "window_failures",
            lambda column, a, b, xs: [x for x in xs if (a + 1, x) in failing],
        )
        rep = verify_conjecture_u(m, k_r, n_r)
        expected = [
            {**where, "coefficients": list(poly.coeffs)}
            for where, poly in cells
            if (where["k"], where["n"]) in failing
        ]
        assert len(expected) > 50
        assert rep.counterexamples == expected
        assert (rep.grid, rep.failed) == (len(cells), len(expected))

    def test_counterexamples_recorded_not_raised(self, monkeypatch):
        monkeypatch.setattr(qpoly, "window_failures", lambda column, a, b, xs: list(xs))
        rep = verify_conjecture_u(3, (4, 6), (4, 8))
        assert rep.failed == rep.grid > 0
        assert not rep.all_pass()
        sample = rep.counterexamples[0]
        assert set(sample) == {"m", "k", "n", "mode", "coefficients"}

    def test_deterministic_up_to_timing(self):
        a = verify_conjecture_u(5, (1, 10), (1, 10)).to_json_dict()
        b = verify_conjecture_u(5, (1, 10), (1, 10)).to_json_dict()
        a["elapsed_ms"] = b["elapsed_ms"] = 0
        assert a == b


class TestConjectureGen:
    def test_small_grid_all_pass(self):
        rep = verify_conjecture_gen((2, 6), (2, 7), (3, 8), (1, 10))
        assert rep.failed == 0
        assert rep.grid > 0
        assert rep.grid + rep.skipped == 5 * 6 * 6 * 10

    def test_skips_come_one_per_m_and_a(self):
        """Each skip reason comes once per (m, a) it applies to, counting its
        cells, and never with no cell."""
        windows = list(itertools.product(range(2, 6), range(1, 10), range(2, 11)))
        ns = range(1, 13)

        def reason(m, a, b, n):
            if a < m:
                return "a < m"
            if b <= a:
                return "b <= a"
            if not qualifies(a, b, m):
                return "endpoint = -1 mod a prime divisor of m"
            return "n < b-m+1" if n < b - m + 1 else None

        skipped = Counter((reason(*w, n), w[:2]) for w in windows for n in ns)
        cells = verify._conjecture_gen_cells((2, 5), (1, 9), (2, 10), (1, 12))
        skips = [cell for cell in cells if isinstance(cell, Skip)]
        assert all(skip.count > 0 for skip in skips)
        assert len({why for why, _ in skipped if why}) == 4
        for why in {why for why, _ in skipped if why}:
            counts = [skip.count for skip in skips if skip.reason == why]
            pairs = [count for (r, _), count in skipped.items() if r == why]
            assert (len(counts), sum(counts)) == (len(pairs), sum(pairs)), why

    def test_pass_counts_match_unbatched_evaluation(self):
        m_r, a_r, b_r, n_r = (2, 4), (2, 5), (3, 6), (1, 7)
        rep = verify_conjecture_gen(m_r, a_r, b_r, n_r)
        expected_grid = expected_pass = 0
        for m in verify._as_values(m_r):
            for a in verify._as_values(a_r):
                if a < m:
                    continue
                for b in verify._as_values(b_r):
                    if b <= a or not qualifies(a, b, m):
                        continue
                    for n in verify._as_values(n_r):
                        if n < b - m + 1:
                            continue
                        expected_grid += 1
                        if qpoly.is_unimodal(finite_strata_by_addition(m, n, a, b)):
                            expected_pass += 1
        assert (rep.grid, rep.passed) == (expected_grid, expected_pass)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            verify_conjecture_gen(0, 3, 4, 5)

    def test_counterexamples_past_the_first_insertion_are_the_oracle_sums(self, monkeypatch):
        """A window_failures that fails exactly from each window's first
        period insertion on: each failing n must get one counterexample,
        the sum of the strata added up level by level."""
        m_r, a_r, b_r, n_r = (2, 5), (2, 8), (3, 9), (1, 24)
        cells, failing = [], set()  # failing holds (m, a, b, n)
        for m, a, b in itertools.product(*map(verify._as_values, (m_r, a_r, b_r))):
            if not m <= a < b or not qualifies(a, b, m):
                continue
            sums = [(n, finite_strata_by_addition(m, n, a, b)) for n in range(b - m + 1, 25)]
            cells += [({"m": m, "a": a, "b": b, "n": n}, poly) for n, poly in sums]
            inserted = [is_period_insertion(x, y, m) for (_, x), (_, y) in zip(sums, sums[1:])]
            if True in inserted:
                failing.update((m, a, b, n) for n, _ in sums[inserted.index(True) + 1:])
        monkeypatch.setattr(
            qpoly,
            "window_failures",
            lambda column, a, b, xs: [x for x in xs if (column.m, a, b, x) in failing],
        )
        rep = verify_conjecture_gen(m_r, a_r, b_r, n_r)
        expected = [
            {**where, "coefficients": list(poly.coeffs)}
            for where, poly in cells
            if tuple(where.values()) in failing
        ]
        assert len(expected) > 100
        assert rep.counterexamples == expected
        assert (rep.grid, rep.failed) == (len(cells), len(expected))

    def test_a_failing_window_reads_its_series_once(self, monkeypatch):
        """With every window claimed, many fail at many n: a window reads its
        difference series once to decide its cells, and once more to write
        all of its failing ones, each as repeated addition writes it."""
        monkeypatch.setattr(verify, "qualifies", lambda a, b, m: True)
        reads, decided = [], []
        read, failures = qpoly._window_differences, qpoly.window_failures

        def deciding(*args):
            decided.append(failures(*args))
            return decided[-1]

        counting = lambda *args: reads.append(args) or read(*args)  # noqa: E731
        monkeypatch.setattr(qpoly, "_window_differences", counting)
        monkeypatch.setattr(qpoly, "window_failures", deciding)
        rep = verify_conjecture_gen((2, 5), (2, 10), (3, 14), (1, 20))
        failing = [n for n in decided if n]
        assert rep.failed == sum(map(len, failing)) and len(failing) > 10
        assert max(map(len, failing)) > 5
        assert len(reads) == len(decided) + len(failing)
        monkeypatch.undo()
        for cell in rep.counterexamples:
            poly = finite_strata_by_addition(cell["m"], cell["n"], cell["a"], cell["b"])
            assert cell["coefficients"] == poly.to_json_list(), cell

    def test_walk_does_not_grow_with_the_n_range(self, monkeypatch):
        """A passing window builds no sum, and window_failures reads its range
        of n only up to the first n decided in closed form: for n up to 40 and
        up to 10**12 the same windows are walked and the same sums built, and
        the grid grows by exactly the added n of each window."""
        real = qpoly.window_failures

        def counting(column, a, b, xs):
            walked.append((column.m, a, b, xs.start))
            return real(column, a, b, xs)

        monkeypatch.setattr(qpoly, "window_failures", counting)
        # each window asks window_sum for its failing n, and a passing window for none
        monkeypatch.setattr(qpoly, "window_sum", lambda column, a, b, xs: built.extend(xs) or [])
        seen = []
        for n_hi in (40, 10**12):
            built, walked = [], []
            rep = verify_conjecture_gen((2, 6), (2, 20), (3, 21), (1, n_hi))
            assert rep.failed == 0
            seen.append((rep.grid, built, walked))
        (grid_40, *walked_40), (grid_big, *walked_big) = seen
        assert walked_40 == walked_big and walked_40[0] == [] and len(walked_40[1]) > 0
        # every window's first n is at most 21 - 2 + 1, so each adds 41 .. 10**12
        assert grid_big - grid_40 == len(walked_40[1]) * (10**12 - 40)


class TestWalkCells:
    """_window_cells walks a window's n: one counterexample per failing n,
    then one Pass for the rest."""

    def test_a_passing_window_passes_in_one_batch(self):
        # m = 5, window (6, 8]: every n passes, as one batch
        cells = verify._window_cells(qpoly.LimitColumn(5), 6, 8, range(4, 100), lambda n: {"n": n})
        assert list(cells) == [Pass(96)]

    def test_a_window_that_does_not_qualify_fails_for_good(self):
        # m = 3, window (3, 5], 5 = -1 mod 3: from n = 5 on each sum inserts
        # the block (3, 2, 2) again, so every later n fails
        column = qpoly.LimitColumn(3)
        cells = list(verify._window_cells(column, 3, 5, range(3, 12), lambda n: {"n": n}))
        expected = [
            {"n": n, "coefficients": finite_strata_by_addition(3, n, 3, 5).to_json_list()}
            for n in range(5, 12)
        ]
        assert cells == [*expected, Pass(2)]


class TestSieved:
    def test_scalar_pass(self):
        rep = verify_sieved(2, 2, 4)
        assert (rep.grid, rep.passed, rep.failed) == (1, 1, 0)
        assert rep.status == "theorem"

    @pytest.mark.parametrize(
        "m, a, b, reason",
        [
            (2, 3, 6, "endpoint = -1 mod a prime divisor of m"),
            (3, 2, 6, "window outside m <= a < b"),
        ],
        ids=["nonqualifying", "outside"],
    )
    def test_scalar_skips_as_a_one_value_range(self, m, a, b, reason):
        """A window that makes no claim is skipped, as in every check, however
        m, a and b are given."""
        scalar = verify_sieved(m, a, b).to_json_dict()
        ranged = verify_sieved((m, m), (a, a), (b, b)).to_json_dict()
        del scalar["elapsed_ms"], ranged["elapsed_ms"]
        assert scalar == ranged
        assert (scalar["grid"], scalar["skip"]) == (0, 1)
        assert scalar["notes"] == [f"skipped 1: {reason}"]

    def test_range_skips_instead(self):
        rep = verify_sieved(2, (2, 5), (3, 6))
        assert rep.failed == 0
        assert rep.skipped > 0
        assert rep.grid + rep.skipped == 4 * 4

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            verify_sieved(1, 2, 3)

    def test_gaussian_cells_for_prime_m(self):
        rep = verify_sieved(3, (3, 4), (4, 6), (4, 12))
        assert rep.failed == 0
        assert "single-gaussian cells for prime m: 3" in rep.notes

    def test_composite_m_sweeps_all_divisors(self):
        rep = verify_sieved(6, (6, 9), (7, 12))
        assert rep.failed == 0
        assert rep.grid > 0

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_total_is_checked_against_the_hockey_stick(self, monkeypatch, m):
        """Add x (1 + q + ... + q^(m-1)) to [x choose m-1]_q: each residue
        total of the window (a, b] rises by b - a, so the sums stay equal and
        still vanish mod every cyclotomic divisor, and only the total can see
        it."""
        self.fail_every_cell(monkeypatch)
        rep = verify_sieved(m, (m, m + 6), (m + 1, m + 8))
        assert rep.grid > 0 and rep.failed == rep.grid
        for cx in rep.counterexamples:
            assert len(set(cx["sieved_sums"])) == 1 and cx["cyclotomic"], cx

    def test_sums_are_the_window_residue_totals(self, monkeypatch):
        """Off the qualifying windows the residue totals differ, so they pin
        which Gaussian residue feeds which window residue."""
        monkeypatch.setattr(verify, "qualifies", lambda a, b, m: True)
        rep = verify_sieved((2, 6), (2, 12), (3, 13))
        assert rep.failed > 0
        for cx in rep.counterexamples:
            window = conjecture_sum(cx["a"], cx["b"], cx["m"])
            assert cx["sieved_sums"] == qpoly.sieved_sums(window, cx["m"]), cx

    def test_equal_sums_skip_the_cyclotomic_division(self, monkeypatch):
        """No cell divides by a cyclotomic, and on every cell the clause is
        the division.  Forcing qualifies makes some windows' sums unequal;
        padding each Gaussian as above fails every cell on its total, so each
        cell's sums and clause are recorded."""

        def unused(*args):
            raise AssertionError("sieved divided by a cyclotomic")

        self.fail_every_cell(monkeypatch, vanishes_mod_cyclotomic=unused)
        monkeypatch.setattr(verify, "qualifies", lambda a, b, m: True)
        rep = verify_sieved((2, 8), (2, 14), (3, 15))
        assert rep.grid > 0 and rep.failed == rep.grid
        equal = 0
        for cx in rep.counterexamples:
            sums, m = cx["sieved_sums"], cx["m"]
            divisors = [d for d in range(2, m + 1) if m % d == 0]
            assert cx["cyclotomic"] == all(
                qpoly.vanishes_mod_cyclotomic(sums, d) for d in divisors
            ), cx
            equal += len(set(sums)) == 1
        assert 0 < equal < rep.grid

    def test_windows_need_no_strata(self, monkeypatch):
        """The windows and the single-Gaussian cells are read from the
        residue totals of [x choose m-1]_q, never from a sum of strata or a
        Gaussian, with x from m - 1 up to the largest b or claimed k of that
        m.  m = 2 claims no k, so however far k runs, no residue past b is
        filled, and the one window (2003, 2004] fills none below 2002."""

        def unused(*args):
            raise AssertionError("sieved summed strata or built a Gaussian")

        asked = set()

        def recorded_residues(m, top):
            for x, sums in enumerate(qpoly.gaussian_residues(m, top), m - 1):
                asked.add((x, m - 1))
                yield sums

        names = {"window_sum": unused, "rank_gen_gamma": unused, "conjecture_sum": unused}
        names.update(gaussian=unused, gaussian_residues=recorded_residues)
        monkeypatch.setattr(verify, "qpoly", SimpleNamespace(**{**vars(qpoly), **names}))
        cases = [((2, 14), (2, 32), (3, 33), (3, 55)), (2, (2, 9), (3, 10), (3, 10**6))]
        for m, a, b, k in [*cases, (2003, 2003, 2004, 3)]:
            asked.clear()
            rep = verify_sieved(m, a, b, k)
            assert rep.grid > 0 and rep.failed == 0
            m_values, b_values, k_values = map(verify._as_values, (m, b, k))
            allowed = set()
            for m_val in m_values:
                top = max(b_values)
                if is_prime(m_val):
                    claimed = [x for x in k_values if x > m_val and x % m_val not in (0, m_val - 1)]
                    top = max([top, *claimed])
                allowed.update((x, m_val - 1) for x in range(m_val - 1, top + 1))
            assert asked and asked <= allowed, sorted(asked - allowed)[:5]

    def test_tally_stops_at_the_largest_b_or_k_read(self, monkeypatch):
        """An m whose windows all lie outside m <= a < b fills no residue
        totals for them: with no k, none at all, and with k, none past its
        largest claimed k, however far b runs."""
        asked = []

        def recorded_residues(m, top):
            for x, sums in enumerate(qpoly.gaussian_residues(m, top), m - 1):
                asked.append(x)
                yield sums

        view = SimpleNamespace(**{**vars(qpoly), "gaussian_residues": recorded_residues})
        monkeypatch.setattr(verify, "qpoly", view)
        rep = verify_sieved((20, 40), (2, 19), (3, 200))
        assert (rep.grid, rep.skipped, asked) == (0, 21 * 18 * 198, [])
        rep = verify_sieved((20, 23), (2, 19), (3, 200), (3, 50))
        # only 23 is prime: k = 24 .. 50, but for 45 = -1 and 46 = 0 mod 23
        assert rep.grid == 25 and max(asked) == 50

    def test_window_sums_meet_q_lucas(self):
        """At a primitive d-th root of unity, [x choose m-1] is
        C(x // d, m/d - 1) when x = -1 mod d and 0 otherwise (q-Lucas).  The
        residue totals of (a, b] are equal exactly when the window vanishes
        at every m-th root of unity but 1, so a window's cell holds exactly
        when those integers agree at a and b for every d | m with d > 1: on
        every window of a full tally, qualifying or not.  A cell that fails
        has unequal sums, whose total is the hockey stick's."""
        windows = qualifying = 0
        for m in range(2, 41):
            tally = dict(enumerate(qpoly.gaussian_residues(m, 200), m - 1))
            divisors = [d for d in range(2, m + 1) if m % d == 0]
            roots = {
                x: [math.comb(x // d, m // d - 1) if x % d == d - 1 else 0 for d in divisors]
                for x in tally
            }
            totals = {x: math.comb(x, m - 1) for x in tally}
            for a, b in itertools.combinations(range(m, 201), 2):
                cell = verify._sieved_cell(tally, m, a, b, dict)
                assert (cell is verify._HOLDS) == (roots[a] == roots[b]), (m, a, b)
                if cell is not verify._HOLDS:
                    assert not cell["cyclotomic"], (m, a, b)
                    sums, total = cell["sieved_sums"], cell["total"]
                    assert sum(sums) == total == totals[b] - totals[a], (m, a, b)
                windows += 1
            ends = sum(qualifies(x, x, m) for x in range(m, 201))
            qualifying += ends * (ends - 1) // 2
        assert (windows, qualifying) == (630_760, 259_264)

    @staticmethod
    def fail_every_cell(monkeypatch, **names):
        """Add x (1 + q + ... + q^(m-1)) to each [x choose m-1]_q in verify's
        view of qpoly, which adds x to each of its residue totals: each
        residue total of the window (a, b] rises by b - a, so every cell
        fails on its total and yields its counterexample.  names replace
        further attributes of the view."""

        def padded_residues(m, top):
            for x, sums in enumerate(qpoly.gaussian_residues(m, top), m - 1):
                yield [total + x for total in sums]

        names.setdefault("gaussian_residues", padded_residues)
        monkeypatch.setattr(verify, "qpoly", SimpleNamespace(**{**vars(qpoly), **names}))

    def test_single_gaussian_cells_are_the_windows_one_level_wide(self, monkeypatch):
        """[k choose m-1]_q - [k-1 choose m-1]_q = q^(k-m+1) [k-1 choose m-2]_q,
        so the window (k-1, k] gives the single Gaussian's residue totals,
        each one more here, where every cell fails.  Its counterexample has
        the window's fields, named by m and k: the sums are still equal, and
        the total is the single Gaussian's."""
        self.fail_every_cell(monkeypatch)
        cells = verify._sieved_cells((2, 14), (2, 32), (3, 33), (3, 55))
        single = [cell for cell in cells if isinstance(cell, dict) and "k" in cell]
        assert len(single) > 100
        for cx in single:
            m, k = cx["m"], cx["k"]
            sums = qpoly.sieved_sums(qpoly.gaussian(k - 1, m - 2), m)
            assert cx["sieved_sums"] == [s + 1 for s in sums], cx
            assert list(cx) == ["m", "k", "sieved_sums", "total", "cyclotomic"], cx
            assert cx["total"] == math.comb(k - 1, m - 2) and cx["cyclotomic"], cx

    def test_each_m_is_done_before_the_next_tally(self, monkeypatch):
        """On the benchmark's sieved grid, each m fills its tally of the
        residue totals of [x choose m-1]_q and yields all its cells, the
        single-Gaussian half included, before the next m fills anything.
        Every cell fails, so each names its m."""
        seen = []
        self.fail_every_cell(monkeypatch)
        padded = verify.qpoly.gaussian_residues

        def recorded_residues(m, top):
            for sums in padded(m, top):
                seen.append(m)
                yield sums

        monkeypatch.setattr(verify.qpoly, "gaussian_residues", recorded_residues)
        for cell in verify._sieved_cells((2, 14), (2, 32), (3, 33), (3, 55)):
            assert not isinstance(cell, Pass)
            if isinstance(cell, dict):
                seen.append(cell["m"])
        assert len(set(seen)) == 13 and seen == sorted(seen)

    def test_an_m_with_every_cell_skipped_builds_no_tally(self):
        """At m = 3001 the window (3, 4] is outside m <= a < b and there is no
        k, so nothing reads a residue total: the one cell is skipped without
        the m x m rows that filling a tally starts from."""
        tracemalloc.start()
        try:
            rep = verify_sieved(3001, 3, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.grid, rep.skipped) == (0, 1)
        assert peak < 1 << 20, peak

    def test_skips_come_one_per_m_and_a(self):
        """One skip per (m, a) for the windows outside m <= a < b, one per
        (m, a) for the non-qualifying windows inside, and one per prime m for
        the single-Gaussian half, each counting its cells."""
        cells = list(verify._sieved_cells((2, 5), (2, 9), (3, 10), (3, 20)))
        skips = [cell for cell in cells if isinstance(cell, Skip)]
        outside = [s.count for s in skips if s.reason == "window outside m <= a < b"]
        endpoint = [s.count for s in skips if s.reason.startswith("endpoint = -1")]
        single = [s.count for s in skips if s.reason.startswith("k <= m")]
        # every window of (m, a) = (2, 2) is inside; m = 2, 3, 5 are prime
        assert (len(outside), len(single)) == (4 * 8 - 1, 3)
        windows = list(itertools.product(range(2, 6), range(2, 10), range(3, 11)))
        assert sum(outside) == sum(not m <= a < b for m, a, b in windows)
        refused = [(m, a) for m, a, b in windows if m <= a < b and not qualifies(a, b, m)]
        assert len(endpoint) == len(set(refused)) and sum(endpoint) == len(refused)
        levels = itertools.product((2, 3, 5), range(3, 21))
        assert sum(single) == sum(k <= m or k % m in (0, m - 1) for m, k in levels)


class TestStructure:
    def test_small_sweep(self):
        reports = verify_structure(m_max=2, n_max=3, k_max=3, degree_max=4)
        names = [r.check for r in reports]
        assert names == [
            "structure-involution",
            "structure-kskew",
            "structure-covering",
            "structure-rectangle-conjugate",
            "structure-rectangle-translation",
            "structure-subposet",
            "structure-counts",
            "structure-duality",
            "structure-gamma",
            "structure-decomposition",
        ]
        for r in reports:
            assert r.status == "theorem"
            assert r.failed == 0, r.check
            assert r.grid == r.passed
            assert r.grid > 0, r.check

    @pytest.mark.parametrize("shift", [-1, 1], ids=["left", "right"])
    def test_kskew_catches_a_misplaced_row(self, monkeypatch, shift):
        """Move the bottom row of every k-skew diagram one column, where the
        result is still a skew shape.  Only verify's view of partitions is
        patched, so the lru caches of k_skew and k_conjugate stay clean."""

        def misplaced(p, k):
            s = partitions.k_skew(p, k)
            if not s.outer:
                return s
            outer = (s.outer[0] + shift,) + s.outer[1:]
            inner = (s.inner_at(1) + shift,) + s.inner[1:]
            try:
                return partitions.skew_shape(outer, inner)
            except ValueError:
                return s

        view = SimpleNamespace(**{**vars(partitions), "k_skew": misplaced})
        monkeypatch.setattr(verify, "partitions", view)
        reports = verify_structure(m_max=1, n_max=1, k_max=4, degree_max=6)
        failed = {r.check: r.failed for r in reports}
        assert failed.pop("structure-kskew") > 0
        # the other per-item families read k-conjugates and covers off the
        # same diagrams; the per-ideal families build k-skews of their own
        others = [name for name, _ in verify._PER_LEVEL_FAMILIES if name in failed]
        assert len(others) == 4 and all(failed.pop(name) > 0 for name in others)
        assert set(failed.values()) == {0}

    def test_kskew_inner_clause_matches_hook_scan(self, monkeypatch):
        """The structure-kskew verdict against a scan of the hook of every
        cell, on each k-skew diagram with k <= 6 and degree <= 12 and on
        copies with its first or second row moved one column either way."""

        def scan(s, p, k):
            """(row lengths and skew hooks as they must be, no inner cell with p_i < hook <= k)"""
            if s.row_lengths() != p or any(s.hook_length(c) > k for c in s.cells()):
                return False, True
            return True, not any(
                p[i - 1] < s.hook_length((i, j)) <= k
                for i in range(1, len(p) + 1)
                for j in range(1, s.inner_at(i) + 1)
            )

        def moved(s, row, shift):
            outer = list(s.outer)
            inner = list(s.inner) + [0] * (len(outer) - len(s.inner))
            if row >= len(outer):
                return s
            outer[row] += shift
            inner[row] += shift
            try:
                return partitions.skew_shape(outer, inner)
            except ValueError:
                return s

        grid = verify._Grid(1, 1, 6, 12)
        cases = [(k, p) for k in range(1, 7) for p in partitions.k_bounded_partitions(k, 12)]
        inner_clause_failures = 0
        for row, shift in [(0, 0)] + [(r, d) for r in range(2) for d in (-1, 1)]:
            shapes = {(p, k): moved(partitions.k_skew(p, k), row, shift) for k, p in cases}
            view = SimpleNamespace(**{**vars(partitions), "k_skew": lambda p, k: shapes[p, k]})
            monkeypatch.setattr(verify, "partitions", view)
            verdicts = [isinstance(cell, Pass) for cell in each_level(verify._kskew_cells, grid)]
            scans = [scan(shapes[p, k], p, k) for k, p in cases]
            assert verdicts == [all(clauses) for clauses in scans], (row, shift)
            inner_clause_failures += scans.count((True, False))
        assert inner_clause_failures > 0

    @staticmethod
    def damage(monkeypatch, damage, source=lattice, builder="build_ideal"):
        """Damage, in place, what source.builder returns: lattice.build_ideal's
        k-cover diagram or the tables of an ideals.IdealLayout; only verify's
        view of source is patched."""
        build = getattr(source, builder)

        def damaged(*args):
            d = build(*args)
            damage(d)
            return d

        view = SimpleNamespace(**{**vars(source), builder: damaged})
        monkeypatch.setattr(verify, source.__name__.rpartition(".")[2], view)

    @classmethod
    def damaged_diagrams(cls, monkeypatch, damage):
        """Damage build_ideal's diagrams: on _Grid(3, 3, 4, 4)
        structure-subposet must then fail, and every family but gamma, which
        reads the k-covers too, pass.  The reports of subposet and gamma are
        returned."""
        cls.damage(monkeypatch, damage)
        by_name = {r.check: r for r in verify_structure(3, 3, 4, 4)}
        subposet, gamma = by_name.pop("structure-subposet"), by_name.pop("structure-gamma")
        assert subposet.failed > 0
        assert {r.failed for r in by_name.values()} == {0}
        return subposet, gamma

    @staticmethod
    def without_one(d):
        """d with the vertex (1,) and its edges taken out, the other edges
        renumbered."""
        vertices = d.vertices()
        d.ranks[1].remove((1,))
        kept = {v: i for i, v in enumerate(d.vertices())}
        d.edges = [
            (kept[vertices[v]], kept[vertices[u]])
            for v, u in d.edges
            if (1,) not in (vertices[v], vertices[u])
        ]

    def test_subposet_checks_the_k_covers(self, monkeypatch):
        """Drop the first k-cover of every diagram, () -> (1,): each ideal
        fails once, with () as child and (1,) missing.  Gamma reads no
        missing edge."""

        def dropped_edge(d):
            assert d.edges[0] == (0, 1) and d.vertices()[:2] == [(), (1,)]
            del d.edges[0]

        subposet, gamma = self.damaged_diagrams(monkeypatch, dropped_edge)
        assert gamma.failed == 0
        assert subposet.counterexamples == [
            {**spec_dict(spec), "child": [], "extra": [], "missing": [[1]]}
            for spec in verify._grid_cells(verify._Grid(3, 3, 4, 4))
        ]

    @staticmethod
    def damaged_ranks(monkeypatch, damage):
        """Damage, in place, the box and the ranks of (j, t) pairs that
        ideals._ranks returns, so that every IdealLayout, and every
        enumerate_ideal, is built from them."""
        ranks_of = ideals._ranks

        def damaged(spec):
            box, ranks = ranks_of(spec)
            damage(box, ranks)
            return box, ranks

        monkeypatch.setattr(ideals, "_ranks", damaged)

    @staticmethod
    def no_step_into_one(monkeypatch):
        """The layout's step table loses the one step of the box partition (),
        to (1,): with it go the edges (m^j) -> (m^j, 1), the whole chain at
        m = 1."""

        def dropped(layout):
            assert layout.box[0] == () and layout.steps[0] in ([(0, 1)], [(1, 0)])
            layout.steps[0].clear()

        TestStructure.damage(monkeypatch, dropped, source=ideals, builder="IdealLayout")

    def test_subposet_checks_the_one_box_steps(self, monkeypatch):
        """With no step of the layout into (1,), the k-cover () -> (1,) is
        extra at child () in every ideal, the lowest of the edges the table
        no longer gives.  Duality, which reads the same steps, fails every
        ideal, and no other family fails."""
        self.no_step_into_one(monkeypatch)
        by_name = {r.check: r for r in verify_structure(3, 3, 4, 4)}
        specs = list(verify._grid_cells(verify._Grid(3, 3, 4, 4)))
        assert by_name.pop("structure-subposet").counterexamples == [
            {**spec_dict(spec), "child": [], "extra": [[1]], "missing": []} for spec in specs
        ]
        assert by_name.pop("structure-duality").counterexamples == list(map(spec_dict, specs))
        assert {r.failed for r in by_name.values()} == {0}

    @staticmethod
    def subposet_counterexamples():
        cells = each_ideal(verify._subposet_cells, verify._Grid(3, 3, 4, 4))
        return verify._sweep("structure-subposet", "theorem", cells).counterexamples

    def test_subposet_names_the_lower_of_two_damaged_vertices(self, monkeypatch):
        """build_ideal drops its first k-cover, () -> (1,), and its last,
        whose lower end is higher, in every ideal with more than one edge:
        the child is (), with the step (1,) missing, and the higher vertex's
        missing step is not listed."""

        def dropped(d):
            if len(d.edges) > 1:
                del d.edges[-1], d.edges[0]

        self.damage(monkeypatch, dropped)
        specs = [s for s in verify._grid_cells(verify._Grid(3, 3, 4, 4)) if s.top_rank > 1]
        assert specs
        assert self.subposet_counterexamples() == [
            {**spec_dict(spec), "child": [], "extra": [], "missing": [[1]]} for spec in specs
        ]

    def test_subposet_lists_an_extra_and_a_missing_edge_at_one_vertex(self, monkeypatch):
        """build_ideal's () -> (1,) is bent to () -> (1, 1) wherever (1, 1) is
        a member: () is the child, with (1, 1) extra and (1,) missing."""

        def bent(d):
            vertices = d.vertices()
            if (1, 1) in vertices:
                assert d.edges[0] == (0, 1)
                d.edges[0] = (0, vertices.index((1, 1)))

        self.damage(monkeypatch, bent)
        specs = verify._grid_cells(verify._Grid(3, 3, 4, 4))
        expected = [
            {**spec_dict(spec), "child": [], "extra": [[1, 1]], "missing": [[1]]}
            for spec in specs
            if ideals.is_member((1, 1), spec)
        ]
        assert expected
        assert self.subposet_counterexamples() == expected

    def test_subposet_reads_the_exported_layout(self, monkeypatch, capsys):
        """Bend the layout's step of the box partition () from (1,) to (1, 1),
        wherever (1, 1) is a box partition.  `kyoung ideal` writes the edge
        () -> (1, 1) in place of () -> (1,), and structure-subposet, which
        reads the same layout, fails each such ideal at child (), with the
        k-cover to (1,) extra and the step to (1, 1) missing.  Duality, for
        which (1,) is the upper end of no step, fails the same ideals, and
        no other family fails."""
        from kyoung.cli import main

        class Bent(ideals.IdealLayout):
            def __init__(self, spec):
                super().__init__(spec)
                if (1, 1) in self.box:
                    assert self.steps[0] == [(0, 1)]
                    self.steps[0] = [(0, self.box.index((1, 1)))]

        monkeypatch.setattr(ideals, "IdealLayout", Bent)
        assert main(["ideal", "--m", "3", "--n", "2", "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        vertices = [tuple(v) for rank in doc["ranks"] for v in rank]
        assert vertices[:2] == [(), (1,)]
        assert [vertices[u] for v, u in doc["edges"] if v == 0] == [(1, 1)]
        by_name = {r.check: r for r in verify_structure(3, 3, 4, 4)}
        specs = [
            s
            for s in verify._grid_cells(verify._Grid(3, 3, 4, 4))
            if s.m >= 2 and min(s.n, s.k - s.m + 1) >= 2  # (1, 1) fits the box
        ]
        assert len(specs) == 5
        assert by_name.pop("structure-subposet").counterexamples == [
            {**spec_dict(s), "child": [], "extra": [[1]], "missing": [[1, 1]]} for s in specs
        ]
        assert by_name.pop("structure-duality").counterexamples == list(map(spec_dict, specs))
        assert {r.failed for r in by_name.values()} == {0}

    def test_subposet_checks_reachability_against_containment(self, monkeypatch):
        """Drop () -> (1,), the one up-edge of (), and the other edges
        (m^j) -> (m^j, 1), from both the k-covers and the layout's steps.
        The two still agree, so only the order clause tells: () reaches no
        other member now, and each ideal fails once, with its spec."""

        def row_of_one_dropped(d):
            vertices = d.vertices()
            m = vertices[-1][0]  # the rectangle (m^n) is last
            assert vertices[:2] == [(), (1,)]
            assert [(i, j) for i, j in d.edges if i == 0] == [(0, 1)]
            d.edges = [
                (v, u)
                for v, u in d.edges
                if not (set(vertices[v]) <= {m} and vertices[u] == vertices[v] + (1,))
            ]

        self.damage(monkeypatch, row_of_one_dropped)
        self.no_step_into_one(monkeypatch)
        specs = verify._grid_cells(verify._Grid(3, 3, 4, 4))
        assert self.subposet_counterexamples() == list(map(spec_dict, specs))

    @pytest.mark.parametrize("side", ["dropped", "added"])
    def test_subposet_checks_the_box_members(self, monkeypatch, side):
        """(1,) dropped from the layout's ranks is a vertex of the k-order's
        ideal extra to the members; a row of 1s added past the rectangle's
        size, a box partition with no step on a rank of its own, is a member
        missing from the vertices.  Each ideal fails once, naming that
        partition."""

        def dropped(box, ranks):
            assert len(ranks[1]) == 1  # (1,) alone
            ranks[1].clear()

        def added(layout):
            layout.box.append((1,) * len(layout.ranks))  # the top rank is mn = len(ranks) - 1
            layout.steps.append([])
            layout.ranks.append([(0, len(layout.box) - 1)])

        if side == "dropped":
            self.damaged_ranks(monkeypatch, dropped)
        else:
            self.damage(monkeypatch, added, source=ideals, builder="IdealLayout")
        specs = verify._grid_cells(verify._Grid(3, 3, 4, 4))
        assert self.subposet_counterexamples() == [
            {**spec_dict(spec), "extra": [], "missing": [[1] * (spec.top_rank + 1)]}
            if side == "added"
            else {**spec_dict(spec), "extra": [[1]], "missing": []}
            for spec in specs
        ]

    def check_extra_edge(self, monkeypatch, pick, crossings):
        """Add the up-edge pick(d) returns, if any, to every diagram: each
        damaged ideal fails subposet once, with the edge's lower end as
        child, its upper end as extra and no step missing.  Gamma fails the
        crossings ideals with k > m where the edge changes the number of
        short rows by more than one."""
        added = []

        def extra_edge(d):
            added.append(pick(d))
            if added[-1]:
                vertices = d.vertices()
                d.edges.append(tuple(map(vertices.index, added[-1])))

        subposet, gamma = self.damaged_diagrams(monkeypatch, extra_edge)
        specs = list(verify._grid_cells(verify._Grid(3, 3, 4, 4)))
        assert subposet.counterexamples == [
            {**spec_dict(spec), "child": list(edge[0]), "extra": [list(edge[1])], "missing": []}
            for spec, edge in zip(specs, added, strict=True)
            if edge
        ]
        expected = [
            spec_dict(spec)
            for spec, edge in zip(specs, added)
            if edge
            and spec.k > spec.m
            and abs(ideals.short_rows(edge[0], spec.m) - ideals.short_rows(edge[1], spec.m)) > 1
        ]
        assert len(expected) == crossings
        assert gamma.counterexamples == expected

    def test_subposet_catches_an_edge_to_a_non_containing_vertex(self, monkeypatch):
        def non_containing(d):
            # an up-edge to a vertex of the next rank that does not contain v
            for low, high in zip(d.ranks, d.ranks[1:]):
                for v, u in itertools.product(low, high):
                    if not partitions.contains(v, u):
                        return v, u

        self.check_extra_edge(monkeypatch, non_containing, crossings=3)

    def test_subposet_catches_an_edge_inside_a_rank(self, monkeypatch):
        def same_rank(d):
            if {(2,), (1, 1)} <= set(d.vertices()):
                return (2,), (1, 1)

        self.check_extra_edge(monkeypatch, same_rank, crossings=3)

    def test_subposet_catches_an_edge_that_skips_a_rank(self, monkeypatch):
        def rank_skipping(d):
            # () lies inside every vertex, so only the rank tells this edge apart
            if len(d.ranks) > 2:
                return (), d.ranks[2][0]

        self.check_extra_edge(monkeypatch, rank_skipping, crossings=5)

    def test_subposet_catches_a_padded_vertex_set(self, monkeypatch):
        """A diagram with one vertex beyond the ideal, on a rank of its own
        above the rectangle, fails subposet once per ideal with that vertex
        listed, and gamma's chain clause at k = m."""

        def padded(d):
            d.ranks.append([(1,) * len(d.ranks)])

        subposet, gamma = self.damaged_diagrams(monkeypatch, padded)
        specs = list(verify._grid_cells(verify._Grid(3, 3, 4, 4)))
        assert subposet.counterexamples == [
            {**spec_dict(spec), "extra": [[1] * (spec.top_rank + 1)], "missing": []}
            for spec in specs
        ]
        assert gamma.counterexamples == [spec_dict(s) for s in specs if s.k == s.m]

    def test_subposet_catches_a_dropped_vertex(self, monkeypatch):
        """A diagram without (1,) fails subposet once per ideal with (1,)
        missing, and gamma's chain clause at k = m."""
        subposet, gamma = self.damaged_diagrams(monkeypatch, self.without_one)
        specs = list(verify._grid_cells(verify._Grid(3, 3, 4, 4)))
        assert subposet.counterexamples == [
            {**spec_dict(spec), "extra": [], "missing": [[1]]} for spec in specs
        ]
        assert gamma.counterexamples == [spec_dict(s) for s in specs if s.k == s.m]

    @pytest.mark.parametrize("family", ["subposet", "counts", "duality", "gamma", "decomposition"])
    def test_a_per_ideal_family_runs_on_one_ideal_alone(self, family):
        """Each per-ideal family is a function of one ideal: on (3^4) at
        level 5 alone, with no ideal walked before it, every cell holds."""
        cells = list(getattr(verify, f"_{family}_cells")(verify._IdealView(IdealSpec(3, 4, 5))))
        assert cells and all(isinstance(cell, Pass) for cell in cells), cells
        if family == "gamma":
            assert cells == [verify._HOLDS]

    def test_a_reversed_walk_gives_the_same_tallies(self, monkeypatch):
        """No family depends on the order of the walk: the grid's ideals
        taken in reverse give every report as the forward walk does."""

        def tallies():
            reports = [r.to_json_dict() for r in verify_structure(4, 5, 7, 10)]
            return [{**r, "elapsed_ms": 0} for r in reports]

        forward = tallies()
        walk = verify._grid_cells
        monkeypatch.setattr(verify, "_grid_cells", lambda g: reversed(list(walk(g))))
        assert tallies() == forward
        assert all(r["grid"] > 0 and r["fail"] == 0 for r in forward)

    @staticmethod
    def counted(monkeypatch, calls, source, name, key):
        """Count in calls each call of source.name, keyed by name and
        key(*args)."""
        fn = getattr(source, name)

        def wrapper(*args):
            calls[(name, *key(*args))] += 1
            return fn(*args)

        monkeypatch.setattr(source, name, wrapper)

    @staticmethod
    def rectangle_spec(generator, k):
        return (IdealSpec(generator[0], len(generator), k),)

    def test_gamma_reads_the_level_below_itself(self, monkeypatch):
        # gamma reads each ideal's k-cover diagram and, at k > m, its
        # members, read off its layout; gamma_set draws the stratum from its
        # own box, and level k - 1 is enumerated on its own for each k > m
        calls = Counter()
        self.counted(monkeypatch, calls, lattice, "build_ideal", self.rectangle_spec)
        self.counted(monkeypatch, calls, ideals, "IdealLayout", lambda spec: (spec,))
        self.counted(monkeypatch, calls, ideals, "enumerate_ideal", lambda spec: (spec,))
        grid = verify._Grid(4, 5, 7, 10)
        verdicts = [isinstance(cell, Pass) for cell in each_ideal(verify._gamma_cells, grid)]
        specs = list(verify._grid_cells(grid))
        above = [s for s in specs if s.k > s.m]
        assert calls == Counter(
            [("build_ideal", s) for s in specs]
            + [("IdealLayout", s) for s in above]
            + [("enumerate_ideal", s._replace(k=s.k - 1)) for s in above]
        )
        assert (len(specs), len(above)) == (59, 39)
        assert verdicts == [True] * len(specs)

    def test_each_ideal_is_built_once(self, monkeypatch):
        """The per-ideal walk builds each ideal's k-cover diagram once, for
        subposet and gamma, and its layout once, from which it reads the
        members once and their one-box steps once, and decides the order on
        them once, for subposet and duality; only gamma enumerates members,
        those of the level below."""
        calls = Counter()
        self.counted(monkeypatch, calls, lattice, "build_ideal", self.rectangle_spec)
        self.counted(monkeypatch, calls, ideals, "IdealLayout", lambda spec: (spec,))
        self.counted(monkeypatch, calls, ideals, "enumerate_ideal", lambda spec: (spec,))
        # the functions the cached properties call
        props = (verify._IdealView.members, verify._IdealView.steps, verify._IdealView.ordered)
        for prop in props:
            self.counted(monkeypatch, calls, prop, "func", lambda view: (view.spec,))
        grid = verify._Grid(4, 5, 7, 10)
        reports = verify._each_ideal(grid)
        assert [r.check for r in reports] == [name for name, _ in verify._PER_IDEAL_FAMILIES]
        assert all(r.grid > 0 and r.failed == 0 for r in reports)
        specs = list(verify._grid_cells(grid))
        below = [IdealSpec(s.m, s.n, s.k - 1) for s in specs if s.k > s.m]
        assert calls == Counter(
            [(name, s) for s in specs for name in ("build_ideal", "IdealLayout", *["func"] * 3)]
            + [("enumerate_ideal", s) for s in below]
        )
        assert (len(specs), len(below)) == (59, 39)

    def test_each_level_is_walked_once(self, monkeypatch):
        """The per-item walk enumerates each level's partitions once, builds
        each one's k-skew once, and each one's union with each k-rectangle
        once, with the union's k-skew, for both rectangle families.  Every
        cover it checks is read off one of those k-skews by the corner rule,
        once a partition and direction and once a union, and none comes
        through the covers memo or check_rectangle_translation."""
        calls = Counter()
        views = {}
        for module, names in (
            (partitions, ("k_bounded_partitions", "k_skew", "union")),
            (lattice, ("_corner_covers", "_covers", "covers", "check_rectangle_translation")),
        ):
            view = SimpleNamespace(**vars(module))
            for name in names:
                key = (lambda p, shape, k, d: (p, k, d)) if name == "_corner_covers" else None
                self.counted(monkeypatch, calls, view, name, key or (lambda *args: args))
            views[module.__name__.rpartition(".")[2]] = view
        for name, view in views.items():
            monkeypatch.setattr(verify, name, view)
        grid = verify._Grid(4, 5, 7, 10)
        reports = verify_structure(*grid)
        assert all(r.grid > 0 and r.failed == 0 for r in reports)
        expected = Counter()
        for k in range(1, grid.k_max + 1):
            bounded = list(partitions.k_bounded_partitions(k, grid.degree_max))
            expected[("k_bounded_partitions", k, grid.degree_max)] += 1
            expected.update(("k_skew", p, k) for p in bounded)
            expected.update(("_corner_covers", p, k, d) for p in bounded for d in ("up", "down"))
            for rect in partitions.all_k_rectangles(k):
                box, box_conj = rect.parts, partitions.k_conjugate(rect.parts, k)
                unions = [partitions.union(p, box) for p in bounded]
                expected.update(("union", p, box) for p in bounded)
                expected.update(("k_skew", u, k) for u in unions)
                expected.update(("_corner_covers", u, k, "up") for u in unions)
                # rectangle-conjugate's right side: each k-conjugate joined with the box's
                expected.update(
                    ("union", partitions.k_conjugate(p, k), box_conj) for p in bounded
                )
        assert calls == expected
        assert sum(n for key, n in calls.items() if key[0] == "k_skew") == 578 + 2899

    def test_gamma_keeps_no_member_set_across_ideals(self, monkeypatch):
        """structure-gamma keeps nothing from one ideal to the next: when the
        view builds an ideal's diagram, no set gamma made for an earlier
        ideal is still alive."""

        class Tracked(set):  # a set that takes weak references
            pass

        made = []

        def tracked(items):
            new = Tracked(items)
            made.append(weakref.ref(new))
            return new

        alive = []

        def counted(generator, k):
            alive.append(sum(ref() is not None for ref in made))
            return lattice.build_ideal(generator, k)

        monkeypatch.setattr(verify, "set", tracked, raising=False)
        view = SimpleNamespace(**{**vars(lattice), "build_ideal": counted})
        monkeypatch.setattr(verify, "lattice", view)
        grid = verify._Grid(3, 4, 9, 10)
        assert all(isinstance(cell, Pass) for cell in each_ideal(verify._gamma_cells, grid))
        assert made and alive == [0] * len(list(verify._grid_cells(grid)))

    def test_gamma_catches_a_step_across_two_strata(self, monkeypatch):
        """A k-cover () -> (1, 1) joins strata 0 and 2.  Added wherever m >= 2
        and (1, 1) is a member, it fails exactly the gamma cells with
        m >= 2, n >= 2 and k > m (the chain at k = m has no strata to cross);
        only verify's view of lattice is patched.  structure-subposet fails
        on the same ideals, where the k-cover is no one-box step, and no
        other family fails."""

        def two_strata(d):
            vertices = d.vertices()
            if vertices[-1][0] >= 2 and (1, 1) in vertices:  # the rectangle (m^n) is last
                d.edges.insert(1, (0, vertices.index((1, 1))))  # after () -> (1,)

        self.damage(monkeypatch, two_strata)
        by_name = {r.check: r for r in verify_structure(4, 5, 7, 10)}
        gamma = by_name.pop("structure-gamma")
        specs = verify._grid_cells(verify._Grid(4, 5, 7, 10))
        expected = [spec_dict(s) for s in specs if s.m >= 2 and s.n >= 2 and s.k > s.m]
        assert len(expected) == 29
        assert gamma.counterexamples == expected
        assert {tuple(cell) for cell in gamma.counterexamples} == {("m", "n", "k")}
        subposet = by_name.pop("structure-subposet")
        assert subposet.counterexamples == [
            {**where, "child": [], "extra": [[1, 1]], "missing": []} for where in expected
        ]
        assert {r.failed for r in by_name.values()} == {0}

    def test_decomposition_takes_the_strata_from_their_walk(self, monkeypatch):
        """Add 1 to every window_sum on verify's view of qpoly:
        structure-gamma and structure-decomposition each fail, on exactly
        their cells with k > m, the ones with a stratum to read (gamma's is
        the window (k-1, k], decomposition's the window (m, k]); every other
        family passes."""

        def off_by_one(*args):
            return [poly + QPoly.one() for poly in qpoly.window_sum(*args)]

        view = SimpleNamespace(**{**vars(qpoly), "window_sum": off_by_one})
        monkeypatch.setattr(verify, "qpoly", view)
        by_name = {r.check: r for r in verify_structure(3, 4, 5, 6)}
        specs = verify._grid_cells(verify._Grid(3, 4, 5, 6))
        expected = [spec_dict(s) for s in specs if s.k > s.m]
        assert len(expected) == 17
        for name in ("structure-gamma", "structure-decomposition"):
            assert by_name.pop(name).counterexamples == expected, name
        assert {r.failed for r in by_name.values()} == {0}

    def test_structure_needs_no_rank_gen_gamma(self, monkeypatch):
        """The closed form of the level-k stratum is the tests' oracle; the
        sweep reads the stratum off its walk."""

        def unused(*args):
            raise AssertionError("structure called rank_gen_gamma")

        view = SimpleNamespace(**{**vars(qpoly), "rank_gen_gamma": unused})
        monkeypatch.setattr(verify, "qpoly", view)
        reports = verify_structure(4, 5, 7, 10)
        assert len(reports) == 10
        assert all(r.grid > 0 and r.failed == 0 for r in reports), [r.check for r in reports]

    @pytest.mark.parametrize(
        "cells, name, strata_only, expected",
        [
            (verify._duality_cells, "complement_dual_parts", False, 1127),
            (verify._gamma_cells, "short_rows", True, 957),
        ],
        ids=["duality", "gamma"],
    )
    def test_each_member_is_read_once(self, monkeypatch, cells, name, strata_only, expected):
        """structure-duality computes each member's complement dual once, and
        structure-gamma each member's short rows once on the ideals with
        k > m, the ones with strata to compare."""
        calls = []
        read = getattr(ideals, name)

        def counted(p, arg):
            calls.append(p)
            return read(p, arg)

        view = SimpleNamespace(**{**vars(ideals), name: counted})
        monkeypatch.setattr(verify, "ideals", view)
        grid = verify._Grid(4, 5, 7, 10)
        assert all(isinstance(cell, Pass) for cell in each_ideal(cells, grid))
        specs = [spec for spec in verify._grid_cells(grid) if spec.k > spec.m or not strata_only]
        assert len(calls) == sum(len(ideals.enumerate_ideal(spec)) for spec in specs) == expected

    def test_upsets_match_containment(self):
        """The oracle upsets, on every ideal of the default grid: bit j of
        entry x is contains(rows[x], rows[j]), and contains(rows[j], rows[x])
        in reverse, with the members and with their duals as rows."""
        for spec in verify._grid_cells(verify._Grid(4, 6, 7, 10)):
            members = ideals.enumerate_ideal(spec)
            duals = [ideals.complement_dual(p, spec) for p in members]
            for rows in (members, duals):
                ups = upsets(rows, spec)
                downs = upsets(rows, spec, reverse=True)
                for x, up, down in zip(rows, ups, downs):
                    for j, y in enumerate(rows):
                        assert up >> j & 1 == partitions.contains(x, y), (spec, x, y)
                        assert down >> j & 1 == partitions.contains(y, x), (spec, x, y)
                    assert up < 1 << len(rows) and down < 1 << len(rows)

    @staticmethod
    def dropped_interior_step(monkeypatch):
        """(1, 1) -> (2, 1) dropped from the k-covers: every member still has
        an edge into it, yet (1, 1) no longer reaches (2, 1)."""

        def dropped(d):
            vertices = d.vertices()
            if {(1, 1), (2, 1)} <= set(vertices):
                d.edges.remove((vertices.index((1, 1)), vertices.index((2, 1))))

        TestStructure.damage(monkeypatch, dropped)

    @staticmethod
    def added_non_step(monkeypatch):
        """(1, 1) -> (2,) added to the k-covers, an edge inside a rank."""

        def added(d):
            vertices = d.vertices()
            if {(1, 1), (2,)} <= set(vertices):
                d.edges.append((vertices.index((1, 1)), vertices.index((2,))))
                d.edges.sort()

        TestStructure.damage(monkeypatch, added)

    @staticmethod
    def leaky_join(monkeypatch):
        """The join of () and (x, x) is (x + 1,), which leaves the ideal at x = m."""

        def leaky(a, b):
            x = max(a + b, default=0)
            return (x + 1,) if {a, b} == {(), (x, x)} else ideals.join_parts(a, b)

        view = SimpleNamespace(**{**vars(ideals), "join_parts": leaky})
        monkeypatch.setattr(verify, "ideals", view)

    @staticmethod
    def swapped_dual(monkeypatch):
        """In each ideal, the duals of the first two members of one degree
        that are neither each other's duals nor their own are swapped: still
        an involution onto the members that complements degrees."""
        swaps = {}

        def swapped(p, spec):
            if spec not in swaps:
                members = ideals.enumerate_ideal(spec)
                dual = {x: ideals.complement_dual_parts(x, spec) for x in members}
                swaps[spec] = dual
                for a, b in itertools.combinations(members, 2):
                    if sum(a) == sum(b) and not {a, b} & {dual[a], dual[b]}:
                        dual.update({a: dual[b], b: dual[a], dual[a]: b, dual[b]: a})
                        break
            return swaps[spec][p]

        view = SimpleNamespace(**{**vars(ideals), "complement_dual_parts": swapped})
        monkeypatch.setattr(verify, "ideals", view)

    @pytest.mark.parametrize(
        "plant, failing",
        [
            ("dropped_interior_step", [True, False]),
            ("added_non_step", [True, False]),
            ("leaky_join", [True, True]),
            ("swapped_dual", [False, True]),
        ],
    )
    def test_the_linear_checks_fail_the_ideals_the_all_pairs_oracle_fails(
        self, monkeypatch, plant, failing
    ):
        """With each fault planted, structure-subposet and structure-duality
        fail exactly the ideals of _Grid(4, 6, 7, 10) that their all-pairs
        routes fail, every ideal checked; failing says which of the two
        families the fault fails on some ideal.  The leaky join's pair is
        two class representatives: the families combine no other pair."""
        getattr(self, plant)(monkeypatch)
        verdicts, oracle = [], []
        for spec in verify._grid_cells(verify._Grid(4, 6, 7, 10)):
            view = verify._IdealView(spec)
            verdicts.append(
                [
                    all(isinstance(cell, Pass) for cell in family(view))
                    for family in (verify._subposet_cells, verify._duality_cells)
                ]
            )
            oracle.append([subposet_over_every_pair(view), duality_over_every_pair(view)])
        assert verdicts == oracle
        assert [not all(column) for column in zip(*verdicts)] == failing

    def test_subposet_and_duality_fit_in_linear_memory(self):
        """Subposet and duality on L^13(6, 24), 23,595 members, both pass in
        a child with 128 MiB of address space.  Bitsets over every pair of
        members need about 200 MiB of them alone."""
        code = (
            "from kyoung import verify\n"
            "from kyoung.ideals import IdealSpec\n"
            "view = verify._IdealView(IdealSpec(6, 24, 13))\n"
            "cells = [*verify._subposet_cells(view), *verify._duality_cells(view)]\n"
            "assert all(isinstance(cell, verify.Pass) for cell in cells), cells\n"
            "print(len(view.members), len(view.diagram.edges), sum(c.count for c in cells))\n"
        )
        proc = run_capped([code], cap_mib=128, entry=("-c",))
        assert proc.returncode == 0, proc.stderr[-2000:]
        members, edges, passed = map(int, proc.stdout.split())
        assert members == 23595 and passed == members**2 + edges + 1

    def test_a_member_with_no_step_into_it_fails_subposet_and_duality(self, monkeypatch):
        """At m = 1 each ideal is the chain of the columns (1^j).  With (1,)
        dropped from the members and, with its edges, from the k-cover
        diagram, the rest is still a chain, closed under meet and join, and
        the k-covers agree with the layout's steps; but no step goes into
        (1, 1), so () does not reach it.  Subposet
        fails every ideal with n >= 2, and duality every ideal: at n = 2 the
        rank vector [1, 0, 1] is still a palindrome and the duals still
        reverse containment, so only the missing step tells there."""
        self.damage(monkeypatch, self.without_one)
        self.damaged_ranks(monkeypatch, lambda box, ranks: ranks[1].remove((1, 0)))
        grid = verify._Grid(1, 4, 4, 4)
        specs = list(verify._grid_cells(grid))
        assert [spec.n for spec in specs].count(2) == 2
        for family, least in ((verify._subposet_cells, 2), (verify._duality_cells, 1)):
            report = verify._sweep("structure", "theorem", each_ideal(family, grid))
            assert report.counterexamples == [spec_dict(s) for s in specs if s.n >= least]

    def test_duality_catches_a_dual_that_is_not_order_reversing(self, monkeypatch):
        """Swap the images of two members of one degree under complement_dual.
        The result is still an involution onto the members that complements
        degrees, so only the order-reversal clause can see it; the swap is
        made where it breaks order reversal, and each such ideal must fail."""

        def swapped_dual(spec):
            members = ideals.enumerate_ideal(spec)
            dual = {p: ideals.complement_dual(p, spec) for p in members}
            for a, b in itertools.combinations(members, 2):
                if sum(a) != sum(b) or {a, b} & {dual[a], dual[b]}:
                    continue
                f = {**dual, a: dual[b], b: dual[a], dual[a]: b, dual[b]: a}
                if any(
                    partitions.contains(x, y) != partitions.contains(f[y], f[x])
                    for x in members
                    for y in members
                ):
                    return f
            return None

        swaps = {
            spec: swapped_dual(spec) for spec in verify._grid_cells(verify._Grid(3, 4, 4, 4))
        }
        broken = [spec_dict(spec) for spec, f in swaps.items() if f is not None]

        def mutated(p, spec):
            f = swaps[spec]
            return ideals.complement_dual_parts(p, spec) if f is None else f[p]

        view = SimpleNamespace(**{**vars(ideals), "complement_dual_parts": mutated})
        monkeypatch.setattr(verify, "ideals", view)
        reports = verify_structure(m_max=3, n_max=4, k_max=4, degree_max=4)
        by_name = {r.check: r for r in reports}
        duality = by_name.pop("structure-duality")
        assert broken and duality.counterexamples == broken
        assert {r.failed for r in by_name.values()} == {0}

    def test_duality_catches_a_dual_that_is_no_involution(self, monkeypatch):
        """In the full 2 x 2 box, L^3(2, 2), the members (2) and (1, 1) are
        each their own dual, and both cover (1) and are covered by (2, 1).
        So a dual that takes (1, 1) to (2) still lands on members and takes
        each step x below y to a step dual(y) below dual(x); only the
        involution clause sees it, on that ideal alone."""
        fold = IdealSpec(2, 2, 3)

        def folded(p, spec):
            return (2,) if (p, spec) == ((1, 1), fold) else ideals.complement_dual_parts(p, spec)

        view = SimpleNamespace(**{**vars(ideals), "complement_dual_parts": folded})
        monkeypatch.setattr(verify, "ideals", view)
        by_name = {r.check: r for r in verify_structure(2, 2, 3, 4)}
        assert by_name.pop("structure-duality").counterexamples == [spec_dict(fold)]
        assert {r.failed for r in by_name.values()} == {0}

    def test_duality_catches_an_unreversed_rotation(self, monkeypatch):
        """A rotation that complements the short rows without reversing them
        maps a member with two distinct short rows to parts that increase,
        no member; the unchecked complement_dual_parts does not catch that,
        so structure-duality must, on exactly the ideals holding such a
        member, with every other family passing."""

        def unreversed(p, spec):
            m = spec.m
            return (m,) * (spec.n - len(p)) + tuple(m - v for v in p if v < m)

        grid = verify._Grid(4, 5, 6, 4)
        expected = [
            spec_dict(spec)
            for spec in verify._grid_cells(grid)
            if any(len({v for v in p if v < spec.m}) >= 2 for p in ideals.enumerate_ideal(spec))
        ]
        view = SimpleNamespace(**{**vars(ideals), "complement_dual_parts": unreversed})
        monkeypatch.setattr(verify, "ideals", view)
        by_name = {r.check: r for r in verify_structure(*grid)}
        duality = by_name.pop("structure-duality")
        assert expected and duality.counterexamples == expected
        assert {r.failed for r in by_name.values()} == {0}

    @staticmethod
    def leaky(monkeypatch, name, fault, grid):
        """structure-duality's counterexamples on grid, with verify's view of
        the unchecked ideals.name giving fault(a, b) wherever that is not
        None.  The closure is the view's, and subposet reads it too, so
        subposet must fail on the same ideals and every other family pass."""
        combine = getattr(ideals, name)

        def leaky(a, b):
            image = fault(a, b)
            return combine(a, b) if image is None else image

        view = SimpleNamespace(**{**vars(ideals), name: leaky})
        monkeypatch.setattr(verify, "ideals", view)
        by_name = {r.check: r for r in verify_structure(*grid)}
        duality = by_name.pop("structure-duality")
        assert by_name.pop("structure-subposet").counterexamples == duality.counterexamples
        assert {r.failed for r in by_name.values()} == {0}
        return duality.counterexamples

    def test_duality_records_a_lattice_op_that_leaves_the_ideal(self, monkeypatch):
        """A join that leaves the ideal is a counterexample, not a ValueError
        from a later lattice operation.  The join of (2,) and (1, 1) made
        (3,) leaves exactly the ideals with m = 2 that hold both."""

        def fault(a, b):
            return (3,) if {a, b} == {(2,), (1, 1)} else None

        grid = verify._Grid(2, 3, 3, 10)
        expected = [
            spec_dict(spec)
            for spec in verify._grid_cells(grid)
            if spec.m == 2 and ideals.is_member((1, 1), spec)
        ]
        assert expected and self.leaky(monkeypatch, "join_parts", fault, grid) == expected

    def check_every_class_pair(self, monkeypatch, name):
        """A meet or join that leaves the ideal on one pair only, () with
        (m, m), is caught on every ideal that holds that pair and on no
        other: {(), (x, x)} goes to (x + 1,), which leaves the ideal only at
        x = m, and (m, m) represents its class."""

        def fault(a, b):
            x = max(a + b, default=0)
            return (x + 1,) if {a, b} == {(), (x, x)} else None

        grid = verify._Grid(3, 5, 6, 4)
        expected = [spec_dict(spec) for spec in verify._grid_cells(grid) if spec.n >= 2]
        assert expected and self.leaky(monkeypatch, name, fault, grid) == expected

    def test_duality_checks_every_class_pair(self, monkeypatch):
        self.check_every_class_pair(monkeypatch, "join_parts")

    def test_duality_checks_every_class_pair_of_a_meet(self, monkeypatch):
        self.check_every_class_pair(monkeypatch, "meet_parts")


class TestPerItemCounterexamples:
    """One fault per per-item structure family, injected through verify's view
    of partitions or lattice only, and the exact counterexamples it records.
    The walk's report of the faulted family is the oracle's; a fault in a
    value the walk builds once a level for several families, a k-skew or a
    union, reaches every family that reads it, where the oracle's other
    families build that value afresh.  The cells that hold carry none."""

    @staticmethod
    def report(monkeypatch, source, name, fault, family, shared=()):
        """The counterexamples of structure-family with source.name replaced
        by fault(original) in verify's view; see compared."""
        view = SimpleNamespace(**{**vars(source), name: fault(getattr(source, name))})
        monkeypatch.setattr(verify, source.__name__.rpartition(".")[2], view)
        return TestPerItemCounterexamples.compared(family, shared)

    @staticmethod
    def compared(family, shared=(), grid=verify._Grid(2, 2, 5, 4)):
        """The counterexamples of structure-family on grid, by the walk, whose
        reports are the oracle's but for the other families named in shared."""
        walk, oracle = per_item_reports(grid)
        assert list(walk) == list(oracle)
        assert {name for name in walk if walk[name] != oracle[name]} == {
            "structure-" + other for other in shared
        }
        report = walk["structure-" + family]
        assert report["fail"] == len(report["counterexamples"]) > 0
        return report["counterexamples"]

    @pytest.mark.parametrize("grid", [verify._Grid(2, 3, 5, 6), verify._Grid(4, 5, 7, 10)])
    def test_the_walk_gives_the_oracle_reports(self, grid):
        walk, oracle = per_item_reports(grid)
        assert list(walk) == [name for name, _ in verify._PER_LEVEL_FAMILIES]
        assert walk == oracle
        assert all(r["grid"] > 0 and r["fail"] == 0 for r in walk.values())

    @pytest.mark.parametrize(
        "family", ["involution", "kskew", "covering", "rectangle-conjugate", "rectangle-translation"]
    )
    def test_a_cell_that_holds_carries_no_counterexample(self, family):
        grid = verify._Grid(2, 2, 5, 4)
        outcomes = list(each_level(dict(verify._PER_LEVEL_FAMILIES)["structure-" + family], grid))
        if family == "rectangle-conjugate":
            outcomes += verify._rectangle_form_cells(grid)
        assert outcomes and all(cell is verify._HOLDS for cell in outcomes)

    def test_involution(self, monkeypatch):
        # (2) is the k-conjugate of (1, 1) for every k >= 2
        def fault(is_k_bounded):
            return lambda p, k: p != (2,) and is_k_bounded(p, k)

        found = self.report(monkeypatch, partitions, "is_k_bounded", fault, "involution")
        assert found == [{"k": k, "partition": [1, 1]} for k in range(2, 6)]

    def test_kskew(self, monkeypatch):
        def fault(k_skew):
            def moved(p, k):
                if (p, k) == ((2, 1), 3):  # the true diagram is the straight shape
                    return partitions.skew_shape((3, 1), (1,))
                return k_skew(p, k)

            return moved

        # the walk reads the k-conjugate and the covers of (2, 1) at k = 3 off the moved diagram
        shared = ["involution", "covering", "rectangle-conjugate", "rectangle-translation"]
        found = self.report(monkeypatch, partitions, "k_skew", fault, "kskew", shared)
        assert found == [{"k": 3, "partition": [2, 1]}]

    def test_covering(self, monkeypatch):
        def fault(covers_oracle):
            def dropped(p, k, direction):
                out = covers_oracle(p, k, direction)
                return out[1:] if (p, k, direction) == ((1,), 2, "down") else out

            return dropped

        found = self.report(monkeypatch, lattice, "covers_oracle", fault, "covering")
        assert found == [{"k": 2, "partition": [1], "dir": "down"}]

    def test_rectangle_conjugate_union(self, monkeypatch):
        # (1) joined with (2) is read on the left at k = 2, width 2 (p = (1)),
        # and on the right at k = 2, width 1 (p = (1), box conjugate (2));
        # rectangle-translation reads the covers above the same union
        def fault(union):
            return lambda a, b: union(a, b) + (1,) * ((a, b) == ((1,), (2,)))

        shared = ["rectangle-translation"]
        found = self.report(monkeypatch, partitions, "union", fault, "rectangle-conjugate", shared)
        assert found == [
            {"k": 2, "width": 1, "partition": [1]},
            {"k": 2, "width": 2, "partition": [1]},
        ]

    def test_rectangle_conjugate_closed_form(self, monkeypatch):
        def fault(closed_form):
            return lambda m, n, k: closed_form(m, n, k) + ((1,) if (m, n, k) == (1, 2, 3) else ())

        found = self.report(
            monkeypatch, partitions, "rectangle_k_conjugate", fault, "rectangle-conjugate"
        )
        assert found == [{"m": 1, "n": 2, "k": 3}]

    def test_rectangle_conjugate_small_partition(self, monkeypatch):
        # mu = (2, 1) fits under the rectangle only at width 3, k = 5
        def fault(conjugate):
            return lambda p: conjugate(p) + ((1,) if p == (2, 1) else ())

        found = self.report(monkeypatch, partitions, "conjugate", fault, "rectangle-conjugate")
        assert found == [{"k": 5, "width": 3, "mu": [2, 1]}]

    def test_rectangle_translation(self, monkeypatch):
        # (1) joined with (1, 1), the k-rectangle of width 1 at k = 2, loses
        # the first of its translated covers, in the library module itself,
        # so that the oracle's check_rectangle_translation reads it too
        translated = lattice._translated

        def damaged(ups, box):
            out = translated(ups, box)
            return out[1:] if (ups, box) == (lattice._covers((1,), 2, "up"), (1, 1)) else out

        monkeypatch.setattr(lattice, "_translated", damaged)
        found = self.compared("rectangle-translation")
        assert found == [
            {
                "k": 2,
                "width": 1,
                "partition": [1],
                "lhs": [[1, 1, 1, 1], [2, 1, 1]],
                "rhs": [[2, 1, 1]],
            }
        ]


def written_json(diagram) -> str:
    """The text lattice.write_json writes of diagram."""
    pieces = []
    lattice.write_json(pieces.append, diagram)
    return "".join(pieces)


class TestExport:
    def test_diagram_json(self):
        doc = json.loads(written_json(build_ideal((2, 1), 2)))
        assert doc["k"] == 2 and doc["name"] == "ideal [2,1]"

    def test_report_and_list(self, tmp_path):
        rep = verify_sieved(2, 2, 4)
        path = tmp_path / "r.json"
        export(rep, str(path))
        assert json.loads(path.read_text())["check"] == "sieved"
        export([rep, rep], str(path))
        assert [r["check"] for r in json.loads(path.read_text())] == ["sieved", "sieved"]

    def test_render_matches_the_json_module(self):
        """render writes what json.dumps(payload, indent=2) writes."""
        report = verify_sieved(2, 2, 4)
        # a report is tallied by _sweep alone, so the odd ones come from cells
        odd = verify._sweep("odd", "conjecture", [
            {
                "empty": [],
                "nested": [[], [1, [2, []]], {"a": [], "b": {}}, (3, -4)],
                "flags": [True, False],
                "mixed": [1, None, 0.5, "x"],
            },
            {},
            Note("é \"q\"\n"),
        ])
        leaves = verify._sweep("leaves", "conjecture", [
            {"bool": [[1, True], [2, 3]], "empty": [[], [1]]},
            {"tuples": ((1, 2), (3,), ()), "strings": [[1, 2], ["a", "b"]]},
            {"dict": [[1], {"2": [3]}], "nested": [[1], [[2]]], "float": [[1], [2.0]]},
        ])
        # what a %d slot per int could get wrong: a float it would truncate,
        # ints past 64 bits and below 0, inner lengths that differ
        numbers = verify._sweep("numbers", "conjecture", [
            {"float": [[1, 2.0]], "half": [[0.5, 1]], "flat": [3, 2.0]},
            {"big": [[2**70, -(2**70)], [-1, 0]], "flat": [2**70, -5]},
            {"ragged": [[], [1], [2, 3, 4], [], (5, 6)], "empties": [[], ()]},
            {"empty_dict": {}, "empty_list": [], "inside": [{}, []]},
        ])
        assert odd.notes == ["é \"q\"\n"] and (odd.failed, numbers.failed) == (2, 4)
        cases = [report, odd, leaves, numbers, [report, odd], [leaves, numbers, report], []]
        for obj in cases:
            if isinstance(obj, list):
                payload = [r.to_json_dict() for r in obj]
            else:
                payload = obj.to_json_dict()
            assert render(obj) == json.dumps(payload, indent=2) + "\n"

    def test_diagram_writer_matches_the_json_module(self):
        """lattice.write_json writes what json.dumps(diagram.to_json_dict(),
        indent=2) writes."""
        cases = [
            build_ideal((3, 3, 2), 4),
            build_ideal((2, 2, 2), 3),
            build_ideal((3, 3), 3),  # a chain
            build_ideal((), 2),  # one vertex, no edge
            # the diagram writer's fixed shape at its edges
            HasseDiagram(k=2, name="no ranks", ranks=[]),
            HasseDiagram(k=2, name="an empty rank", ranks=[[], [(1,)]], edges=[]),
            HasseDiagram(k=2, name="the empty vertex", ranks=[[()]]),
            HasseDiagram(
                k=3,
                name='mixed "lengths" é',
                ranks=[[()], [(1,)], [(3,), (2, 1), (1, 1, 1)]],
                edges=[(0, 1), (1, 2), (1, 3), (1, 4)],
            ),
        ]
        for diagram in cases:
            expected = json.dumps(diagram.to_json_dict(), indent=2) + "\n"
            assert written_json(diagram) == expected, diagram.name

    def test_byte_identical_reruns(self):
        assert written_json(build_ideal((2, 2), 2)) == written_json(build_ideal((2, 2), 2))


class TestSweepConfig:
    def test_from_json(self):
        cfg = SweepConfig.from_json_dict(
            {"check": "sieved", "params": {"m": 2, "a": 2, "b": 4}, "out": "x.json"}
        )
        assert cfg.check == "sieved"
        assert cfg.out == "x.json"

    def test_defaults(self):
        cfg = SweepConfig.from_json_dict({"check": "structure"})
        assert cfg.params == {}
        assert cfg.out is None

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SweepConfig.from_json_dict({"check": "sieved", "bogus": 1})
        with pytest.raises(ValueError):
            SweepConfig.from_json_dict({"check": "sieved", "params": []})

    def test_requires_check(self):
        with pytest.raises(ValueError):
            SweepConfig.from_json_dict({"params": {}})

    @pytest.mark.parametrize(
        "load",
        [
            lambda huge: SweepConfig("sieved", {"m": huge}),
            lambda huge: SweepConfig("structure", {"k_max": huge}),
            lambda huge: SweepConfig("conjecture-u", {"m": [[huge]]}),
            lambda huge: SweepConfig(str(huge), {}),
            lambda huge: SweepConfig("sieved", {str(huge): 1}),
            lambda huge: SweepConfig.from_json_dict(huge),
            lambda huge: SweepConfig.from_json_dict({"check": "sieved", "out": [huge]}),
            lambda huge: SweepConfig.from_json_dict({"check": "sieved", "format": huge}),
            lambda huge: SweepConfig.from_json_dict({"check": "sieved", str(huge): 1}),
            lambda huge: SweepConfig.list_from_json({"sweeps": [], str(huge): 1}),
            lambda huge: SweepConfig.list_from_json({"sweeps": huge}),
        ],
        ids=[
            "param-range",
            "param-int",
            "prime-values",
            "unknown-check",
            "unknown-param",
            "entry-not-object",
            "out-not-string",
            "format-not-json",
            "unknown-entry-key",
            "unknown-top-level-key",
            "sweeps-not-list",
        ],
    )
    def test_an_error_echoes_a_bounded_value(self, load):
        # a value of a million items, or a million characters, is shown briefly
        for huge in (list(range(10**6)), "x" * 10**6):
            with pytest.raises(ValueError) as info:
                load(huge)
            assert len(str(info.value)) < 300, str(info.value)[:300]


class TestRunners:
    def test_unknown_check(self):
        with pytest.raises(ValueError):
            run_check("bogus", {})

    def test_conjecture_u_scalar_and_list(self):
        reports = run_check("conjecture-u", {"m": 3, "k": [1, 8], "n": [1, 8]})
        assert len(reports) == 1 and reports[0].failed == 0
        reports = run_check("conjecture-u", {"m": [2, 3], "k": [1, 8], "n": [1, 8]})
        assert [r.notes[0] for r in reports] == ["m=2", "m=3"]
        # [lo, hi] is a range here as in every check; conjecture-u runs its primes
        reports = run_check("conjecture-u", {"m": [2, 7], "k": [1, 8], "n": [1, 8]})
        assert [r.notes[0] for r in reports] == ["m=2", "m=3", "m=5", "m=7"]

    def test_param_range_validation(self):
        with pytest.raises(ValueError):
            run_check("conjecture-gen", {"m": "wide"})
        # JSON true and false are not ints, and a structure bound is not negative
        for check, params in (
            ("structure", {"k_max": True}),
            ("structure", {"degree_max": -1}),
            ("structure", {"m_max": -2}),
            ("sieved", {"k": False}),
            ("conjecture-gen", {"n": [True, 5]}),
            ("conjecture-u", {"m": True}),
            ("conjecture-u", {"m": [[3], [False]]}),
            # m is an int or a range, a list of those, or a list of lists of those
            ("conjecture-u", {"m": [[[3]]]}),
            # null is no value, not the default
            ("sieved", {"m": 2, "a": 2, "b": 4, "k": None}),
        ):
            with pytest.raises(ValueError, match="expected"):
                run_check(check, params)

    def test_run_sweep_writes_single_report(self, tmp_path):
        out = tmp_path / "out.json"
        cfg = SweepConfig(
            check="sieved", params={"m": 2, "a": 2, "b": 4}, out=str(out)
        )
        reports = run_sweep(cfg)
        assert len(reports) == 1
        assert json.loads(out.read_text())["check"] == "sieved"

    def test_run_sweep_writes_report_list(self, tmp_path):
        out = tmp_path / "out.json"
        cfg = SweepConfig(
            check="structure",
            params={"m_max": 1, "n_max": 2, "k_max": 2, "degree_max": 3},
            out=str(out),
        )
        reports = run_sweep(cfg)
        assert len(reports) == 10
        assert len(json.loads(out.read_text())) == 10


class TestGoldenReports:
    """Each check's reports on a small grid hash to the digest recorded in
    sweeps/goldens.json: counts, counterexamples, note order and skip-reason
    text are all pinned.

    structure-workload, sieved-qseries-small, conjecture-gen-qseries-small
    and conjecture-u-qseries-large are the grids of the benchmark's
    structure, qseries-small and qseries-large runs; sieved-large-m takes m
    past 14, up to 24 with its seven divisors d > 1.  The wide-n and from-n
    grids run most windows past their first period insertion, and from-m-1
    has m = 1, where no level has a stratum.  structure-5-10-9-12 runs
    every structure family on a grid past the workload's."""

    GOLDENS = json.loads(
        (Path(__file__).resolve().parents[1] / "sweeps" / "goldens.json").read_text()
    )

    @pytest.mark.parametrize("name", GOLDENS)
    def test_report_digest(self, name):
        entry = dict(self.GOLDENS[name])
        recorded = entry.pop("digest")
        reports = run_sweep(SweepConfig.from_json_dict(entry))
        assert report_digest([r.to_json_dict() for r in reports]) == recorded
