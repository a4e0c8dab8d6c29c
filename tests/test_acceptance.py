"""Acceptance gate: every criterion at full stated scale, one line each.

Lines are printed as the tests run (visible with -s) and replayed in the
terminal summary. A criterion that exceeds its time budget fails.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb

import acceptance_log

from kyoung.ideals import (
    IdealSpec,
    complement_dual,
    enumerate_ideal,
    gamma_set,
    join,
    meet,
    rank_vector,
)
from kyoung.lattice import (
    check_rectangle_translation,
    covers,
    covers_oracle,
    leq,
)
from kyoung.partitions import (
    Parts,
    all_k_rectangles,
    conjugate,
    contains,
    k_bounded_partitions,
    k_conjugate,
    k_skew,
    union,
)
from kyoung.qpoly import (
    QPoly,
    count_Lk,
    gaussian,
    is_symmetric,
    rank_gen_Lk,
    rank_gen_gamma,
    sieved_sums,
)
from kyoung.verify import (
    VerificationReport,
    verify_conjecture_gen,
    verify_conjecture_u,
    verify_sieved,
)


def _emit(line: str) -> None:
    acceptance_log.lines.append(line)
    print(line)


@contextmanager
def criterion(cid: str, label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"[acceptance] {cid} {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        _emit(f"[acceptance] {cid} {label}: FAIL (took {dt:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"{cid} exceeded its {budget:g}s budget: {dt:.2f}s")
    _emit(f"[acceptance] {cid} {label}: PASS ({dt:.2f}s)")


def grid_specs():
    for m in range(1, 5):
        for k in range(m, 8):
            for n in range(max(1, k - m + 1), 7):
                yield IdealSpec(m, n, k)


def test_c01_worked_skew_and_conjugate():
    with criterion("C01", "worked k-skew and k-conjugate at k=4"):
        s = k_skew((4, 3, 2, 2, 1, 1), 4)
        assert s.outer == (9, 5, 3, 2, 1, 1)
        assert s.inner == (5, 2, 1)
        assert k_conjugate((4, 3, 2, 2, 1, 1), 4) == (3, 2, 2, 1, 1, 1, 1, 1, 1)


def test_c02_worked_cover_sets():
    with criterion("C02", "worked cover sets of (4,2,1,1) at k=4"):
        assert covers((4, 2, 1, 1), 4, "up") == [(4, 2, 1, 1, 1), (4, 2, 2, 1)]
        assert covers((4, 2, 1, 1), 4, "down") == [(4, 1, 1, 1), (4, 2, 1)]


def test_c03_conjugation_involution():
    with criterion("C03", "k-conjugation is a degree-preserving involution, k<=6 |p|<=12", 30):
        cells = 0
        for k in range(1, 7):
            for p in k_bounded_partitions(k, 12):
                kc = k_conjugate(p, k)
                assert sum(kc) == sum(p), (p, k)
                assert not kc or kc[0] <= k, (p, k)
                assert k_conjugate(kc, k) == p, (p, k)
                cells += 1
        assert cells > 0


def test_c04_covers_match_definitional_oracle():
    with criterion("C04", "residue covers equal definitional covers, k<=5 |p|<=10", 60):
        for k in range(1, 6):
            for p in k_bounded_partitions(k, 10):
                for direction in ("up", "down"):
                    assert covers(p, k, direction) == covers_oracle(p, k, direction), (
                        p,
                        k,
                        direction,
                    )


def test_c05_rectangle_union_conjugation():
    with criterion("C05", "conjugation splits over union with a k-rectangle, k<=5 |p|<=8", 30):
        for k in range(1, 6):
            for rect in all_k_rectangles(k):
                box = rect.parts
                box_conj = conjugate(box)
                assert k_conjugate(box, k) == box_conj
                for p in k_bounded_partitions(k, 8):
                    assert k_conjugate(union(p, box), k) == union(
                        k_conjugate(p, k), box_conj
                    ), (p, rect, k)


def test_c06_rectangle_translation_of_covers():
    with criterion("C06", "cover sets translate across a k-rectangle union, k<=4 |p|<=6", 60):
        for k in range(1, 5):
            for rect in all_k_rectangles(k):
                for p in k_bounded_partitions(k, 6):
                    lhs, rhs = check_rectangle_translation(p, rect, k)
                    assert lhs == rhs, (p, rect.parts, k)


def test_c07_ideal_counts_and_rank_vectors():
    with criterion("C07", "ideal sizes and rank vectors match closed forms on the grid", 30):
        for spec in grid_specs():
            members = enumerate_ideal(spec)
            poly = rank_gen_Lk(spec.m, spec.n, spec.k)
            assert len(members) == count_Lk(spec.m, spec.n, spec.k), spec
            assert len(members) == poly(1), spec
            assert rank_vector(members, spec.top_rank) == poly, spec
        assert len(enumerate_ideal(IdealSpec(3, 3, 3))) == 10
        assert len(enumerate_ideal(IdealSpec(3, 3, 4))) == 16
        assert len(enumerate_ideal(IdealSpec(3, 3, 5))) == 20


def test_c08_order_is_containment_inside_ideals():
    with criterion("C08", "order below a rectangle coincides with containment", 120):
        for spec in grid_specs():
            members = enumerate_ideal(spec)
            for x in members:
                for y in members:
                    assert leq(x, y, spec.k) == contains(x, y), (spec, x, y)


def _sample_triples(members: list[Parts], limit: int, seed: int) -> list[tuple[Parts, Parts, Parts]]:
    """All triples, or limit seeded draws of C09's distributive-law checks."""
    if len(members) ** 3 <= limit:
        return list(itertools.product(members, repeat=3))
    rng = random.Random(seed)
    draws = iter(lambda: rng.choice(members), None)
    return list(itertools.islice(zip(draws, draws, draws), limit))


def test_c09_selfduality_and_lattice_operations():
    with criterion("C09", "complement duality, palindromic ranks, distributive meet/join", 60):
        for spec in grid_specs():
            members = enumerate_ideal(spec)
            member_set = set(members)
            assert is_symmetric(rank_vector(members, spec.top_rank), spec.top_rank), spec
            for p in members:
                d = complement_dual(p, spec)
                assert d in member_set, (spec, p)
                assert complement_dual(d, spec) == p, (spec, p)
                assert sum(d) == spec.top_rank - sum(p), (spec, p)
            for x in members:
                for y in members:
                    assert contains(x, y) == contains(
                        complement_dual(y, spec), complement_dual(x, spec)
                    ), (spec, x, y)
            seed = spec.m * 100 + spec.n * 10 + spec.k
            for x, y, z in _sample_triples(members, 200, seed):
                lo, hi = meet(x, y, spec), join(x, y, spec)
                assert lo in member_set and hi in member_set, (spec, x, y)
                assert meet(x, join(y, z, spec), spec) == join(
                    meet(x, y, spec), meet(x, z, spec), spec
                ), (spec, x, y, z)
                assert join(x, meet(y, z, spec), spec) == meet(
                    join(x, y, spec), join(x, z, spec), spec
                ), (spec, x, y, z)
            if spec.k > spec.m and spec.n >= spec.k - spec.m + 1:
                gamma_poly = rank_gen_gamma(spec.m, spec.n, spec.k)
                assert is_symmetric(gamma_poly, spec.top_rank), spec
                grv = rank_vector(gamma_set(spec), spec.top_rank)
                assert is_symmetric(grv, spec.top_rank), spec


def test_c10_stratified_decomposition():
    with criterion("C10", "rank series decomposes into chain plus strata", 10):
        for spec in grid_specs():
            total = QPoly.geometric(1, spec.top_rank + 1)
            for r in range(spec.m + 1, spec.k + 1):
                total = total + rank_gen_gamma(spec.m, spec.n, r)
            assert total == rank_gen_Lk(spec.m, spec.n, spec.k), spec


def test_c11_sieved_sums_and_cyclotomic_vanishing():
    with criterion("C11", "sieved coefficient sums split evenly, roots of unity vanish", 60):
        cells = 0
        for m in (2, 3, 5, 7):
            for k in range(m + 1, 31):
                if k % m in (0, m - 1):
                    continue
                sums = sieved_sums(gaussian(k - 1, m - 2), m)
                assert len(set(sums)) == 1, (m, k)
                assert sums[0] * m == comb(k - 1, m - 2), (m, k)
                cells += 1
        assert cells > 0
        report = verify_sieved((2, 12), (2, 19), (3, 20))
        assert report.failed == 0, report.counterexamples[:3]
        assert report.grid > 0


def test_c12_conjecture_sweeps_complete_clean():
    with criterion("C12", "unimodality sweeps finish with zero counterexamples", 300):
        total_grid = total_failed = 0
        for m in (2, 3, 5, 7):
            for k in range(1, 26):
                report = verify_conjecture_u(m, k, (1, k + 5))
                assert isinstance(report, VerificationReport)
                assert isinstance(report.counterexamples, list)
                total_grid += report.grid
                total_failed += report.failed
        assert total_failed == 0
        assert total_grid > 0
        gen = verify_conjecture_gen((2, 12), (2, 19), (3, 20), (1, 25))
        assert isinstance(gen, VerificationReport)
        assert gen.failed == 0, gen.counterexamples[:3]
        assert gen.grid > 0
