"""Rectangle ideals: membership, gamma strata, duality, lattice operations."""

import itertools
import json
import warnings

import pytest

from kyoung.cli import main
from kyoung.ideals import (
    IdealLayout,
    IdealSpec,
    complement_dual,
    enumerate_ideal,
    gamma_set,
    is_member,
    join,
    meet,
    rank_vector,
    short_rows,
)
from kyoung.lattice import build_ideal, leq, write_dot, write_json
from kyoung.partitions import contains, part_at, partitions_in_box
from kyoung.qpoly import QPoly, is_symmetric, rank_gen_Lk
from test_lattice import dot_by_fstrings


def sum_parts(a, b):
    """Componentwise sum of two partitions."""
    n = max(len(a), len(b))
    return tuple(part_at(a, i) + part_at(b, i) for i in range(1, n + 1))


def members_by_search(spec):
    """Oracle: walk the order itself instead of the box characterization."""
    return sorted(
        (
            p
            for p in partitions_in_box(spec.m, spec.n)
            if leq(p, spec.rectangle, spec.k)
        ),
        key=lambda p: (sum(p), p),
    )


def members_by_parametrization(spec):
    """Oracle: the chain of full rows topped by strata of lifted partitions.

    Every member is (m^a) plus a tail of j parts below m, the tail being
    mu + (1,...,1) for mu inside the (m-2) x j box, for some j up to
    k - m + 1.  Duplicates cannot arise since j is the short-row count.
    """
    m, n, k = spec.m, spec.n, spec.k
    out = set()
    for j in range(min(k - m + 1, n) + 1):
        for mu in partitions_in_box(max(m - 2, 0), j):
            tail = sum_parts(mu, (1,) * j)
            for a in range(n - j + 1):
                out.add((m,) * a + tail)
    return sorted(out, key=lambda p: (sum(p), p))


def members_by_box_filter(spec):
    """Oracle: every partition of the m x n box that is a member."""
    members = [p for p in partitions_in_box(spec.m, spec.n) if is_member(p, spec)]
    return sorted(members, key=lambda p: (sum(p), p))


def gamma_by_box_filter(spec):
    """Oracle: every partition of the m x n box with k - m + 1 short rows."""
    j = spec.k - spec.m + 1
    gamma = [p for p in partitions_in_box(spec.m, spec.n) if short_rows(p, spec.m) == j]
    return sorted(gamma, key=lambda p: (sum(p), p))


def old_is_member(p, spec):
    """The definition before the box test was one expression."""
    if not contains(p, spec.rectangle):
        return False
    return short_rows(p, spec.m) <= spec.k - spec.m + 1


def old_require_member(p, spec):
    if not old_is_member(p, spec):
        raise ValueError(f"{p} is not a member of L^{spec.k}({spec.m},{spec.n})")


def old_strip(out):
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def old_complement_dual(p, spec):
    old_require_member(p, spec)
    return old_strip(tuple(spec.m - part_at(p, spec.n + 1 - i) for i in range(1, spec.n + 1)))


def old_meet(a, b, spec):
    old_require_member(a, spec)
    old_require_member(b, spec)
    return old_strip(tuple(min(x, y) for x, y in zip(a, b)))


def old_join(a, b, spec):
    old_require_member(a, spec)
    old_require_member(b, spec)
    n = max(len(a), len(b))
    return tuple(max(part_at(a, i), part_at(b, i)) for i in range(1, n + 1))


def is_partition(t):
    """Positive parts in weakly decreasing order."""
    return 0 not in t and list(t) == sorted(t, reverse=True)


def outcome(f, *args):
    """f's value, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as err:
        return ("ValueError", str(err))


class TestSpec:
    def test_fields(self):
        spec = IdealSpec(3, 4, 5)
        assert spec.rectangle == (3, 3, 3, 3)
        assert spec.top_rank == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealSpec(0, 1, 3)
        with pytest.raises(ValueError):
            IdealSpec(2, 0, 3)
        with pytest.raises(ValueError):
            IdealSpec(3, 2, 2)

    @pytest.mark.parametrize(
        "m, n, k, message",
        [
            (0, 1, 1, "need 1 <= m <= k: m=0 k=1"),
            (3, 1, 2, "need 1 <= m <= k: m=3 k=2"),
            (2, 0, 3, "need n >= 1: n=0"),
        ],
    )
    def test_spec_and_rank_gen_share_one_rule(self, m, n, k, message):
        for make in (IdealSpec, rank_gen_Lk):
            with pytest.raises(ValueError) as info:
                make(m, n, k)
            assert str(info.value) == message

    def test_is_a_checked_value(self):
        """A spec is the tuple (m, n, k): made by position or by keyword,
        equal and hashed as that tuple, read only, shown with its field
        names, and held to require_rectangle however it is made."""
        spec = IdealSpec(m=3, n=3, k=4)
        assert spec == IdealSpec(3, 3, 4) == (3, 3, 4) and spec != IdealSpec(3, 4, 4)
        assert hash(spec) == hash(IdealSpec(3, 3, 4)) == hash((3, 3, 4))
        assert len({spec, IdealSpec(3, 3, 4), IdealSpec(3, 3, 5)}) == 2
        assert repr(spec) == "IdealSpec(m=3, n=3, k=4)"
        assert (spec.m, spec.n, spec.k) == tuple(spec) == (3, 3, 4)
        assert list(spec._asdict().items()) == [("m", 3), ("n", 3), ("k", 4)]
        for field in ("m", "n", "k", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, field, 5)
        assert spec._replace(k=6) == (3, 3, 6)
        for make in (
            lambda: spec._replace(n=0),
            lambda: IdealSpec._make((3, 0, 4)),
            lambda: IdealSpec(m=3, n=0, k=4),
        ):
            with pytest.raises(ValueError, match=r"^need n >= 1: n=0$"):
                make()
        with pytest.raises(TypeError):
            IdealSpec(3, 3)

    def test_short_rows(self):
        assert short_rows((3, 2, 1), 3) == 2
        assert short_rows((3, 3), 3) == 0
        assert short_rows((), 5) == 0
        assert short_rows((3, 0), 3) == 0


class TestMembership:
    def test_examples(self):
        spec = IdealSpec(3, 4, 4)
        assert is_member((3, 3, 2), spec)
        assert not is_member((3, 1, 1, 1), spec)
        assert not is_member((4, 1), spec)
        assert is_member((), spec)

    def test_counts(self):
        assert len(enumerate_ideal(IdealSpec(3, 3, 3))) == 10
        assert len(enumerate_ideal(IdealSpec(3, 3, 4))) == 16
        assert len(enumerate_ideal(IdealSpec(3, 3, 5))) == 20

    def test_saturates_to_whole_box(self):
        # once k - m + 1 >= n the short-row bound never binds
        spec = IdealSpec(3, 3, 6)
        assert len(enumerate_ideal(spec)) == len(list(partitions_in_box(3, 3)))

    def test_matches_order_search(self):
        for m in range(1, 4):
            for k in range(m, 6):
                for n in range(1, 5):
                    spec = IdealSpec(m, n, k)
                    assert enumerate_ideal(spec) == members_by_search(spec), spec

    def test_matches_parametrization(self):
        for m in range(1, 5):
            for k in range(m, 8):
                for n in range(1, 6):
                    spec = IdealSpec(m, n, k)
                    assert enumerate_ideal(spec) == members_by_parametrization(spec), spec

    def test_matches_box_filter(self):
        # m = 1 (an inner box of width 0), k = m, and n below k - m + 1 included
        for m in range(1, 5):
            for k in range(m, 9):
                for n in range(1, 8):
                    spec = IdealSpec(m, n, k)
                    assert enumerate_ideal(spec) == members_by_box_filter(spec), spec

    @pytest.mark.parametrize(
        "m, n, k", [(3, 3, 3), (1, 4, 2), (2, 5, 3), (4, 7, 6), (3, 2, 8), (5, 6, 5)]
    )
    def test_draws_one_partition_per_member(self, m, n, k, monkeypatch):
        """The enumeration and the exported layout are output-sensitive:
        every partition they draw from a box becomes a member, none is
        filtered out.  Each draws the members with no row equal to m once,
        and finds the others by lifting those."""
        drawn = []

        def counting(width, height):
            for p in partitions_in_box(width, height):
                drawn.append(p)
                yield p

        monkeypatch.setattr("kyoung.ideals.partitions_in_box", counting)
        spec = IdealSpec(m, n, k)
        members = enumerate_ideal(spec)
        unlifted = sorted(p for p in members if m not in p)
        assert sorted(drawn) == unlifted
        drawn.clear()
        ranks, _ = layout_diagram(IdealLayout(spec))
        assert sorted(drawn) == unlifted
        assert [v for rank in ranks for v in rank] == members


    @pytest.mark.parametrize("m, n, k", [(1, 2, 1), (1, 3, 2), (2, 2, 2), (2, 2, 3), (3, 2, 4)])
    def test_operations_match_old_definitions(self, m, n, k):
        """is_member, complement_dual, meet and join against their earlier
        definitions on every partition among the tuples over 0..m+1 of length
        up to n+1, pairs of unequal length included, with the same ValueError
        for a non-member.  Every other tuple, one that holds a zero or is not
        weakly decreasing, is no member, and each operation rejects it."""
        spec = IdealSpec(m, n, k)
        tuples = [
            t for size in range(n + 2) for t in itertools.product(range(m + 2), repeat=size)
        ]
        parts = [t for t in tuples if is_partition(t)]
        others = [t for t in tuples if not is_partition(t)]
        assert others
        for t in parts:
            assert is_member(t, spec) == old_is_member(t, spec), t
            assert outcome(complement_dual, t, spec) == outcome(old_complement_dual, t, spec), t
        for a, b in itertools.product(parts, repeat=2):
            assert outcome(meet, a, b, spec) == outcome(old_meet, a, b, spec), (a, b)
            assert outcome(join, a, b, spec) == outcome(old_join, a, b, spec), (a, b)
        for t in others:
            assert not is_member(t, spec), t
            with pytest.raises(ValueError):
                complement_dual(t, spec)
            for u in tuples:
                for op in (meet, join):
                    with pytest.raises(ValueError):
                        op(t, u, spec)
                    with pytest.raises(ValueError):
                        op(u, t, spec)

    def test_rejects_tuples_that_are_not_partitions(self):
        spec = IdealSpec(2, 2, 2)
        assert not is_member((2, 0), spec)
        assert not is_member((1, 2), spec)
        with pytest.raises(ValueError):
            join((2, 0), (1,), spec)


class TestGamma:
    def test_golden(self):
        assert gamma_set(IdealSpec(3, 3, 4)) == [
            (1, 1),
            (2, 1),
            (2, 2),
            (3, 1, 1),
            (3, 2, 1),
            (3, 2, 2),
        ]
        assert gamma_set(IdealSpec(3, 3, 5)) == [
            (1, 1, 1),
            (2, 1, 1),
            (2, 2, 1),
            (2, 2, 2),
        ]

    def test_requires_k_above_m(self):
        with pytest.raises(ValueError):
            gamma_set(IdealSpec(3, 3, 3))

    def test_warns_when_empty(self):
        # empty below n = k - m + 1, and silently so: a warning raises here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gamma_set(IdealSpec(3, 1, 5)) == []

    def test_matches_box_filter(self):
        for m in range(1, 5):
            for k in range(m + 1, 9):
                for n in range(1, 8):
                    spec = IdealSpec(m, n, k)
                    if n < k - m + 1:
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            assert gamma_set(spec) == [], spec
                        assert gamma_by_box_filter(spec) == [], spec
                    else:
                        assert gamma_set(spec) == gamma_by_box_filter(spec), spec

    @pytest.mark.parametrize("m, n, k", [(2, 4, 3), (2, 6, 5), (3, 4, 4), (4, 7, 6), (5, 5, 7)])
    def test_draws_one_partition_per_member(self, m, n, k, monkeypatch):
        """The stratum is drawn from its own box: every partition drawn
        becomes a member of it, and no enumeration of the ideal is filtered."""
        drawn = 0

        def counting(width, height):
            nonlocal drawn
            for p in partitions_in_box(width, height):
                drawn += 1
                yield p

        monkeypatch.setattr("kyoung.ideals.partitions_in_box", counting)
        assert len(gamma_set(IdealSpec(m, n, k))) == drawn

    def test_stratifies_ideal(self):
        # members at level k split into last level's members and the new stratum
        for m in range(1, 4):
            for k in range(m + 1, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    prev = enumerate_ideal(IdealSpec(m, n, k - 1))
                    gamma = gamma_set(spec)
                    assert sorted(prev + gamma, key=lambda p: (sum(p), p)) == (
                        enumerate_ideal(spec)
                    ), spec

    def test_strata_parametrized_by_lifted_partitions(self):
        for m in range(2, 5):
            for k in range(m + 1, 8):
                j = k - m + 1
                for n in range(j, 6):
                    spec = IdealSpec(m, n, k)
                    expected = set()
                    for mu in partitions_in_box(max(m - 2, 0), j):
                        tail = sum_parts(mu, (1,) * j)
                        for a in range(n - j + 1):
                            expected.add((m,) * a + tail)
                    assert set(gamma_set(spec)) == expected, spec


def layout_diagram(layout):
    """The ranks and edges an IdealLayout writes: (m^j) over box[t] for
    each (j, t) of each rank, and its edge chunks joined."""
    ranks = [[(layout.m,) * j + layout.box[t] for j, t in rank] for rank in layout.ranks]
    return ranks, list(itertools.chain.from_iterable(layout.edge_chunks()))


def edges_by_slicing(spec):
    """Oracle: each member's one-box steps, sliced out of its tuple: a box at
    the first row of each part below m, and a new row of 1 while there are
    fewer than n rows and fewer than k - m + 1 short rows.  The members come
    from the box filter, and the edges as sorted position pairs."""
    m, width = spec.m, spec.k - spec.m + 1
    members = members_by_box_filter(spec)
    position = {p: i for i, p in enumerate(members)}
    edges = []
    for p in members:
        j = p.count(m)  # the rows below the first j are the short rows
        up = [
            p[:i] + (p[i] + 1,) + p[i + 1:]
            for i in range(j, len(p))
            if i == j or p[i - 1] > p[i]
        ]
        if len(p) < spec.n and len(p) - j < width:
            up.append(p + (1,))
        edges.extend((position[p], position[u]) for u in up)
    return members, sorted(edges)


class TestHasseDiagram:
    # 350 ideals, among them m = 1, m = k, and n < k - m + 1, where every
    # partition in the box is a member
    SPECS = [IdealSpec(m, n, k) for m in range(1, 6) for k in range(m, 10) for n in range(1, 11)]

    # The export's only cross-check: what `kyoung ideal` writes from the
    # IdealLayout is held to lattice.build_ideal's k-cover diagram.

    def test_matches_the_k_cover_diagram(self):
        for spec in self.SPECS:
            layout, expected = IdealLayout(spec), build_ideal(spec.rectangle, spec.k)
            assert (layout.k, layout.name) == (expected.k, expected.name), spec
            assert layout_diagram(layout) == (expected.ranks, expected.edges), spec

    def test_matches_the_sliced_one_box_steps(self):
        for spec in self.SPECS:
            ranks, edges = layout_diagram(IdealLayout(spec))
            assert ([v for rank in ranks for v in rank], edges) == edges_by_slicing(spec), spec

    def test_exports_the_bytes_of_the_k_cover_diagram(self):
        # the layout writes what the k-cover diagram writes of itself
        for spec in self.SPECS:
            layout, expected = IdealLayout(spec), build_ideal(spec.rectangle, spec.k)
            for writer in (write_json, write_dot):
                got, own = [], []
                writer(got.append, layout)
                writer(own.append, expected)
                assert "".join(got) == "".join(own), (spec, writer.__name__)

    def test_streams_the_bytes_of_the_diagram(self):
        # what `kyoung ideal` writes, rank by rank from the layout, is the
        # JSON module's text and the f-string DOT of the k-cover diagram
        for spec in self.SPECS:
            diagram, layout = build_ideal(spec.rectangle, spec.k), IdealLayout(spec)
            for writer, expected in (
                (write_json, json.dumps(diagram.to_json_dict(), indent=2) + "\n"),
                (write_dot, dot_by_fstrings(diagram)),
            ):
                pieces = []
                writer(pieces.append, layout)
                assert "".join(pieces) == expected, (spec, writer.__name__)


class TestDuality:
    def test_example(self):
        spec = IdealSpec(3, 3, 4)
        assert complement_dual((1,), spec) == (3, 3, 2)
        assert complement_dual((), spec) == (3, 3, 3)
        assert complement_dual((3, 3, 3), spec) == ()

    def test_requires_member(self):
        with pytest.raises(ValueError):
            complement_dual((3, 1, 1, 1), IdealSpec(3, 4, 4))

    def test_involution_and_order_reversal(self):
        for m, n, k in [(2, 3, 3), (3, 3, 4), (3, 2, 5), (4, 3, 5)]:
            spec = IdealSpec(m, n, k)
            members = enumerate_ideal(spec)
            for p in members:
                q = complement_dual(p, spec)
                assert q in members, (p, spec)
                assert sum(q) == spec.top_rank - sum(p)
                assert complement_dual(q, spec) == p
            for a in members:
                for b in members:
                    assert leq(a, b, k) == leq(
                        complement_dual(b, spec), complement_dual(a, spec), k
                    ), (a, b, spec)


class TestMeetJoin:
    def test_examples(self):
        spec = IdealSpec(3, 3, 5)
        assert meet((3, 2), (2, 2, 1), spec) == (2, 2)
        assert join((3, 2), (2, 2, 1), spec) == (3, 2, 1)
        assert meet((), (3, 2), spec) == ()
        assert join((), (3, 2), spec) == (3, 2)

    def test_requires_members(self):
        spec = IdealSpec(3, 3, 4)
        with pytest.raises(ValueError):
            meet((1, 1, 1), (1,), spec)
        with pytest.raises(ValueError):
            join((1,), (1, 1, 1), spec)

    def test_closure_and_lattice_laws(self):
        spec = IdealSpec(3, 3, 4)
        members = enumerate_ideal(spec)
        mset = set(members)
        for a in members:
            for b in members:
                lo, hi = meet(a, b, spec), join(a, b, spec)
                assert lo in mset and hi in mset, (a, b)
                assert leq(lo, a, spec.k) and leq(lo, b, spec.k)
                assert leq(a, hi, spec.k) and leq(b, hi, spec.k)
                # greatest lower / least upper among members
                for c in members:
                    if leq(c, a, spec.k) and leq(c, b, spec.k):
                        assert leq(c, lo, spec.k), (a, b, c)
                    if leq(a, c, spec.k) and leq(b, c, spec.k):
                        assert leq(hi, c, spec.k), (a, b, c)

    def test_distributive(self):
        spec = IdealSpec(2, 3, 3)
        members = enumerate_ideal(spec)
        for a in members:
            for b in members:
                for c in members:
                    assert meet(a, join(b, c, spec), spec) == join(
                        meet(a, b, spec), meet(a, c, spec), spec
                    )
                    assert join(a, meet(b, c, spec), spec) == meet(
                        join(a, b, spec), join(a, c, spec), spec
                    )


class TestRankVector:
    def test_golden(self):
        spec = IdealSpec(3, 3, 4)
        rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
        assert rv == QPoly((1, 1, 2, 2, 2, 2, 2, 2, 1, 1))
        assert rv(1) == 16
        assert rv.degree == 9
        assert is_symmetric(rv, spec.top_rank)

    def test_chain_case(self):
        spec = IdealSpec(3, 3, 3)
        rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
        assert rv == QPoly((1,) * 10)

    def test_counted_from_the_ranks(self, capsys):
        """ideal --csv prints the closed form, and it agrees with the tally of
        the members on the 240 specs with m 1-5, k m-8 and n 1-8 (below
        n = k - m + 1 the ideal is the whole box, counted by [m+n choose m]_q)."""
        for m in range(1, 6):
            for k in range(m, 9):
                for n in range(1, 9):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
                    rows = [f"{i},{rv.coefficient(i)}\n" for i in range(spec.top_rank + 1)]
                    assert main(["ideal", "--m", str(m), "--n", str(n), "--k", str(k), "--csv"]) == 0
                    assert capsys.readouterr().out == "".join(["i,count\n", *rows]), spec

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            rank_vector([(3, 3)], 5)

    def test_serialization(self, capsys):
        # L^3(2,2) is the whole 2 x 2 box
        assert main(["ideal", "--m", "2", "--n", "2", "--k", "3", "--csv"]) == 0
        assert capsys.readouterr().out == "i,count\n0,1\n1,1\n2,2\n3,1\n4,1\n"

    def test_palindromic_sweep(self):
        for m in range(1, 4):
            for k in range(m, 7):
                for n in range(max(1, k - m + 1), 6):
                    spec = IdealSpec(m, n, k)
                    rv = rank_vector(enumerate_ideal(spec), spec.top_rank)
                    assert is_symmetric(rv, spec.top_rank), spec
