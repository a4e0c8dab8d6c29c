"""Covering relation, order, Hasse diagrams, rectangle translation."""

import json

import pytest
from hypothesis import given, strategies as st

from kyoung.ideals import IdealSpec, hasse_diagram
from kyoung.lattice import (
    HasseDiagram,
    build_ideal,
    check_rectangle_translation,
    covers,
    covers_oracle,
    leq,
)
from kyoung.partitions import (
    all_k_rectangles,
    contains,
    k_bounded_partitions,
    k_conjugate,
    k_skew,
    union,
)


def dot_by_fstrings(d):
    """Oracle: the DOT text written with one f-string per vertex and per
    edge, each line joined on its own."""
    lines = ["digraph kyoung {", "  rankdir=BT;", "  node [shape=box];"]
    start = 0  # the position of the rank's first vertex
    for rank in filter(None, d.ranks):
        row = (f'v{i} [label="[{",".join(map(str, v))}]"];' for i, v in enumerate(rank, start))
        lines.append("  { rank=same; " + " ".join(row) + " }")
        start += len(rank)
    lines.extend(f"  v{i} -> v{j};" for i, j in d.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


k_and_partition = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(1, k), max_size=6).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
    )
)


class TestCovers:
    def test_worked_example_up(self):
        assert covers((4, 2, 1, 1), 4, "up") == [(4, 2, 1, 1, 1), (4, 2, 2, 1)]

    def test_worked_example_down(self):
        assert covers((4, 2, 1, 1), 4, "down") == [(4, 1, 1, 1), (4, 2, 1)]

    def test_empty_partition(self):
        assert covers((), 3, "up") == [(1,)]
        assert covers((), 3, "down") == []

    def test_row_bound_respected(self):
        # the lone addable corner sharing a residue with the forced top
        # corner is discarded, and no part may exceed k
        assert covers((2,), 2, "up") == [(2, 1)]
        assert all(q[0] <= 3 for p in k_bounded_partitions(3, 8) for q in covers(p, 3))

    def test_chain_when_k_is_one(self):
        for n in range(6):
            assert covers((1,) * n, 1, "up") == [(1,) * (n + 1)]

    def test_direction_validated(self):
        # covers and its oracle share one rule and one text
        for f in (covers, covers_oracle):
            with pytest.raises(ValueError) as info:
                f((1,), 2, "sideways")
            assert str(info.value) == "direction must be 'up' or 'down': 'sideways'"

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            covers((3,), 2)

    def test_up_down_adjoint_sweep(self):
        # q covers p from below exactly when p covers q from above
        for k in range(1, 5):
            up = {p: covers(p, k, "up") for p in k_bounded_partitions(k, 9)}
            for p, ups in up.items():
                for q in ups:
                    assert p in covers(q, k, "down"), (p, q, k)
            down_edges = {
                (q, p)
                for q in k_bounded_partitions(k, 10)
                for p in covers(q, k, "down")
            }
            for q, p in down_edges:
                if sum(q) <= 9:
                    assert q in up[p], (p, q, k)

    def test_matches_oracle_sweep(self):
        for k in range(1, 5):
            for p in k_bounded_partitions(k, 9):
                for direction in ("up", "down"):
                    assert covers(p, k, direction) == covers_oracle(p, k, direction), (
                        p,
                        k,
                        direction,
                    )

    def test_matches_oracle_wide_sweep(self):
        """Both directions for k <= 9 and degree <= 13.  The cases include
        additions to a first row of length k, where no box may go on row 1,
        and removals from a last row of length 1, which drop the row."""
        cases = [
            (p, k, direction)
            for k in range(1, 10)
            for p in k_bounded_partitions(k, 13)
            for direction in ("up", "down")
        ]
        assert len(cases) == 3946
        assert any(p and p[0] == k and direction == "up" for p, k, direction in cases)
        assert any(p and p[-1] == 1 and direction == "down" for p, k, direction in cases)
        for p, k, direction in cases:
            assert covers(p, k, direction) == covers_oracle(p, k, direction), (p, k, direction)

    @given(k_and_partition)
    def test_matches_oracle_random(self, pair):
        k, p = pair
        assert covers(p, k, "up") == covers_oracle(p, k, "up")

    def test_top_row_removal_is_always_a_cover(self):
        for k in range(1, 5):
            for p in k_bounded_partitions(k, 9):
                if not p:
                    continue
                q = p[:-1] if p[-1] == 1 else p[:-1] + (p[-1] - 1,)
                assert q in covers(p, k, "down"), (p, k)

    def test_cover_changes_degree_by_one(self):
        for k in range(1, 5):
            for p in k_bounded_partitions(k, 8):
                for q in covers(p, k, "up"):
                    assert sum(q) == sum(p) + 1
                    assert contains(p, q)
                    assert contains(k_conjugate(p, k), k_conjugate(q, k))


class TestLeq:
    def test_reflexive_and_empty_bottom(self):
        assert leq((2, 1), (2, 1), 3)
        assert leq((), (3, 2), 3)

    def test_small_relation(self):
        assert leq((2, 1), (2, 2), 3)
        assert leq((1,), (2, 1), 2)
        assert not leq((2,), (1, 1, 1), 2)

    def test_containment_is_necessary_not_sufficient(self):
        a, b = (2, 2), (3, 2, 1, 1, 1, 1)
        assert contains(a, b)
        assert contains(k_conjugate(a, 3), k_conjugate(b, 3))
        assert not leq(a, b, 3)

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            leq((4,), (4, 1), 3)

    def test_agrees_with_reachability(self):
        # ground truth by walking every cover chain inside a small ideal
        for k in (2, 3):
            top = (k,) * 3
            diagram = build_ideal(top, k)
            vertices = diagram.vertices()
            below = {v: set() for v in vertices}
            for i, j in diagram.edges:
                below[vertices[j]].add(vertices[i])
            reach = {}

            def reachable(v):
                if v not in reach:
                    acc = {v}
                    for p in below[v]:
                        acc |= reachable(p)
                    reach[v] = acc
                return reach[v]

            for b in diagram.vertices():
                for a in diagram.vertices():
                    assert leq(a, b, k) == (a in reachable(b)), (a, b, k)

    def test_union_with_rectangle_translates_order(self):
        # joining a k-rectangle to both sides preserves the relation, and
        # anything above lam + box decomposes as mu + box
        k = 3
        for rect in all_k_rectangles(k):
            box = rect.parts
            for lam in k_bounded_partitions(k, 4):
                for mu in k_bounded_partitions(k, 5):
                    if sum(mu) < sum(lam):
                        continue
                    assert leq(union(lam, box), union(mu, box), k) == leq(lam, mu, k)
                for nu in k_bounded_partitions(k, sum(lam) + sum(box) + 2):
                    if sum(nu) < sum(lam) + sum(box):
                        continue
                    lhs = leq(union(lam, box), nu, k)
                    h = len(box)
                    stripped = list(nu)
                    ok = True
                    for _ in range(h):
                        try:
                            stripped.remove(box[0])
                        except ValueError:
                            ok = False
                            break
                    rhs = ok and leq(lam, tuple(stripped), k)
                    assert lhs == rhs, (lam, box, nu)


class TestHasseDiagram:
    def test_build_ideal_chain(self):
        d = build_ideal((3, 3, 3), 3)
        assert d.vertex_count() == 10
        assert len(d.edges) == 9
        assert [len(r) for r in d.ranks] == [1] * 10

    def test_build_ideal_counts(self):
        assert build_ideal((3, 3, 3), 4).vertex_count() == 16
        assert build_ideal((3, 3, 3), 5).vertex_count() == 20

    def test_build_ideal_closed_downward(self):
        d = build_ideal((2, 2, 1), 2)
        verts = set(d.vertices())
        for v in verts:
            for q in covers(v, 2, "down"):
                assert q in verts

    def test_edges_match_covers_within_ideal(self):
        d = build_ideal((3, 2), 3)
        vertices = d.vertices()
        for i, p in enumerate(vertices):
            expected = [q for q in covers(p, 3, "up") if q in vertices]
            assert [vertices[j] for v, j in d.edges if v == i] == expected

    def test_edge_positions(self):
        d = build_ideal((1, 1, 1), 1)
        vertices = d.vertices()
        assert vertices.index((1, 1)) == 2
        assert d.edges == [(0, 1), (1, 2), (2, 3)]
        assert [(vertices[i], vertices[j]) for i, j in d.edges] == [
            ((), (1,)),
            ((1,), (1, 1)),
            ((1, 1), (1, 1, 1)),
        ]
        assert json.loads(json.dumps(d.to_json_dict()))["edges"] == [[0, 1], [1, 2], [2, 3]]

    def test_edge_positions_sort_every_edge(self):
        """build_ideal's edges come sorted, one pair per down-cover of every
        vertex, lower end first."""
        d = build_ideal((3, 3, 3), 4)
        vertices = d.vertices()
        position = {v: i for i, v in enumerate(vertices)}
        every = [(position[c], position[v]) for v in vertices for c in covers(v, 4, "down")]
        assert len({i for i, _ in every}) < len(every)  # some vertex has two up-edges
        assert d.edges == sorted(every)

    def test_ideal_validates(self):
        with pytest.raises(ValueError):
            build_ideal((3,), 2)

    def test_json_round_trip_structure(self):
        d = build_ideal((2,), 2)
        doc = json.loads(json.dumps(d.to_json_dict()))
        assert doc["k"] == 2
        assert doc["ranks"] == [[[]], [[1]], [[2]]]
        assert doc["edges"] == [[0, 1], [1, 2]]
        assert doc["name"] == "ideal [2]"

    def test_dot_output_golden(self):
        d = build_ideal((1, 1), 1)
        expected = "\n".join(
            [
                "digraph kyoung {",
                "  rankdir=BT;",
                "  node [shape=box];",
                '  { rank=same; v0 [label="[]"]; }',
                '  { rank=same; v1 [label="[1]"]; }',
                '  { rank=same; v2 [label="[1,1]"]; }',
                "  v0 -> v1;",
                "  v1 -> v2;",
                "}",
            ]
        )
        assert d.to_dot() == expected + "\n"

    def test_dot_matches_the_fstring_oracle(self):
        """The ideals of the m 1-5, k m-9, n 1-10 grid by their
        characterization, k-cover ideals (one edge-free), and a diagram
        with an empty rank, which writes no rank line."""
        diagrams = [
            hasse_diagram(IdealSpec(m, n, k))
            for m in range(1, 6)
            for k in range(m, 10)
            for n in range(1, 11)
        ]
        generators = [((), 3), ((1, 1), 1), ((2, 2, 1), 2), ((3, 3, 2), 4)]
        diagrams += [build_ideal(g, k) for g, k in generators]
        gap = HasseDiagram(k=2, name="gap", ranks=[[()], [], [(2,), (1, 1)]], edges=[(0, 2)])
        diagrams.append(gap)
        assert len(diagrams) == 355
        for d in diagrams:
            assert d.to_dot() == dot_by_fstrings(d), d.name

    def test_a_diagram_without_edges_has_its_own_list(self):
        first = HasseDiagram(k=2, name="a", ranks=[[()]])
        second = HasseDiagram(2, "b", [[()]])
        first.edges.append((0, 0))
        assert second.edges == [] and second.to_json_dict() == {
            "k": 2, "name": "b", "ranks": [[()]], "edges": []
        }

    def test_dot_contains_all_edges(self):
        d = build_ideal((2, 2, 1), 2)
        dot = d.to_dot()
        for i, v in enumerate(d.vertices()):
            assert f'v{i} [label="[{",".join(map(str, v))}]"];' in dot
        for i, j in d.edges:
            assert f"v{i} -> v{j};" in dot


class TestRectangleTranslation:
    def test_single_witness(self):
        # (1,) joined with the 2-rectangle (1, 1): both sides, sorted
        lhs, rhs = check_rectangle_translation((1,), all_k_rectangles(2)[0], 2)
        assert lhs == rhs == ((1, 1, 1, 1), (2, 1, 1))

    def test_sweep_small(self):
        for k in (2, 3):
            for rect in all_k_rectangles(k):
                for lam in k_bounded_partitions(k, 6):
                    lhs, rhs = check_rectangle_translation(lam, rect, k)
                    assert lhs == rhs, (lam, rect.parts, k)

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            check_rectangle_translation((3,), all_k_rectangles(2)[0], 2)


class TestOneKBoundedCheck:
    """Every k-Young entry point rejects k < 1 first, then a partition that
    is not k-bounded, each with one message."""

    @pytest.mark.parametrize(
        "call, k",
        [
            (lambda: build_ideal((), 0), 0),
            (lambda: build_ideal((), -3), -3),
            (lambda: leq((), (), 0), 0),
            (lambda: covers((1,), -1), -1),
            (lambda: covers_oracle((1,), -1), -1),
            (lambda: covers((), 0, "down"), 0),
            (lambda: k_skew((2,), 0), 0),
        ],
        ids=["build_ideal-0", "build_ideal-neg", "leq", "covers", "covers_oracle", "down", "k_skew"],
    )
    def test_k_below_one(self, call, k):
        with pytest.raises(ValueError, match=f"^k must be positive: {k}$"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_ideal((3,), 2),
            lambda: leq((3,), (3,), 2),
            lambda: leq((1,), (3,), 2),
            lambda: covers((3,), 2, "down"),
            lambda: covers_oracle((3,), 2),
            lambda: check_rectangle_translation((3,), all_k_rectangles(2)[0], 2),
            lambda: k_skew((3,), 2),
        ],
        ids=["build_ideal", "leq-a", "leq-b", "covers", "covers_oracle", "translation", "k_skew"],
    )
    def test_not_k_bounded(self, call):
        with pytest.raises(ValueError, match=r"^partition \(3,\) is not 2-bounded$"):
            call()
