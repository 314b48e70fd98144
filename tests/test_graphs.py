import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kpflows import (
    GraphKind,
    HypothesisUnmet,
    InvalidEdge,
    KindViolation,
    MissingEdge,
    SignedMultigraph,
    Theorem,
    build_graph,
    bv_hypothesis,
    delete_edges,
    is_connected,
    necessary_feasible_a,
    netflow_y,
    root_multiset,
    root_of_edge,
)

from families import random_graph


class TestBuildGraph:
    def test_triangle(self, g3):
        assert g3.n_plus_1 == 3
        assert g3.num_edges == 3
        assert g3.multiplicity(1, 2, "-") == 1
        assert g3.multiplicity(1, 2, "+") == 0

    def test_type_c_with_loop(self, gc):
        assert gc.num_edges == 7
        assert gc.multiplicity(1, 1, "+") == 1

    def test_repeated_listing_sums(self):
        g = build_graph(3, "A", [(1, 2, "-", 1), (1, 2, "-", 2)])
        assert g.multiplicity(1, 2, "-") == 3

    def test_zero_multiplicity_dropped(self):
        g = build_graph(3, "A", [(1, 2, "-", 0)])
        assert g.num_edges == 0
        assert g.edges == ()

    def test_loop_forbidden_in_type_a(self):
        with pytest.raises(KindViolation, match=r"^edges\[0\]: type A forbids loops: \(1,1,-\)$"):
            build_graph(3, "A", [(1, 1, "-", 1)])
        with pytest.raises(KindViolation, match=r"^edges\[1\]: type A forbids loops: \(1,1,\+\)$"):
            build_graph(3, "A", [(1, 2, "-", 1), (1, 1, "+", 1)])

    def test_positive_edge_forbidden_in_type_a(self):
        with pytest.raises(KindViolation, match=r"^edges\[0\]: type A forbids positive edges: "):
            build_graph(3, "A", [(1, 2, "+", 1)])

    def test_negative_loop_forbidden_in_type_c(self):
        with pytest.raises(KindViolation, match=r"^edges\[0\]: loops must be positive: \(2,2,-\)$"):
            build_graph(3, "C", [(2, 2, "-", 1)])

    def test_invalid_edges(self):
        # every message names the offending entry as listed
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.j must be an integer in 2\.\.3, got 1$"):
            build_graph(3, "A", [(2, 1, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.j .* got 4$"):
            build_graph(3, "A", [(1, 4, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.i must be an integer in 1\.\.3, got 0$"):
            build_graph(3, "A", [(0, 2, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.mult must be a nonnegative integer, got -1$"):
            build_graph(3, "A", [(1, 2, "-", -1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.sign must be '-' or '\+', got 'x'$"):
            build_graph(3, "A", [(1, 2, "x", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[2\]\.i .* got 4$"):
            build_graph(3, "A", [(1, 2, "-", 1), (2, 3, "-", 0), (4, 4, "+", 1)])
        with pytest.raises(InvalidEdge, match=r"^n_plus_1 must be a positive integer, got 0$"):
            build_graph(0, "A", [])
        assert build_graph(1, "C", [(1, 1, "+", 2)]).num_edges == 2  # the smallest graph

    def test_booleans_rejected(self):
        # True == 1 in Python; a boolean endpoint or multiplicity is a typo
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.mult .* got True$"):
            build_graph(3, "A", [(1, 2, "-", True), (2, 3, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.i .* got True$"):
            build_graph(3, "A", [(True, 2, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^edges\[0\]\.j .* got True$"):
            build_graph(3, "A", [(1, True, "-", 1)])
        with pytest.raises(InvalidEdge, match=r"^n_plus_1 .* got True$"):
            build_graph(True, "A", [])
        with pytest.raises(InvalidEdge, match=r"^edges\[1\]\.sign .* got True$"):
            build_graph(3, "C", [(1, 2, "-", 1), (1, 3, True, 1)])

    def test_canonical_edge_order(self):
        g = build_graph(3, "C", [(2, 3, "-", 1), (1, 2, "+", 1), (1, 2, "-", 1)])
        assert [e[:3] for e in g.edges] == [(1, 2, "-"), (1, 2, "+"), (2, 3, "-")]


class TestRoots:
    def test_root_values(self):
        assert root_of_edge(1, 2, "-", 3) == (1, -1, 0)
        assert root_of_edge(1, 2, "+", 3) == (1, 1, 0)
        assert root_of_edge(2, 2, "+", 3) == (0, 2, 0)

    def test_triangle_multiset(self, g3):
        assert root_multiset(g3) == [(1, -1, 0), (1, 0, -1), (0, 1, -1)]

    def test_gc_multiset(self, gc):
        roots = root_multiset(gc)
        assert len(roots) == 7
        assert (2, 0, 0, 0) in roots

    def test_empty_graph(self):
        assert root_multiset(build_graph(3, "A", [])) == []


class TestDeleteEdges:
    def test_removes_one_copy(self, g3):
        g = delete_edges(g3, [(1, 2, "-")])
        assert [e[:3] for e in g.edges] == [(1, 3, "-"), (2, 3, "-")]

    def test_k4_minus_inner_edge(self, k4):
        g = delete_edges(k4, [(2, 3, "-")])
        assert g.num_edges == 5
        assert g.multiplicity(2, 3, "-") == 0

    def test_missing_edge(self, g3):
        with pytest.raises(MissingEdge):
            delete_edges(g3, [(1, 2, "-"), (1, 2, "-")])

    def test_root_multiset_consistency(self):
        rng = random.Random(5)
        for case in range(30):
            g = random_graph(rng, rng.choice(["A", "C"]), rng.randint(2, 5))
            if not g.edges:
                continue
            slots = g.edge_slots()
            slot = slots[rng.randrange(len(slots))]
            removed = delete_edges(g, [slot])
            before = root_multiset(g)
            after = root_multiset(removed)
            before.remove(root_of_edge(*slot, g.n_plus_1))
            assert sorted(before) == sorted(after)


class TestConnectivity:
    def test_connected(self, g3, k4, gc):
        assert is_connected(g3) and is_connected(k4) and is_connected(gc)

    def test_disconnected(self):
        g = build_graph(4, "A", [(1, 2, "-", 1), (3, 4, "-", 1)])
        assert not is_connected(g)

    def test_isolated_vertex(self):
        g = build_graph(4, "A", [(2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)])
        assert not is_connected(g)

    def test_loop_does_not_connect(self):
        g = build_graph(2, "C", [(1, 1, "+", 1)])
        assert not is_connected(g)


class TestHypothesis:
    def test_k4(self, k4):
        cond = bv_hypothesis(k4, Theorem.TYPE_A)
        assert cond.satisfied and cond.c == 3 and cond.failures == ()

    def test_gc_all_negative_variant(self, gc):
        cond = bv_hypothesis(gc, Theorem.TYPE_C_NEGATIVE)
        assert cond.satisfied and cond.c == 3

    def test_triangle_unconstrained(self, g3):
        cond = bv_hypothesis(g3, Theorem.TYPE_A)
        assert cond.satisfied and cond.c is None and cond.unconstrained

    def test_distinguished_multiplicity_violation(self, k4):
        g = build_graph(4, "A", [(i, j, s, m) for i, j, s, m in k4.edges] + [(2, 3, "-", 1)])
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert not cond.satisfied
        assert any("(2,3,-)" in f for f in cond.failures)

    def test_doubled_row_edge_still_consistent(self, k4):
        # doubling (1,2) keeps the single row consistent at (2+1+1)/2 = 2
        g = build_graph(4, "A", [(i, j, s, m) for i, j, s, m in k4.edges] + [(1, 2, "-", 1)])
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert cond.satisfied and cond.c == 2

    def test_row_with_zero_anchor(self):
        # edge toward vertex 3 but none toward vertex 2 makes the ratio undefined
        g = build_graph(
            4, "A",
            [(1, 3, "-", 1), (2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert not cond.satisfied
        assert any("all zero" in f for f in cond.failures)

    def test_inconsistent_ratios(self):
        g = build_graph(
            5, "A",
            [(1, 3, "-", 1), (1, 4, "-", 1), (1, 5, "-", 1),
             (2, 3, "-", 1),
             (3, 4, "-", 1), (3, 5, "-", 1), (4, 5, "-", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert not cond.satisfied
        assert any("ratio" in f for f in cond.failures)

    def test_disconnected_fails(self):
        g = build_graph(
            5, "A",
            [(3, 4, "-", 1), (3, 5, "-", 1), (4, 5, "-", 1), (1, 2, "-", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert not cond.satisfied
        assert "graph is not connected" in cond.failures

    def test_kind_mismatch(self, gc, k4):
        assert not bv_hypothesis(gc, Theorem.TYPE_A).satisfied
        assert not bv_hypothesis(k4, Theorem.TYPE_C_NEGATIVE).satisfied

    def test_positive_edge_blocks_all_negative_variant(self, gc_mixed):
        cond = bv_hypothesis(gc_mixed, Theorem.TYPE_C_NEGATIVE)
        assert not cond.satisfied

    def test_mixed_variant(self, gc_mixed):
        cond = bv_hypothesis(gc_mixed, Theorem.TYPE_C_MIXED)
        assert cond.satisfied and cond.c == 3

    def test_mixed_rejects_positive_among_top(self):
        g = build_graph(
            4, "C",
            [(1, 2, "-", 1), (2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1),
             (2, 3, "+", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_C_MIXED)
        assert not cond.satisfied

    def test_mixed_pools_ratio_across_signs(self):
        # negative row has ratio 3, positive row ratio 2: must fail
        g = build_graph(
            4, "C",
            [(1, 2, "-", 1), (1, 3, "-", 1), (1, 4, "-", 1),
             (1, 2, "+", 1), (1, 3, "+", 1),
             (2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_C_MIXED)
        assert not cond.satisfied

    def test_fractional_ratio(self):
        # rows (2,1,0) and (4,2,0): the shared constant is 3/2
        g = build_graph(
            5, "A",
            [(1, 3, "-", 2), (1, 4, "-", 1),
             (2, 3, "-", 4), (2, 4, "-", 2),
             (3, 4, "-", 1), (3, 5, "-", 1), (4, 5, "-", 1)],
        )
        cond = bv_hypothesis(g, Theorem.TYPE_A)
        assert cond.satisfied and cond.c == Fraction(3, 2)

    def test_small_graph_rejected(self):
        with pytest.raises(HypothesisUnmet):
            bv_hypothesis(build_graph(2, "A", [(1, 2, "-", 1)]), Theorem.TYPE_A)

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_edge_listing_order(self, seed, data):
        rng = random.Random(seed)
        g = random_graph(rng, rng.choice(["A", "C"]), rng.randint(3, 5))
        listing = [(i, j, s, m) for i, j, s, m in g.edges]
        shuffled = data.draw(st.permutations(listing))
        g2 = build_graph(g.n_plus_1, g.kind, shuffled)
        for thm in Theorem:
            assert bv_hypothesis(g, thm) == bv_hypothesis(g2, thm)


class TestNetflowChecks:
    def test_necessary_feasible(self):
        assert necessary_feasible_a((1, 0, -1))
        assert not necessary_feasible_a((-1, 1, 0))
        assert necessary_feasible_a((1, 2, 3, -6))
        assert not necessary_feasible_a((1, 2, 3, -5))
        assert necessary_feasible_a((0,))
        with pytest.raises(ValueError, match="length >= 1"):
            necessary_feasible_a(())

    def test_netflow_y(self):
        assert netflow_y((4, 0, 0, -2)) == 1
        assert netflow_y((4, 0, 0, -1)) is None
        assert netflow_y((0, 0, 0, -2)) == -1


class TestJsonRoundTrip:
    def test_round_trip(self, gc_mixed):
        back = SignedMultigraph.from_json_dict(gc_mixed.to_json_dict())
        assert back == gc_mixed and hash(back) == hash(gc_mixed)
        assert repr(back).startswith(
            "SignedMultigraph(n_plus_1=4, kind=<GraphKind.TYPE_C: 'C'>, "
            "edges=((1, 1, '+', 1), (1, 2, '-', 1), (1, 2, '+', 1), "
        )
        with pytest.raises(AttributeError):
            back.n_plus_1 = 5

    def test_kind_preserved(self, k4):
        d = k4.to_json_dict()
        assert d["kind"] == "A"
        assert SignedMultigraph.from_json_dict(d).kind is GraphKind.TYPE_A

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"n_plus_1": 3, "kind": "B", "edges": []},
            {"n_plus_1": 3, "kind": "A", "edges": [{"i": 1, "j": 2, "sign": "-"}]},
            {"n_plus_1": 3, "kind": "A", "edges": [{"i": 1, "j": 2, "sign": "*", "mult": 1}]},
            {"n_plus_1": "3", "kind": "A", "edges": []},
            {"n_plus_1": True, "kind": "A", "edges": []},
            {"n_plus_1": 3, "kind": "A", "edges": [{"i": 1, "j": 2, "sign": "-", "mult": True}]},
            {"n_plus_1": 3, "kind": "A", "edges": [{"i": True, "j": 2, "sign": "-", "mult": 1}]},
            {"n_plus_1": 3, "kind": "A", "edges": [{"i": 1, "j": True, "sign": "-", "mult": 1}]},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(ValueError):
            SignedMultigraph.from_json_dict(obj)
