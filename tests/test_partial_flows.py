import random

import pytest

from kpflows import (
    DimensionMismatch,
    GraphKind,
    HypothesisUnmet,
    IndexOutOfRange,
    InvalidFlow,
    NegativeExtension,
    PartialFlow,
    Theorem,
    applicable_theorem,
    brute_force_count,
    build_graph,
    bv_hypothesis,
    catalan_graph,
    catalan_netflow,
    catalan_product,
    check_flow,
    count,
    count_via_partial,
    decompose,
    delete_edges,
    distinguished_edges,
    enumerate_flows,
    enumerate_partial_flows,
    extend_unique,
    extend_with_index,
    generate_bv_family,
    materialize_fiber,
    strip_distinguished,
)
from kpflows import counting

from families import identity_corpus


def _pf_by_values(pfs, values):
    match = [pf for pf in pfs if pf.values == values]
    assert len(match) == 1
    return match[0]


class TestEnumeratePartialFlows:
    def test_k4(self, k4):
        pfs = enumerate_partial_flows(k4, (3, 1, 0, -4))
        assert len(pfs) == 10
        # H is the star from vertex 1; every composition of 3 appears once
        assert {pf.values for pf in pfs} == {
            (b12, b13, 3 - b12 - b13) for b12 in range(4) for b13 in range(4 - b12)
        }
        for pf in pfs:
            assert pf.inflows == (pf.values[0], pf.values[1], pf.values[2])
            assert pf.y_pos == 0
        assert repr(pfs[0]) == "PartialFlow(values=(0, 0, 3), inflows=(0, 0, 3), y_pos=0)"
        with pytest.raises(AttributeError):
            pfs[0].y_pos = 1

    def test_triangle_single_empty(self, g3):
        pfs = enumerate_partial_flows(g3, (2, 3, -5))
        assert pfs[0].values == () and len(pfs) == 1
        assert pfs[0].inflows == (0, 0, 0)

    def test_gc(self, gc):
        pfs = enumerate_partial_flows(gc, (4, 0, 0, -2))
        assert len(pfs) == 6
        assert all(pf.y_pos == 1 for pf in pfs)
        # loop flow is pinned to 1 by the positive total
        assert all(pf.values[0] == 1 for pf in pfs)

    def test_lexicographic_order(self, k4):
        pfs = enumerate_partial_flows(k4, (3, 1, 0, -4))
        values = [pf.values for pf in pfs]
        assert values == sorted(values)

    def test_mismatched_sum_has_no_partial_flows(self, k4, gc):
        assert enumerate_partial_flows(k4, (3, 1, 0, -3)) == []
        assert enumerate_partial_flows(gc, (4, 0, 0, -1)) == []
        assert enumerate_partial_flows(gc, (0, 0, 0, -2)) == []

    def test_hypothesis_required(self):
        g = build_graph(4, "A", [(1, 2, "-", 1), (2, 3, "-", 1), (2, 4, "-", 1),
                                 (3, 4, "-", 2)])
        with pytest.raises(HypothesisUnmet):
            enumerate_partial_flows(g, (1, 0, 0, -1))

    def test_applicable_theorem(self, g3, gc, gc_mixed):
        assert applicable_theorem(g3) is Theorem.TYPE_A
        assert applicable_theorem(gc) is Theorem.TYPE_C_MIXED
        assert applicable_theorem(gc_mixed) is Theorem.TYPE_C_MIXED


class TestExtendUnique:
    def test_k4_middle(self, k4):
        a = (3, 1, 0, -4)
        pfs = enumerate_partial_flows(k4, a)
        pf = _pf_by_values(pfs, (1, 1, 1))
        f = extend_unique(k4, pf, a)
        reduced = delete_edges(k4, [(2, 3, "-")])
        # slots of K4-(2,3): (1,2),(1,3),(1,4),(2,4),(3,4)
        assert f == (1, 1, 1, 2, 1)
        assert check_flow(reduced, f, a)

    def test_k4_concentrated(self, k4):
        a = (3, 1, 0, -4)
        pf = _pf_by_values(enumerate_partial_flows(k4, a), (3, 0, 0))
        assert extend_unique(k4, pf, a) == (3, 0, 0, 4, 0)

    def test_triangle(self, g3):
        a = (2, 3, -5)
        (pf,) = enumerate_partial_flows(g3, a)
        f = extend_unique(g3, pf, a)
        assert f == (2, 3)
        assert check_flow(delete_edges(g3, [(1, 2, "-")]), f, a)

    def test_bijection_onto_reduced_graph_flows(self, k4, gc):
        for g, a in ((k4, (3, 1, 0, -4)), (gc, (4, 0, 0, -2)), (k4, (2, 0, 1, -3))):
            pfs = enumerate_partial_flows(g, a)
            reduced = delete_edges(g, [(g.n - 1, g.n, "-")])
            images = {extend_unique(g, pf, a) for pf in pfs}
            assert images == set(enumerate_flows(reduced, a))
            assert len(images) == len(pfs)


class TestExtendWithIndex:
    def test_fiber_members(self, k4):
        a = (3, 1, 0, -4)
        pf = _pf_by_values(enumerate_partial_flows(k4, a), (1, 1, 1))
        # slots of K4: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
        assert extend_with_index(k4, pf, a, 0) == (1, 1, 1, 0, 2, 1)
        assert extend_with_index(k4, pf, a, 2) == (1, 1, 1, 2, 0, 3)
        for k in range(3):
            assert check_flow(k4, extend_with_index(k4, pf, a, k), a)

    def test_index_out_of_range(self, k4):
        a = (3, 1, 0, -4)
        pf = _pf_by_values(enumerate_partial_flows(k4, a), (1, 1, 1))
        with pytest.raises(IndexOutOfRange):
            extend_with_index(k4, pf, a, 3)
        with pytest.raises(IndexOutOfRange):
            extend_with_index(k4, pf, a, -1)

    def test_fiber_size_formula(self, k4, gc):
        for g, a in ((k4, (3, 1, 0, -4)), (gc, (4, 0, 0, -2))):
            for pf in enumerate_partial_flows(g, a):
                fiber = materialize_fiber(g, pf, a)
                assert len(fiber) == pf.inflows[0] + a[g.n - 2] + 1
                assert all(check_flow(g, f, a) for f in fiber)


class TestPartialFlowValidation:
    """The fiber functions take a PartialFlow from outside; one that is not a
    partial flow for (graph, a) must raise, never yield a non-flow."""

    FIBER_CALLS = (
        lambda g, pf, a: materialize_fiber(g, pf, a),
        lambda g, pf, a: extend_unique(g, pf, a),
        lambda g, pf, a: extend_with_index(g, pf, a, 0),
    )

    def _assert_all_raise(self, error, g, pf, a):
        for call in self.FIBER_CALLS:
            with pytest.raises(error):
                call(g, pf, a)

    def test_wrong_length(self, k4):
        a = (3, 1, 0, -4)
        pf = _pf_by_values(enumerate_partial_flows(k4, a), (1, 1, 1))
        for values in (pf.values + (7, 7), pf.values[:2], ()):
            self._assert_all_raise(DimensionMismatch, k4, PartialFlow(
                values, pf.inflows, pf.y_pos), a)

    def test_negative_or_non_integer_entry(self, k4):
        a = (3, 1, 0, -4)
        # (4, -1, 0) matches a_1 = 3 and carries its own inflows
        for values in ((4, -1, 0), (1.5, 1.5, 0), (True, 2, 0)):
            pf = PartialFlow(values, (values[0], values[1], values[2]), 0)
            self._assert_all_raise(InvalidFlow, k4, pf, a)

    def test_statistics_must_match_values(self, k4, gc):
        a = (3, 1, 0, -4)
        pf = _pf_by_values(enumerate_partial_flows(k4, a), (1, 1, 1))
        self._assert_all_raise(InvalidFlow, k4, PartialFlow(pf.values, (2, 0, 1), 0), a)
        self._assert_all_raise(InvalidFlow, k4, PartialFlow(pf.values, pf.inflows, 1), a)
        a = (4, 0, 0, -2)
        pf = enumerate_partial_flows(gc, a)[0]
        self._assert_all_raise(InvalidFlow, gc, PartialFlow(pf.values, pf.inflows, 0), a)

    def test_values_must_match_netflow(self, k4, gc):
        # a_1 = 3 is not met by a flow of 2 out of vertex 1
        self._assert_all_raise(InvalidFlow, k4, PartialFlow((1, 1, 0), (1, 1, 0), 0),
                               (3, 1, 0, -4))
        # a partial flow for (k4, a) with a_1 = 3, paired with a total that is not 0
        pf = PartialFlow((1, 1, 1), (1, 1, 1), 0)
        self._assert_all_raise(InvalidFlow, k4, pf, (3, 1, 0, -3))
        # type C: the positive total must be y = 1, here it is 0
        h_values = (0, 4, 0, 0)  # slots of H: (1,1,+), (1,2,-), (1,3,-), (1,4,-)
        self._assert_all_raise(InvalidFlow, gc, PartialFlow(h_values, (4, 0, 0), 0),
                               (4, 0, 0, -2))


    def test_list_values_give_the_same_members(self, k4, gc_mixed, g3):
        # PartialFlow.values may arrive as a list; members are tuples either way
        for g, a in ((k4, (3, 1, 0, -4)), (gc_mixed, (2, 1, 1, -2)), (g3, (2, 3, -5))):
            for pf in enumerate_partial_flows(g, a):
                listed = PartialFlow(list(pf.values), pf.inflows, pf.y_pos)
                assert extend_unique(g, listed, a) == extend_unique(g, pf, a)
                assert materialize_fiber(g, listed, a) == materialize_fiber(g, pf, a)
                for k in range(pf.inflows[0] + a[g.n - 2] + 1):
                    assert extend_with_index(g, listed, a, k) == extend_with_index(g, pf, a, k)
                    assert type(extend_with_index(g, listed, a, k)) is tuple


class TestSlotLayout:
    """The hypothesis puts the distinguished edges in G's last three slots,
    after all of H's: the fiber functions append (k, L-k, R+k) to the
    partial flow and decompose reads them back from the end."""

    @staticmethod
    def _graphs(fixtures):
        yield from fixtures
        for theorem in Theorem:
            for n_plus_1 in range(3, 8):
                for max_mult in (1, 2, 3):
                    for seed in range(3):
                        yield generate_bv_family(n_plus_1, theorem, max_mult, seed)

    def test_distinguished_edges_fill_the_last_three_slots(self, g3, k4, gc, gc_mixed,
                                                           mixed_no_loop):
        for g in self._graphs((g3, k4, gc, gc_mixed, mixed_no_loop)):
            slots = g.edge_slots()
            assert slots[-3:] == distinguished_edges(g.n)
            assert strip_distinguished(g).edge_slots() == slots[:-3]
            reduced = delete_edges(g, [(g.n - 1, g.n, "-")])
            assert reduced.edge_slots() == slots[:-3] + slots[-2:]


class TestDecompose:
    def test_k4_examples(self, k4):
        a = (3, 1, 0, -4)
        pf, k = decompose(k4, (1, 1, 1, 0, 2, 1), a)
        assert pf.values == (1, 1, 1) and k == 0
        pf, k = decompose(k4, (1, 1, 1, 2, 0, 3), a)
        assert pf.values == (1, 1, 1) and k == 2

    def test_triangle(self, g3):
        pf, k = decompose(g3, (1, 0, 1), (1, 0, -1))
        assert pf.values == () and k == 1

    def test_invalid_flow(self, k4):
        with pytest.raises(InvalidFlow):
            decompose(k4, (1, 0, 0, 0, 0, 0), (3, 1, 0, -4))

    def test_round_trips(self, k4, gc, g3):
        for g, a in (
            (k4, (3, 1, 0, -4)),
            (gc, (4, 0, 0, -2)),
            (g3, (2, 3, -5)),
            (k4, (1, 2, 3, -6)),
        ):
            flows = enumerate_flows(g, a)
            seen = set()
            for f in flows:
                pf, k = decompose(g, f, a)
                assert extend_with_index(g, pf, a, k) == f
                seen.add((pf.values, k))
            assert len(seen) == len(flows)
            for pf in enumerate_partial_flows(g, a):
                for k in range(pf.inflows[0] + a[g.n - 2] + 1):
                    f = extend_with_index(g, pf, a, k)
                    pf2, k2 = decompose(g, f, a)
                    assert (pf2, k2) == (pf, k)

    def test_fibration_partition(self, k4, gc):
        # flows on G are exactly the (partial flow, index) pairs
        for g, a in ((k4, (3, 1, 0, -4)), (gc, (4, 0, 0, -2))):
            fibered = {
                (pf.values, k)
                for pf in enumerate_partial_flows(g, a)
                for k in range(pf.inflows[0] + a[g.n - 2] + 1)
            }
            decomposed = {
                (decompose(g, f, a)[0].values, decompose(g, f, a)[1])
                for f in enumerate_flows(g, a)
            }
            assert fibered == decomposed


class TestCountViaPartial:
    def test_k4(self, k4):
        assert count_via_partial(k4, (3, 1, 0, -4)) == (30, 10)

    def test_triangle(self, g3):
        assert count_via_partial(g3, (2, 3, -5)) == (3, 1)

    def test_gc(self, gc):
        assert count_via_partial(gc, (4, 0, 0, -2)) == (10, 6)

    def test_require_full_refuses_partial_fibers(self, mixed_no_loop):
        # on the boundary band 4 of the 9 partial flows extend negatively:
        # the literal total 9 is not K_G = 7
        assert count_via_partial(mixed_no_loop, (2, 0, 0, 0)) == (9, 9)
        with pytest.raises(NegativeExtension):
            count_via_partial(mixed_no_loop, (2, 0, 0, 0), require_full=True)
        assert count_via_partial(mixed_no_loop, (1, 1, 1, -1), require_full=True) == (
            count(mixed_no_loop, (1, 1, 1, -1)),
            count(delete_edges(mixed_no_loop, [(2, 3, "-")]), (1, 1, 1, -1)),
        )

    @pytest.mark.parametrize("fixture,a,refused,why", [
        # the band y = a_n + 1: both refused partial flows have R = -1
        ("mixed_no_loop", (2, 1, 0, -1), 2, "Y_n = -1, R = -1"),
        # type A, negative supplies: one partial flow each, folded or not
        ("k4", (0, -1, 1, 0), 1, "Y_(n-1) = 0, L = -1"),
        ("k4", (0, -1, -1, 2), 1, "Y_(n-1) = 0, L = -1 and Y_n = 0, R = -1"),
        # unfolded (a_n < 0): the states (L, Y_n, Y_{n+1}) = (-1, 1, 0) and
        # (-1, 0, 1) share L = -1, so the L message counts both
        ("gc", (1, -1, -1, 1), 2, "Y_(n-1) = 0, L = -1"),
        # R = -1 (10 partial flows) and R = -2 (20): the smallest (L, cut)
        # of the fiber table is named
        (generate_bv_family(4, Theorem.TYPE_A, 2, 0), (3, 2, -2, -3), 10, "Y_n = 1, R = -1"),
        # the entry named has L = 0, so only R is negative, and the count
        # takes every partial flow with R = -1, L = 0 or 1
        ("k4", (1, 0, -1, 0), 2, "Y_n = 0, R = -1"),
    ])
    def test_require_full_names_what_is_negative(self, request, fixture, a, refused, why):
        g = request.getfixturevalue(fixture) if isinstance(fixture, str) else fixture
        with pytest.raises(NegativeExtension) as exc:
            count_via_partial(g, a, require_full=True)
        assert str(exc.value) == (
            f"{refused} partial flow(s) with {why} do not extend to G - (n-1, n); the "
            "literal aggregate need not be the count"
        )

    @pytest.mark.parametrize("seed,a", [(0, (3, 2, -2, -3)), (5, (3, -1, -1, -1))])
    def test_refusal_does_not_depend_on_state_order(self, monkeypatch, seed, a):
        # the table is sorted by (L, cut), so the message names the same
        # entry whatever order the DP stores its states in
        g = generate_bv_family(4, Theorem.TYPE_A, 2, seed)

        def refusal():
            counting._fiber_states.cache_clear()
            with pytest.raises(NegativeExtension) as exc:
                count_via_partial(g, a, require_full=True)
            return str(exc.value)

        first = refusal()
        frontier = counting._frontier
        monkeypatch.setattr(
            counting, "_frontier", lambda *args: dict(reversed(frontier(*args).items())))
        assert refusal() == first
        counting._fiber_states.cache_clear()

    def test_require_full_keeps_values_in_domain(self, k4, gc):
        assert count_via_partial(k4, (3, 1, 0, -4), require_full=True) == (30, 10)
        assert count_via_partial(gc, (4, 0, 0, -2), require_full=True) == (10, 6)

    def test_boolean_netflow_rejected(self, k4):
        with pytest.raises(DimensionMismatch):
            enumerate_partial_flows(k4, (3, 1, False, -4))
        with pytest.raises(DimensionMismatch):
            count_via_partial(k4, (3, 1, False, -4))
        with pytest.raises(DimensionMismatch):
            count_via_partial(k4, (3, 1, -4))

    def test_matches_both_counts_on_corpus(self):
        for theorem in (Theorem.TYPE_A, Theorem.TYPE_C_NEGATIVE):
            for g, a in identity_corpus(theorem, 24, seed0=300):
                total, num = count_via_partial(g, a)
                assert total == count(g, a)
                assert num == count(delete_edges(g, [(g.n - 1, g.n, "-")]), a)


class TestCountViaPartialAgainstEnumeration:
    """count_via_partial reads its aggregates off the counting DP's frontier;
    the partial-flow enumerator shares no code with it and cross-checks it."""

    @staticmethod
    def _assert_matches_enumeration(g, a):
        pfs = enumerate_partial_flows(g, a)
        n = g.n
        literal = (sum(pf.inflows[0] + a[n - 2] + 1 for pf in pfs), len(pfs))
        assert count_via_partial(g, a) == literal, (g, a)
        if all(pf.inflows[0] + a[n - 2] >= 0 and pf.inflows[1] + a[n - 1] >= 0
               for pf in pfs):
            assert count_via_partial(g, a, require_full=True) == literal, (g, a)
            return False
        with pytest.raises(NegativeExtension):
            count_via_partial(g, a, require_full=True)
        return True

    def test_seeded_corpus_with_negative_supplies(self, g3, k4, gc_mixed, mixed_no_loop):
        rng = random.Random(4040)
        refused = 0
        for theorem in (Theorem.TYPE_A, Theorem.TYPE_C_NEGATIVE, Theorem.TYPE_C_MIXED):
            for g, _ in identity_corpus(theorem, 30, seed0=700, sizes=(3, 4, 5, 6),
                                        netflows_per_graph=1):
                head = [rng.randint(-1, 3) for _ in range(g.n)]
                if g.kind is GraphKind.TYPE_A:
                    a = tuple(head) + (-sum(head),)
                else:  # odd coordinate sums now and then
                    last = 2 * rng.randint(0, 3) - sum(head) + (rng.random() < 0.1)
                    a = tuple(head) + (last,)
                refused += self._assert_matches_enumeration(g, a)
        assert refused  # the corpus reaches partial flows that do not extend
        # extreme supplies: a packed DP coordinate reaches |c| = sum|a_i|
        extreme = [
            (gc_mixed, (4, 0, 0, 0)),  # the loop can drain the whole supply
            (mixed_no_loop, (2, 0, 0, 0)),  # so can a positive edge
            (k4, (3, 2, 1, -6)),  # a_{n+1} = -sum(head)
            (k4, (5, 0, 0, -5)),
            (g3, (-2, 1, 1)),  # negative first supply, frontier at vertex 0
            (g3, (-3, 0, 3)),
            (mixed_no_loop, (2, -3, 0, 3)),  # negative arrival at n-1
            (gc_mixed, (3, -1, -2, 2)),
        ]
        for g, a in extreme:
            self._assert_matches_enumeration(g, a)

    def test_three_vertices(self, g3):
        # no layers: the single partial flow is empty, with L = a_1
        assert count_via_partial(g3, (2, 3, -5)) == (3, 1)
        assert count_via_partial(g3, (-1, 0, 1)) == (0, 1)
        with pytest.raises(NegativeExtension):
            count_via_partial(g3, (-1, 0, 1), require_full=True)
        gc3 = build_graph(3, "C", [(1, 2, "-", 1), (1, 3, "-", 1), (2, 3, "-", 1)])
        assert count_via_partial(gc3, (1, 1, -2)) == (2, 1)
        assert count_via_partial(gc3, (1, 1, 0)) == (0, 0)  # y = 1, no positive edge
        for a in ((2, 3, -5), (-1, 0, 1), (0, -2, 2)):
            self._assert_matches_enumeration(g3, a)
        for a in ((1, 1, -2), (1, 1, 0), (2, -1, 1)):
            self._assert_matches_enumeration(gc3, a)

    def test_catalan_8(self):
        # 31,743,391,680 partial flows, none of them listed
        result = count_via_partial(catalan_graph(8), catalan_netflow(8))
        assert result.total == catalan_product(8)


class TestFiberTable:
    """``counting._fiber_states`` against the ``(L, cut)`` histogram of the
    listed partial flows, with ``L = Y_{n-1} + a_{n-1}`` and ``cut = max(0,
    -(Y_n + a_n))``; the walk that lists them shares nothing with the DP."""

    @staticmethod
    def _check(g, a):
        histogram = {}
        for pf in enumerate_partial_flows(g, a):
            key = (pf.inflows[0] + a[-3], max(0, -(pf.inflows[1] + a[-2])))
            histogram[key] = histogram.get(key, 0) + 1
        table = counting._fiber_states(strip_distinguished(g), tuple(a))
        assert len(table) == len(histogram), (g, a)
        assert {(left, cut): w for left, cut, w in table} == histogram, (g, a)
        return table

    def test_band_witness(self, mixed_no_loop):
        a = (2, 0, 0, 0)  # y = a_n + 1
        table = self._check(mixed_no_loop, a)
        # 4 of the 9 partial flows do not extend to G - (n-1, n)
        assert sum(w for _, _, w in table) == 9
        assert sum(w for left, cut, w in table if left < 0 or cut) == 4
        assert count(delete_edges(mixed_no_loop, [(2, 3, "-")]), a) == 9 - 4
        # the literal total less the flows on G is the defect d_G = 2 that
        # demos/05_mixed_sign_boundary.py prints
        literal = sum(w * (left + 1) for left, _, w in table)
        flows = sum(w * max(0, left + 1 - cut) for left, cut, w in table)
        assert (literal, flows) == (9, count(mixed_no_loop, a)) == (9, 7)

    def test_acceptance_corpus(self):
        corpus = (identity_corpus(Theorem.TYPE_A, 108, seed0=1000)
                  + identity_corpus(Theorem.TYPE_C_NEGATIVE, 108, seed0=2000)
                  + identity_corpus(Theorem.TYPE_C_MIXED, 54, seed0=3000, a_max=2))
        cut = left_negative = 0
        for g, a in corpus:
            table = self._check(g, a)
            cut += any(c for _, c, _ in table)
            left_negative += any(left < 0 for left, _, _ in table)
        # the corpus reaches both kinds of partial flow that a fiber drops
        assert cut and left_negative


class TestAveragingIdentity:
    @staticmethod
    def _assert_averaging(g, a):
        pfs = enumerate_partial_flows(g, a)
        cond = bv_hypothesis(g, applicable_theorem(g))
        p, q = (cond.c.numerator, cond.c.denominator) if cond.c else (1, 0)
        n = g.n
        shifted = sum(a[: n - 2])
        if g.kind.value == "C":
            shifted -= sum(a)  # minus 2y
        total_y = sum(pf.inflows[0] for pf in pfs)
        if cond.c is not None:
            assert p * total_y == q * shifted * len(pfs)
        else:
            assert total_y == 0 or len(pfs) == 0

    def test_k4(self, k4):
        self._assert_averaging(k4, (3, 1, 0, -4))

    def test_gc(self, gc):
        self._assert_averaging(gc, (4, 0, 0, -2))

    def test_mixed(self, gc_mixed):
        self._assert_averaging(gc_mixed, (2, 2, 2, -4))

    def test_on_corpus(self):
        for theorem in (Theorem.TYPE_A, Theorem.TYPE_C_NEGATIVE, Theorem.TYPE_C_MIXED):
            for g, a in identity_corpus(theorem, 15, seed0=41):
                self._assert_averaging(g, a)


class TestNegativeExtensionPaths:
    """On the nine-edge mixed-sign witness at netflow (2, 0, 0, 0), the band
    ``y = min(a_{n-1}, a_n) + 1`` of the stated domain, some partial flows
    do not extend."""

    A = (2, 0, 0, 0)

    def test_extend_unique_raises_on_four_of_nine(self, mixed_no_loop):
        pfs = enumerate_partial_flows(mixed_no_loop, self.A)
        messages = {}
        for pf in pfs:
            try:
                extend_unique(mixed_no_loop, pf, self.A)
            except NegativeExtension as exc:
                messages[pf.values] = str(exc)
        assert len(pfs) == 9 and len(messages) == 4
        assert messages[(1, 0, 0, 1, 0, 0)] == (
            "extension needs b(2, 4, '-') = 1, b(3, 4, '-') = -1"
        )

    def test_extend_with_index_and_fiber(self, mixed_no_loop):
        raised = []
        for pf in enumerate_partial_flows(mixed_no_loop, self.A):
            members = []
            for k in range(pf.inflows[0] + self.A[1] + 1):
                try:
                    members.append(extend_with_index(mixed_no_loop, pf, self.A, k))
                except NegativeExtension as exc:
                    raised.append((pf.values, k, str(exc)))
            assert materialize_fiber(mixed_no_loop, pf, self.A) == members
        assert raised == [
            ((0, 0, 0, 1, 1, 0), 0, "extension needs b(3, 4, '-') = -1"),
            ((1, 0, 0, 1, 0, 0), 0, "extension needs b(3, 4, '-') = -1"),
        ]


class TestNegativeSupplyBoundary:
    """Netflows with negative supplies sit outside the identities' proven
    domain; partial flows that fail to extend are dropped from materialized
    fibers while the literal aggregates keep counting them.  These tests pin
    the observable behavior instead of asserting the identity."""

    def test_literal_aggregates_match_when_all_extensions_exist(self, k4):
        rng = random.Random(13)
        for _ in range(40):
            a_head = [rng.randint(-2, 4) for _ in range(3)]
            a = tuple(a_head) + (-sum(a_head),)
            pfs = enumerate_partial_flows(k4, a)
            total, num = count_via_partial(k4, a)
            fibers = [materialize_fiber(k4, pf, a) for pf in pfs]
            # decomposition of the true flow set always partitions into fibers
            assert sorted(f for fib in fibers for f in fib) == enumerate_flows(k4, a)
            if all(len(fib) == pf.inflows[0] + a[2] + 1 for pf, fib in zip(pfs, fibers)):
                assert total == count(k4, a)

    def test_known_negative_supply_discrepancy(self, k4):
        # a_3 = -1 starves edge (3,4): the four partial flows with no inflow
        # at vertex 3 lose their unique extension and one fiber member each,
        # so the literal aggregates (30, 10) overshoot the true counts
        a = (3, 1, -1, -3)
        assert count_via_partial(k4, a) == (30, 10)
        assert count(k4, a) == brute_force_count(k4, a) == 26
        assert count(delete_edges(k4, [(2, 3, "-")]), a) == 6
