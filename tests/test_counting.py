import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kpflows import (
    DimensionMismatch,
    LimitExceeded,
    Theorem,
    brute_force_count,
    build_graph,
    catalan_graph,
    catalan_netflow,
    catalan_product,
    check_flow,
    count,
    delete_edges,
    enumerate_flows,
    enumerate_partial_flows,
    necessary_feasible_a,
    root_multiset,
    strip_distinguished,
    weight_bound,
)
from kpflows.counting import _frontier

from families import identity_corpus, random_graph, random_netflow_a, random_netflow_c


class TestCheckFlow:
    def test_valid_flow(self, g3):
        assert check_flow(g3, (0, 1, 0), (1, 0, -1))

    def test_imbalanced_flow(self, g3):
        assert not check_flow(g3, (1, 0, 0), (1, 0, -1))

    def test_loop_consumes_two_per_unit(self, gc):
        f = [0] * 7
        f[0] = 2  # loop (1,1,+) is the first canonical slot
        assert check_flow(gc, tuple(f), (4, 0, 0, 0))

    def test_negative_entries_rejected(self, g3):
        assert not check_flow(g3, (0, 1, -1), (1, 0, 0))

    def test_boolean_entries_rejected(self):
        g = build_graph(2, "A", [(1, 2, "-", 1)])
        assert check_flow(g, (1,), (1, -1))
        assert not check_flow(g, (True,), (1, -1))

    def test_dimension_mismatch(self, g3):
        with pytest.raises(DimensionMismatch):
            check_flow(g3, (0, 1), (1, 0, -1))
        with pytest.raises(DimensionMismatch):
            check_flow(g3, (0, 1, 0), (1, 0, 0, -1))


class TestWeightBound:
    def test_examples(self, g3):
        assert weight_bound(g3, (1, 0, -1)) == 2
        assert weight_bound(g3, (-1, 1, 0)) == -1

    def test_zero_netflow(self):
        g = build_graph(4, "A", [])
        assert weight_bound(g, (0, 0, 0, 0)) == 0

    def test_negative_bound_means_zero_count(self, g3):
        assert count(g3, (-1, 1, 0)) == 0


class TestBruteForce:
    def test_triangle(self, g3):
        assert brute_force_count(g3, (1, 0, -1)) == 2

    def test_empty_flow_only(self, g3):
        assert brute_force_count(g3, (0, 0, 0)) == 1

    def test_positive_edge_infeasible(self):
        g = build_graph(2, "C", [(1, 2, "+", 1)])
        assert brute_force_count(g, (2, 1)) == 0


class TestCount:
    def test_k4(self, k4):
        assert count(k4, (3, 1, 0, -4)) == 30

    def test_k4_staircase(self, k4):
        assert count(k4, (1, 2, 3, -6)) == 10

    def test_gc(self, gc):
        assert count(gc, (4, 0, 0, -2)) == 10

    def test_type_a_nonzero_sum_is_zero(self, k4):
        assert count(k4, (1, 1, 1, 1)) == 0

    def test_type_c_odd_sum_is_zero(self, gc):
        assert count(gc, (4, 0, 0, -1)) == 0

    def test_type_c_negative_sum_is_zero(self, gc):
        assert count(gc, (0, 0, 0, -2)) == 0

    def test_zero_netflow(self, g3, k4, gc, gc_mixed):
        for g in (g3, k4):
            assert count(g, (0,) * g.n_plus_1) == 1
        for g in (gc, gc_mixed):
            assert count(g, (0,) * g.n_plus_1) >= 1

    def test_catalan_9(self):
        assert count(catalan_graph(9), catalan_netflow(9)) == catalan_product(9)

    def test_long_path_has_no_depth_limit(self):
        # one layer per vertex and no recursion: far past Python's default
        # recursion limit of 1000 frames
        n_plus_1 = 1200
        path = build_graph(n_plus_1, "A", [(i, i + 1, "-", 1) for i in range(1, n_plus_1)])
        assert count(path, (1,) + (0,) * (n_plus_1 - 2) + (-1,)) == 1

    def test_boolean_netflow_rejected(self, g3):
        with pytest.raises(DimensionMismatch):
            count(g3, (True, 0, -1))
        with pytest.raises(DimensionMismatch):
            brute_force_count(g3, (1, False, -1))

    def test_frontier_keeps_only_the_positive_budget(self, mixed_no_loop):
        # Phi = sum(a) - 2 * (positive flow so far) is the returned state's
        # coordinate sum plus a_{v+2} + ... + a_{n+1}; it never rises and
        # every flow ends at Phi = 0
        a = (2, 0, 0, 0)
        last_positive = 1  # the last vertex with a positive out-edge
        for v in range(mixed_no_loop.n_plus_1 + 1):
            frontier = _frontier(mixed_no_loop, a, v)
            assert frontier
            for state in frontier:
                phi = sum(state) + sum(a[v + 1:])
                if v >= last_positive:
                    assert phi == 0, (v, state)
                else:
                    assert phi >= 0, (v, state)
        assert _frontier(mixed_no_loop, a, mixed_no_loop.n_plus_1) == {(): 7}

    def test_single_vertex_loop(self):
        g = build_graph(1, "C", [(1, 1, "+", 1)])
        assert count(g, (4,)) == 1
        assert count(g, (3,)) == 0
        assert count(build_graph(1, "A", []), (0,)) == 1


class TestEnumerate:
    def test_lexicographic(self, g3):
        assert enumerate_flows(g3, (1, 0, -1)) == [(0, 1, 0), (1, 0, 1)]

    def test_zero(self, g3):
        assert enumerate_flows(g3, (0, 0, 0)) == [(0, 0, 0)]

    def test_limit(self, g3):
        assert enumerate_flows(g3, (1, 0, -1), limit=1) == [(0, 1, 0)]

    def test_require_complete(self, g3):
        with pytest.raises(LimitExceeded):
            enumerate_flows(g3, (1, 0, -1), limit=1, require_complete=True)
        assert len(enumerate_flows(g3, (1, 0, -1), limit=2, require_complete=True)) == 2

    def test_bad_limit(self, g3):
        with pytest.raises(ValueError):
            enumerate_flows(g3, (1, 0, -1), limit=0)

    def test_boolean_limit_rejected(self, g3):
        with pytest.raises(ValueError):
            enumerate_flows(g3, (1, 0, -1), limit=True)

    def test_every_flow_checks_and_is_distinct(self, gc):
        flows = enumerate_flows(gc, (4, 0, 0, -2))
        assert len(flows) == len(set(flows)) == 10
        assert all(check_flow(gc, f, (4, 0, 0, -2)) for f in flows)


class TestOracleAgreement:
    def test_seeded_corpus(self):
        rng = random.Random(20260808)
        for case in range(60):
            kind = rng.choice(["A", "C"])
            g = random_graph(rng, kind, rng.randint(3, 5))
            a = (
                random_netflow_a(rng, g.n_plus_1)
                if kind == "A"
                else random_netflow_c(rng, g.n_plus_1)
            )
            expected = brute_force_count(g, a)
            assert count(g, a) == expected
            assert len(enumerate_flows(g, a)) == expected
        # extreme supplies: a packed DP coordinate reaches |c| = sum|a_i|
        k4_double = build_graph(4, "A", [(i, j, "-", 2) for i in range(1, 4)
                                         for j in range(i + 1, 5)])
        mixed = build_graph(4, "C", [(1, j, s, 1) for j in (2, 3, 4) for s in "-+"]
                            + [(2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)])
        extreme = [
            # loops drain the whole supply
            (build_graph(2, "C", [(1, 1, "+", 2), (1, 2, "-", 1)]), (6, 0)),
            # a positive edge of multiplicity 2 takes the whole supply
            (build_graph(3, "C", [(1, 2, "+", 2), (2, 3, "-", 1)]), (4, 4, 0)),
            # a_{n+1} = -sum(head)
            (k4_double, (3, 2, 1, -6)),
            (k4_double, (4, 0, 0, -4)),
            # negative first supply
            (k4_double, (-1, 2, 0, -1)),
            # type C arrivals made negative by positive inflow
            (build_graph(2, "C", [(1, 2, "+", 1)]), (3, -3)),
            (mixed, (2, -3, 0, 3)),
            (mixed, (3, -1, -1, 1)),
            # one edge of multiplicity 1,500 plus the unit triangle: 3,000 flows
            (build_graph(4, "A", [(1, 2, "-", 1500), (2, 3, "-", 1), (2, 4, "-", 1),
                                  (3, 4, "-", 1)]), (1, 0, 0, -1)),
            # type C positive-flow budget: y = 0 with positive supplies
            (build_graph(3, "C", [(1, 2, "-", 1), (1, 2, "+", 1), (1, 3, "-", 2),
                                  (1, 3, "+", 1), (2, 3, "-", 1), (2, 3, "+", 1)]),
             (2, 1, -3)),
            # no positive edge and sum(a) > 0: no flow
            (build_graph(3, "C", [(1, 2, "-", 2), (1, 3, "-", 1), (2, 3, "-", 1)]),
             (2, 1, 1)),
            # a loop on the last positive source
            (build_graph(4, "C", [(1, 2, "+", 1), (1, 3, "-", 1), (2, 2, "+", 2),
                                  (2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)]),
             (2, 3, 1, -2)),
            # positive edges into n+1
            (build_graph(3, "C", [(1, 2, "-", 1), (1, 3, "+", 2), (2, 3, "-", 1),
                                  (2, 3, "+", 1)]), (3, 1, 0)),
            (build_graph(4, "C", [(1, 2, "-", 1), (1, 4, "+", 2), (2, 3, "-", 1),
                                  (2, 4, "-", 1), (3, 4, "+", 1)]), (3, 1, 2, -2)),
        ]
        for g, a in extreme:
            expected = brute_force_count(g, a)
            assert count(g, a) == expected, (g, a)
            assert len(enumerate_flows(g, a)) == expected, (g, a)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agreement_on_arbitrary_netflows(self, seed):
        # negative and malformed entries included: the two backends must
        # agree everywhere, not only on feasible inputs
        rng = random.Random(seed)
        kind = rng.choice(["A", "C"])
        g = random_graph(rng, kind, rng.randint(2, 4))
        a = tuple(rng.randint(-3, 4) for _ in range(g.n_plus_1))
        assert count(g, a) == brute_force_count(g, a)

    def test_deletion_monotonicity(self):
        rng = random.Random(77)
        for case in range(25):
            kind = rng.choice(["A", "C"])
            g = random_graph(rng, kind, rng.randint(3, 4))
            if not g.edges:
                continue
            slots = g.edge_slots()
            slot = slots[rng.randrange(len(slots))]
            a = (
                random_netflow_a(rng, g.n_plus_1, 3)
                if kind == "A"
                else random_netflow_c(rng, g.n_plus_1, 3, 3)
            )
            assert count(delete_edges(g, [slot]), a) <= count(g, a)

    def test_prefix_violation_forces_zero(self):
        rng = random.Random(99)
        for case in range(25):
            g = random_graph(rng, "A", rng.randint(3, 5))
            a = [rng.randint(-4, 4) for _ in range(g.n_plus_1)]
            a[-1] = -sum(a[:-1])
            a = tuple(a)
            if necessary_feasible_a(a):
                continue
            assert count(g, a) == 0
            assert brute_force_count(g, a) == 0


def _product(graph, a, m):
    """Reference enumeration sharing no code with the library's walk: the
    product of per-slot ranges, in itertools.product's (lexicographic) order,
    or None when it has more than 50,000 vectors.

    Under ``u_k = n+2-k`` on 1..m (0 above) each root here weighs >= 1, so a
    slot of weight ``u . r`` carries at most ``(u . a) // (u . r)``."""
    u = [graph.n_plus_1 - k if k < m else 0 for k in range(graph.n_plus_1)]
    budget = max(0, sum(uk * ak for uk, ak in zip(u, a)))
    ranges = [range(budget // sum(uk * rk for uk, rk in zip(u, r)) + 1)
              for r in root_multiset(graph)]
    if math.prod(map(len, ranges)) > 50_000:
        return None
    return itertools.product(*ranges)


class TestOrderAgainstProduct:
    """The lexicographic order is a contract (``enumerate --limit`` truncates
    by it), so compare whole lists, order included, with a brute product."""

    def test_flows(self):
        rng = random.Random(60606)
        compared = nonempty = 0
        while compared < 60:
            kind = rng.choice(["A", "C"])
            g = random_graph(rng, kind, rng.randint(2, 4), max_mult=3, density=0.8)
            head = [rng.randint(-1, 3) for _ in range(g.n)]
            last = -sum(head) if kind == "A" else 2 * rng.randint(0, 2) - sum(head)
            if rng.random() < 0.2:  # now and then a netflow of the wrong total
                last += rng.choice([-1, 1])
            a = tuple(head) + (last,)
            candidates = _product(g, a, g.n_plus_1)
            if not g.edges or candidates is None:
                continue
            expected = [b for b in candidates if check_flow(g, b, a)]
            assert enumerate_flows(g, a) == expected, (g, a)
            compared += 1
            nonempty += len(expected) > 1
        assert nonempty >= 15

    def test_partial_flows(self):
        rng = random.Random(70707)
        compared = nonempty = 0
        for theorem in (Theorem.TYPE_A, Theorem.TYPE_C_NEGATIVE, Theorem.TYPE_C_MIXED):
            for g, _ in identity_corpus(theorem, 60, seed0=900, sizes=(3, 4, 5),
                                        max_mult=3, netflows_per_graph=1):
                head = [rng.randint(-1, 3) for _ in range(g.n)]
                y = rng.randint(0, 2)
                last = -sum(head) if theorem is Theorem.TYPE_A else 2 * y - sum(head)
                a = tuple(head) + (last,)
                h, m = strip_distinguished(g), g.n_plus_1 - 3
                candidates = _product(h, a, m)
                if candidates is None:
                    continue
                roots = root_multiset(h)
                positive = [sign == "+" for _, _, sign in h.edge_slots()]
                expected = [
                    b for b in candidates
                    if all(sum(x * r[k] for x, r in zip(b, roots)) == a[k] for k in range(m))
                    # type C pins the positive total to y
                    and (theorem is Theorem.TYPE_A
                         or sum(x for x, p in zip(b, positive) if p) == y)
                ]
                got = [pf.values for pf in enumerate_partial_flows(g, a)]
                assert got == expected, (g, a)
                compared += 1
                nonempty += len(expected) > 1
        assert compared >= 60 and nonempty >= 15
