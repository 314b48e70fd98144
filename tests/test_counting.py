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
    count_via_partial,
    delete_edges,
    enumerate_flows,
    enumerate_partial_flows,
    necessary_feasible_a,
    root_multiset,
    strip_distinguished,
    verify_identity_a,
    weight_bound,
)
from kpflows import counting
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

    @pytest.mark.parametrize("n", [9, 10])
    def test_catalan_9(self, n):
        # n = 10 peaks at 15,504 frontier states, with many on each line
        assert count(catalan_graph(n), catalan_netflow(n)) == catalan_product(n)

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


def _cold_count(graph, a):
    """``count`` on an empty prefix memo; the memo is put back afterwards,
    so the sequence of counts around this one is not disturbed."""
    saved = counting._prefix_memo
    counting._prefix_memo = (None, {})
    try:
        return count(graph, a)
    finally:
        counting._prefix_memo = saved


def _prefix_family(rng, kind, n_plus_1):
    """Graphs that share their edges out of 1..n-2 and differ after n-2.

    Each tail after n-2 comes with (n-1, n, -) of multiplicity 1, 0 and 2,
    so G and G - (n-1, n) are both members.  A type C prefix holds a
    positive edge or loop, and of its two tails one has none and one has a
    positive edge or loop, so the last positive source v_p lies in the
    prefix for some members and after n-2 for the others.
    """
    split = n_plus_1 - 3
    signs = "-+" if kind == "C" else "-"

    def draw(lo, hi, tail_signs):
        edges = {}
        for i in range(lo, hi + 1):
            for j in range(i, n_plus_1 + 1):
                for sign in tail_signs:
                    if (i < j or sign == "+") and rng.random() < 0.4:
                        edges[(i, j, sign)] = rng.randint(1, 2)
        return edges

    prefix = draw(1, split, signs)
    if kind == "C":
        i = rng.randint(1, split)
        prefix[(i, rng.randint(i, n_plus_1), "+")] = 1
    tails = [draw(split + 1, n_plus_1, "-")]
    if kind == "C":
        positive = draw(split + 1, n_plus_1, "+")
        i = rng.randint(split + 1, n_plus_1)
        positive[(i, rng.randint(i, n_plus_1), "+")] = 1
        tails.append({**draw(split + 1, n_plus_1, "-"), **positive})
    members = []
    for tail in tails:
        for mult in (1, 0, 2):
            edges = {**prefix, **tail, (split + 1, split + 2, "-"): mult}
            members.append(build_graph(
                n_plus_1, kind, [(i, j, sign, m) for (i, j, sign), m in edges.items() if m]
            ))
    return members


def _prefix_netflow(rng, kind, n_plus_1):
    """Supplies down to -1, so that arrivals at n-1 can be negative."""
    head = [rng.randint(-1, 3) for _ in range(n_plus_1 - 1)]
    if kind == "A":
        return tuple(head) + (-sum(head),)
    return tuple(head) + (2 * rng.randint(0, 3) - sum(head),)


def _interleaved(rng, families, netflows_per_family):
    """(graph, a) pairs: each family's members counted in a row on one
    netflow, the runs shuffled, and some neighbours of different runs
    swapped so that runs interleave."""
    runs = []
    for kind, members in families:
        for _ in range(netflows_per_family):
            a = _prefix_netflow(rng, kind, members[0].n_plus_1)
            runs.append([(g, a) for g in rng.sample(members, len(members))])
    rng.shuffle(runs)
    order = [case for run in runs for case in run]
    for _ in range(len(order) // 4):
        k = rng.randrange(len(order) - 1)
        order[k], order[k + 1] = order[k + 1], order[k]
    return order


@pytest.fixture
def memo_misses(monkeypatch):
    """Start on an empty prefix memo and record, per ``_frontier`` call,
    whether it stored a new memo entry, i.e. ran the layers of 1..n-2."""
    monkeypatch.setattr(counting, "_prefix_memo", (None, {}))
    frontier = counting._frontier
    misses = []

    def spy(graph, a, last):
        before = counting._prefix_memo
        out = frontier(graph, a, last)
        misses.append(counting._prefix_memo is not before)
        return out

    monkeypatch.setattr(counting, "_frontier", spy)
    return misses


class TestPrefixMemo:
    """``_frontier`` resumes a count at vertex n-1 from the frontier of the
    previous count whose netflow, edges out of 1..n-2 and last positive
    source (up to n-2) are the same; every count must equal a cold one."""

    def test_interleaved_families_match_cold_counts(self, monkeypatch):
        monkeypatch.setattr(counting, "_prefix_memo", (None, {}))
        rng = random.Random(20261018)
        families = [
            (kind, _prefix_family(rng, kind, n_plus_1))
            for n_plus_1 in (4, 5, 6)
            for kind in ("A", "C")
            for _ in range(12)
        ]
        order = _interleaved(rng, families, 4)
        hits = 0
        for g, a in order:
            before = counting._prefix_memo
            hot = count(g, a)
            # every count here runs its layers, so a memo left as it was is a hit
            hits += counting._prefix_memo is before
            assert hot == _cold_count(g, a), (g, a)
            if g.n_plus_1 <= 5 and sum(abs(x) for x in a) <= 8:
                assert hot == brute_force_count(g, a), (g, a)
        assert hits >= len(order) // 5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_families_property(self, seed):
        rng = random.Random(seed)
        families = [
            (kind, _prefix_family(rng, kind, rng.randint(4, 6)))
            for kind in (rng.choice("AC"), rng.choice("AC"))
        ]
        saved = counting._prefix_memo
        try:
            for g, a in _interleaved(rng, families, 2):
                assert count(g, a) == _cold_count(g, a), (g, a)
        finally:
            counting._prefix_memo = saved

    def test_partial_backend_ignores_the_memo(self, memo_misses, mixed_no_loop):
        # the partial backend stops after n-2 and keeps negative arrivals at
        # n-1, which the counts' frontier drops; mixed_no_loop has some
        h = strip_distinguished(mixed_no_loop)
        assert any(state[0] < 0 for state in _frontier(h, (2, 0, 0, 0), 1))
        cases = [(mixed_no_loop, (2, 0, 0, 0))] + identity_corpus(
            Theorem.TYPE_C_MIXED, 24, seed0=500
        ) + identity_corpus(Theorem.TYPE_A, 12, seed0=500)
        for g, a in cases:
            counting._prefix_memo = (None, {})
            cold = count_via_partial(g, a)
            count(g, a)
            assert count_via_partial(g, a) == cold, (g, a)

    def test_identity_check_runs_the_shared_layers_once(self, memo_misses):
        g = catalan_graph(8)  # K_9
        for a in (catalan_netflow(8), (1,) * 8 + (-8,)):
            del memo_misses[:]
            report = verify_identity_a(g, a)
            assert memo_misses == [True, False]
            assert report.verdict is True
            # the memo holds the frontier on entry to vertex n-1: the states
            # of the partial backend's frontier after n-2, none of them a
            # negative arrival here
            states = _frontier(g, a, g.n_plus_1 - 3)
            assert all(state[0] >= 0 for state in states)
            stored = counting._prefix_memo[1]
            assert len(stored) == len(states)
            assert sum(stored.values()) == sum(states.values())
        assert report.lhs_count == _cold_count(g, a)


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

    @pytest.mark.parametrize("limit", [2**63 - 1, 2**63, 10**30])
    def test_limit_beyond_any_list(self, g3, limit):
        # islice rejects a stop above sys.maxsize; no list is that long anyway
        assert enumerate_flows(g3, (1, 0, -1), limit=limit) == [(0, 1, 0), (1, 0, 1)]
        assert len(enumerate_flows(g3, (1, 0, -1), limit=limit, require_complete=True)) == 2

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


def _infeasible_netflow(rng, kind, n_plus_1):
    """A netflow whose coordinate sum rules out every flow: nonzero on type
    A; odd or negative on type C."""
    while True:
        a = tuple(rng.randint(-3, 4) for _ in range(n_plus_1))
        total = sum(a)
        if (total != 0) if kind == "A" else (total % 2 or total < 0):
            return a


class TestOracleGate:
    """The oracle answers a netflow with an impossible coordinate sum at
    once, as ``count`` does, instead of walking for it."""

    @pytest.mark.parametrize("kind,a", [
        ("A", (1, 0, 0, 0)),  # nonzero sum
        ("A", (0, 0, 0, -1)),
        ("C", (1, 0, 0, 0)),  # odd sum
        ("C", (0, 0, 0, -2)),  # negative sum
    ])
    def test_walk_not_entered(self, monkeypatch, k4, gc, kind, a):
        def no_walk(*args):
            raise AssertionError("walk entered")

        monkeypatch.setattr(counting, "_walk", no_walk)
        g = k4 if kind == "A" else gc
        assert brute_force_count(g, a) == 0
        assert enumerate_flows(g, a) == []
        assert enumerate_flows(g, a, limit=3) == []

    def test_ungated_walk_finds_nothing(self):
        # the gate restates a rule the walk obeys on its own
        rng = random.Random(4242)
        for case in range(60):
            kind = "A" if case % 2 else "C"
            g = random_graph(rng, kind, rng.randint(2, 4))
            a = _infeasible_netflow(rng, kind, g.n_plus_1)
            assert list(counting._walk(g, a, g.n_plus_1)) == [], (g, a)

    def test_six_vertex_graph_without_flows(self):
        # a nonzero total; the walk alone searched this for more than 20 s
        g = build_graph(6, "A", [
            (1, 3, "-", 2), (1, 5, "-", 4), (1, 6, "-", 3), (2, 6, "-", 2), (3, 4, "-", 4),
            (3, 5, "-", 4), (3, 6, "-", 4), (4, 5, "-", 3), (4, 6, "-", 2), (5, 6, "-", 4),
        ])
        a = (4, 1, 1, 2, 3, 0)
        assert brute_force_count(g, a) == 0
        assert enumerate_flows(g, a) == []
        assert enumerate_flows(g, a, limit=1, require_complete=True) == []


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
            # three copies ahead of the closing group: three running sums
            # along each line, on a negative edge and on a positive edge
            # whose lines the budget cuts short
            (build_graph(3, "A", [(1, 2, "-", 3), (1, 3, "-", 1), (2, 3, "-", 1)]),
             (4, 1, -5)),
            (build_graph(4, "C", [(1, 2, "-", 1), (1, 2, "+", 3), (1, 3, "-", 1),
                                  (2, 3, "-", 2), (2, 3, "+", 1), (2, 4, "-", 1),
                                  (3, 4, "-", 1)]), (5, 1, 0, 0)),
        ]
        for g, a in extreme:
            expected = brute_force_count(g, a)
            assert count(g, a) == expected, (g, a)
            assert len(enumerate_flows(g, a)) == expected, (g, a)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_agreement_on_arbitrary_netflows(self, seed, max_mult):
        # negative and malformed entries included: the two backends must
        # agree everywhere, not only on feasible inputs; up to 3 copies per
        # edge give the DP's sweep up to three running sums per line
        rng = random.Random(seed)
        kind = rng.choice(["A", "C"])
        g = random_graph(rng, kind, rng.randint(2, 4), max_mult)
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
