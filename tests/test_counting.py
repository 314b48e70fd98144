import itertools
import math
import random
import sys

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
    complete_type_a,
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


def _assert_positive_budget(g, a, last_positive, flows):
    """Phi = sum(a) - 2 * (positive flow so far) is a returned state's
    coordinate sum plus a_{v+2} + ... + a_{n+1}; it never rises, every flow
    ends at Phi = 0, and from the last positive source v_p on it is 0, by
    one test at v_p's close, whether that close drains through a positive
    group, a negative group after the last positive one, or loops."""
    for v in range(g.n_plus_1 + 1):
        frontier = _frontier(g, a, v)
        assert frontier
        for state in frontier:
            phi = sum(state) + sum(a[v + 1:])
            if v >= last_positive:
                assert phi == 0, (v, state)
            else:
                assert phi >= 0, (v, state)
    assert _frontier(g, a, g.n_plus_1) == {(): flows}


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
        _assert_positive_budget(mixed_no_loop, (2, 0, 0, 0), last_positive=1, flows=7)

    def test_frontier_sweeps_a_positive_fan_out_under_the_budget(self):
        # the last positive source is 2, so vertex 1 sweeps (1,2,+) under
        # the budget and its close on (1,4,-) leaves Phi as it is
        g = build_graph(4, "C", [(1, 2, "+", 1), (1, 3, "-", 1), (1, 4, "-", 1),
                                 (2, 3, "+", 1), (2, 4, "-", 1), (3, 4, "-", 1)])
        _assert_positive_budget(g, (3, 2, 0, -3), last_positive=2, flows=6)

    def test_frontier_closes_the_last_positive_source_through_its_loops(self):
        # v_p = 2 sweeps (2,3,-) and (2,4,-); its close drains the rest
        # through the loops and keeps only the states it leaves at Phi = 0
        g = build_graph(4, "C", [(1, 2, "-", 1), (1, 3, "+", 1), (2, 2, "+", 2),
                                 (2, 3, "-", 1), (2, 4, "-", 1), (3, 4, "-", 1)])
        assert brute_force_count(g, (4, 2, 0, -2)) == 18
        _assert_positive_budget(g, (4, 2, 0, -2), last_positive=2, flows=18)

    def test_frontier_drops_a_negative_budget_before_the_last_positive_source(self):
        # count answers a negative or odd sum(a) before the DP runs, but the
        # DP alone drops every state whose Phi goes negative: in a positive
        # fan-out group (Phi = -2 here), and in a positive close (Phi = 1,
        # and sending the whole supply 1 along (1,3,+) leaves -1)
        g = build_graph(4, "C", [(1, 2, "+", 1), (1, 3, "-", 1), (1, 4, "-", 1),
                                 (2, 3, "+", 1), (2, 4, "-", 1), (3, 4, "-", 1)])
        assert _frontier(g, (3, 2, 0, -7), 1) == {}
        g = build_graph(3, "C", [(1, 2, "-", 1), (1, 3, "+", 1), (2, 3, "+", 1)])
        assert _frontier(g, (1, 0, 0), 1) == {(1, 0): 1}

    def test_single_vertex_loop(self):
        g = build_graph(1, "C", [(1, 1, "+", 1)])
        assert count(g, (4,)) == 1
        assert count(g, (3,)) == 0
        assert count(build_graph(1, "A", []), (0,)) == 1

    def test_thick_exact_group(self):
        # v_p = 2 sweeps its two copies of (2,3,+) in comb(t+1, 1) ways, and
        # its close on (2,4,-) keeps the states that sent exactly Phi/2 units
        g = build_graph(4, "C", [(1, 2, "-", 1), (1, 3, "-", 1), (2, 3, "+", 2),
                                 (2, 4, "-", 1), (3, 4, "-", 1)])
        for a, flows in (((2, 2, 0, -2), 4), ((1, 3, 1, -1), 3), ((2, 2, 2, -2), 9)):
            assert count(g, a) == brute_force_count(g, a) == flows

    def test_huge_supply_on_the_unit_triangle(self, monkeypatch):
        # the finish off the frontier after n-2 never ranges over a supply;
        # the DP through vertex n+1 would, so it must not run
        frontier = counting._frontier

        def only_to_n_minus_2(graph, a, last):
            assert last <= graph.n_plus_1 - 3, "the DP ran past vertex n-2"
            return frontier(graph, a, last)

        monkeypatch.setattr(counting, "_frontier", only_to_n_minus_2)
        counting._fiber_states.cache_clear()
        assert count(complete_type_a(3), (10**20, 0, -10**20)) == 10**20 + 1


def _cold_count(graph, a):
    """The general DP through vertex n+1, which shares nothing with the
    finish off the frontier after n-2 or its cache."""
    return _frontier(graph, a, graph.n_plus_1).get((), 0)


def _table(states, a_n):
    """An unfolded frontier after n-2 mapped through ``(L, Y_n, Y_{n+1}) ->
    (L, max(0, -(Y_n + a_n)))``, the ways of the states that merge summed:
    the fiber table, computed without the fold."""
    out = {}
    for (left, y_n, _), ways in states.items():
        key = (left, max(0, -(y_n + a_n)))
        out[key] = out.get(key, 0) + ways
    return out


def _as_dict(table):
    """A fiber table as ``{(L, cut): ways}``, after checking that it is a
    tuple (so no reader can change the cached entry) with one entry per
    key."""
    assert type(table) is tuple
    out = {(left, cut): ways for left, cut, ways in table}
    assert len(out) == len(table)
    return out


def _spy_on_passes(monkeypatch):
    """Wrap ``counting._frontier``; each call appends whether the graph it
    ran on has an edge into n, and the size of the frontier it returned.
    The fiber table is the same with and without the fold, so only these
    show that ``_fiber_states`` folded vertex n into n+1."""
    runs = []
    frontier = counting._frontier

    def spy(graph, a, last):
        out = frontier(graph, a, last)
        runs.append((any(j == graph.n for _, j, _, _ in graph.edges), len(out)))
        return out

    monkeypatch.setattr(counting, "_frontier", spy)
    return runs


def _takes_fiber_states(graph):
    """Whether ``count`` finishes off the frontier after n-2: the edges out
    of n-1, n and n+1 are the unit triangle or the unit pair into n+1."""
    n = graph.n
    triangle = ((n - 1, n, "-", 1), (n - 1, n + 1, "-", 1), (n, n + 1, "-", 1))
    return tuple(e for e in graph.edges if e[0] >= n - 1) in (triangle, triangle[1:])


def _prefix_family(rng, kind, n_plus_1):
    """Graphs that share their edges out of 1..n-2 and differ after n-2.

    Each tail after n-2 comes with (n-1, n, -) of multiplicity 1, 0 and 2,
    so G and G - (n-1, n) are both members.  Beside the random tails, the
    unit pair into n+1 gives the unit triangle, the unit pair and a doubled
    (n-1, n), so two members finish off the frontier after n-2 and share
    it.  A type C prefix holds a positive edge or loop, and of its two
    random tails one has none and one has a positive edge or loop, so the
    last positive source v_p lies in the prefix for some members and after
    n-2 for the others.
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
    tails = [draw(split + 1, n_plus_1, "-"), {
        (split + 1, n_plus_1, "-"): 1, (split + 2, n_plus_1, "-"): 1}]
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


class TestPrefixMemo:
    """``count`` finishes a graph with the unit triangle or the unit pair
    after n-2 off the frontier after n-2, which ``_fiber_states`` keeps for
    the last head and netflow; every count must equal the general DP's."""

    def test_interleaved_families_match_cold_counts(self):
        counting._fiber_states.cache_clear()
        rng = random.Random(20261018)
        families = [
            (kind, _prefix_family(rng, kind, n_plus_1))
            for n_plus_1 in (4, 5, 6)
            for kind in ("A", "C")
            for _ in range(12)
        ]
        order = _interleaved(rng, families, 4)
        for g, a in order:
            hot = count(g, a)
            assert hot == _cold_count(g, a), (g, a)
            if g.n_plus_1 <= 5 and sum(abs(x) for x in a) <= 8:
                assert hot == brute_force_count(g, a), (g, a)
        # each finish off the frontier reads the cache once, and the two
        # such members of a run share an entry unless another run's cut in
        finishing = sum(_takes_fiber_states(g) for g, _ in order)
        info = counting._fiber_states.cache_info()
        assert info.hits + info.misses == finishing
        assert info.hits >= finishing // 3

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_families_property(self, seed):
        rng = random.Random(seed)
        families = [
            (kind, _prefix_family(rng, kind, rng.randint(4, 6)))
            for kind in (rng.choice("AC"), rng.choice("AC"))
        ]
        counting._fiber_states.cache_clear()
        order = _interleaved(rng, families, 2)
        for g, a in order:
            assert count(g, a) == _cold_count(g, a), (g, a)
        info = counting._fiber_states.cache_info()
        assert info.hits + info.misses == sum(_takes_fiber_states(g) for g, _ in order)

    def test_partial_backend_shares_the_frontier(self, mixed_no_loop):
        # the partial backend reads negative arrivals at n-1, which a count
        # skips, off the same frontier; mixed_no_loop has some
        h = strip_distinguished(mixed_no_loop)
        assert any(state[0] < 0 for state in _frontier(h, (2, 0, 0, 0), 1))
        cases = [(mixed_no_loop, (2, 0, 0, 0))] + identity_corpus(
            Theorem.TYPE_C_MIXED, 24, seed0=500
        ) + identity_corpus(Theorem.TYPE_A, 12, seed0=500)
        for g, a in cases:
            counting._fiber_states.cache_clear()
            cold = count_via_partial(g, a)
            counting._fiber_states.cache_clear()
            assert count(g, a) == _cold_count(g, a), (g, a)
            assert count_via_partial(g, a) == cold, (g, a)
            info = counting._fiber_states.cache_info()
            assert (info.misses, info.hits) == (1, 1), (g, a)

    def test_the_cache_holds_one_entry(self, k4):
        counting._fiber_states.cache_clear()
        for a in ((3, 1, 0, -4), (1, 2, 3, -6), (3, 1, 0, -4)):
            count(k4, a)
        info = counting._fiber_states.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 1)

    def test_identity_check_runs_the_shared_layers_once(self, monkeypatch):
        g = catalan_graph(8)  # K_9
        h = strip_distinguished(g)
        runs = _spy_on_passes(monkeypatch)
        for a, folded, unfolded in ((catalan_netflow(8), 22, 253), ((1,) * 8 + (-8,), 7, 28)):
            runs.clear()
            counting._fiber_states.cache_clear()
            report = verify_identity_a(g, a)
            info = counting._fiber_states.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            assert report.verdict is True
            # the one pass ran on the head with vertex n folded into n+1:
            # no edge into n, and one state per L
            assert runs == [(False, folded)]
            # the table is G's unfolded frontier after n-2 (the layers of
            # 1..n-2 see only H's edges) mapped to (L, cut): every cut is 0
            table = counting._fiber_states(h, tuple(a))
            unfolded_states = _frontier(g, a, g.n_plus_1 - 3)
            assert _as_dict(table) == _table(unfolded_states, a[-2])
            assert (len(table), len(unfolded_states)) == (folded, unfolded)
            assert report.lhs_count == _cold_count(g, a)
            assert report.rhs_count == _cold_count(delete_edges(g, [(7, 8, "-")]), a)


class TestFold:
    """``_fiber_states`` folds vertex n into n+1 exactly when no state can
    have ``R = Y_n + a_n < 0``: ``a_n >= y`` with a positive head edge into
    n, else ``a_n >= 0``.  On both sides of that line the table, the counts
    and the partial backend's literal aggregates must equal the unfolded
    pass's; the pass itself tells a fold (a head without edges into n, one
    state per L) from none."""

    @staticmethod
    def _check(monkeypatch, g, a, passed, unfolded):
        h = strip_distinguished(g)
        n = g.n
        g_minus = delete_edges(g, [(n - 1, n, "-")])
        states = _frontier(h, a, n - 2)
        assert len(states) == unfolded
        literal = (sum(w * (left + 1) for (left, _, _), w in states.items()),
                   sum(states.values()))
        runs = _spy_on_passes(monkeypatch)
        counting._fiber_states.cache_clear()
        assert count_via_partial(g, a) == literal
        table = counting._fiber_states(h, a)
        assert _as_dict(table) == _table(states, a[n - 1])
        assert runs == [(passed == unfolded, passed)]
        for graph in (g, g_minus):
            assert count(graph, a) == _cold_count(graph, a) == brute_force_count(graph, a)
        return states

    @pytest.mark.parametrize("a,passed,unfolded", [
        ((2, 0, 1, -1), 3, 7),  # a_n = y = 1: folds
        ((2, 0, 0, 0), 7, 7),  # a_n = y - 1, the band: does not fold
        ((4, 0, 3, -3), 5, 19),  # a_n > y = 2
        ((2, 0, 0, -2), 3, 6),  # a_n = y = 0: no positive flow, folds
    ])
    def test_positive_edge_into_n(self, monkeypatch, mixed_no_loop, a, passed, unfolded):
        states = self._check(monkeypatch, mixed_no_loop, a, passed, unfolded)
        # without the fold some state has R < 0 exactly on the band
        assert any(y_n + a[2] < 0 for (_, y_n, _) in states) == (passed == unfolded)

    @pytest.mark.parametrize("a,passed,unfolded", [
        ((4, 0, 2, -2), 5, 19),  # a_n = y = 2, the loop beside: folds
        ((4, 0, 1, -1), 19, 19),  # a_n = y - 1: does not fold
    ])
    def test_positive_edge_into_n_with_a_loop(self, monkeypatch, gc_mixed, a, passed, unfolded):
        self._check(monkeypatch, gc_mixed, a, passed, unfolded)

    @pytest.mark.parametrize("a,passed,unfolded", [
        ((3, 1, 0, -4), 4, 10),  # a_n = 0: folds
        ((3, 1, -1, -3), 10, 10),  # a_n = -1: does not fold
        ((1, -2, 2, -1), 2, 3),  # a negative L folds all the same
    ])
    def test_type_a(self, monkeypatch, k4, a, passed, unfolded):
        self._check(monkeypatch, k4, a, passed, unfolded)

    def test_no_positive_edge_into_n(self, monkeypatch, gc):
        # the loop at 1 is the only positive edge, so Y_n >= 0 and
        # a_n = 0 < y = 1 still folds
        self._check(monkeypatch, gc, (4, 0, 0, -2), 3, 6)


def _pitman_stanley_graph(n, last_mult):
    """Edges (i, i+1) and (i, n+1); (n, n+1) is both, at ``last_mult``."""
    edges = [(i, j, "-", 1) for i in range(1, n) for j in (i + 1, n + 1)]
    return build_graph(n + 1, "A", edges + [(n, n + 1, "-", last_mult)])


def _pitman_stanley(x):
    """Lattice points of {y >= 0 : y_1+..+y_i <= x_1+..+x_i}, by prefix
    sums: ``ways[s]`` counts the y_1..y_i with y_1+..+y_i = s."""
    ways, cap = [1], 0
    for xi in x:
        cap += xi
        acc, nxt = 0, []
        for s in range(cap + 1):
            acc += ways[s] if s < len(ways) else 0
            nxt.append(acc)
        ways = nxt
    return sum(ways)


class TestPitmanStanley:
    """A flow on the Pitman-Stanley graph at netflow (x, -sum x) is the exit
    flows y_i on (i, n+1), one copy of a doubled (n, n+1) taking y_n, with
    y_1+..+y_i <= x_1+..+x_i (Pitman-Stanley, DCG 2002).  With (n, n+1)
    single, y_n is forced and the polytope is that of x_1..x_{n-1}.  The
    doubled graph takes the general DP, the single one the finish off the
    frontier after n-2; the prefix-sum count shares no code with either."""

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_catalan_at_ones(self, n):
        x = (1,) * n
        doubled, single = _pitman_stanley_graph(n, 2), _pitman_stanley_graph(n, 1)
        assert not _takes_fiber_states(doubled) and _takes_fiber_states(single)
        assert count(doubled, x + (-n,)) == _pitman_stanley(x) == math.comb(2 * n + 2, n + 1) // (n + 2)
        assert count(single, x + (-n,)) == _pitman_stanley(x[:-1]) == math.comb(2 * n, n) // (n + 1)

    def test_random_x(self):
        rng = random.Random(1101)
        for _ in range(200):
            n = rng.randint(2, 9)
            x = tuple(rng.randint(0, 3) for _ in range(n))
            a = x + (-sum(x),)
            assert count(_pitman_stanley_graph(n, 2), a) == _pitman_stanley(x), x
            assert count(_pitman_stanley_graph(n, 1), a) == _pitman_stanley(x[:-1]), x


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

    @pytest.mark.parametrize("kind,a", [
        ("A", (10**20, 0, 0, 0)),  # nonzero sum
        ("C", (10**20 + 1, 0, 0, 0)),  # odd sum
        ("C", (10**20, 0, 0, -10**20 - 2)),  # negative sum
    ])
    def test_dp_not_entered(self, monkeypatch, k4, gc, kind, a):
        # ungated, the DP sweeps a supply of 10**20 and runs out of memory
        def no_dp(*args):
            raise AssertionError("DP entered")

        monkeypatch.setattr(counting, "_frontier", no_dp)
        counting._fiber_states.cache_clear()
        g = k4 if kind == "A" else gc
        assert count(g, a) == 0
        assert count_via_partial(g, a) == (0, 0)
        assert count_via_partial(g, a, require_full=True) == (0, 0)

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


def _walk_lines(graph, a):
    """The flows of ``_walk`` and the lines it runs to list them, counted by
    a trace function: a measure of pruning that no clock disturbs."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code is counting._walk.__code__:
            lines += event == "line"
            return tracer

    saved = sys.gettrace()
    sys.settrace(tracer)
    try:
        flows = list(counting._walk(graph, a, graph.n_plus_1))
    finally:
        sys.settrace(saved)
    return flows, lines


class TestSettleRule:
    """Once no later slot lowers a coordinate, its residual must be <= 0,
    and once none raises it, >= 0; the walk prunes there, not at the end."""

    def test_five_vertex_graph_without_flows(self):
        # vertex 4 holds a_4 = 4 and no slot can lower it; before the rule
        # the walk searched this for about 20 s
        g = build_graph(5, "A", [
            (1, 2, "-", 3), (1, 3, "-", 2), (1, 4, "-", 4), (1, 5, "-", 2), (2, 3, "-", 1),
            (2, 4, "-", 2), (2, 5, "-", 3), (3, 4, "-", 4), (3, 5, "-", 4),
        ])
        a = (4, 4, -1, 4, -11)
        assert brute_force_count(g, a) == 0
        assert enumerate_flows(g, a) == []

    @pytest.mark.parametrize("a", [(1, 1, -1), (1, -1, -1)])
    def test_untouched_coordinate_ends_the_walk(self, a):
        # no slot touches vertex 2, so its supply can never reach 0; the
        # walk must return before it yields the flow (1,) of the rest
        g = build_graph(3, "C", [(1, 3, "-", 1)])
        assert list(counting._walk(g, a, 3)) == []

    @pytest.mark.parametrize("first,a", [("+", (9, 9, 9, 0, -9)), ("-", (9, 9, -9, 0, -9))])
    def test_sink_settles_in_both_directions(self, first, a):
        # the slot from 1 lowers (+) or raises (-) sink 3 and the slot from 2
        # moves it back; once the first is set, residual_3 <= 0 (>= 0) must
        # hold, so every branch with b(1,3) < 9 dies there
        then = "-" if first == "+" else "+"
        g = build_graph(5, "C", [(1, 3, first, 1), (1, 5, "-", 5), (2, 3, then, 1),
                                 (2, 5, "-", 5)])
        flows, lines = _walk_lines(g, a)
        assert len(flows) == count(g, a) == math.comb(13, 4)
        assert all(check_flow(g, f, a) for f in flows)
        # about 64 lines a flow; settling sink 3 only at its last slot takes
        # over 370 in either direction
        assert lines < 100 * len(flows)


class TestWeightedBudget:
    """Under ``w_i = n+2-i`` every root weighs at least 1, so the walk keeps
    ``left = w . residual >= 0``; this cuts branches that the supply bound
    and the settle rule keep."""

    G = build_graph(5, "C", [(1, 3, "+", 1), (2, 5, "+", 2), (3, 5, "+", 3),
                             (4, 5, "-", 2), (4, 5, "+", 1)])

    def test_budget_cuts_inside_the_walk(self):
        # w . a = 39; vertex 1 must send its 3 units along (1,3,+), of
        # weight 8 each, and vertex 2's 5 units along (2,5,+) weigh 25 more,
        # so the budget ends every branch at vertex 2; but y = 1 ends them at
        # vertex 1 first (about 120 walk lines, with or without the budget),
        # so the budget's own cut is checked on type A below
        a = (3, 5, 4, 2, -12)
        assert count(self.G, a) == brute_force_count(self.G, a) == 0
        flows, lines = _walk_lines(self.G, a)
        assert flows == [] and lines < 500

    @pytest.mark.parametrize("a", [(0, 0, 0, 0, -1), (0, 0, 0, 1, -3)])
    def test_negative_budget_ends_the_walk_before_set_up(self, a):
        # w . a = -1: the walk returns before its per-slot set-up (7 lines
        # against over 110)
        flows, lines = _walk_lines(self.G, a)
        assert flows == [] and lines < 20

    def test_budget_cuts_a_type_a_walk(self):
        # no positive total to pin: vertex 3 needs 15 units and vertex 2
        # holds 3, so vertex 1 must send all 12 along (1,3); w . residual
        # goes negative once it sends fewer than 9 there, before vertex 2's
        # 56 splits over the copies of (2,3).  About 10,400 walk lines;
        # without either update of the budget, over 21,000
        g = build_graph(5, "A", [(1, 3, "-", 1), (1, 4, "-", 1), (2, 3, "-", 6),
                                 (3, 5, "-", 1), (4, 5, "-", 1)])
        a = (12, 3, -15, 0, 0)
        flows, lines = _walk_lines(g, a)
        assert len(flows) == count(g, a) == math.comb(8, 5)
        assert lines < 15000


class TestPositiveTotal:
    """Every type C flow carries ``y = sum(a)/2`` on positive slots, so the
    walk cuts a branch as soon as it has placed more."""

    def test_zero_total_without_flows(self):
        # y = 0: no positive slot may take a unit; about 140 walk lines,
        # where a walk that places positive flow first runs 979
        g = build_graph(4, "C", [(1, 3, "+", 2), (1, 4, "+", 1), (2, 3, "-", 2),
                                 (3, 4, "-", 1)])
        a = (1, 3, 2, -6)
        flows, lines = _walk_lines(g, a)
        assert flows == [] and lines < 400

    def test_flows_with_loops_and_positive_edges(self):
        # y = 0 with 4 flows: about 1,460 walk lines, against 3,320 unpinned
        g = build_graph(4, "C", [
            (1, 2, "-", 1), (1, 2, "+", 1), (1, 4, "-", 1), (1, 4, "+", 2), (2, 3, "+", 1),
            (2, 4, "-", 1), (3, 4, "-", 1), (4, 4, "+", 2),
        ])
        a = (3, 1, 2, -6)
        flows, lines = _walk_lines(g, a)
        assert len(flows) == count(g, a) == 4
        assert all(check_flow(g, f, a) for f in flows)
        assert lines < 2000


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
            # three copies ahead of the close: three running sums
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
