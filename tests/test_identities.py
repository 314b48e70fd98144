import itertools
import random
from fractions import Fraction

import pytest

from kpflows import (
    DimensionMismatch,
    GraphKind,
    InfeasibleParams,
    Theorem,
    brute_force_count,
    build_graph,
    bv_hypothesis,
    complete_type_a,
    count_via_partial,
    generate_bv_family,
    report_json_dict,
    verify_identity_a,
    verify_identity_c,
)
from kpflows import identities

from families import identity_corpus


class TestVerifyTypeA:
    def test_k4_regression(self, k4):
        rep = verify_identity_a(k4, (3, 1, 0, -4))
        assert not rep.skipped
        assert rep.hypothesis.c == 3
        assert (rep.lhs_count, rep.rhs_count) == (30, 10)
        assert rep.multiplier == 3
        assert rep.verdict is True

    def test_netflow_validated_before_hypothesis(self, k4, gc):
        with pytest.raises(DimensionMismatch):
            verify_identity_a(k4, (3, 1, 0))
        with pytest.raises(DimensionMismatch):
            verify_identity_a(k4, (3, True, 0, -4))
        with pytest.raises(DimensionMismatch):
            verify_identity_c(gc, (4, 0, 0, False), Theorem.TYPE_C_NEGATIVE)

    def test_triangle_unconstrained(self, g3):
        rep = verify_identity_a(g3, (2, 3, -5))
        assert rep.hypothesis.unconstrained
        assert (rep.lhs_count, rep.rhs_count) == (3, 1)
        assert rep.multiplier == 3
        assert rep.verdict is True

    def test_skipped_on_fat_distinguished_edge(self, k4):
        g = build_graph(4, "A", [(i, j, s, m) for i, j, s, m in k4.edges] + [(2, 3, "-", 1)])
        rep = verify_identity_a(g, (3, 1, 0, -4))
        assert rep.skipped and rep.verdict is None
        assert "(2,3,-)" in rep.reason
        assert rep.lhs_count is None and rep.rhs_count is None

    def test_nonzero_sum_is_trivially_consistent(self, k4):
        rep = verify_identity_a(k4, (1, 1, 1, 1))
        assert not rep.skipped
        assert rep.lhs_count == rep.rhs_count == 0
        assert rep.verdict is True

    def test_zero_rhs_forces_zero_lhs(self, k4):
        rep = verify_identity_a(k4, (1, -2, 1, 0))
        assert rep.rhs_count == 0 and rep.lhs_count == 0
        assert rep.verdict is True
        assert rep.notes  # negative supplies are annotated

    def test_negative_supplies_annotated(self, k4):
        rep = verify_identity_a(k4, (2, -1, 0, -1))
        assert any("negative" in note for note in rep.notes)

    def test_doubled_edge_gives_c_two(self, k4):
        g = build_graph(4, "A", [(i, j, s, m) for i, j, s, m in k4.edges] + [(1, 2, "-", 1)])
        rep = verify_identity_a(g, (3, 1, 0, -4), counter=brute_force_count)
        assert rep.hypothesis.c == 2
        assert rep.multiplier == Fraction(7, 2)
        assert rep.verdict is True

    def test_family_never_violates(self):
        for g, a in identity_corpus(Theorem.TYPE_A, 40, seed0=100):
            rep = verify_identity_a(g, a)
            assert rep.skipped or rep.verdict, (g, a, rep)

    def test_identity_on_a_whole_chamber(self):
        """The identity at every netflow with ``a_1..a_n >= 0``, from a grid.

        When every vertex 1..n has an out-edge, the Lidskii form of
        Baldoni and Vergne writes ``K_G`` on that chamber as a polynomial of
        total degree at most ``m - n`` (m edge copies), and ``K_{G-e}``, with
        one copy fewer, as one of degree at most ``m - n - 1``.  So the
        identity's cross-multiplied difference, whose factor beside
        ``K_{G-e}`` is linear in a, has total degree at most ``d = m - n``.
        Such a polynomial that vanishes on the grid ``{a_1..a_n >= 0,
        a_1 + ... + a_n <= d}`` is zero (Chung and Yao, SIAM J. Numer. Anal.
        1977), so the verdicts below settle the whole chamber."""
        graphs = points = 0
        for n_plus_1 in (4, 5):
            for seed in range(12):
                g = generate_bv_family(n_plus_1, Theorem.TYPE_A, 2, seed)
                n = g.n
                if {i for i, _, _, _ in g.edges} != set(range(1, n + 1)):
                    continue
                graphs += 1
                d = g.num_edges - n
                for head in itertools.product(range(d + 1), repeat=n):
                    if sum(head) <= d:
                        a = head + (-sum(head),)
                        rep = verify_identity_a(g, a)
                        assert not rep.skipped and rep.verdict is True, (g, a, rep)
                        points += 1
        assert (graphs, points) == (23, 4603)

    def test_deterministic_and_order_independent(self, k4):
        r1 = verify_identity_a(k4, (3, 1, 0, -4))
        shuffled = build_graph(4, "A", list(reversed([e for e in k4.edges])))
        r2 = verify_identity_a(shuffled, (3, 1, 0, -4))
        assert r1 == r2 and hash(r1) == hash(r2)
        assert repr(r1).startswith(
            "IdentityReport(theorem=<Theorem.TYPE_A: 'a'>, hypothesis=BVCondition("
            "theorem=<Theorem.TYPE_A: 'a'>, satisfied=True, c=Fraction(3, 1), "
            "failures=()), skipped=False, reason=None, y=None, lhs_count=30, "
        )
        with pytest.raises(AttributeError):
            r1.verdict = False
        with pytest.raises(AttributeError):
            r1.hypothesis.c = None


class TestVerifyTypeC:
    def test_gc_regression(self, gc):
        rep = verify_identity_c(gc, (4, 0, 0, -2), Theorem.TYPE_C_NEGATIVE)
        assert not rep.skipped
        assert rep.y == 1
        assert rep.hypothesis.c == 3
        assert (rep.lhs_count, rep.rhs_count) == (10, 6)
        assert rep.multiplier == Fraction(5, 3)  # non-integral, identity still exact
        assert rep.verdict is True

    def test_odd_sum_skipped(self, gc):
        rep = verify_identity_c(gc, (4, 0, 0, -1), Theorem.TYPE_C_NEGATIVE)
        assert rep.skipped and rep.reason == "coordinate sum is odd"
        assert rep.y is None

    def test_negative_sum_skipped(self, gc):
        rep = verify_identity_c(gc, (0, 0, 0, -2), Theorem.TYPE_C_NEGATIVE)
        assert rep.skipped and rep.reason == "coordinate sum is negative"
        assert rep.y == -1

    def test_mixed_example(self, gc_mixed):
        a = (2, 2, 2, -4)
        rep = verify_identity_c(gc_mixed, a, Theorem.TYPE_C_MIXED)
        assert not rep.skipped and rep.y == 1
        assert rep.hypothesis.c == 3
        assert rep.verdict is True
        # pin both sides against the exhaustive oracle
        assert rep.lhs_count == brute_force_count(gc_mixed, a)
        reduced = build_graph(
            4, "C",
            [(i, j, s, m if (i, j, s) != (2, 3, "-") else m - 1)
             for i, j, s, m in gc_mixed.edges],
        )
        assert rep.rhs_count == brute_force_count(reduced, a)

    def test_mixed_y_constraint_skips(self, gc_mixed):
        # y = 3 exceeds min(a_2+1, a_3+1) = 2
        a = (1, 1, 1, 3)
        rep = verify_identity_c(gc_mixed, a, Theorem.TYPE_C_MIXED)
        assert rep.skipped and "exceeds" in rep.reason

    def test_theorem_argument_validated(self, gc):
        with pytest.raises(ValueError):
            verify_identity_c(gc, (4, 0, 0, -2), Theorem.TYPE_A)

    def test_family_never_violates_all_negative(self):
        for g, a in identity_corpus(Theorem.TYPE_C_NEGATIVE, 40, seed0=200):
            rep = verify_identity_c(g, a, Theorem.TYPE_C_NEGATIVE)
            assert rep.skipped or rep.verdict, (g, a, rep)

    def test_mixed_family_sound_region(self):
        # within y <= min(a_{n-1}, a_n) every extension stays nonnegative and
        # the identity is exact; see the boundary tests for the +1 band
        rng = random.Random(4242)
        checked = 0
        for seed in range(30):
            g = generate_bv_family(4, Theorem.TYPE_C_MIXED, 2, seed)
            n = g.n
            for _ in range(4):
                head = [rng.randint(0, 3) for _ in range(n)]
                y = rng.randint(0, min(head[n - 2], head[n - 1]))
                a = tuple(head) + (2 * y - sum(head),)
                rep = verify_identity_c(g, a, Theorem.TYPE_C_MIXED)
                if not rep.skipped:
                    checked += 1
                    assert rep.verdict, (g, a, rep)
        assert checked >= 60


class TestMixedBoundary:
    """The mixed-sign identity, read with the stated netflow bound
    y <= min(a_{n-1}+1, a_n+1), fails at the boundary: when the positive leak
    total exhausts the supply at vertex n-1 or n plus one, some partial flows
    stop extending and the two sides drift apart.  The smallest witness is
    pinned here so the behavior stays observable."""

    def test_boundary_counterexample(self, mixed_no_loop):
        a = (2, 0, 0, 0)  # y = 1 = a_2 + 1 = a_3 + 1
        rep = verify_identity_c(mixed_no_loop, a, Theorem.TYPE_C_MIXED)
        assert not rep.skipped  # the stated bound lets it through
        assert rep.multiplier == 1
        assert (rep.lhs_count, rep.rhs_count) == (7, 5)
        assert rep.verdict is False
        # both sides confirmed by the exhaustive oracle
        rep2 = verify_identity_c(
            mixed_no_loop, a, Theorem.TYPE_C_MIXED, counter=brute_force_count
        )
        assert (rep2.lhs_count, rep2.rhs_count) == (7, 5)
        # the literal fibration aggregates satisfy the identity (9 = 1 * 9);
        # the defects 2 and 4 are the fiber members and partial flows that
        # would need a negative value on (3,4) or (2,4)
        assert count_via_partial(mixed_no_loop, a) == (9, 9)

    def test_identity_restored_inside_the_bound(self, mixed_no_loop):
        # same graph, netflows with y <= min(a_2, a_3): exact again
        for a in ((2, 2, 2, -4), (2, 2, 2, -2), (0, 3, 3, 0), (4, 2, 2, -4)):
            y = sum(a) // 2
            assert y <= min(a[1], a[2])
            rep = verify_identity_c(mixed_no_loop, a, Theorem.TYPE_C_MIXED)
            assert not rep.skipped and rep.verdict is True, (a, rep)


class TestGenerator:
    def test_deterministic(self):
        g1 = generate_bv_family(5, Theorem.TYPE_A, 3, 7)
        g2 = generate_bv_family(5, Theorem.TYPE_A, 3, 7)
        assert g1 == g2

    @pytest.mark.parametrize("theorem,kind", [
        (Theorem.TYPE_A, "A"),
        (Theorem.TYPE_C_NEGATIVE, "C"),
        (Theorem.TYPE_C_MIXED, "C"),
    ])
    def test_outputs_satisfy_hypothesis(self, theorem, kind):
        for seed in range(25):
            for n_plus_1 in (3, 4, 5):
                g = generate_bv_family(n_plus_1, theorem, 2, seed)
                assert g.kind is GraphKind(kind)
                assert bv_hypothesis(g, theorem).satisfied

    def test_all_negative_variant_keeps_top_clean(self):
        for seed in range(15):
            g = generate_bv_family(4, Theorem.TYPE_C_NEGATIVE, 2, seed)
            top = (2, 3, 4)
            for i, j, s, _m in g.edges:
                assert not (s == "+" and (i in top or j in top))

    def test_k4_reachable_at_unit_multiplicity(self):
        k4 = complete_type_a(4)
        hits = [
            seed
            for seed in range(60)
            if generate_bv_family(4, Theorem.TYPE_A, 1, seed) == k4
        ]
        assert hits, "K4 should appear among unit-multiplicity outputs"

    def test_exhaustion_raises_after_100_draws(self, monkeypatch):
        draws = []

        def never(graph, theorem):
            draws.append(graph)
            return bv_hypothesis(graph, theorem)._replace(satisfied=False), None

        monkeypatch.setattr(identities, "_hypothesis", never)
        with pytest.raises(InfeasibleParams, match="100 draws"):
            generate_bv_family(5, Theorem.TYPE_C_MIXED, 2, 0)
        assert len(draws) == 100

    def test_infeasible_params(self):
        with pytest.raises(InfeasibleParams):
            generate_bv_family(2, Theorem.TYPE_A, 1, 0)
        with pytest.raises(InfeasibleParams):
            generate_bv_family(4, Theorem.TYPE_A, 0, 0)


NEG_NOTE = ("supplies a_1..a_n contain negative entries",)
C3 = {"num": 3, "den": 1}


@pytest.fixture
def fat_k4(k4):
    """k4 with a second copy of the distinguished edge (2,3)."""
    return build_graph(4, "A", [(i, j, s, m) for i, j, s, m in k4.edges] + [(2, 3, "-", 1)])


@pytest.fixture
def fat_gc_mixed(gc_mixed):
    """gc_mixed with a second copy of the distinguished edge (2,3)."""
    return build_graph(4, "C", [(i, j, s, m) for i, j, s, m in gc_mixed.edges] + [(2, 3, "-", 1)])


@pytest.fixture
def g3_c():
    """The negative triangle as a type C graph."""
    return build_graph(3, "C", [(1, 2, "-", 1), (1, 3, "-", 1), (2, 3, "-", 1)])


def _json(theorem, satisfied, skipped, reason, c, y, lhs=None, rhs=None, mult=None,
          verdict=None):
    return {
        "theorem": theorem, "satisfied": satisfied, "skipped": skipped, "reason": reason,
        "c": c, "y": y, "lhs": lhs, "rhs": rhs,
        "multiplier": None if mult is None else {"num": mult[0], "den": mult[1]},
        "verdict": verdict,
    }


# (graph fixture, theorem, netflow, full report_json_dict, notes): one row per
# path through the verifier; where two skip reasons apply, the first in the
# order odd sum, negative sum, hypothesis, mixed-sign bound must win.
VERIFIER_PATHS = [
    ("fat_k4", "a", (3, 1, 0, -4),
     _json("a", False, True, "hypothesis not satisfied: multiplicity of (2,3,-) is 2, "
           "expected 1", None, None), ()),
    ("k4", "a", (3, 1, 0, -4), _json("a", True, False, None, C3, None, "30", "10", (3, 1),
                                     True), ()),
    ("k4", "a", (1, 1, 1, 1), _json("a", True, False, None, C3, None, "0", "0", (7, 3),
                                    True), ()),
    ("k4", "a", (1, -2, 1, 0), _json("a", True, False, None, C3, None, "0", "0", (-2, 3),
                                     True), NEG_NOTE),
    ("gc", "c31", (4, 0, 0, -1), _json("c31", True, True, "coordinate sum is odd", C3, None),
     ()),
    ("gc", "c31", (0, 0, 0, -2),
     _json("c31", True, True, "coordinate sum is negative", C3, -1), ()),
    ("gc_mixed", "c31", (2, 2, 2, -4),
     _json("c31", False, True, "hypothesis not satisfied: "
           "positive edge (1,2) touches one of vertices (2, 3, 4); "
           "positive edge (1,3) touches one of vertices (2, 3, 4); "
           "positive edge (1,4) touches one of vertices (2, 3, 4)", None, 1), ()),
    ("gc_mixed", "c31", (1, 0, 0, 0),
     _json("c31", False, True, "coordinate sum is odd", None, None), ()),
    ("gc_mixed", "c31", (0, 0, 0, -2),
     _json("c31", False, True, "coordinate sum is negative", None, -1), ()),
    ("fat_gc_mixed", "c32", (1, 1, 1, 3),
     _json("c32", False, True, "hypothesis not satisfied: multiplicity of (2,3,-) is 2, "
           "expected 1", None, 3), ()),
    ("gc_mixed", "c32", (1, 1, 1, 3),
     _json("c32", True, True, "y=3 exceeds min(a_n-1+1, a_n+1)=2", C3, 3), ()),
    ("gc_mixed", "c32", (2, -1, 2, -1),
     _json("c32", True, True, "y=1 exceeds min(a_n-1+1, a_n+1)=0", C3, 1), NEG_NOTE),
    ("mixed_no_loop", "c32", (2, 0, 0, 0),
     _json("c32", True, False, None, C3, 1, "7", "5", (1, 1), False), ()),
    ("gc", "c31", (4, 0, 0, -2), _json("c31", True, False, None, C3, 1, "10", "6", (5, 3),
                                       True), ()),
    # a_n alone negative is annotated too
    ("k4", "a", (3, 1, -1, -3), _json("a", True, False, None, C3, None, "26", "6", (3, 1),
                                      False), NEG_NOTE),
    # the mixed bound is min(a_{n-1}+1, a_n+1) with a_n the smaller one
    ("gc_mixed", "c32", (1, 3, 0, 0),
     _json("c32", True, True, "y=2 exceeds min(a_n-1+1, a_n+1)=1", C3, 2), ()),
    # no ratio constrains a three-vertex graph: the multiplier is a_{n-1}+1,
    # y does not enter
    ("g3_c", "c31", (2, 0, 0),
     _json("c31", True, False, None, "unconstrained", 1, "0", "0", (3, 1), True), ()),
]


def _report(graph, theorem, a):
    theorem = Theorem(theorem)
    if theorem is Theorem.TYPE_A:
        return verify_identity_a(graph, a)
    return verify_identity_c(graph, a, theorem)


@pytest.mark.parametrize("fixture,theorem,a,expected,notes", VERIFIER_PATHS)
def test_every_verifier_path_exactly(request, fixture, theorem, a, expected, notes):
    rep = _report(request.getfixturevalue(fixture), theorem, a)
    assert report_json_dict(rep) == expected
    assert rep.notes == notes


def test_hypothesis_read_per_graph_and_theorem(gc_mixed):
    # gc_mixed fails the all-negative hypothesis (a positive edge touches the
    # top) and satisfies the mixed one; the same graph under both theorems
    # must never share a hypothesis reading
    a = (2, 2, 2, -4)
    fresh = build_graph(4, "C", list(reversed(gc_mixed.edges)))
    for theorem, skipped in (("c31", True), ("c32", False), ("c31", True)):
        rep = _report(gc_mixed, theorem, a)
        assert rep.skipped is skipped
        assert rep == _report(fresh, theorem, a)


class TestReportJson:
    def test_schema_fields_and_order(self, k4):
        d = report_json_dict(verify_identity_a(k4, (3, 1, 0, -4)))
        assert list(d) == [
            "theorem", "satisfied", "skipped", "reason", "c", "y",
            "lhs", "rhs", "multiplier", "verdict",
        ]
        assert d["theorem"] == "a"
        assert d["c"] == {"num": 3, "den": 1}
        assert d["lhs"] == "30" and d["rhs"] == "10"  # decimal strings
        assert d["multiplier"] == {"num": 3, "den": 1}
        assert d["verdict"] is True

    def test_unconstrained_marker(self, g3):
        d = report_json_dict(verify_identity_a(g3, (2, 3, -5)))
        assert d["c"] == "unconstrained"

    def test_skipped_report(self, gc):
        d = report_json_dict(verify_identity_c(gc, (4, 0, 0, -1), Theorem.TYPE_C_NEGATIVE))
        assert d["skipped"] is True
        assert d["lhs"] is None and d["rhs"] is None and d["verdict"] is None

    def test_fractional_multiplier(self, gc):
        d = report_json_dict(verify_identity_c(gc, (4, 0, 0, -2), Theorem.TYPE_C_NEGATIVE))
        assert d["multiplier"] == {"num": 5, "den": 3}
        assert d["y"] == 1
