"""Verification of the divisibility identities on concrete instances.

For a graph satisfying the structural hypothesis with ratio constant c, the
flow count on G factors over the count on G - (n-1, n):

* type A:   K_G(a) = (S/c + a_{n-1} + 1) K_{G-(n-1,n)}(a),  S = a_1+..+a_{n-2}
* type C:   K_G(a) = ((S-2y)/c + a_{n-1} + 1) K_{G-(n-1,n)}(a)

The multiplier can be a non-integral rational while both counts stay
integral, so every verdict is evaluated in cross-multiplied integer form:
with c = p/q in lowest terms,

    p * lhs == (q * T + p * (a_{n-1} + 1)) * rhs,

T being S (type A) or S - 2y (type C).  No division ever happens.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import InfeasibleParams
from .counting import _check_netflow, count
from .graphs import (
    NEG,
    POS,
    BVCondition,
    GraphKind,
    SignedMultigraph,
    Theorem,
    build_graph,
    bv_hypothesis,
    delete_edges,
    is_connected,
    netflow_y,
)

Counter = Callable[[SignedMultigraph, Sequence[int]], int]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    ``verdict`` is meaningful only when ``skipped`` is false.  ``multiplier``
    is the exact rational relating the two counts.  ``notes`` carries
    advisories (e.g. negative supplies) that do not affect the verdict.
    """

    theorem: Theorem
    hypothesis: BVCondition
    skipped: bool
    reason: str | None
    y: int | None
    lhs_count: int | None
    rhs_count: int | None
    multiplier: Fraction | None
    verdict: bool | None
    notes: tuple[str, ...] = ()

    @property
    def multiplier_num(self) -> int | None:
        return None if self.multiplier is None else self.multiplier.numerator

    @property
    def multiplier_den(self) -> int | None:
        return None if self.multiplier is None else self.multiplier.denominator


def _skip(
    theorem: Theorem,
    hypothesis: BVCondition,
    reason: str,
    y: int | None,
    notes: tuple[str, ...],
) -> IdentityReport:
    return IdentityReport(
        theorem=theorem,
        hypothesis=hypothesis,
        skipped=True,
        reason=reason,
        y=y,
        lhs_count=None,
        rhs_count=None,
        multiplier=None,
        verdict=None,
        notes=notes,
    )


def _supply_notes(a: Sequence[int]) -> tuple[str, ...]:
    if any(x < 0 for x in a[:-1]):
        return ("supplies a_1..a_n contain negative entries",)
    return ()


def _cross_check(
    graph: SignedMultigraph,
    a: Sequence[int],
    cond: BVCondition,
    shifted_sum: int,
    counter: Counter,
) -> tuple[int, int, Fraction, bool]:
    n = graph.n
    lhs = counter(graph, a)
    rhs = counter(delete_edges(graph, [(n - 1, n, NEG)]), a)
    if cond.c is not None:
        p, q = cond.c.numerator, cond.c.denominator
    else:
        p, q = 1, 0
    mult_num = q * shifted_sum + p * (a[n - 2] + 1)
    verdict = p * lhs == mult_num * rhs
    return lhs, rhs, Fraction(mult_num, p), verdict


def verify_identity_a(
    graph: SignedMultigraph, a: Sequence[int], counter: Counter = count
) -> IdentityReport:
    """Check the type A identity on one instance; never raises on failure
    modes, which are reported in the result instead."""
    _check_netflow(graph, a)
    cond = bv_hypothesis(graph, Theorem.TYPE_A)
    notes = _supply_notes(a)
    if not cond.satisfied:
        return _skip(
            Theorem.TYPE_A,
            cond,
            "hypothesis not satisfied: " + "; ".join(cond.failures),
            None,
            notes,
        )
    s = sum(a[: graph.n - 2])
    lhs, rhs, multiplier, verdict = _cross_check(graph, a, cond, s, counter)
    return IdentityReport(
        theorem=Theorem.TYPE_A,
        hypothesis=cond,
        skipped=False,
        reason=None,
        y=None,
        lhs_count=lhs,
        rhs_count=rhs,
        multiplier=multiplier,
        verdict=verdict,
        notes=notes,
    )


def verify_identity_c(
    graph: SignedMultigraph,
    a: Sequence[int],
    theorem: Theorem,
    counter: Counter = count,
) -> IdentityReport:
    """Check a type C identity variant on one instance.

    Skips on odd or negative coordinate sum, on hypothesis failure, and (for
    the mixed-sign variant) when ``y > min(a_{n-1}+1, a_n+1)``.
    """
    theorem = Theorem(theorem)
    if theorem is Theorem.TYPE_A:
        raise ValueError("use verify_identity_a for the type A identity")
    _check_netflow(graph, a)
    cond = bv_hypothesis(graph, theorem)
    notes = _supply_notes(a)
    y = netflow_y(a)
    if y is None:
        return _skip(theorem, cond, "coordinate sum is odd", None, notes)
    if y < 0:
        return _skip(theorem, cond, "coordinate sum is negative", y, notes)
    if not cond.satisfied:
        return _skip(
            theorem,
            cond,
            "hypothesis not satisfied: " + "; ".join(cond.failures),
            y,
            notes,
        )
    n = graph.n
    if theorem is Theorem.TYPE_C_MIXED:
        bound = min(a[n - 2] + 1, a[n - 1] + 1)
        if y > bound:
            return _skip(
                theorem, cond, f"y={y} exceeds min(a_n-1+1, a_n+1)={bound}", y, notes
            )
    t = sum(a[: n - 2]) - 2 * y
    lhs, rhs, multiplier, verdict = _cross_check(graph, a, cond, t, counter)
    return IdentityReport(
        theorem=theorem,
        hypothesis=cond,
        skipped=False,
        reason=None,
        y=y,
        lhs_count=lhs,
        rhs_count=rhs,
        multiplier=multiplier,
        verdict=verdict,
        notes=notes,
    )


def report_json_dict(report: IdentityReport) -> dict:
    """Stable-order JSON form of a report; big counts become decimal strings."""
    if report.hypothesis.satisfied:
        c = report.hypothesis.c
        c_json: object = (
            "unconstrained" if c is None else {"num": c.numerator, "den": c.denominator}
        )
    else:
        c_json = None
    return {
        "theorem": report.theorem.value,
        "satisfied": report.hypothesis.satisfied,
        "skipped": report.skipped,
        "reason": report.reason,
        "c": c_json,
        "y": report.y,
        "lhs": None if report.lhs_count is None else str(report.lhs_count),
        "rhs": None if report.rhs_count is None else str(report.rhs_count),
        "multiplier": (
            None
            if report.multiplier is None
            else {"num": report.multiplier_num, "den": report.multiplier_den}
        ),
        "verdict": report.verdict,
    }


def _ratio_candidates(max_mult: int) -> list[tuple[int, int]]:
    """Exact ratios p/q >= 1 realizable as a row within max_mult: the anchor
    multiplicity q*t must fit, and the remaining mass t*(p-q) must split over
    two entries."""
    out = []
    for q in range(1, max_mult + 1):
        for p in range(q, 3 * max_mult + 1):
            if gcd(p, q) == 1 and p - q <= 2 * max_mult:
                out.append((p, q))
    return out


def generate_bv_family(
    n_plus_1: int,
    kind: GraphKind | str,
    theorem: Theorem,
    max_mult: int,
    seed: int,
) -> SignedMultigraph:
    """Deterministically sample a connected graph satisfying the hypothesis.

    A ratio c = p/q is drawn first; each row toward the last three vertices
    is then either left empty or solved to have exactly that ratio, with all
    multiplicities at most ``max_mult``.  Extra edges (and, on type C, loops
    and positive edges where the variant permits) are sprinkled among the
    first n-2 vertices.  Resamples until connected, with a deterministic
    all-rows-nonzero fallback.
    """
    kind = GraphKind(kind)
    theorem = Theorem(theorem)
    expected = GraphKind.TYPE_A if theorem is Theorem.TYPE_A else GraphKind.TYPE_C
    if kind is not expected:
        raise ValueError(f"kind {kind.value} does not match theorem {theorem.value}")
    if n_plus_1 < 3:
        raise InfeasibleParams("need at least 3 vertices")
    if max_mult < 1:
        raise InfeasibleParams("max_mult must be at least 1")

    rng = random.Random(seed)
    n = n_plus_1 - 1
    top = (n - 1, n, n + 1)
    candidates = _ratio_candidates(max_mult)
    p, q = candidates[rng.randrange(len(candidates))]
    signs = (NEG, POS) if theorem is Theorem.TYPE_C_MIXED else (NEG,)
    internal_pairs = list(combinations(range(1, n - 1), 2))

    def add(edges: dict, i: int, j: int, sign: str, m: int) -> None:
        if m:
            edges[(i, j, sign)] = edges.get((i, j, sign), 0) + m

    def add_row(edges: dict, j: int, sign: str) -> None:
        t_max = max_mult // q
        if p > q:
            t_max = min(t_max, (2 * max_mult) // (p - q))
        t = rng.randint(1, t_max)
        total = t * (p - q)
        m2 = rng.randint(max(0, total - max_mult), min(max_mult, total))
        add(edges, j, top[0], sign, q * t)
        add(edges, j, top[1], sign, m2)
        add(edges, j, top[2], sign, total - m2)

    def assemble(edges: dict) -> SignedMultigraph:
        return build_graph(
            n_plus_1, kind, [(i, j, s, m) for (i, j, s), m in edges.items()]
        )

    for _attempt in range(100):
        edges: dict[tuple[int, int, str], int] = {}
        for u, v in ((top[0], top[1]), (top[0], top[2]), (top[1], top[2])):
            add(edges, u, v, NEG, 1)
        for j in range(1, n - 1):
            for sign in signs:
                if rng.random() < 0.75:
                    add_row(edges, j, sign)
        for i, j in internal_pairs:
            if rng.random() < 0.3:
                add(edges, i, j, NEG, rng.randint(1, max_mult))
        if kind is GraphKind.TYPE_C:
            for i, j in internal_pairs:
                if rng.random() < 0.2:
                    add(edges, i, j, POS, rng.randint(1, max_mult))
            for i in range(1, n - 1):
                if rng.random() < 0.2:
                    add(edges, i, i, POS, rng.randint(1, max_mult))
        graph = assemble(edges)
        if is_connected(graph) and bv_hypothesis(graph, theorem).satisfied:
            return graph

    # fallback: every row nonzero ties each early vertex to the top triangle
    edges = {}
    for u, v in ((top[0], top[1]), (top[0], top[2]), (top[1], top[2])):
        add(edges, u, v, NEG, 1)
    half = (p - q) // 2
    for j in range(1, n - 1):
        add(edges, j, top[0], NEG, q)
        add(edges, j, top[1], NEG, half)
        add(edges, j, top[2], NEG, (p - q) - half)
    graph = assemble(edges)
    cond = bv_hypothesis(graph, theorem)
    if not cond.satisfied:  # pragma: no cover - construction guarantees this
        raise RuntimeError("generator fallback violated its own hypothesis")
    return graph
