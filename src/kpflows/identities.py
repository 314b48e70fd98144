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

Both variants run one verification path, ``_verify``, the only place where
the two counts are taken.  The hypothesis and G - (n-1, n) are read once
per graph and theorem (``_hypothesis``), so the netflows of a campaign share
them with the generator's own check.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

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
    distinguished_edges,
    netflow_y,
)

if TYPE_CHECKING:  # fractions loads decimal; only two functions build a Fraction
    from fractions import Fraction

Counter = Callable[[SignedMultigraph, Sequence[int]], int]


class IdentityReport(NamedTuple):
    """Outcome of one identity check.

    ``verdict`` is meaningful only when ``skipped`` is false.  ``multiplier``
    is the exact rational relating the two counts.  ``notes`` carries
    advisories (e.g. negative supplies) that do not affect the verdict.
    """

    theorem: Theorem
    hypothesis: BVCondition
    skipped: bool
    reason: str | None = None
    y: int | None = None
    lhs_count: int | None = None
    rhs_count: int | None = None
    multiplier: Fraction | None = None
    verdict: bool | None = None
    notes: tuple[str, ...] = ()


@lru_cache(maxsize=16)
def _hypothesis(
    graph: SignedMultigraph, theorem: Theorem
) -> tuple[BVCondition, SignedMultigraph | None]:
    """The hypothesis and, where it holds, G - (n-1, n); once per graph and
    theorem, since a campaign checks several netflows on each graph.  Where
    it fails, (n-1, n) may be missing and G - (n-1, n) is not built."""
    cond = bv_hypothesis(graph, theorem)
    if not cond.satisfied:
        return cond, None
    return cond, delete_edges(graph, distinguished_edges(graph.n)[:1])


def _verify(
    graph: SignedMultigraph, a: Sequence[int], theorem: Theorem, counter: Counter
) -> IdentityReport:
    """The one verification path behind :func:`verify_identity_a` and
    :func:`verify_identity_c`.  The first skip reason wins: odd, then
    negative coordinate sum (type C only), hypothesis failure, then the
    mixed-sign bound on y."""
    _check_netflow(graph, a)
    n = graph.n
    notes = ()
    if any(x < 0 for x in a[:-1]):
        notes = ("supplies a_1..a_n contain negative entries",)
    type_c = theorem is not Theorem.TYPE_A
    y = netflow_y(a) if type_c else None
    cond, reduced = _hypothesis(graph, theorem)
    reason = None
    if type_c and y is None:
        reason = "coordinate sum is odd"
    elif type_c and y < 0:
        reason = "coordinate sum is negative"
    elif not cond.satisfied:
        reason = "hypothesis not satisfied: " + "; ".join(cond.failures)
    elif theorem is Theorem.TYPE_C_MIXED:
        bound = min(a[n - 2] + 1, a[n - 1] + 1)
        if y > bound:
            reason = f"y={y} exceeds min(a_n-1+1, a_n+1)={bound}"
    if reason is not None:
        return IdentityReport(theorem, cond, skipped=True, reason=reason, y=y, notes=notes)
    from fractions import Fraction

    t = sum(a[: n - 2]) - (2 * y if type_c else 0)
    lhs, rhs = counter(graph, a), counter(reduced, a)
    p, q = (1, 0) if cond.c is None else (cond.c.numerator, cond.c.denominator)
    mult_num = q * t + p * (a[n - 2] + 1)
    return IdentityReport(
        theorem,
        cond,
        skipped=False,
        y=y,
        lhs_count=lhs,
        rhs_count=rhs,
        multiplier=Fraction(mult_num, p),
        verdict=p * lhs == mult_num * rhs,
        notes=notes,
    )


def verify_identity_a(
    graph: SignedMultigraph, a: Sequence[int], counter: Counter = count
) -> IdentityReport:
    """Check the type A identity on one instance.

    A malformed netflow (wrong length, a non-integer or boolean entry)
    raises :class:`DimensionMismatch` and a graph on fewer than 3 vertices
    :class:`HypothesisUnmet`; an unmet hypothesis is reported in the result.
    """
    return _verify(graph, a, Theorem.TYPE_A, counter)


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
    return _verify(graph, a, theorem, counter)


def report_json_dict(report: IdentityReport) -> dict:
    """Stable-order JSON form of a report; big counts become decimal strings.

    The report and its hypothesis are unpacked once: a campaign serializes
    hundreds of reports, and each ``NamedTuple`` field read is a descriptor
    call where a tuple unpack is one step."""
    theorem, hypothesis, skipped, reason, y, lhs, rhs, multiplier, verdict, _ = report
    _, satisfied, c, _ = hypothesis
    if not satisfied:
        c_json: object = None
    elif c is None:
        c_json = "unconstrained"
    else:
        c_json = {"num": c.numerator, "den": c.denominator}
    return {
        "theorem": theorem.value,
        "satisfied": satisfied,
        "skipped": skipped,
        "reason": reason,
        "c": c_json,
        "y": y,
        "lhs": None if lhs is None else str(lhs),
        "rhs": None if rhs is None else str(rhs),
        "multiplier": (
            None
            if multiplier is None
            else {"num": multiplier.numerator, "den": multiplier.denominator}
        ),
        "verdict": verdict,
    }


_MAX_MULT = 1000  # _ratio_candidates(1000) lists 1,216,678 ratios, over 100 MB
_MAX_N_PLUS_1 = 100  # about 0.2 s and 20 MB; the hypothesis check grows about as n**3


def _ratio_candidates(max_mult: int) -> list[tuple[int, int]]:
    """Exact ratios p/q >= 1 realizable as a row within max_mult: the anchor
    multiplicity q*t must fit, and the remaining mass t*(p-q) must split over
    two entries."""
    out = []
    for q in range(1, max_mult + 1):
        for p in range(q, q + 2 * max_mult + 1):
            if gcd(p, q) == 1:
                out.append((p, q))
    return out


def generate_bv_family(
    n_plus_1: int, theorem: Theorem, max_mult: int, seed: int
) -> SignedMultigraph:
    """Deterministically sample a graph of ``theorem.kind`` satisfying the
    theorem's hypothesis (connectivity included).

    A ratio c = p/q is drawn first; each row toward the last three vertices
    is then either left empty or solved to have exactly that ratio, with all
    multiplicities at most ``max_mult``, which must lie in 1..1000 (the
    ratios to draw from number about ``3 * max_mult**2``); ``n_plus_1`` must
    lie in 3..100.  Extra edges (and, on type C, loops and positive edges
    where the variant permits) are sprinkled among the first n-2 vertices.
    Each draw lists its edges and :func:`build_graph` merges them.
    Resamples until the hypothesis holds, at most 100 draws, then raises
    :class:`InfeasibleParams`; no generation with n+1 = 3..7 and
    ``max_mult`` 1..3 has been seen to need more than 8.
    """
    theorem = Theorem(theorem)
    kind = theorem.kind
    if n_plus_1 < 3:
        raise InfeasibleParams("need at least 3 vertices")
    if n_plus_1 > _MAX_N_PLUS_1:
        raise InfeasibleParams(f"n_plus_1 must be at most {_MAX_N_PLUS_1}")
    if max_mult < 1:
        raise InfeasibleParams("max_mult must be at least 1")
    if max_mult > _MAX_MULT:
        raise InfeasibleParams(f"max_mult must be at most {_MAX_MULT}")

    rng = random.Random(seed)
    n = n_plus_1 - 1
    top = (n - 1, n, n + 1)
    candidates = _ratio_candidates(max_mult)
    p, q = candidates[rng.randrange(len(candidates))]
    signs = (NEG, POS) if theorem is Theorem.TYPE_C_MIXED else (NEG,)
    internal_pairs = list(combinations(range(1, n - 1), 2))

    def row(j: int, sign: str) -> list[tuple[int, int, str, int]]:
        t_max = max_mult // q
        if p > q:
            t_max = min(t_max, (2 * max_mult) // (p - q))
        t = rng.randint(1, t_max)
        total = t * (p - q)
        m2 = rng.randint(max(0, total - max_mult), min(max_mult, total))
        return [(j, top[0], sign, q * t), (j, top[1], sign, m2), (j, top[2], sign, total - m2)]

    for _attempt in range(100):
        edges = [(u, v, sign, 1) for u, v, sign in distinguished_edges(n)]
        for j in range(1, n - 1):
            for sign in signs:
                if rng.random() < 0.75:
                    edges += row(j, sign)
        for i, j in internal_pairs:
            if rng.random() < 0.3:
                edges.append((i, j, NEG, rng.randint(1, max_mult)))
        if kind is GraphKind.TYPE_C:
            for i, j in internal_pairs:
                if rng.random() < 0.2:
                    edges.append((i, j, POS, rng.randint(1, max_mult)))
            for i in range(1, n - 1):
                if rng.random() < 0.2:
                    edges.append((i, i, POS, rng.randint(1, max_mult)))
        graph = build_graph(n_plus_1, kind, edges)
        if _hypothesis(graph, theorem)[0].satisfied:
            return graph
    raise InfeasibleParams(
        f"no graph met the {theorem.value} hypothesis in 100 draws "
        f"(n_plus_1={n_plus_1}, max_mult={max_mult}, seed={seed})"
    )
