"""Partial flows and the fibration behind the divisibility identities.

Let G satisfy the structural hypothesis (three distinguished negative edges
among the last three vertices at multiplicity one, no other edges among
them).  H is G with those three edges removed.  A *partial flow* is a
nonnegative flow on H that matches the netflow on coordinates 1..n-2 and
leaves the last three coordinates free; on type C graphs its total positive
flow must equal y = (sum a)/2.

Writing ``Y_v`` for the signed inflow into v in H (negative inflows count
positively, positive-edge inflows negatively), a partial flow extends

* uniquely to a flow on G - (n-1, n), with ``b(n-1,n+1) = Y_{n-1}+a_{n-1}``
  and ``b(n,n+1) = Y_n+a_n``; and
* one way per index k in ``0..Y_{n-1}+a_{n-1}`` to a flow on G, with
  ``b(n-1,n) = k``, the remainder shifted accordingly.

Decomposition restricts a flow on G back to its partial flow and k.  Both
round trips are identities, which is why the flows on G are fibered over
partial flows with fiber sizes ``Y_{n-1} + a_{n-1} + 1`` — whenever the
extensions stay nonnegative.  Where they cannot (supplies negative, or a
positive leak total exhausting a supply), the affected partial flows extend
to nothing; the aggregate sums reported here are the literal ones, so such
boundaries remain observable.

A fiber depends on a partial flow only through ``L = Y_{n-1} + a_{n-1}``
and ``cut = max(0, -(Y_n + a_n))``, its members ``k < cut`` being the ones
that go negative at (n, n+1); so :func:`count_via_partial` never lists
partial flows: it sums over the fiber table ``(L, cut) -> ways`` that the
counting DP of :mod:`kpflows.counting` on H, stopped after vertex n-2,
hands out (``kpflows.counting._fiber_states``).  Only the witness
path (:func:`enumerate_partial_flows`, :func:`materialize_fiber`) visits
partial flows and their fibers one at a time.  The partial flows come from
the walk of :mod:`kpflows.counting` on H with coordinates 1..n-2
constrained.  Its *supply bound* is exact because every H-edge leaves a
vertex in [n-2], so the slots out of such a vertex i only lower its supply,
which must end at 0; its *forced last slot* is exact because no later slot
touches i.  The hypothesis check and H depend on G alone and are made once
per graph by :func:`_fibration`; the hypothesis also puts a fiber's three
coordinates in G's last three slots, and a partial flow's statistics come
from the one root sum, :func:`kpflows.counting._root_sum`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    HypothesisUnmet,
    IndexOutOfRange,
    InvalidFlow,
    NegativeExtension,
)
from .counting import FlowVector, _check_netflow, _fiber_states, _root_sum, _walk, check_flow
from .graphs import (
    GraphKind,
    SignedMultigraph,
    Theorem,
    _is_int,
    bv_hypothesis,
    delete_edges,
    distinguished_edges,
)


class PartialFlow(NamedTuple):
    """A flow on H with its inflow statistics.

    ``values`` indexes H's canonical edge slots; ``inflows`` holds the signed
    inflows (Y_{n-1}, Y_n, Y_{n+1}); ``y_pos`` is the total flow on positive
    edges (zero on type A).
    """

    values: FlowVector
    inflows: tuple[int, int, int]
    y_pos: int


class PartialCount(NamedTuple):
    """Literal fibration aggregates: ``total`` sums the fiber-size formula
    over partial flows, ``num_partial`` counts the partial flows."""

    total: int
    num_partial: int


def applicable_theorem(graph: SignedMultigraph) -> Theorem:
    """Hypothesis variant governing partial flows on this graph's kind."""
    if graph.kind is GraphKind.TYPE_A:
        return Theorem.TYPE_A
    return Theorem.TYPE_C_MIXED


def strip_distinguished(graph: SignedMultigraph) -> SignedMultigraph:
    """H: the graph minus the three distinguished edges."""
    return delete_edges(graph, distinguished_edges(graph.n))


@lru_cache(maxsize=16)
def _fibration(graph: SignedMultigraph) -> SignedMultigraph:
    """Check the hypothesis and build H; once per graph, since every fiber
    and every member of a request shares them.

    The hypothesis puts every H-edge out of a vertex in [n-2], where the
    partial-flow constraints live: an edge out of n-1 or later lies among
    the last three vertices, where every variant admits only the three unit
    negative edges, which H drops (a positive edge or loop there fails the
    A and c32 checks).  So G's slots, sorted by ``(i, j, sign)``, are H's
    followed by (n-1, n), (n-1, n+1), (n, n+1), G - (n-1, n) ends in the
    last two, and a flow on G is its partial flow followed by
    ``(k, L-k, R+k)``.
    """
    cond = bv_hypothesis(graph, applicable_theorem(graph))
    if not cond.satisfied:
        raise HypothesisUnmet("; ".join(cond.failures))
    return strip_distinguished(graph)


def _partial_flow(
    h: SignedMultigraph, values: Sequence[int]
) -> tuple[PartialFlow, list[int]]:
    """An H-flow with its statistics, and its netflow on 1..n-2, from its
    root combination.  Negative roots sum to 0 and positive ones (loops
    included) to 2, hence ``y_pos``."""
    acc = _root_sum(h, values)
    inflows = (-acc[-3], -acc[-2], -acc[-1])
    return PartialFlow(tuple(values), inflows, sum(acc) // 2), acc[:-3]


def _check_partial_flow(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> tuple[int, int]:
    """Raise unless ``a`` is a netflow for G and ``pf`` a partial flow for
    (graph, a) with its own statistics; one pass over H's slots.  Returns
    the fiber's bounds ``L = Y_{n-1}+a_{n-1}`` and ``R = Y_n+a_n``."""
    feasible = _check_netflow(graph, a)
    h = _fibration(graph)
    if len(pf.values) != h.num_edges:
        raise DimensionMismatch(
            f"partial flow has length {len(pf.values)}, H has {h.num_edges} edge copies"
        )
    if any(not _is_int(b) or b < 0 for b in pf.values):
        raise InvalidFlow("partial flow entries must be nonnegative integers")
    own, head = _partial_flow(h, pf.values)
    if (own.inflows, own.y_pos) != (pf.inflows, pf.y_pos):
        raise InvalidFlow(
            f"partial flow has Y = {own.inflows}, y_pos = {own.y_pos}, not "
            f"{pf.inflows}, {pf.y_pos}"
        )
    if head != list(a[:-3]) or not feasible or 2 * own.y_pos != sum(a):
        raise InvalidFlow("partial flow does not match the netflow")
    return own.inflows[0] + a[-3], own.inflows[1] + a[-2]


def enumerate_partial_flows(
    graph: SignedMultigraph, a: Sequence[int]
) -> list[PartialFlow]:
    """All partial flows for (graph, a), lexicographic in the H-flow: the
    walk of :mod:`kpflows.counting` on H, constrained on coordinates 1..n-2
    and pinned to the positive total ``y = sum(a)/2`` (0 on type A).

    Netflows violating the kind's coordinate-sum constraint (nonzero total in
    type A; odd or negative total in type C) admit no flows at all, and the
    list is empty for them.
    """
    feasible = _check_netflow(graph, a)
    h = _fibration(graph)
    if not feasible:
        return []
    walk = _walk(h, a, graph.n_plus_1 - 3)
    return [_partial_flow(h, values)[0] for values in walk]


def extend_unique(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> FlowVector:
    """The unique extension of a partial flow to G - (n-1, n).

    Adds ``b(n-1,n+1) = Y_{n-1}+a_{n-1}`` and ``b(n,n+1) = Y_n+a_n``; raises
    :class:`NegativeExtension` if either would be negative.  On mixed-sign
    graphs this happens inside the stated netflow domain, on its band
    ``y = min(a_{n-1}, a_n) + 1`` (4 of the 9 partial flows of the nine-edge
    witness at netflow (2, 0, 0, 0)); for ``y <= min(a_{n-1}, a_n)`` every
    partial flow extends.  A ``pf`` that is not a partial flow for
    (graph, a) raises :class:`DimensionMismatch` or :class:`InvalidFlow`.
    """
    left, right = _check_partial_flow(graph, pf, a)
    _, d2, d3 = distinguished_edges(graph.n)
    if left < 0 or right < 0:
        raise NegativeExtension(f"extension needs b{d2} = {left}, b{d3} = {right}")
    return tuple(pf.values) + (left, right)


def extend_with_index(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int], k: int
) -> FlowVector:
    """The k-th extension of a partial flow to a full flow on G.

    Valid indices run from 0 through ``Y_{n-1}+a_{n-1}``, so the fiber over
    ``pf`` has ``Y_{n-1}+a_{n-1}+1`` members.  Raises
    :class:`IndexOutOfRange` outside that range and
    :class:`NegativeExtension` when the forced value at (n, n+1) would be
    negative (possible on mixed-sign graphs when ``y > a_n``).  A ``pf``
    that is not a partial flow for (graph, a) raises
    :class:`DimensionMismatch` or :class:`InvalidFlow`.
    """
    cap, right = _check_partial_flow(graph, pf, a)
    if not 0 <= k <= cap:
        raise IndexOutOfRange(f"index {k} outside fiber range 0..{cap}")
    if right + k < 0:
        raise NegativeExtension(
            f"extension needs b{distinguished_edges(graph.n)[2]} = {right + k}"
        )
    return tuple(pf.values) + (k, cap - k, right + k)


def decompose(
    graph: SignedMultigraph, f: Sequence[int], a: Sequence[int]
) -> tuple[PartialFlow, int]:
    """Split a flow on G into its partial flow and extension index.

    Inverse of :func:`extend_with_index` in both directions.
    """
    _check_netflow(graph, a)
    h = _fibration(graph)
    if not check_flow(graph, f, a):
        raise InvalidFlow("vector fails flow conservation for this netflow")
    pf, _ = _partial_flow(h, f[:-3])
    return pf, f[-3]


def materialize_fiber(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> list[FlowVector]:
    """All valid extensions of one partial flow to full flows on G.

    The members of :func:`extend_with_index` for ``k = 0..Y_{n-1}+a_{n-1}``
    whose forced value at (n, n+1) is nonnegative, in order of k.  The
    hypothesis check and H come from the per-graph :func:`_fibration`, and
    ``pf`` is validated once per fiber, as in :func:`extend_with_index`.
    """
    cap, right = _check_partial_flow(graph, pf, a)
    values = tuple(pf.values)
    return [values + (k, cap - k, right + k) for k in range(max(0, -right), cap + 1)]


def count_via_partial(
    graph: SignedMultigraph, a: Sequence[int], require_full: bool = False
) -> PartialCount:
    """Count flows through the fibration, without listing partial flows.

    ``total`` is the literal sum of ``L + 1 = Y_{n-1} + a_{n-1} + 1`` over
    partial flows and equals the flow count on G whenever every fiber is
    full (all supplies nonnegative suffices for type A and all-negative type
    C; mixed-sign graphs need ``y <= min(a_{n-1}+1, a_n)``).  ``num_partial``
    likewise equals the flow count on G - (n-1, n) when every partial flow
    extends (mixed-sign: ``y <= min(a_{n-1}, a_n)``).  Outside that domain
    the literal values are still returned so that the discrepancy is
    visible; they can even be negative.

    Both are sums over the fiber table of H (``counting._fiber_states``),
    which ``count`` shares: w partial flows with ``L`` and ``cut = max(0,
    -R)``, ``R = Y_n + a_n``, add ``w*(L+1)`` to ``total`` and w to
    ``num_partial``.  On type C the positive total needs no entry of its
    own: every H-edge leaves [n-2], so the last positive source is at most
    n-2, and the table counts only the partial flows whose positive total
    is exactly y (see :func:`kpflows.counting._frontier`).

    With ``require_full=True`` a partial flow with ``L < 0`` or ``cut > 0``
    (``R < 0``) raises :class:`NegativeExtension` instead, so a returned
    ``total`` is always the flow count on G.  The message names what is
    negative, L with ``Y_{n-1}``, R with ``Y_n`` or both, and counts every
    partial flow with those values.
    """
    feasible = _check_netflow(graph, a)
    h = _fibration(graph)
    if not feasible:
        return PartialCount(total=0, num_partial=0)
    table = _fiber_states(h, tuple(a))
    for left, cut, _ in table:
        if require_full and (left < 0 or cut):
            # name what is negative, and count every partial flow so named
            negative = [f"Y_(n-1) = {left - a[-3]}, L = {left}"] if left < 0 else []
            if cut:
                negative.append(f"Y_n = {-cut - a[-2]}, R = {-cut}")
            refused = sum(w for x, c, w in table
                          if (left >= 0 or x == left) and (not cut or c == cut))
            raise NegativeExtension(
                f"{refused} partial flow(s) with {' and '.join(negative)} do not "
                "extend to G - (n-1, n); the literal aggregate need not be "
                "the count"
            )
    return PartialCount(total=sum(w * (left + 1) for left, _, w in table),
                        num_partial=sum(w for _, _, w in table))
