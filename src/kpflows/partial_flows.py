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

The fiber size depends on a partial flow only through its inflows, so
:func:`count_via_partial` never lists partial flows: it stops the counting
DP of :mod:`kpflows.counting` on H after vertex n-2 and reads the aggregates
off its frontier, whose states are the inflow triples.  Only the witness
path (:func:`enumerate_partial_flows`, :func:`materialize_fiber`) visits
partial flows and their fibers one at a time.  The partial flows come from
the walk of :mod:`kpflows.counting` on H with coordinates 1..n-2
constrained.  Its *supply bound* is exact because every H-edge leaves a
vertex in [n-2], so the slots out of such a vertex i only lower its supply,
which must end at 0; its *forced last slot* is exact because no later slot
touches i.  Everything that depends on G alone (the hypothesis, H, the
G-slot index of every H slot and distinguished edge, H's roots) is compiled
once per graph by :func:`_fibration`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    HypothesisUnmet,
    IndexOutOfRange,
    InvalidFlow,
    NegativeExtension,
)
from .counting import FlowVector, _check_netflow, _frontier, _walk, check_flow
from .graphs import (
    GraphKind,
    SignedMultigraph,
    Theorem,
    _is_int,
    bv_hypothesis,
    delete_edges,
    distinguished_edges,
    netflow_y,
    root_of_edge,
)


@dataclass(frozen=True)
class PartialFlow:
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


def _positive_target(
    graph: SignedMultigraph, a: Sequence[int]
) -> tuple[bool, int | None]:
    """Whether ``a`` meets the kind's coordinate-sum constraint (zero total
    on type A; even, nonnegative total on type C), and the positive total y
    that partial flows must carry (None on type A)."""
    if graph.kind is GraphKind.TYPE_A:
        return sum(a) == 0, None
    y = netflow_y(a)
    return y is not None and y >= 0, y


class _Layout(NamedTuple):
    """The netflow-free part of G's fibration, compiled once per graph."""

    h: SignedMultigraph  # G minus the three distinguished edges
    h_pos: tuple[int, ...]  # G-slot index of each H slot
    d_pos: tuple[int, int, int]  # G-slot index of each distinguished edge
    roots: tuple[tuple[tuple[int, int], ...], ...]  # per H slot, its root's (k, cf != 0)


@lru_cache(maxsize=16)
def _fibration(graph: SignedMultigraph) -> _Layout:
    """Check the hypothesis, build H and compile the slot layout; once per
    graph, since every fiber and every member of a request shares them.

    Every H-edge must touch a vertex in [n-2]: the partial-flow constraints
    live there, and neither the walk nor H's DP handles a later edge.
    """
    cond = bv_hypothesis(graph, applicable_theorem(graph))
    if not cond.satisfied:
        raise HypothesisUnmet("; ".join(cond.failures))
    h = strip_distinguished(graph)
    for i, j, sign, _ in h.edges:
        if i > graph.n - 2:
            raise HypothesisUnmet(
                f"edge ({i},{j},{sign}) does not touch vertices 1..{graph.n - 2}"
            )
    slots = graph.edge_slots()
    d_pos = tuple(slots.index(d) for d in distinguished_edges(graph.n))
    return _Layout(
        h=h,
        h_pos=tuple(p for p in range(len(slots)) if p not in d_pos),
        d_pos=d_pos,
        roots=tuple(
            tuple((k, cf) for k, cf in enumerate(root_of_edge(*s, h.n_plus_1)) if cf)
            for s in h.edge_slots()
        ),
    )


def _partial_flow(
    layout: _Layout, values: Sequence[int]
) -> tuple[PartialFlow, list[int]]:
    """An H-flow with its statistics, and its netflow on 1..n-2, from its
    root combination.  Negative roots sum to 0 and positive ones (loops
    included) to 2, hence ``y_pos``."""
    acc = [0] * layout.h.n_plus_1
    for entries, b in zip(layout.roots, values):
        if b:
            for k, cf in entries:
                acc[k] += cf * b
    inflows = (-acc[-3], -acc[-2], -acc[-1])
    return PartialFlow(tuple(values), inflows, sum(acc) // 2), acc[:-3]


def _fiber_layout(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> _Layout:
    """G's layout, once ``a`` is a netflow for G and ``pf`` a partial flow
    for (graph, a) with its own statistics; one pass over H's slots."""
    _check_netflow(graph, a)
    layout = _fibration(graph)
    if len(pf.values) != len(layout.h_pos):
        raise DimensionMismatch(
            f"partial flow has length {len(pf.values)}, H has {len(layout.h_pos)} edge copies"
        )
    if any(not _is_int(b) or b < 0 for b in pf.values):
        raise InvalidFlow("partial flow entries must be nonnegative integers")
    own, head = _partial_flow(layout, pf.values)
    if (own.inflows, own.y_pos) != (pf.inflows, pf.y_pos):
        raise InvalidFlow(
            f"partial flow has Y = {own.inflows}, y_pos = {own.y_pos}, not "
            f"{pf.inflows}, {pf.y_pos}"
        )
    feasible, y = _positive_target(graph, a)
    if head != list(a[:-3]) or not feasible or own.y_pos != (y or 0):
        raise InvalidFlow("partial flow does not match the netflow")
    return layout


def enumerate_partial_flows(
    graph: SignedMultigraph, a: Sequence[int]
) -> list[PartialFlow]:
    """All partial flows for (graph, a), lexicographic in the H-flow.

    Netflows violating the kind's coordinate-sum constraint (nonzero total in
    type A; odd or negative total in type C) admit no flows at all, and the
    list is empty for them.
    """
    _check_netflow(graph, a)
    layout = _fibration(graph)
    feasible, y_target = _positive_target(graph, a)
    if not feasible:
        return []
    walk = _walk(layout.h, a, graph.n_plus_1 - 3, y_target)
    return [_partial_flow(layout, values)[0] for values in walk]


def _member(
    layout: _Layout, values: Sequence[int], special: tuple[int, int, int]
) -> list[int]:
    """A G-slot vector: ``values`` on H's slots, ``special`` on the
    distinguished ones (n-1, n), (n-1, n+1), (n, n+1)."""
    member = [0] * (len(values) + 3)
    for p, b in zip(layout.h_pos + layout.d_pos, (*values, *special)):
        member[p] = b
    return member


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
    layout = _fiber_layout(graph, pf, a)
    n = graph.n
    _, d2, d3 = distinguished_edges(n)
    b_left = pf.inflows[0] + a[n - 2]
    b_right = pf.inflows[1] + a[n - 1]
    if b_left < 0 or b_right < 0:
        raise NegativeExtension(
            f"extension needs b{d2} = {b_left}, b{d3} = {b_right}"
        )
    member = _member(layout, pf.values, (0, b_left, b_right))
    del member[layout.d_pos[0]]  # G - (n-1, n) has G's slots without this one
    return tuple(member)


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
    layout = _fiber_layout(graph, pf, a)
    n = graph.n
    cap = pf.inflows[0] + a[n - 2]
    if not 0 <= k <= cap:
        raise IndexOutOfRange(f"index {k} outside fiber range 0..{cap}")
    b_last = pf.inflows[1] + a[n - 1] + k
    if b_last < 0:
        raise NegativeExtension(f"extension needs b{distinguished_edges(n)[2]} = {b_last}")
    return tuple(_member(layout, pf.values, (k, cap - k, b_last)))


def decompose(
    graph: SignedMultigraph, f: Sequence[int], a: Sequence[int]
) -> tuple[PartialFlow, int]:
    """Split a flow on G into its partial flow and extension index.

    Inverse of :func:`extend_with_index` in both directions.
    """
    _check_netflow(graph, a)
    layout = _fibration(graph)
    if not check_flow(graph, f, a):
        raise InvalidFlow("vector fails flow conservation for this netflow")
    pf, _ = _partial_flow(layout, [f[p] for p in layout.h_pos])
    return pf, f[layout.d_pos[0]]


def materialize_fiber(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> list[FlowVector]:
    """All valid extensions of one partial flow to full flows on G.

    The members of :func:`extend_with_index` for ``k = 0..Y_{n-1}+a_{n-1}``
    whose forced value at (n, n+1) is nonnegative, in order of k.  The
    hypothesis check, H and the slot layout come from the per-graph
    :func:`_fibration`, and ``pf`` is validated once per fiber, as in
    :func:`extend_with_index`.
    """
    layout = _fiber_layout(graph, pf, a)
    n = graph.n
    cap = pf.inflows[0] + a[n - 2]
    right = pf.inflows[1] + a[n - 1]
    member = _member(layout, pf.values, (0, 0, 0))
    p1, p2, p3 = layout.d_pos
    out = []
    for k in range(max(0, -right), cap + 1):
        member[p1], member[p2], member[p3] = k, cap - k, right + k
        out.append(tuple(member))
    return out


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

    Both are read off the counting DP on H stopped after vertex n-2: its
    frontier maps each inflow state ``(L, Y_n, Y_{n+1})`` to the number w of
    partial flows with those inflows, so ``total = sum w*(L+1)`` and
    ``num_partial = sum w``.  On type C the positive total needs no state of
    its own: every H-edge leaves [n-2], so the last positive source is at
    most n-2, and from its close on the DP keeps only the states whose
    positive total is exactly y (see :func:`kpflows.counting._frontier`).

    With ``require_full=True`` a partial flow with ``L < 0`` or
    ``R = Y_n + a_n < 0`` raises :class:`NegativeExtension` instead, so a
    returned ``total`` is always the flow count on G.
    """
    _check_netflow(graph, a)
    h = _fibration(graph).h
    feasible, _ = _positive_target(graph, a)
    if not feasible:
        return PartialCount(total=0, num_partial=0)
    n = graph.n
    a_right = a[n - 1]
    total = num_partial = 0
    for (left, y_n, y_last), ways in _frontier(h, a, n - 2).items():
        if require_full and (left < 0 or y_n + a_right < 0):
            raise NegativeExtension(
                f"{ways} partial flow(s) with Y = ({left - a[n - 2]}, {y_n}, "
                f"{y_last}) have L = {left}, R = {y_n + a_right} and do not "
                "extend to G - (n-1, n); the literal aggregate need not be "
                "the count"
            )
        total += ways * (left + 1)
        num_partial += ways
    return PartialCount(total=total, num_partial=num_partial)
