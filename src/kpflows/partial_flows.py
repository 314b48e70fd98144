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
partial flows and their fibers one at a time.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple
from dataclasses import dataclass

from .errors import (
    HypothesisUnmet,
    IndexOutOfRange,
    InvalidFlow,
    NegativeExtension,
)
from .counting import FlowVector, _check_netflow, _frontier, check_flow
from .graphs import (
    NEG,
    POS,
    GraphKind,
    SignedMultigraph,
    Theorem,
    bv_hypothesis,
    delete_edges,
    distinguished_edges,
    netflow_y,
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


def _require_hypothesis(graph: SignedMultigraph) -> None:
    cond = bv_hypothesis(graph, applicable_theorem(graph))
    if not cond.satisfied:
        raise HypothesisUnmet("; ".join(cond.failures))


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


def _require_head_edges(h: SignedMultigraph) -> None:
    """Every H-edge must touch a vertex in [n-2]: the partial-flow
    constraints live there, and no layer of H's DP handles a later edge."""
    m = h.n_plus_1 - 3
    for i, j, sign, _ in h.edges:
        if i > m:
            raise HypothesisUnmet(
                f"edge ({i},{j},{sign}) does not touch vertices 1..{m}"
            )


def _iter_partial_values(
    h: SignedMultigraph, a: Sequence[int], y_target: int | None
) -> Iterator[FlowVector]:
    """Flows on H matching ``a`` on coordinates 1..n-2, in lexicographic
    order; ``y_target`` pins the total positive flow (type C).

    Under the hypothesis every H-edge touches a vertex in [n-2], so the
    weights ``u_i = n+2-i`` on 1..n-2 (zero on the last three) are >= 1 on
    every H-root, bounding the enumeration by ``sum u_i a_i``.  Like
    :func:`kpflows.counting._iter_flows`, the depth-first walk keeps its
    position in per-slot arrays, not on the call stack, so any number of
    edge copies is walked.
    """
    _require_head_edges(h)
    n1 = h.n_plus_1
    m = n1 - 3  # constrained coordinates
    slots = h.edge_slots()
    u = [n1 - k if k < m else 0 for k in range(n1)]
    entries: list[tuple[tuple[int, int], ...]] = []
    slot_weight: list[int] = []
    slot_pos: list[bool] = []
    for i, j, sign in slots:
        if i == j:
            ent = ((i - 1, 2),)
        elif sign == NEG:
            ent = ((i - 1, 1), (j - 1, -1))
        else:
            ent = ((i - 1, 1), (j - 1, 1))
        kept = tuple((k, cf) for k, cf in ent if k < m)
        entries.append(kept)
        slot_weight.append(sum(cf * u[k] for k, cf in kept))
        slot_pos.append(sign == POS)
    budget = sum(u[k] * a[k] for k in range(m))
    if budget < 0:
        return
    n_slots = len(slots)
    residual = list(a[:m])
    buf = [0] * n_slots
    lefts = [budget] + [0] * n_slots  # budget left on entering each slot
    pos_used = 0  # flow on positive slots so far; at most y_target if pinned
    t = 0
    while t >= 0:
        # slot t is entered with buf[t] = 0
        if t == n_slots:
            if not any(residual) and (y_target is None or pos_used == y_target):
                yield tuple(buf)
        # constrained coordinates below the current smaller endpoint are final
        elif not any(residual[: min(slots[t][0] - 1, m)]):
            lefts[t + 1] = lefts[t]
            t += 1
            continue
        # backtrack to the deepest slot whose value can still grow
        t -= 1
        while t >= 0:
            wt = slot_weight[t]
            pinned = slot_pos[t] and y_target is not None
            if (buf[t] + 1) * wt <= lefts[t] and not (pinned and pos_used == y_target):
                buf[t] += 1
                for k, cf in entries[t]:
                    residual[k] -= cf
                if slot_pos[t]:
                    pos_used += 1
                lefts[t + 1] = lefts[t] - buf[t] * wt
                t += 1
                break
            for k, cf in entries[t]:
                residual[k] += cf * buf[t]
            if slot_pos[t]:
                pos_used -= buf[t]
            buf[t] = 0
            t -= 1


def _partial_stats(
    h: SignedMultigraph, values: Sequence[int]
) -> tuple[tuple[int, int, int], int]:
    n = h.n
    top = (n - 1, n, n + 1)
    inflow = {v: 0 for v in top}
    y_pos = 0
    for (i, j, sign), b in zip(h.edge_slots(), values):
        if sign == POS:
            y_pos += b
        if j in top and i < j:
            inflow[j] += b if sign == NEG else -b
    return (inflow[top[0]], inflow[top[1]], inflow[top[2]]), y_pos


def enumerate_partial_flows(
    graph: SignedMultigraph, a: Sequence[int]
) -> list[PartialFlow]:
    """All partial flows for (graph, a), lexicographic in the H-flow.

    Netflows violating the kind's coordinate-sum constraint (nonzero total in
    type A; odd or negative total in type C) admit no flows at all, and the
    list is empty for them.
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    feasible, y_target = _positive_target(graph, a)
    if not feasible:
        return []
    h = strip_distinguished(graph)
    out = []
    for values in _iter_partial_values(h, a, y_target):
        inflows, y_pos = _partial_stats(h, values)
        out.append(PartialFlow(values=values, inflows=inflows, y_pos=y_pos))
    return out


def _merge_values(
    target: SignedMultigraph,
    sub: SignedMultigraph,
    sub_values: Sequence[int],
    special: dict[tuple[int, int, str], int],
) -> FlowVector:
    """Lay sub's slot values onto target's slots, filling the remaining
    (distinguished) slots from ``special``."""
    sub_slots = sub.edge_slots()
    merged: list[int] = []
    pos = 0
    for slot in target.edge_slots():
        if pos < len(sub_slots) and sub_slots[pos] == slot:
            merged.append(sub_values[pos])
            pos += 1
        else:
            merged.append(special[slot])
    if pos != len(sub_slots):  # pragma: no cover - guarded by hypothesis
        raise RuntimeError("edge slots failed to align during extension")
    return tuple(merged)


def extend_unique(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> FlowVector:
    """The unique extension of a partial flow to G - (n-1, n).

    Adds ``b(n-1,n+1) = Y_{n-1}+a_{n-1}`` and ``b(n,n+1) = Y_n+a_n``; raises
    :class:`NegativeExtension` if either would be negative.  On mixed-sign
    graphs this happens inside the stated netflow domain, on its band
    ``y = min(a_{n-1}, a_n) + 1`` (4 of the 9 partial flows of the nine-edge
    witness at netflow (2, 0, 0, 0)); for ``y <= min(a_{n-1}, a_n)`` every
    partial flow extends.
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    n = graph.n
    d1, d2, d3 = distinguished_edges(n)
    b_left = pf.inflows[0] + a[n - 2]
    b_right = pf.inflows[1] + a[n - 1]
    if b_left < 0 or b_right < 0:
        raise NegativeExtension(
            f"extension needs b{d2} = {b_left}, b{d3} = {b_right}"
        )
    reduced = delete_edges(graph, [d1])
    h = strip_distinguished(graph)
    return _merge_values(reduced, h, pf.values, {d2: b_left, d3: b_right})


def extend_with_index(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int], k: int
) -> FlowVector:
    """The k-th extension of a partial flow to a full flow on G.

    Valid indices run from 0 through ``Y_{n-1}+a_{n-1}``, so the fiber over
    ``pf`` has ``Y_{n-1}+a_{n-1}+1`` members.  Raises
    :class:`IndexOutOfRange` outside that range and
    :class:`NegativeExtension` when the forced value at (n, n+1) would be
    negative (possible on mixed-sign graphs when ``y > a_n``).
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    n = graph.n
    d1, d2, d3 = distinguished_edges(n)
    cap = pf.inflows[0] + a[n - 2]
    if not 0 <= k <= cap:
        raise IndexOutOfRange(f"index {k} outside fiber range 0..{cap}")
    b_last = pf.inflows[1] + a[n - 1] + k
    if b_last < 0:
        raise NegativeExtension(f"extension needs b{d3} = {b_last}")
    h = strip_distinguished(graph)
    return _merge_values(
        graph, h, pf.values, {d1: k, d2: cap - k, d3: b_last}
    )


def decompose(
    graph: SignedMultigraph, f: Sequence[int], a: Sequence[int]
) -> tuple[PartialFlow, int]:
    """Split a flow on G into its partial flow and extension index.

    Inverse of :func:`extend_with_index` in both directions.
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    if not check_flow(graph, f, a):
        raise InvalidFlow("vector fails flow conservation for this netflow")
    n = graph.n
    specials = set(distinguished_edges(n))
    k = None
    h_values: list[int] = []
    for slot, b in zip(graph.edge_slots(), f):
        if slot in specials:
            if slot == (n - 1, n, NEG):
                k = b
        else:
            h_values.append(b)
    h = strip_distinguished(graph)
    inflows, y_pos = _partial_stats(h, h_values)
    return PartialFlow(values=tuple(h_values), inflows=inflows, y_pos=y_pos), k


def materialize_fiber(
    graph: SignedMultigraph, pf: PartialFlow, a: Sequence[int]
) -> list[FlowVector]:
    """All valid extensions of one partial flow to full flows on G.

    The members of :func:`extend_with_index` for ``k = 0..Y_{n-1}+a_{n-1}``
    whose forced value at (n, n+1) is nonnegative, in order of k.  The
    hypothesis is checked and H built once per fiber, not once per member.
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    n = graph.n
    d1, d2, d3 = distinguished_edges(n)
    cap = pf.inflows[0] + a[n - 2]
    right = pf.inflows[1] + a[n - 1]
    h = strip_distinguished(graph)
    return [
        _merge_values(graph, h, pf.values, {d1: k, d2: cap - k, d3: right + k})
        for k in range(max(0, -right), cap + 1)
    ]


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
    its own, because ``2*y_pos = a_1+...+a_{n-2} - (Y_{n-1}+Y_n+Y_{n+1})``;
    states where that differs from ``2y`` are not partial flows.

    With ``require_full=True`` a partial flow with ``L < 0`` or
    ``R = Y_n + a_n < 0`` raises :class:`NegativeExtension` instead, so a
    returned ``total`` is always the flow count on G.
    """
    _check_netflow(graph, a)
    _require_hypothesis(graph)
    feasible, y = _positive_target(graph, a)
    if not feasible:
        return PartialCount(total=0, num_partial=0)
    h = strip_distinguished(graph)
    _require_head_edges(h)
    n = graph.n
    head = sum(a[: n - 1])  # a_1 + ... + a_{n-1}; L carries a_{n-1}
    a_right = a[n - 1]
    total = num_partial = 0
    for (left, y_n, y_last), ways in _frontier(h, a, n - 2).items():
        if y is not None and head - left - y_n - y_last != 2 * y:
            continue
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
