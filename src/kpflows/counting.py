"""Exact counting and enumeration of nonnegative integer flows.

The count of a netflow vector ``a`` on a graph G is the number of ways to
write ``a`` as a nonnegative integer combination of the roots attached to
G's edge copies.  Two independent algorithms are provided:

* :func:`brute_force_count` / :func:`enumerate_flows` — certified exhaustive
  enumeration by :func:`_walk`, which also lists the partial flows of
  :mod:`kpflows.partial_flows`.  It sets edge copies one at a time in
  canonical order, smallest value first, keeping its position in per-slot
  arrays, not on the call stack.  Four prunes, each cutting only branches
  that hold no flow, so the lexicographic order is unchanged:

  - *supply bound*: once every slot with smaller endpoint below i is set,
    coordinate i holds its supply s_i, and every later slot touching i is
    out of i with a positive coefficient cf, so it can only lower s_i to its
    required 0; hence ``s_i < 0`` is dead and a slot out of i takes at most
    ``residual_i // cf``;
  - *forced last slot*: no slot after the last one out of i touches i, so
    that slot must take exactly ``residual_i / cf``, and a remainder is dead;
  - *settle rule*: every residual must end at 0, so once no later slot can
    lower coordinate k, ``residual_k <= 0``, and once none can raise it,
    ``residual_k >= 0``; a coordinate's last slot leaves it at 0, and a
    nonzero supply that no slot can cancel is dead before the walk starts;
  - *positive total*: positive roots and loops sum to 2 and negative roots
    to 0, so every flow carries ``y = sum(a)/2`` on positive slots, and a
    branch that has placed more is dead; on H, whose last three coordinates
    are free, the pin is what defines a partial flow, and a leaf short of y
    is none.
* :func:`count` — a bottom-up dynamic program over edge groups (vertices in
  increasing label order, each vertex's out-groups in canonical order).  Its
  frontier of residual states merges the partial assignments that agree on
  everything later edges can see; it never materializes flows and has no
  recursion.  The layer loop is :func:`_frontier`, which can stop after any
  vertex; the partial-flow fibration is read off it after vertex n-2.  Inside
  the loop each state is packed into one integer, one biased digit per
  coordinate in a radix derived from ``sum|a_i|``, and each edge group is one
  precompiled integer delta; only the returned frontier is decoded to tuples.
  A vertex is its fan-out groups, then one close.  A fan-out group, which
  sends t units from each state, is swept one line ``key + t*delta`` at a
  time: every state on a line reaches the same last state, so one walk with
  m running sums (the hockey-stick identity gives the weights
  ``comb(t+m-1, m-1)``) stores each new state once, instead of merging one
  entry per (state, t) pair.  The close drains the rest of the supply
  through the vertex's loops, else its last out-group, and drops its digit.
  States that have placed more positive flow than ``y = sum(a)/2`` (type C)
  are cut, and when the last positive source closes the positive total
  must be y.

All arithmetic is exact (Python integers); counts grow super-exponentially
and must not be truncated.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import islice
from math import comb, inf

from .errors import DimensionMismatch, LimitExceeded
from .graphs import (
    NEG, POS, Edge, GraphKind, SignedMultigraph, _is_int, build_graph, distinguished_edges,
    netflow_y, root_of_edge,
)

FlowVector = tuple[int, ...]


def _check_netflow(graph: SignedMultigraph, a: Sequence[int]) -> bool:
    """The package's one netflow validator: one integer per vertex, and a
    boolean is not an integer here.  Returns whether ``a`` meets the kind's
    coordinate-sum rule (zero total on type A; even, nonnegative total on
    type C), without which no flow exists."""
    if len(a) != graph.n_plus_1:
        raise DimensionMismatch(
            f"netflow has length {len(a)}, graph has {graph.n_plus_1} vertices"
        )
    for x in a:
        if not _is_int(x):
            raise DimensionMismatch(f"netflow entries must be integers, got {x!r}")
    if graph.kind is GraphKind.TYPE_A:
        return sum(a) == 0
    y = netflow_y(a)
    return y is not None and y >= 0


def vertex_weights(n_plus_1: int) -> tuple[int, ...]:
    """Weights ``w_i = n+2-i``; positive on every type A / type C root."""
    return tuple(n_plus_1 + 1 - i for i in range(1, n_plus_1 + 1))


def weight_bound(graph: SignedMultigraph, a: Sequence[int]) -> int:
    """Budget ``W = sum_i (n+2-i) a_i``.

    Any valid flow b satisfies ``sum(b) <= W``; a negative W certifies that
    the count is zero.
    """
    _check_netflow(graph, a)
    w = vertex_weights(graph.n_plus_1)
    return sum(wi * ai for wi, ai in zip(w, a))


@lru_cache(maxsize=16)
def _slot_table(graph: SignedMultigraph) -> tuple[tuple[Edge, ...], tuple[tuple, ...]]:
    """The edge slots in canonical order and, per slot, its root's nonzero
    entries ``(k, cf)``, k 0-based; once per graph, since :func:`check_flow`
    runs once per flow of a request."""
    slots = graph.edge_slots()
    roots = (root_of_edge(*s, graph.n_plus_1) for s in slots)
    return slots, tuple(tuple((k, cf) for k, cf in enumerate(r) if cf) for r in roots)


def _conservation_holds(
    slots: Sequence[Edge], f: Sequence[int], a: Sequence[int]
) -> bool:
    """Vertex-local form: negative inflow + a_v equals positive inflow plus
    outflow plus twice the loop flow at v."""
    n1 = len(a)
    neg_in = [0] * n1
    pos_in = [0] * n1
    out = [0] * n1
    loop = [0] * n1
    for (i, j, sign), b in zip(slots, f):
        if i == j:
            loop[i - 1] += b
        elif sign == NEG:
            out[i - 1] += b
            neg_in[j - 1] += b
        else:
            out[i - 1] += b
            pos_in[j - 1] += b
    return all(
        neg_in[v] + a[v] == pos_in[v] + out[v] + 2 * loop[v] for v in range(n1)
    )


def _root_sum(graph: SignedMultigraph, f: Sequence[int]) -> list[int]:
    """The sum of the roots of the graph's edge slots, each times its entry
    of ``f``: the netflow of a flow, or of a partial flow on H."""
    acc = [0] * graph.n_plus_1
    for entries, b in zip(_slot_table(graph)[1], f):
        if b:
            for k, cf in entries:
                acc[k] += cf * b
    return acc


def check_flow(
    graph: SignedMultigraph, f: Sequence[int], a: Sequence[int]
) -> bool:
    """True iff ``f`` is a nonnegative integer a-flow on the graph.

    Evaluated through both the vertex-conservation form and the
    root-combination form; the two must agree.
    """
    _check_netflow(graph, a)
    if len(f) != graph.num_edges:
        raise DimensionMismatch(
            f"flow has length {len(f)}, graph has {graph.num_edges} edge copies"
        )
    if any(not _is_int(b) or b < 0 for b in f):
        return False
    by_vertex = _conservation_holds(_slot_table(graph)[0], f, a)
    by_roots = _root_sum(graph, f) == list(a)  # the defining form
    if by_vertex != by_roots:  # pragma: no cover - internal consistency
        raise RuntimeError("flow-check formulations disagree; please report")
    return by_vertex


def _walk(graph: SignedMultigraph, a: Sequence[int], m: int) -> Iterator[FlowVector]:
    """Nonnegative slot vectors whose root combination matches ``a`` on
    coordinates ``1..m`` and whose total flow on positive slots (loops
    included) is ``y = sum(a) // 2``, in lexicographic order.

    With ``m = n+1`` these are the flows, and the pin holds for every one of
    them, since positive roots and loops sum to 2 and negative ones to 0;
    with ``m = n-2`` on H they are the partial flows, which the pin defines.
    Callers gate the coordinate sum first (:func:`_check_netflow`), so y is
    0 on type A, which has no positive slot.  Every slot's smaller endpoint
    must lie in ``1..m``.  A depth-first walk over edge copies in canonical
    order, kept on per-slot arrays instead of the call stack, with the four
    prunes of the module docstring.
    """
    slots, roots = _slot_table(graph)
    n_slots = len(slots)
    entries = [tuple((k, cf) for k, cf in r if k < m) for r in roots]
    src = [i - 1 for i, _, _ in slots]
    step = [r[0][1] for r in roots]  # the coefficient at the source, its first entry
    forced = [s != nxt for s, nxt in zip(src, src[1:] + [-1])]
    # entering slot t, the target k of slot t-1 must lie in [lo, hi]: lo = 0
    # once no later slot raises k, hi = 0 once none lowers it
    settle = [None] * (n_slots + 1)
    lowered, raised = set(), set()  # by the slots after t
    for t in reversed(range(n_slots)):
        if len(entries[t]) > 1:
            k = entries[t][1][0]
            settle[t + 1] = (k, -inf if k in raised else 0, inf if k in lowered else 0)
        for k, cf in entries[t]:
            (lowered if cf > 0 else raised).add(k)
    if any(x > 0 and k not in lowered or x < 0 and k not in raised
           for k, x in enumerate(a[:m])):
        return
    pinned = [sign == POS for _, _, sign in slots]
    y = sum(a) // 2
    residual = list(a[:m])
    buf = [0] * n_slots
    pos_used = 0  # flow on pinned slots so far, at most y
    t = 0
    while True:
        # slot t is entered with buf[t] = 0
        if (g := settle[t]) and not g[1] <= residual[g[0]] <= g[2]:
            pass  # dead: no later slot can bring that target to 0
        elif t == n_slots:
            if pos_used == y:
                yield tuple(buf)
        elif not forced[t]:
            t += 1
            continue
        else:
            v, r = divmod(residual[src[t]], step[t])
            if not r and not (pinned[t] and pos_used + v > y):
                buf[t] = v
                for k, cf in entries[t]:
                    residual[k] -= cf * v
                if pinned[t]:
                    pos_used += v
                t += 1
                continue
        # backtrack to the deepest slot whose value can still grow
        t -= 1
        while t >= 0:
            if not forced[t] and residual[src[t]] >= step[t] and not (pinned[t] and pos_used == y):
                buf[t] += 1
                for k, cf in entries[t]:
                    residual[k] -= cf
                if pinned[t]:
                    pos_used += 1
                t += 1
                break
            for k, cf in entries[t]:
                residual[k] += cf * buf[t]
            if pinned[t]:
                pos_used -= buf[t]
            buf[t] = 0
            t -= 1
        if t < 0:
            return


def brute_force_count(graph: SignedMultigraph, a: Sequence[int]) -> int:
    """Ground-truth count by exhaustive enumeration; exponential time.  A
    netflow whose coordinate sum admits no flow counts 0 without a walk."""
    if not _check_netflow(graph, a):
        return 0
    return sum(1 for _ in _walk(graph, a, graph.n_plus_1))


def enumerate_flows(
    graph: SignedMultigraph,
    a: Sequence[int],
    limit: int | None = None,
    require_complete: bool = False,
) -> list[FlowVector]:
    """Valid flows in lexicographic order, truncated at ``limit`` if given.

    With ``require_complete=True`` a truncation raises :class:`LimitExceeded`
    instead of silently dropping flows.
    """
    feasible = _check_netflow(graph, a)
    if limit is not None and (not _is_int(limit) or limit < 1):
        raise ValueError(f"limit must be a positive integer or None, got {limit!r}")
    if not feasible:
        return []
    walk = _walk(graph, a, graph.n_plus_1)
    # islice takes no stop above sys.maxsize, and no list holds more flows
    out = list(islice(walk, None if limit is None else min(limit, sys.maxsize)))
    if require_complete and limit is not None and next(walk, None) is not None:
        raise LimitExceeded(
            f"more than {limit} flows exist but completeness was requested"
        )
    return out


def _frontier(
    graph: SignedMultigraph, a: Sequence[int], last: int
) -> dict[tuple[int, ...], int]:
    """Run the edge-group layers of vertices ``1..last``; return the frontier.

    The frontier maps a state to the number of ways of reaching it; a state
    entering vertex v is the flat tuple ``(supply left at v, committed
    inflow of v+1, ..., of n+1)``, where the supply is ``a_v`` plus negative
    inflow minus positive inflow.  A vertex has two parts.  First its
    fan-out groups, every out-group ``(v, j, sign)`` but the last of a
    loopless vertex: one of multiplicity m sends ``t = 0..supply`` units
    (fewer on a positive edge, see below) into coordinate j in
    ``comb(t+m-1, m-1)`` ways, and equal states merge (the sweep below does
    both at once).  Then one close drains what is left: through the
    vertex's loops, two units per copy sent, if it has any; otherwise
    through its last out-group, all of it; otherwise nothing may be left.
    States with negative supply die on arrival at vertices ``1..last``; the
    arrival at ``last+1``, the first coordinate of every returned state, is
    kept whatever its sign.  With ``last = n+1`` the only state is ``()``.

    The positive-flow budget cuts the states that can reach no flow.  Let
    ``Phi`` be the sum of a state's coordinates plus ``a_{v+1} + ... +
    a_{n+1}``, i.e. ``sum(a)`` minus twice the positive flow placed so far
    (positive roots and loops sum to 2, negative roots to 0).  A negative
    edge leaves Phi unchanged, a positive edge or a loop lowers it by 2 per
    unit, and every flow ends at ``Phi = 0``; so a state with ``Phi < 0`` is
    dead.  With v_p the last vertex with a positive out-edge or a loop:

    - a positive fan-out group sends at most ``min(supply, Phi // 2)``
      units, since more would make Phi negative;
    - a close dies if it leaves Phi negative, for the same reason: when
      its last out-group is positive and ``2*rest > Phi``, or when it has
      loops and ``rest > Phi``;
    - nothing after the close of v_p changes Phi, so that close dies
      unless it leaves ``Phi = 0``, and every state from the close of v_p
      on has ``Phi = 0``; without any positive source Phi never moves, and
      the frontier is empty unless ``sum(a) = 0``.

    Negative groups check nothing but at the close of v_p, so type A
    counts, which have no v_p, do no extra work.  The cuts drop only states
    that lead to no flow, and every state returned for ``last >= v_p`` has
    ``Phi = 0``.

    Inside the loop a state is one integer: coordinate k (the supply is
    k = 0) is digit k in radix ``B = 2K+1``, stored as ``c_k + K`` with
    ``K = sum|a_i| + 1``.  Sending t units along an out-group is then
    ``key + t*delta`` with the group's precompiled
    ``delta = step*B**(j-v) - 1`` (step +1 for a negative edge, -1 for a
    positive one), and closing a vertex drops the lowest digit with
    ``key // B``.  Only the returned frontier is decoded to tuples.

    A fan-out group is swept one line at a time, not one (state, t) pair at
    a time.
    Let ``top`` be the most a state may send: its supply, or ``min(supply,
    Phi // 2)`` on a positive group.  One step ``+delta`` lowers the supply
    by 1 and Phi by 0 on a negative group or by 2 on a positive one, so
    ``top`` falls by exactly 1 per step, and every state of a line ``key,
    key + delta, ...`` with ``top >= 0``, old or new, shares the line's
    last state ``end = key + top*delta``.  Each new state therefore lies on
    exactly one line, and the old states that reach it are the ones behind
    it on that line; the old state farthest back has the largest ``top``,
    and its chain covers every other one (a state with ``top < 0`` sends
    nothing).  The old keys are visited in sorted order along ``delta``, so
    the first one met on a line is that farthest state, and one walk from
    it to ``end`` pops the old states it passes while keeping m running
    sums: the first adds the old state's ways, each later one adds the sum
    before it, and the last is stored as the new state's ways.  A later old
    key of a walked line is gone, and its pop finds 0 (stored ways are
    never 0).  The first sum weights an old state t steps back by ``1 =
    comb(t, 0)``, and by the hockey-stick identity ``sum_{s=0..t}
    comb(s+i-2, i-2) = comb(t+i-1, i-1)`` the i-th weights it by
    ``comb(t+i-1, i-1)``, so the m-th gives exactly the ways of sending t
    units along m copies.  Every new state is stored once, with no lookup,
    and popping keeps the old frontier shrinking as the new one grows.

    No digit carries, because ``|c_k| < K`` for every coordinate ever
    stored.  By induction over vertices, the negative plus positive inflow
    committed to later vertices, plus the supply left at the current
    vertex, never exceeds ``a_1^+ + ... + a_v^+``: a vertex with supply
    ``s >= 0`` removes its own committed inflow ``N + P`` and sends out at
    most ``s = a_v + N - P``, a net change of at most ``a_v - 2P <= a_v^+``.
    So every committed coordinate and every supply inside a vertex is at
    most ``sum|a_i| < K`` in absolute value, and so is each arrival
    ``c + a_{v+1}``, including the one at ``last+1`` kept at any sign.

    Phi is read off the key with one ``%``.  Since ``B = 2K+1 = 1 (mod
    2K)``, ``key % 2K`` is the digit sum ``M + width*K`` mod 2K, where M is
    the coordinate sum and width the number of digits (``n+2-v`` inside
    vertex v).  The bound above gives ``|M| <= sum_k |c_k| <= a_1^+ + ... +
    a_v^+ < K`` inside a vertex (its supply is nonnegative there), so
    ``M = (key + off_v) % 2K - K`` exactly, with ``off_v = (K - width*K) %
    2K`` compiled once per vertex, and ``Phi = M + a_{v+1} + ... +
    a_{n+1}``.
    """
    n1 = graph.n_plus_1
    big = sum(abs(x) for x in a) + 1
    wrap = 2 * big
    radix = wrap + 1
    out_groups: dict[int, list[tuple[int, int, bool]]] = {}
    loop_mult: dict[int, int] = {}
    last_positive = 0  # v_p, the last vertex with a positive out-edge or loop
    for i, j, sign, m in graph.edges:  # sorted by i; every loop is positive
        positive = sign == POS
        if positive:
            last_positive = i
        if i == j:
            loop_mult[i] = loop_mult.get(i, 0) + m
        else:
            out_groups.setdefault(i, []).append(
                ((-1 if positive else 1) * radix ** (j - i) - 1, m, positive)
            )
    tail = sum(a)  # a_{v+1} + ... + a_{n+1} once vertex v is entered
    if not last_positive and tail:
        return {}

    frontier: dict[int, int] = {}
    if a[0] >= 0 or last == 0:
        # every digit holds its bias K; the supply digit adds a_1
        frontier[big * (radix**n1 - 1) // (radix - 1) + a[0]] = 1
    for v in range(1, last + 1):
        groups = out_groups.get(v, ())
        loops = loop_mult.get(v, 0)
        supply = a[v] if v < n1 else 0
        tail -= a[v - 1]
        # Phi = (key + off) % 2K + base for a key of n1-v+1 digits
        off = (big - (n1 - v + 1) * big) % wrap
        base = tail - big
        for delta, m, positive in groups if loops else groups[:-1]:
            # in key order along delta, the first old state met on a line is
            # its farthest back and so has the largest top; the walk from it
            # pops the rest of its line, whose pops then find 0
            nxt: dict[int, int] = {}
            pop = frontier.pop
            for key in sorted(frontier, reverse=delta < 0):
                acc = pop(key, 0)
                if not acc:
                    continue
                top = key % radix - big
                if positive:
                    top = min(top, ((key + off) % wrap + base) // 2)
                    if top < 0:
                        continue
                nxt[key] = acc
                if m == 1:  # one running sum needs no list
                    for state in range(key + delta, key + (top + 1) * delta, delta):
                        acc += pop(state, 0)
                        nxt[state] = acc
                else:
                    sums = [acc] * m
                    for state in range(key + delta, key + (top + 1) * delta, delta):
                        acc = pop(state, 0)
                        for i in range(m):
                            sums[i] = acc = sums[i] + acc
                        nxt[state] = acc
            frontier = nxt
        # the close drains the rest: the loops take two units per copy sent,
        # else the last out-group takes all of it, else none may be left
        # (every rest is below radix, so rest % radix is the rest itself)
        if loops:
            delta, m, positive, unit = 0, loops, True, 2
        elif groups:
            (delta, m, positive), unit = groups[-1], 1
        else:
            delta, m, positive, unit = 0, 1, False, radix
        at_vp = v == last_positive
        nxt = {}
        while frontier:
            key, ways = frontier.popitem()
            rem = key % radix - big
            if rem % unit:
                continue
            t = rem // unit
            if positive or at_vp:
                phi = (key + off) % wrap + base - (2 * t if positive else 0)
                if phi < 0 or phi and at_vp:  # Phi after the close
                    continue
            if m > 1:
                ways *= comb(t + m - 1, m - 1)
            # after vertex n+1 the key has one digit and the supply is 0
            state = (key + t * delta) // radix + supply
            if v < last and state % radix < big:  # negative arrival
                continue
            nxt[state] = nxt.get(state, 0) + ways
        frontier = nxt
    width = n1 - last
    out: dict[tuple[int, ...], int] = {}
    for key, ways in frontier.items():
        coords = []
        for _ in range(width):
            key, digit = divmod(key, radix)
            coords.append(digit - big)
        out[tuple(coords)] = ways
    return out


@lru_cache(maxsize=1)
def _fiber_states(
    head: SignedMultigraph, a: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """The fiber table of ``head`` at ``a``: a tuple of ``(L, cut, ways)``,
    ``ways`` counting the partial flows with ``L = Y_{n-1} + a_{n-1}`` and
    ``cut = max(0, -R)``, ``R = Y_n + a_n``, whose fiber on G keeps the
    members ``k = cut..L`` (it puts ``R + k`` on (n, n+1)).  The entries are
    sorted by ``(L, cut)``, so what reads the table, such as the refusal of
    ``partial_flows.count_via_partial``, does not depend on the order in
    which the DP stores its states.  One table, for the last head and
    netflow asked, shared by :func:`count` and ``count_via_partial``.

    It sums the ways of the states ``(L, Y_n, Y_{n+1})`` of
    ``_frontier(head, a, n-2)`` per ``(L, cut)``.  Where no state can have
    ``R < 0``, vertex n is folded into n+1 first: each head edge ``(i, n,
    s)`` is relabeled ``(i, n+1, s)``, and :func:`kpflows.graphs.build_graph`
    merges the copies of an edge.  The netflow stays as it is: the pass adds
    the supplies ``a_1..a_{n-1}`` only, and Phi reads ``a_n`` and
    ``a_{n+1}`` only through their sum.  The states are then ``(L, 0, Y_n +
    Y_{n+1})``, with the ways of the states that merge summed: one state per
    L, since ``Phi = 0`` below fixes ``Y_n + Y_{n+1} = -(L + a_n +
    a_{n+1})``; each gets ``cut = 0`` from ``a_n``, so the table is the same
    from fewer states (22 against 253 on the K_9 staircase).  This is exact:

    - the pass runs only vertices 1..n-2, so no coordinate from n-1 on is
      checked on arrival, and the fold keeps the supplies at 1..n-2, the
      tail sums behind Phi, each edge's sign and L;
    - so the folded DP's states are the images of the unfolded ones under
      ``(L, Y_n, Y_{n+1}) -> (L, 0, Y_n + Y_{n+1})``; where two copies of
      an edge group merge, Vandermonde's identity gives the same ways;
    - every returned state has ``Phi = 0``, since ``v_p <= n-2``, so its
      positive total is y and its positive inflow into n is at most y;
      ``Y_n >= -y`` if some head edge into n is positive, else ``Y_n >= 0``;
    - hence the fold condition ``a_n >= y`` (positive edge into n) or
      ``a_n >= 0`` (none) gives ``R >= 0``, so ``cut = 0``, for every state.

    Elsewhere, as on the mixed-sign band ``y = a_n + 1``, where the states
    with ``R < 0`` decide the violations, the pass runs unfolded.
    """
    n = head.n
    a_n = a[n - 1]
    positive_into_n = any(j == n and sign == POS for _, j, sign, _ in head.edges)
    if a_n >= (netflow_y(a) if positive_into_n else 0):
        head = build_graph(head.n_plus_1, head.kind, [
            (i, n + 1 if j == n else j, sign, m) for i, j, sign, m in head.edges])
    table: Counter[tuple[int, int]] = Counter()
    for (left, y_n, _), ways in _frontier(head, a, n - 2).items():
        table[left, max(0, -(y_n + a_n))] += ways
    return tuple((left, cut, ways) for (left, cut), ways in sorted(table.items()))


def count(graph: SignedMultigraph, a: Sequence[int]) -> int:
    """Number of nonnegative integer a-flows; equals brute_force_count always.

    A bottom-up dynamic program over edge groups, vertices in increasing
    label order (see :func:`_frontier`): after the layers of all ``n+1``
    vertices the frontier holds the single state ``()``, and its number of
    ways is the count.  There is no recursion, so a graph of any length is
    counted.

    When the edges out of n-1, n and n+1 are the unit triangle among them
    (every hypothesis graph G, every complete graph) or the unit pair into
    n+1 (G - (n-1, n)), the count is a sum over the fiber table of the
    head, the edges out of ``1..n-2`` (:func:`_fiber_states`): w partial
    flows with ``(L, cut)`` extend to ``w * max(0, L + 1 - cut)`` flows on
    the triangle, ``(k, L - k, R + k)`` for ``k = cut..L``, and to w flows
    on the pair (k = 0) if ``L >= 0`` and ``cut = 0``.  This is exact: no
    edge after n-2 is positive, so ``v_p <= n-2`` and every partial flow
    has ``Phi = 0``, which balances vertex n+1.  The counts of G and G -
    (n-1, n) of an identity check and the partial backend share one table.
    """
    if not _check_netflow(graph, a):
        return 0
    n, edges = graph.n, graph.edges
    triangle = tuple(e + (1,) for e in distinguished_edges(n))
    tail = tuple(e for e in edges if e[0] >= n - 1)
    if tail not in (triangle, triangle[1:]):
        return _frontier(graph, a, graph.n_plus_1).get((), 0)
    table = _fiber_states(graph._replace(edges=edges[: -len(tail)]), tuple(a))
    if tail == triangle:
        return sum(ways * max(0, left + 1 - cut) for left, cut, ways in table)
    return sum(ways for left, cut, ways in table if left >= 0 and not cut)
