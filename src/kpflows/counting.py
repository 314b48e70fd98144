"""Exact counting and enumeration of nonnegative integer flows.

The count of a netflow vector ``a`` on a graph G is the number of ways to
write ``a`` as a nonnegative integer combination of the roots attached to
G's edge copies.  Two independent algorithms are provided:

* :func:`brute_force_count` / :func:`enumerate_flows` — certified exhaustive
  enumeration by :func:`_walk`, which also lists the partial flows of
  :mod:`kpflows.partial_flows`.  It sets edge copies one at a time in
  canonical order, smallest value first, keeping its position in per-slot
  arrays, not on the call stack.  Three prunes, each cutting only branches
  that hold no flow, so the lexicographic order is unchanged:

  - *weighted budget*: under ``w_i = n+2-i`` every root has weight >= 1, so
    any flow b satisfies ``sum(b) <= w . a``;
  - *supply bound*: once every slot with smaller endpoint below i is set,
    coordinate i holds its supply s_i, and every later slot touching i is
    out of i with a positive coefficient cf, so it can only lower s_i to its
    required 0; hence ``s_i < 0`` is dead and a slot out of i takes at most
    ``residual_i // cf``;
  - *forced last slot*: no slot after the last one out of i touches i, so
    that slot must take exactly ``residual_i / cf``, and a remainder is dead.
* :func:`count` — a bottom-up dynamic program over edge groups (vertices in
  increasing label order, each vertex's out-groups in canonical order).  Its
  frontier of residual states merges the partial assignments that agree on
  everything later edges can see; it never materializes flows and has no
  recursion.  The layer loop is :func:`_frontier`, which can stop after any
  vertex; the partial-flow fibration is read off it after vertex n-2.  Inside
  the loop each state is packed into one integer, one biased digit per
  coordinate in a radix derived from ``sum|a_i|``, and each edge group is one
  precompiled integer delta; only the returned frontier is decoded to tuples.
  States that have placed more positive flow than ``y = sum(a)/2`` (type C)
  are cut, and after the last positive source the positive total must be y.

All arithmetic is exact (Python integers); counts grow super-exponentially
and must not be truncated.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import islice
from math import comb

from .errors import DimensionMismatch, LimitExceeded
from .graphs import NEG, POS, Edge, GraphKind, SignedMultigraph, _is_int, root_of_edge

FlowVector = tuple[int, ...]


def _check_netflow(graph: SignedMultigraph, a: Sequence[int]) -> None:
    """The package's one netflow validator: one integer per vertex, and a
    boolean is not an integer here."""
    if len(a) != graph.n_plus_1:
        raise DimensionMismatch(
            f"netflow has length {len(a)}, graph has {graph.n_plus_1} vertices"
        )
    for x in a:
        if not _is_int(x):
            raise DimensionMismatch(f"netflow entries must be integers, got {x!r}")


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


def _combination_holds(
    slots: Sequence[Edge], f: Sequence[int], a: Sequence[int]
) -> bool:
    """Defining form: the b-weighted sum of edge roots equals ``a``."""
    n1 = len(a)
    acc = [0] * n1
    for (i, j, sign), b in zip(slots, f):
        root = root_of_edge(i, j, sign, n1)
        acc[i - 1] += b * root[i - 1]
        if j != i:
            acc[j - 1] += b * root[j - 1]
    return all(acc[v] == a[v] for v in range(n1))


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
    slots = graph.edge_slots()
    by_vertex = _conservation_holds(slots, f, a)
    by_roots = _combination_holds(slots, f, a)
    if by_vertex != by_roots:  # pragma: no cover - internal consistency
        raise RuntimeError("flow-check formulations disagree; please report")
    return by_vertex


def _walk(
    graph: SignedMultigraph,
    a: Sequence[int],
    m: int,
    y_target: int | None = None,
) -> Iterator[FlowVector]:
    """Nonnegative slot vectors whose root combination matches ``a`` on
    coordinates ``1..m``, in lexicographic order.

    With ``m = n+1`` these are the flows; with ``m = n-2`` on H they are the
    partial flows, and ``y_target``, if given, pins their total flow on
    positive slots (loops included).  Every slot's smaller endpoint must lie
    in ``1..m``.  A depth-first walk over edge copies in canonical order,
    kept on per-slot arrays instead of the call stack, with the weighted
    budget, the supply bound and the forced last slot of the module
    docstring as its prunes.
    """
    n1 = graph.n_plus_1
    slots = graph.edge_slots()
    n_slots = len(slots)
    u = [n1 - k if k < m else 0 for k in range(n1)]
    left = sum(u[k] * a[k] for k in range(m))  # the budget, less what is set
    if left < 0:
        return
    roots = [root_of_edge(i, j, sign, n1) for i, j, sign in slots]
    entries = [tuple((k, cf) for k, cf in enumerate(r[:m]) if cf) for r in roots]
    weight = [sum(cf * uk for cf, uk in zip(r, u)) for r in roots]
    src = [i - 1 for i, _, _ in slots]
    step = [r[s] for r, s in zip(roots, src)]  # the coefficient at the source
    forced = [s != nxt for s, nxt in zip(src, src[1:] + [-1])]
    # the first slot out of a source checks that the coordinates since the
    # previous source are zero (that source's own was zeroed by its forced
    # slot) and that its supply is nonnegative
    gate = [(p + 1, s) if s != p else None for s, p in zip(src, [-1] + src)]
    pinned = [y_target is not None and sign == POS for _, _, sign in slots]
    residual = list(a[:m])
    buf = [0] * n_slots
    pos_used = 0  # flow on pinned slots so far, at most y_target
    t = 0
    while True:
        # slot t is entered with buf[t] = 0
        if t == n_slots:
            if not any(residual) and (y_target is None or pos_used == y_target):
                yield tuple(buf)
        elif (g := gate[t]) is None or (
            not any(residual[g[0]:g[1]]) and residual[src[t]] >= 0
        ):
            if not forced[t]:
                t += 1
                continue
            v, r = divmod(residual[src[t]], step[t])
            if (
                not r
                and v * weight[t] <= left
                and not (pinned[t] and pos_used + v > y_target)
            ):
                buf[t] = v
                for k, cf in entries[t]:
                    residual[k] -= cf * v
                if pinned[t]:
                    pos_used += v
                left -= v * weight[t]
                t += 1
                continue
        # backtrack to the deepest slot whose value can still grow
        t -= 1
        while t >= 0:
            if (
                not forced[t]
                and residual[src[t]] >= step[t]
                and weight[t] <= left
                and not (pinned[t] and pos_used == y_target)
            ):
                buf[t] += 1
                for k, cf in entries[t]:
                    residual[k] -= cf
                if pinned[t]:
                    pos_used += 1
                left -= weight[t]
                t += 1
                break
            for k, cf in entries[t]:
                residual[k] += cf * buf[t]
            if pinned[t]:
                pos_used -= buf[t]
            left += buf[t] * weight[t]
            buf[t] = 0
            t -= 1
        if t < 0:
            return


def brute_force_count(graph: SignedMultigraph, a: Sequence[int]) -> int:
    """Ground-truth count by exhaustive enumeration; exponential time."""
    _check_netflow(graph, a)
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
    _check_netflow(graph, a)
    if limit is not None and (not _is_int(limit) or limit < 1):
        raise ValueError(f"limit must be a positive integer or None, got {limit!r}")
    walk = _walk(graph, a, graph.n_plus_1)
    out = list(islice(walk, limit))
    if require_complete and limit is not None and next(walk, None) is not None:
        raise LimitExceeded(
            f"more than {limit} flows exist but completeness was requested"
        )
    return out


def _grow_weights(weights: list[int], m: int, top: int) -> None:
    """Extend ``weights[t] = comb(t+m-1, m-1)`` through ``t = top``."""
    for t in range(len(weights), top + 1):
        weights.append(weights[-1] * (t + m - 1) // t)


def _frontier(
    graph: SignedMultigraph, a: Sequence[int], last: int
) -> dict[tuple[int, ...], int]:
    """Run the edge-group layers of vertices ``1..last``; return the frontier.

    The frontier maps a state to the number of ways of reaching it; a state
    entering vertex v is the flat tuple ``(supply left at v, committed
    inflow of v+1, ..., of n+1)``, where the supply is ``a_v`` plus negative
    inflow minus positive inflow.  Each out-group ``(v, j, sign)`` of
    multiplicity m sends ``t = 0..supply`` units (fewer on a positive edge,
    see below) into coordinate j in ``comb(t+m-1, m-1)`` ways, and equal
    states merge; the last group of a loopless vertex takes whatever is
    left.  Loops then drain the rest two
    units at a time (none may be left without loops).  States with negative
    supply die on arrival at vertices ``1..last``; the arrival at
    ``last+1``, the first coordinate of every returned state, is kept
    whatever its sign.  With ``last = n+1`` the only state is ``()``.

    The positive-flow budget cuts the states that can reach no flow.  Let
    ``Phi`` be the sum of a state's coordinates plus ``a_{v+1} + ... +
    a_{n+1}``, i.e. ``sum(a)`` minus twice the positive flow placed so far
    (positive roots and loops sum to 2, negative roots to 0).  A negative
    edge leaves Phi unchanged, a positive edge or a loop lowers it by 2 per
    unit, and every flow ends at ``Phi = 0``; so a state with ``Phi < 0`` is
    dead.  With v_p the last vertex with a positive out-edge or a loop:

    - a positive out-group sends at most ``min(supply, Phi // 2)`` units,
      since more would make Phi negative;
    - a closing positive group sending the rest dies if ``2*rest > Phi``,
      for the same reason;
    - loops draining the rest die if ``rest > Phi``, for the same reason;
    - nothing after the last positive group of v_p (or after its loops)
      changes Phi, so there Phi must already be 0: that group sends exactly
      ``Phi / 2`` units, and every state from the close of v_p on has
      ``Phi = 0``; without any positive source Phi never moves, and the
      frontier is empty unless ``sum(a) = 0``.

    Negative groups check nothing, so type A counts do no extra work.  The
    cuts drop only states that lead to no flow, and every state returned
    for ``last >= v_p`` has ``Phi = 0``.

    Inside the loop a state is one integer: coordinate k (the supply is
    k = 0) is digit k in radix ``B = 2K+1``, stored as ``c_k + K`` with
    ``K = sum|a_i| + 1``.  Sending t units along an out-group is then
    ``key + t*delta`` with the group's precompiled
    ``delta = step*B**(j-v) - 1`` (step +1 for a negative edge, -1 for a
    positive one), and closing a vertex drops the lowest digit with
    ``key // B``.  Only the returned frontier is decoded to tuples.

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
    out_groups: dict[int, list[tuple[int, int, list[int], bool]]] = {}
    loop_mult: dict[int, int] = {}
    last_positive = 0  # v_p, the last vertex with a positive out-edge or loop
    for i, j, sign, m in graph.edges:  # sorted by i; every loop is positive
        positive = sign == POS
        if positive:
            last_positive = i
        if i == j:
            loop_mult[i] = loop_mult.get(i, 0) + m
        else:
            # weights[t] = comb(t+m-1, m-1), grown by _grow_weights on demand
            out_groups.setdefault(i, []).append(
                ((-1 if positive else 1) * radix ** (j - i) - 1, m, [1], positive)
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
        # the last group of a loopless vertex takes the whole rest, which
        # leaves the supply digit at its bias, and closes the vertex at once
        closing = len(groups) - 1 if groups and not loops else -1
        # at v_p, Phi must reach 0 in its last positive group or its loops
        exact = -1
        if v == last_positive and not loops:
            exact = max(k for k, g in enumerate(groups) if g[3])
        for idx, (delta, m, weights, positive) in enumerate(groups):
            nxt: dict[int, int] = {}
            if idx == closing:
                while frontier:
                    key, ways = frontier.popitem()
                    rem = key % radix - big
                    if positive:
                        phi = (key + off) % wrap + base - 2 * rem
                        if phi < 0 or phi and idx == exact:
                            continue
                    if m > 1:
                        if rem >= len(weights):
                            _grow_weights(weights, m, rem)
                        ways *= weights[rem]
                    state = (key + rem * delta) // radix + supply
                    if v < last and state % radix < big:  # negative arrival
                        continue
                    nxt[state] = nxt.get(state, 0) + ways
            elif idx == exact:
                while frontier:
                    key, ways = frontier.popitem()
                    t, odd = divmod((key + off) % wrap + base, 2)
                    if odd or not 0 <= t <= key % radix - big:
                        continue
                    if t >= len(weights):
                        _grow_weights(weights, m, t)
                    state = key + t * delta
                    nxt[state] = nxt.get(state, 0) + ways * weights[t]
            elif positive:
                while frontier:
                    key, ways = frontier.popitem()
                    top = min(key % radix - big, ((key + off) % wrap + base) // 2)
                    if top >= len(weights):
                        _grow_weights(weights, m, top)
                    for state, w in zip(
                        range(key, key + (top + 1) * delta, delta), weights
                    ):
                        nxt[state] = nxt.get(state, 0) + ways * w
            elif m > 1:
                while frontier:
                    key, ways = frontier.popitem()
                    rem = key % radix - big
                    if rem >= len(weights):
                        _grow_weights(weights, m, rem)
                    for state, w in zip(
                        range(key, key + (rem + 1) * delta, delta), weights
                    ):
                        nxt[state] = nxt.get(state, 0) + ways * w
            else:
                while frontier:
                    key, ways = frontier.popitem()
                    rem = key % radix - big
                    for state in range(key, key + (rem + 1) * delta, delta):
                        nxt[state] = nxt.get(state, 0) + ways
            frontier = nxt
        if closing >= 0:
            continue
        nxt = {}
        while frontier:
            key, ways = frontier.popitem()
            rem = key % radix - big
            if loops:
                phi = (key + off) % wrap + base - rem  # Phi after the loops
                if rem % 2 or phi < 0 or phi and v == last_positive:
                    continue
                ways *= comb(rem // 2 + loops - 1, loops - 1)
            elif rem:
                continue
            if v < n1:
                state = key // radix + supply
                if v < last and state % radix < big:  # negative arrival
                    continue
            else:
                state = 0
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


def count(graph: SignedMultigraph, a: Sequence[int]) -> int:
    """Number of nonnegative integer a-flows; equals brute_force_count always.

    A bottom-up dynamic program over edge groups, vertices in increasing
    label order (see :func:`_frontier`): after the layers of all ``n+1``
    vertices the frontier holds the single state ``()``, and its number of
    ways is the count.  There is no recursion, so a graph of any length is
    counted.  ``partial_flows.count_via_partial`` stops the same DP after
    vertex ``n-2`` and reads the partial-flow fibration off its frontier.
    """
    _check_netflow(graph, a)
    total = sum(a)
    if graph.kind is GraphKind.TYPE_A and total != 0:
        return 0
    if graph.kind is GraphKind.TYPE_C and (total < 0 or total % 2):
        return 0
    return _frontier(graph, a, graph.n_plus_1).get((), 0)
