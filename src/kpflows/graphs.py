"""Signed multigraphs whose edges encode type A / type C root vectors.

Vertices are labeled 1..n+1.  An edge is a triple ``(i, j, sign)`` with
``1 <= i <= j <= n+1`` and ``sign`` one of ``"-"`` / ``"+"``; parallel copies
are recorded as multiplicities.  Each edge carries a root vector:

* ``(i, j, "-")`` with i < j:  ``e_i - e_j``
* ``(i, j, "+")`` with i < j:  ``e_i + e_j``
* ``(i, i, "+")`` (a loop):    ``2 e_i``

Type A graphs admit only negative non-loop edges; type C graphs additionally
admit positive edges and positive loops.  Negative loops are never allowed.
The edge multiset has a canonical order, sorted by ``(i, j, sign)`` with
``"-"`` before ``"+"``, so that flow vectors index edge copies reproducibly.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .errors import HypothesisUnmet, InvalidEdge, KindViolation, MissingEdge

if TYPE_CHECKING:  # fractions loads decimal; only two functions build a Fraction
    from fractions import Fraction

NEG = "-"
POS = "+"

Edge = tuple[int, int, str]


class GraphKind(str, enum.Enum):
    TYPE_A = "A"
    TYPE_C = "C"


class Theorem(enum.Enum):
    """Hypothesis variants for the divisibility identities.

    TYPE_A            -- type A graphs, three unit edges among the last three
                         vertices and a common ratio constant c.
    TYPE_C_NEGATIVE   -- type C graphs with no positive edge incident to any
                         of the last three vertices.
    TYPE_C_MIXED      -- type C graphs with positive edges allowed up to the
                         last three vertices (but not among them), the ratio
                         constant shared by both signs.

    The enum values double as the identifiers used in CLI flags and JSON.
    """

    TYPE_A = "a"
    TYPE_C_NEGATIVE = "c31"
    TYPE_C_MIXED = "c32"

    @property
    def kind(self) -> GraphKind:
        """The graph kind the variant's hypothesis asks for."""
        return GraphKind.TYPE_A if self is Theorem.TYPE_A else GraphKind.TYPE_C


def _is_int(x: object) -> bool:
    """An integer that is not a boolean (``True`` is an ``int`` in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


class SignedMultigraph(NamedTuple):
    """Immutable signed multigraph on vertices 1..n_plus_1.

    ``edges`` holds ``(i, j, sign, mult)`` entries with ``mult >= 1``, sorted
    canonically.  Construct through :func:`build_graph`, which validates the
    kind invariants.
    """

    n_plus_1: int
    kind: GraphKind
    edges: tuple[tuple[int, int, str, int], ...]

    @property
    def n(self) -> int:
        return self.n_plus_1 - 1

    @property
    def num_edges(self) -> int:
        """Total number of edge copies (the multiset size N)."""
        return sum(m for _, _, _, m in self.edges)

    def multiplicity(self, i: int, j: int, sign: str) -> int:
        for a, b, s, m in self.edges:
            if (a, b, s) == (i, j, sign):
                return m
        return 0

    def edge_slots(self) -> tuple[Edge, ...]:
        """Edge copies in canonical order; flows are indexed against this."""
        slots: list[Edge] = []
        for i, j, sign, m in self.edges:
            slots.extend([(i, j, sign)] * m)
        return tuple(slots)

    def to_json_dict(self) -> dict:
        return {
            "n_plus_1": self.n_plus_1,
            "kind": self.kind.value,
            "edges": [
                {"i": i, "j": j, "sign": sign, "mult": m}
                for i, j, sign, m in self.edges
            ],
        }

    @staticmethod
    def from_json_dict(obj: object) -> "SignedMultigraph":
        """Parse the graph JSON schema.

        Checks only the document's shape: an object with ``n_plus_1``,
        ``kind`` ``"A"`` or ``"C"`` and an ``edges`` list whose entries are
        objects with ``i``, ``j``, ``sign`` and ``mult``.  The values go to
        :func:`build_graph`, which checks them and names the offending entry
        (``edges[k].sign``, ``n_plus_1``, ...).  A malformed document raises
        ``ValueError`` (:class:`InvalidEdge` is one), an edge the kind
        forbids :class:`KindViolation`.
        """
        if not isinstance(obj, dict):
            raise ValueError("graph JSON must be an object")
        for field in ("n_plus_1", "kind", "edges"):
            if field not in obj:
                raise ValueError(f"graph JSON is missing field '{field}'")
        kind = obj["kind"]
        if kind not in ("A", "C"):
            raise ValueError("graph JSON field 'kind' must be \"A\" or \"C\"")
        raw_edges = obj["edges"]
        if not isinstance(raw_edges, list):
            raise ValueError("graph JSON field 'edges' must be a list")
        edges = []
        for idx, entry in enumerate(raw_edges):
            if not isinstance(entry, dict):
                raise ValueError(f"edges[{idx}] must be an object")
            for field in ("i", "j", "sign", "mult"):
                if field not in entry:
                    raise ValueError(f"edges[{idx}] is missing field '{field}'")
            edges.append((entry["i"], entry["j"], entry["sign"], entry["mult"]))
        return build_graph(obj["n_plus_1"], GraphKind(kind), edges)


def build_graph(
    n_plus_1: int,
    kind: GraphKind | str,
    edges: Iterable[tuple[int, int, str, int]],
) -> SignedMultigraph:
    """Build a graph from (i, j, sign, multiplicity) entries.

    The one place where graph values are checked, repeated listings of an
    edge are merged (their multiplicities sum), multiplicity-0 entries are
    dropped and the edges are put in canonical order; the JSON loader, the
    generator and the fibration's fold all build through it.  Raises
    :class:`InvalidEdge` for a bad vertex count, endpoint, sign or
    multiplicity and :class:`KindViolation` for an edge the declared kind
    forbids; the message names the entry as listed, e.g. ``edges[0].sign``.
    """
    if not _is_int(n_plus_1) or n_plus_1 < 1:
        raise InvalidEdge(f"n_plus_1 must be a positive integer, got {n_plus_1!r}")
    kind = GraphKind(kind)
    mult: dict[Edge, int] = {}
    for k, (i, j, sign, m) in enumerate(edges):
        if not _is_int(i) or not 1 <= i <= n_plus_1:
            raise InvalidEdge(f"edges[{k}].i must be an integer in 1..{n_plus_1}, got {i!r}")
        if not _is_int(j) or not i <= j <= n_plus_1:
            raise InvalidEdge(f"edges[{k}].j must be an integer in {i}..{n_plus_1}, got {j!r}")
        if sign not in (NEG, POS):
            raise InvalidEdge(f"edges[{k}].sign must be '-' or '+', got {sign!r}")
        if not _is_int(m) or m < 0:
            raise InvalidEdge(f"edges[{k}].mult must be a nonnegative integer, got {m!r}")
        if kind is GraphKind.TYPE_A and (i == j or sign == POS):
            what = "loops" if i == j else "positive edges"
            raise KindViolation(f"edges[{k}]: type A forbids {what}: ({i},{j},{sign})")
        if i == j and sign == NEG:
            raise KindViolation(f"edges[{k}]: loops must be positive: ({i},{j},{sign})")
        if m:
            mult[i, j, sign] = mult.get((i, j, sign), 0) + m
    # canonical order: by (i, j), then "-" before "+" (ASCII puts "+" first)
    order = sorted(mult, key=lambda e: (e[0], e[1], e[2] == POS))
    return SignedMultigraph(n_plus_1, kind, tuple((*e, mult[e]) for e in order))


def complete_type_a(n_plus_1: int) -> SignedMultigraph:
    """Complete type A graph: one negative edge per pair i < j."""
    return build_graph(
        n_plus_1,
        GraphKind.TYPE_A,
        [(i, j, NEG, 1) for i in range(1, n_plus_1) for j in range(i + 1, n_plus_1 + 1)],
    )


def root_of_edge(i: int, j: int, sign: str, n_plus_1: int) -> tuple[int, ...]:
    """Root vector attached to one edge, as a plain integer tuple."""
    coords = [0] * n_plus_1
    if i == j:
        coords[i - 1] = 2
    elif sign == NEG:
        coords[i - 1] = 1
        coords[j - 1] = -1
    else:
        coords[i - 1] = 1
        coords[j - 1] = 1
    return tuple(coords)


def root_multiset(graph: SignedMultigraph) -> list[tuple[int, ...]]:
    """Roots of all edge copies, in canonical edge order."""
    return [root_of_edge(i, j, sign, graph.n_plus_1) for i, j, sign in graph.edge_slots()]


def delete_edges(
    graph: SignedMultigraph, to_remove: Sequence[Edge]
) -> SignedMultigraph:
    """Remove one copy per listed edge; :class:`MissingEdge` if none is left."""
    mult = {(i, j, s): m for i, j, s, m in graph.edges}
    for slot in to_remove:
        i, j, sign = slot
        have = mult.get((i, j, sign), 0)
        if have < 1:
            raise MissingEdge(f"no copy of edge ({i},{j},{sign}) left to delete")
        mult[(i, j, sign)] = have - 1
    return build_graph(graph.n_plus_1, graph.kind, [(*e, m) for e, m in mult.items()])


def is_connected(graph: SignedMultigraph) -> bool:
    """Connectivity of the underlying undirected multigraph, signs ignored."""
    n1 = graph.n_plus_1
    adj: dict[int, set[int]] = {v: set() for v in range(1, n1 + 1)}
    for i, j, _sign, _m in graph.edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n1


class BVCondition(NamedTuple):
    """Outcome of the structural hypothesis check for one theorem variant.

    ``c`` is the exact common ratio shared by all nonzero rows, or ``None``
    when no row constrains it ("unconstrained", e.g. on three vertices).
    ``satisfied`` implies ``failures`` is empty.
    """

    theorem: Theorem
    satisfied: bool
    c: Fraction | None
    failures: tuple[str, ...]

    @property
    def unconstrained(self) -> bool:
        return self.satisfied and self.c is None


def distinguished_edges(n: int) -> tuple[Edge, Edge, Edge]:
    """The three negative edges among the last three vertices, pinned at
    multiplicity one by every hypothesis variant."""
    return ((n - 1, n, NEG), (n - 1, n + 1, NEG), (n, n + 1, NEG))


def bv_hypothesis(graph: SignedMultigraph, theorem: Theorem) -> BVCondition:
    """Check the hypothesis of one divisibility-identity variant.

    Verifies connectivity, unit multiplicity on the three distinguished
    edges, the sign restrictions of the variant, and that every nonzero row
    ``(m[j,n-1], m[j,n], m[j,n+1])`` for j in [n-2] (per sign where signs are
    mixed) shares the exact ratio ``(m1+m2+m3)/m1 = c``.  Rows that are all
    zero are vacuous.  Problems are reported as failures; only a graph on
    fewer than 3 vertices raises :class:`HypothesisUnmet`.
    """
    if graph.n_plus_1 < 3:
        raise HypothesisUnmet("hypothesis checks need at least 3 vertices")
    theorem = Theorem(theorem)
    n = graph.n
    top = (n - 1, n, n + 1)
    failures: list[str] = []

    if graph.kind is not theorem.kind:
        failures.append(
            f"graph kind {graph.kind.value} does not match theorem {theorem.value}"
        )

    if not is_connected(graph):
        failures.append("graph is not connected")

    for u, v, sign in distinguished_edges(n):
        m = graph.multiplicity(u, v, sign)
        if m != 1:
            failures.append(f"multiplicity of ({u},{v},-) is {m}, expected 1")

    if theorem is Theorem.TYPE_C_NEGATIVE:
        for i, j, sign, _m in graph.edges:
            if sign == POS and (i in top or j in top):
                failures.append(
                    f"positive edge ({i},{j}) touches one of vertices {top}"
                )
    elif theorem is Theorem.TYPE_C_MIXED:
        for i, j, sign, _m in graph.edges:
            if sign == POS and i in top and j in top:
                failures.append(
                    f"positive edge ({i},{j}) lies among vertices {top}"
                )

    from fractions import Fraction

    signs = (NEG, POS) if theorem is Theorem.TYPE_C_MIXED else (NEG,)
    c: Fraction | None = None
    for j in range(1, n - 1):
        for sign in signs:
            row = tuple(graph.multiplicity(j, v, sign) for v in top)
            if row == (0, 0, 0):
                continue
            if row[0] == 0:
                failures.append(
                    f"row j={j} sign {sign}: multiplicity toward vertex {top[0]} "
                    "is 0 while the row is not all zero"
                )
                continue
            ratio = Fraction(sum(row), row[0])
            if c is None:
                c = ratio
            elif ratio != c:
                failures.append(f"row j={j} sign {sign}: ratio {ratio} != {c}")

    return BVCondition(
        theorem=theorem, satisfied=not failures, c=c, failures=tuple(failures)
    )


def necessary_feasible_a(a: Sequence[int]) -> bool:
    """Cheap necessary condition for a nonzero type A count: every prefix sum
    of ``a`` is nonnegative and the total is zero.  Not sufficient."""
    if len(a) < 1:
        raise ValueError("netflow must have length >= 1")
    running = 0
    for x in a[:-1]:
        running += x
        if running < 0:
            return False
    return running + a[-1] == 0


def netflow_y(a: Sequence[int]) -> int | None:
    """Half the coordinate sum (the type C positive-flow total), or None when
    the sum is odd."""
    total = sum(a)
    if total % 2:
        return None
    return total // 2

