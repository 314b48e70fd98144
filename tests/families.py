"""Seeded instance samplers shared by the unit and acceptance tests."""

import random

from kpflows import GraphKind, SignedMultigraph, Theorem, build_graph, generate_bv_family


def random_graph(rng: random.Random, kind: str, n_plus_1: int, max_mult: int = 2,
                 density: float = 0.55) -> SignedMultigraph:
    """Arbitrary (not hypothesis-constrained) graph for oracle comparisons."""
    edges = []
    for i in range(1, n_plus_1 + 1):
        for j in range(i, n_plus_1 + 1):
            if i == j:
                if kind == "C" and rng.random() < density / 2:
                    edges.append((i, i, "+", rng.randint(1, max_mult)))
                continue
            if rng.random() < density:
                edges.append((i, j, "-", rng.randint(1, max_mult)))
            if kind == "C" and rng.random() < density / 2:
                edges.append((i, j, "+", rng.randint(1, max_mult)))
    return build_graph(n_plus_1, kind, edges)


def random_netflow_a(rng: random.Random, n_plus_1: int, a_max: int = 4) -> tuple:
    head = [rng.randint(0, a_max) for _ in range(n_plus_1 - 1)]
    return tuple(head) + (-sum(head),)


def random_netflow_c(rng: random.Random, n_plus_1: int, a_max: int = 4,
                     y_max: int = 4) -> tuple:
    head = [rng.randint(0, a_max) for _ in range(n_plus_1 - 1)]
    y = rng.randint(0, y_max)
    return tuple(head) + (2 * y - sum(head),)


def identity_corpus(theorem: Theorem, instances: int, seed0: int = 0,
                    sizes=(4, 4, 5), max_mult: int = 2,
                    netflows_per_graph: int = 3, a_max: int = 3):
    """(graph, netflow) pairs whose graphs satisfy the requested hypothesis.

    For the mixed variant, y is drawn from 0..min(a_{n-1}+1, a_n+1) so the
    whole stated netflow domain (its boundary included) is exercised.
    """
    kind = theorem.kind
    pairs = []
    g_index = 0
    while len(pairs) < instances:
        n_plus_1 = sizes[g_index % len(sizes)]
        graph = generate_bv_family(n_plus_1, theorem, max_mult, seed0 + g_index)
        rng = random.Random(9_000_001 * (seed0 + g_index) + 7)
        n = graph.n
        for _ in range(netflows_per_graph):
            head = [rng.randint(0, a_max) for _ in range(n)]
            if kind is GraphKind.TYPE_A:
                a = tuple(head) + (-sum(head),)
            elif theorem is Theorem.TYPE_C_MIXED:
                y = rng.randint(0, min(head[n - 2], head[n - 1]) + 1)
                a = tuple(head) + (2 * y - sum(head),)
            else:
                y = rng.randint(0, a_max)
                a = tuple(head) + (2 * y - sum(head),)
            pairs.append((graph, a))
        g_index += 1
    return pairs[:instances]
