"""Shared builders for randomized instances (all callers pass seeded rngs)."""

from __future__ import annotations

import random
from array import array
from itertools import permutations

from rainbowcopy import CanonicalEvent, DomainError, EdgeColouring, Graph

TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])
# exactly one monochromatic pair of edges in K_4, and it is disjoint
# colours of the K_4 edges 01, 02, 03, 12, 13, 23 (lexicographic order)
ONE_MONO_DISJOINT = EdgeColouring(4, [0, 1, 2, 3, 4, 0])


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.4,
                 max_degree: int | None = None) -> Graph:
    """Random simple graph; optionally rejects edges that would push a
    vertex past max_degree."""
    deg = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
                continue
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(n, edges)


def random_colouring(rng: random.Random, n: int, n_colours: int) -> EdgeColouring:
    """Uniform random colour per edge from a palette of n_colours, drawn in
    lexicographic edge order."""
    return EdgeColouring(n, [rng.randrange(n_colours) for _ in range(n * (n - 1) // 2)])


def constant_colouring(n: int) -> EdgeColouring:
    """Monochromatic colouring of K_n, every edge of colour 0."""
    return EdgeColouring(n, array("i", [0]) * (n * (n - 1) // 2))


def distinct_colouring(n: int) -> EdgeColouring:
    """All edges receive pairwise different colours."""
    return EdgeColouring(n, array("i", range(n * (n - 1) // 2)))


def adjacency_from_edges(n: int, edges) -> tuple[frozenset[int], ...]:
    """Symmetric adjacency over vertices 0..n-1, in the form that
    events.intersection_graph returns; a self-loop is a DomainError."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i == j:
            raise DomainError(f"self-loop at {i}")
        adj[i].add(j)
        adj[j].add(i)
    return tuple(frozenset(s) for s in adj)


def random_clique_cover(rng: random.Random, adj, closed) -> list[list[int]]:
    """Random cover of a closed neighbourhood by cliques of the graph."""
    uncovered = set(closed)
    cover = []
    while uncovered:
        v = rng.choice(sorted(uncovered))
        clique = [v]
        candidates = [w for w in closed if w != v]
        rng.shuffle(candidates)
        for w in candidates:
            if all(w in adj[u] for u in clique):
                clique.append(w)
        cover.append(clique)
        uncovered -= set(clique)
    return cover


def count_injections_in_event(event: CanonicalEvent, g_size: int, n: int) -> int:
    """Number of injections of g_size vertices into K_n that extend the
    event's partial map, by testing every injection; for n <= 8 only."""
    assert n <= 8, f"brute-force counting is for n <= 8, got {n}"
    pmap = event.partial_map()
    assert all(v < g_size for v in pmap) and all(w < n for w in pmap.values())
    return sum(all(sigma[v] == w for v, w in pmap.items())
               for sigma in permutations(range(n), g_size))
