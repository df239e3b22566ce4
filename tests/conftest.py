"""Shared builders for randomized instances (all callers pass seeded rngs)."""

from __future__ import annotations

import random

from rainbowcopy import EdgeColouring, Graph


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
