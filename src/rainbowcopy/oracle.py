"""Exact decision and counting of valid embeddings on small instances.

One depth-first search with an explicit stack, _search, maps graph vertices
in descending-degree order, each to the unused K_n vertices in ascending
order, and prunes an image as soon as a freshly mapped edge files a conflict
key that a mapped edge already holds; search_copy, exists_copy and
count_valid_embeddings all run it.  These are the ground truth for the
sampler.
"""

from __future__ import annotations

from .colouring import EdgeColouring, row_offsets
from .errors import CapacityError, DomainError
from .graph import Graph
from .sampler import Embedding

__all__ = [
    "exists_copy",
    "search_copy",
    "count_valid_embeddings",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10**8
COUNT_N_CAP = 8


def _search(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int, count_all: bool
) -> tuple[int, list[int], int]:
    """(count, image, nodes): the number of valid injections of g into K_n,
    and the nodes explored.  Unless count_all, the search stops at the first
    valid injection and leaves it in image.

    A mapped edge of colour c files the key c in rainbow mode, and the keys
    (c, u) and (c, v) at its ends u and v in proper mode; an image whose new
    edges would file a key twice is a conflict.  The search keeps its own
    stack of the keys each mapped vertex filed, so its depth is not bounded
    by the interpreter's recursion limit.  Each unused candidate image counts
    as one node, before the conflict test; the search raises CapacityError
    past node_budget nodes.  It explores about 0.6-0.9 M nodes per second
    under CPython 3.11 on one core of a shared x86 machine, so
    DEFAULT_NODE_BUDGET takes two to three minutes.
    """
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}")
    n = colouring.n
    if g.n_vertices > n:
        raise DomainError(f"cannot embed {g.n_vertices} vertices into K_{n}")
    order = sorted(range(g.n_vertices), key=lambda v: (-g.degrees[v], v))
    table, off = colouring.table, row_offsets(n)
    rank = {v: d for d, v in enumerate(order)}
    earlier = [[u for u in g.adjacency[v] if rank[u] < d] for d, v in enumerate(order)]
    # the conflict keys that an edge uv of colour c files
    rainbow = mode == "rainbow"
    keys_of = (lambda c, u, v: (c,)) if rainbow else (lambda c, u, v: ((c, u), (c, v)))
    image, used, keys = [0] * g.n_vertices, set(), set()
    filed: list[set] = []  # the keys filed by each mapped vertex, in order
    total = start = nodes = 0
    while True:
        depth = len(filed)
        if depth == len(order):
            total += 1
            if not count_all:
                return total, image, nodes
        else:
            v = order[depth]
            for w in range(start, n):
                if w in used:
                    continue
                nodes += 1
                if nodes > node_budget:
                    raise CapacityError(f"node budget {node_budget} exhausted")
                fresh = set()
                for u in earlier[depth]:
                    a = image[u]
                    filing = keys_of(table[off[w] + a] if w < a else table[off[a] + w], u, v)
                    if not (keys.isdisjoint(filing) and fresh.isdisjoint(filing)):
                        break  # a key filed twice: try the next image
                    fresh.update(filing)
                else:
                    break  # no conflict: map v to w
            else:
                fresh = None
            if fresh is not None:
                image[v] = w
                used.add(w)
                keys |= fresh
                filed.append(fresh)
                start = 0
                continue
        # backtrack: unmap the last mapped vertex and try its next image
        if not filed:
            return total, image, nodes
        keys.difference_update(filed.pop())
        w = image[order[len(filed)]]
        used.discard(w)
        start = w + 1


def search_copy(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Embedding | None, int]:
    """A valid embedding if one exists, else None, and the number of nodes
    the search explored.  Exhaustive; intended for small n."""
    found, image, nodes = _search(g, colouring, mode, node_budget, count_all=False)
    return (Embedding(tuple(image), mode) if found else None), nodes


def exists_copy(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> Embedding | None:
    """A valid embedding if one exists, else None; search_copy without the
    node count."""
    return search_copy(g, colouring, mode, node_budget)[0]


def count_valid_embeddings(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exact number of valid injections.  Guarded at n <= 8."""
    if colouring.n > COUNT_N_CAP:
        raise CapacityError(f"counting is capped at n <= {COUNT_N_CAP}, got {colouring.n}")
    return _search(g, colouring, mode, node_budget, count_all=True)[0]
