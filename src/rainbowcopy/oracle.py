"""Exact decision and counting of valid embeddings on small instances.

Backtracking assigns graph vertices in descending-degree order and prunes
as soon as a freshly mapped edge collides in colour with an already mapped
one (adjacent edges only, in proper mode).  These are the ground truth for
the sampler and for the event-probability cross-checks.
"""

from __future__ import annotations

from itertools import permutations

from .colouring import EdgeColouring, row_offsets
from .errors import CapacityError, DomainError
from .events import CanonicalEvent
from .graph import Graph
from .sampler import Embedding

__all__ = [
    "exists_copy",
    "count_valid_embeddings",
    "count_injections_in_event",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10**8
COUNT_N_CAP = 8


class _Backtracker:
    def __init__(self, g: Graph, colouring: EdgeColouring, mode: str, node_budget: int):
        if mode not in ("proper", "rainbow"):
            raise DomainError(f"unknown mode {mode!r}")
        if g.n_vertices > colouring.n:
            raise DomainError(f"cannot embed {g.n_vertices} vertices into K_{colouring.n}")
        self.g = g
        self.colouring = colouring
        self.table, self.off = colouring.table, row_offsets(colouring.n)
        self.mode = mode
        self.node_budget = node_budget
        self.nodes = 0
        self.order = sorted(range(g.n_vertices), key=lambda v: (-g.degrees[v], v))
        self.image: dict[int, int] = {}
        self.used: set[int] = set()
        # proper: colours of mapped edges at each graph vertex
        self.colours_at: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
        # rainbow: colours of all mapped edges
        self.used_colours: set[int] = set()

    def _edge_colour(self, w1: int, w2: int) -> int:
        return self.table[self.off[w1] + w2] if w1 < w2 else self.table[self.off[w2] + w1]

    def _try_assign(self, v: int, w: int) -> list[tuple[int, int, int]] | None:
        """Map v to w; return the new (u, v, colour) records, or None on a
        colour conflict (nothing committed in that case)."""
        added: list[tuple[int, int, int]] = []
        for u in self.g.adjacency[v]:
            if u not in self.image:
                continue
            c = self._edge_colour(w, self.image[u])
            if self.mode == "rainbow":
                if c in self.used_colours:
                    ok = False
                else:
                    self.used_colours.add(c)
                    ok = True
            else:
                if c in self.colours_at[u] or c in self.colours_at[v]:
                    ok = False
                else:
                    self.colours_at[u].add(c)
                    self.colours_at[v].add(c)
                    ok = True
            if not ok:
                self._undo(added)
                return None
            added.append((u, v, c))
        self.image[v] = w
        self.used.add(w)
        return added

    def _undo(self, added: list[tuple[int, int, int]]) -> None:
        for u, v, c in added:
            if self.mode == "rainbow":
                self.used_colours.discard(c)
            else:
                self.colours_at[u].discard(c)
                self.colours_at[v].discard(c)

    def _unassign(self, v: int, added: list[tuple[int, int, int]]) -> None:
        self.used.discard(self.image.pop(v))
        self._undo(added)

    def search(self, depth: int, count_all: bool) -> int:
        """Number of valid completions below this node; stops at the first
        one unless count_all."""
        if depth == len(self.order):
            return 1
        v = self.order[depth]
        total = 0
        for w in range(self.colouring.n):
            if w in self.used:
                continue
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise CapacityError(f"node budget {self.node_budget} exhausted")
            added = self._try_assign(v, w)
            if added is None:
                continue
            total += self.search(depth + 1, count_all)
            if total and not count_all:
                return total
            self._unassign(v, added)
        return total

    def first_embedding(self) -> Embedding | None:
        if self.search(0, count_all=False):
            return Embedding(
                tuple(self.image[v] for v in range(self.g.n_vertices)), self.mode
            )
        return None


def exists_copy(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> Embedding | None:
    """A valid embedding if one exists, else None.  Exhaustive; intended
    for small n."""
    return _Backtracker(g, colouring, mode, node_budget).first_embedding()


def count_valid_embeddings(
    g: Graph, colouring: EdgeColouring, mode: str, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exact number of valid injections.  Guarded at n <= 8."""
    if colouring.n > COUNT_N_CAP:
        raise CapacityError(f"counting is capped at n <= {COUNT_N_CAP}, got {colouring.n}")
    return _Backtracker(g, colouring, mode, node_budget).search(0, count_all=True)


def count_injections_in_event(event: CanonicalEvent, g_size: int, n: int) -> int:
    """Number of injections of g_size vertices into K_n extending the
    event's partial map, by brute-force membership testing."""
    if n > COUNT_N_CAP:
        raise CapacityError(f"event counting is capped at n <= {COUNT_N_CAP}, got {n}")
    pmap = event.partial_map()
    if any(v >= g_size for v in pmap) or any(w >= n for w in pmap.values()):
        raise DomainError("event does not fit the requested injection space")
    hits = 0
    for sigma in permutations(range(n), g_size):
        if all(sigma[v] == w for v, w in pmap.items()):
            hits += 1
    return hits
