"""Target graphs and their cherry statistics.

A *cherry* is a path with two edges: three vertices, two edges sharing a
middle vertex.  The two quantities that drive every admissible-boundedness
threshold are the total number of cherries in the graph and the largest
number of cherries any single vertex belongs to (as centre or endpoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO

from .colouring import _blocks, read_header
from .errors import DomainError, FormatError

__all__ = [
    "Graph",
    "CherryStats",
    "load_graph",
    "cherry_stats",
    "falling_factorial",
    "path_graph",
    "cycle_graph",
    "complete_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0 .. n_vertices-1."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise DomainError(f"n_vertices must be positive, got {self.n_vertices}")
        for u, v in self.edges:
            if u == v:
                raise FormatError(f"loop edge ({u}, {v})")
            if not (0 <= u < v < self.n_vertices):
                raise FormatError(
                    f"edge ({u}, {v}) not normalised or out of range for n={self.n_vertices}"
                )

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, normalising each edge to (min, max) order."""
        normalised = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n_vertices, normalised)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adjacency)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class CherryStats:
    """Cherry counts of a graph.

    total_cherries          sum over vertices v of C(deg(v), 2)
    max_cherries_per_vertex max over v of C(deg(v), 2) + sum over neighbours
                            u of (deg(u) - 1), i.e. cherries containing v as
                            centre or as endpoint
    """

    total_cherries: int
    max_cherries_per_vertex: int
    max_degree: int
    edge_count: int


def load_graph(source: str | TextIO) -> Graph:
    """Parse a graph document, a str or a seekable text stream (read from
    its beginning), in blocks of whole lines.

    Format: first meaningful line "n <N>", then one "<u> <v>" line per edge
    (0-based ids).  Lines starting with '#' and blank lines are ignored.
    N is at most colouring.MAX_VERTICES, the largest K_n a colouring, and
    so an embedding, can have.
    """
    n_vertices, lineno, header_end = read_header(source)
    edges: set[tuple[int, int]] = set()
    for block in _blocks(source, header_end):
        # a block holds at least one line, so lineno ends at its last
        for lineno, raw in enumerate(block.splitlines(), start=lineno + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected '<u> <v>', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoint in {line!r}") from None
            if u == v:
                raise FormatError(f"line {lineno}: loop edge {u} {v}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise FormatError(f"line {lineno}: endpoint out of range in {line!r}")
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
            edges.add(edge)
    return Graph(n_vertices, frozenset(edges))


def cherry_stats(g: Graph) -> CherryStats:
    """Exact cherry statistics of g (integer arithmetic throughout)."""
    deg = g.degrees
    total = sum(math.comb(d, 2) for d in deg)
    per_vertex_max = 0
    for v in range(g.n_vertices):
        in_v = math.comb(deg[v], 2) + sum(deg[u] - 1 for u in g.adjacency[v])
        per_vertex_max = max(per_vertex_max, in_v)
    return CherryStats(
        total_cherries=total,
        max_cherries_per_vertex=per_vertex_max,
        max_degree=max(deg, default=0),
        edge_count=len(g.edges),
    )


def falling_factorial(n: int, k: int) -> int:
    """n * (n-1) * ... * (n-k+1), exactly.  Requires 0 <= k <= n."""
    if k < 0 or n < 0:
        raise DomainError(f"falling factorial needs nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise DomainError(f"falling factorial undefined for k > n: ({n}, {k})")
    return math.perm(n, k)


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
