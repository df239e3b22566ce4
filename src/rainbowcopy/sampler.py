"""Randomized search for properly coloured or rainbow copies.

The sampler draws a uniform random injection of the target graph into K_n
and repeatedly repairs it: while some pair of graph edges violates the
colour constraint, the images of the vertices spanning the (canonically
smallest) violating pair are resampled by swapping them with uniformly
random positions of the injection extended to a full permutation of the
K_n vertices.  Each swap draws its position from all n positions, including
positions already swapped in the same step, so one step from a uniform
injection conditioned on an event is not uniform: on n = 5 with P_3 the 60
injections get probabilities from 1/125 to 1/25 (exact enumeration).  The
step is therefore not yet the resampling oracle of the algorithmic local
lemma.  The loop is the constructive counterpart of the existence
statements certified by the lll module.

Violations are tracked incrementally in an index keyed by ints (the image
colour, or colour and endpoint in proper mode) whose members are graph
edge ids.  A step first applies all its swaps and then re-files the union
of the edges incident to the swapped graph positions once, skipping edges
whose keys are unchanged, so one resample costs time proportional to the
degrees of the touched vertices rather than to the number of edge pairs.
The index keeps each bad key's two smallest members, so the smallest
violating pair is a minimum over the bad keys rather than a sort of all
pairs.  Image colours are read straight from the colouring's flat table.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .colouring import EdgeColouring, row_offsets
from .errors import DomainError
from .graph import Graph

__all__ = [
    "Embedding",
    "FindResult",
    "random_injection",
    "is_valid_embedding",
    "violated_events",
    "find_copy",
]


@dataclass(frozen=True)
class Embedding:
    """Injective placement of graph vertices into K_n (image_of[v] is the
    image of vertex v).  mode says which validity notion applies."""

    image_of: tuple[int, ...]
    mode: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.image_of)) != len(self.image_of):
            raise DomainError("embedding images are not injective")

    def to_json(self) -> dict:
        return {"image_of": list(self.image_of), "mode": self.mode}


def random_injection(g_size: int, n: int, seed: int) -> Embedding:
    """Uniform random injection of g_size vertices into K_n, deterministic
    given the seed.  Validity is not yet guaranteed."""
    if g_size > n:
        raise DomainError(f"cannot inject {g_size} vertices into K_{n}")
    if g_size < 0:
        raise DomainError(f"g_size must be nonnegative, got {g_size}")
    rng = random.Random(seed)
    return Embedding(tuple(rng.sample(range(n), g_size)))


def is_valid_embedding(
    embedding: Embedding, g: Graph, colouring: EdgeColouring, mode: str | None = None
) -> bool:
    """Independent validity check, via colour sets rather than pair scans.

    proper: at every graph vertex the incident image edges have pairwise
    different colours.  rainbow: all image edges have pairwise different
    colours.
    """
    mode = mode or embedding.mode
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}")
    img = embedding.image_of
    if len(img) != g.n_vertices:
        raise DomainError("embedding size does not match the graph")

    def image_colour(u: int, v: int) -> int:
        return colouring.colour(img[u], img[v])

    if mode == "rainbow":
        seen: set[int] = set()
        for u, v in g.edges:
            c = image_colour(u, v)
            if c in seen:
                return False
            seen.add(c)
        return True
    for v in range(g.n_vertices):
        at_v: set[int] = set()
        for u in g.adjacency[v]:
            c = image_colour(u, v)
            if c in at_v:
                return False
            at_v.add(c)
    return True


def violated_events(
    embedding: Embedding, g: Graph, colouring: EdgeColouring, mode: str
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All violating graph-edge pairs of an embedding, in canonical order.

    proper mode scans adjacent edge pairs only (cherries); rainbow mode
    scans all edge pairs.  A pair violates when its two image edges share
    a colour.
    """
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}")
    img = embedding.image_of
    edges = g.sorted_edges()
    colours = [colouring.colour(img[u], img[v]) for u, v in edges]
    out = []
    for i in range(len(edges)):
        e = edges[i]
        for j in range(i + 1, len(edges)):
            f = edges[j]
            if mode == "proper" and not (set(e) & set(f)):
                continue
            if colours[i] == colours[j]:
                out.append((e, f))
    return out


@dataclass(frozen=True)
class FindResult:
    """Outcome of one find_copy run."""

    embedding: Embedding | None
    success: bool
    resamples: int
    final_violations: int

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "embedding": self.embedding.to_json() if self.embedding else None,
            "resamples": self.resamples,
            "final_violations": self.final_violations,
        }


class _ViolationIndex:
    """Incremental bookkeeping of violating edge pairs, keyed by ints.

    Members are edge ids into g.sorted_edges(), so id order is edge order.
    A key is the image colour in rainbow mode and colour * |V(G)| + endpoint
    in proper mode; a key is bad once two edges share it.  front maps each
    bad key to the code first * |E(G)| + second of its two smallest
    members, so the smallest code over front is the smallest violating
    pair.  keys_at remembers the keys each edge is filed under, so taking
    an edge out needs no colour lookup.  The state is a function of the
    image alone, whatever order the edges were filed in.
    """

    def __init__(self, mode: str, edges: list[tuple[int, int]], g_size: int,
                 colouring: EdgeColouring):
        self.proper = mode == "proper"
        self.edges = edges
        self.g_size = g_size
        self.m = len(edges)
        self.table, self.off = colouring.table, row_offsets(colouring.n)
        self.keys_at: list[tuple[int, ...]] = [()] * self.m
        self.classes: dict[int, set[int]] = {}
        self.front: dict[int, int] = {}

    def move(self, touched: Iterable[int], img: list[int]) -> None:
        """Re-files each touched edge under its keys at the image img,
        skipping edges whose keys are unchanged.  Every edge whose image
        colour changed since the last call must be among the touched."""
        proper, edges, g_size, m = self.proper, self.edges, self.g_size, self.m
        table, off = self.table, self.off
        keys_at, classes, front = self.keys_at, self.classes, self.front
        for e in touched:
            u, v = edges[e]
            x, y = img[u], img[v]
            colour = table[off[x] + y] if x < y else table[off[y] + x]
            keys = (colour * g_size + u, colour * g_size + v) if proper else (colour,)
            if keys == keys_at[e]:
                continue
            for key in keys_at[e]:
                members = classes[key]
                members.remove(e)
                if not members:
                    del classes[key]
                elif len(members) == 1:  # the class is no longer bad
                    del front[key]
                else:
                    a, b = divmod(front[key], m)
                    if e == a or e == b:
                        a, b = sorted(members)[:2]
                        front[key] = a * m + b
            keys_at[e] = keys
            for key in keys:
                members = classes.get(key)
                if members is None:
                    classes[key] = {e}
                    continue
                members.add(e)
                code = front.get(key)
                if code is None:  # the class has just become bad
                    a, b = sorted(members)
                else:
                    a, b = divmod(code, m)
                    if e > b:
                        continue
                    a, b = (e, a) if e < a else (a, e)
                front[key] = a * m + b

    def smallest_pair(self) -> tuple[int, int]:
        return divmod(min(self.front.values()), self.m)

    def pair_count(self) -> int:
        return sum(len(self.classes[key]) * (len(self.classes[key]) - 1) // 2 for key in self.front)


def find_copy(
    g: Graph,
    colouring: EdgeColouring,
    mode: str,
    *,
    seed: int,
    max_resamples: int | None = None,
) -> FindResult:
    """Search for a valid embedding by swap resampling.

    Draws the seed's random injection and loops: with no violating pair the
    embedding is re-verified independently and returned; otherwise the
    smallest violating pair's 3-4 graph vertices each have their image
    swapped with a uniformly random one of all n positions of the injection
    padded to a full permutation of the K_n vertices, positions already
    swapped in the same step included, so one step is not uniform (see the
    module docstring); then the index re-files the union of the edges at the
    swapped graph positions once, skipping edges whose keys are unchanged.
    Each loop iteration counts as one resample; the run fails once
    max_resamples iterations have been spent (default 1000 * |E|^2; a
    negative budget is a DomainError).  Deterministic given the seed.
    """
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}")
    g_size, n = g.n_vertices, colouring.n
    if g_size > n:
        raise DomainError(f"cannot embed {g_size} vertices into K_{n}")
    if max_resamples is None:
        max_resamples = 1000 * len(g.edges) ** 2
    elif max_resamples < 0:
        raise DomainError(f"max_resamples must be >= 0, got {max_resamples}")

    rng = random.Random(seed)
    prefix = rng.sample(range(n), g_size)
    img = prefix + sorted(set(range(n)) - set(prefix))
    edges = g.sorted_edges()
    incident: list[list[int]] = [[] for _ in range(g_size)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    index = _ViolationIndex(mode, edges, g_size, colouring)
    index.move(range(len(edges)), img)

    resamples = 0
    while True:
        if not index.front:
            embedding = Embedding(tuple(img[:g_size]), mode)
            if not is_valid_embedding(embedding, g, colouring, mode):
                raise RuntimeError("internal error: bookkeeping and validity disagree")
            return FindResult(embedding, True, resamples, 0)
        if resamples >= max_resamples:
            return FindResult(None, False, resamples, index.pair_count())
        first, second = index.smallest_pair()
        touched: set[int] = set()
        for v in sorted({*edges[first], *edges[second]}):
            # graph vertices occupy the first g_size positions of img
            j = rng.randrange(n)
            img[v], img[j] = img[j], img[v]
            touched.update(incident[v])
            if j < g_size:
                touched.update(incident[j])
        index.move(touched, img)
        resamples += 1
