"""Randomized search for properly coloured or rainbow copies.

The sampler draws a uniform random injection of the target graph into K_n
and repairs it: while some pair of graph edges violates the colour
constraint, it draws a violated colour key uniformly and resamples the
vertices spanning its two smallest edges.  The injection is the prefix of a
permutation of the K_n vertices, and a step is the Swapping Algorithm of
Harris and Srinivasan: the i-th resampled vertex swaps its image with a
uniformly random one of the n - i positions not resampled before it.  From
a uniform injection conditioned on the resampled event, one step gives the
uniform injection, and every event it makes true shares a graph or an image
vertex with the resampled one, so the step is a resampling oracle for the
intersection graph the lll module certifies with (the tests check both
exactly on small n).

Violations are tracked incrementally in an index keyed by ints (the image
colour, or colour and endpoint in proper mode) whose classes are lists of
graph edge ids; each edge's filed keys are kept as ints in flat lists.  A
step first applies all its swaps and then re-files the edges incident to
the swapped graph positions, repeats included: an edge met again, or one
whose colour did not change, keeps its keys and is skipped, so one
resample costs time proportional to the degrees of the touched vertices
rather than to the number of edge pairs.  Image colours are read straight
from the colouring's flat table, and both random draws of a step are
random.Random.randrange written out on the generator's getrandbits, so
they consume the same words and give the same values.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
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
    if len(img) != g.n_vertices:
        raise DomainError("embedding size does not match the graph")
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

    Members are edge ids into g.sorted_edges(), whose endpoints the index
    keeps as the int lists end_u and end_v.  A key is the image colour in
    rainbow mode; in proper mode an edge has two keys, colour * |V(G)| + u
    and colour * |V(G)| + v.  key_u[e] is the first key edge e is filed
    under, -1 while it is not filed, and in proper mode key_u[e] + v - u is
    the second, so taking an edge out needs no colour lookup.  A class is the
    list of the edges filed under its key, in no particular order; a key
    is bad once two edges share it, and bad holds exactly the bad keys.
    The state is a function of the image alone, up to the order of each
    class, whatever order the edges were filed in.
    """

    def __init__(self, mode: str, edges: list[tuple[int, int]], g_size: int,
                 colouring: EdgeColouring):
        self.proper = mode == "proper"
        self.end_u = [u for u, _ in edges]
        self.end_v = [v for _, v in edges]
        self.g_size = g_size
        self.table, self.off = colouring.table, row_offsets(colouring.n)
        self.key_u = [-1] * len(edges)
        self.classes: dict[int, list[int]] = {}
        self.bad: set[int] = set()

    def move(self, touched: Iterable[int], img: list[int]) -> None:
        """Re-files each touched edge under its keys at the image img,
        skipping edges whose keys are unchanged.  Every edge whose image
        colour changed since the last call must be among the touched; an
        edge may be touched more than once, and its repeats are skipped as
        unchanged.  In proper mode both keys of an edge change together,
        with its colour, so key_u alone decides and gives both."""
        proper, g_size = self.proper, self.g_size
        end_u, end_v, table, off = self.end_u, self.end_v, self.table, self.off
        key_u, classes, bad = self.key_u, self.classes, self.bad
        for e in touched:
            u, v = end_u[e], end_v[e]
            x, y = img[u], img[v]
            key = table[off[x] + y] if x < y else table[off[y] + x]
            if proper:
                key = key * g_size + u
            old = key_u[e]
            if key == old:
                continue
            if old >= 0:
                members = classes[old]
                if len(members) == 1:
                    del classes[old]
                else:
                    members.remove(e)
                    if len(members) == 1:
                        bad.remove(old)
            key_u[e] = key
            members = classes.get(key)
            if members is None:
                classes[key] = [e]
            else:
                members.append(e)
                if len(members) == 2:
                    bad.add(key)
            if proper:
                if old >= 0:
                    old += v - u
                    members = classes[old]
                    if len(members) == 1:
                        del classes[old]
                    else:
                        members.remove(e)
                        if len(members) == 1:
                            bad.remove(old)
                key += v - u
                members = classes.get(key)
                if members is None:
                    classes[key] = [e]
                else:
                    members.append(e)
                    if len(members) == 2:
                        bad.add(key)

    def draw(self, getrandbits: Callable[[int], int]) -> list[int]:
        """The two smallest members of a bad key drawn uniformly, by its rank
        among the sorted bad keys, so the draw depends on the image alone.
        The rank is random.Random.randrange(len(bad)) written out on the
        generator's bound getrandbits: the same words, the same value."""
        bad = self.bad
        m = len(bad)
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return sorted(self.classes[sorted(bad)[r]])[:2]

    def pair_count(self) -> int:
        return sum(len(self.classes[key]) * (len(self.classes[key]) - 1) // 2 for key in self.bad)


def _swap(img: list[int], vertices: list[int], getrandbits: Callable[[int], int]) -> list[int]:
    """One Swapping Algorithm step on the permutation img: the i-th of the
    ascending positions vertices swaps with a uniform one of the len(img) - i
    positions not among the vertices before it, drawn as randrange(len(img)
    - i) would draw it from the generator's bound getrandbits.  Returns the
    partners."""
    partners = []
    n = len(img)
    for v in vertices:
        m = n - len(partners)
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        for w in vertices:  # the j-th position not among the vertices before v
            if w >= v or j < w:
                break
            j += 1
        img[v], img[j] = img[j], img[v]
        partners.append(j)
    return partners


def find_copy(
    g: Graph,
    colouring: EdgeColouring,
    mode: str,
    *,
    seed: int,
    max_resamples: int | None = None,
) -> FindResult:
    """Search for a valid embedding by swap resampling.

    Draws the seed's random injection and, while some pair of edges
    violates, spends one resample: the index draws a bad key uniformly, the
    3-4 graph vertices of its two smallest edges take one Swapping Algorithm
    step (see the module docstring), and the index re-files the edges at the
    swapped graph positions.  With no violating pair left the embedding is
    re-verified independently and returned.  The run fails once
    max_resamples have been spent (default 1000 * |E|^2; a negative budget
    is a DomainError).  Deterministic given the seed.
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
    getrandbits = rng.getrandbits

    resamples = 0
    while index.bad:
        if resamples >= max_resamples:
            return FindResult(None, False, resamples, index.pair_count())
        first, second = index.draw(getrandbits)
        vertices = sorted({*edges[first], *edges[second]})
        touched: list[int] = []
        # graph vertices occupy the first g_size positions of img; an edge
        # at two of them is touched twice, and move skips the repeat
        for p in vertices + _swap(img, vertices, getrandbits):
            if p < g_size:
                touched += incident[p]
        index.move(touched, img)
        resamples += 1
    embedding = Embedding(tuple(img[:g_size]), mode)
    if not is_valid_embedding(embedding, g, colouring, mode):
        raise RuntimeError("internal error: bookkeeping and validity disagree")
    return FindResult(embedding, True, resamples, 0)
