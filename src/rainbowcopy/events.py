"""Canonical bad events over random injections, and their clique structure.

The probability space is the uniform choice of an injection from the target
graph's vertices into the vertices of K_n.  A bad event pins the images of
two ordered graph edges; it is *intersecting* when the two edges share a
vertex (they form a cherry) and *disjoint* otherwise.  The event list for a
concrete colouring keeps exactly those pinnings whose two image edges share
a colour.

On small instances intersection_graph gives the dependency graph itself, as
a tuple of neighbour sets, one per event; the exact checks in lll take that
tuple.  Certificates never materialise it at scale.  Instead the closed
neighbourhood of every event in the intersection graph is covered by mixed
cliques with analytic size bounds: one clique per event vertex on
the graph side (the events sharing that graph vertex) and one on the K_n side
(the events sharing its image).  A NeighbourhoodProfile holds the number of
event vertices and, per side, a size bound for each event type; the
clique-cover constructors below build it, and verify_clique_bounds checks the
bounds against exhaustive enumeration on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Sequence

from .colouring import EdgeColouring, boundedness, row_offsets
from .errors import DomainError
from .graph import Graph, cherry_stats, falling_factorial

__all__ = [
    "INTERSECTING",
    "DISJOINT",
    "CanonicalEvent",
    "NeighbourhoodProfile",
    "enumerate_bad_events",
    "event_probability",
    "conflict",
    "intersection_graph",
    "graph_rates",
    "proper_profile_from_rates",
    "clique_cover_rainbow",
    "verify_clique_bounds",
]

INTERSECTING = "intersecting"
DISJOINT = "disjoint"


@dataclass(frozen=True)
class CanonicalEvent:
    """Event pinning edge e_pair to a_pair and f_pair to b_pair.

    e_pair and f_pair are ordered graph edges with e1 < e2, f1 < f2 and
    e_pair lexicographically before f_pair; a_pair and b_pair are the
    (ordered) image pairs in K_n.  The induced partial map must be a
    well-defined injection.  Two distinct ascending pairs span 3 or 4
    vertices, and an injection has as many images, so the type is derived
    from the support: intersecting on 3 vertices, disjoint on 4.
    """

    e_pair: tuple[int, int]
    f_pair: tuple[int, int]
    a_pair: tuple[int, int]
    b_pair: tuple[int, int]

    def __post_init__(self) -> None:
        e, f = self.e_pair, self.f_pair
        if not (e[0] < e[1] and f[0] < f[1]):
            raise DomainError(f"edge pairs must be ascending: {e}, {f}")
        if not e < f:
            raise DomainError(f"e_pair must precede f_pair lexicographically: {e}, {f}")
        pmap = self.partial_map()
        if len(set(pmap.values())) != len(pmap):
            raise DomainError(f"images are not injective: {pmap}")

    @cached_property
    def type_tag(self) -> str:
        return INTERSECTING if len(self.g_support) == 3 else DISJOINT

    def partial_map(self) -> dict[int, int]:
        """The induced partial injection (graph vertex -> K_n vertex).

        Raises DomainError if a shared graph vertex is sent to two
        different images.
        """
        pairs = zip(self.e_pair + self.f_pair, self.a_pair + self.b_pair)
        pmap: dict[int, int] = {}
        for x, y in pairs:
            if pmap.setdefault(x, y) != y:
                raise DomainError(f"vertex {x} mapped to both {pmap[x]} and {y}")
        return pmap

    @property
    def g_support(self) -> frozenset[int]:
        return frozenset(self.e_pair) | frozenset(self.f_pair)

    @property
    def image_support(self) -> frozenset[int]:
        return frozenset(self.a_pair) | frozenset(self.b_pair)


def enumerate_bad_events(
    g: Graph, colouring: EdgeColouring, mode: str
) -> list[CanonicalEvent]:
    """All bad events of the instance, in canonical order.

    proper mode: intersecting-type events whose image edges share a colour.
    rainbow mode: events of both types whose image edges share a colour.

    Order: (e_pair, f_pair) lexicographic, then (a_pair, b_pair)
    lexicographic.  Intended for small instances only.
    """
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}")
    n = colouring.n
    if g.n_vertices > n:
        raise DomainError(f"graph has {g.n_vertices} vertices but n = {n}")
    edges = g.sorted_edges()
    table, off = colouring.table, row_offsets(n)
    events: list[CanonicalEvent] = []
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            support = list(dict.fromkeys(e + f))
            if mode == "proper" and len(support) == 4:
                continue
            # Iterating image tuples in lexicographic order of the support
            # (ordered by first appearance in e+f) also yields (a, b) pairs
            # in lexicographic order, since repeated positions are copies of
            # earlier ones.
            for images in permutations(range(n), len(support)):
                pos = dict(zip(support, images))
                a = (pos[e[0]], pos[e[1]])
                b = (pos[f[0]], pos[f[1]])
                ae = off[a[0]] + a[1] if a[0] < a[1] else off[a[1]] + a[0]
                be = off[b[0]] + b[1] if b[0] < b[1] else off[b[1]] + b[0]
                if table[ae] == table[be]:
                    events.append(CanonicalEvent(e, f, a, b))
    return events


def event_probability(event_type: str, n: int) -> Fraction:
    """Probability of an event of the type under a uniform random injection
    into K_n.

    1/(n)_s for the s vertices such an event pins (3 intersecting, 4
    disjoint), independent of the size of the embedded graph; a DomainError
    when n < s or the type is unknown.
    """
    if event_type not in (INTERSECTING, DISJOINT):
        raise DomainError(f"unknown event type {event_type!r}")
    return Fraction(1, falling_factorial(n, 3 if event_type == INTERSECTING else 4))


def conflict(x: CanonicalEvent, y: CanonicalEvent) -> bool:
    """True iff no injection extends both partial maps.

    The union of the two maps must remain a well-defined injective partial
    function; any disagreement on a shared vertex, or any collision of two
    distinct vertices on one image, is a conflict.
    """
    merged: dict[int, int] = dict(x.partial_map())
    for vertex, image in y.partial_map().items():
        if merged.setdefault(vertex, image) != image:
            return True
    images = list(merged.values())
    return len(set(images)) != len(images)


def intersection_graph(events: Sequence[CanonicalEvent]) -> tuple[frozenset[int], ...]:
    """Adjacency of the graph joining events that share a graph vertex or an
    image vertex: entry i is the set of indices of event i's neighbours.

    This is a supergraph of the conflict relation, hence still a negative
    dependency graph for the events.
    """
    g_supports = [ev.g_support for ev in events]
    img_supports = [ev.image_support for ev in events]
    adj: list[set[int]] = [set() for _ in events]
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            if g_supports[i] & g_supports[j] or img_supports[i] & img_supports[j]:
                adj[i].add(j)
                adj[j].add(i)
    return tuple(frozenset(s) for s in adj)


@dataclass(frozen=True)
class NeighbourhoodProfile:
    """Clique cover of an event's closed neighbourhood, by size bounds only.

    Each of the count event vertices (3 for an intersecting event, 4 for a
    disjoint one) carries one mixed clique on the graph side, the events
    sharing that graph vertex, and one on the image side, the events sharing
    its image.  graph and image map an event type to the size bound of the
    clique's members of that type; nothing changes them after construction.
    """

    count: int
    graph: dict[str, Fraction]
    image: dict[str, Fraction]

    def cliques(self) -> list[tuple[int, dict[str, Fraction]]]:
        """One (count, {event type: size bound}) per side, graph side first."""
        return [(self.count, self.graph), (self.count, self.image)]


def _as_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    try:
        if isinstance(x, (Fraction, int, float, str)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass  # a malformed string, a zero denominator, NaN or an infinity
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def proper_profile_from_rates(q, p, n: int, k) -> NeighbourhoodProfile:
    """Clique cover for an intersecting event in the proper setting.

    Three cliques of size at most q * (n)_2 * k collect the events sharing
    one of the three cherry vertices in the graph; three cliques of size at
    most 3p * (n)_2 * k collect those sharing one of the three image
    vertices.  q is the per-vertex cherry maximum; p is total cherries
    divided by n; k is the local colour bound.
    """
    q = _as_fraction(q)
    p = _as_fraction(p)
    k = _as_fraction(k)
    if q < 0 or p < 0 or k < 0 or n < 2:
        raise DomainError(f"need q, p, k >= 0 and n >= 2, got q={q}, p={p}, n={n}, k={k}")
    n2 = Fraction(falling_factorial(n, 2))
    return NeighbourhoodProfile(3, {INTERSECTING: q * n2 * k}, {INTERSECTING: 3 * p * n2 * k})


def graph_rates(n: int, *, delta=None, stats=None, q=None, p=None) -> tuple:
    """(delta, q, p) of a graph in K_n from its one source: stats (max_degree,
    max_cherries_per_vertex, total_cherries / n), delta (with the worst case
    q = (3/2) delta^2, p = delta^2 / 2) or q and p (no degree).  Two sources,
    half of (q, p) or n < 1 is a DomainError; the rules check the values."""
    if (delta, stats, q).count(None) < 2 or (q is None) != (p is None):
        raise DomainError("give one source of the graph: delta, stats, or both q and p")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if stats is not None:
        return stats.max_degree, stats.max_cherries_per_vertex, Fraction(stats.total_cherries, n)
    if delta is not None:
        return delta, Fraction(3 * delta * delta, 2), Fraction(delta * delta, 2)
    return None, q, p


def clique_cover_rainbow(delta: int, n: int, k, event_type: str) -> NeighbourhoodProfile:
    """Clique cover for an event in the rainbow setting.

    Per event vertex (3 if intersecting, 4 if disjoint) there is one mixed
    clique on the graph side and one on the image side.  The four bounds
    split each mixed clique by the type of the neighbouring events:

        graph side:  (3/2) * delta^2 * n^2 * k   (intersecting neighbours)
                     delta^2 * n^3 * k           (disjoint neighbours)
        image side:  delta^2 * n^2 * k           (intersecting neighbours)
                     delta^2 * n^3 * k           (disjoint neighbours)
    """
    if event_type not in (INTERSECTING, DISJOINT):
        raise DomainError(f"unknown event type {event_type!r}")
    if delta < 1:
        raise DomainError(f"need delta >= 1, got {delta}")
    k = _as_fraction(k)
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    d2 = Fraction(delta * delta)
    dis = d2 * n * n * n * k
    return NeighbourhoodProfile(
        3 if event_type == INTERSECTING else 4,
        {INTERSECTING: Fraction(3, 2) * d2 * n * n * k, DISJOINT: dis},
        {INTERSECTING: d2 * n * n * k, DISJOINT: dis},
    )


def verify_clique_bounds(g: Graph, colouring: EdgeColouring, mode: str) -> dict:
    """Exhaustively check the analytic clique bounds on a small instance.

    Enumerates all bad events and indexes them by (side, vertex, event
    type): the events of that type whose support on that side, graph
    vertices or images, holds the vertex.  Each index entry is one clique
    of the cover, and each is checked once: its size stays within the
    side's bound for its type, and its members are pairwise adjacent in the
    intersection graph.  Returns a report with per-class maxima and slack
    and one violation per failing clique; report["ok"] is False iff some
    bound is violated or some entry is not a clique.
    """
    events = enumerate_bad_events(g, colouring, mode)
    n = colouring.n
    bounds_meta = boundedness(colouring)
    delta, q, p = graph_rates(n, stats=cherry_stats(g))
    if mode == "proper":
        k = bounds_meta.local_bound
        profile = proper_profile_from_rates(q, p, n, k)
    else:
        k = bounds_meta.global_bound
        profile = clique_cover_rainbow(max(delta, 1), n, k, INTERSECTING)

    sides = {
        "G-side": ("graph vertex", profile.graph, [ev.g_support for ev in events]),
        "Kn-side": ("image vertex", profile.image, [ev.image_support for ev in events]),
    }
    # one class per side and event type, named "<side>-<type>"
    classes = {
        f"{side}-{t}": {"bound": bound, "max_size": 0, "slack": None}
        for side, (_, bounds, _) in sides.items()
        for t, bound in bounds.items()
    }
    violations: list[dict] = []
    report: dict = {
        "mode": mode,
        "n": n,
        "k": k,
        "n_events": len(events),
        "classes": classes,
        "violations": violations,
        "cliques_are_cliques": True,
        "ok": True,
    }

    index: dict[tuple[str, int, str], list[int]] = {}
    for side, (_, _, supports) in sides.items():
        for i, (ev, support) in enumerate(zip(events, supports)):
            for x in support:
                index.setdefault((side, x, ev.type_tag), []).append(i)

    # Each entry once: its size against its class bound, then cliqueness.
    # The members of an entry share its vertex, so they must be pairwise
    # adjacent in the intersection graph; this cross-checks the adjacency
    # construction.
    adjacency = intersection_graph(events)
    for key, members in index.items():
        side, x, t = key
        what, bounds, _ = sides[side]
        tag, size = f"{side}-{t}", len(members)
        classes[tag]["max_size"] = max(classes[tag]["max_size"], size)
        if size > bounds[t]:
            violations.append({"class": tag, "size": size, "at": f"{what} {x}"})
        if any(b not in adjacency[a] for a, b in combinations(members, 2)):
            report["cliques_are_cliques"] = False
            violations.append({"class": "cliqueness", "at": f"index {key}"})
    report["ok"] = not violations

    for entry in classes.values():
        entry["slack"] = str(entry["bound"] - entry["max_size"])
        entry["bound"] = str(entry["bound"])
    return report
