import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import (
    ONE_MONO_DISJOINT,
    TWO_K2,
    adjacency_from_edges,
    constant_colouring,
    count_injections_in_event,
    distinct_colouring,
    random_colouring,
    random_graph,
)
from rainbowcopy import (
    DomainError,
    Graph,
    CanonicalEvent,
    NeighbourhoodProfile,
    cherry_stats,
    clique_cover_rainbow,
    conflict,
    cycle_graph,
    enumerate_bad_events,
    event_probability,
    falling_factorial,
    gen_k_bounded,
    graph_rates,
    intersection_graph,
    path_graph,
    proper_profile_from_rates,
    verify_clique_bounds,
)
from rainbowcopy import events as events_module
from rainbowcopy.events import DISJOINT, INTERSECTING


def brute_force_events(g, colouring, mode):
    """Independent enumeration: all ordered image tuples for every
    lexicographic edge pair, filtered by injectivity and colour equality."""
    n = colouring.n
    edges = sorted(g.edges)
    found = set()
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            shared = set(e) & set(f)
            if mode == "proper" and not shared:
                continue
            for a in permutations(range(n), 2):
                for b in permutations(range(n), 2):
                    mapping = {}
                    ok = True
                    for x, y in zip(e + f, a + b):
                        if mapping.setdefault(x, y) != y:
                            ok = False
                    values = list(mapping.values())
                    if not ok or len(set(values)) != len(values):
                        continue
                    if colouring.colour(*a) == colouring.colour(*b):
                        found.add((e, f, a, b))
    return found


class TestEnumerate:
    def test_p3_monochromatic_k3(self):
        events = enumerate_bad_events(path_graph(3), constant_colouring(3), "proper")
        assert len(events) == 6
        expected = brute_force_events(path_graph(3), constant_colouring(3), "proper")
        assert {(e.e_pair, e.f_pair, e.a_pair, e.b_pair) for e in events} == expected
        assert all(e.type_tag == INTERSECTING for e in events)
        # shared centre forces a2 == b1
        assert all(e.a_pair[1] == e.b_pair[0] for e in events)

    def test_rainbow_colouring_no_events(self):
        for mode in ("proper", "rainbow"):
            assert enumerate_bad_events(cycle_graph(4), distinct_colouring(5), mode) == []

    def test_two_k2_disjoint_events(self):
        rainbow = enumerate_bad_events(TWO_K2, ONE_MONO_DISJOINT, "rainbow")
        assert len(rainbow) == 8
        assert all(e.type_tag == DISJOINT for e in rainbow)
        expected = brute_force_events(TWO_K2, ONE_MONO_DISJOINT, "rainbow")
        assert {(e.e_pair, e.f_pair, e.a_pair, e.b_pair) for e in rainbow} == expected
        assert enumerate_bad_events(TWO_K2, ONE_MONO_DISJOINT, "proper") == []

    def test_canonical_order(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        for g in (path_graph(4), star):
            events = enumerate_bad_events(g, constant_colouring(5), "rainbow")
            keys = [(e.e_pair, e.f_pair, e.a_pair, e.b_pair) for e in events]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

    def test_graph_too_large(self):
        with pytest.raises(DomainError):
            enumerate_bad_events(path_graph(4), constant_colouring(3), "proper")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            enumerate_bad_events(path_graph(3), constant_colouring(3), "rainbw")

    def test_matches_brute_force_random(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(4, 6)
            g = random_graph(rng, rng.randint(3, n), edge_prob=0.6)
            chi = random_colouring(rng, n, rng.randint(2, 4))
            for mode in ("proper", "rainbow"):
                events = enumerate_bad_events(g, chi, mode)
                assert {
                    (e.e_pair, e.f_pair, e.a_pair, e.b_pair) for e in events
                } == brute_force_events(g, chi, mode)


class TestEventProbability:
    def test_formula_values(self):
        ev_int = CanonicalEvent((0, 1), (1, 2), (0, 1), (1, 2))
        ev_dis = CanonicalEvent((0, 1), (2, 3), (0, 1), (2, 3))
        assert event_probability(ev_int.type_tag, 5) == Fraction(1, 60)
        assert event_probability(ev_dis.type_tag, 5) == Fraction(1, 120)

    def test_small_n_rejected(self):
        ev_dis = CanonicalEvent((0, 1), (2, 3), (0, 1), (2, 3))
        with pytest.raises(DomainError):
            event_probability(ev_dis.type_tag, 3)
        with pytest.raises(DomainError):
            event_probability("cherry", 5)

    def test_extension_count_p3_into_k4(self):
        events = enumerate_bad_events(path_graph(3), constant_colouring(4), "proper")
        ev = events[0]
        count = count_injections_in_event(ev, 3, 4)
        assert Fraction(count, falling_factorial(4, 3)) == Fraction(1, 24)
        assert event_probability(ev.type_tag, 4) == Fraction(1, 24)

    def test_extension_counts_match_formula(self):
        rng = random.Random(5)
        for g, n in ((path_graph(3), 5), (TWO_K2, 6), (cycle_graph(4), 6)):
            chi = random_colouring(rng, n, 3)
            events = enumerate_bad_events(g, chi, "rainbow")
            for ev in rng.sample(events, min(20, len(events))):
                count = count_injections_in_event(ev, g.n_vertices, n)
                total = falling_factorial(n, g.n_vertices)
                assert Fraction(count, total) == event_probability(ev.type_tag, n)


class TestEventInvariants:
    def test_lex_order_enforced(self):
        with pytest.raises(DomainError):
            CanonicalEvent((1, 2), (0, 1), (1, 2), (0, 1))
        with pytest.raises(DomainError):
            CanonicalEvent((1, 0), (2, 3), (1, 0), (2, 3))

    def test_injectivity_enforced(self):
        # shared graph vertex 1 sent to two different images
        with pytest.raises(DomainError):
            CanonicalEvent((0, 1), (1, 2), (0, 1), (2, 3))
        # distinct graph vertices colliding on one image
        with pytest.raises(DomainError):
            CanonicalEvent((0, 1), (2, 3), (0, 1), (0, 2))

    def test_every_event_has_its_type_by_support(self):
        # all pairs over 4 vertices on both sides: whatever constructs pins
        # 3 or 4 graph vertices to as many images, and its type follows
        pairs = list(product(range(4), repeat=2))
        types = set()
        for e, f, a, b in product(pairs, repeat=4):
            try:
                ev = CanonicalEvent(e, f, a, b)
            except DomainError:
                continue
            size = len(ev.g_support)
            assert len(ev.image_support) == size in (3, 4)
            assert ev.type_tag == (INTERSECTING if size == 3 else DISJOINT)
            types.add(ev.type_tag)
        assert types == {INTERSECTING, DISJOINT}


class TestConflict:
    def test_same_edges_different_images(self):
        x = CanonicalEvent((0, 1), (1, 2), (0, 1), (1, 2))
        y = CanonicalEvent((0, 1), (1, 2), (3, 1), (1, 2))
        assert conflict(x, y)

    def test_disjoint_supports_no_conflict(self):
        x = CanonicalEvent((0, 1), (1, 2), (0, 1), (1, 2))
        y = CanonicalEvent((3, 4), (4, 5), (3, 4), (4, 5))
        assert not conflict(x, y)

    def test_consistent_overlap_no_conflict(self):
        x = CanonicalEvent((0, 1), (1, 2), (5, 6), (6, 7))
        y = CanonicalEvent((1, 3), (3, 4), (6, 8), (8, 9))
        assert not conflict(x, y)

    def test_image_collision_conflicts(self):
        x = CanonicalEvent((0, 1), (1, 2), (5, 6), (6, 7))
        y = CanonicalEvent((3, 4), (4, 8), (5, 9), (9, 2))
        assert conflict(x, y)  # image 5 used for graph vertices 0 and 3


class TestIntersectionGraph:
    def test_empty(self):
        assert intersection_graph([]) == ()

    def test_disjoint_pair_no_edge(self):
        x = CanonicalEvent((0, 1), (1, 2), (0, 1), (1, 2))
        y = CanonicalEvent((3, 4), (4, 5), (3, 4), (4, 5))
        assert intersection_graph([x, y]) == (frozenset(), frozenset())

    def test_p3_instance_is_complete(self):
        events = enumerate_bad_events(path_graph(3), constant_colouring(3), "proper")
        adjacency = intersection_graph(events)
        for i in range(6):
            assert adjacency[i] == frozenset(range(6)) - {i}

    def test_conflict_implies_intersection(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.randint(4, 6)
            g = random_graph(rng, rng.randint(3, n), edge_prob=0.6)
            chi = random_colouring(rng, n, 3)
            events = enumerate_bad_events(g, chi, "rainbow")[:40]
            adjacency = intersection_graph(events)
            for i in range(len(events)):
                for j in range(i + 1, len(events)):
                    if conflict(events[i], events[j]):
                        assert j in adjacency[i]

    def test_joins_exactly_the_pairs_whose_supports_meet(self):
        """Symmetric, loop-free, and i ~ j iff the two events share a graph
        vertex or an image vertex, by brute force over all pairs.  The
        instances hold pairs that meet on one side only, so neither side's
        test can be dropped unseen."""
        rng = random.Random(23)
        seen = set()
        for trial in range(24):
            n = rng.randint(4, 6)
            g = random_graph(rng, rng.randint(3, n), edge_prob=0.6)
            mode = ("proper", "rainbow")[trial % 2]
            events = enumerate_bad_events(g, random_colouring(rng, n, rng.randint(2, 6)), mode)
            events = rng.sample(events, min(60, len(events)))
            adjacency = intersection_graph(events)
            assert len(adjacency) == len(events)
            for i, x in enumerate(events):
                assert i not in adjacency[i]
                for j, y in enumerate(events):
                    if i == j:
                        continue
                    sides = (bool(set(x.e_pair + x.f_pair) & set(y.e_pair + y.f_pair)),
                             bool(set(x.a_pair + x.b_pair) & set(y.a_pair + y.b_pair)))
                    seen.add(sides)
                    assert (j in adjacency[i]) == any(sides), (x, y)
                    assert (j in adjacency[i]) == (i in adjacency[j])
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


def proper_profile(stats, n, k):
    """The proper profile at the cherry rates of stats."""
    _, q, p = graph_rates(n, stats=stats)
    return proper_profile_from_rates(q, p, n, k)


class TestGraphRates:
    def test_each_source(self):
        stats = cherry_stats(cycle_graph(5))
        assert graph_rates(1000, stats=stats) == (2, 3, Fraction(5, 1000))
        assert graph_rates(1000, delta=2) == (2, 6, 2)
        assert graph_rates(1000, q=3, p=Fraction(1, 2)) == (None, 3, Fraction(1, 2))
        assert graph_rates(1000) == (None, None, None)

    def test_values_are_left_to_the_rules(self):
        assert graph_rates(1000, delta=-1) == (-1, Fraction(3, 2), Fraction(1, 2))
        assert graph_rates(1000, q=-1, p=0) == (None, -1, 0)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError):
            graph_rates(0, stats=cherry_stats(cycle_graph(5)))


class TestCliqueCovers:
    def test_proper_example(self):
        stats = type(cherry_stats(path_graph(3)))(
            total_cherries=1, max_cherries_per_vertex=1, max_degree=2, edge_count=2
        )
        profile = proper_profile(stats, 5, 1)
        assert profile.count == 3
        assert profile.graph == {INTERSECTING: 20}
        assert profile.image == {INTERSECTING: 12}

    def test_proper_k0(self):
        stats = cherry_stats(cycle_graph(5))
        profile = proper_profile(stats, 5, 0)
        assert profile.cliques() == [(3, {INTERSECTING: 0}), (3, {INTERSECTING: 0})]

    def test_proper_c5(self):
        profile = proper_profile(cherry_stats(cycle_graph(5)), 5, 1)
        assert profile.graph == {INTERSECTING: 60}
        assert profile.image == {INTERSECTING: 60}

    def test_rainbow_example(self):
        profile = clique_cover_rainbow(1, 10, 1, INTERSECTING)
        assert profile.count == 3
        assert [profile.graph, profile.image] == [
            {INTERSECTING: 150, DISJOINT: 1000},
            {INTERSECTING: 100, DISJOINT: 1000},
        ]

    def test_rainbow_disjoint_has_four_vertices(self):
        profile = clique_cover_rainbow(1, 10, 1, DISJOINT)
        assert profile.count == 4
        assert [profile.graph, profile.image] == [
            {INTERSECTING: 150, DISJOINT: 1000},
            {INTERSECTING: 100, DISJOINT: 1000},
        ]

    def test_rainbow_degenerate_k0(self):
        profile = clique_cover_rainbow(2, 77, 0, INTERSECTING)
        assert profile.cliques() == [
            (3, {INTERSECTING: 0, DISJOINT: 0}),
            (3, {INTERSECTING: 0, DISJOINT: 0}),
        ]

    def test_cliques_group_each_side_by_type(self):
        rainbow = clique_cover_rainbow(1, 10, 1, DISJOINT)
        assert rainbow.cliques() == [
            (4, {INTERSECTING: 150, DISJOINT: 1000}),
            (4, {INTERSECTING: 100, DISJOINT: 1000}),
        ]
        proper = proper_profile(cherry_stats(cycle_graph(5)), 5, 1)
        assert proper.cliques() == [(3, {INTERSECTING: 60}), (3, {INTERSECTING: 60})]

    def test_bad_args(self):
        with pytest.raises(DomainError):
            clique_cover_rainbow(0, 10, 1, INTERSECTING)
        with pytest.raises(DomainError):
            clique_cover_rainbow(1, 10, 1, "neither")
        with pytest.raises(DomainError):
            clique_cover_rainbow(1, 10, -1, INTERSECTING)
        for q, p, n, k in ((-1, 1, 10, 1), (1, -1, 10, 1), (1, 1, 1, 1), (1, 1, 10, -1)):
            with pytest.raises(DomainError):
                proper_profile_from_rates(q, p, n, k)


PINNED_CLASSES = [
    (cycle_graph(4), gen_k_bounded(6, 2, 9), "rainbow", 72, {
        "G-side-intersecting": ("432", 30), "G-side-disjoint": ("1728", 32),
        "Kn-side-intersecting": ("288", 32), "Kn-side-disjoint": ("1728", 32),
    }),
    (path_graph(3), constant_colouring(3), "proper", 6, {
        "G-side-intersecting": ("12", 6), "Kn-side-intersecting": ("12", 6),
    }),
    (path_graph(4), gen_k_bounded(5, 3, 1), "rainbow", 48, {
        "G-side-intersecting": ("450", 24), "G-side-disjoint": ("1500", 24),
        "Kn-side-intersecting": ("300", 16), "Kn-side-disjoint": ("1500", 24),
    }),
]


def seeded_instances():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(4, 6)
        g = random_graph(rng, n, edge_prob=0.5, max_degree=3)
        chi = gen_k_bounded(n, rng.randint(1, 3), rng.randrange(1000))
        yield g, chi, rng.choice(["proper", "rainbow"])


def brute_force_class_maxima(g, colouring, mode):
    """Each class maximum recomputed pairwise from the event list: for a
    side and an event type t, the largest number of type-t events whose
    support on that side holds x, over all events E and vertices x of E on
    that side.  Supports are read off the partial maps."""
    events = enumerate_bad_events(g, colouring, mode)
    types = [INTERSECTING] if mode == "proper" else [INTERSECTING, DISJOINT]
    maxima = {}
    for side, support in (("G-side", lambda ev: set(ev.partial_map())),
                          ("Kn-side", lambda ev: set(ev.partial_map().values()))):
        for t in types:
            maxima[f"{side}-{t}"] = max(
                (sum(t == f.type_tag and x in support(f) for f in events)
                 for e in events for x in support(e)),
                default=0,
            )
    return maxima


def brute_force_cliques(g, colouring, mode):
    """{(class, vertex label): size} of every non-empty clique, recomputed
    from the partial maps: for a side, an event type t and a vertex x, the
    type-t events whose support on that side holds x."""
    events = enumerate_bad_events(g, colouring, mode)
    types = [INTERSECTING] if mode == "proper" else [INTERSECTING, DISJOINT]
    sizes = {}
    for side, what, support in (
        ("G-side", "graph vertex", lambda ev: set(ev.partial_map())),
        ("Kn-side", "image vertex", lambda ev: set(ev.partial_map().values())),
    ):
        for t in types:
            for x in range(colouring.n):
                size = sum(t == f.type_tag and x in support(f) for f in events)
                if size:
                    sizes[f"{side}-{t}", f"{what} {x}"] = size
    return sizes


def by_class_and_vertex(violations):
    return sorted(violations, key=lambda v: (v["class"], v["at"]))


class TestVerifyCliqueBounds:
    def test_p3_monochromatic(self):
        report = verify_clique_bounds(path_graph(3), constant_colouring(3), "proper")
        assert report["ok"] and report["n_events"] == 6
        assert report["cliques_are_cliques"]

    def test_vacuous_on_rainbow_colouring(self):
        report = verify_clique_bounds(cycle_graph(4), distinct_colouring(6), "rainbow")
        assert report["ok"] and report["n_events"] == 0

    def test_c4_generated_instance(self):
        report = verify_clique_bounds(cycle_graph(4), gen_k_bounded(6, 2, 9), "rainbow")
        assert report["ok"]
        for entry in report["classes"].values():
            assert Fraction(entry["slack"]) >= 0

    @pytest.mark.parametrize("g, colouring, mode, n_events, classes", PINNED_CLASSES,
                             ids=["c4-rainbow", "p3-proper", "p4-rainbow"])
    def test_class_bounds_and_maxima_are_pinned(self, g, colouring, mode, n_events, classes):
        report = verify_clique_bounds(g, colouring, mode)
        assert report["n_events"] == n_events
        got = {tag: (entry["bound"], entry["max_size"]) for tag, entry in report["classes"].items()}
        assert got == classes

    def test_random_instances(self):
        for g, chi, mode in seeded_instances():
            report = verify_clique_bounds(g, chi, mode)
            assert report["ok"], report["violations"]

    def test_class_maxima_match_brute_force(self):
        instances = [(g, chi, mode) for g, chi, mode, _, _ in PINNED_CLASSES]
        for g, chi, mode in instances + list(seeded_instances()):
            report = verify_clique_bounds(g, chi, mode)
            got = {tag: entry["max_size"] for tag, entry in report["classes"].items()}
            assert got == brute_force_class_maxima(g, chi, mode)

    @pytest.mark.parametrize("g, colouring, mode", [case[:3] for case in PINNED_CLASSES],
                             ids=["c4-rainbow", "p3-proper", "p4-rainbow"])
    def test_bounds_below_the_maxima_give_one_violation_per_overfull_clique(
        self, g, colouring, mode, monkeypatch
    ):
        maxima = brute_force_class_maxima(g, colouring, mode)
        below = {"G-side": {}, "Kn-side": {}}
        for tag, size in maxima.items():
            side, t = tag.rsplit("-", 1)
            below[side][t] = Fraction(size - 1)
        profile = NeighbourhoodProfile(3, below["G-side"], below["Kn-side"])
        monkeypatch.setattr(events_module, "clique_cover_rainbow", lambda *args: profile)
        monkeypatch.setattr(events_module, "proper_profile_from_rates", lambda *args: profile)
        report = verify_clique_bounds(g, colouring, mode)
        expected = [{"class": tag, "size": size, "at": at}
                    for (tag, at), size in brute_force_cliques(g, colouring, mode).items()
                    if size == maxima[tag]]
        assert expected
        assert not report["ok"] and report["cliques_are_cliques"]
        assert by_class_and_vertex(report["violations"]) == by_class_and_vertex(expected)

    def test_an_edgeless_intersection_graph_fails_cliqueness(self, monkeypatch):
        g, colouring, mode = cycle_graph(4), gen_k_bounded(6, 2, 9), "rainbow"
        monkeypatch.setattr(events_module, "intersection_graph",
                            lambda events: adjacency_from_edges(len(events), []))
        report = verify_clique_bounds(g, colouring, mode)
        assert not report["cliques_are_cliques"] and not report["ok"]
        # one record per clique of two or more members, and no size violation
        pairs = [size for size in brute_force_cliques(g, colouring, mode).values() if size > 1]
        assert [v["class"] for v in report["violations"]] == ["cliqueness"] * len(pairs)

