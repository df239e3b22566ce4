import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import (
    constant_colouring,
    count_injections_in_event,
    distinct_colouring,
    random_colouring,
    random_graph,
)
from rainbowcopy import (
    CapacityError,
    DomainError,
    EdgeColouring,
    complete_graph,
    count_valid_embeddings,
    cycle_graph,
    enumerate_bad_events,
    event_probability,
    exists_copy,
    falling_factorial,
    find_copy,
    gen_locally_k_bounded,
    is_valid_embedding,
    path_graph,
)

# colours of the K_4 edges 01, 02, 03, 12, 13, 23 (lexicographic order)
# only 01 and 12 share a colour
ONE_MONO_CHERRY_K4 = EdgeColouring(4, [0, 1, 2, 0, 3, 4])


def scan_valid(g, colouring, mode):
    """Independent full-permutation scan of valid injections."""
    count = 0
    for sigma in permutations(range(colouring.n), g.n_vertices):
        bad = False
        img_edges = [(sigma[u], sigma[v]) for u, v in sorted(g.edges)]
        colours = [colouring.colour(a, b) for a, b in img_edges]
        edges = sorted(g.edges)
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if mode == "proper" and not (set(edges[i]) & set(edges[j])):
                    continue
                if colours[i] == colours[j]:
                    bad = True
        if not bad:
            count += 1
    return count


class TestExistsCopy:
    def test_impossible(self):
        assert exists_copy(path_graph(3), constant_colouring(3), "proper") is None

    def test_identity_on_rainbow_triangle(self):
        emb = exists_copy(complete_graph(3), distinct_colouring(3), "rainbow")
        assert emb is not None
        assert is_valid_embedding(emb, complete_graph(3), distinct_colouring(3))

    def test_c5_locally_2_bounded(self):
        g = cycle_graph(5)
        for seed in range(4):
            chi = gen_locally_k_bounded(5, 2, seed)
            emb = exists_copy(g, chi, "proper")
            count = count_valid_embeddings(g, chi, "proper")
            assert (emb is not None) == (count > 0)
            if emb is not None:
                assert is_valid_embedding(emb, g, chi)

    def test_node_budget(self):
        with pytest.raises(CapacityError):
            exists_copy(cycle_graph(6), distinct_colouring(8), "rainbow", node_budget=3)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            exists_copy(path_graph(3), constant_colouring(3), "rainbw")
        with pytest.raises(DomainError):
            exists_copy(path_graph(4), constant_colouring(3), "proper")

    @pytest.mark.parametrize("g, mode", [
        (path_graph(1200), "proper"),
        (path_graph(1200), "rainbow"),
        (cycle_graph(1200), "proper"),
    ], ids=["path-proper", "path-rainbow", "cycle-proper"])
    def test_long_graphs_have_no_depth_limit(self, g, mode):
        # one stack frame per graph vertex would pass the interpreter's
        # recursion limit here
        chi = distinct_colouring(1200)
        emb = exists_copy(g, chi, mode)
        assert emb is not None and is_valid_embedding(emb, g, chi, mode)


def pinned_instances():
    """320 seeded instances at n 5-8, both modes, about half without a copy."""
    rng = random.Random(4051)
    for i in range(320):
        n = 5 + i % 4
        mode = ("proper", "rainbow")[i // 4 % 2]
        g = random_graph(rng, rng.randint(2, n), edge_prob=0.5)
        yield g, random_colouring(rng, n, rng.randint(1, 4)), mode


class TestPinnedSearch:
    """The search order and node accounting, pinned so that a rewrite of the
    backtracker must reproduce them exactly."""

    def test_first_embeddings_and_counts(self):
        digest = hashlib.sha256()
        total = without = 0
        for g, chi, mode in pinned_instances():
            emb = exists_copy(g, chi, mode)
            count = count_valid_embeddings(g, chi, mode)
            assert (emb is None) == (count == 0)
            total += count
            without += emb is None
            digest.update(repr((None if emb is None else emb.image_of, count)).encode())
        assert (total, without) == (29928, 147)
        assert digest.hexdigest() == (
            "b8bb70a11e1ab9225fa6b1411b207641f07f286659a640c6d45e9ad48a69eef8"
        )

    @pytest.mark.parametrize("g, chi, mode, exists_nodes, count, count_nodes", [
        (path_graph(5), random_colouring(random.Random(15), 7, 2), "proper", 122, 184, 1075),
        (cycle_graph(5), random_colouring(random.Random(37), 7, 5), "rainbow", 167, 40, 1999),
        (cycle_graph(4), random_colouring(random.Random(8), 6, 2), "rainbow", 336, 0, 336),
        (path_graph(3), gen_locally_k_bounded(6, 2, 1), "proper", 3, 96, 156),
        (path_graph(3), constant_colouring(3), "proper", 15, 0, 15),
    ], ids=["p5-proper", "c5-rainbow", "c4-rainbow-none", "p3-proper", "p3-proper-none"])
    def test_node_counts(self, g, chi, mode, exists_nodes, count, count_nodes):
        assert (exists_copy(g, chi, mode, node_budget=exists_nodes) is None) == (count == 0)
        with pytest.raises(CapacityError):
            exists_copy(g, chi, mode, node_budget=exists_nodes - 1)
        assert count_valid_embeddings(g, chi, mode, node_budget=count_nodes) == count
        with pytest.raises(CapacityError):
            count_valid_embeddings(g, chi, mode, node_budget=count_nodes - 1)


class TestCountValidEmbeddings:
    def test_rainbow_colouring_counts_all(self):
        for g, n in ((path_graph(3), 5), (cycle_graph(4), 6)):
            chi = distinct_colouring(n)
            assert count_valid_embeddings(g, chi, "rainbow") == falling_factorial(
                n, g.n_vertices
            )

    def test_impossible_counts_zero(self):
        assert count_valid_embeddings(path_graph(3), constant_colouring(3), "proper") == 0

    def test_one_monochromatic_cherry_instance(self):
        # two bad events, each extended by exactly one injection, so the
        # union of bad events covers 2 of the (4)_3 = 24 injections
        g = path_graph(3)
        count = count_valid_embeddings(g, ONE_MONO_CHERRY_K4, "proper")
        assert count == scan_valid(g, ONE_MONO_CHERRY_K4, "proper") == 22
        events = enumerate_bad_events(g, ONE_MONO_CHERRY_K4, "proper")
        assert len(events) == 2
        assert [count_injections_in_event(ev, 3, 4) for ev in events] == [1, 1]

    def test_matches_scan_on_random_instances(self):
        rng = random.Random(71)
        for _ in range(15):
            n = rng.randint(3, 6)
            g = random_graph(rng, rng.randint(2, n), edge_prob=0.6)
            chi = random_colouring(rng, n, rng.randint(1, 4))
            for mode in ("proper", "rainbow"):
                assert count_valid_embeddings(g, chi, mode) == scan_valid(g, chi, mode)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            count_valid_embeddings(path_graph(3), distinct_colouring(9), "rainbow")


class TestInclusionExclusion:
    def test_union_of_bad_events(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(4, 6)
            g = random_graph(rng, rng.randint(2, 4), edge_prob=0.7)
            chi = random_colouring(rng, n, rng.randint(1, 3))
            for mode in ("proper", "rainbow"):
                events = enumerate_bad_events(g, chi, mode)
                maps = [ev.partial_map() for ev in events]
                in_union = 0
                for sigma in permutations(range(n), g.n_vertices):
                    if any(all(sigma[v] == w for v, w in m.items()) for m in maps):
                        in_union += 1
                valid = count_valid_embeddings(g, chi, mode)
                assert valid + in_union == falling_factorial(n, g.n_vertices)

    def test_event_measure_matches_probability(self):
        rng = random.Random(91)
        g = cycle_graph(4)
        chi = random_colouring(rng, 6, 2)
        total = falling_factorial(6, 4)
        for ev in enumerate_bad_events(g, chi, "rainbow")[:50]:
            measure = count_injections_in_event(ev, 4, 6)
            assert Fraction(measure, total) == event_probability(ev.type_tag, 6)


class TestSamplerConsistency:
    def test_sampler_agrees_with_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(3, 7)
            g = random_graph(rng, rng.randint(2, n), edge_prob=0.6)
            chi = random_colouring(rng, n, rng.randint(1, 3))
            mode = rng.choice(["proper", "rainbow"])
            possible = exists_copy(g, chi, mode) is not None
            outcomes = [
                find_copy(g, chi, mode, seed=s, max_resamples=150).success
                for s in range(5)
            ]
            if not possible:
                assert not any(outcomes)
            if any(outcomes):
                assert possible
