import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import random_colouring, random_graph
from rainbowcopy import (
    DomainError,
    EdgeColouring,
    Embedding,
    Graph,
    constant_colouring,
    cycle_graph,
    distinct_colouring,
    find_copy,
    gen_k_bounded,
    gen_locally_k_bounded,
    is_valid_embedding,
    path_graph,
    random_injection,
    violated_events,
)
from rainbowcopy import sampler

TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])
# colours of the K_4 edges 01, 02, 03, 12, 13, 23 (lexicographic order)
ONE_MONO_DISJOINT = EdgeColouring(4, [0, 1, 2, 3, 4, 0])


class TestRandomInjection:
    def test_full_permutation(self):
        emb = random_injection(6, 6, 1)
        assert sorted(emb.image_of) == list(range(6))

    def test_single_vertex(self):
        emb = random_injection(1, 5, 2)
        assert len(emb.image_of) == 1 and 0 <= emb.image_of[0] < 5

    def test_deterministic(self):
        assert random_injection(4, 9, 7) == random_injection(4, 9, 7)
        assert random_injection(4, 9, 7) != random_injection(4, 9, 8)

    def test_too_large_rejected(self):
        with pytest.raises(DomainError):
            random_injection(4, 3, 0)

    def test_empirical_uniformity(self):
        counts = Counter(random_injection(2, 3, seed).image_of for seed in range(60_000))
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / 60_000 - 1 / 6) <= 0.01


class TestViolatedEvents:
    def test_valid_embedding_empty(self):
        emb = Embedding((0, 1, 2))
        assert violated_events(emb, path_graph(3), distinct_colouring(3), "proper") == []

    def test_p3_monochromatic_always_one(self):
        for seed in range(5):
            emb = random_injection(3, 3, seed)
            pairs = violated_events(emb, path_graph(3), constant_colouring(3), "proper")
            assert pairs == [((0, 1), (1, 2))]

    def test_two_k2_modes(self):
        emb = Embedding((0, 1, 2, 3))
        rainbow = violated_events(emb, TWO_K2, ONE_MONO_DISJOINT, "rainbow")
        assert rainbow == [((0, 1), (2, 3))]
        assert violated_events(emb, TWO_K2, ONE_MONO_DISJOINT, "proper") == []

    def test_canonical_order(self):
        emb = Embedding((0, 1, 2, 3))
        pairs = violated_events(emb, cycle_graph(4), constant_colouring(4), "rainbow")
        assert pairs == sorted(pairs)
        assert len(pairs) == 6  # all pairs of the 4 cycle edges


class TestFindCopy:
    def test_rainbow_colouring_returns_initial_injection(self):
        g = cycle_graph(5)
        result = find_copy(g, distinct_colouring(7), "rainbow", seed=13)
        assert result.success and result.resamples == 0
        assert result.embedding.image_of == random_injection(5, 7, 13).image_of

    def test_impossible_instance_fails(self):
        result = find_copy(
            path_graph(3), constant_colouring(3), "proper", seed=1, max_resamples=200
        )
        assert not result.success
        assert result.resamples == 200
        assert result.final_violations == 1

    def test_zero_budget(self):
        result = find_copy(
            path_graph(3), constant_colouring(3), "proper", seed=1, max_resamples=0
        )
        assert not result.success and result.resamples == 0

    def test_deterministic_transcript(self):
        g = cycle_graph(20)
        chi = gen_k_bounded(20, 2, 3)
        a = find_copy(g, chi, "rainbow", seed=5)
        b = find_copy(g, chi, "rainbow", seed=5)
        assert a == b

    def test_c500_rainbow(self):
        g = cycle_graph(500)
        chi = gen_k_bounded(500, 2, 21)
        result = find_copy(g, chi, "rainbow", seed=4)
        assert result.success
        assert is_valid_embedding(result.embedding, g, chi)

    def test_c200_proper(self):
        g = cycle_graph(200)
        chi = gen_locally_k_bounded(200, 3, 8)
        result = find_copy(g, chi, "proper", seed=4)
        assert result.success
        assert is_valid_embedding(result.embedding, g, chi)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError, match="max_resamples"):
            find_copy(path_graph(3), constant_colouring(3), "proper", seed=1, max_resamples=-1)

    def test_graph_too_large(self):
        with pytest.raises(DomainError):
            find_copy(path_graph(4), constant_colouring(3), "proper", seed=0)


class TestAgreement:
    def test_violations_empty_iff_valid(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(3, 7)
            g = random_graph(rng, rng.randint(2, n), edge_prob=0.6)
            chi = random_colouring(rng, n, rng.randint(1, 4))
            emb = random_injection(g.n_vertices, n, rng.randrange(10**6))
            for mode in ("proper", "rainbow"):
                empty = not violated_events(emb, g, chi, mode)
                assert empty == is_valid_embedding(emb, g, chi, mode)

    def test_returned_embeddings_always_validate(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(4, 8)
            g = random_graph(rng, rng.randint(2, n), edge_prob=0.5)
            chi = random_colouring(rng, n, rng.randint(2, 5))
            mode = rng.choice(["proper", "rainbow"])
            result = find_copy(g, chi, mode, seed=rng.randrange(10**6), max_resamples=300)
            if result.success:
                assert is_valid_embedding(result.embedding, g, chi, mode)
                assert not violated_events(result.embedding, g, chi, mode)


# (success, resamples, final_violations, sha256(repr(image_of))[:16]) of
# find_copy on C_400 with max_resamples=4000.  The values have held since
# the colouring was a dict and the sampler scanned every pair, so they pin
# the swap step and the smallest-pair rule; any change to either re-derives
# them.
SAMPLER_PINS = {
    ("rainbow", "smallest", 2): (True, 2066, 0, "6928892f154c3c66"),
    ("rainbow", "smallest", 3): (True, 1428, 0, "9cc43d6ca49d4fa0"),
    ("proper", "smallest", 2): (False, 4000, 10, None),
    ("proper", "smallest", 3): (False, 4000, 13, None),
}


@pytest.mark.parametrize("mode, selection, seed", sorted(SAMPLER_PINS))
def test_transcripts_are_pinned(mode, selection, seed):
    gen, k = (gen_k_bounded, 27) if mode == "rainbow" else (gen_locally_k_bounded, 45)
    result = find_copy(cycle_graph(400), gen(400, k, 1), mode, seed=seed, max_resamples=4000)
    image = result.embedding.image_of if result.embedding else None
    digest = hashlib.sha256(repr(image).encode()).hexdigest()[:16] if image else None
    assert (result.success, result.resamples, result.final_violations, digest) == \
        SAMPLER_PINS[mode, selection, seed]


# sha256 over find_copy(...).to_json() of 300 seeded tiny instances (n 4-8,
# palettes of 1-4 colours, both modes, a budget of 120), one JSON line each.
# Captured while every swap of a step still re-filed its own edges; these
# dense instances often touch one edge twice in a step or leave its key
# unchanged, which the C_400 pins above rarely do.
SMALL_PINS_SHA256 = "77a7b4c7938a1dab567628779e805b3a7dde87ad1d357963db63990df0ac157e"


def test_small_instance_transcripts_are_pinned():
    rng = random.Random(89)
    digest = hashlib.sha256()
    for _ in range(150):
        n = rng.randint(4, 8)
        g = random_graph(rng, rng.randint(3, n), edge_prob=0.6)
        chi = random_colouring(rng, n, rng.randint(1, 4))
        for mode in ("proper", "rainbow"):
            result = find_copy(g, chi, mode, seed=rng.randrange(10**6), max_resamples=120)
            digest.update(json.dumps(result.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SMALL_PINS_SHA256


_Index = sampler._ViolationIndex


class _CheckedIndex(_Index):
    """Compares the incrementally kept minimum with a full recomputation
    every time find_copy asks for it, and the whole index with one built
    afresh over the current image after every update."""

    calls = 0
    moves = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.args = args

    def move(self, touched, img):
        super().move(touched, img)
        fresh = _Index(*self.args)
        fresh.move(range(self.m), img)
        assert self.classes == fresh.classes
        assert self.front == fresh.front
        assert self.keys_at == fresh.keys_at
        type(self).moves += 1

    def all_pairs(self):
        pairs = set()
        for key in self.front:
            pairs.update(combinations(sorted(self.classes[key]), 2))
        return sorted(pairs)

    def smallest_pair(self):
        pair = super().smallest_pair()
        pairs = self.all_pairs()
        assert pair == pairs[0]
        assert self.pair_count() == len(pairs)
        type(self).calls += 1
        return pair


def test_incremental_minimum_matches_all_pairs(monkeypatch):
    monkeypatch.setattr(sampler, "_ViolationIndex", _CheckedIndex)
    rng = random.Random(71)
    # the first three spend their budget, so the index is checked after
    # many updates
    runs = [(cycle_graph(60), gen_k_bounded(60, 12, 1), "rainbow"),
            (cycle_graph(60), gen_locally_k_bounded(60, 36, 1), "proper"),
            (path_graph(3), constant_colouring(3), "proper")]
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_graph(rng, rng.randint(2, n), edge_prob=0.6)
        runs.append((g, random_colouring(rng, n, rng.randint(1, 4)), rng.choice(["proper", "rainbow"])))
    for g, chi, mode in runs:
        result = find_copy(g, chi, mode, seed=rng.randrange(10**6), max_resamples=300)
        assert result.success or result.resamples == 300
    assert _CheckedIndex.calls > 1000 and _CheckedIndex.moves > 1000
