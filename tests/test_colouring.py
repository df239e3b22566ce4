import hashlib
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_colouring
from rainbowcopy import (
    CapacityError,
    DomainError,
    EdgeColouring,
    FormatError,
    boundedness,
    constant_colouring,
    distinct_colouring,
    gen_k_bounded,
    gen_locally_k_bounded,
    load_colouring,
    save_colouring,
)
from rainbowcopy.colouring import COLOUR_MAX, MAX_VERTICES, all_edges

# colours of the K_4 edges 01, 02, 03, 12, 13, 23 (lexicographic order)
# perfect matchings {01, 23}, {02, 13}, {03, 12} get colours 0, 1, 2
K4_MATCHINGS = EdgeColouring(4, [0, 1, 2, 2, 1, 0])


class TestBoundedness:
    def test_k4_perfect_matchings(self):
        assert boundedness(K4_MATCHINGS) == (2, 1)

    def test_all_distinct(self):
        assert boundedness(distinct_colouring(5)) == (1, 1)

    def test_monochromatic_k3(self):
        assert boundedness(constant_colouring(3)) == (3, 2)


class TestGenKBounded:
    def test_n4_k2(self):
        chi = gen_k_bounded(4, 2, 17)
        assert len(chi.colours_used()) == 3
        assert boundedness(chi).global_bound <= 2

    def test_rainbow_k3(self):
        chi = gen_k_bounded(3, 1, 5)
        assert len(chi.colours_used()) == 3
        assert boundedness(chi) == (1, 1)

    def test_n10_k3(self):
        chi = gen_k_bounded(10, 3, 99)
        assert len(chi.colours_used()) == math.ceil(45 / 3) == 15
        assert boundedness(chi).global_bound <= 3

    def test_deterministic(self):
        assert gen_k_bounded(8, 3, 42) == gen_k_bounded(8, 3, 42)
        assert gen_k_bounded(8, 3, 42) != gen_k_bounded(8, 3, 43)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            gen_k_bounded(1, 1, 0)
        with pytest.raises(DomainError):
            gen_k_bounded(4, 0, 0)


class TestGenLocallyKBounded:
    def test_n4_k1_is_proper(self):
        chi = gen_locally_k_bounded(4, 1, 3)
        assert boundedness(chi).local_bound == 1
        assert len(chi.colours_used()) == 3

    def test_n6_k2(self):
        chi = gen_locally_k_bounded(6, 2, 11)
        assert len(chi.colours_used()) <= 3
        assert boundedness(chi).local_bound <= 2

    def test_n5_k5_collapses(self):
        chi = gen_locally_k_bounded(5, 5, 0)
        assert len(chi.colours_used()) == 1
        assert boundedness(chi).local_bound <= 4

    def test_deterministic(self):
        assert gen_locally_k_bounded(7, 2, 1) == gen_locally_k_bounded(7, 2, 1)


SMALL_DOC = """n 3
0 1 7
0 2 7
1 2 9
"""


class TestLoadSave:
    def test_document_example(self):
        chi = load_colouring(SMALL_DOC)
        assert boundedness(chi) == (2, 2)

    def test_missing_edge(self):
        with pytest.raises(FormatError):
            load_colouring("n 3\n0 1 7\n0 2 7\n")

    def test_duplicate_edge(self):
        with pytest.raises(FormatError):
            load_colouring("n 3\n0 1 7\n1 0 8\n1 2 9\n")

    def test_round_trip(self):
        chi = gen_k_bounded(5, 2, 42)
        assert load_colouring(save_colouring(chi)) == chi

    def test_comments(self):
        chi = load_colouring("# colouring\nn 2\n0 1 5\n")
        assert chi.colour(0, 1) == 5

    def test_negative_colour(self):
        with pytest.raises(FormatError):
            load_colouring("n 2\n0 1 -3\n")

    def test_colour_too_large_for_the_table(self):
        load_colouring(f"n 2\n0 1 {COLOUR_MAX}\n")
        with pytest.raises(FormatError, match=r"line 3: colour 2147483648 exceeds"):
            load_colouring("n 2\n# one edge\n0 1 2147483648\n")

    def test_errors_keep_their_line_numbers(self):
        cases = {
            "n 3\n0 1 7\n1 0 8\n1 2 9\n": "line 3: duplicate edge 1 0",
            "n 3\n0 1 7\n0 2 x\n1 2 9\n": "line 3: non-integer token",
            "n 3\n0 1 7\n2 2 1\n1 2 9\n": "line 3: loop edge 2 2",
            "n 3\n0 1 7\n0 3 1\n1 2 9\n": "line 3: endpoint out of range",
            "n 3\n0 1 7\n0 2\n1 2 9\n": "line 3: expected '<u> <v> <c>'",
            "# c\nn 3\n0 1 7\n0 2 -1\n1 2 9\n": "line 4: negative colour -1",
            "n x\n": "line 1: bad vertex count",
            "m 3\n": "line 1: expected header",
        }
        for text, message in cases.items():
            with pytest.raises(FormatError, match=message):
                load_colouring(text)

    def test_incomplete_reports_count_and_examples(self):
        # enough lines for K_4, but two of them are comments
        text = "n 4\n0 1 0\n# a\n0 3 0\n1 2 0\n# b\n2 3 0\n"
        with pytest.raises(FormatError, match=r"2 missing edges, e.g. \[\(0, 2\), \(1, 3\)\]"):
            load_colouring(text)
        text = "n 5\n0 1 0\n" + "# c\n" * 9
        with pytest.raises(FormatError, match=r"9 missing edges, e.g. \[\(0, 2\), \(0, 3\), \(0, 4\)\]"):
            load_colouring(text)


class TestSizeGuard:
    def test_forged_header_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            load_colouring("n 100000\n0 1 5\n")
        assert time.perf_counter() - start < 0.1

    def test_two_line_file_at_the_cap_fails_fast(self):
        for n in (10_000, MAX_VERTICES):
            start = time.perf_counter()
            with pytest.raises(FormatError, match="incomplete"):
                load_colouring(f"n {n}\n0 1 5\n")
            assert time.perf_counter() - start < 0.1

    def test_generators_and_constructor_refuse_above_the_cap(self):
        assert MAX_VERTICES >= 10_000
        for build in (lambda n: gen_k_bounded(n, 3, 0), lambda n: gen_locally_k_bounded(n, 3, 0),
                      lambda n: EdgeColouring(n, []), constant_colouring, distinct_colouring):
            with pytest.raises(CapacityError):
                build(MAX_VERTICES + 1)


class TestEdgeColouring:
    def test_totality_enforced(self):
        with pytest.raises(FormatError):
            EdgeColouring(3, [0])

    def test_colour_values_checked(self):
        with pytest.raises(FormatError, match="negative colour -2 on edge \\(0, 2\\)"):
            EdgeColouring(3, [0, -2, 1])
        with pytest.raises(FormatError):
            EdgeColouring(3, [0, 2**31, 1])
        assert EdgeColouring(3, [0, COLOUR_MAX, 1]).colour(2, 0) == COLOUR_MAX

    def test_table_is_four_bytes_per_edge_in_edge_order(self):
        chi = gen_k_bounded(9, 2, 4)
        assert chi.table.typecode == "i" and chi.table.itemsize == 4
        assert list(chi.table) == [chi.colour(u, v) for u, v in all_edges(9)]

    def test_colour_lookup_normalises(self):
        assert K4_MATCHINGS.colour(3, 0) == 2

    def test_colour_off_graph(self):
        with pytest.raises(DomainError):
            K4_MATCHINGS.colour(0, 4)
        with pytest.raises(DomainError):
            K4_MATCHINGS.colour(1, 1)


@settings(max_examples=60, derandomize=True)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
def test_gen_k_bounded_properties(n, k, seed):
    chi = gen_k_bounded(n, k, seed)
    assert boundedness(chi).global_bound <= k
    n_edges = n * (n - 1) // 2
    assert len(chi.colours_used()) == -(-n_edges // k)


@settings(max_examples=60, derandomize=True)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
def test_gen_locally_k_bounded_properties(n, k, seed):
    chi = gen_locally_k_bounded(n, k, seed)
    assert boundedness(chi).local_bound <= k
    assert load_colouring(save_colouring(chi)) == chi


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_locally_1_bounded_is_proper(n, seed):
    chi = gen_locally_k_bounded(n, 1, seed)
    edges = list(all_edges(n))
    for u, v in edges:
        for x, y in edges:
            if (u, v) < (x, y) and {u, v} & {x, y}:
                assert chi.colour(u, v) != chi.colour(x, y)


@settings(max_examples=60, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_boundedness_matches_brute_force(n, n_colours, seed):
    chi = random_colouring(random.Random(seed), n, n_colours)
    edges = list(all_edges(n))
    global_bound = max(Counter(chi.colour(u, v) for u, v in edges).values(), default=0)
    local_bound = max(
        (sum(chi.colour(*e) == chi.colour(*f) for f in edges if x in f) for e in edges for x in e),
        default=0,
    )
    assert boundedness(chi) == (global_bound, local_bound)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of save_colouring output, recorded with the dict-backed
# colouring that preceded the flat table: generation and serialisation are
# unchanged bit for bit
@pytest.mark.parametrize(
    "gen, n, k, seed, digest",
    [
        (gen_k_bounded, 400, 27, 1, "1f9493fa4cc3095d"),
        (gen_locally_k_bounded, 400, 45, 1, "d5a99fbf86d066ed"),
        (gen_k_bounded, 7, 3, 5, "a06b17c2778ff8ae"),
        (gen_locally_k_bounded, 9, 2, 5, "a13e36c5c1d8ce02"),
    ],
)
def test_saved_colourings_are_pinned(gen, n, k, seed, digest):
    text = save_colouring(gen(n, k, seed))
    assert _digest(text) == digest
    assert save_colouring(load_colouring(text)) == text
