import io
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from rainbowcopy import (
    CapacityError,
    FormatError,
    DomainError,
    Graph,
    cherry_stats,
    complete_graph,
    cycle_graph,
    falling_factorial,
    load_graph,
    path_graph,
)
from rainbowcopy.colouring import MAX_VERTICES, _blocks

P3_DOC = """n 3
0 1
1 2
"""


def brute_force_cherries(g: Graph) -> int:
    """Ordered triples (x, y, z) with xy, yz edges and x < z."""
    count = 0
    for y in range(g.n_vertices):
        for x in g.adjacency[y]:
            for z in g.adjacency[y]:
                if x < z:
                    count += 1
    return count


def brute_force_cherries_at(g: Graph, v: int) -> int:
    """Cherries (unordered) whose three vertices include v."""
    count = 0
    for y in range(g.n_vertices):
        for x in g.adjacency[y]:
            for z in g.adjacency[y]:
                if x < z and v in (x, y, z):
                    count += 1
    return count


class TestLoadGraph:
    def test_p3(self):
        g = load_graph(P3_DOC)
        assert g.n_vertices == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_loop_rejected(self):
        with pytest.raises(FormatError):
            load_graph("n 2\n0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError):
            load_graph("n 4\n0 1\n0 1\n")

    def test_duplicate_reversed_rejected(self):
        with pytest.raises(FormatError):
            load_graph("n 4\n0 1\n1 0\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(FormatError):
            load_graph("n 3\n0 3\n")

    def test_wrong_field_count(self):
        for line in ("0", "0 1 2"):
            with pytest.raises(FormatError, match="^line 2: expected '<u> <v>'"):
                load_graph(f"n 3\n{line}\n")

    def test_comments_and_blanks(self):
        g = load_graph("# path\n\nn 3\n# edge list\n0 1\n\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_missing_header(self):
        with pytest.raises(FormatError):
            load_graph("0 1\n")
        with pytest.raises(FormatError):
            load_graph("")

    def test_isolated_vertices_allowed(self):
        g = load_graph("n 5\n")
        assert g.n_vertices == 5 and not g.edges

    def test_header_capped_at_the_largest_colouring(self):
        assert load_graph(f"n {MAX_VERTICES}\n0 1\n").n_vertices == MAX_VERTICES
        for n in (MAX_VERTICES + 1, 2_000_000, 10**30):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=f"line 2: {n} vertices exceed"):
                load_graph(f"# forged\nn {n}\n0 1\n")
            assert time.perf_counter() - start < 0.1

    def test_a_document_of_several_blocks_streams(self, tmp_path):
        # P_16384 is 174 KB, three blocks; a comment starts the second
        n = MAX_VERTICES
        text = f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        cut = len(next(_blocks(text, 0)))
        text = text[:cut] + "# at the cut\n" + text[cut:]
        path = tmp_path / "p.graph"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            assert load_graph(handle) == load_graph(text) == path_graph(n)
        text = text.replace(f"\n{n - 9} {n - 8}\n", f"\n{n - 9} x\n")
        lineno = text.splitlines().index(f"{n - 9} x") + 1
        for source in (text, io.StringIO(text)):
            with pytest.raises(FormatError, match=f"^line {lineno}: non-integer endpoint"):
                load_graph(source)


class TestGraph:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            Graph(0, frozenset())
        for edge in ((1, 1), (1, 0), (0, 3), (-1, 2)):
            with pytest.raises(FormatError):
                Graph(3, frozenset({edge}))


class TestCherryStats:
    def test_p3(self):
        s = cherry_stats(path_graph(3))
        assert s.total_cherries == 1
        assert s.max_cherries_per_vertex == 1
        assert s.max_degree == 2
        assert s.edge_count == 2

    def test_c5(self):
        s = cherry_stats(cycle_graph(5))
        assert s.total_cherries == 5
        assert s.max_cherries_per_vertex == 3
        assert s.max_degree == 2

    def test_k4_against_enumeration(self):
        g = complete_graph(4)
        s = cherry_stats(g)
        assert s.total_cherries == brute_force_cherries(g) == 12
        assert s.max_cherries_per_vertex == max(
            brute_force_cherries_at(g, v) for v in range(4)
        ) == 9
        assert s.max_degree == 3

    def test_empty_graph(self):
        s = cherry_stats(Graph.from_edges(4, []))
        assert s == cherry_stats(Graph.from_edges(4, []))
        assert s.total_cherries == 0 and s.max_degree == 0


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(10, 4) == 5040
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(0, 0) == 1
        assert falling_factorial(4, 4) == 24

    def test_k_above_n(self):
        with pytest.raises(DomainError):
            falling_factorial(3, 4)

    def test_negative(self):
        with pytest.raises(DomainError):
            falling_factorial(-1, 0)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    return Graph.from_edges(n, edges)


@settings(max_examples=120, derandomize=True)
@given(graphs())
def test_cherry_bounds(g):
    s = cherry_stats(g)
    delta = s.max_degree
    assert 2 * s.total_cherries <= delta * delta * g.n_vertices
    assert 2 * s.max_cherries_per_vertex <= 3 * delta * delta


@settings(max_examples=120, derandomize=True)
@given(graphs())
def test_total_cherries_matches_enumeration(g):
    assert cherry_stats(g).total_cherries == brute_force_cherries(g)


@settings(max_examples=120, derandomize=True)
@given(graphs())
def test_max_cherries_matches_enumeration(g):
    expected = max((brute_force_cherries_at(g, v) for v in range(g.n_vertices)), default=0)
    assert cherry_stats(g).max_cherries_per_vertex == expected


@settings(max_examples=80, derandomize=True)
@given(graphs(), st.integers(min_value=0, max_value=2**31))
def test_relabelling_invariance(g, seed):
    perm = list(range(g.n_vertices))
    random.Random(seed).shuffle(perm)
    relabelled = Graph.from_edges(g.n_vertices, [(perm[u], perm[v]) for u, v in g.edges])
    assert cherry_stats(relabelled) == cherry_stats(g)
