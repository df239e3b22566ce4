import hashlib
import io
import math
import random
import tempfile
import time
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate, combinations, zip_longest
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import constant_colouring, distinct_colouring, random_colouring
from rainbowcopy import (
    CapacityError,
    DomainError,
    EdgeColouring,
    FormatError,
    boundedness,
    gen_k_bounded,
    gen_locally_k_bounded,
    load_colouring,
    save_colouring,
)
from rainbowcopy import colouring
from rainbowcopy.colouring import COLOUR_MAX, MAX_VERTICES, row_offsets

# colours of the K_4 edges 01, 02, 03, 12, 13, 23 (lexicographic order)
# perfect matchings {01, 23}, {02, 13}, {03, 12} get colours 0, 1, 2
K4_MATCHINGS = EdgeColouring(4, [0, 1, 2, 2, 1, 0])


class TestBoundedness:
    def test_k4_perfect_matchings(self):
        assert boundedness(K4_MATCHINGS) == (2, 1, 3)

    def test_all_distinct(self):
        assert boundedness(distinct_colouring(5)) == (1, 1, 10)

    def test_monochromatic_k3(self):
        assert boundedness(constant_colouring(3)) == (3, 2, 1)


class TestGenKBounded:
    def test_n4_k2(self):
        chi = gen_k_bounded(4, 2, 17)
        assert boundedness(chi).colours == 3
        assert boundedness(chi).global_bound <= 2

    def test_rainbow_k3(self):
        chi = gen_k_bounded(3, 1, 5)
        assert boundedness(chi) == (1, 1, 3)

    def test_n10_k3(self):
        chi = gen_k_bounded(10, 3, 99)
        assert boundedness(chi).colours == math.ceil(45 / 3) == 15
        assert boundedness(chi).global_bound <= 3

    def test_deterministic(self):
        assert gen_k_bounded(8, 3, 42) == gen_k_bounded(8, 3, 42)
        assert gen_k_bounded(8, 3, 42) != gen_k_bounded(8, 3, 43)

    def test_bad_args(self):
        for gen in (gen_k_bounded, gen_locally_k_bounded):
            with pytest.raises(DomainError):
                gen(1, 1, 0)
            with pytest.raises(DomainError):
                gen(4, 0, 0)


class TestGenLocallyKBounded:
    def test_n4_k1_is_proper(self):
        chi = gen_locally_k_bounded(4, 1, 3)
        assert boundedness(chi).local_bound == 1
        assert boundedness(chi).colours == 3

    def test_n6_k2(self):
        chi = gen_locally_k_bounded(6, 2, 11)
        assert boundedness(chi).colours <= 3
        assert boundedness(chi).local_bound <= 2

    def test_n5_k5_collapses(self):
        chi = gen_locally_k_bounded(5, 5, 0)
        assert boundedness(chi).colours == 1
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
        assert boundedness(chi) == (2, 2, 2)

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
            "# c\nn 0\n": "line 2: vertex count must be positive",
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
        with pytest.raises(CapacityError, match="^line 1: 100000 vertices exceed the cap of 16384$"):
            load_colouring("n 100000\n0 1 5\n")
        assert time.perf_counter() - start < 0.1

    def test_two_line_file_at_the_cap_fails_fast(self):
        for n in (10_000, MAX_VERTICES):
            for source in (f"n {n}\n0 1 5\n", io.StringIO(f"n {n}\n0 1 5\n")):
                start = time.perf_counter()
                with pytest.raises(FormatError, match="incomplete"):
                    load_colouring(source)
                assert time.perf_counter() - start < 0.1

    def test_generators_and_constructor_refuse_above_the_cap(self):
        assert MAX_VERTICES >= 10_000
        for build in (lambda n: gen_k_bounded(n, 3, 0), lambda n: gen_locally_k_bounded(n, 3, 0),
                      lambda n: EdgeColouring(n, [])):
            with pytest.raises(CapacityError):
                build(MAX_VERTICES + 1)


class TestEdgeColouring:
    def test_totality_enforced(self):
        with pytest.raises(FormatError):
            EdgeColouring(3, [0])

    def test_no_colouring_without_vertices(self):
        with pytest.raises(DomainError):
            EdgeColouring(0, [])

    def test_colour_values_checked(self):
        with pytest.raises(FormatError, match="negative colour -2 on edge \\(0, 2\\)"):
            EdgeColouring(3, [0, -2, 1])
        with pytest.raises(FormatError):
            EdgeColouring(3, [0, 2**31, 1])
        assert EdgeColouring(3, [0, COLOUR_MAX, 1]).colour(2, 0) == COLOUR_MAX

    def test_table_is_four_bytes_per_edge_in_edge_order(self):
        chi = gen_k_bounded(9, 2, 4)
        assert chi.table.typecode == "i" and chi.table.itemsize == 4
        assert list(chi.table) == [chi.colour(u, v) for u, v in combinations(range(9), 2)]

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
    assert boundedness(chi).colours == -(-n_edges // k)
    assert sorted(chi.table) == [i // k for i in range(n_edges)]


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
    # colour i // k on the i-th of r matching classes of n // 2 edges each
    r = n if n % 2 else n - 1
    assert sorted(chi.table) == [i // k for i in range(r) for _ in range(n // 2)]


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_locally_1_bounded_is_proper(n, seed):
    chi = gen_locally_k_bounded(n, 1, seed)
    edges = list(combinations(range(n), 2))
    for u, v in edges:
        for x, y in edges:
            if (u, v) < (x, y) and {u, v} & {x, y}:
                assert chi.colour(u, v) != chi.colour(x, y)


# Each generator draws a uniformly random arrangement of a fixed colour
# multiset: colour i // k on the i-th of the C(n, 2) edges, or on the i-th of
# the r matching classes, in some order.  K_3 with k=2 has the 3 arrangements
# of {0, 0, 1}; K_5 with k=2 has the 30 of {0, 0, 1, 1, 2} on its 5 classes of
# 2 edges each, so its tables hold colours 0 and 1 four times and 2 twice.
@pytest.mark.parametrize("gen, n, multiset, n_tables", [
    (gen_k_bounded, 3, [0, 0, 1], 3),
    (gen_locally_k_bounded, 5, [0] * 4 + [1] * 4 + [2] * 2, 30),
])
def test_generators_draw_every_arrangement_evenly(gen, n, multiset, n_tables):
    draws = 30_000
    counts = Counter(tuple(gen(n, 2, seed).table) for seed in range(draws))
    assert all(sorted(table) == multiset for table in counts)
    assert len(counts) == n_tables
    mean = draws / n_tables
    assert all(0.85 * mean <= count <= 1.15 * mean for count in counts.values()), counts


@settings(max_examples=60, derandomize=True)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_boundedness_matches_brute_force(n, n_colours, seed):
    chi = random_colouring(random.Random(seed), n, n_colours)
    edges = list(combinations(range(n), 2))
    by_colour = Counter(chi.colour(u, v) for u, v in edges)
    global_bound = max(by_colour.values(), default=0)
    local_bound = max(
        (sum(chi.colour(*e) == chi.colour(*f) for f in edges if x in f) for e in edges for x in e),
        default=0,
    )
    assert boundedness(chi) == (global_bound, local_bound, len(by_colour))


# around the edges of boundedness's column blocks, with few colours (large
# counts at a vertex) and many (nearly all counts 1)
@pytest.mark.parametrize("n_colours", [3, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 130])
def test_boundedness_across_column_blocks(n, n_colours):
    chi = random_colouring(random.Random(n * 31 + n_colours), n, n_colours)
    by_colour = Counter(chi.colour(u, v) for u, v in combinations(range(n), 2))
    local_bound = max(
        max(Counter(chi.colour(x, y) for y in range(n) if y != x).values(), default=0)
        for x in range(n)
    )
    assert boundedness(chi) == (max(by_colour.values(), default=0), local_bound, len(by_colour))


# load_colouring's block path is checked on an empty table of K_1000: a
# block either stays out of the table or stores what the per-line parser
# stores for the same lines
BLOCK_N = 1000
BLOCK_EDGES = BLOCK_N * (BLOCK_N - 1) // 2


def store_block(block: str) -> int:
    """colouring._store_canonical on an empty table of K_BLOCK_N, checked
    against colouring._parse_lines; its return value."""
    off = row_offsets(BLOCK_N)
    table = array("i", [-1]) * BLOCK_EDGES
    count = colouring._store_canonical(block, colouring._tails(BLOCK_N), off, table)
    expected = array("i", [-1]) * BLOCK_EDGES
    if count:
        assert count == len(block.splitlines())
        colouring._parse_lines(block.splitlines(), 1, BLOCK_N, off, expected)
    assert table == expected
    return count


_GRAMMAR_CHARS = "0123456789 \n\r\t+-\u0663"
_DIGITS = st.text(alphabet="0123456789", max_size=3)
_CANONICAL_LINE = st.builds("{} {} {}\n".format, *[_DIGITS.filter(bool)] * 3)
# a line with empty tokens, double spaces, tabs, extra tokens, signs,
# non-ASCII digits, CRLF or no line break
_NEAR_LINE = st.builds(
    "".join,
    st.tuples(
        _DIGITS, st.sampled_from([" ", "  ", "\t", ""]),
        _DIGITS, st.sampled_from([" ", "  ", " \u0663"]),
        _DIGITS, st.sampled_from(["", " ", " 7", "+"]),
        st.sampled_from(["\n", "\r\n", ""]),
    ),
)


@st.composite
def _saved_block(draw):
    """The lines of consecutive edges of K_BLOCK_N as save_colouring writes
    them, across rows, some colours respelt with a sign or leading zeros,
    and maybe one character changed."""
    first = draw(st.integers(0, BLOCK_EDGES - 1))
    count = draw(st.integers(1, min(2 * BLOCK_N, BLOCK_EDGES - first)))
    prefixes = draw(st.sampled_from([[], ["+", "0", "00", "+0"], ["-", "-0"]]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    u, v = colouring._edge_of(BLOCK_N, first)
    lines = []
    for _ in range(count):
        c = str(rng.randint(0, COLOUR_MAX))
        if prefixes and rng.random() < 0.1:
            c = rng.choice(prefixes) + c
        lines.append(f"{u} {v} {c}\n")
        u, v = (u, v + 1) if v + 1 < BLOCK_N else (u + 1, u + 2)
    block = "".join(lines)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(block) - 1))
        change = draw(st.sampled_from(["", "  ", "1", "\r", "-", "+", "\u0663", "2147483648"]))
        block = block[:i] + change + block[i + 1 :]
    return block


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=_GRAMMAR_CHARS, max_size=24),
        st.text(alphabet="7 \n", max_size=16),
        # whole lines, then digits with no line break after them
        st.builds(
            str.__add__,
            st.builds("".join, st.lists(st.one_of(_CANONICAL_LINE, _NEAR_LINE), max_size=4)),
            _DIGITS,
        ),
        _saved_block(),
    )
)
def test_block_path_agrees_with_the_line_parser(block):
    store_block(block)


def test_block_path_edge_cases():
    last = f"{BLOCK_N - 2} {BLOCK_N - 1}"
    for block, expected in [
        ("", 0),
        ("0 1 2\n", 1),
        ("0 1 2\n0 2 3\n", 2),
        (f"0 {BLOCK_N - 1} 4\n1 2 5\n1 3 6\n", 3),  # across a row's end
        (f"{last} {COLOUR_MAX}\n", 1),
        ("10 11 12\n3 4 5\n", 0),  # not consecutive edges
        ("1 0 2\n", 0),
        ("00 1 2\n", 0),  # only a colour may be respelt
        ("0 1 +5\n0 2 007\n", 2),
        ("0 1 \u0663\n", 1),  # int() reads non-ASCII digits, as the line parser does
        ("1  2\n3", 0),  # an empty token and a trailing digit make three tokens
        ("0 1 2\n4", 0),  # trailing digits with no line break
        ("0 1 2", 0),
        (" 0 1 2\n", 0),  # a leading space
        ("0 1 2 \n", 0),  # a trailing space
        ("0 1 2\r\n", 0),
        ("0 1 2\n\n", 0),
        ("0 1 \udc80\n", 0),  # a lone surrogate
        ("0 1 -5\n", 0),
        ("0 1 -0\n", 0),
        (f"0 1 {COLOUR_MAX + 1}\n", 0),
        (f"{last} 1\n{last} 1\n", 0),  # past the last edge
    ]:
        assert store_block(block) == expected, block


def assert_same_lines(got: str, want: str) -> None:
    """got == want; a mismatch is compared line by line, so that it reports
    its first line quickly instead of diffing whole documents."""
    if got == want:
        return
    for got_line, want_line in zip_longest(got.splitlines(True), want.splitlines(True)):
        assert got_line == want_line


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of save_colouring output: they pin the colouring each
# generator draws for a seed, and its serialisation
@pytest.mark.parametrize(
    "gen, n, k, seed, digest",
    [
        (gen_k_bounded, 400, 27, 1, "564bb60279cff803"),
        (gen_locally_k_bounded, 400, 45, 1, "5df3a12aa1d09bcc"),
        (gen_k_bounded, 7, 3, 5, "4d00721b320787a0"),
        (gen_locally_k_bounded, 9, 2, 5, "88c60ad19ee9e4b9"),
        (gen_k_bounded, 1000, 50, 1, "3518122953d42654"),
    ],
)
def test_saved_colourings_are_pinned(gen, n, k, seed, digest):
    text = save_colouring(gen(n, k, seed))
    assert _digest(text) == digest
    assert_same_lines(save_colouring(load_colouring(text)), text)
    out = io.StringIO()
    assert save_colouring(load_colouring(text), out) is None
    assert_same_lines(out.getvalue(), text)


# sizes where the draw's bit count changes, and every small size
SHUFFLE_SIZES = sorted(set(range(71)) | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("k", [1, 3, 50])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 10**30])
def test_shuffled_colours_match_random_shuffle(k, seed):
    for size in SHUFFLE_SIZES:
        full, rest = divmod(size, k)
        layout = [c for _ in range(k) for c in range(full)] + [full] * rest
        random.Random(seed).shuffle(layout)
        assert colouring._shuffled_colours(size, k, seed).tolist() == layout, size


def reference_save(chi: EdgeColouring) -> str:
    n = chi.n
    return f"n {n}\n" + "".join(
        f"{u} {v} {c}\n" for (u, v), c in zip(combinations(range(n), 2), chi.table)
    )


@pytest.mark.parametrize("n", [*range(1, 41), 64, 65, 129])
def test_save_colouring_matches_a_line_by_line_writer(n):
    rng = random.Random(n)
    table = [
        rng.choice([0, 1, 10**6, COLOUR_MAX, rng.randrange(COLOUR_MAX + 1)])
        for _ in range(n * (n - 1) // 2)
    ]
    chi = EdgeColouring(n, table)
    text = reference_save(chi)
    out = io.StringIO()
    assert save_colouring(chi, out) is None
    for written in (save_colouring(chi), out.getvalue()):
        assert_same_lines(written, text)
    if n == 1:
        assert text == "n 1\n"


def reference_load(text: str) -> EdgeColouring:
    """The per-line loader that preceded the block parser, kept as an
    independent reference: one str.splitlines over the whole document,
    int() on every token, edge ids from a dict over the lexicographic edges."""
    lines = text.splitlines()
    n = None
    for header_lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2 or parts[0] != "n":
            raise FormatError(f"line {header_lineno}: expected header 'n <N>', got {raw.strip()!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise FormatError(f"line {header_lineno}: bad vertex count {parts[1]!r}") from None
        if n < 1:
            raise FormatError(f"line {header_lineno}: vertex count must be positive")
        break
    if n is None:
        raise FormatError("empty document: missing 'n <N>' header")
    if n > MAX_VERTICES:
        raise CapacityError(f"line {header_lineno}: {n} vertices exceed the cap of {MAX_VERTICES}")
    edges = list(combinations(range(n), 2))
    if len(lines) - header_lineno < len(edges):
        raise FormatError(
            f"colouring incomplete: {len(lines) - header_lineno} lines after the header, "
            f"K_{n} has {len(edges)} edges"
        )
    edge_id = {edge: e for e, edge in enumerate(edges)}
    table = [-1] * len(edges)
    for lineno, raw in enumerate(lines[header_lineno:], start=header_lineno + 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected '<u> <v> <c>', got {raw.strip()!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer token in {raw.strip()!r}") from None
        if 0 <= u < v < n:
            e = edge_id[u, v]
        elif 0 <= v < u < n:
            e = edge_id[v, u]
        elif u == v:
            raise FormatError(f"line {lineno}: loop edge {u} {v}")
        else:
            raise FormatError(f"line {lineno}: endpoint out of range in {raw.strip()!r}")
        if table[e] != -1:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}")
        if not 0 <= c <= COLOUR_MAX:
            problem = f"negative colour {c}" if c < 0 else f"colour {c} exceeds {COLOUR_MAX}"
            raise FormatError(f"line {lineno}: {problem}")
        table[e] = c
    missing = [e for e, c in enumerate(table) if c == -1]
    if missing:
        examples = [edges[e] for e in missing[:3]]
        raise FormatError(f"colouring incomplete: {len(missing)} missing edges, e.g. {examples}")
    return EdgeColouring(n, table)


def load_outcome(load, source):
    """The colouring a loader returns, or the text of its FormatError."""
    try:
        return load(source)
    except FormatError as exc:
        return f"FormatError: {exc}"


def assert_file_loads_as_text(text: str) -> None:
    """Written to a file, the document loads from the open handle as it
    does from the file's read_text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.col"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as handle:
            streamed = load_outcome(load_colouring, handle)
        assert streamed == load_outcome(load_colouring, path.read_text(encoding="utf-8"))


def block_firsts(header: str, body: list[str]) -> list[int]:
    """Indices into body (lines with their endings) of the lines that start
    a parsing block of load_colouring, after the first block."""
    text = header + "".join(body)
    blocks = colouring._blocks(text, len(header))
    starts = set(accumulate(map(len, blocks), initial=len(header)))
    firsts, offset = [], len(header)
    for i, line in enumerate(body):
        if offset in starts and i:
            firsts.append(i)
        offset += len(line)
    return firsts


# longer than any edge line, so inserted in front of the last line of a
# block it spans the block's cut and becomes that block's last line
LONG_COMMENT = "# " + "-" * 60
LONG_BLANK = " " * 62


def build_document(data, n: int, rng: random.Random) -> tuple[str, list[str]]:
    """A valid colouring document of K_n: header and lines with endings.

    It is save_colouring's text with variations that Hypothesis draws: a
    shuffled edge order, or up to two windows of lines with shuffled
    edges, flipped orientations, respelt colours or CRLF endings; and
    comments or blank lines, some of them placed as the first or the last
    line of a parsing block.
    """
    top = data.draw(st.sampled_from([9, 1000, COLOUR_MAX]), label="top colour")
    edges = list(combinations(range(n), 2))
    if data.draw(st.sampled_from([False, False, False, True]), label="shuffle all"):
        rng.shuffle(edges)
    lines = [[str(u), str(v), str(rng.randint(0, top)), "\n"] for u, v in edges]
    n_windows = data.draw(st.integers(0, 2), label="windows")
    for _ in range(n_windows):
        kinds = data.draw(st.sets(st.sampled_from(["shuffle", "flip", "respell", "crlf"]),
                                  min_size=1), label="window variations")
        a = rng.randrange(len(lines))
        window = lines[a : a + rng.randrange(1, 2000)]
        if "shuffle" in kinds:
            rng.shuffle(window)
        for line in window:
            if "flip" in kinds and rng.random() < 0.5:
                line[0], line[1] = line[1], line[0]
            if "respell" in kinds and rng.random() < 0.3:
                line[2] = rng.choice(["0", "00", "+", "+0"]) + line[2]
            if "respell" in kinds and rng.random() < 0.1:
                line[2] += rng.choice(["\t", "  "])
            if "crlf" in kinds:
                line[3] = "\r\n"
        lines[a : a + len(window)] = window
    body = [f"{u} {v} {c}{end}" for u, v, c, end in lines]
    header = data.draw(st.sampled_from(["n {}\n", "# colouring\n\nn {}\r\n"]), label="header")
    header = header.format(n)
    for _ in range(data.draw(st.integers(0, 1), label="comments anywhere")):
        body.insert(rng.randrange(len(body) + 1), rng.choice(["# note\n", "\n", "  \r\n"]))
    for _ in range(data.draw(st.integers(0, 2), label="comments at cuts")):
        firsts = block_firsts(header, body)
        i = rng.choice(firsts)
        if rng.random() < 0.5:
            body.insert(i, rng.choice(["# note\n", "\n"]))  # first line of its block
        else:
            body.insert(i - 1, rng.choice([LONG_COMMENT, LONG_BLANK]) + "\n")
            assert i in block_firsts(header, body)  # the last line of its block
    if data.draw(st.booleans(), label="drop the final line ending"):
        body[-1] = body[-1].rstrip("\r\n")
    return header, body


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(150, 190), st.integers(0, 2**32), st.data())
def test_block_parser_loads_what_the_reference_loads(n, seed, data):
    header, body = build_document(data, n, random.Random(seed))
    text = header + "".join(body)
    expected = load_outcome(reference_load, text)
    assert load_outcome(load_colouring, text) == expected
    assert_file_loads_as_text(text)


def _bad_line(kind: str, n: int, line: str, other: str, rng: random.Random) -> str:
    u, v, c = line.split()[:3]
    if kind == "duplicate":
        x, y, _ = other.split()[:3]
        return f"{y} {x} 5" if rng.random() < 0.5 else f"{x} {y} 5"
    return {
        "loop": f"{u} {u} {c}",
        "out of range": rng.choice([f"{u} {n} {c}", f"-1 {v} {c}", f"{n + 7} {u} {c}"]),
        "non-integer": rng.choice([f"{u} {v} x", f"{u} 1.5 {c}", f"{u} {v} 0x1f"]),
        "token count": rng.choice([f"{u} {v}", f"{u} {v} {c} 9", f"{u}"]),
        "negative colour": f"{u} {v} -{int(c) + 1}",
        "colour too large": rng.choice([f"{u} {v} {COLOUR_MAX + 1}", f"{u} {v} {'9' * 5000}"]),
        "missing edge": "# no edge here",
    }[kind]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(150, 190),
    st.integers(0, 2**32),
    st.sampled_from(["duplicate", "loop", "out of range", "non-integer", "token count",
                     "negative colour", "colour too large", "missing edge", "dropped line"]),
    st.sampled_from(["anywhere", "first of a block", "last of a block"]),
    st.data(),
)
def test_block_parser_reports_what_the_reference_reports(n, seed, kind, where, data):
    rng = random.Random(seed)
    header, body = build_document(data, n, rng)
    data_lines = [i for i, line in enumerate(body) if line.split() and line[0] != "#"]
    firsts = block_firsts(header, body)
    candidates = set(data_lines) & {
        "anywhere": set(data_lines),
        "first of a block": set(firsts),
        "last of a block": {i - 1 for i in firsts},
    }[where]
    assume(candidates)
    i = rng.choice(sorted(candidates))
    if kind == "dropped line":
        del body[i]
    else:
        ending = body[i][len(body[i].rstrip("\r\n")):] or "\n"
        bad = _bad_line(kind, n, body[i], body[rng.choice(data_lines)], rng)
        # padded to the old length, so the line keeps its place in its block
        body[i] = bad.ljust(len(body[i]) - len(ending)) + ending
        if where != "anywhere":
            assert (i + (where == "last of a block")) in block_firsts(header, body)
    text = header + "".join(body)
    expected = load_outcome(reference_load, text)
    assert isinstance(expected, str)
    assert load_outcome(load_colouring, text) == expected
    assert_file_loads_as_text(text)


def test_every_line_break_of_splitlines_counts():
    for brk in ("\r", "\r\n", "\v", "\x1c", "\x85", "\u2028"):
        text = brk.join(["n 3", "0 1 7", "0 2 7", "1 2 9"])
        assert load_colouring(text) == load_colouring(SMALL_DOC)
        text = brk.join(["n 3", "0 1 7", "", "0 2 x", "1 2 9"])
        with pytest.raises(FormatError, match="^line 4: non-integer token"):
            load_colouring(text)
        assert load_outcome(load_colouring, text) == load_outcome(reference_load, text)
        assert_file_loads_as_text(text)
        # a short document of these breaks, whose lines a '\n' count misses
        assert_file_loads_as_text(brk.join(["n 3", "0 1 7", "0 2 7"]))


def test_lines_that_realign_into_triples_are_rejected():
    # the tokens 0 1 7 / 0 2 5 / 1 2 9 are valid triples, the lines are not
    text = "n 3\n0 1\n7 0 2 5\n1 2 9\n"
    with pytest.raises(FormatError, match=r"^line 2: expected '<u> <v> <c>', got '0 1'$"):
        load_colouring(text)
    lines = save_colouring(gen_k_bounded(150, 3, 1)).split("\n")
    lines[1] = lines[1].rsplit(" ", 1)[0]
    lines[2] = lines[1][-1:] + " " + lines[2]
    text = "\n".join(lines)
    assert load_outcome(load_colouring, text) == load_outcome(reference_load, text)
    with pytest.raises(FormatError, match=r"^line 2: expected '<u> <v> <c>', got '0 1'$"):
        load_colouring(text)
    assert_file_loads_as_text(text)


def test_save_colouring_order_never_reaches_the_per_line_parser():
    chi = gen_locally_k_bounded(400, 7, 3)
    text = save_colouring(chi)
    assert text.count("\n") > 5 * colouring._BLOCK_CHARS // 12
    with patch.object(colouring, "_parse_lines", side_effect=AssertionError):
        assert load_colouring(text) == chi
    # one comment sends its block, and only that block, to the per-line parser
    lines = text.split("\n")
    lines.insert(len(lines) // 2, "# a comment")
    calls = []
    real = colouring._parse_lines
    with patch.object(colouring, "_parse_lines", lambda *a: calls.append(a) or real(*a)):
        assert load_colouring("\n".join(lines)) == chi
    assert len(calls) == 1


def test_load_from_a_text_stream_reads_it_from_the_start():
    chi = gen_k_bounded(150, 4, 2)
    stream = io.StringIO()
    save_colouring(chi, stream)
    assert load_colouring(stream) == chi  # left at its end by the writes
    stream.seek(17)
    assert load_colouring(stream) == chi


def _traced(f, *args):
    """f(*args) and tracemalloc's peak while it runs."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_files_stream_through_save_and_load(tmp_path):
    chi = gen_k_bounded(1000, 50, 1)
    path = tmp_path / "k1000.col"
    with open(path, "w", encoding="utf-8") as out:
        # the document is 6.3 MB
        assert _traced(save_colouring, chi, out)[1] < 2**20
    table_bytes = len(chi.table) * chi.table.itemsize
    with open(path, encoding="utf-8") as handle:
        loaded, peak = _traced(load_colouring, handle)
    assert peak < table_bytes + 3 * 2**20
    assert loaded == chi


def test_gen_k_bounded_builds_no_second_table():
    chi, peak = _traced(gen_k_bounded, 1000, 50, 1)
    assert peak <= 1.25 * len(chi.table) * chi.table.itemsize
