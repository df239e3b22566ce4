"""Edge colourings of the complete graph K_n.

A colouring is one flat ``array('i')`` of C(n, 2) colours, 4 bytes per
edge, indexed by the lexicographic edge id

    id(u, v) = u * (2n - u - 3) / 2 + v - 1        for u < v,

which is the order of the colouring file.  With off = row_offsets(n), the
id is off[u] + v; the hot loops of the sampler, oracle and events modules
read the table that way, and every other caller goes through the checked
accessor EdgeColouring.colour.  n is capped at MAX_VERTICES, which keeps
a table under 540 MB.

Colouring files stream in both directions.  save_colouring writes the
header and then each row of edges to a text stream (or returns the whole
document as a str) through _rows, the one writer of the line format, and
load_colouring reads a document, a str or a seekable text stream, in
blocks of whole lines, never copying the whole document.  A block holding
no '-' that _rows writes again from its first edge and its colour tokens
goes into the table in one slice; any other order, orientation, comment
or line ending is still accepted, line by line.

Two boundedness measures matter: the *global* bound (largest number of
edges sharing one colour anywhere in K_n) and the *local* bound (largest
number of equally coloured edges meeting at a single vertex).  boundedness
counts both, and the colours, from the table, as the independent measure
of events.verify_clique_bounds and the tests; one Counter takes a vertex's
row and its column, copied out 64 columns at a time.  Each generator
shuffles a sequence of colours, k of each and a short last class, in
place: the globally bounded one shuffles the table itself, and the locally
bounded one the colours of the matchings of a round-robin
1-factorization, which makes the local bound tight by construction instead
of by rejection.  So the class sizes are known, and gen reports them,
counting only the global generator's local bound.  Neither generator makes
a second table, and both skip the constructor's scan.  The shuffle is
Random.shuffle's loop written out over Random(seed).getrandbits, with the
same draws in the same order, so a seed gives the colouring that
Random(seed).shuffle would.
"""

from __future__ import annotations

import io
import random
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, TextIO

from .errors import CapacityError, DomainError, FormatError

__all__ = [
    "EdgeColouring",
    "Boundedness",
    "boundedness",
    "gen_k_bounded",
    "gen_locally_k_bounded",
    "load_colouring",
    "save_colouring",
    "row_offsets",
    "MAX_VERTICES",
    "COLOUR_MAX",
]

# Largest n a colouring may have: C(16384, 2) four-byte colours are 537 MB.
MAX_VERTICES = 16_384
# Largest colour an array('i') cell holds.
COLOUR_MAX = 2**31 - 1
# Characters per block that load_colouring parses at once (whole lines).
_BLOCK_CHARS = 1 << 16
# Columns of the table that boundedness gathers at once.
_COLUMN_BLOCK = 64


@lru_cache(maxsize=16)
def row_offsets(n: int) -> tuple[int, ...]:
    """off[u] such that off[u] + v is the edge id of (u, v), u < v < n."""
    return tuple(u * (2 * n - u - 3) // 2 - 1 for u in range(n))


def _edge_of(n: int, e: int) -> tuple[int, int]:
    """The edge (u, v) with id e in K_n."""
    off = row_offsets(n)
    u = bisect_right(range(n), e, key=lambda w: off[w] + w + 1) - 1
    return (u, e - off[u])


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise CapacityError(f"K_{n} exceeds the colouring cap of {MAX_VERTICES} vertices")


@dataclass(frozen=True)
class EdgeColouring:
    """Total colour assignment on the edges of K_n.

    table[id(u, v)] is the nonnegative colour of edge (u, v), in the
    lexicographic edge order.  A table that is not an array('i') is copied
    into one.  Totality over all C(n, 2) edges is enforced.
    """

    n: int
    table: array

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        _check_size(self.n)
        if not (isinstance(self.table, array) and self.table.typecode == "i"):
            try:
                object.__setattr__(self, "table", array("i", self.table))
            except OverflowError as exc:
                raise FormatError(f"colour outside 0..{COLOUR_MAX}: {exc}") from None
        expected = self.n * (self.n - 1) // 2
        if len(self.table) != expected:
            raise FormatError(
                f"colouring has {len(self.table)} edges, K_{self.n} has {expected}"
            )
        lowest = min(self.table, default=0)
        if lowest < 0:
            u, v = _edge_of(self.n, self.table.index(lowest))
            raise FormatError(f"negative colour {lowest} on edge ({u}, {v})")

    def colour(self, u: int, v: int) -> int:
        if u == v:
            raise DomainError(f"no loop edge ({u}, {v}) in K_{self.n}")
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            raise DomainError(f"edge {(u, v)} outside K_{self.n}")
        return self.table[u * (2 * self.n - u - 3) // 2 + v - 1]


def _checked_colouring(n: int, table: array) -> EdgeColouring:
    """The colouring of a table the caller has checked: an array('i') of
    C(n, 2) colours in 0..COLOUR_MAX, n within the cap.  It skips the
    constructor's scan of the table."""
    colouring = object.__new__(EdgeColouring)
    object.__setattr__(colouring, "n", n)
    object.__setattr__(colouring, "table", table)
    return colouring


class Boundedness(NamedTuple):
    global_bound: int
    local_bound: int
    colours: int  # distinct colours used


def boundedness(colouring: EdgeColouring) -> Boundedness:
    """Global and local boundedness measures of a colouring, counted from
    its table: the independent measure that events.verify_clique_bounds
    and the tests check against.  gen states its generator's counts
    instead (_constructed_boundedness)."""
    by_colour = Counter(colouring.table)
    return Boundedness(
        global_bound=max(by_colour.values(), default=0),
        local_bound=_local_bound(colouring),
        colours=len(by_colour),
    )


def _local_bound(colouring: EdgeColouring) -> int:
    """Largest number of equally coloured edges at one vertex: its row,
    contiguous in the table, and its column, one cell in each row above,
    gathered into a buffer _COLUMN_BLOCK columns at a time, one strided
    slice per row."""
    n, table = colouring.n, colouring.table
    off = row_offsets(n)
    # buf[(u - a) * n + w] is the colour of (w, u), for u in the block from a on
    buf = array("i", [0]) * (min(_COLUMN_BLOCK, n) * n)
    local_bound = 0
    for a in range(0, n, _COLUMN_BLOCK):
        end = min(a + _COLUMN_BLOCK, n)
        for w in range(end - 1):
            first = max(a, w + 1)
            buf[(first - a) * n + w : (end - a) * n : n] = table[off[w] + first : off[w] + end]
        for u in range(a, end):
            at_u = Counter(table[off[u] + u + 1 : off[u] + n])
            at_u.update(buf[(u - a) * n : (u - a) * n + u])
            local_bound = max(local_bound, max(at_u.values(), default=0))
    return local_bound


def _shuffled_colours(size: int, k: int, seed: int) -> array:
    """size colours in a uniformly random order: each colour c < size // k
    k times, and colour size // k on the size % k slots left over.  The
    multiset is laid out a range at a time and shuffled in place.

    The shuffle makes the calls of Random(seed).shuffle, whose algorithm
    the random module does not promise to keep: for i from size - 1 down
    to 1, j uniform in 0..i by redrawing getrandbits(bit length of i + 1)
    until it is at most i, then swap cells i and j.  The colouring of a
    seed depends on getrandbits alone.
    """
    full, rest = divmod(size, k)
    colours = array("i", range(full))
    colours *= k
    colours.extend([full] * rest)
    getrandbits = random.Random(seed).getrandbits
    for i in reversed(range(1, size)):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        colours[i], colours[j] = colours[j], colours[i]
    return colours


def gen_k_bounded(n: int, k: int, seed: int) -> EdgeColouring:
    """Random colouring in which no colour is used more than k times.

    The table is a shuffled sequence of k edges of each colour and a short
    last class, so exactly ceil(C(n,2)/k) colours are used; the shuffle
    makes every arrangement of that multiset equally likely.
    """
    if n < 2 or k < 1:
        raise DomainError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    _check_size(n)
    return _checked_colouring(n, _shuffled_colours(n * (n - 1) // 2, k, seed))


def gen_locally_k_bounded(n: int, k: int, seed: int) -> EdgeColouring:
    """Random colouring with at most k equally coloured edges per vertex.

    Builds the round-robin proper edge colouring of K_n and merges randomly
    grouped batches of k matching classes into single colours: the classes
    take a shuffled sequence of k copies of each colour and a short last
    batch.  Each class meets every vertex at most once, so the local bound
    is at most k.

    Round robin on r = n (odd n) or r = n - 1 (even n) vertices: class c
    holds the edges (a, b), a, b < r, with a + b = 2c (mod r), and for even
    n also the edge (c, n - 1).
    """
    if n < 2 or k < 1:
        raise DomainError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    _check_size(n)
    r = n if n % 2 else n - 1
    colour_of_class = _shuffled_colours(r, k, seed)
    # by_sum[s] is the colour of every edge (a, b) with a + b = s, a, b < r;
    # (r + 1) / 2 is the inverse of 2 modulo the odd r
    half = (r + 1) // 2
    by_sum = array("i", (colour_of_class[s * half % r] for s in range(2 * r)))
    off = row_offsets(n)
    table = array("i", [0]) * (n * (n - 1) // 2)
    for a in range(n - 1):
        table[off[a] + a + 1 : off[a] + r] = by_sum[2 * a + 1 : a + r]
        if r < n:
            table[off[a] + n - 1] = colour_of_class[a]
    return _checked_colouring(n, table)


def _constructed_boundedness(colouring: EdgeColouring, k: int, mode: str) -> Boundedness:
    """The measures that gen_k_bounded (mode "global") or
    gen_locally_k_bounded ("local") fix when they build a colouring with
    this k.  Global: ceil(C(n, 2)/k) colours of min(k, C(n, 2)) edges at
    most, and a counted local bound.  Local: ceil(r/k) colours; the largest
    merges min(k, r) matchings of n // 2 edges, which meet some vertex
    min(k, n - 1) times (for odd n, class c misses vertex c)."""
    n = colouring.n
    if mode == "global":
        size = n * (n - 1) // 2
        return Boundedness(min(k, size), _local_bound(colouring), -(-size // k))
    r = n if n % 2 else n - 1
    return Boundedness(min(k, r) * (n // 2), min(k, n - 1), -(-r // k))


def save_colouring(colouring: EdgeColouring, out: TextIO | None = None) -> str | None:
    """Serialise to the text format accepted by load_colouring.

    With a text stream out, write the header and then the rows of edges,
    one at a time, to it and return None; without one, return the document.
    """
    if out is None:
        out = io.StringIO()
        save_colouring(colouring, out)
        return out.getvalue()
    n, table = colouring.n, colouring.table
    off = row_offsets(n)
    tails = _tails(n)
    out.write(f"n {n}\n")
    for u in range(n - 1):
        out.write(_rows(tails, u, u + 1, table[off[u] + u + 1 : off[u] + n]))
    return None


def _tails(n: int) -> list[str]:
    """What follows u in the line of edge (u, v), for each v < n."""
    return [f" {v} %s\n" for v in range(n)]


def _rows(tails: list[str], u: int, v: int, colours) -> str:
    """The "u v c\\n" lines of the len(colours) consecutive edges of K_n from
    (u, v) on, tails = _tails(n).  Each row is one format string, u joined
    with the tails of its edges, filled in with its colours by a single %."""
    n, rows, done = len(tails), [], 0
    while done < len(colours):
        step = min(len(colours) - done, n - v)
        head = str(u)
        rows.append((head + head.join(tails[v : v + step])) % tuple(colours[done : done + step]))
        done, u, v = done + step, u + 1, u + 2
    return "".join(rows)


def _store_canonical(block: str, tails: list[str], off: tuple[int, ...], table: array) -> int:
    """Store a block of lines in save_colouring's order and form.

    The block is taken whole, with no per-line Python, when its first edge
    is in K_n, none of the edges it covers is filled yet, it holds no '-',
    _rows writes it again from its first edge and its colour tokens, and
    every colour fits the table.  Colours are read by int(), as the
    per-line parser reads them, so "+5" and "007" are taken too.  Returns
    the block's number of lines, or 0 when the per-line parser has to read
    it.
    """
    tokens = block.split()
    count = len(tokens) // 3
    if not count or "-" in block:
        return 0
    try:
        u, v = int(tokens[0]), int(tokens[1])
    except ValueError:
        return 0
    if not 0 <= u < v < len(tails):
        return 0
    first = off[u] + v
    if first + count > len(table) or table[first : first + count].count(-1) != count:
        return 0
    colours = tokens[2::3]
    if _rows(tails, u, v, colours) != block:
        return 0
    try:
        table[first : first + count] = array("i", map(int, colours))
    except (ValueError, OverflowError):
        return 0
    return count


def _parse_lines(
    lines: list[str], first_lineno: int, n: int, off: tuple[int, ...], table: array
) -> None:
    """Store "<u> <v> <c>" lines one by one; lines[0] is line first_lineno.

    This is the only place that reports a malformed edge line.
    """
    for lineno, raw in enumerate(lines, start=first_lineno):
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
            e = off[u] + v
        elif 0 <= v < u < n:
            e = off[v] + u
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


def _blocks(source: str | TextIO, start: int) -> Iterator[str]:
    """The document from its character start on, in blocks of whole lines:
    _BLOCK_CHARS - 1 characters and the rest of the line the last of them
    ends in.

    Each block ends just after a '\\n' or at the end of the document.  No
    line break pairs '\\n' with the character after it, so str.splitlines
    of the blocks, one after the other, gives the lines of the whole
    document.  A str is cut by slicing.  A text stream is read from its
    beginning, so it has to be seekable: the first start characters are
    skipped, then each block is read(_BLOCK_CHARS - 1) and readline(),
    which cuts at the same places.
    """
    if isinstance(source, str):
        while start < len(source):
            end = source.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(source)
            yield source[start:end]
            start = end
        return
    source.seek(0)
    while start > 0 and source.read(min(start, _BLOCK_CHARS)):
        start -= _BLOCK_CHARS
    while block := source.read(_BLOCK_CHARS - 1):
        yield block + source.readline()


def read_header(source: str | TextIO) -> tuple[int, int, int]:
    """(N, line number, characters read through that line) of the "n <N>"
    header of a graph or colouring document, a str or a seekable text
    stream: its first line that is neither blank nor a '#' comment.  N must
    be a positive integer, at most MAX_VERTICES."""
    lines = (line for block in _blocks(source, 0) for line in block.splitlines(keepends=True))
    chars = 0
    for lineno, raw in enumerate(lines, start=1):
        chars += len(raw)
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2 or parts[0] != "n":
            raise FormatError(f"line {lineno}: expected header 'n <N>', got {raw.strip()!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
        if n < 1:
            raise FormatError(f"line {lineno}: vertex count must be positive")
        if n > MAX_VERTICES:
            raise CapacityError(f"line {lineno}: {n} vertices exceed the cap of {MAX_VERTICES}")
        return n, lineno, chars
    raise FormatError("empty document: missing 'n <N>' header")


def load_colouring(source: str | TextIO) -> EdgeColouring:
    """Parse a colouring document, a str or a seekable text stream (read
    from its beginning).

    Format: header "n <N>", then one "<u> <v> <c>" line per edge of K_n.
    Every edge must appear exactly once.  '#' lines are comments.  Colours
    are integers in 0..COLOUR_MAX and N is at most MAX_VERTICES.

    The document is read twice, in blocks of whole lines.  The first pass
    finds the header and counts the lines, so a document too short for
    K_N fails before the table is built.  In the second, a block that
    save_colouring's row writer writes again goes into the table in one
    slice (see _store_canonical); any other block (comments, blank lines,
    other orders or orientations, CRLF, minus signs, errors) goes through
    the per-line parser.
    """
    n, header_lineno, header_end = read_header(source)
    expected = n * (n - 1) // 2
    # every '\n' ends a line of its own, so only a short count needs the exact one
    if sum(block.count("\n") for block in _blocks(source, header_end)) < expected:
        n_lines = sum(len(block.splitlines()) for block in _blocks(source, header_end))
        if n_lines < expected:
            raise FormatError(
                f"colouring incomplete: {n_lines} lines after the header, "
                f"K_{n} has {expected} edges"
            )
    off = row_offsets(n)
    tails = _tails(n)
    table = array("i", [-1]) * expected
    lineno = header_lineno
    for block in _blocks(source, header_end):
        count = _store_canonical(block, tails, off, table)
        if not count:
            block_lines = block.splitlines()
            _parse_lines(block_lines, lineno + 1, n, off, table)
            count = len(block_lines)
        lineno += count
    n_missing = table.count(-1)
    if n_missing:
        examples = [table.index(-1)]
        while len(examples) < min(3, n_missing):
            examples.append(table.index(-1, examples[-1] + 1))
        missing = [_edge_of(n, e) for e in examples]
        raise FormatError(f"colouring incomplete: {n_missing} missing edges, e.g. {missing}")
    # every colour was checked as it was stored
    return _checked_colouring(n, table)
