"""A digest of the derived values of lll and events, captured before their
certificate verdicts, event types and threshold bounds were made derived
values: thresholds of every rule, the reference chain and the weight search
around each threshold, and the bad events and clique-bound reports of small
seeded instances.  A cell that raises DomainError is recorded as such, so the
digest also pins where the domain checks fire (not their messages)."""

import hashlib
import json
import random
from fractions import Fraction

from conftest import random_graph
from rainbowcopy import (
    CapacityError,
    DomainError,
    certificate_inputs,
    cherry_stats,
    complete_graph,
    cycle_graph,
    enumerate_bad_events,
    event_probability,
    gen_k_bounded,
    optimize_mu,
    path_graph,
    threshold,
    verify_clique_bounds,
    verify_paper_inequalities,
)

NS = [1, 2, 3, 4, 5, 10, 76, 77, 100, 203, 1000, 1020, 10**4, 10**6]
CHAIN_NS = [1, 3, 4, 10, 76, 77, 203, 1020, 10**6]
DELTAS = [None, -1, 0, 1, 2, 3]
STATS = [cherry_stats(g) for g in (path_graph(2), path_graph(3), cycle_graph(5), complete_graph(4))]
RATES = [(0, 0), (1, 0), (0, 1), (Fraction(3, 2), Fraction(1, 2)), (6, 2), (-1, 1)]

# sha256 over the 1915 cells below, one JSON line each
PINNED_SHA256 = "8a4819bcfba37e4f1d092c12df73e709e5c8b8cde5c0e2b83bfed35562b6e3a1"


def inputs():
    """Every way the rules take a graph: a degree, cherry statistics, or
    (thm3 only) cherry rates."""
    for delta in DELTAS:
        yield {"delta": delta}
    for stats in STATS:
        yield {"stats": stats}
    for q, p in RATES:
        yield {"q": q, "p": p}


def cell(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (DomainError, CapacityError) as exc:
        return type(exc).__name__


def dump(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def lll_cells():
    searched = {}  # a degree and the statistics it came from give one search
    for n in NS:
        for kw in inputs():
            for theorem in ("thm2", "thm3", "thm5", "thm7", "cor4"):
                yield dump(["threshold", theorem, n, kw, cell(threshold, theorem, n, **kw)])
    for n in CHAIN_NS:
        for kw in inputs():
            for setting in ("thm3", "thm7"):
                top = cell(threshold, setting, n, **kw)
                if not isinstance(top, int):
                    yield dump(["chain", setting, n, kw, top])
                    continue
                for k in (Fraction(0), Fraction(top), top + Fraction(1, 2), Fraction(top + 1)):
                    report = cell(verify_paper_inequalities, setting, n=n, k=k, **kw)
                    found = cell(certificate_inputs, setting, n, k, **kw)
                    if not isinstance(found, str):
                        key = dump(found)
                        if key not in searched:
                            searched[key] = cell(lambda: optimize_mu(*found)[1].to_json())
                        found = searched[key]
                    yield dump(["chain", setting, n, kw, str(k), report, found])


def event_cells():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(3, 6)
        g = random_graph(rng, rng.randint(3, n), edge_prob=0.6, max_degree=3)
        chi = gen_k_bounded(n, rng.randint(1, 3), rng.randrange(1000))
        for mode in ("proper", "rainbow"):
            events = enumerate_bad_events(g, chi, mode)
            yield dump(["events", n, sorted(g.edges), mode, [
                [ev.e_pair, ev.f_pair, ev.a_pair, ev.b_pair, ev.type_tag,
                 [cell(event_probability, ev.type_tag, m) for m in (-1, 0, 2, 3, 4, n)]]
                for ev in events
            ]])
            yield dump(["bounds", n, sorted(g.edges), mode, verify_clique_bounds(g, chi, mode)])


def test_derived_values_are_pinned():
    digest = hashlib.sha256()
    for line in [*lll_cells(), *event_cells()]:
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SHA256
