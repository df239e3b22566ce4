"""Digests of the derived values of lll and events, one per route, so that a
change to one route re-derives only its own digest.  Each stream has one
JSON line per cell:
  thresholds  every rule at every n and graph source;
  chains      the reference chain (verify_paper_inequalities) of thm3 and
              thm7 around each threshold;
  searches    optimize_mu once per distinct certificate_inputs of those
              chain cells, with the cells that share it (the cells whose
              certificate_inputs raise share one line);
  events      the bad events of small seeded instances;
  bounds      the clique-bound reports of the same instances.
A cell that raises DomainError or CapacityError is recorded as such, so the
digests also pin where the domain checks fire (not their messages)."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
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


# sha256 of each stream, one JSON line per cell
PINNED_SHA256 = {
    "thresholds": "f2a88df966803baf0cea51ddb29c2ba8e07a1c57a18896a88965c444b09d5c95",
    "chains": "ea70877f9b5cf9ddaba22873d7ef8c71c88f7ebc0a805186b2510fc58feb5876",
    "searches": "bbd5a2c3e0ea6067dd4b975fd41d233d5887ac21712a465437aafe56a68afeab",
    "events": "98d9ec3c3d7115a61496714afc5c8b1302e5437c278b098cc6119b1fbeefa8bc",
    "bounds": "d4716195f83296da51a8fc080e7112f9bfc09d60a71acefc773a4ee7903dc70f",
}


@pytest.fixture(scope="module")
def streams() -> dict[str, list[str]]:
    lines = {stream: [] for stream in PINNED_SHA256}
    for n in NS:
        for kw in inputs():
            for theorem in ("thm2", "thm3", "thm5", "thm7", "cor4"):
                lines["thresholds"].append(
                    dump(["threshold", theorem, n, kw, cell(threshold, theorem, n, **kw)]))
    shared = {}  # certificate inputs, or the error they raise -> (them, the cells they serve)
    for n in CHAIN_NS:
        for kw in inputs():
            for setting in ("thm3", "thm7"):
                top = cell(threshold, setting, n, **kw)
                if not isinstance(top, int):
                    lines["chains"].append(dump(["chain", setting, n, kw, top]))
                    continue
                # at a threshold of 0 the first two are one k
                for k in dict.fromkeys((Fraction(0), Fraction(top), top + Fraction(1, 2), Fraction(top + 1))):
                    report = cell(verify_paper_inequalities, setting, n=n, k=k, **kw)
                    lines["chains"].append(dump(["chain", setting, n, kw, str(k), report]))
                    found = cell(certificate_inputs, setting, n, k, **kw)
                    key = found if isinstance(found, str) else dump(found)
                    shared.setdefault(key, (found, []))[1].append([setting, n, kw, str(k)])
    for found, cells in shared.values():
        if not isinstance(found, str):
            found = cell(lambda: optimize_mu(*found)[1].to_json())
        lines["searches"].append(dump([cells, found]))
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(3, 6)
        g = random_graph(rng, rng.randint(3, n), edge_prob=0.6, max_degree=3)
        chi = gen_k_bounded(n, rng.randint(1, 3), rng.randrange(1000))
        for mode in ("proper", "rainbow"):
            lines["events"].append(dump(["events", n, sorted(g.edges), mode, [
                [ev.e_pair, ev.f_pair, ev.a_pair, ev.b_pair, ev.type_tag,
                 [cell(event_probability, ev.type_tag, m) for m in (-1, 0, 2, 3, 4, n)]]
                for ev in enumerate_bad_events(g, chi, mode)
            ]]))
            lines["bounds"].append(
                dump(["bounds", n, sorted(g.edges), mode, verify_clique_bounds(g, chi, mode)]))
    return lines


@pytest.mark.parametrize("stream", PINNED_SHA256)
def test_derived_values_are_pinned(streams, stream):
    digest = hashlib.sha256("".join(line + "\n" for line in streams[stream]).encode())
    assert digest.hexdigest() == PINNED_SHA256[stream]
