"""The benchmark's workloads.

Each workload builds its inputs from the run seed in ``setup``, performs one
unit of user work per ``op`` and checks that op's outputs in ``check``,
which the harness calls outside the timed region.  Library functions are
reached only through the ``api`` namespace the harness passes in (built
from ``LIBRARY``), so a traced run can hand in recording wrappers.

The workloads use only the library's public functions, its file formats and
its command line, so they keep measuring the same work when the internals
change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from rainbowcopy import cli
from rainbowcopy.colouring import (
    boundedness,
    gen_k_bounded,
    gen_locally_k_bounded,
    load_colouring,
    save_colouring,
)
from rainbowcopy.errors import DomainError
from rainbowcopy.events import (
    DISJOINT,
    INTERSECTING,
    clique_cover_rainbow,
    proper_profile_from_rates,
    verify_clique_bounds,
)
from rainbowcopy.graph import Graph, cycle_graph
from rainbowcopy.lll import check_cluster_clique, optimize_mu, threshold, verify_paper_inequalities
from rainbowcopy.oracle import count_valid_embeddings, exists_copy
from rainbowcopy.sampler import Embedding, find_copy, is_valid_embedding, violated_events

# Span name ("<module>.<function>") -> the function a workload calls.  The
# part after the dot is the attribute name on the api namespace.
LIBRARY = {
    "cli.main": cli.main,
    "colouring.gen_k_bounded": gen_k_bounded,
    "colouring.gen_locally_k_bounded": gen_locally_k_bounded,
    "sampler.find_copy": find_copy,
    "sampler.is_valid_embedding": is_valid_embedding,
    "sampler.violated_events": violated_events,
    "lll.threshold": threshold,
    "lll.verify_paper_inequalities": verify_paper_inequalities,
    "lll.optimize_mu": optimize_mu,
    "lll.check_cluster_clique": check_cluster_clique,
    "events.clique_cover_rainbow": clique_cover_rainbow,
    "events.proper_profile_from_rates": proper_profile_from_rates,
    "events.verify_clique_bounds": verify_clique_bounds,
    "oracle.exists_copy": exists_copy,
    "oracle.count_valid_embeddings": count_valid_embeddings,
}

# Names rainbowcopy.cli binds at import time, which cli.main calls, with the
# span name of the function they are bound to.
CLI_BOUND = {
    "gen_k_bounded": ("colouring.gen_k_bounded", gen_k_bounded),
    "gen_locally_k_bounded": ("colouring.gen_locally_k_bounded", gen_locally_k_bounded),
    "save_colouring": ("colouring.save_colouring", save_colouring),
    "boundedness": ("colouring.boundedness", boundedness),
    "load_colouring": ("colouring.load_colouring", load_colouring),
    "find_copy": ("sampler.find_copy", find_copy),
}

GENERATORS = {"global": gen_k_bounded, "local": gen_locally_k_bounded}


class WrongOutput(Exception):
    """An op produced an output that its check rejects."""


@dataclass
class OpResult:
    trials: int  # outcomes the op produced that fail_ratio counts over
    fails: int  # of those, the ones that failed (see workloads.json)
    data: object  # what check() inspects; equal when the op is rerun


def derive(*parts) -> int:
    """A 64-bit seed from the run seed and a label, stable across platforms."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_embedding(api, embedding, g, colouring, mode: str) -> None:
    if not api.is_valid_embedding(embedding, g, colouring, mode):
        raise WrongOutput(f"{mode} embedding fails is_valid_embedding")
    if api.violated_events(embedding, g, colouring, mode):
        raise WrongOutput(f"{mode} embedding has violated events")


def graph_text(g: Graph) -> str:
    return f"n {g.n_vertices}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


def random_graph(rng: random.Random, n: int, edge_prob: float) -> Graph:
    """Random simple graph on n vertices, each edge present with edge_prob."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob])


def bad_event_count(g: Graph, colouring, mode: str) -> int:
    """Number of bad events of an instance, counted from colour degrees
    instead of by enumeration, as an independent check of the events layer.

    An intersecting edge pair is bad under the ordered image triples (a, b, c)
    with ab and ac equally coloured; a disjoint pair under the ordered
    quadruples of distinct vertices (a, b, c, d) with ab and cd equally
    coloured.
    """
    n = colouring.n
    degree: dict[tuple[int, int], int] = {}  # (vertex, colour) -> edges of that colour there
    size: dict[int, int] = {}  # colour -> edges of that colour
    for u in range(n):
        for v in range(u + 1, n):
            c = colouring.colour(u, v)
            size[c] = size.get(c, 0) + 1
            degree[u, c] = degree.get((u, c), 0) + 1
            degree[v, c] = degree.get((v, c), 0) + 1
    triples = sum(d * (d - 1) for d in degree.values())
    # unordered disjoint same-colour edge pairs, 8 orderings each
    quadruples = 8 * (
        sum(math.comb(m, 2) for m in size.values()) - sum(math.comb(d, 2) for d in degree.values())
    )
    edges = g.sorted_edges()
    intersecting = disjoint = 0
    for j, e in enumerate(edges):
        for f in edges[j + 1 :]:
            if set(e) & set(f):
                intersecting += 1
            else:
                disjoint += 1
    return intersecting * triples + (disjoint * quadruples if mode == "rainbow" else 0)


class Workload:
    def __init__(self, seed: int, api, params: dict, out_dir: Path):
        self.seed = seed
        self.api = api
        self.params = params
        self.out_dir = out_dir
        # the harness's machine-speed probe, for ops whose steps take
        # seconds; the op's time leaves out the time the probes take
        self.probe = lambda: None

    def generator(self, kind: str):
        return self.api.gen_k_bounded if kind == "global" else self.api.gen_locally_k_bounded

    def setup(self):
        raise NotImplementedError

    def op(self, state, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, state, i: int, result: OpResult) -> None:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


class PipelineLarge(Workload):
    """gen -> find through the command line, in process, files in a temp dir."""

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.out_dir))
        graph = graph_text(cycle_graph(self.params["n"]))
        (work / "cycle.graph").write_text(graph, encoding="utf-8")
        return work

    def close(self, work) -> None:
        shutil.rmtree(work, ignore_errors=True)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        self.probe()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = self.api.main(argv)
        return status, buffer.getvalue()

    def op(self, work, i: int) -> OpResult:
        p = self.params
        cells = []
        for c, cell in enumerate(p["cells"]):
            gen_seed = derive(self.seed, "gen", i, c)
            colouring_path = str(work / f"cell{c}.col")
            gen_status, gen_out = self._cli(
                ["gen", "--n", str(p["n"]), "--k", str(cell["k"]), "--mode", cell["colouring"],
                 "--seed", str(gen_seed), "-o", colouring_path]
            )
            if gen_status != 0:
                raise RuntimeError(f"gen exited with {gen_status}")
            find_status, find_out = self._cli(
                ["find", "--graph", str(work / "cycle.graph"), "--colouring", colouring_path,
                 "--mode", cell["mode"], "--seed", str(derive(self.seed, "find", i, c)),
                 "--max-resamples", str(p["max_resamples"])]
            )
            if find_status not in (0, 1):
                raise RuntimeError(f"find exited with {find_status}")
            cells.append((cell, gen_seed, json.loads(gen_out), find_status, json.loads(find_out)))
        return OpResult(len(cells), sum(cell[3] for cell in cells), tuple(cells))

    def check(self, work, i: int, result: OpResult) -> None:
        n = self.params["n"]
        for cell, gen_seed, gen_doc, find_status, find_doc in result.data:
            bound = gen_doc["global_bound" if cell["colouring"] == "global" else "local_bound"]
            if bound > cell["k"]:
                raise WrongOutput(f"gen reports bound {bound} above k={cell['k']}")
            if find_doc["success"] != (find_status == 0):
                raise WrongOutput(f"find exited {find_status} but reports success={find_doc['success']}")
            if not find_doc["success"]:
                continue
            # the colouring gen wrote, rebuilt from its seed outside the api
            colouring = GENERATORS[cell["colouring"]](n, cell["k"], gen_seed)
            try:
                embedding = Embedding(tuple(find_doc["embedding"]["image_of"]), cell["mode"])
            except DomainError as exc:
                raise WrongOutput(f"find printed a non-injective embedding: {exc}") from None
            check_embedding(self.api, embedding, cycle_graph(n), colouring, cell["mode"])


class FrontierResample(Workload):
    """One budgeted find_copy per op on colourings built during set-up."""

    def setup(self):
        p = self.params
        colourings = [
            [
                self.generator(cell["colouring"])(p["n"], cell["k"], derive(self.seed, c, j))
                for j in range(p["colourings_per_cell"])
            ]
            for c, cell in enumerate(p["cells"])
        ]
        return cycle_graph(p["n"]), colourings

    def op(self, state, i: int) -> OpResult:
        g, colourings = state
        cells = self.params["cells"]
        c = i % len(cells)
        colouring = colourings[c][(i // len(cells)) % len(colourings[c])]
        found = self.api.find_copy(
            g, colouring, cells[c]["mode"], seed=derive(self.seed, "find", i),
            max_resamples=self.params["max_resamples"],
        )
        return OpResult(1, int(not found.success), (c, colouring, found))

    def check(self, state, i: int, result: OpResult) -> None:
        g, _ = state
        c, colouring, found = result.data
        budget = self.params["max_resamples"]
        if found.resamples > budget or (not found.success and found.resamples != budget):
            raise WrongOutput(f"{found.resamples} resamples against a budget of {budget}")
        if found.success:
            check_embedding(self.api, found.embedding, g, colouring, self.params["cells"][c]["mode"])


class CertifySweep(Workload):
    """One certificate cell per op, n log-spaced over [n_min, n_max]."""

    def setup(self):
        p = self.params
        rng = random.Random(derive(self.seed, "sweep"))
        bins, per = p["rainbow_bins"], p["proper_cells_per_rainbow_cell"]
        lo, hi = math.log10(p["n_min"]), math.log10(p["n_max"])

        def n_in(slot: int, slots: int) -> int:
            return round(10 ** (lo + (hi - lo) * (slot + rng.random()) / slots))

        # Bit-reversed bin order, so that a pass cut short by the deadline
        # still spreads its cells over the whole range of n.
        width = bins.bit_length() - 1
        order = sorted(range(bins), key=lambda b: int(f"{b:0{width}b}"[::-1], 2))
        cells = []
        for _ in range(p["passes"]):
            for b in order:
                cells.append(("rainbow", n_in(b, bins)))
                cells.extend(("proper", n_in(b * per + s, bins * per)) for s in range(per))
        return cells

    def op(self, cells, i: int) -> OpResult:
        api, p = self.api, self.params
        mode, n = cells[i % len(cells)]
        p3 = Fraction(1, math.perm(n, 3))
        if mode == "rainbow":
            delta = p["rainbow_delta"]
            k = api.threshold("thm7", n, delta=delta)
            profile = {t: api.clique_cover_rainbow(delta, n, k, t) for t in (INTERSECTING, DISJOINT)}
            probabilities = {INTERSECTING: p3, DISJOINT: Fraction(1, math.perm(n, 4))}
            chain = api.verify_paper_inequalities("thm7", n=n, k=k, delta=delta)
            mu, cert = api.optimize_mu(probabilities, profile)
            recheck = api.check_cluster_clique(probabilities, profile, (mu["mu_int"], mu["mu_dis"]))
        else:
            delta = p["proper_delta"]
            k = api.threshold("cor4", n, delta=delta)
            # worst-case cherry rates for maximum degree delta
            q, rate = Fraction(3, 2) * delta * delta, Fraction(delta * delta, 2)
            profile = api.proper_profile_from_rates(q, rate, n, k)
            chain = api.verify_paper_inequalities("thm3", n=n, k=k, q=q, p=rate)
            mu, cert = api.optimize_mu(p3, profile)
            recheck = api.check_cluster_clique(p3, profile, mu["mu"])
        return OpResult(1, int(not cert.holds), (mode, n, k, chain["ok"], cert, recheck))

    def check(self, cells, i: int, result: OpResult) -> None:
        mode, n, k, chain_ok, cert, recheck = result.data
        if k < 1:
            raise WrongOutput(f"{mode} threshold k={k} at n={n}")
        if not chain_ok:
            raise WrongOutput(f"{mode} reference chain fails at n={n}, k={k}")
        if (recheck.holds, recheck.margin) != (cert.holds, cert.margin):
            raise WrongOutput(f"{mode} exact re-check disagrees with the search at n={n}")


class CrosscheckSmall(Workload):
    """A batch of tiny seeded instances per op, each checked by every route."""

    def setup(self):
        p = self.params
        sizes = range(p["n_min"], p["n_max"] + 1)
        palettes = range(p["palette_min"], p["palette_max"] + 1)
        pool = []
        for j in range(p["pool"]):
            # n, mode, palette size and graph order follow from j, so that
            # the pools of all seeds hold them in the same shares and differ
            # only in their random edges and colours
            n = sizes[j % len(sizes)]
            rest = j // len(sizes)
            mode = ("proper", "rainbow")[rest % 2]
            palette = palettes[rest // 2 % len(palettes)]
            order = p["graph_vertices_min"] + rest // (2 * len(palettes)) % (n - p["graph_vertices_min"] + 1)
            rng = random.Random(derive(self.seed, "instance", j))
            g = random_graph(rng, order, p["edge_prob"])
            text = f"n {n}\n" + "".join(
                f"{u} {v} {rng.randrange(palette)}\n" for u in range(n) for v in range(u + 1, n)
            )
            colouring = load_colouring(text)
            pool.append((g, colouring, mode, bad_event_count(g, colouring, mode)))
        return pool

    def instances(self, pool, i: int) -> list:
        """Op i's instances: the next instances_per_op of the pool, which
        cover each n and mode once."""
        per_op = self.params["instances_per_op"]
        return [pool[(i * per_op + r) % len(pool)] for r in range(per_op)]

    def op(self, pool, i: int) -> OpResult:
        api, p = self.api, self.params
        trials = fails = 0
        data = []
        for r, (g, colouring, mode, events) in enumerate(self.instances(pool, i)):
            witness = api.exists_copy(g, colouring, mode)
            count = api.count_valid_embeddings(g, colouring, mode)
            runs = [
                api.find_copy(g, colouring, mode, seed=derive(self.seed, "find", i, r, run),
                              max_resamples=p["max_resamples"])
                for run in range(p["find_runs"])
            ]
            # the enumeration grows much faster than the bad events it finds
            report = api.verify_clique_bounds(g, colouring, mode) if events <= p["verify_event_cap"] else None
            trials += len(runs)
            fails += sum(not run.success for run in runs) if count else 0
            data.append((witness, count, runs, report))
        return OpResult(trials, fails, data)

    def check(self, pool, i: int, result: OpResult) -> None:
        for (g, colouring, mode, events), (witness, count, runs, report) in zip(self.instances(pool, i), result.data):
            if (witness is not None) != (count > 0):
                raise WrongOutput(f"exists_copy gave {witness} but the exact count is {count}")
            if witness is not None:
                check_embedding(self.api, witness, g, colouring, mode)
            for run in runs:
                if run.success:
                    if count == 0:
                        raise WrongOutput("sampler success on an instance without any copy")
                    check_embedding(self.api, run.embedding, g, colouring, mode)
            if report is None:
                continue
            if not report["ok"]:
                raise WrongOutput(f"verify_clique_bounds reports violations {report['violations'][:2]}")
            if report["n_events"] != events:
                raise WrongOutput(f"{report['n_events']} bad events enumerated, {events} counted")


WORKLOADS = {
    "pipeline-large": PipelineLarge,
    "frontier-resample": FrontierResample,
    "certify-sweep": CertifySweep,
    "crosscheck-small": CrosscheckSmall,
}
