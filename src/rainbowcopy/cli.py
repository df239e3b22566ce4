"""Command-line frontend.

Subcommands: stats, threshold, certify, gen, find, oracle, experiment.
Exit codes: 0 success / certificate holds, 1 certificate fails, copy not
found, or budget spent, 2 usage, input, domain or capacity errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import lll
from .colouring import (
    MAX_VERTICES,
    _constructed_boundedness,
    gen_k_bounded,
    gen_locally_k_bounded,
    load_colouring,
    save_colouring,
)
from .errors import CapacityError, DomainError, FormatError
from .events import graph_rates
from .graph import cherry_stats, complete_graph, cycle_graph, load_graph, path_graph
from .oracle import search_copy
from .sampler import find_copy

__all__ = ["main", "build_parser"]


def _read(load, path: str):
    # opened as read_text opens it (universal newlines), read a block at a time
    with open(path, encoding="utf-8") as source:
        return load(source)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _print_json(document: dict) -> None:
    # exact rationals (Fractions) print as strings such as "7/2"
    try:
        print(json.dumps(document, indent=2, sort_keys=True, default=str))
    except ValueError:  # a number beyond the int-to-str digit limit
        raise CapacityError("output has a number too long to print exactly") from None


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _read(load_graph, args.graph)
    stats = cherry_stats(g)
    _, q, p = graph_rates(g.n_vertices, stats=stats)
    _print_json(
        {
            "n": g.n_vertices,
            "m": stats.edge_count,
            "max_degree": stats.max_degree,
            "total_cherries": stats.total_cherries,
            "p": str(p),
            "p_approx": float(p),
            "q": q,
        }
    )
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    stats = cherry_stats(_read(load_graph, args.graph)) if args.graph else None
    k = lll.threshold(args.theorem, args.n, delta=args.delta, stats=stats)
    print(k)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    setting = "thm3" if args.mode == "proper" else "thm7"
    stats = cherry_stats(_read(load_graph, args.graph)) if args.graph else None
    inputs = {"delta": args.delta, "stats": stats, "q": args.q, "p": args.p}
    if args.search_mu:
        params, cert = lll.optimize_mu(*lll.certificate_inputs(setting, args.n, args.k, **inputs))
        _print_json({"parameters": params, "certificate": cert.to_json(), "search": cert.search})
        return 0 if cert.holds else 1
    report = lll.verify_paper_inequalities(setting, n=args.n, k=args.k, **inputs)
    _print_json(report)
    return 0 if report["ok"] else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    gen = gen_k_bounded if args.mode == "global" else gen_locally_k_bounded
    colouring = gen(args.n, args.k, args.seed)
    with open(args.output, "w", encoding="utf-8") as out:
        save_colouring(colouring, out)
    bounds = _constructed_boundedness(colouring, args.k, args.mode)
    _print_json(
        {
            "file": args.output,
            "n": args.n,
            "k": args.k,
            "mode": args.mode,
            "colours": bounds.colours,
            "global_bound": bounds.global_bound,
            "local_bound": bounds.local_bound,
        }
    )
    return 0


def _cmd_find(args: argparse.Namespace) -> int:
    g = _read(load_graph, args.graph)
    colouring = _read(load_colouring, args.colouring)
    result = find_copy(
        g, colouring, args.mode, seed=args.seed, max_resamples=args.max_resamples
    )
    _print_json(result.to_json())
    return 0 if result.success else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _read(load_graph, args.graph)
    colouring = _read(load_colouring, args.colouring)
    embedding, nodes = search_copy(g, colouring, args.mode)
    if embedding is None:
        print("no valid embedding")
        print(f"nodes: {nodes}", file=sys.stderr)
        return 1
    _print_json({**embedding.to_json(), "nodes": nodes})
    return 0


def _derive_seed(master_seed: int, trial_id: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{trial_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_FAMILIES = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph}


def _int_list(spec: dict, key: str, low: int) -> list[int]:
    values = spec[key]
    if not (isinstance(values, list) and values
            and all(type(x) is int and x >= low for x in values)):
        raise DomainError(f"{key} must be a non-empty list of integers >= {low}, got {values!r}")
    return values


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if not isinstance(spec, dict):
        raise DomainError(f"the experiment spec must be a JSON object, got {spec!r}")
    mode = spec["mode"]
    if mode not in ("proper", "rainbow"):
        raise DomainError(f"unknown mode {mode!r}; expected 'proper' or 'rainbow'")
    colouring_kind = spec.get("colouring", "global")
    if colouring_kind not in ("global", "local"):
        raise DomainError(f"unknown colouring {colouring_kind!r}; expected 'global' or 'local'")
    family = spec.get("graph_family", "cycle")
    if not (isinstance(family, str) and family in _FAMILIES):
        raise DomainError(f"unknown graph family {family!r}")
    graph_size = spec.get("graph_size", "n")
    if graph_size != "n" and not (type(graph_size) is int and graph_size > 0):
        raise DomainError(f'graph_size must be "n" or a positive integer, got {graph_size!r}')
    n_values = _int_list(spec, "n_values", 2)
    k_values = _int_list(spec, "k_values", 1)
    largest = max(n_values + ([] if graph_size == "n" else [graph_size]))
    if largest > MAX_VERTICES:
        raise CapacityError(f"n = {largest} exceeds the colouring cap of {MAX_VERTICES} vertices")
    seeds_per_cell = spec.get("seeds_per_cell", 1)
    if not (type(seeds_per_cell) is int and seeds_per_cell > 0):
        raise DomainError(f"seeds_per_cell must be a positive integer, got {seeds_per_cell!r}")
    master_seed = spec.get("master_seed", 0)
    if type(master_seed) is not int:
        raise DomainError(f"master_seed must be an integer, got {master_seed!r}")
    max_resamples = spec.get("max_resamples")
    if max_resamples is not None and not (type(max_resamples) is int and max_resamples >= 0):
        raise DomainError(f"max_resamples must be null or an integer >= 0, got {max_resamples!r}")
    if graph_size != "n" and graph_size > min(n_values):
        raise DomainError(f"graph_size {graph_size} exceeds n = {min(n_values)}")
    # built before the first trial, so a size the family refuses fails here
    graphs = {n: _FAMILIES[family](n if graph_size == "n" else graph_size) for n in n_values}

    gen = gen_k_bounded if colouring_kind == "global" else gen_locally_k_bounded
    rows = []
    trial_id = 0
    successes = 0
    for n in n_values:
        for k in k_values:
            g = graphs[n]
            delta = max(g.degrees, default=0)
            for _ in range(seeds_per_cell):
                seed = _derive_seed(master_seed, trial_id)
                colouring = gen(n, k, seed)
                start = time.perf_counter()
                result = find_copy(g, colouring, mode, seed=seed, max_resamples=max_resamples)
                elapsed_ms = int(1000 * (time.perf_counter() - start))
                outcome = "success" if result.success else "failure"
                successes += result.success
                rows.append(
                    [trial_id, n, delta, k, mode, seed, outcome, result.resamples, elapsed_ms]
                )
                trial_id += 1

    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial_id", "n", "delta", "k", "mode", "seed", "outcome", "resamples", "ms"])
        writer.writerows(rows)
    _print_json({"trials": trial_id, "successes": successes, "csv": args.output})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowcopy",
        description="Local-lemma certificates and randomized search for properly "
        "coloured and rainbow copies of graphs in edge-coloured complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stats", help="cherry statistics of a graph file")
    s.add_argument("--graph", required=True)
    s.set_defaults(func=_cmd_stats)

    s = sub.add_parser("threshold", help="largest admissible colour bound k")
    s.add_argument("--theorem", required=True, choices=lll.THEOREMS)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--graph")
    s.add_argument("--delta", type=int)
    s.set_defaults(func=_cmd_threshold)

    s = sub.add_parser("certify", help="check a local-lemma certificate")
    s.add_argument("--mode", required=True, choices=["proper", "rainbow"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--graph")
    s.add_argument("--delta", type=int)
    s.add_argument("--p", type=_fraction)
    s.add_argument("--q", type=_fraction)
    s.add_argument("--k", type=_fraction, required=True, help="colour bound (integer or fraction)")
    s.add_argument("--search-mu", action="store_true", default=False,
                   help="search the weights numerically instead of checking the reference chain")
    s.set_defaults(func=_cmd_certify)

    s = sub.add_parser("gen", help="generate a bounded colouring file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--mode", required=True, choices=["global", "local"])
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=_cmd_gen)

    s = sub.add_parser("find", help="search a valid embedding by resampling")
    s.add_argument("--graph", required=True)
    s.add_argument("--colouring", required=True)
    s.add_argument("--mode", required=True, choices=["proper", "rainbow"])
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--max-resamples", type=int, default=None)
    s.set_defaults(func=_cmd_find)

    s = sub.add_parser("oracle", help="exact existence decision (small n)")
    s.add_argument("--graph", required=True)
    s.add_argument("--colouring", required=True)
    s.add_argument("--mode", required=True, choices=["proper", "rainbow"])
    s.set_defaults(func=_cmd_oracle)

    s = sub.add_parser("experiment", help="run a declarative trial batch to CSV")
    s.add_argument("--spec", required=True)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
