"""Benchmark harness for rainbowcopy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ./src.
A run builds the workload's inputs from --seed (BENCHMARK.json and
bench/workloads.json describe the workloads), then runs ops as a closed loop
with one client in this single-threaded process until --seconds have passed,
checking every op's outputs between ops.  ``--workload all`` runs each
workload in a fresh process of its own, one after the other.

Reported times are scaled to a reference machine speed by a fixed kernel
timed between ops (see speed_kernel), so that runs on a shared machine whose
speed drifts stay comparable.  The human-readable lines give every scaled
time also as measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op untraced and
traced and prints the per-layer metrics, the tracing overhead among them,
and writes the spans to .bench_out/trace-<workload>-seed<N>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 with a result, 2 on a usage
error or a checkout without the library sources, 3 when an output check
fails, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import END, INFO, NAME, OP, START, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# per-layer metric -> spans whose mean seconds per call it reports
CALL_SECONDS = {
    "colouring.gen_s": ("colouring.gen_k_bounded", "colouring.gen_locally_k_bounded"),
    "colouring.save_s": ("colouring.save_colouring",),
    "colouring.load_s": ("colouring.load_colouring",),
    "colouring.boundedness_s": ("colouring.boundedness",),
    "sampler.find_s": ("sampler.find_copy",),
    "lll.search_s": ("lll.optimize_mu",),
    "lll.chain_s": ("lll.verify_paper_inequalities",),
    "lll.recheck_s": ("lll.check_cluster_clique",),
    "events.cover_s": ("events.clique_cover_rainbow", "events.proper_profile_from_rates"),
    "oracle.exists_s": ("oracle.exists_copy",),
    "oracle.count_s": ("oracle.count_valid_embeddings",),
    "events.verify_bounds_s": ("events.verify_clique_bounds",),
}

# facts a traced call keeps from its result
ANNOTATE = {
    "sampler.find_copy": lambda r: {"resamples": r.resamples, "success": r.success},
    "oracle.count_valid_embeddings": lambda count: {"count": count},
    "events.verify_clique_bounds": lambda report: {"n_events": report["n_events"]},
    "lll.optimize_mu": lambda found: {"holds": found[1].holds},
    "lll.verify_paper_inequalities": lambda report: {"ok": report["ok"]},
}


# Machine-speed probe.  Shared hosts drift in speed by a quarter and more
# within seconds, which would swamp the differences the benchmark exists to
# show.  A fixed kernel, independent of the library, is timed between ops
# throughout each run; an op with long steps may also probe between them
# (Workload.probe), and its time leaves the probes out.  Each op and set-up
# time is multiplied by REFERENCE_KERNEL_S / (median kernel time of the
# probes it took and the two nearest before and after it), and each layer
# time by REFERENCE_KERNEL_S /
# (median kernel time of the run): the seconds the work would have taken
# with the kernel at its reference speed.  Pairing each op with the probes
# around it follows drift that a run-wide factor averages away; the median
# keeps one stray probe from moving an op.
REFERENCE_KERNEL_S = 0.004
PROBE_EVERY_S = 0.1  # of op time


def speed_kernel() -> float:
    """Seconds one run of a fixed pure-Python kernel takes: the mix of
    tuple-keyed dicts, sets, small Fractions and hashing the library uses.

    The garbage collector is off while it runs: a collection would charge
    the kernel for the objects the workload keeps alive, which vary from
    one workload and moment to the next."""
    gc.disable()
    try:
        start = perf_counter()
        table, seen, q = {}, set(), Fraction(0)
        for i in range(6000):
            table[i, i ^ 7] = 3 * i + 1
            seen.add(i * 7 % 1009)
            if i % 50 == 0:
                q += Fraction(i + 1, i + 3)
        total = sum(a * v for (a, _), v in table.items()) + len(seen)
        for i in range(3000):
            total ^= hash((i, total & 0xFF))
        return perf_counter() - start
    finally:
        gc.enable()


class Loop:
    """What the timed loop of one run collected."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.setup_s: list[float] = []
        self.op_s: list[float] = []  # op times of the runs the metrics describe
        # indices in kernel_s of the last probe before each set-up and op
        # and of the last probe it took itself (the same if it took none)
        self.setup_probes: list[tuple[int, int]] = []
        self.op_probes: list[tuple[int, int]] = []
        self.busy_s = 0.0  # time spent running ops, both runs of an op when traced
        self.untraced_s = 0.0  # traced runs: untraced time of the same ops
        self.traced_s = 0.0
        self.attempted = self.raised = self.trials = self.fails = 0

    def fail_ratio(self) -> float:
        return self.fails / self.trials if self.trials else 1.0

    def probe_speed(self) -> None:
        self.kernel_s.append(speed_kernel())

    def time_scale(self) -> float:
        """Factor that turns this run's seconds into reference-speed seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)

    def scaled(self, seconds: list[float], probes: list[tuple[int, int]]) -> list[float]:
        """Each time in reference-speed seconds, by the probes around it."""
        return [t * REFERENCE_KERNEL_S / statistics.median(self.kernel_s[max(first - 1, 0):last + 3])
                for t, (first, last) in zip(seconds, probes)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, len(ordered)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def timed_op(workload, state, i: int, kernel_s: list[float]):
    """(result or None if the op raised, seconds without the speed probes
    the op took)."""
    probes = len(kernel_s)
    start = perf_counter()
    try:
        result = workload.op(state, i)
    except Exception:  # an op that raises is counted as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, perf_counter() - start - sum(kernel_s[probes:])


def timed_setup(workload, tracer: Tracer | None):
    """(state, seconds) of one fresh set-up."""
    if tracer is not None:
        tracer.op = None
    start = perf_counter()
    state = workload.setup()
    return state, perf_counter() - start


def run_loop(workload, seconds: float, tracer: Tracer | None, plain_calls, wrong_output) -> Loop:
    """Set up, then run ops until `seconds` have been spent running them,
    then set up again, each time between two speed probes.

    The repeated set-ups come after the ops' inputs are freed, so that two
    sets of inputs never share the memory.  In a traced run each op also
    runs within plain_calls(), which makes the workload call the library
    without any wrapper.
    """
    loop = Loop()
    workload.probe = loop.probe_speed
    loop.probe_speed()
    probed_at = 0.0
    state, elapsed = timed_setup(workload, tracer)
    loop.setup_s.append(elapsed)
    loop.setup_probes.append((0, 0))
    try:
        i = 0
        while i == 0 or loop.busy_s < seconds:
            loop.attempted += 1
            first_probe = len(loop.kernel_s) - 1
            if tracer is None:
                result, elapsed = timed_op(workload, state, i, loop.kernel_s)
                loop.busy_s += elapsed
            else:
                tracer.op = i
                runs = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    with contextlib.nullcontext() if traced else plain_calls():
                        runs[traced] = timed_op(workload, state, i, loop.kernel_s)
                (plain, plain_s), (result, elapsed) = runs[False], runs[True]
                loop.busy_s += plain_s + elapsed
                if plain is None or result is None:
                    result = None
                elif plain != result:
                    raise wrong_output(f"op {i} gave different outputs untraced and traced")
                else:
                    loop.untraced_s += plain_s
                    loop.traced_s += elapsed
            loop.op_s.append(elapsed)
            loop.op_probes.append((first_probe, len(loop.kernel_s) - 1))
            if result is None:
                loop.raised += 1
            else:
                workload.check(state, i, result)
                loop.trials += result.trials
                loop.fails += result.fails
            i += 1
            if loop.busy_s - probed_at >= PROBE_EVERY_S:
                loop.probe_speed()
                probed_at = loop.busy_s
    finally:
        workload.close(state)
        del state
    loop.probe_speed()
    while len(loop.setup_s) < SPEC["setup_repeats"] or sum(loop.setup_s) < SPEC["setup_seconds"]:
        extra, elapsed = timed_setup(workload, tracer)
        workload.close(extra)
        del extra
        loop.setup_s.append(elapsed)
        loop.setup_probes.append((len(loop.kernel_s) - 1,) * 2)
        loop.probe_speed()
    return loop


def end_to_end(loop: Loop) -> tuple[dict, dict, dict]:
    """Metrics, the same metrics as measured, and notes."""

    def summary(op_s: list[float], setup_s: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "op_s.tail": tail(op_s)[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    metrics = summary(loop.scaled(loop.op_s, loop.op_probes), loop.scaled(loop.setup_s, loop.setup_probes))
    measured = summary(loop.op_s, loop.setup_s)
    _, percentile, count = tail(loop.op_s)
    notes = {
        "setup_s": f"median of {len(loop.setup_s)} set-ups",
        "op_s.tail": f"p{percentile:.1f} of {count} ops"
        + (" (the maximum: fewer than 11 ops)" if count <= 10 else ""),
    }
    return metrics, measured, notes


def per_layer(tracer: Tracer, loop: Loop) -> tuple[dict, dict, dict]:
    """Metrics (times scaled by the run's median probe), the same metrics as
    measured, and notes."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def seconds(*names) -> list[float]:
        return [s[END] - s[START] for name in names for s in by_name.get(name, [])]

    def mean(values) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics = {metric: mean(seconds(*names)) for metric, names in CALL_SECONDS.items()}
    own = tracer.self_times()
    metrics["cli.self_s"] = mean([own[j] for j, s in enumerate(spans) if s[NAME] == "cli.main"])
    metrics["colouring.peak_mb"] = max(
        (b for name, b in tracer.peak_bytes.items() if name.startswith("colouring.")), default=0
    ) / 2**20

    finds = by_name.get("sampler.find_copy", [])
    resamples = sum(s[INFO]["resamples"] for s in finds)
    idle = [s[END] - s[START] for s in finds if s[INFO]["resamples"] == 0]
    metrics["sampler.resamples"] = resamples / len(finds) if finds else 0.0
    metrics["sampler.us_per_resample"] = 1e6 * sum(seconds("sampler.find_copy")) / resamples if resamples else 0.0
    metrics["sampler.success_ratio"] = mean([s[INFO]["success"] for s in finds])
    metrics["sampler.call_overhead_us"] = 1e6 * statistics.median(idle) if idle else 0.0
    metrics["sampler.calls"] = len(finds)
    checked = len(by_name.get("sampler.is_valid_embedding", []))
    check_s = sum(seconds("sampler.is_valid_embedding", "sampler.violated_events"))
    metrics["sampler.check_s"] = check_s / checked if checked else 0.0

    metrics["lll.search_calls"] = len(by_name.get("lll.optimize_mu", []))
    cells: dict = {}  # op -> [search failed, chains hold]
    for s in by_name.get("lll.optimize_mu", []):
        cells.setdefault(s[OP], [False, True])[0] |= not s[INFO]["holds"]
    for s in by_name.get("lll.verify_paper_inequalities", []):
        cells.setdefault(s[OP], [False, True])[1] &= s[INFO]["ok"]
    metrics["lll.search_shortfall"] = sum(failed and ok for failed, ok in cells.values())

    counts = by_name.get("oracle.count_valid_embeddings", [])
    metrics["oracle.calls"] = len(counts) + len(by_name.get("oracle.exists_copy", []))
    metrics["oracle.embeddings"] = sum(s[INFO]["count"] for s in counts)
    metrics["events.n_events"] = sum(s[INFO]["n_events"] for s in by_name.get("events.verify_clique_bounds", []))

    metrics["fail_ratio"] = loop.fail_ratio()
    metrics["trace.overhead"] = loop.traced_s / loop.untraced_s - 1.0 if loop.untraced_s else 0.0
    metrics["trace.ops"] = len(loop.op_s)
    measured = dict(metrics)
    for metric in metrics:
        if UNITS[metric] in ("s", "us"):
            metrics[metric] *= loop.time_scale()
    notes = {
        "fail_ratio": f"{loop.fails} of {loop.trials}",
        "trace.overhead": f"traced {loop.traced_s:.6g} s / untraced {loop.untraced_s:.6g} s - 1",
        "sampler.call_overhead_us": f"median of {len(idle)} calls with 0 resamples",
    }
    return metrics, measured, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; raises workloads.WrongOutput on a wrong output."""
    import workloads  # imports the library, so only after ./src is on the path

    tracer = Tracer() if trace else None
    table = dict(workloads.LIBRARY)
    cli_bound = {}
    if tracer is not None:

        def wrap(span, fn):
            return tracer.wrap(span, fn, ANNOTATE.get(span), memory=span.startswith("colouring."))

        table = {span: wrap(span, fn) for span, fn in table.items()}
        cli_bound = {attr: wrap(span, fn) for attr, (span, fn) in workloads.CLI_BOUND.items()}

    def namespace(functions: dict) -> SimpleNamespace:
        return SimpleNamespace(**{span.split(".", 1)[1]: fn for span, fn in functions.items()})

    workload = workloads.WORKLOADS[name](seed, namespace(table), SPEC["workloads"][name]["params"], OUT)

    @contextlib.contextmanager
    def plain_calls():
        """Unwrapped library functions and cli.main's own bindings."""
        traced_api, workload.api = workload.api, namespace(workloads.LIBRARY)
        try:
            with tracer.patch(workloads.cli, {attr: fn for attr, (_, fn) in workloads.CLI_BOUND.items()}):
                yield
        finally:
            workload.api = traced_api

    with tracer.patch(workloads.cli, cli_bound) if tracer else contextlib.nullcontext():
        loop = run_loop(workload, seconds, tracer, plain_calls, workloads.WrongOutput)
        if tracer is not None:
            # memory pass: one more set-up and op, colouring calls under tracemalloc
            tracer.recording, tracer.measure_memory = False, True
            state = workload.setup()
            try:
                workload.op(state, 0)
            finally:
                workload.close(state)

    if tracer is None:
        metrics, measured, notes = end_to_end(loop)
        expected = BENCHMARK["end_to_end"]
    else:
        metrics, measured, notes = per_layer(tracer, loop)
        expected = BENCHMARK["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{name}-seed{seed}.jsonl")
    if set(metrics) != {m["name"] for m in expected}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    names = [m["name"] for m in expected]
    print(f"workload {name}  seed {seed}  ops {loop.attempted}  failed {loop.raised}  "
          f"speed kernel {1000 * statistics.median(loop.kernel_s):.3f} ms "
          f"(median of {len(loop.kernel_s)} probes): times are scaled to the "
          f"{1000 * REFERENCE_KERNEL_S:g} ms reference")
    for metric in names:
        note = f"  ({notes[metric]})" if metric in notes else ""
        raw = f"  measured {measured[metric]:.6g}" if measured[metric] != metrics[metric] else ""
        print(f"  {metric:<26} {metrics[metric]:>14.6g} {UNITS[metric]}{raw}{note}")
    if tracer is None:
        print(f"  {'fail_ratio':<26} {loop.fail_ratio():>14.6g} ratio  ({loop.fails} of {loop.trials}; "
              "not in the result line, see bench/workloads.json)")
    return {
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.raised,
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in names},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "rainbowcopy" / "__init__.py").is_file():
        print(f"error: no library sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import workloads

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.WrongOutput as exc:
        print(f"wrong output in {args.workload}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
