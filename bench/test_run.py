"""Tests of the benchmark harness: every result line has the metrics
BENCHMARK.json names, and a wrong output ends a run with a non-zero exit
and no result line.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import collections
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from rainbowcopy import cli  # noqa: E402
from rainbowcopy.sampler import Embedding, FindResult, is_valid_embedding, random_injection  # noqa: E402

WRONG_OUTPUT = 3


def bench(capsys, workload: str, seconds: float = 1, trace: int = 0):
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return status, [line for line in lines if line.startswith("{")]


def corrupting(real):
    """find_copy that reports success with an invalid embedding."""

    def find_copy(g, colouring, mode, **kwargs):
        found = real(g, colouring, mode, **kwargs)
        for seed in range(100):
            wrong = Embedding(random_injection(g.n_vertices, colouring.n, seed).image_of, mode)
            if not is_valid_embedding(wrong, g, colouring, mode):
                return FindResult(wrong, True, found.resamples, 0)
        return found

    return find_copy


def always_succeeding(g, colouring, mode, **kwargs):
    return FindResult(Embedding(random_injection(g.n_vertices, colouring.n, 0).image_of, mode), True, 0, 0)


def failing_report(real, key="ok"):
    def wrapped(*args, **kwargs):
        return {**real(*args, **kwargs), key: False}

    return wrapped


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_benchmark_metrics(capsys, trace):
    status, results = bench(capsys, "crosscheck-small", trace=trace)
    assert status == 0 and len(results) == 1
    result = json.loads(results[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = run.BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0


def test_certify_sweep_shows_the_search_shortfall(capsys):
    status, results = bench(capsys, "certify-sweep", seconds=3, trace=1)
    assert status == 0
    result = json.loads(results[-1])
    assert result["metrics"]["lll.search_shortfall"]["value"] > 0
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert result["failed"] == 0


def test_untraced_half_calls_the_library_unwrapped(capsys, monkeypatch):
    calls = collections.Counter()
    wrap = run.Tracer.wrap

    def counting_wrap(self, name, fn, *args, **kwargs):
        traced = wrap(self, name, fn, *args, **kwargs)

        def counted(*call_args, **call_kwargs):
            calls[name] += 1
            return traced(*call_args, **call_kwargs)

        return counted

    monkeypatch.setattr(run.Tracer, "wrap", counting_wrap)
    status, results = bench(capsys, "crosscheck-small", trace=1)
    assert status == 0
    ops = json.loads(results[-1])["metrics"]["trace.ops"]["value"]
    per_op = run.SPEC["workloads"]["crosscheck-small"]["params"]["instances_per_op"]
    assert calls["oracle.exists_copy"] == per_op * (ops + 1)  # the traced halves and the memory pass


@pytest.mark.parametrize(
    "workload, span, fake",
    [
        ("frontier-resample", "sampler.find_copy", corrupting),
        ("crosscheck-small", "sampler.find_copy", lambda real: always_succeeding),
        ("crosscheck-small", "oracle.exists_copy", lambda real: lambda *a, **k: None),
        ("crosscheck-small", "events.verify_clique_bounds", failing_report),
        ("crosscheck-small", "events.verify_clique_bounds", lambda real: failing_report(real, "n_events")),
        ("certify-sweep", "lll.verify_paper_inequalities", failing_report),
    ],
)
def test_wrong_output_fails_the_run(capsys, monkeypatch, workload, span, fake):
    monkeypatch.setitem(workloads.LIBRARY, span, fake(workloads.LIBRARY[span]))
    assert bench(capsys, workload) == (WRONG_OUTPUT, [])


def test_wrong_cli_output_fails_the_pipeline(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_copy", corrupting(cli.find_copy))
    assert bench(capsys, "pipeline-large") == (WRONG_OUTPUT, [])


def test_nondeterministic_op_fails_the_traced_run(capsys, monkeypatch):
    counter = itertools.count()
    real = workloads.LIBRARY["sampler.find_copy"]

    def drifting(*args, **kwargs):
        found = real(*args, **kwargs)
        return FindResult(found.embedding, found.success, found.resamples + next(counter), 0)

    monkeypatch.setitem(workloads.LIBRARY, "sampler.find_copy", drifting)
    assert bench(capsys, "crosscheck-small", trace=1) == (WRONG_OUTPUT, [])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "crosscheck-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
