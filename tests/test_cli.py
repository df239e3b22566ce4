import csv
import json
import time
from fractions import Fraction

import pytest

from conftest import constant_colouring
from rainbowcopy import (
    boundedness,
    certificate_inputs,
    cycle_graph,
    gen_k_bounded,
    load_colouring,
    optimize_mu,
    path_graph,
    save_colouring,
)
from rainbowcopy import cli
from rainbowcopy.cli import main
from rainbowcopy.colouring import MAX_VERTICES
from rainbowcopy.oracle import search_copy


def write_graph(path, g):
    lines = [f"n {g.n_vertices}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    write_graph(path, cycle_graph(5))
    return str(path)


class TestStats:
    def test_c5(self, c5_file, capsys):
        assert main(["stats", "--graph", c5_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 3 and doc["total_cherries"] == 5 and doc["max_degree"] == 2

    def test_k4(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        path.write_text("n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
        assert main(["stats", "--graph", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 9 and doc["total_cherries"] == 12

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text("n 4\n", encoding="utf-8")
        assert main(["stats", "--graph", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == 0 and doc["total_cherries"] == 0 and doc["max_degree"] == 0

    def test_bad_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("n 2\n0 0\n", encoding="utf-8")
        assert main(["stats", "--graph", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["stats", "--graph", str(tmp_path / "nope.graph")]) == 2

    @pytest.mark.parametrize("command", [
        ["stats"],
        ["certify", "--mode", "proper", "--n", "1000", "--k", "1"],
        ["certify", "--mode", "rainbow", "--n", "1000", "--k", "1"],
    ])
    def test_forged_graph_header_fails_fast(self, command, tmp_path, capsys):
        path = tmp_path / "forged.graph"
        path.write_text("n 2000000\n0 1\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(command + ["--graph", str(path)]) == 2
        assert time.perf_counter() - start < 0.1
        assert "2000000 vertices exceed the cap" in capsys.readouterr().err


class TestThreshold:
    def test_thm7(self, capsys):
        assert main(["threshold", "--theorem", "thm7", "--n", "1020", "--delta", "2"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_thm5(self, capsys):
        assert main(["threshold", "--theorem", "thm5", "--n", "640"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_thm3_with_graph(self, tmp_path, capsys):
        path = tmp_path / "c1000.graph"
        write_graph(path, cycle_graph(1000))
        assert main(["threshold", "--theorem", "thm3", "--n", "1000", "--graph", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "22"

    def test_delta_zero_exit_2(self, capsys):
        assert main(["threshold", "--theorem", "thm7", "--n", "100", "--delta", "0"]) == 2

    def test_thm3_negative_delta_exit_2(self, capsys):
        assert main(["threshold", "--theorem", "thm3", "--n", "1000", "--delta", "-2"]) == 2
        assert capsys.readouterr().out == ""

    def test_no_graph_source_exit_2(self, capsys):
        assert main(["threshold", "--theorem", "thm7", "--n", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "thm7 needs a maximum degree" in captured.err

    @pytest.mark.parametrize("theorem", ["thm7", "cor4", "thm3"])
    def test_graph_and_delta_exit_2(self, theorem, c5_file, capsys):
        code = main(["threshold", "--theorem", theorem, "--n", "1020", "--graph", c5_file,
                     "--delta", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_unknown_theorem_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--theorem", "thm9", "--n", "100"])
        assert exc.value.code == 2


class TestCertify:
    def test_rainbow_at_bound_holds(self, capsys):
        code = main(
            ["certify", "--mode", "rainbow", "--n", "204", "--delta", "1", "--k", "4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_rainbow_below_boundary_fails(self, capsys):
        code = main(
            ["certify", "--mode", "rainbow", "--n", "76", "--delta", "1", "--k", "1"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        failing = [s["label"] for s in doc["steps"] if not s["satisfied"]]
        assert failing == ["p_dis boundary"]

    def test_proper_c1000(self, tmp_path, capsys):
        path = tmp_path / "c1000.graph"
        write_graph(path, cycle_graph(1000))
        code = main(
            ["certify", "--mode", "proper", "--n", "1000", "--graph", str(path), "--k", "22"]
        )
        assert code == 0

    def test_search_mu_rainbow(self, capsys):
        code = main(
            ["certify", "--mode", "rainbow", "--n", "100", "--delta", "1", "--k", "2",
             "--search-mu"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "holds"

    def test_proper_from_delta_worst_case(self, capsys):
        code = main(
            ["certify", "--mode", "proper", "--n", "1000", "--delta", "2", "--k", "11"]
        )
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ["--k", "abc"],
        ["--k", "1/0"],
        ["--k", "2", "--q", "x", "--p", "1"],
        ["--k", "2", "--q", "3", "--p", "x"],
    ])
    def test_bad_rational_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--mode", "proper", "--n", "100"] + flags)
        assert exc.value.code == 2
        assert "not a rational number" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, setting, k", [("rainbow", "thm7", 4), ("proper", "thm3", 11)])
    def test_search_mu_is_optimize_mu_on_certificate_inputs(self, mode, setting, k, capsys):
        code = main(["certify", "--mode", mode, "--n", "1000", "--delta", "2", "--k", str(k),
                     "--search-mu"])
        doc = json.loads(capsys.readouterr().out)
        params, cert = optimize_mu(*certificate_inputs(setting, 1000, Fraction(k), delta=2))
        assert doc == {"parameters": {key: str(v) for key, v in params.items()},
                       "certificate": json.loads(json.dumps(cert.to_json())),
                       "search": cert.search}
        assert code == (0 if cert.holds else 1)

    @pytest.mark.parametrize("argv", [
        ["--mode", "rainbow", "--n", "1020", "--delta", "2", "--q", "3", "--p", "1", "--k", "5"],
        ["--mode", "proper", "--n", "1000", "--delta", "2", "--q", "3", "--k", "11"],
        ["--mode", "proper", "--n", "1000", "--delta", "2", "--p", "1", "--k", "11",
         "--search-mu"],
        ["--mode", "rainbow", "--n", "1020", "--delta", "1", "--k", "20", "--graph"],
        ["--mode", "proper", "--n", "1020", "--delta", "1", "--k", "20", "--graph"],
        ["--mode", "proper", "--n", "1020", "--q", "3", "--p", "1", "--k", "20", "--graph"],
        ["--mode", "rainbow", "--n", "1020", "--delta", "1", "--k", "4", "--search-mu",
         "--graph"],
    ])
    def test_two_sources_exit_2(self, argv, c5_file, capsys):
        if argv[-1] == "--graph":
            argv = [*argv, c5_file]
        assert main(["certify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_c5_rainbow_with_a_smaller_delta_is_not_certified(self, c5_file, capsys):
        # C_5 has maximum degree 2: k = 20 is beyond its thm7 bound 1020/204,
        # and a --delta 1 beside the graph no longer hides that
        argv = ["certify", "--mode", "rainbow", "--n", "1020", "--graph", c5_file, "--k", "20"]
        assert main(argv) == 2
        assert "k=20 exceeds the thm7 bound 5" in capsys.readouterr().err
        assert main([*argv, "--delta", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_nonpositive_n_with_a_graph_exit_2(self, c5_file, capsys):
        # the cherry rate total_cherries / n used to divide by zero here
        assert main(["certify", "--mode", "proper", "--n", "0", "--graph", c5_file,
                     "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_proper_negative_delta_exit_2(self, capsys):
        code = main(["certify", "--mode", "proper", "--n", "1000", "--delta", "-2", "--k", "11",
                     "--search-mu"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--mode", "rainbow", "--n", str(10**200), "--delta", "2", "--k", "1", "--search-mu"],
        ["--mode", "proper", "--n", str(10**2000), "--delta", "1", "--k", "1"],
        ["--mode", "rainbow", "--n", "1000", "--delta", "1", "--k", str(10**1500), "--search-mu"],
        # the direct certificate prints; the report's own q has too many digits
        ["--mode", "proper", "--n", "100", "--q", "1e5000", "--p", "1", "--k", "0"],
    ])
    def test_output_beyond_the_digit_limit_exit_2(self, argv, capsys):
        assert main(["certify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("mode", ["rainbow", "proper"])
    def test_margin_beyond_the_float_range_exit_2(self, mode, capsys):
        # at k = 0 the searched weight is MU_HI and the margin about 1000 * n^3
        assert main(["certify", "--mode", mode, "--n", str(10**110), "--delta", "1",
                     "--k", "0", "--search-mu"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("mode", ["rainbow", "proper"])
    def test_search_mu_huge_n_fails_with_json(self, mode, capsys):
        code = main(["certify", "--mode", mode, "--n", str(10**40), "--delta", "1",
                     "--k", "1", "--search-mu"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "fails"


class TestGenFindOracle:
    def test_colour_too_large_exit_2(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.graph"
        write_graph(graph_file, path_graph(3))
        col = tmp_path / "big.col"
        col.write_text("n 3\n0 1 0\n0 2 2147483648\n1 2 1\n", encoding="utf-8")
        for command in ("find", "oracle"):
            code = main([command, "--graph", str(graph_file), "--colouring", str(col),
                         "--mode", "proper"] + (["--seed", "0"] if command == "find" else []))
            assert code == 2
            assert "line 3: colour 2147483648 exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["graph", "colouring"])
    def test_non_utf8_file_exit_2(self, bad, tmp_path, capsys):
        files = {"graph": b"n 3\n0 1\n1 2\n", "colouring": b"n 3\n0 1 0\n0 2 1\n1 2 2\n"}
        files[bad] = files[bad].replace(b"1 2", b"1 \xff", 1)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        for command in ("find", "oracle"):
            code = main([command, "--graph", str(tmp_path / "graph"),
                         "--colouring", str(tmp_path / "colouring"), "--mode", "proper"]
                        + (["--seed", "0"] if command == "find" else []))
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: UnicodeDecodeError")

    def test_gen_then_find_proper_c6(self, tmp_path, capsys):
        col = tmp_path / "k6.col"
        assert main(["gen", "--n", "6", "--k", "2", "--mode", "local", "--seed", "1",
                     "-o", str(col)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["local_bound"] <= 2
        graph_file = tmp_path / "c6.graph"
        write_graph(graph_file, cycle_graph(6))
        code = main(["find", "--graph", str(graph_file), "--colouring", str(col),
                     "--mode", "proper", "--seed", "2"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["success"] and result["embedding"]["mode"] == "proper"
        # oracle agrees that a copy exists
        assert main(["oracle", "--graph", str(graph_file), "--colouring", str(col),
                     "--mode", "proper"]) == 0

    def test_gen_writes_the_colouring_and_its_counts(self, tmp_path, capsys):
        col = tmp_path / "k40.col"
        assert main(["gen", "--n", "40", "--k", "7", "--mode", "global", "--seed", "5",
                     "-o", str(col)]) == 0
        doc = json.loads(capsys.readouterr().out)
        chi = gen_k_bounded(40, 7, 5)
        assert col.read_bytes() == save_colouring(chi).encode()
        assert doc["colours"] == -(-780 // 7) == len(set(chi.table))
        assert doc["global_bound"] == 7

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_gen_states_the_counts_of_the_file_it_wrote(self, mode, tmp_path, capsys):
        # gen reports its generator's counts; boundedness counts them afresh
        col = tmp_path / "k.col"
        for n in range(2, 61):
            size = n * (n - 1) // 2
            for k in sorted({1, 2, 3, n - 2, n - 1, n, n + 1, size, size + 1} - {0}):
                for seed in (n, 1000 + k):
                    assert main(["gen", "--n", str(n), "--k", str(k), "--mode", mode,
                                 "--seed", str(seed), "-o", str(col)]) == 0
                    doc = json.loads(capsys.readouterr().out)
                    with open(col, encoding="utf-8") as source:
                        counted = boundedness(load_colouring(source))
                    stated = (doc["global_bound"], doc["local_bound"], doc["colours"])
                    assert stated == counted, (n, k, seed)

    def test_oracle_impossible(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.graph"
        graph_file.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
        col = tmp_path / "mono.col"
        col.write_text(save_colouring(constant_colouring(3)), encoding="utf-8")
        code = main(["oracle", "--graph", str(graph_file), "--colouring", str(col),
                     "--mode", "proper"])
        assert code == 1
        assert "no valid embedding" in capsys.readouterr().out

    @pytest.mark.parametrize("chi, found", [(gen_k_bounded(6, 2, 7), True),
                                            (constant_colouring(5), False)])
    def test_oracle_reports_the_nodes_it_explored(self, chi, found, tmp_path, capsys):
        graph_file = tmp_path / "c4.graph"
        write_graph(graph_file, cycle_graph(4))
        col = tmp_path / "k.col"
        col.write_text(save_colouring(chi), encoding="utf-8")
        code = main(["oracle", "--graph", str(graph_file), "--colouring", str(col),
                     "--mode", "rainbow"])
        embedding, nodes = search_copy(cycle_graph(4), chi, "rainbow")
        assert (embedding is not None) == found
        captured = capsys.readouterr()
        if found:
            assert code == 0
            doc = json.loads(captured.out)
            assert doc == {"image_of": list(embedding.image_of), "mode": "rainbow",
                           "nodes": nodes}
        else:
            assert code == 1
            assert captured.out == "no valid embedding\n"
            assert captured.err == f"nodes: {nodes}\n"
        assert nodes > 0

    def test_oracle_on_a_long_path(self, tmp_path, capsys):
        # deeper than the interpreter's recursion limit in graph vertices
        col = tmp_path / "k1200.col"
        assert main(["gen", "--n", "1200", "--k", "1", "--mode", "global", "--seed", "3",
                     "-o", str(col)]) == 0
        graph_file = tmp_path / "p1200.graph"
        write_graph(graph_file, path_graph(1200))
        capsys.readouterr()
        for mode in ("proper", "rainbow"):
            assert main(["oracle", "--graph", str(graph_file), "--colouring", str(col),
                         "--mode", mode]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["mode"] == mode and len(doc["image_of"]) == 1200

    def test_find_zero_budget(self, tmp_path, capsys):
        # no copy exists, so find spends its budget and reports the one
        # violating pair left
        graph_file = tmp_path / "p3.graph"
        graph_file.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
        col = tmp_path / "mono.col"
        col.write_text(save_colouring(constant_colouring(3)), encoding="utf-8")
        for budget in (0, 50):
            code = main(["find", "--graph", str(graph_file), "--colouring", str(col),
                         "--mode", "proper", "--seed", "3", "--max-resamples", str(budget)])
            assert code == 1
            doc = json.loads(capsys.readouterr().out)
            assert (doc["resamples"], doc["final_violations"]) == (budget, 1)

    def test_find_negative_budget_exit_2(self, tmp_path, capsys):
        graph_file = tmp_path / "p3.graph"
        graph_file.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
        col = tmp_path / "mono.col"
        col.write_text(save_colouring(constant_colouring(3)), encoding="utf-8")
        code = main(["find", "--graph", str(graph_file), "--colouring", str(col),
                     "--mode", "proper", "--seed", "3", "--max-resamples", "-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max_resamples must be >= 0" in captured.err


class TestExperiment:
    SPEC = {
        "mode": "rainbow",
        "colouring": "global",
        "graph_family": "cycle",
        "graph_size": "n",
        "n_values": [30, 40],
        "k_values": [1, 2],
        "seeds_per_cell": 3,
        "master_seed": 99,
    }

    def run(self, tmp_path, name):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC), encoding="utf-8")
        out = tmp_path / name
        assert main(["experiment", "--spec", str(spec_file), "-o", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))

    def test_schema_and_order(self, tmp_path, capsys):
        rows = self.run(tmp_path, "a.csv")
        assert rows[0] == ["trial_id", "n", "delta", "k", "mode", "seed", "outcome",
                           "resamples", "ms"]
        ids = [int(r[0]) for r in rows[1:]]
        assert ids == list(range(12))
        assert all(r[4] == "rainbow" and r[2] == "2" for r in rows[1:])

    def test_deterministic_up_to_wall_time(self, tmp_path, capsys):
        first = self.run(tmp_path, "a.csv")
        second = self.run(tmp_path, "b.csv")
        strip = lambda rows: [r[:-1] for r in rows]
        assert strip(first) == strip(second)

    @pytest.mark.parametrize("change", [
        {"colouring": "globl"},
        {"graph_size": "abc"},
        {"graph_size": 2.5},
        {"graph_size": 0},
        {"graph_size": True},
        {"mode": "rainbw"},
        {"graph_family": ["cycle"]},
        {"n_values": ["a"]},
        {"n_values": []},
        {"n_values": 30},
        {"n_values": [30, 1]},
        {"n_values": [MAX_VERTICES + 1]},
        {"graph_size": MAX_VERTICES + 1},
        {"k_values": [0]},
        {"k_values": [1.5]},
        {"seeds_per_cell": "x"},
        {"seeds_per_cell": 0},
        {"master_seed": "x"},
        {"master_seed": 1.5},
        {"max_resamples": "x"},
        {"max_resamples": -1},
        {"n_values": [50, 5], "graph_size": 20},
        {"graph_size": 2},
        {"n_values": [30, 2], "graph_size": "n"},
    ])
    def test_bad_spec_exit_2(self, change, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "find_copy", lambda *args, **kwargs: calls.append(args))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**self.SPEC, **change}), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["experiment", "--spec", str(spec_file), "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []  # rejected before the first trial
        assert not out.exists()

    def test_spec_not_an_object_exit_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps([self.SPEC]), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["experiment", "--spec", str(spec_file), "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("max_resamples", [None, 0])
    def test_budget_null_or_zero(self, max_resamples, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec = {**self.SPEC, "n_values": [30], "max_resamples": max_resamples}
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["experiment", "--spec", str(spec_file), "-o", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert len(list(csv.reader(handle))) == 7

    def test_fixed_graph_size(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**self.SPEC, "graph_size": 6, "colouring": "local"}),
                             encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["experiment", "--spec", str(spec_file), "-o", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert len(list(csv.reader(handle))) == 13
