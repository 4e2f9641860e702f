import json
import os
import subprocess
import sys

import pytest

import tightcuts
from conftest import k44_path
from tightcuts import decomp
from tightcuts.cli import Report, _sweep_graph, main, report_from_json_obj
from tightcuts.corpus import gen_h_n, gen_h_n_prime, gen_named
from tightcuts.formats import graph_to_json, parse_graph6, write_graph6


@pytest.fixture()
def g6_file(tmp_path):
    def write(name, *graphs):
        path = tmp_path / name
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        return str(path)
    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- analyze ---------------------------------------------------------------


def test_analyze_human_output(capsys, g6_file):
    code = main(["analyze", "--input", g6_file("k4.g6", gen_named("k4"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph 0: n=4 m=6 matching_covered=True" in out
    assert "bicritical=True" in out


def test_analyze_json_report(capsys, g6_file):
    code, obj = run_json(capsys, ["analyze", "--json",
                                  "--input", g6_file("k4.g6", gen_named("k4"))])
    assert code == 0
    assert obj["command"] == "analyze" and obj["version"] == "0.1.0"
    info = obj["findings"]["graphs"][0]
    assert (info["n"], info["edge_count"], info["matching_covered"]) == (4, 6, True)
    report = report_from_json_obj(obj)
    assert isinstance(report, Report)
    assert report.to_json_obj() == obj


def test_analyze_lists_tight_cuts_up_to_the_barrier_cap(capsys, g6_file):
    # the tight-cut listing shares the barrier enumeration's size gate, which
    # elp_set needs: gen_h_n(4) has 18 vertices, gen_h_n(5) 22
    code, obj = run_json(capsys, ["analyze", "--json", "--input",
                                  g6_file("h.g6", gen_h_n(4), gen_h_n(5))])
    assert code == 0
    h4, h5 = obj["findings"]["graphs"]
    assert h4["n"] == 18 and len(h4["nontrivial_tight_cuts"]) == 35
    assert all(c["elp_count"] >= 1 for c in h4["nontrivial_tight_cuts"])
    assert h5["n"] == 22
    assert h5["nontrivial_barriers"] is None and h5["nontrivial_tight_cuts"] is None


def test_analyze_uncovered_graph(capsys, tmp_path):
    path = tmp_path / "star.g6"
    path.write_text("CF\n")  # a star: no perfect matching
    code = main(["analyze", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "matching_covered=False" in out
    assert "bicritical" not in out


def test_analyze_missing_file(capsys):
    code = main(["analyze", "--input", "/nonexistent/x.g6"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C\n")  # truncated line
    assert main(["analyze", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--format", "json"],
                                  ["verify", "--max-n", "4"]],
                         ids=["analyze-graph6", "analyze-json", "verify"])
def test_non_ascii_input_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C~\n\xff\xfe\n")
    assert main(argv + ["--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# -- classify --------------------------------------------------------------


def test_classify_barrier_cut_human(capsys, g6_file):
    code = main(["classify", "--input", g6_file("c6.g6", gen_named("c6")),
                 "--shore", "0,1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: barrier-cut" in out
    assert "barrier: {3,5}" in out


def test_classify_barrier_cut_json(capsys, g6_file):
    code, obj = run_json(capsys, ["classify", "--json",
                                  "--input", g6_file("c6.g6", gen_named("c6")),
                                  "--shore", "0,1,2"])
    assert code == 0
    f = obj["findings"]
    assert f["verdict"] == "barrier-cut"
    assert f["shore"] == ["0", "1", "2"] and f["barrier"] == ["3", "5"]
    assert f["certificate"]["kind"] == "barrier-cut"
    assert f["certificate"]["barrier"] == [3, 5]


def test_classify_not_tight(capsys, g6_file):
    code = main(["classify", "--json", "--input", g6_file("c6.g6", gen_named("c6")),
                 "--shore", "0,2,4"])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.err)
    assert err["error"] == "not a tight cut"
    assert len(err["witness_matching"]) == 3  # a perfect matching of C6


@pytest.mark.parametrize("shore", ["0,1", "0", "0,9"])
def test_classify_rejects_bad_shores(capsys, g6_file, shore):
    code = main(["classify", "--input", g6_file("c6.g6", gen_named("c6")),
                 "--shore", shore])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_classify_labels_need_json_input(capsys, g6_file):
    # graph6 carries no labels, so label tokens cannot resolve
    code = main(["classify", "--input", g6_file("c6.g6", gen_named("c6")),
                 "--shore", "v1,v2,v3"])
    assert code == 3
    assert "unknown vertex name" in capsys.readouterr().err


def test_classify_json_input_resolves_labels(capsys, tmp_path):
    path = tmp_path / "chorded.json"
    path.write_text(graph_to_json(gen_h_n_prime(4)))
    code, obj = run_json(capsys, ["classify", "--json", "--format", "json",
                                  "--input", str(path), "--shore", "v1,v2,v3"])
    assert code == 0
    f = obj["findings"]
    assert f["verdict"] == "essential-gs-cut"
    assert f["contracted_barriers"] == [["u1", "u2"]]
    assert f["shore"] == ["v1", "v2", "v3"]
    assert f["certificate"]["kind"] == "essential-gs"
    assert f["transcript"] == [
        "no barrier has either side of the cut as an odd component",
        "empty barrier family: associated family is empty"]


# -- decompose -------------------------------------------------------------


def test_decompose_repeats_agree(capsys, g6_file):
    code, obj = run_json(capsys, ["decompose", "--json", "--repeats", "3",
                                  "--input", g6_file("pet.g6", gen_named("petersen"))])
    assert code == 0
    f = obj["findings"]
    assert f["brick_numbers"] == [1, 1, 1] and f["agreement"] is True
    assert f["leaves"] == [{"kind": "brick", "n": 10}]
    assert f["seeds"] == [0, 1, 2]


def test_decompose_repeats_equal_fresh_decompositions(capsys, g6_file):
    # decompose frees its input's memo, so every repeat must start afresh
    code, obj = run_json(capsys, ["decompose", "--json", "--repeats", "3", "--seed", "5",
                                  "--input", g6_file("h2.g6", gen_h_n(2))])
    assert code == 0
    line = write_graph6(gen_h_n(2))
    trees = [decomp.decompose(parse_graph6(line), "exhaustive", 5 + k) for k in range(3)]
    f = obj["findings"]
    assert f["brick_numbers"] == [decomp.brick_number(t) for t in trees] == [4, 4, 4]
    assert f["tree"] == trees[0].to_json_obj()


def test_decompose_human(capsys, g6_file):
    code = main(["decompose", "--input", g6_file("c6.g6", gen_named("c6"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "brick number: 0 over 1 run(s), agreement=True" in out


def test_decompose_strategy_flag(capsys, g6_file):
    code, obj = run_json(capsys, ["decompose", "--json", "--strategy", "elp-first",
                                  "--input", g6_file("c6.g6", gen_named("c6"))])
    assert code == 0
    assert obj["findings"]["brick_number"] == 0


def test_decompose_elp_first_past_the_barrier_walk_cap(capsys, g6_file):
    # 22 and 26 vertices, past the 20-vertex cap that once stopped elp-first
    # here; the path of K_{4,4}s is bipartite with no 2-separation
    code, obj = run_json(capsys, ["decompose", "--json", "--strategy", "elp-first",
                                  "--input", g6_file("h5.g6", gen_h_n(5))])
    assert code == 0
    assert obj["findings"]["brick_number"] == 10
    code, obj = run_json(capsys, ["decompose", "--json", "--strategy", "elp-first",
                                  "--input", g6_file("k44.g6", k44_path(4))])
    assert code == 0
    assert obj["findings"]["brick_number"] == 0
    assert [leaf["kind"] for leaf in obj["findings"]["leaves"]] == ["brace"] * 4


def test_decompose_uncovered(capsys, tmp_path):
    path = tmp_path / "star.g6"
    path.write_text("CF\n")
    assert main(["decompose", "--input", str(path)]) == 3


# -- verify ----------------------------------------------------------------


def test_verify_tiny_builtin_corpus(capsys):
    code, obj = run_json(capsys, ["verify", "--json", "--max-n", "4"])
    assert code == 0
    f = obj["findings"]
    assert f["graphs"] == 3 and f["cuts"] == 0 and f["failures"] == []


@pytest.mark.parametrize("max_n", ["7", "2"])
def test_verify_rejects_odd_or_tiny_max_n(capsys, max_n):
    assert main(["verify", "--max-n", max_n]) == 2
    assert "even and >= 4" in capsys.readouterr().err


def test_verify_main_theorems_to_6(capsys):
    code, obj = run_json(capsys, ["verify", "--json", "--max-n", "6",
                                  "--theorems", "1.1,1.2,1.3,props"])
    assert code == 0
    f = obj["findings"]
    assert f["graphs"] == 27 and f["failures"] == []
    assert obj["input_digest"] == "75c0756ae193c08a"
    assert set(f["per_theorem"]) == {"1.1", "1.2", "1.3", "props"}


def test_theorem_1_1_past_the_barrier_enumeration_cap():
    # gen_h_n(5) has 22 vertices, past the 20-vertex barrier enumeration cap;
    # its maximal barriers are all singletons, so 2-separations carry 1.1
    out = _sweep_graph(write_graph6(gen_h_n(5)), ("1.1",))
    assert out["cuts"] == 54 and out["failures"] == []


def test_verify_past_a_size_cap_exits_6(capsys, g6_file):
    # theorem 1.2 enumerates barriers, which stops at 20 vertices; gen_h_n(5)
    # has 22 and comes after the built-in corpus up to 8 vertices
    path = g6_file("h5.g6", gen_h_n(5))
    code = main(["verify", "--max-n", "22", "--input", path, "--theorems", "1.2",
                 "--jobs", "1"])
    assert code == 6
    assert "capped at 20 vertices" in capsys.readouterr().err


def test_verify_reports_known_failures(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, obj = run_json(capsys, ["verify", "--json", "--max-n", "6",
                                  "--theorems", "3.3"])
    assert code == 5
    failures = obj["findings"]["failures"]
    assert len(failures) == 10  # every 6-vertex GS-cut has a singleton ELP set
    dumps = sorted(tmp_path.glob("counterexample-*.json"))
    assert len(dumps) == 10
    rec = json.loads(dumps[0].read_text())
    assert rec["theorem"] == "3.3" and "graph6" in rec and "shore" in rec


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "--theorems", "9.9"]) == 2
    assert "unknown theorem" in capsys.readouterr().err


def test_verify_large_corpus_needs_input(capsys):
    assert main(["verify", "--max-n", "10"]) == 2
    assert "need --input" in capsys.readouterr().err


def test_verify_empty_corpus_is_vacuous(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code = main(["verify", "--input", str(path), "--theorems", "1.3"])
    assert code == 0
    assert "vacuous" in capsys.readouterr().err
    # the JSON report lists each requested theorem with no failures
    code = main(["verify", "--json", "--input", str(path), "--theorems", "1.3,props"])
    out, err = capsys.readouterr()
    assert code == 0 and "vacuous" in err
    findings = json.loads(out)["findings"]
    assert findings["per_theorem"] == {"1.3": {"failures": 0}, "props": {"failures": 0}}
    assert (findings["graphs"], findings["cuts"], findings["failures"]) == (0, 0, [])


def test_verify_external_corpus_file(capsys, g6_file):
    path = g6_file("two.g6", gen_named("k4"), gen_named("c6"))
    code, obj = run_json(capsys, ["verify", "--json", "--input", path,
                                  "--theorems", "1.3"])
    assert code == 0
    assert obj["findings"]["graphs"] == 2 and obj["findings"]["cuts"] == 3


def test_verify_skips_graph6_header(capsys, tmp_path, g6_file):
    plain = g6_file("plain.g6", gen_named("k4"), gen_named("c6"))
    headed = tmp_path / "headed.g6"
    headed.write_text(">>graph6<<\n" + (tmp_path / "plain.g6").read_text())
    runs = [run_json(capsys, ["verify", "--json", "--theorems", "1.3", "--input", path])
            for path in (plain, str(headed))]
    assert [code for code, _ in runs] == [0, 0]
    (_, a), (_, b) = runs
    assert (a["input_digest"], a["findings"]) == (b["input_digest"], b["findings"])
    assert a["findings"]["graphs"] == 2


def test_verify_parallel_jobs(capsys):
    code, obj = run_json(capsys, ["verify", "--json", "--max-n", "4", "--jobs", "2"])
    assert code == 0
    assert obj["findings"]["graphs"] == 3


# -- stdin and the module entry point --------------------------------------


def test_stdin_route():
    g6 = write_graph6(gen_named("k4"))
    # the child imports the same package, however this process found it
    src = os.path.dirname(os.path.dirname(tightcuts.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "tightcuts.cli",
                           "analyze", "--input", "-"],
                          input=g6 + "\n", capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "matching_covered=True" in proc.stdout
