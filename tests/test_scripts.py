"""Smoke tests for the experiment scripts in scripts/."""

import dataclasses
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_regime_scan_passes():
    proc = run_script("bound_margin_scan.py", "--qs", "2,3", "--rmax", "3")
    assert proc.returncode == 0, proc.stderr
    assert "all cross-checks passed" in proc.stdout


def test_regime_scan_csv():
    proc = run_script("bound_margin_scan.py", "--qs", "2", "--rmax", "4",
                      "--csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "q,r,t,margin"
    assert "2,3,7,-2" in lines


def test_search_cases_agree():
    proc = run_script("search_small_cases.py", "--cases", "2,4,2 2,5,3 3,4,2")
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stderr and "DISAGREE" not in proc.stderr
    assert proc.stdout.count("EXACT") == 6
    lines = proc.stdout.splitlines()
    assert lines[0].split()[-1] == "prunes"
    assert [line.split()[1] for line in lines[1:]] == ["warm", "cold"] * 3
    # the warm starts close at the root: (2,4,2) and (3,4,2) by the point
    # count, (2,5,3) by the available count; the cold starts walk a tree
    prunes = [line.split()[-4:] for line in lines[1:]]
    assert prunes[::2] == [
        ["available=0", "points=1", "cover=0", "symmetry=0"],
        ["available=1", "points=0", "cover=0", "symmetry=0"],
        ["available=0", "points=1", "cover=0", "symmetry=0"],
    ]
    assert [int(line.split()[4]) for line in lines[2::2]] == [4, 1, 9]


@pytest.mark.parametrize("cold,fails", [
    ((5, "EXACT"), False),
    ((5, "BUDGET_EXHAUSTED"), False),
    ((4, "EXACT"), True),
    ((6, "BUDGET_EXHAUSTED"), True),
])
def test_search_cases_flag_warm_and_cold_disagreeing(monkeypatch, capsys, cold, fails):
    # the warm search proves 5 on (2,4,2); the cold one is faked
    script = load_script("search_small_cases")
    real = script.max_partial_spread

    def search(params, max_nodes=None, warm_start=True):
        res = real(params, max_nodes=max_nodes, warm_start=warm_start)
        if warm_start:
            return res
        return dataclasses.replace(res, best_size=cold[0], status=cold[1])

    monkeypatch.setattr(script, "max_partial_spread", search)
    assert script.main(["--cases", "2,4,2"]) == int(fails)
    assert ("DISAGREE" in capsys.readouterr().err) is fails


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]


def runs(run_s, rss, failed=0, correct=True):
    return [
        {"run_s": r, "peak_rss_mib": m, "correct": correct, "attempted": 10,
         "failed": failed}
        for r, m in zip(run_s, rss)
    ]


def test_bench_pairs_summary_gain_and_bounds():
    bench = load_script("bench_pairs")
    parent = runs([1.60, 1.62, 1.58, 1.65, 1.61, 1.63, 1.59, 1.64, 1.60, 1.62],
                  [90.0] * 10)
    # run_s faster in every pair but one; rss 10 % worse in the median
    change = runs([0.95, 0.97, 0.93, 1.70, 0.96, 0.94, 0.92, 0.98, 0.95, 0.96],
                  [99.0] * 5 + [99.1] * 5)
    out = bench.summarize(parent, change, METRICS)
    assert out["parent"]["median"] == {"run_s": 1.615, "peak_rss_mib": 90.0}
    assert out["change"]["median"]["run_s"] == 0.955
    # inclusive quartiles: positions 3.25 and 7.75 of the ten sorted runs
    assert out["parent"]["quartiles"]["run_s"] == [1.6, 1.6275]
    assert out["parent_iqr"]["run_s"] == 0.0275
    assert out["pairs_won_by_change"] == {"run_s": 9, "peak_rss_mib": 0}
    assert out["change_vs_parent_pct"]["run_s"] == -40.9
    assert out["verdict"]["run_s"] == {
        "gain": True, "within_bound": True, "unresolved": False,
    }
    assert out["verdict"]["peak_rss_mib"] == {
        "gain": False, "within_bound": False, "unresolved": False,
    }
    assert out["attempted"] == {"parent": 100, "change": 100}
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["change"]["runs"][3]["run_s"] == 1.70


def test_bench_pairs_gain_needs_pairs_and_gap():
    bench = load_script("bench_pairs")
    parent = runs([1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2], [50.0] * 10)
    # wins 8 of 10 pairs: not a gain, however large the gap
    change = runs([0.5] * 8 + [1.3, 1.3], [50.0] * 10)
    out = bench.summarize(parent, change, METRICS)
    assert out["pairs_won_by_change"]["run_s"] == 8
    assert out["verdict"]["run_s"]["gain"] is False
    # wins every pair, but the median gap (0.02) is inside the IQR (0.2)
    change = runs([0.99, 1.18] * 5, [50.0] * 10)
    out = bench.summarize(parent, change, METRICS)
    assert out["pairs_won_by_change"]["run_s"] == 10
    assert out["verdict"]["run_s"]["gain"] is False
    assert out["verdict"]["run_s"]["within_bound"] is True
    # a tie is no win, and a median no worse is within bound
    assert out["pairs_won_by_change"]["peak_rss_mib"] == 0
    assert out["verdict"]["peak_rss_mib"]["gain"] is False
    assert out["verdict"]["peak_rss_mib"]["within_bound"] is True


def test_bench_pairs_bound_is_a_fraction_of_the_parent():
    bench = load_script("bench_pairs")
    parent = runs([0.10] * 10, [50.0] * 10)
    # run_s 20 % worse is inside its 0.25 bound, 40 % worse is not
    out = bench.summarize(parent, runs([0.12] * 10, [50.0] * 10), METRICS)
    assert out["verdict"]["run_s"]["within_bound"] is True
    out = bench.summarize(parent, runs([0.14] * 10, [50.0] * 10), METRICS)
    assert out["verdict"]["run_s"]["within_bound"] is False


def test_bench_pairs_rejects_unpaired_runs():
    bench = load_script("bench_pairs")
    with pytest.raises(ValueError):
        bench.summarize(runs([1.0, 1.1], [1, 1]), runs([1.0], [1]), METRICS)


def test_bench_pairs_gain_needs_no_more_failures_and_correct_runs():
    bench = load_script("bench_pairs")
    parent = runs([1.0] * 10, [50.0] * 10)
    fast = [0.5] * 10
    assert bench.summarize(parent, runs(fast, [50.0] * 10), METRICS)[
        "verdict"]["run_s"]["gain"] is True
    # more failed operations cancel the gain
    out = bench.summarize(parent, runs(fast, [50.0] * 10, failed=1), METRICS)
    assert out["failed"] == {"parent": 0, "change": 10}
    assert out["verdict"]["run_s"]["gain"] is False
    # as many as the parent's do not
    out = bench.summarize(runs([1.0] * 10, [50.0] * 10, failed=1),
                          runs(fast, [50.0] * 10, failed=1), METRICS)
    assert out["verdict"]["run_s"]["gain"] is True
    # nor is a gain counted on runs whose output failed its checks
    out = bench.summarize(parent, runs(fast, [50.0] * 10, correct=False), METRICS)
    assert out["verdict"]["run_s"]["gain"] is False
    assert out["change"]["runs"][0]["correct"] is False


def test_bench_pairs_unresolved_when_the_parent_spreads_past_the_bound():
    bench = load_script("bench_pairs")
    # parent IQR 0.5 against a bound of 0.25 * median 1.0
    parent = runs([0.5, 1.5] * 5, [50.0] * 10)
    out = bench.summarize(parent, runs([1.0] * 10, [50.0] * 10), METRICS)
    assert out["parent_iqr"]["run_s"] == 1.0
    assert out["verdict"]["run_s"]["unresolved"] is True
    assert out["verdict"]["peak_rss_mib"]["unresolved"] is False
    # unless every change run beats every parent run
    out = bench.summarize(parent, runs([0.4] * 10, [50.0] * 10), METRICS)
    assert out["verdict"]["run_s"]["unresolved"] is False


def test_bench_pairs_commit_only_for_a_clean_work_tree(tmp_path):
    bench = load_script("bench_pairs")
    assert bench._commit(tmp_path) is None  # not a git work tree

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "f").write_text("a\n")
    git("add", "f")
    git("commit", "-q", "-m", "a")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                          capture_output=True, text=True).stdout.strip()
    assert bench._commit(tmp_path) == head
    (tmp_path / "f").write_text("b\n")
    assert bench._commit(tmp_path) is None


def test_bench_pairs_takes_workloads_and_run_length_from_the_benchmark(
        tmp_path, monkeypatch):
    bench = load_script("bench_pairs")
    spec = {
        "run_seconds": 7,
        "workloads": [{"name": "only"}],
        "end_to_end": METRICS,
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, seconds, trace))
        return runs([1.0], [50.0])[0]

    monkeypatch.setattr(bench, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                       "--out", str(out), "--seeds", "2"]) == 0
    assert calls == [("only", 7, 0)] * 4
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["only"]
    assert doc["parent_commit"] is None
    with pytest.raises(SystemExit):
        bench.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                    "--out", str(out), "--seconds", "5"])


def test_bench_pairs_layer_medians():
    bench = load_script("bench_pairs")
    traced = [
        {"gf.tables_s": 0.0264, "search.nodes": 7, "correct": True,
         "attempted": 3, "failed": 0},
        {"gf.tables_s": 0.0136, "search.nodes": 9, "correct": False,
         "attempted": 3, "failed": 1},
        {"gf.tables_s": 0.01401234, "search.nodes": 8, "correct": True,
         "attempted": 3, "failed": 0},
    ]
    # one slow run moves no median; counts stay integers
    assert bench.layer_medians(traced) == {"gf.tables_s": 0.014, "search.nodes": 8}


def test_bench_pairs_traces_three_alternating_pairs(tmp_path, monkeypatch):
    bench = load_script("bench_pairs")
    spec = {"run_seconds": 7, "workloads": [{"name": "only"}], "end_to_end": METRICS}
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        return {**runs([1.0], [50.0])[0], "layer_s": seed / 10}

    monkeypatch.setattr(bench, "_run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out), "--seeds", "2", "--trace", "only"]) == 0
    assert [c for c in calls if c[2]] == [
        ("parent", 1, 1), ("change", 1, 1), ("change", 2, 1),
        ("parent", 2, 1), ("parent", 3, 1), ("change", 3, 1),
    ]
    traced = json.loads(out.read_text())["trace_only"]
    assert traced["seeds"] == [1, 2, 3]
    assert traced["parent"]["layer_s"] == traced["change"]["layer_s"] == 0.2


def test_bench_pairs_run_keeps_values_and_correctness(tmp_path):
    bench = load_script("bench_pairs")
    doc = {"correct": False, "attempted": 3, "failed": 1,
           "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print('warm-up')\nprint({json.dumps(json.dumps(doc))})\n"
    )
    assert bench._run(tmp_path, "only", 1, 7, trace=0) == {
        "run_s": 0.5, "correct": False, "attempted": 3, "failed": 1,
    }


def test_bench_pairs_records_the_environment_the_runs_inherit(monkeypatch):
    # setup_s and peak_rss_mib depend on both variables
    bench = load_script("bench_pairs")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONMALLOC", raising=False)
    machine = bench._machine()
    assert machine["PYTHONDONTWRITEBYTECODE"] == "1"
    assert machine["PYTHONMALLOC"] is None
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    monkeypatch.setenv("PYTHONMALLOC", "malloc")
    machine = bench._machine()
    assert machine["PYTHONDONTWRITEBYTECODE"] is None
    assert machine["PYTHONMALLOC"] == "malloc"
    assert json.loads(json.dumps(machine)) == machine
