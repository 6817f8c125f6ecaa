"""Tests of the benchmark itself: each output check accepts real output and
rejects tampered output.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spreadlab as sl  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CASES = [(2, 7, 3), (3, 5, 2), (4, 5, 2), (2, 8, 4)]


def _pipeline(q, n, t):
    spread = sl.build_lower_bound_spread(sl.SpreadParams(q, n, t))
    part = sl.partition_from_spread(spread)
    profile = json.loads(json.dumps(sl.hyperplane_profile(part).to_dict()))
    blocks = [[list(r) for r in p.rows] for p in part.parts]
    return spread.to_dict(), blocks, profile


@pytest.mark.parametrize("q,n,t", CASES)
def test_real_pipeline_output_passes(q, n, t):
    doc, blocks, profile = _pipeline(q, n, t)
    assert checks.check_spread_doc(doc, q, n, t) == []
    assert checks.check_partition(q, n, t, len(doc["members"]), blocks) == []
    assert checks.check_profile(profile, q, n, t, len(doc["members"])) == []


@pytest.mark.parametrize("q,n,t", CASES)
def test_overlapping_member_is_rejected(q, n, t):
    doc, _, _ = _pipeline(q, n, t)
    bad = copy.deepcopy(doc)
    bad["members"][1]["rows"][0] = list(doc["members"][0]["rows"][0])
    assert checks.check_spread_doc(bad, q, n, t)


def test_rank_deficient_member_is_rejected():
    doc, _, _ = _pipeline(2, 7, 3)
    bad = copy.deepcopy(doc)
    rows = bad["members"][0]["rows"]
    rows[1] = list(rows[0])
    assert checks.check_spread_doc(bad, 2, 7, 3)


def test_missing_member_is_rejected():
    doc, _, _ = _pipeline(2, 7, 3)
    bad = copy.deepcopy(doc)
    bad["members"].pop()
    assert checks.check_spread_doc(bad, 2, 7, 3)


def test_partition_with_a_hole_left_out_is_rejected():
    doc, blocks, _ = _pipeline(2, 7, 3)
    assert checks.check_partition(2, 7, 3, len(doc["members"]), blocks[:-1])


@pytest.mark.parametrize("q,n,t", CASES)
def test_each_altered_b_vector_entry_is_rejected(q, n, t):
    doc, _, profile = _pipeline(q, n, t)
    size = len(doc["members"])
    for e in range(len(profile["s_b"])):
        for k in range(len(profile["dims"])):
            for delta in (-1, 1):
                bad = copy.deepcopy(profile)
                bad["s_b"][e]["b"][k] += delta
                assert checks.check_profile(bad, q, n, t, size), (e, k, delta)


def test_altered_hyperplane_count_is_rejected():
    doc, _, profile = _pipeline(2, 7, 3)
    bad = copy.deepcopy(profile)
    bad["s_b"][0]["hyperplanes"] += 1
    assert checks.check_profile(bad, 2, 7, 3, len(doc["members"]))


def _search(q, n, t):
    res = sl.max_partial_spread(sl.SpreadParams(q, n, t))
    witness = [[list(r) for r in s.rows] for s in res.witness.members]
    return res.status, res.best_size, witness


@pytest.mark.parametrize("q,n,t", [(2, 4, 2), (2, 5, 3), (2, 6, 3)])
def test_exact_search_output_passes(q, n, t):
    assert checks.check_exact(q, n, t, *_search(q, n, t)) == []


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_best_size_is_rejected(delta):
    status, best, witness = _search(2, 4, 2)
    assert checks.check_exact(2, 4, 2, status, best + delta, witness)


@pytest.mark.parametrize("status", ["BUDGET_EXHAUSTED", "LOWER_WITNESS_ONLY"])
def test_non_exact_status_is_rejected(status):
    _, best, witness = _search(2, 4, 2)
    assert checks.check_exact(2, 4, 2, status, best, witness)


def test_overlapping_witness_is_rejected():
    status, best, witness = _search(2, 4, 2)
    witness[1] = [list(witness[0][0]), list(witness[1][1])]
    assert checks.check_exact(2, 4, 2, status, best, witness)


def _budgeted(warm, budget=2000):
    res = sl.max_partial_spread(
        sl.SpreadParams(2, 5, 2), max_nodes=budget, warm_start=warm
    )
    witness = [[list(r) for r in s.rows] for s in res.witness.members]
    return budget, res.status, res.nodes_explored, res.best_size, witness


@pytest.mark.parametrize("warm", [True, False])
def test_budgeted_search_output_passes(warm):
    budget, status, nodes, best, witness = _budgeted(warm)
    assert status == "BUDGET_EXHAUSTED"
    assert checks.check_budgeted(2, 5, 2, budget, status, nodes, best, witness) == []


def test_search_that_ends_within_its_budget_passes():
    res = sl.max_partial_spread(sl.SpreadParams(2, 4, 2), max_nodes=1000)
    witness = [[list(r) for r in s.rows] for s in res.witness.members]
    assert checks.check_budgeted(
        2, 4, 2, 1000, res.status, res.nodes_explored, res.best_size, witness
    ) == []


@pytest.mark.parametrize("field,value", [
    ("status", "LOWER_WITNESS_ONLY"), ("nodes", 1999), ("nodes", 2001),
])
def test_tampered_budgeted_search_is_rejected(field, value):
    budget, status, nodes, best, witness = _budgeted(True)
    got = {"status": status, "nodes": nodes} | {field: value}
    assert checks.check_budgeted(
        2, 5, 2, budget, got["status"], got["nodes"], best, witness
    )


def test_budgeted_search_beating_the_theorem_is_rejected():
    budget, status, nodes, best, witness = _budgeted(True)
    witness.append(witness[0])
    errors = checks.check_budgeted(2, 5, 2, budget, status, nodes, best + 1, witness)
    assert any("beats the theorem" in e for e in errors)


def test_exact_status_past_the_budget_is_rejected():
    res = sl.max_partial_spread(sl.SpreadParams(2, 4, 2), warm_start=False)
    witness = [[list(r) for r in s.rows] for s in res.witness.members]
    assert res.nodes_explored > 1
    assert checks.check_budgeted(
        2, 4, 2, 1, res.status, res.nodes_explored, res.best_size, witness
    )


def test_overlapping_greedy_witness_is_rejected():
    spread = sl.greedy_spread(sl.SpreadParams(2, 6, 3), seed=7)
    witness = [[list(r) for r in s.rows] for s in spread.members]
    assert checks.check_witness(2, 6, 3, len(witness), witness) == []
    witness.append(witness[0])
    assert checks.check_witness(2, 6, 3, len(witness), witness)


def test_gf4_tables_follow_the_documented_modulus():
    add, mul = checks.field_tables(4)
    assert mul[2, 2] == 3  # x * x = x + 1
    for a in range(4):
        assert (add[a] == [a ^ b for b in range(4)]).all()
        if a:
            assert sorted(mul[a]) == [0, 1, 2, 3]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
                assert mul[a, mul[b, c]] == mul[mul[a, b], c]


def test_counting_formulas():
    assert checks.gaussian_binomial(8, 3, 2) == 97155
    assert checks.gaussian_binomial(4, 2, 3) == 130
    assert checks.packing_value(2, 8, 3) == 33
    exact = {(2, 4, 2): 5, (2, 5, 2): 9, (2, 5, 3): 1, (2, 6, 3): 9,
             (3, 4, 2): 10, (2, 6, 2): 21}
    for (q, n, t), value in exact.items():
        assert checks.exact_value(q, n, t) == value


@pytest.mark.parametrize("q,n,t", CASES)
def test_rebased_document_holds_the_same_spread(q, n, t):
    doc, _, _ = _pipeline(q, n, t)
    moved = checks.rebase_spread_doc(doc, random.Random(5))
    assert moved != doc
    assert checks.check_spread_doc(moved, q, n, t) == []
    same = {s.rows for s in sl.spread_from_dict(doc).members}
    assert {s.rows for s in sl.spread_from_dict(moved).members} == same


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
