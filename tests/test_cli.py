"""CLI contract tests: exit codes, formats, schema-valid JSON, pipelines."""

import csv
import io
import json
import pathlib
import subprocess
import sys
import time

import jsonschema
import pytest
from referencing import Registry, Resource

from spreadlab.cli import run

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def go(argv, inp=""):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, stdin=io.StringIO(inp), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def validator():
    registry = Registry()
    schemas = {}
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(path.read_text())
        registry = registry.with_resource(doc["$id"], Resource.from_contents(doc))
        schemas[path.name.replace(".schema.json", "")] = doc

    def check(name, instance):
        jsonschema.Draft202012Validator(
            schemas[name], registry=registry
        ).validate(instance)

    return check


def test_schema_files_present():
    names = sorted(p.name for p in SCHEMA_DIR.glob("*.schema.json"))
    assert names == [
        "analysis.schema.json",
        "bound_report.schema.json",
        "certificate.schema.json",
        "search_result.schema.json",
        "spread.schema.json",
        "verify_result.schema.json",
    ]


def test_bounds_text():
    rc, out, _ = go(["bounds", "--q", "2", "--n", "8", "--t", "3"])
    assert rc == 0
    assert "mu_2(8, 3) = 34 [EJSSS_EXACT]" in out
    assert "DRAKE_FREEMAN=34" in out


def test_bounds_text_open_interval():
    rc, out, _ = go(["bounds", "--q", "3", "--n", "8", "--t", "3"])
    assert rc == 0
    assert "mu_3(8, 3) in [244, 248]" in out


def test_bounds_json_schema(validator):
    rc, out, _ = go(["bounds", "--q", "2", "--n", "8", "--t", "3",
                     "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    validator("bound_report", doc)
    assert doc["exact"] == {"value": 34, "source": "EJSSS_EXACT"}


def test_bounds_csv():
    rc, out, _ = go(["bounds", "--q", "2", "--n", "8", "--t", "3",
                     "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["lower"] == "34"
    assert rows[0]["exact_source"] == "EJSSS_EXACT"


def test_table_range_values():
    rc, out, _ = go(["table", "--q", "2", "--n", "6..10", "--t", "3",
                     "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["best_upper"]) for r in rows] == [9, 17, 34, 73, 145]
    assert all(r["exact_value"] == r["best_upper"] for r in rows)


def test_table_skips_undefined_cells():
    # n = 2..3 do not satisfy n > t and must be dropped, not fatal
    rc, out, _ = go(["table", "--q", "2", "--n", "2..8", "--t", "3",
                     "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [4, 5, 6, 7, 8]


def test_table_skips_nonprime_q():
    rc, out, _ = go(["table", "--q", "2..6", "--n", "8", "--t", "3",
                     "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["q"]) for r in rows] == [2, 3, 4, 5]


def test_table_json_items_validate(validator):
    rc, out, _ = go(["table", "--q", "2..3", "--n", "8", "--t", "3",
                     "--format", "json"])
    assert rc == 0
    docs = json.loads(out)
    assert [d["q"] for d in docs] == [2, 3]
    for doc in docs:
        validator("bound_report", doc)


def test_construct_verify_analyze_pipeline(validator):
    rc, spread_json, _ = go(["construct", "--q", "2", "--n", "7", "--t", "3"])
    assert rc == 0
    doc = json.loads(spread_json)
    validator("spread", doc)
    assert len(doc["members"]) == 17

    rc, ver_json, _ = go(["verify"], inp=spread_json)
    assert rc == 0
    ver = json.loads(ver_json)
    validator("verify_result", ver)
    assert ver == {"ok": True, "clash": None, "reason": ""}

    rc, ana_json, _ = go(["analyze", "--hyperplanes"], inp=spread_json)
    assert rc == 0
    ana = json.loads(ana_json)
    validator("analysis", ana)
    assert ana["dim_counts"] == {"3": 17, "1": 8}
    assert ana["profile"]["dims"] == [3, 1]
    assert sum(row["hyperplanes"] for row in ana["profile"]["s_b"]) == 127


def test_analyze_without_profile_flag():
    rc, spread_json, _ = go(["construct", "--q", "2", "--n", "6", "--t", "3"])
    rc, ana_json, _ = go(["analyze"], inp=spread_json)
    assert rc == 0
    assert json.loads(ana_json)["profile"] is None


def test_verify_overlap_exits_one(validator):
    rc, spread_json, _ = go(["construct", "--q", "2", "--n", "6", "--t", "3"])
    doc = json.loads(spread_json)
    doc["members"].append(doc["members"][0])
    rc, ver_json, _ = go(["verify"], inp=json.dumps(doc))
    assert rc == 1
    ver = json.loads(ver_json)
    validator("verify_result", ver)
    assert ver["clash"] == [0, 9]


def test_analyze_overlap_exits_one(validator):
    rc, spread_json, _ = go(["construct", "--q", "2", "--n", "6", "--t", "3"])
    doc = json.loads(spread_json)
    doc["members"].append(doc["members"][3])
    rc, ana_json, _ = go(["analyze"], inp=json.dumps(doc))
    assert rc == 1
    ana = json.loads(ana_json)
    validator("analysis", ana)
    assert ana["verified"] is False


def _two_member_doc(n, t):
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    members = [
        {"q": 2, "n": n, "dim": t, "rows": eye[:t]},
        {"q": 2, "n": n, "dim": t, "rows": eye[t:2 * t]},
    ]
    return json.dumps({"q": 2, "n": n, "t": t, "members": members})


def test_verify_large_ambient_is_fast(validator):
    t0 = time.monotonic()
    rc, ver_json, _ = go(["verify"], inp=_two_member_doc(40, 20))
    assert time.monotonic() - t0 < 10
    assert rc == 0
    ver = json.loads(ver_json)
    validator("verify_result", ver)
    assert ver["ok"] is True


def test_analyze_large_ambient_exits_two():
    # filling the holes would list all 2^40 - 1 points of V(40, 2)
    t0 = time.monotonic()
    rc, out, err = go(["analyze"], inp=_two_member_doc(40, 20))
    assert time.monotonic() - t0 < 10
    assert rc == 2
    assert out == ""
    assert "budget" in err


def test_certify_emit_golden(validator):
    rc, out, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    assert rc == 0
    doc = json.loads(out)
    validator("certificate", doc)
    assert doc["claimed_bound"] == 34
    assert doc["final"]["heden_satisfied"] is False


def test_certify_check_roundtrip():
    _, cert_json, _ = go(["certify", "--q", "3", "--n", "10", "--t", "4"])
    rc, out, _ = go(["certify", "--check", "-"], inp=cert_json)
    assert rc == 0
    assert json.loads(out) == {"ok": True, "mismatch": None}


def test_certify_tampered_exits_one():
    _, cert_json, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    doc = json.loads(cert_json)
    doc["final"]["delta2"] = 3
    rc, out, _ = go(["certify", "--check", "-"], inp=json.dumps(doc))
    assert rc == 1
    assert json.loads(out) == {"ok": False, "mismatch": "final.delta2"}


def test_certify_tampered_bound_exits_one():
    _, cert_json, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    doc = json.loads(cert_json)
    doc["claimed_bound"] = 35
    doc["n_t"] = 36
    rc, out, _ = go(["certify", "--check", "-"], inp=json.dumps(doc))
    assert rc == 1
    assert json.loads(out)["mismatch"] == "claimed_bound"


def test_certify_out_of_regime_exits_two():
    rc, out, err = go(["certify", "--q", "2", "--n", "7", "--t", "3"])
    assert rc == 2
    assert out == ""
    assert "r" in err


def test_certify_needs_params_or_check():
    rc, _, err = go(["certify"])
    assert rc == 2
    assert "--check" in err


def test_search_exact(validator):
    rc, out, _ = go(["search", "--q", "2", "--n", "4", "--t", "2"])
    assert rc == 0
    doc = json.loads(out)
    validator("search_result", doc)
    assert doc["best_size"] == 5
    assert doc["status"] == "EXACT"


def test_search_budget_exhausted(validator):
    rc, out, _ = go(["search", "--q", "2", "--n", "5", "--t", "2",
                     "--budget", "1000"])
    assert rc == 0
    doc = json.loads(out)
    validator("search_result", doc)
    assert doc["status"] == "BUDGET_EXHAUSTED"
    assert doc["nodes_explored"] == 1000
    assert doc["best_size"] >= 9  # warm start already optimal here


def test_search_greedy(validator):
    rc, out, _ = go(["search", "--q", "2", "--n", "6", "--t", "3",
                     "--greedy", "--seed", "3"])
    assert rc == 0
    doc = json.loads(out)
    validator("search_result", doc)
    assert doc["status"] == "LOWER_WITNESS_ONLY"
    assert doc["nodes_explored"] == 0
    assert doc["best_size"] == len(doc["witness"]["members"])


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = go(["bounds", "--q", "2", "--n", "8", "--t", "3",
                     "--format", "json", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["lower"] == 34


def test_verify_reads_file(tmp_path):
    _, spread_json, _ = go(["construct", "--q", "2", "--n", "6", "--t", "3"])
    src = tmp_path / "spread.json"
    src.write_text(spread_json)
    rc, out, _ = go(["verify", str(src)])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_tower_cap_exits_two():
    # the construction's first tower is GF(2^42), above the field-order cap
    rc, _, err = go(["construct", "--q", "2", "--n", "44", "--t", "2"])
    assert rc == 2
    assert "cap" in err


def test_search_adjacency_cap_exits_two():
    rc, out, err = go(["search", "--q", "2", "--n", "8", "--t", "3",
                       "--budget", "10"])
    assert rc == 2
    assert out == ""
    assert "adjacency" in err


def test_nonprime_q_exits_two():
    rc, _, err = go(["bounds", "--q", "6", "--n", "8", "--t", "3"])
    assert rc == 2
    assert "prime power" in err


def test_malformed_json_exits_two():
    rc, _, err = go(["verify"], inp="{oops")
    assert rc == 2
    assert "cannot read JSON" in err


def test_missing_key_exits_two():
    rc, _, err = go(["verify"], inp=json.dumps({"q": 2, "n": 6}))
    assert rc == 2
    assert "malformed" in err


def test_missing_file_exits_two(tmp_path):
    rc, _, err = go(["verify", str(tmp_path / "absent.json")])
    assert rc == 2


def test_empty_range_exits_two():
    rc, _, err = go(["table", "--q", "2", "--n", "9..6", "--t", "3"])
    assert rc == 2
    assert "empty range" in err


def test_unknown_command_exits_two():
    rc, _, err = go(["frobnicate"])
    assert rc == 2


def test_missing_required_flag_exits_two():
    rc, _, err = go(["bounds", "--q", "2", "--n", "8"])
    assert rc == 2


def test_console_entry_point():
    # main() reads sys.argv[1:], so shift args in via -c argv
    cmd = [sys.executable, "-c",
           "import sys; sys.argv = ['spreadlab'] + sys.argv[1:]; "
           "from spreadlab.cli import main; main()",
           "bounds", "--q", "2", "--n", "8", "--t", "3"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "34" in proc.stdout
