"""CLI contract tests: exit codes, formats, schema-valid JSON, pipelines."""

import csv
import io
import json
import os
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


def test_verify_past_the_budget_exits_two():
    # two 22-dimensional members list 2 (2^22 - 1) points, over 2^22
    rc, out, err = go(["verify"], inp=_two_member_doc(44, 22))
    assert (rc, out) == (2, "")
    assert "budget" in err


def test_construct_past_the_budget_exits_two():
    # 1,198,369 planes of V(23, 2) list 8,388,583 points; refused unbuilt
    t0 = time.monotonic()
    rc, out, err = go(["construct", "--q", "2", "--n", "23", "--t", "3"])
    assert time.monotonic() - t0 < 5
    assert (rc, out) == (2, "")
    assert "point budget" in err


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


def test_certify_undecided_prime_power_exits_one():
    _, cert_json, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    doc = json.loads(cert_json)
    doc["q"] = 2 ** 89 - 1
    rc, out, _ = go(["certify", "--check", "-"], inp=json.dumps(doc))
    assert (rc, json.loads(out)) == (1, {"ok": False, "mismatch": "params"})


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.update(steps=None), "steps must be an array, got null"),
        (lambda d: d.update(steps=[1]), "steps[0] must be an object, got an integer"),
        (lambda d: d.update(final=None), "final must be an object, got null"),
        (lambda d: d["steps"][0].update(extra=1),
         "steps[0] has unexpected key 'extra'"),
        (lambda d: d.update(x=None), "x must be an integer, got null"),
        (lambda d: d["steps"][1].pop("cap"), "steps[1] is missing key 'cap'"),
        (lambda d: d.pop("n_1"), "certificate is missing key 'n_1'"),
        (lambda d: d.update(extra=1), "certificate has unexpected key 'extra'"),
        (lambda d: d.update(q=True), "q must be an integer, got a boolean"),
        (lambda d: d.update(x=2.0), "x must be an integer, got a number"),
        (lambda d: d["final"].update(heden_case=4),
         "final.heden_case must be a string, got an integer"),
        (lambda d: d["final"].update(heden_satisfied=0),
         "final.heden_satisfied must be a boolean, got an integer"),
    ],
    ids=["steps-null", "step-int", "final-null", "step-extra-key", "x-null",
         "step-no-cap", "no-n_1", "extra-key", "q-bool", "x-float",
         "heden-case-int", "heden-satisfied-int"],
)
def test_malformed_certificate_prints_a_sentence(edit, message):
    # the schema's keys and types, checked before any field is replayed: an
    # extra key, "x": 2.0 or "heden_satisfied": 0 would otherwise replay ok
    _, cert_json, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    doc = json.loads(cert_json)
    edit(doc)
    rc, out, err = go(["certify", "--check", "-"], inp=json.dumps(doc))
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    for internal in ("__init__()", "argument after **", "NoneType"):
        assert internal not in err


@pytest.mark.parametrize(
    "given", [["--q", "3", "--n", "10", "--t", "4"], ["--x", "2"]], ids=["qnt", "x"]
)
def test_certify_check_refuses_parameters(given):
    # the certificate carries its own (q, n, t, x); others given next to it
    # would be ignored, so a (2,8,3) certificate would check ok under (3,10,4)
    _, cert_json, _ = go(["certify", "--q", "2", "--n", "8", "--t", "3"])
    rc, out, err = go(["certify", *given, "--check", "-"], inp=cert_json)
    assert (rc, out) == (2, "")
    assert err == (
        "error: argument --check: not allowed with --q, --n, --t or --x; "
        "the certificate gives its own parameters\n"
    )


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


def test_search_greedy_negative_seed():
    # -s draws the order of s
    rc, out, _ = go(["search", "--q", "2", "--n", "6", "--t", "3",
                     "--greedy", "--seed", "-3"])
    assert rc == 0
    _, want, _ = go(["search", "--q", "2", "--n", "6", "--t", "3",
                     "--greedy", "--seed", "3"])
    assert json.loads(out)["witness"] == json.loads(want)["witness"]


def test_search_greedy_refuses_a_budget():
    rc, out, err = go(["search", "--q", "2", "--n", "5", "--t", "2",
                       "--greedy", "--budget", "5"])
    assert rc == 2
    assert out == ""
    assert "--budget" in err and "--greedy" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_budget_below_one_exits_two(budget):
    rc, out, err = go(["search", "--q", "2", "--n", "5", "--t", "2",
                       "--budget", budget])
    assert rc == 2
    assert out == ""
    assert "node budget must be at least 1" in err


def test_search_budget_one_is_valid():
    rc, out, _ = go(["search", "--q", "2", "--n", "5", "--t", "2",
                     "--budget", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "BUDGET_EXHAUSTED"
    assert doc["nodes_explored"] == 1


def test_nonprime_q_exits_two():
    rc, _, err = go(["bounds", "--q", "6", "--n", "8", "--t", "3"])
    assert rc == 2
    assert "prime power" in err


@pytest.mark.parametrize("q", [2 ** 61 - 1, 2 ** 61, (2 ** 31 - 1) ** 2])
def test_bounds_on_a_large_prime_power_is_fast(q):
    start = time.perf_counter()
    rc, out, _ = go(["bounds", "--q", str(q), "--n", "3", "--t", "2"])
    assert time.perf_counter() - start < 2
    assert rc == 0
    assert f"mu_{q}(3, 2) = 1 [TRIVIAL_OVERLAP]" in out


def test_bounds_with_n_below_2t_is_fast():
    # lower_bound returns 1 for n < 2t without computing q^n
    start = time.perf_counter()
    rc, out, _ = go(["bounds", "--q", "3", "--n", "3000000", "--t", "2999999"])
    assert time.perf_counter() - start < 2
    assert rc == 0
    assert out == (
        "mu_3(3000000, 2999999) = 1 [TRIVIAL_OVERLAP]\n"
        "  sources: TRIVIAL_OVERLAP=1 BHP_EXACT=1 NS_EXACT=1\n"
    )


def test_bounds_below_2t_print_only_the_exactness_rows():
    # Drake-Freeman would have about 12,883 digits here, q^r for r = 27,000
    start = time.perf_counter()
    rc, out, err = go(["bounds", "--q", "3", "--n", "60000", "--t", "33000"])
    assert time.perf_counter() - start < 2
    assert (rc, err) == (0, "")
    assert out == "mu_3(60000, 33000) = 1 [TRIVIAL_OVERLAP]\n  sources: TRIVIAL_OVERLAP=1\n"


def test_large_non_prime_power_exits_two():
    rc, _, err = go(["bounds", "--q", str(3 * 2 ** 61), "--n", "3", "--t", "2"])
    assert rc == 2
    assert "prime power" in err


def test_prime_past_the_primality_range_exits_two():
    rc, out, err = go(["bounds", "--q", str(2 ** 89 - 1), "--n", "3", "--t", "2"])
    assert rc == 2
    assert out == ""
    assert "primality" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--q", "2", "--n", "100000", "--t", "2"],
        ["bounds", "--q", "2", "--n", "100000", "--t", "2", "--format", "csv"],
        ["table", "--q", "2", "--n", "99999..100000", "--t", "2", "--format", "json"],
        ["certify", "--q", "2", "--n", "100001", "--t", "3"],
    ],
)
def test_output_past_the_integer_print_limit_exits_two(argv):
    rc, out, err = go(argv)
    assert rc == 2
    assert out == ""
    assert "output too large" in err and "30103 decimal digits" in err
    assert "malformed" not in err


def test_table_stops_at_the_first_cell_too_large_to_print():
    # 2 * 10^6 cells; at q = 2, t = 1 the bounds pass the limit near
    # n = 14,300, and no later cell is computed
    start = time.monotonic()
    rc, out, err = go(["table", "--q", "2..3", "--n", "1..1000000", "--t", "1"])
    assert time.monotonic() - start < 10
    assert (rc, out) == (2, "")
    assert err.startswith("error: output too large: it holds an integer of about")


@pytest.mark.parametrize("entry", [1.5, 1.0, True, "1"])
def test_non_integer_entry_exits_two(entry):
    doc = json.loads(go(["construct", "--q", "2", "--n", "4", "--t", "2"])[1])
    doc["members"][2]["rows"][1][3] = entry
    for command in ("verify", "analyze"):
        rc, out, err = go([command], inp=json.dumps(doc))
        assert rc == 2
        assert out == ""
        assert "is not an element of GF(2)" in err
        assert "malformed" not in err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda m: m["rows"].__setitem__(1, "0101"), "row 1 must be a list, got str"),
        (lambda m: m["rows"].__setitem__(0, 5), "row 0 must be a list, got int"),
        (lambda m: m.__setitem__("rows", None), "rows must be a list, got NoneType"),
        (lambda m: m.__setitem__("rows", "0101"), "rows must be a list, got str"),
    ],
)
def test_rows_that_are_no_list_exit_two(edit, message):
    doc = json.loads(go(["construct", "--q", "2", "--n", "4", "--t", "2"])[1])
    edit(doc["members"][2])
    for command in ("verify", "analyze"):
        rc, out, err = go([command], inp=json.dumps(doc))
        assert (rc, out, err) == (2, "", f"error: member 2: {message}\n")


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda m: m.__setitem__("q", 3), "member 2 over GF(3), spread has q = 2"),
        (
            lambda m: (m.__setitem__("n", 5), [r.append(0) for r in m["rows"]]),
            "member 2 in ambient 5, spread has n = 4",
        ),
    ],
)
def test_member_outside_the_space_exits_two(edit, message):
    doc = json.loads(go(["construct", "--q", "2", "--n", "4", "--t", "2"])[1])
    edit(doc["members"][2])
    for command in ("verify", "analyze"):
        rc, out, err = go([command], inp=json.dumps(doc))
        assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "fields,got",
    [
        ({"q": 2.5}, "2.5, 4, 2"),
        ({"dim": True}, "2, 4, True"),
        ({"n": "4"}, "2, '4', 2"),
        ({"n": -4, "rows": []}, "2, -4, 2"),
    ],
)
def test_member_declaring_bad_parameters_exits_two(fields, got):
    doc = json.loads(go(["construct", "--q", "2", "--n", "4", "--t", "2"])[1])
    doc["members"][2].update(fields)
    message = f"q, n, dim must be integers with q >= 2, n >= 1, dim >= 0, got {got}"
    for command in ("verify", "analyze"):
        rc, out, err = go([command], inp=json.dumps(doc))
        assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_malformed_json_exits_two():
    rc, _, err = go(["verify"], inp="{oops")
    assert rc == 2
    assert "cannot read JSON" in err


def test_missing_key_exits_two():
    rc, _, err = go(["verify"], inp=json.dumps({"q": 2, "n": 6}))
    assert rc == 2
    assert "malformed" in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"q": 2, "n": 4, "t": 2}, "missing key 'members'"),
        ({"q": 2, "n": 4, "t": 2, "members": [{"q": 2, "n": 4, "dim": 2}]},
         "missing key 'rows'"),
    ],
)
def test_malformed_document_prints_a_sentence(doc, message):
    rc, out, err = go(["verify"], inp=json.dumps(doc))
    assert (rc, out, err) == (2, "", f"error: malformed input: {message}\n")
    assert "Error(" not in err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda members: 5, "members must be a list, got int"),
        (lambda members: None, "members must be a list, got NoneType"),
        (lambda members: {"a": 1}, "members must be a list, got dict"),
        (lambda members: [1], "member 0 must be an object, got int"),
        (lambda members: members[:2] + [None] + members[2:],
         "member 2 must be an object, got NoneType"),
    ],
)
def test_members_that_are_no_list_of_objects_exit_two(edit, message):
    doc = json.loads(go(["construct", "--q", "2", "--n", "4", "--t", "2"])[1])
    doc["members"] = edit(doc["members"])
    for command in ("verify", "analyze"):
        rc, out, err = go([command], inp=json.dumps(doc))
        assert (rc, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "argv,rc,text",
    [
        (["bounds", "--q", "2", "--n", "8", "--t", "3"], 0, "mu_2(8, 3) = 34 [EJSSS_EXACT]\n"),
        (["frobnicate"], 2, ""),
    ],
)
def test_python_m_spreadlab_runs_from_the_source_tree(argv, rc, text):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "spreadlab", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == rc, proc.stderr
    assert proc.stdout.startswith(text)


def test_console_entry_point():
    # main() reads sys.argv[1:], so shift args in via -c argv
    cmd = [sys.executable, "-c",
           "import sys; sys.argv = ['spreadlab'] + sys.argv[1:]; "
           "from spreadlab.cli import main; main()",
           "bounds", "--q", "2", "--n", "8", "--t", "3"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "34" in proc.stdout
