import ast
import copy
import json
import io
import pathlib
import random
import time

import jsonschema
import pytest

from spreadlab import bounds, check, partition as pt
from spreadlab.bounds import theta
from spreadlab.check import check_certificate
from spreadlab.cli import run
from spreadlab.errors import HypothesisViolatedError, InvalidParamsError


def go(argv, inp=""):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, stdin=io.StringIO(inp), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


class TestGolden283:
    def cert(self):
        return pt.descent_certificate(2, 8, 3, 2)

    def test_scalars(self):
        c = self.cert()
        assert (c["r"], c["x"], c["h"], c["ell"]) == (2, 2, 2, 4)
        assert (c["claimed_bound"], c["n_t"], c["n_1"]) == (34, 35, 10)

    def test_steps(self):
        c = self.cert()
        assert c["steps"] == [
            {"j": 0, "i": 3, "delta": 2, "cap": 1, "n1_residue": 2, "next_delta": 2},
            {"j": 1, "i": 2, "delta": 2, "cap": 0, "n1_residue": 2, "next_delta": 0},
        ]

    def test_final(self):
        f = self.cert()["final"]
        assert f["delta2"] == 2
        assert f["delta2_max"] == 2
        assert f["required_dim2"] == 4
        assert f["required_dim_ge3_min"] == 7
        assert f["heden_case"] == "iv"
        assert f["heden_satisfied"] is False

    def test_default_x_matches(self):
        assert pt.descent_certificate(2, 8, 3) == self.cert()

    def test_checks_out(self):
        res = check_certificate(self.cert())
        assert res.ok and res.mismatch is None


class TestGolden3104:
    def cert(self):
        return pt.descent_certificate(3, 10, 4)

    def test_scalars(self):
        c = self.cert()
        assert (c["x"], c["h"], c["ell"]) == (3, 2, 9)
        assert (c["claimed_bound"], c["n_t"], c["n_1"]) == (732, 733, 204)

    def test_steps(self):
        steps = self.cert()["steps"]
        assert [(s["i"], s["delta"], s["cap"]) for s in steps] == [
            (4, 42, 2),
            (3, 15, 1),
            (2, 6, 0),
        ]
        assert [s["next_delta"] for s in steps] == [15, 6, 0]
        assert [s["n1_residue"] for s in steps] == [42, 15, 6]

    def test_final(self):
        f = self.cert()["final"]
        assert (f["delta2"], f["delta2_max"]) == (6, 6)
        assert (f["required_dim2"], f["required_dim_ge3_min"]) == (9, 13)
        assert not f["heden_satisfied"]

    def test_checks_out(self):
        assert check_certificate(self.cert()).ok


class TestHypotheses:
    def test_q_must_divide_x(self):
        with pytest.raises(HypothesisViolatedError):
            pt.descent_certificate(2, 8, 3, 3)

    def test_q_square_must_not_divide_x(self):
        with pytest.raises(HypothesisViolatedError):
            pt.descent_certificate(2, 8, 3, 4)

    def test_r_must_be_at_least_2(self):
        with pytest.raises(HypothesisViolatedError):
            pt.descent_certificate(2, 7, 3, 2)
        with pytest.raises(InvalidParamsError):
            pt.descent_certificate(2, 7, 3)  # no default x at r = 1

    def test_x_within_packing_step(self):
        with pytest.raises(HypothesisViolatedError):
            pt.descent_certificate(2, 8, 3, 6)

    def test_t_threshold(self):
        with pytest.raises(HypothesisViolatedError):
            pt.descent_certificate(2, 14, 5, 2)


class TestSerialization:
    def test_roundtrip(self):
        c = pt.descent_certificate(3, 10, 4)
        back = json.loads(json.dumps(c))
        assert back == c
        assert check_certificate(back).ok


def mutate_leaf(doc, path, bump):
    node = doc
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    if isinstance(old, bool):
        node[path[-1]] = not old
    elif isinstance(old, int):
        node[path[-1]] = old + bump
    elif isinstance(old, str):
        node[path[-1]] = "ii" if old != "ii" else "iv"
    else:
        raise AssertionError(f"unexpected leaf {old!r} at {path}")


def leaf_paths(doc, prefix=()):
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from leaf_paths(v, prefix + (k,))
        elif isinstance(v, list):
            for idx, item in enumerate(v):
                yield from leaf_paths(item, prefix + (k, idx))
        else:
            yield prefix + (k,)


def dotted(path):
    """("steps", 0, "delta") -> "steps[0].delta", as check_certificate names it."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


# q + 1 breaks the descent lemma's hypotheses on x; n + 1 and t + 1 change r
REPORTED_AT = {"q": "x", "n": "r", "t": "r"}


class TestTampering:
    @pytest.mark.parametrize("qnt", [(2, 8, 3), (3, 10, 4)])
    def test_each_leaf_bumped_is_reported_at_its_path(self, qnt):
        base = pt.descent_certificate(*qnt)
        for path in leaf_paths(base):
            doc = copy.deepcopy(base)
            mutate_leaf(doc, path, 1)
            res = check_certificate(doc)
            at = dotted(path)
            assert (res.ok, res.mismatch) == (False, REPORTED_AT.get(at, at))

    def test_undecided_prime_power_is_a_params_mismatch(self):
        # primality of 2^89 - 1 is past the deterministic Miller-Rabin range
        doc = pt.descent_certificate(2, 8, 3)
        doc["q"] = 2 ** 89 - 1
        res = check_certificate(doc)
        assert (res.ok, res.mismatch) == (False, "params")

    def test_delta2_tamper_caught(self):
        doc = pt.descent_certificate(2, 8, 3)
        doc["final"]["delta2"] = 3
        res = check_certificate(doc)
        assert not res.ok
        assert res.mismatch == "final.delta2"

    def test_bound_tamper_caught(self):
        doc = pt.descent_certificate(2, 8, 3)
        doc["claimed_bound"] = 33
        doc["n_t"] = 34  # even a consistent-looking shift must fail
        res = check_certificate(doc)
        assert not res.ok
        assert res.mismatch == "claimed_bound"

    def test_step_delta_tamper_caught(self):
        doc = pt.descent_certificate(3, 10, 4)
        doc["steps"][1]["delta"] = 16
        res = check_certificate(doc)
        assert not res.ok
        assert res.mismatch == "steps[1].delta"

    @pytest.mark.parametrize("qnt", [(2, 8, 3), (3, 10, 4)])
    def test_random_single_field_mutations(self, qnt):
        base = pt.descent_certificate(*qnt)
        paths = list(leaf_paths(base))
        rng = random.Random(20240817)
        rejected = 0
        for _ in range(100):
            doc = copy.deepcopy(base)
            mutate_leaf(doc, rng.choice(paths), rng.randint(1, 7))
            try:
                res = check_certificate(doc)
            except (TypeError, ValueError):
                rejected += 1
                continue
            if not res.ok:
                rejected += 1
        assert rejected == 100


class TestSizeGuards:
    """A tampered n or t asks the replay for powers far beyond the
    document's integers; the field that needs one fails before it is formed,
    at the path the full replay reports."""

    @staticmethod
    def _tampered(qnt):
        base = pt.descent_certificate(*qnt)
        q, n, t = qnt
        r, x, claimed = base["r"], base["x"], base["claimed_bound"]
        edits = [{"n": n + k * t} for k in (-1, 1, 5, 40, 300)]
        edits += [{"x": x + q * q * k} for k in (1, 50)]
        # n < 2t, where ell = 0 and only n_1 bounds t
        edits += [{"t": t + k, "n": t + k + r} for k in (1, 30, 400)]
        edits += [
            {"t": t + k, "n": t + k + r, "claimed_bound": x, "ell": 0, "n_t": x + 1}
            for k in (1, 30, 400)
        ]
        # bounds about as long as a true one, on either side of the guard
        edits += [
            {"n": n + 300 * t, "claimed_bound": claimed * q ** k}
            for k in (100, 300 * t - 3, 300 * t - 2, 300 * t - 1, 300 * t)
        ]
        for edit in edits:
            yield {**copy.deepcopy(base), **edit}

    @pytest.mark.parametrize("qnt", [(2, 8, 3), (3, 10, 4), (4, 12, 5)])
    def test_guards_report_the_full_replay_path(self, qnt, monkeypatch):
        docs = list(self._tampered(qnt))
        guarded = [check_certificate(doc) for doc in docs]
        monkeypatch.setattr(check, "_below", lambda q, value, k: False)
        assert guarded == [check_certificate(doc) for doc in docs]
        assert {res.mismatch for res in guarded} >= {"claimed_bound", "n_1"}

    def test_huge_n_fails_at_the_bound_at_once(self):
        doc = pt.descent_certificate(2, 8, 3)
        doc["n"] = 100000000001  # r is still 2; 2^(n-3) alone needs 12.5 GB
        start = time.monotonic()
        rc, out, err = go(["certify", "--check", "-"], json.dumps(doc))
        assert (rc, err) == (1, "")
        assert json.loads(out) == {"ok": False, "mismatch": "claimed_bound"}
        assert time.monotonic() - start < 1.0

    def test_huge_t_below_2t_fails_at_once(self):
        doc = pt.descent_certificate(2, 8, 3)
        doc["t"], doc["n"] = 10 ** 11, 10 ** 11 + 2  # n < 2t: r = 2, ell = 0
        start = time.monotonic()
        assert check_certificate(doc).mismatch == "claimed_bound"
        doc.update(claimed_bound=doc["x"], ell=0, n_t=doc["x"] + 1)
        assert check_certificate(doc).mismatch == "n_1"
        assert time.monotonic() - start < 1.0


class TestSoundnessGrid:
    def test_all_regime_cells_check(self):
        cells = 0
        for q in (2, 3):
            for r in range(2, 16):
                for t in range(r + 1, min(theta(r, q), 16) + 1):
                    for n in (2 * t + r, 3 * t + r):
                        cert = pt.descent_certificate(q, n, t)
                        assert check_certificate(cert).ok, (q, n, t)
                        assert cert["claimed_bound"] == bounds.main_bound(
                            bounds.SpreadParams(q, n, t)
                        )
                        cells += 1
        assert cells > 60


SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
     / "certificate.schema.json").read_text()
)

# one value of each JSON type; JSON Schema counts an integral number such as
# 2.0 as an integer, which the checker refuses, so none is listed
JSON_VALUES = [None, True, 1, 2.5, "ii", [], {}]


def node_paths(doc, prefix=()):
    """The path of doc and of every value inside it, arrays included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from node_paths(v, prefix + (k,))


def at_path(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def variants(base):
    """base with one node changed: retyped, a key dropped or added, an
    integer bumped, a boolean flipped, a step repeated or dropped."""
    for path in node_paths(base):
        value = at_path(base, path)
        edits = [
            (lambda node, new=new: new)
            for new in JSON_VALUES if type(new) is not type(value)
        ]
        if type(value) is int:
            edits.append(lambda node: node + 1)
        elif type(value) is bool:
            edits.append(lambda node: not node)
        elif type(value) is dict:
            edits += [
                (lambda node, key=key: {k: v for k, v in node.items() if k != key})
                for key in value
            ]
            edits.append(lambda node: {**node, "extra": 1})
        elif type(value) is list:
            edits += [lambda node: node + node[-1:], lambda node: node[:-1]]
        for edit in edits:
            doc = copy.deepcopy(base)
            if not path:
                yield edit(doc)
                continue
            parent = at_path(doc, path[:-1])
            parent[path[-1]] = edit(parent[path[-1]])
            yield doc


@pytest.mark.parametrize("qnt", [(2, 8, 3), (3, 10, 4)])
def test_key_and_type_checks_agree_with_the_schema(qnt):
    schema = jsonschema.Draft202012Validator(SCHEMA)
    seen = set()
    for doc in variants(pt.descent_certificate(*qnt)):
        try:
            check_certificate(doc)
            raised = False
        except InvalidParamsError:
            raised = True
        assert raised is not schema.is_valid(doc), doc
        seen.add(raised)
    assert seen == {False, True}


def test_schema_refuses_every_tail_case_but_iv():
    # descent_certificate writes case (iv) only, and the replay refuses any
    # other, so the schema does too
    schema = jsonschema.Draft202012Validator(SCHEMA)
    doc = pt.descent_certificate(2, 8, 3)
    assert schema.is_valid(doc)
    for case in ("i", "ii", "iii"):
        doc["final"]["heden_case"] = case
        assert not schema.is_valid(doc)
        assert not check_certificate(doc).ok


def test_checker_imports_no_producer():
    # a replay through the code that wrote the certificate would pass that
    # code's own bugs
    tree = ast.parse(pathlib.Path(check.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)  # from . import bounds
        elif isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
    assert "gf" in imported
    assert not imported & {"bounds", "partition", "search", "construct", "linalg"}
