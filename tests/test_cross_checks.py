"""Cross-module consistency checks.

Every test here either routes one object through several modules (search
witness -> partition -> hyperplane profile, certificate -> bound report ->
CLI) or recomputes a closed form by an independent route, Fraction
arithmetic instead of the integer-only formulas.  The unit suites pin each
module in isolation; these pin the seams between them.
"""

from __future__ import annotations

import io
import json
import math
import random
from fractions import Fraction

import pytest
from oracles import grouped

from spreadlab.bounds import (
    BHP_EXACT,
    DRAKE_FREEMAN,
    MAIN_THEOREM,
    SPREAD_EXACT,
    TRIVIAL_OVERLAP,
    SpreadParams,
    best_known,
    delta,
    descent_x,
    h_of,
    main_bound,
    omega_floor,
    theta,
)
from spreadlab.check import check_certificate
from spreadlab.cli import run
from spreadlab.errors import IdentityViolationError
from spreadlab.partition import (
    SubspacePartition,
    descent_certificate,
    hyperplane_profile,
    partition_from_spread,
)
from spreadlab.search import EXACT, greedy_spread, max_partial_spread


class TestFractionOracles:
    """bounds.py closed forms against plain rational arithmetic."""

    QS = (2, 3, 4, 5, 7, 9)

    def test_delta_fraction_route(self):
        for q in self.QS:
            for t in range(1, 6):
                step = max(1, q ** t // 40)
                for x in range(1, q ** t + 1, step):
                    for i in range(1, t + 1):
                        covered = x * theta(i, q)
                        want = q ** i * math.ceil(Fraction(covered, q ** i))
                        assert delta(x, i, q) == want - covered

    def test_h_fraction_route(self):
        for q in self.QS:
            for t in range(1, 6):
                for x in range(1, min(4 * q, q ** t - 1) + 1):
                    a = math.ceil(Fraction(x, q - 1))
                    b = math.ceil(Fraction(x * theta(t, q), q ** t))
                    assert a == b == h_of(x, q, t)

    def test_h_rejects_out_of_range_x(self):
        # at x = q^t the two ceilings split for every q, t
        for q in (2, 3, 5):
            for t in (1, 2, 3):
                with pytest.raises(IdentityViolationError):
                    h_of(q ** t, q, t)

    def test_omega_floor_bracket(self):
        """(s - m) // 2 is the floor iff w <= (sqrt(D) - m)/2 < w + 1,
        i.e. (2w + m)^2 <= D < (2w + 2 + m)^2."""
        for q in self.QS:
            for t in range(2, 9):
                for r in range(1, t):
                    w = omega_floor(q, t, r)
                    D = 4 * q ** t * (q ** t - q ** r) + 1
                    m = 2 * q ** t - 2 * q ** r + 1
                    assert (2 * w + m) ** 2 <= D < (2 * w + 2 + m) ** 2
                    if t >= 2 * r:
                        assert w == q ** r // 2 - 1

    def test_negative_margin_window(self):
        """The margin over drake_freeman is strictly negative once t is
        within 4 (q > 2) or 5 (q = 2) of the top of the regime."""
        from spreadlab.bounds import compare_bounds, drake_freeman

        checked = 0
        for q in (2, 3, 4, 5, 7):
            for r in (2, 3, 4):
                top = theta(r, q)
                start = -(-top // 2) + (5 if q == 2 else 4)
                if start > top:
                    continue  # window is empty at this (q, r)
                ts = set(range(start, min(top, start + 5) + 1)) | {top}
                for t in sorted(ts):
                    params = SpreadParams(q, 2 * t + r, t)
                    margin = compare_bounds(params)
                    assert margin < 0
                    assert margin == main_bound(params) - drake_freeman(params)
                    checked += 1
        assert checked >= 30


SMALL_EXACT_CELLS = [(2, 4, 2), (2, 5, 3), (2, 6, 3), (3, 4, 2)]


class TestSearchPartitionPipeline:
    """Search witnesses pushed through the partition identities."""

    @pytest.mark.parametrize("q,n,t", SMALL_EXACT_CELLS)
    def test_exact_witness_partitions(self, q, n, t):
        res = max_partial_spread(SpreadParams(q, n, t))
        assert res.status == EXACT
        part = partition_from_spread(res.witness)
        prof = hyperplane_profile(part)  # raises on either identity
        singles = theta(n, q) - res.best_size * theta(t, q)
        assert part.dim_counts.get(1, 0) == singles
        assert sum(prof.s_b.values()) == theta(n, q)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_greedy_witness_partitions(self, seed):
        # greedy gives maximal but usually not maximum spreads, so the
        # induced partitions carry fatter tails than the exact ones
        spread = greedy_spread(SpreadParams(2, 6, 3), seed=seed)
        part = partition_from_spread(spread)
        prof = hyperplane_profile(part)
        assert part.dim_counts.get(1, 0) == theta(6, 2) - spread.size * theta(3, 2)
        assert sum(prof.s_b.values()) == theta(6, 2)

    def test_profile_detects_dropped_part(self):
        spread = greedy_spread(SpreadParams(2, 6, 3), seed=0)
        part = partition_from_spread(spread)
        broken = SubspacePartition(grouped(part.parts.field, part.n, tuple(part.parts)[:-1]))
        # the first hyperplane in dual encoding order already breaks identity (1)
        with pytest.raises(
            IdentityViolationError, match=r"hyperplane \(1, 0, 0, 0, 0, 0\): 1 \+ sum b_d"
        ):
            hyperplane_profile(broken)

    def test_profile_detects_doubled_part(self):
        spread = greedy_spread(SpreadParams(2, 6, 3), seed=0)
        part = partition_from_spread(spread)
        parts = tuple(part.parts)
        broken = SubspacePartition(grouped(part.parts.field, part.n, (*parts, parts[-1])))
        with pytest.raises(IdentityViolationError):
            hyperplane_profile(broken)


# regime cells with r = 2 over the fields the acceptance suite leaves out
Q45_CELLS = [(4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5), (5, 6)]


class TestCertificateBoundAgreement:
    @pytest.mark.parametrize("q,t", Q45_CELLS)
    def test_default_x_certificate_matches_main_bound(self, q, t):
        n = 2 * t + 2
        params = SpreadParams(q, n, t)
        cert = descent_certificate(q, n, t)
        assert cert["x"] == descent_x(q, t, 2)
        assert cert["claimed_bound"] == main_bound(params)
        assert check_certificate(cert).ok
        uppers = {u.source: u.value for u in best_known(params).uppers}
        assert uppers[MAIN_THEOREM] == cert["claimed_bound"]

    def test_mutated_certificates_rejected_gf5(self):
        base = descent_certificate(5, 8, 3)
        assert check_certificate(base).ok
        rng = random.Random(508)
        paths = list(_leaf_paths(base))
        for _ in range(60):
            doc = json.loads(json.dumps(base))
            path, value = rng.choice(paths)
            if isinstance(value, bool):
                _set_path(doc, path, not value)
            elif isinstance(value, int):
                _set_path(doc, path, value + rng.choice([-2, -1, 1, 2, 7]))
            else:
                _set_path(doc, path, "iii" if value != "iii" else "ii")
            try:
                res = check_certificate(doc)
            except (ValueError, KeyError, TypeError):
                continue
            assert not res.ok


def _leaf_paths(doc, prefix=()):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaf_paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaf_paths(v, prefix + (i,))
    else:
        yield prefix, doc


def _set_path(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


class TestBestKnownCoherence:
    def test_report_sweep(self):
        for q in (2, 3, 4, 5):
            for t in range(2, 6):
                for n in range(t + 1, 3 * t + 1):
                    params = SpreadParams(q, n, t)
                    rep = best_known(params)
                    srcs = {u.source: u.value for u in rep.uppers}
                    assert rep.best_upper == min(srcs.values())
                    assert all(v >= rep.lower for v in srcs.values())
                    assert (DRAKE_FREEMAN in srcs) == (params.r > 0 and n >= 2 * t)
                    if rep.exact:
                        assert rep.exact.value == rep.lower == rep.best_upper
                        assert srcs[rep.exact.source] == rep.exact.value
                    if n < 2 * t:
                        assert rep.exact.source == TRIVIAL_OVERLAP
                        assert rep.exact.value == 1
                    elif params.r == 0:
                        assert rep.exact.source == SPREAD_EXACT
                        assert rep.exact.value == theta(n, q) // theta(t, q)
                    elif params.r == 1:
                        assert rep.exact.source == BHP_EXACT


def _go(argv, inp=""):
    out, err = io.StringIO(), io.StringIO()
    rc = run(argv, stdin=io.StringIO(inp), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spread_doc():
    rc, out, _ = _go(["construct", "--q", "2", "--n", "6", "--t", "3"])
    assert rc == 0
    return json.loads(out)


class TestCliRobustness:
    """No structurally broken document may escape the documented exit codes."""

    def test_mutated_docs_stay_contained(self, spread_doc):
        rng = random.Random(263)
        paths = list(_leaf_paths(spread_doc))
        for _ in range(100):
            doc = json.loads(json.dumps(spread_doc))
            path, value = rng.choice(paths)
            kind = rng.randrange(4)
            if kind == 0 and isinstance(value, int):
                _set_path(doc, path, value + rng.choice([-9, -1, 1, 7]))
            elif kind == 1:
                _set_path(doc, path, "junk")
            elif kind == 2:
                node = doc
                for key in path[:-1]:
                    node = node[key]
                if isinstance(node, dict):
                    del node[path[-1]]
                else:
                    _set_path(doc, path, None)
            else:
                _set_path(doc, path, [value])
            for cmd in ("verify", "analyze"):
                rc, _, _ = _go([cmd, "-"], inp=json.dumps(doc))
                assert rc in (0, 1, 2)

    def test_garbage_inputs_stay_contained(self, spread_doc):
        text = json.dumps(spread_doc)
        cases = [
            "",
            "null",
            "[]",
            "[" + text + "]",
            text[: len(text) // 2],
            '{"q": 2}',
            '{"q": 2, "n": 6, "t": 3, "members": "nope"}',
        ]
        for bad in cases:
            for cmd in ("verify", "analyze", "certify"):
                argv = [cmd, "-"] if cmd != "certify" else [cmd, "--check", "-"]
                rc, _, _ = _go(argv, inp=bad)
                assert rc == 2, (cmd, bad[:30], rc)

    def test_formats_carry_identical_data(self):
        import csv

        base = ["table", "--q", "2", "--n", "6..9", "--t", "3"]
        rc, as_json, _ = _go(base + ["--format", "json"])
        assert rc == 0
        rc, as_csv, _ = _go(base + ["--format", "csv"])
        assert rc == 0
        rc, as_text, _ = _go(base + ["--format", "text"])
        assert rc == 0

        rows_j = json.loads(as_json)
        rows_c = list(csv.DictReader(io.StringIO(as_csv)))
        assert len(rows_j) == len(rows_c) == 4
        assert len(as_text.strip().splitlines()) == 2 * len(rows_j)
        for rj, rc_ in zip(rows_j, rows_c):
            for field in ("q", "n", "t", "lower"):
                assert rj[field] == int(rc_[field])
            assert min(u["value"] for u in rj["uppers"]) == int(rc_["best_upper"])
            exact_j = rj["exact"]["value"] if rj["exact"] else ""
            exact_c = int(rc_["exact_value"]) if rc_["exact_value"] else ""
            assert exact_j == exact_c
