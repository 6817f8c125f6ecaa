"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every criterion has a wall-clock budget that is asserted, so a
regression in speed fails the gate just like a wrong value.
"""

import contextlib
import json
import random
import time

from spreadlab.bounds import (
    SpreadParams,
    best_known,
    c1_c2,
    compare_bounds,
    delta,
    drake_freeman,
    h_of,
    lemma_main_bound,
    lower_bound,
    main_bound,
    theta,
)
from spreadlab.check import check_certificate
from spreadlab.construct import build_lower_bound_spread, verify_partial_spread
from spreadlab.partition import (
    descent_certificate,
    hyperplane_profile,
    partition_from_spread,
)
from spreadlab.search import max_partial_spread


@contextlib.contextmanager
def criterion(num, limit_s, detail):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < limit_s, f"criterion {num} took {dt:.2f}s, budget {limit_s}s"
    print(f"criterion {num}: PASS ({dt:.2f}s) {detail}")


def test_criterion_1_exact_values():
    cases = [
        ((2, 8, 3), 34, "EJSSS_EXACT"),
        ((2, 11, 3), 290, "EJSSS_EXACT"),
        ((2, 10, 4), 65, "KURZ_EXACT"),
        ((2, 9, 4), 33, "NS_EXACT"),
        ((2, 7, 3), 17, "BHP_EXACT"),
        ((3, 5, 2), 28, "BHP_EXACT"),
    ]
    for (q, n, t), value, source in cases:
        with criterion(1, 1.0, f"best_known({q},{n},{t}) = {value} [{source}]"):
            rep = best_known(SpreadParams(q, n, t))
            assert rep.exact is not None, (q, n, t)
            assert rep.exact.value == value, (q, n, t, rep.exact.value)
            # the theorem credited above must fire at this triple, though
            # another exactness source may outrank it in the report
            assert any(
                u.source == source and u.value == value for u in rep.uppers
            ), (q, n, t, rep.uppers)
            assert rep.lower == rep.best_upper == value


def test_criterion_2_new_bound_arithmetic():
    with criterion(2, 1.0, "main_bound matches independent routes at both anchors"):
        p1 = SpreadParams(2, 8, 3)
        assert main_bound(p1) == 34
        assert drake_freeman(p1) == 34
        p2 = SpreadParams(3, 10, 4)
        assert main_bound(p2) == 732
        assert lemma_main_bound(3, 10, 4, 3) == 732


def test_criterion_3_bound_comparison():
    with criterion(3, 1.0, "compare_bounds(2,17,13) = -2, closed form agrees"):
        params = SpreadParams(2, 17, 13)
        got = compare_bounds(params)
        c1, c2 = c1_c2(2, 13)
        closed = 2**4 // 2 - (2 - 1) * (13 - 2) - c1 + c2
        assert got == closed
        assert got < 0
        assert got == main_bound(params) - drake_freeman(params)


def test_criterion_4_defect_property_sweep():
    checks = 0
    with criterion(4, 30.0, "defect identities, zero violations"):
        for q in (2, 3, 4, 5):
            for t in range(2, 9):
                for r in range(1, t):
                    for x in range(1, q**r):
                        d = [0] + [delta(x, i, q) for i in range(1, t + 1)]
                        for i in range(1, t + 1):
                            assert 0 <= d[i] < q**i
                            assert (x + d[i]) % q == 0
                            assert (d[i] == 0) == (x % q**i == 0)
                            checks += 3
                        for i in range(1, t):
                            assert d[i] == ((x + d[i + 1]) // q) % q**i
                            checks += 1
                        h_of(x, q, t)  # raises if its two routes disagree
                        checks += 1
    assert checks >= 10**5
    print(f"criterion 4: {checks} individual checks")


GRID = [
    (q, n, t)
    for q in (2, 3)
    for t in (2, 3, 4)
    for n in range(2 * t, 3 * t + 1)
]


def test_criterion_5_construction_grid():
    with criterion(5, 60.0, "construction meets the packing bound on the grid"):
        for q, n, t in GRID:
            params = SpreadParams(q, n, t)
            spread = build_lower_bound_spread(params)
            assert verify_partial_spread(spread).ok, (q, n, t)
            assert spread.size == lower_bound(params), (q, n, t)
        p = SpreadParams(2, 7, 3)
        spread = build_lower_bound_spread(p)
        rep = best_known(p)
        assert spread.size == 17
        assert rep.exact is not None and rep.exact.value == 17


SEARCH_GOLDEN = [
    ((2, 4, 2), 5),
    ((2, 5, 2), 9),
    ((2, 5, 3), 1),
    ((2, 6, 3), 9),
    ((3, 4, 2), 10),
]


def test_criterion_6_search_oracle():
    with criterion(6, 300.0, "exhaustive search agrees with the tables"):
        for (q, n, t), value in SEARCH_GOLDEN:
            params = SpreadParams(q, n, t)
            res = max_partial_spread(params)
            assert res.status == "EXACT", (q, n, t, res.status)
            assert res.best_size == value, (q, n, t, res.best_size)
            rep = best_known(params)
            assert rep.exact is not None
            assert rep.exact.value == value


def test_criterion_6_stretch_case():
    with criterion(6, 300.0, "stretch case (2,6,2) = 21"):
        res = max_partial_spread(SpreadParams(2, 6, 2))
        assert res.status == "EXACT"
        assert res.best_size == 21


def test_criterion_6_cold_start():
    with criterion(6, 300.0, "cold starts (2,6,2) = 21 and (2,5,2) = 9"):
        for (q, n, t), value in [((2, 6, 2), 21), ((2, 5, 2), 9)]:
            res = max_partial_spread(SpreadParams(q, n, t), warm_start=False)
            assert res.status == "EXACT", (q, n, t, res.status)
            assert res.best_size == value, (q, n, t, res.best_size)


def test_criterion_7_hyperplane_identities():
    with criterion(7, 60.0, "section-count identities on every grid spread"):
        for q, n, t in GRID:
            spread = build_lower_bound_spread(SpreadParams(q, n, t))
            part = partition_from_spread(spread)
            # hyperplane_profile internally verifies the per-hyperplane
            # count identity and raises on any violation
            prof = hyperplane_profile(part)
            n_parts = len(part.parts)
            assert sum(prof.s_b.values()) == theta(n, q), (q, n, t)
            for b_vec, count in prof.s_b.items():
                assert 1 + sum(
                    b * q**d for b, d in zip(b_vec, prof.dims)
                ) == n_parts, (q, n, t, b_vec)
            for k, d in enumerate(prof.dims):
                lhs = sum(b[k] * cnt for b, cnt in prof.s_b.items())
                assert lhs == prof.dim_counts[d] * theta(n - d, q), (q, n, t, d)


def _leaf_paths(doc, prefix=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaf_paths(val, prefix + (key,))
    elif isinstance(doc, list):
        for idx, val in enumerate(doc):
            yield from _leaf_paths(val, prefix + (idx,))
    else:
        yield prefix, doc


def _mutate(doc, path, value):
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value


def test_criterion_8_certificate_suite():
    with criterion(8, 10.0, "golden descent trace plus 100 rejected mutations"):
        cert = descent_certificate(2, 8, 3, 2)
        assert cert["h"] == 2
        assert cert["ell"] == 4
        assert cert["claimed_bound"] == 34
        assert cert["steps"][0]["delta"] == 2 and cert["steps"][0]["i"] == 3
        assert cert["final"]["delta2"] == 2
        assert cert["final"]["heden_case"] == "iv"
        assert cert["final"]["heden_satisfied"] is False
        assert check_certificate(cert).ok

        rng = random.Random(20260816)
        paths = [p for p, _ in _leaf_paths(cert)]
        rejected = 0
        for _ in range(100):
            doc = json.loads(json.dumps(cert))
            path = rng.choice(paths)
            old = cert
            for step in path:
                old = old[step]
            if isinstance(old, bool):
                new = not old
            elif isinstance(old, int):
                new = old + rng.choice([-2, -1, 1, 2, 7])
            else:
                new = "iii" if old != "iii" else "ii"
            _mutate(doc, path, new)
            try:
                res = check_certificate(doc)
            except (ValueError, KeyError, TypeError):
                rejected += 1
                continue
            if not res.ok:
                rejected += 1
        assert rejected == 100, f"only {rejected}/100 mutations rejected"
