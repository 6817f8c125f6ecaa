from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import contains, encode, hyperplane_duals
from spreadlab import gf, linalg
from spreadlab.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    InvalidParamsError,
)

GF2 = gf.field_new(2)
GF3 = gf.field_new(3)
GF4 = gf.field_new(2, 2)


# -- rref ---------------------------------------------------------------------


def test_rref_identity_fixed_point():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert linalg.rref_rows(GF2, rows, 3) == rows


def test_rref_swaps_and_reduces():
    assert linalg.rref_rows(GF2, [(0, 1), (1, 1)], 2) == ((1, 0), (0, 1))


def test_rref_zero_matrix_drops_rows():
    assert linalg.rref_rows(GF3, [(0, 0, 0), (0, 0, 0)], 3) == ()


def test_rref_normalizes_pivot_to_one():
    out = linalg.rref_rows(GF3, [(2, 1, 0), (0, 0, 2)], 3)
    assert out == ((1, 2, 0), (0, 0, 1))


def _random_matrix_strategy(q):
    return st.lists(
        st.lists(st.integers(0, q - 1), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
@settings(max_examples=40)
@given(data=st.data())
def test_rref_idempotent(field, data):
    rows = data.draw(_random_matrix_strategy(field.q))
    first = linalg.rref_rows(field, rows, 4)
    assert linalg.rref_rows(field, first, 4) == first


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_canonical_form_invariant_under_row_ops(field):
    rng = random.Random(4091 + field.q)
    n, d = 5, 3
    base = [
        (1, 0, 0, 1, 0),
        (0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1),
    ]
    canon = linalg.Subspace.from_rows(field, n, base).rows
    for _ in range(200):
        rows = [list(r) for r in base]
        for _ in range(6):
            op = rng.randrange(3)
            i, j = rng.randrange(d), rng.randrange(d)
            if op == 0:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                c = rng.randrange(1, field.q)
                rows[i] = [field.mul(c, x) for x in rows[i]]
            elif i != j:
                c = rng.randrange(field.q)
                rows[i] = [
                    field.add(x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])
                ]
        assert linalg.Subspace.from_rows(field, n, rows).rows == canon


# -- subspaces and intersections ---------------------------------------------


def test_subspace_equality_is_structural():
    a = linalg.Subspace.from_rows(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    b = linalg.Subspace.from_rows(GF2, 3, [(1, 1, 1), (0, 0, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_intersect_planes_in_v3():
    xz = linalg.Subspace.from_rows(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    yz = linalg.Subspace.from_rows(GF2, 3, [(0, 1, 0), (0, 0, 1)])
    assert linalg.intersect_dim(xz, yz) == 1


def test_distinct_lines_are_disjoint():
    a = linalg.Subspace.from_rows(GF3, 2, [(1, 0)])
    b = linalg.Subspace.from_rows(GF3, 2, [(0, 1)])
    assert linalg.intersect_dim(a, b) == 0


def test_self_intersection_is_dim():
    s = linalg.Subspace.from_rows(GF3, 4, [(1, 0, 2, 1), (0, 1, 1, 0)])
    assert linalg.intersect_dim(s, s) == 2


def test_ambient_mismatch():
    a = linalg.Subspace.from_rows(GF2, 3, [(1, 0, 0)])
    b = linalg.Subspace.from_rows(GF2, 4, [(1, 0, 0, 0)])
    with pytest.raises(AmbientMismatchError):
        linalg.intersect_dim(a, b)


def test_field_mismatch():
    a = linalg.Subspace.from_rows(GF2, 3, [(1, 0, 0)])
    b = linalg.Subspace.from_rows(GF3, 3, [(1, 0, 0)])
    with pytest.raises(FieldMismatchError):
        linalg.intersect_dim(a, b)


def test_subspace_json_roundtrip():
    s = linalg.Subspace.from_rows(GF4, 3, [(1, 2, 3), (2, 1, 1)])
    d = s.to_dict()
    assert set(d) == {"q", "n", "dim", "rows"}
    assert linalg.Subspace.from_dict(d) == s


def test_subspace_from_dict_checks_dim():
    d = {"q": 2, "n": 3, "dim": 2, "rows": [[1, 0, 0], [1, 0, 0]]}
    with pytest.raises(InvalidParamsError):
        linalg.Subspace.from_dict(d)


# -- counting and enumeration --------------------------------------------------


def test_gaussian_binomial_values():
    assert linalg.gaussian_binomial(4, 2, 2) == 35
    assert linalg.gaussian_binomial(6, 3, 2) == 1395
    assert linalg.gaussian_binomial(7, 3, 2) == 11811
    assert linalg.gaussian_binomial(4, 2, 3) == 130
    assert linalg.gaussian_binomial(5, 0, 3) == 1
    assert linalg.gaussian_binomial(5, 5, 3) == 1
    assert linalg.gaussian_binomial(3, 4, 2) == 0


@given(
    n=st.integers(1, 8),
    k=st.integers(0, 8),
    q=st.sampled_from([2, 3, 4, 5]),
)
def test_gaussian_binomial_pascal(n, k, q):
    lhs = linalg.gaussian_binomial(n, k, q)
    rhs = q ** k * linalg.gaussian_binomial(n - 1, k, q) + linalg.gaussian_binomial(
        n - 1, k - 1, q
    )
    assert lhs == rhs
    assert lhs == linalg.gaussian_binomial(n, n - k, q) if 0 <= k <= n else True


def test_enumeration_count_matches_formula():
    subs = list(linalg.enumerate_subspaces(4, 2, GF2))
    assert len(subs) == 35
    assert len(set(subs)) == 35
    for s in subs:
        assert s.dim == 2
        assert linalg.Subspace.from_rows(GF2, 4, s.rows) == s  # already canonical


def test_enumeration_total_small_grids():
    for q, field in ((2, GF2), (3, GF3)):
        for n in range(1, 5):
            total = sum(
                1 for d in range(n + 1) for _ in linalg.enumerate_subspaces(n, d, field)
            )
            assert total == sum(
                linalg.gaussian_binomial(n, d, q) for d in range(n + 1)
            )


def test_enumeration_order_is_deterministic():
    first = [s.rows for s in linalg.enumerate_subspaces(4, 2, GF3)]
    second = [s.rows for s in linalg.enumerate_subspaces(4, 2, GF3)]
    assert first == second
    assert first[0] == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(linalg.enumerate_subspaces(7, 3, GF2, budget=10_000))


def test_enumeration_dim_zero():
    subs = list(linalg.enumerate_subspaces(3, 0, GF2))
    assert len(subs) == 1
    assert subs[0].dim == 0


# -- hyperplanes ---------------------------------------------------------------
#
# Hyperplanes are numbered by the normalized encodings of their dual vectors,
# and the hyperplanes containing a subspace are the points of its
# annihilator; the oracles list both by brute force.


def _points(s):
    """Normalized point encodings of one subspace, from the kernel."""
    ((_, block),) = linalg.point_encodings([s])
    return block[0].tolist()


def test_hyperplane_count_v4():
    duals = [
        linalg.decode_vector(int(e), 4, 2)
        for e in linalg.normalized_point_encodings(4, 2)
    ]
    assert len(duals) == 15
    assert duals == hyperplane_duals(4, GF2)


def test_hyperplane_count_matches_theta():
    for field, n in ((GF3, 3), (GF4, 2)):
        count = len(linalg.normalized_point_encodings(n, field.q))
        assert count == (field.q ** n - 1) // (field.q - 1)
        assert count == len(hyperplane_duals(n, field))


def test_hyperplanes_ascending_encoding():
    encs = [encode(h, 3) for h in hyperplane_duals(3, GF3)]
    assert linalg.normalized_point_encodings(3, 3).tolist() == encs


@pytest.mark.parametrize("d", [1, 2])
def test_subspace_lies_in_theta_n_minus_d_hyperplanes(d):
    duals = hyperplane_duals(4, GF2)
    want = (2 ** (4 - d) - 1) // (2 - 1)
    for s in linalg.enumerate_subspaces(4, d, GF2):
        inside = {encode(h, 2) for h in duals if contains(GF2, h, s)}
        assert len(inside) == want
        assert set(_points(linalg.annihilator(s))) == inside


def test_contains_dim_zero_in_all():
    zero = linalg.Subspace(GF2, 3, ())
    duals = hyperplane_duals(3, GF2)
    assert all(contains(GF2, h, zero) for h in duals)
    assert sorted(_points(linalg.annihilator(zero))) == [
        encode(h, 2) for h in duals
    ]


def test_contains_generic_field():
    # each of the 5 lines of V(2,4) is itself a hyperplane: the one
    # hyperplane containing it is the one point of its annihilator
    duals = hyperplane_duals(2, GF4)
    lines = list(linalg.enumerate_subspaces(2, 1, GF4))
    assert len(lines) == len(duals) == 5
    for s in lines:
        inside = [encode(h, 4) for h in duals if contains(GF4, h, s)]
        assert _points(linalg.annihilator(s)) == inside


# -- annihilator ---------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_annihilator_dims_and_orthogonality(field):
    for s in linalg.enumerate_subspaces(4, 2, field):
        ann = linalg.annihilator(s)
        assert ann.dim == 2
        for w in ann.rows:
            assert contains(field, w, s)
        assert linalg.annihilator(ann) == s


# -- point encodings -----------------------------------------------------------


GF5 = gf.field_new(5)
GF8 = gf.field_new(2, 3)
GF9 = gf.field_new(3, 2)
KERNEL_FIELDS = [GF2, GF3, GF4, GF5, GF8, GF9]
KERNEL_IDS = ["GF2", "GF3", "GF4", "GF5", "GF8", "GF9"]


def _kernel_points(subspaces):
    out = {}
    for start, block in linalg.point_encodings(subspaces):
        for k, row in enumerate(block.tolist()):
            out[start + k] = row
    return [out[i] for i in range(len(subspaces))]


def _brute_span(field, s):
    """Every vector of span(s.rows), built with field.add and field.mul."""
    span = {(0,) * s.ambient}
    for row in s.rows:
        span = {
            tuple(field.add(v, field.mul(c, r)) for v, r in zip(vec, row))
            for vec in span
            for c in range(field.q)
        }
    return span


def _random_subspaces(field, n, d, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(d)]
        s = linalg.Subspace.from_rows(field, n, rows)
        if s.dim == d:
            out.append(s)
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_normalized_span_matches_bruteforce(field):
    q = field.q
    n = 4 if q <= 5 else 3
    for d in range(1, n + 1):
        subs = _random_subspaces(field, n, d, 4, seed=q * 10 + d)
        for s, pts in zip(subs, _kernel_points(subs)):
            nonzero = _brute_span(field, s) - {(0,) * n}
            assert len(nonzero) == q ** d - 1
            # one normalized representative per projective point
            assert len(pts) == len(set(pts)) == (q ** d - 1) // (q - 1)
            want = {
                encode(v, q)
                for v in nonzero
                if next(x for x in v if x) == 1
            }
            assert set(pts) == want


def test_full_span_size():
    s = linalg.Subspace.from_rows(GF3, 3, [(1, 0, 2), (0, 1, 1)])
    (pts,) = _kernel_points([s])
    vecs = {(0, 0, 0)}
    for enc in pts:
        v = linalg.decode_vector(enc, 3, 3)
        vecs.update(tuple(GF3.mul(c, x) for x in v) for c in (1, 2))
    assert len(vecs) == 9


@pytest.mark.parametrize("field", [GF2, GF4, GF9], ids=["GF2", "GF4", "GF9"])
def test_point_blocks_do_not_change_points(field, monkeypatch):
    subs = _random_subspaces(field, 3, 2, 9, seed=5)
    want = _kernel_points(subs)
    for block in (1, 7, 2 * (field.q + 1)):
        monkeypatch.setattr(linalg, "_POINT_BLOCK", block)
        assert _kernel_points(subs) == want


def test_point_encodings_one_dimension_only():
    line = linalg.Subspace.from_rows(GF2, 3, [(1, 0, 0)])
    plane = linalg.Subspace.from_rows(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(InvalidParamsError):
        list(linalg.point_encodings([line, plane]))
    assert list(linalg.point_encodings([linalg.Subspace(GF2, 3, ())])) == []


def test_normalized_point_encodings_ascending():
    encs = list(linalg.normalized_point_encodings(4, 3))
    assert encs == sorted(encs)
    assert len(encs) == (3 ** 4 - 1) // 2


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (9, 2)])
def test_point_ordinals_invert_the_listing(q, n):
    encs = linalg.normalized_point_encodings(n, q)
    assert linalg.point_ordinals(encs, n, q).tolist() == list(range(len(encs)))
