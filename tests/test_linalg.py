from __future__ import annotations

import random
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    contains,
    decode,
    encode,
    grouped,
    hyperplane_duals,
    image,
    intersect_dim,
    pairwise_least_shared,
    rref_rows,
    subspace,
)
from spreadlab import gf, linalg
from spreadlab.bounds import theta
from spreadlab import partition as pt
from spreadlab.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    InvalidParamsError,
)

GF2 = gf.field_new(2)
GF3 = gf.field_new(3)
GF4 = gf.field_new(2, 2)
GF5 = gf.field_new(5)
GF8 = gf.field_new(2, 3)
GF9 = gf.field_new(3, 2)
GF16 = gf.field_new(2, 4)
GF256 = gf.field_new(2, 8)
KERNEL_FIELDS = [GF2, GF3, GF4, GF5, GF8, GF9, GF16]
KERNEL_IDS = ["GF2", "GF3", "GF4", "GF5", "GF8", "GF9", "GF16"]


# -- rref ---------------------------------------------------------------------


def _rref(field, rows, n):
    """The package's RREF of one basis, zero rows dropped: the block
    rows[None] of rref_blocks."""
    reduced, ranks = linalg.rref_blocks(field, np.reshape(rows, (1, len(rows), n)))
    return tuple(map(tuple, reduced[0, :ranks[0]].tolist()))


def test_rref_identity_fixed_point():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _rref(GF2, rows, 3) == rows


def test_rref_swaps_and_reduces():
    assert _rref(GF2, [(0, 1), (1, 1)], 2) == ((1, 0), (0, 1))


def test_rref_zero_matrix_drops_rows():
    assert _rref(GF3, [(0, 0, 0), (0, 0, 0)], 3) == ()


def test_rref_normalizes_pivot_to_one():
    out = _rref(GF3, [(2, 1, 0), (0, 0, 2)], 3)
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
    first = _rref(field, rows, 4)
    assert _rref(field, first, 4) == first


@pytest.mark.parametrize(
    "field",
    [GF2, GF3, GF4, GF5, GF8, GF9, gf.field_new(5, 2), gf.field_new(2, 17)],
    ids=lambda f: f"GF{f.q}",
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rref_blocks_match_the_oracle(field, data):
    # blocks drawn from a small pool of rows and the zero row repeat rows,
    # so a batch mixes full-rank, rank-deficient and zero blocks
    n = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, field.q - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    k = data.draw(st.integers(0, 5))
    block = st.lists(st.sampled_from(pool + [[0] * n]), min_size=k, max_size=k)
    blocks = data.draw(st.lists(block, min_size=1, max_size=6))
    array = np.array(blocks, dtype=np.int64).reshape(len(blocks), k, n)
    reduced, ranks = linalg.rref_blocks(field, array)
    for rows, got, rank in zip(blocks, reduced.tolist(), ranks.tolist()):
        want = rref_rows(field, rows, n)
        assert rank == len(want)
        assert tuple(map(tuple, got[:rank])) == want
        assert not any(map(any, got[rank:]))


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_canonical_form_invariant_under_row_ops(field):
    rng = random.Random(4091 + field.q)
    n, d = 5, 3
    base = [
        (1, 0, 0, 1, 0),
        (0, 1, 0, 1, 1),
        (0, 0, 1, 0, 1),
    ]
    canon = _rref(field, base, n)
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
        assert _rref(field, rows, n) == canon


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int16])
def test_numpy_integer_rows_give_the_int_result(dtype):
    rows = [(2, 1, 0, 3, 1), (0, 3, 2, 0, 1), (0, 0, 3, 3, 2)]
    want = subspace(GF4, 5, rows)
    assert len(want.rows) == 3
    as_arrays = [np.array(r, dtype=dtype) for r in rows]
    as_scalars = [tuple(map(dtype, r)) for r in rows]
    for given in (as_arrays, as_scalars):
        doc = {"q": 4, "n": 5, "dim": 3, "rows": given}
        (got,) = linalg.subspaces_from_dicts([doc], GF4, 5)
        assert got == want
        assert all(type(x) is int for r in got.rows for x in r)


# -- subspaces and intersections ---------------------------------------------


def test_subspace_equality_is_structural():
    a = subspace(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    b = subspace(GF2, 3, [(1, 1, 1), (0, 0, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_intersect_planes_in_v3():
    xz = subspace(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    yz = subspace(GF2, 3, [(0, 1, 0), (0, 0, 1)])
    assert intersect_dim(xz, yz) == 1


def test_distinct_lines_are_disjoint():
    a = subspace(GF3, 2, [(1, 0)])
    b = subspace(GF3, 2, [(0, 1)])
    assert intersect_dim(a, b) == 0


def test_self_intersection_is_dim():
    s = subspace(GF3, 4, [(1, 0, 2, 1), (0, 1, 1, 0)])
    assert intersect_dim(s, s) == 2


def _point_docs(q, n, count):
    """Documents of count copies of the point (1, 0, ..., 0) of V(n, q)."""
    return [{"q": q, "n": n, "dim": 1, "rows": [[1] + [0] * (n - 1)]}] * count


def test_ambient_mismatch():
    docs = _point_docs(2, 3, 1) + _point_docs(2, 4, 1)
    with pytest.raises(AmbientMismatchError):
        linalg.subspaces_from_dicts(docs, GF2, 3)


def test_field_mismatch():
    docs = _point_docs(2, 3, 1) + _point_docs(3, 3, 1)
    with pytest.raises(FieldMismatchError):
        linalg.subspaces_from_dicts(docs, GF2, 3)


def test_parse_names_the_first_member_outside():
    inside = _point_docs(2, 3, 3)
    assert len(linalg.subspaces_from_dicts(inside, GF2, 3)) == 3
    msg = r"^member 3 over GF\(4\), spread has q = 2$"
    with pytest.raises(FieldMismatchError, match=msg):
        linalg.subspaces_from_dicts(inside + _point_docs(4, 3, 2), GF2, 3)
    msg = "^member 1 in ambient 4, spread has n = 3$"
    with pytest.raises(AmbientMismatchError, match=msg):
        linalg.subspaces_from_dicts(inside[:1] + _point_docs(2, 4, 1) + inside, GF2, 3)
    # the first member outside is named before a later member's row error
    bad_row = {"q": 2, "n": 3, "dim": 1, "rows": [[1, 0]]}
    msg = "^member 1 in ambient 2, spread has n = 3$"
    with pytest.raises(AmbientMismatchError, match=msg):
        linalg.subspaces_from_dicts(inside[:1] + _point_docs(2, 2, 1) + [bad_row], GF2, 3)


def test_subspace_json_roundtrip():
    s = subspace(GF4, 3, [(1, 2, 3), (2, 1, 1)])
    (d,) = grouped(GF4, 3, [s]).to_dicts()
    assert set(d) == {"q", "n", "dim", "rows"}
    assert tuple(linalg.subspaces_from_dicts([d], GF4, 3)) == (s,)


def test_subspace_from_dict_checks_dim():
    d = {"q": 2, "n": 3, "dim": 2, "rows": [[1, 0, 0], [1, 0, 0]]}
    with pytest.raises(InvalidParamsError):
        linalg.subspaces_from_dicts([d], GF2, 3)


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
        assert len(s.rows) == 2
        assert _rref(GF2, s.rows, 4) == s.rows  # already canonical
    # the records are built positionally: each field must sit in its place
    for field in (GF2, GF3, GF4):
        for d in range(5):
            for s in linalg.enumerate_subspaces(4, d, field):
                assert isinstance(s, linalg.Subspace)
                assert s.field is field and s.ambient == 4 and len(s.rows) == d
                built = linalg.Subspace(field, 4, s.rows)
                assert s == built and hash(s) == hash(built)
                with pytest.raises(AttributeError):
                    s.rows = ()


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


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(linalg, "DEFAULT_ENUM_BUDGET", 10_000)
    with pytest.raises(BudgetExceededError):
        list(linalg.enumerate_subspaces(7, 3, GF2))


def test_enumeration_checks_at_the_call(monkeypatch):
    # nothing is read from the iterators: the call itself raises
    with pytest.raises(InvalidParamsError):
        linalg.enumerate_subspaces(3, 5, GF2)
    with pytest.raises(InvalidParamsError):
        linalg.enumerate_subspaces(3, -1, GF2)
    monkeypatch.setattr(linalg, "DEFAULT_ENUM_BUDGET", 10_000)
    with pytest.raises(BudgetExceededError):
        linalg.enumerate_subspaces(7, 3, GF2)


def test_enumeration_dim_zero():
    subs = list(linalg.enumerate_subspaces(3, 0, GF2))
    assert len(subs) == 1
    assert subs[0].rows == ()


def _grid_order(n, d, q):
    """RREF bases by pivot set, then free cells read row-major, first cell
    most significant, each filled into a fresh grid."""
    out = []
    for pivots in combinations(range(n), d):
        cells = [
            (i, c) for i in range(d) for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        for values in product(range(q), repeat=len(cells)):
            grid = [[0] * n for _ in range(d)]
            for i in range(d):
                grid[i][pivots[i]] = 1
            for (i, c), v in zip(cells, values):
                grid[i][c] = v
            out.append(tuple(map(tuple, grid)))
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_subspace_bases_follow_enumeration(field):
    for n in range(1, 5):
        for d in range(n + 1):
            subs = [s.rows for s in linalg.enumerate_subspaces(n, d, field)]
            assert subs == _grid_order(n, d, field.q)
            bases, ords = linalg.subspace_bases(n, d, field)
            assert bases.shape == (len(subs), d, n)
            assert bases.dtype == np.min_scalar_type(field.q - 1)
            assert [tuple(map(tuple, b)) for b in bases.tolist()] == subs
            # each basis row is a point, numbered as point_ordinals does
            encs = bases.astype(np.int64) @ field.q ** np.arange(n)
            assert ords.shape == (len(subs), d)
            assert ords.dtype == np.min_scalar_type(theta(n, field.q) - 1)
            assert ords.tolist() == linalg.point_ordinals(encs, n, field.q).tolist()


def test_subspace_bases_budget_before_allocation(monkeypatch):
    # 376,805 planes of V(6, 4) against a budget of 10
    monkeypatch.setattr(linalg, "DEFAULT_ENUM_BUDGET", 10)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="376805"):
        linalg.subspace_bases(6, 3, GF4)
    assert time.monotonic() - start < 1.0
    with pytest.raises(InvalidParamsError):
        linalg.subspace_bases(3, 4, GF2)


# -- hyperplanes ---------------------------------------------------------------
#
# Hyperplanes are numbered by the normalized encodings of their dual vectors.
# The hyperplanes containing a subspace (the points of its annihilator) are
# read from hyperplane_profile, on a partition in which the subspace is the
# only part of its dimension; the oracles list both by brute force.


def _bases(subspaces):
    """The bases of subspaces of one field, ambient space and dimension, as
    one (m, d, n) array."""
    d, n = len(subspaces[0].rows), subspaces[0].ambient
    return np.array([s.rows for s in subspaces]).reshape(len(subspaces), d, n)


def _points(s):
    """Normalized point encodings of one subspace, from the kernel."""
    blocks = linalg.point_encodings_of_bases(s.field, _bases([s]))
    return [e for _, block in blocks for e in block[0].tolist()]


def _with_singles(s):
    """Partition of the ambient space into s and the points outside it."""
    field, n = s.field, s.ambient
    inside = set(_points(s))
    # a normalized vector is already the RREF basis of its point
    singles = tuple(
        linalg.Subspace(field, n, (decode(e, n, field.q),))
        for e in linalg.normalized_point_encodings(n, field.q).tolist()
        if e not in inside
    )
    return pt.SubspacePartition(grouped(field, n, (s,) + singles))


def _profile_containing(s):
    """Dual encodings of the hyperplanes that hyperplane_profile counts s in,
    for s of dimension 0 or at least 2."""
    prof = pt.hyperplane_profile(_with_singles(s))
    assert prof.dim_counts[len(s.rows)] == 1
    k = prof.dims.index(len(s.rows))
    duals = linalg.normalized_point_encodings(s.ambient, s.field.q).tolist()
    return [h for h, b in zip(duals, prof.b_vectors) if b[k]]


def test_hyperplane_count_v4():
    duals = [
        decode(int(e), 4, 2)
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
        inside = [encode(h, 2) for h in duals if contains(GF2, h, s)]
        assert len(inside) == want
        if d == 1:  # a point shares its dimension with the other singles
            prof = pt.hyperplane_profile(_with_singles(s))
            assert prof.s_b == {(want,): len(duals)}
        else:
            assert _profile_containing(s) == inside


def test_contains_dim_zero_in_all():
    zero = linalg.Subspace(GF2, 3, ())
    duals = hyperplane_duals(3, GF2)
    assert all(contains(GF2, h, zero) for h in duals)
    assert _profile_containing(zero) == [encode(h, 2) for h in duals]


def test_contains_generic_field():
    # each of the 21 lines of V(3,4) is itself a hyperplane: the one
    # hyperplane containing it is its own dual
    duals = hyperplane_duals(3, GF4)
    lines = list(linalg.enumerate_subspaces(3, 2, GF4))
    assert len(lines) == len(duals) == 21
    for s in lines:
        inside = [encode(h, 4) for h in duals if contains(GF4, h, s)]
        assert len(inside) == 1
        assert _profile_containing(s) == inside


# -- annihilator ---------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
def test_annihilator_dims_and_orthogonality(field):
    # the hyperplanes containing a plane of V(4, q) form a plane of the dual
    # space, and the vectors orthogonal to all of them are the plane again
    q = field.q
    points = [
        decode(e, 4, q)
        for e in linalg.normalized_point_encodings(4, q).tolist()
    ]
    for s in linalg.enumerate_subspaces(4, 2, field):
        ann = [decode(h, 4, q) for h in _profile_containing(s)]
        assert len(ann) == q + 1
        for w in ann:
            assert contains(field, w, s)
        back = [
            encode(v, q) for v in points
            if all(contains(field, w, linalg.Subspace(field, 4, (v,))) for w in ann)
        ]
        assert back == sorted(_points(s))


# -- point encodings -----------------------------------------------------------


def _kernel_points(subspaces):
    out = {}
    for start, block in linalg.point_encodings_of_bases(
        subspaces[0].field, _bases(subspaces)
    ):
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
        s = subspace(field, n, rows)
        if len(s.rows) == d:
            out.append(s)
    return out


# (field, n, dims): every dimension of a small space, then spaces with
# q^n >= 2^63, whose points the kernel lists as Python ints
SPAN_CASES = [(f, 4 if f.q <= 5 else 3, None) for f in KERNEL_FIELDS] + [
    (GF2, 64, [2]), (GF256, 8, [1, 2]), (GF3, 40, [2]),
]
SPAN_IDS = KERNEL_IDS + ["GF2-V64", "GF256-V8", "GF3-V40"]


@pytest.mark.parametrize("field,n,dims", SPAN_CASES, ids=SPAN_IDS)
def test_normalized_span_matches_bruteforce(field, n, dims):
    q = field.q
    for d in dims or range(1, n + 1):
        subs = _random_subspaces(field, n, d, 4, seed=q * 10 + d)
        (_, block), = linalg.point_encodings_of_bases(field, _bases(subs))
        assert block.dtype == (object if q ** n >= 2 ** 63 else np.int64)
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
    s = subspace(GF3, 3, [(1, 0, 2), (0, 1, 1)])
    (pts,) = _kernel_points([s])
    vecs = {(0, 0, 0)}
    for enc in pts:
        v = decode(enc, 3, 3)
        vecs.update(tuple(GF3.mul(c, x) for x in v) for c in (1, 2))
    assert len(vecs) == 9


@pytest.mark.parametrize("field", [GF2, GF4, GF9], ids=["GF2", "GF4", "GF9"])
def test_point_blocks_do_not_change_points(field, monkeypatch):
    subs = _random_subspaces(field, 3, 2, 9, seed=5)
    want = _kernel_points(subs)
    for block in (1, 7, 2 * (field.q + 1)):
        monkeypatch.setattr(linalg, "_POINT_BLOCK", block)
        assert _kernel_points(subs) == want


def _mapped(field, matrix, a):
    """The element whose base-p digits are matrix times those of a."""
    p, e = field.p, field.e
    digits = [a // p ** l % p for l in range(e)]
    return sum(
        sum(matrix[k][l] * digits[l] for l in range(e)) % p * p ** k for k in range(e)
    )


def _scaled(enc, c, p):
    """c times the vector with encoding enc, digit by base-p digit."""
    out, place = 0, 1
    while enc:
        out += enc % p * c % p * place
        enc, place = enc // p, place * p
    return out


LINE_FIELDS = [GF2, GF4, GF8, GF16, GF3, GF9]


@pytest.mark.parametrize("field", LINE_FIELDS, ids=[f"GF{f.q}" for f in LINE_FIELDS])
def test_lines_list_one_vector_per_gf_p_line(field):
    # with lines=M, a subspace lists one vector of each GF(p)-line of its
    # span with each coordinate's digits mapped by M: for M invertible,
    # (q^d - 1)/(p - 1) distinct lines that cover the mapped span
    p, e, q, n = field.p, field.e, field.q, 3
    rng = random.Random(q)
    matrices = [np.eye(e, dtype=np.int64)]
    while len(matrices) < 3:
        m = np.array([[rng.randrange(p) for _ in range(e)] for _ in range(e)])
        if linalg.rref_blocks(gf.field_new(p), m[None])[1][0] == e:
            matrices.append(m)
    for d in range(1, n + 1):
        subs = _random_subspaces(field, n, d, 2, seed=q + d)
        for m in matrices:
            listed = {}
            for start, block in linalg.point_encodings_of_bases(
                field, _bases(subs), lines=m
            ):
                assert block.dtype == np.int64
                listed.update({start + k: r for k, r in enumerate(block.tolist())})
            for i, s in enumerate(subs):
                span = {
                    encode([_mapped(field, m, a) for a in v], q)
                    for v in _brute_span(field, s)
                } - {0}
                assert len(span) == q ** d - 1
                lines = {
                    frozenset(_scaled(x, c, p) for c in range(1, p)) for x in listed[i]
                }
                assert len(listed[i]) == len(lines) == (q ** d - 1) // (p - 1)
                assert set(listed[i]) <= span


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (9, 3), (256, 2)])
def test_point_of_a_1_subspace_is_its_rref_row(q, n):
    field = gf.field_for_order(q)
    bases, _ = linalg.subspace_bases(n, 1, field)
    blocks = linalg.point_encodings_of_bases(field, bases)
    listed = np.concatenate([block for _, block in blocks])
    assert listed.shape == (len(bases), 1)
    assert listed.dtype == np.int64
    assert listed[:, 0].tolist() == (bases[:, 0] @ q ** np.arange(n)).tolist()


def test_zero_subspace_has_no_points():
    zero = np.zeros((2, 0, 3), np.uint8)
    assert list(linalg.point_encodings_of_bases(GF2, zero)) == []


def test_normalized_point_encodings_ascending():
    encs = list(linalg.normalized_point_encodings(4, 3))
    assert encs == sorted(encs)
    assert len(encs) == (3 ** 4 - 1) // 2


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (9, 2)])
def test_point_ordinals_invert_the_listing(q, n):
    encs = linalg.normalized_point_encodings(n, q)
    assert linalg.point_ordinals(encs, n, q).tolist() == list(range(len(encs)))


@pytest.mark.parametrize("field,n", [
    (GF2, 4), (GF3, 3), (GF4, 3), (GF5, 2), (GF8, 2), (GF9, 3), (GF16, 2),
])
def test_point_images_match_the_oracle(field, n):
    # random invertible matrices, and the identity: every image is the
    # oracle's, every row a permutation of the points
    rng = random.Random(field.q * 10 + n)
    mats = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    while len(mats) < 4:
        m = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        if len(rref_rows(field, m, n)) == n:
            mats.append(m)
    encs = linalg.normalized_point_encodings(n, field.q).tolist()
    ordinal = {e: i for i, e in enumerate(encs)}
    images = linalg.point_images(field, np.array(mats))
    assert images.shape == (len(mats), len(encs))
    assert images[0].tolist() == list(range(len(encs)))
    for m, row in zip(mats, images.tolist()):
        want = [ordinal[encode(image(field, decode(e, n, field.q), m), field.q)]
                for e in encs]
        assert row == want


def test_least_shared_pair_matches_the_pairwise_oracle():
    # random sets of subspaces of mixed dimension, most with a shared point
    rng = random.Random(562)
    met = 0
    for _ in range(300):
        q, n = rng.choice([2, 3, 4, 5]), rng.randint(2, 6)
        field = gf.field_for_order(q)
        size, members = rng.randint(1, 7), []
        while len(members) < size:
            rows = [[rng.randrange(q) for _ in range(n)]
                    for _ in range(rng.randint(1, min(n - 1, 3)))]
            s = subspace(field, n, rows)
            if s.rows:
                members.append(s)
        want = pairwise_least_shared(members)
        assert linalg.least_shared_pair(grouped(field, n, members)) == want, (q, n, members)
        met += want is not None
    assert 100 < met < 300
