import json
import time

import pytest

from spreadlab import construct, linalg
from spreadlab.bounds import SpreadParams, lower_bound, theta
from spreadlab.construct import (
    PartialSpread,
    build_lower_bound_spread,
    mult_map_matrix,
    spread_from_dict,
    verify_partial_spread,
)
from spreadlab.errors import AmbientMismatchError, FieldMismatchError
from spreadlab.gf import ext_field, field_for_order
from spreadlab.linalg import Subspace, intersect_dim, point_encodings


def P(q, n, t):
    return SpreadParams(q, n, t)


class TestMultMap:
    def test_zero_maps_to_zero(self):
        ext = ext_field(field_for_order(2), 3)
        assert mult_map_matrix(ext, 0, 3) == ((0, 0, 0),) * 3

    def test_one_gives_shift_structure(self):
        # a = 1: row i is the coordinate vector of g^i
        ext = ext_field(field_for_order(2), 3)
        mat = mult_map_matrix(ext, 1, 3)
        assert mat[0] == (1, 0, 0)
        assert mat[1] == (0, 1, 0)
        assert mat[2] == (0, 0, 1)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("t,m", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
    def test_rank_distance_exhaustive(self, q, t, m):
        # difference of any two distinct matrices has full rank t
        base = field_for_order(q)
        ext = ext_field(base, m)
        mats = [mult_map_matrix(ext, a, t) for a in range(ext.order)]
        for c in range(1, ext.order):
            diff = mats[c]  # M_a - M_b = M_{a-b}, so checking M_c suffices
            assert len(linalg.rref_rows(base, diff, m)) == t
        # and subtraction really does land back in the family
        a, b = ext.order - 1, 1
        sub = tuple(
            tuple(base.sub(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(mats[a], mats[b])
        )
        assert sub == mats[ext.sub(a, b)]

    def test_linearity(self):
        ext = ext_field(field_for_order(3), 2)
        for a in range(9):
            for b in range(9):
                s = ext.add(a, b)
                ma = mult_map_matrix(ext, a, 2)
                mb = mult_map_matrix(ext, b, 2)
                ms = mult_map_matrix(ext, s, 2)
                f = ext.base
                assert ms == tuple(
                    tuple(f.add(x, y) for x, y in zip(ra, rb))
                    for ra, rb in zip(ma, mb)
                )

    def test_t_out_of_range(self):
        ext = ext_field(field_for_order(2), 2)
        with pytest.raises(ValueError):
            mult_map_matrix(ext, 1, 3)


class TestBuild:
    def test_golden_sizes(self):
        assert build_lower_bound_spread(P(2, 7, 3)).size == 17
        assert build_lower_bound_spread(P(2, 6, 3)).size == 9
        assert build_lower_bound_spread(P(3, 5, 2)).size == 28

    def test_trivial_ambient(self):
        sp = build_lower_bound_spread(P(2, 5, 3))
        assert sp.size == 1
        assert sp.members[0].dim == 3
        assert sp.verified is True

    def test_grid_verifies_and_hits_bound(self):
        for q in (2, 3):
            for t in range(2, 5):
                for n in range(2 * t, 3 * t + 1):
                    sp = build_lower_bound_spread(P(q, n, t))
                    assert sp.verified is True
                    assert sp.size == lower_bound(P(q, n, t)), (q, n, t)

    def test_big_case_timing(self):
        t0 = time.monotonic()
        sp = build_lower_bound_spread(P(3, 12, 4))
        dt = time.monotonic() - t0
        assert sp.size == 6643
        assert sp.verified is True
        assert dt < 60

    def test_full_spread_covers_everything(self):
        # r = 0: members partition the nonzero points exactly
        sp = build_lower_bound_spread(P(2, 6, 2))
        seen = set()
        for _, block in point_encodings(sp.members):
            assert block.shape[1] == theta(2, 2)
            seen.update(block.ravel().tolist())
        assert len(seen) == theta(6, 2)

    def test_t1_spread_is_all_points(self):
        sp = build_lower_bound_spread(P(3, 3, 1))
        assert sp.size == theta(3, 3)

    def test_members_deterministic(self):
        a = build_lower_bound_spread(P(2, 8, 3))
        b = build_lower_bound_spread(P(2, 8, 3))
        assert a.members == b.members

    def test_first_level_shape(self):
        # first member is [I_t | 0]; later same-level members keep the
        # identity block and vary the tail
        sp = build_lower_bound_spread(P(2, 6, 2))
        rows0 = sp.members[0].rows
        assert rows0 == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
        for s in sp.members[:16]:
            assert s.pivots == (0, 1)


class TestVerify:
    def test_duplicate_member_reported(self):
        sp = build_lower_bound_spread(P(2, 6, 3))
        bad = PartialSpread(sp.params, sp.members + (sp.members[2],))
        res = verify_partial_spread(bad)
        assert not res.ok
        assert res.clash == (2, 9)

    def test_overlapping_pair_lex_min(self):
        f = field_for_order(2)
        s1 = Subspace.from_rows(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        s2 = Subspace.from_rows(f, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        s3 = Subspace.from_rows(f, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        res = verify_partial_spread(PartialSpread(P(2, 4, 2), (s1, s2, s3)))
        assert not res.ok
        assert res.clash == (0, 2)

    def test_wrong_dimension_rejected(self):
        f = field_for_order(2)
        line = Subspace.from_rows(f, 6, [(1, 0, 0, 0, 0, 0)])
        res = verify_partial_spread(PartialSpread(P(2, 6, 2), (line,)))
        assert not res.ok
        assert "dimension" in res.reason
        assert res.clash is None

    def test_point_cover_path_agrees(self):
        sp = build_lower_bound_spread(P(2, 7, 3))
        bad = PartialSpread(sp.params, sp.members + (sp.members[5],))
        res = verify_partial_spread(bad)
        assert res.ok is False
        assert res.clash == (5, 17)
        # over GF(4), two clashing pairs: the pair with the smaller second
        # index, (9, 17), is not the lexicographically least one, (3, 18)
        sp4 = build_lower_bound_spread(P(4, 4, 2))
        members = sp4.members + (sp4.members[9], sp4.members[3])
        pairs = [
            (i, j)
            for i in range(len(members))
            for j in range(i + 1, len(members))
            if intersect_dim(members[i], members[j]) > 0
        ]
        assert pairs == [(3, 18), (9, 17)]
        res = verify_partial_spread(PartialSpread(sp4.params, members))
        assert res.ok is False
        assert res.clash == (3, 18)

    def test_pairwise_path_agrees(self, monkeypatch):
        sp = build_lower_bound_spread(P(3, 6, 2))
        bad = PartialSpread(sp.params, sp.members[:40] + (sp.members[7],) + sp.members[40:])
        want = verify_partial_spread(bad)
        monkeypatch.setattr(construct, "VERIFY_POINT_BUDGET", 0)
        got = verify_partial_spread(bad)
        assert got == want
        assert got.clash == (7, 40)

    def test_ambient_mismatch_raises(self):
        f = field_for_order(2)
        s = Subspace.from_rows(f, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
        with pytest.raises(AmbientMismatchError):
            verify_partial_spread(PartialSpread(P(2, 6, 2), (s,)))

    def test_field_mismatch_raises(self):
        f3 = field_for_order(3)
        s = Subspace.from_rows(f3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(FieldMismatchError):
            verify_partial_spread(PartialSpread(P(2, 4, 2), (s,)))

    def test_empty_ok(self):
        res = verify_partial_spread(PartialSpread(P(2, 6, 2), ()))
        assert res.ok


class TestSerialization:
    def test_roundtrip(self):
        sp = build_lower_bound_spread(P(2, 7, 3))
        blob = json.dumps(sp.to_dict())
        back = spread_from_dict(json.loads(blob))
        assert back.params == sp.params
        assert back.members == sp.members
        assert back.verified is None
        assert verify_partial_spread(back).ok

    def test_roundtrip_q4(self):
        sp = build_lower_bound_spread(P(4, 4, 2))
        back = spread_from_dict(sp.to_dict())
        assert back.members == sp.members
        assert verify_partial_spread(back).ok
