import json

import pytest

from oracles import contains, hyperplane_duals
from spreadlab import partition as pt
from spreadlab.bounds import SpreadParams, theta
from spreadlab.construct import (
    PartialSpread,
    build_lower_bound_spread,
    spread_from_dict,
)
from spreadlab.errors import (
    BudgetExceededError,
    IdentityViolationError,
    InvalidParamsError,
    UnverifiedSpreadError,
)
from spreadlab.gf import field_for_order
from spreadlab.linalg import (
    Subspace,
    decode_vector,
    enumerate_subspaces,
    normalized_point_encodings,
    point_encodings,
)


def P(q, n, t):
    return SpreadParams(q, n, t)


def singles_partition(q, n):
    f = field_for_order(q)
    parts = tuple(
        Subspace.from_rows(f, n, [decode_vector(e, n, q)])
        for e in normalized_point_encodings(n, q).tolist()
    )
    return pt.SubspacePartition(q, n, parts)


class TestFromSpread:
    def test_type_2_5_2(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        assert part.dim_counts == {2: 9, 1: 4}

    def test_type_2_8_3(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 8, 3)))
        assert part.dim_counts == {3: 33, 1: 24}

    def test_full_spread_has_no_tail(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(3, 6, 3)))
        assert part.dim_counts == {3: 28}

    def test_point_budget(self):
        f = field_for_order(2)
        eye = [tuple(int(i == j) for j in range(24)) for i in range(24)]
        spread = PartialSpread(
            P(2, 24, 2), (Subspace.from_rows(f, 24, eye[:2]),), verified=True
        )
        with pytest.raises(BudgetExceededError):
            pt.partition_from_spread(spread)

    def test_refuses_unverified(self):
        sp = build_lower_bound_spread(P(2, 6, 2))
        raw = PartialSpread(sp.params, sp.members)  # verified defaults to None
        with pytest.raises(UnverifiedSpreadError):
            pt.partition_from_spread(raw)

    def test_roundtrip(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        back = pt.partition_from_dict(json.loads(json.dumps(part.to_dict())))
        assert back == part


class TestVerifyPartition:
    def test_spread_induced_ok(self):
        for q, n, t in [(2, 5, 2), (2, 7, 3), (3, 5, 2)]:
            part = pt.partition_from_spread(build_lower_bound_spread(P(q, n, t)))
            assert pt.verify_partition(part).ok

    def test_all_singles_ok(self):
        assert pt.verify_partition(singles_partition(3, 3)).ok

    def test_double_cover_found(self):
        part = singles_partition(2, 3)
        doubled = pt.SubspacePartition(2, 3, part.parts + (part.parts[0],))
        res = pt.verify_partition(doubled)
        assert not res.ok
        assert "parts 0 and 7" in res.reason
        assert res.witness == (1, 0, 0)

    def test_missing_point_found(self):
        part = singles_partition(2, 3)
        res = pt.verify_partition(pt.SubspacePartition(2, 3, part.parts[1:]))
        assert not res.ok
        assert res.reason == "point not covered"
        assert res.witness == (1, 0, 0)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            pt.verify_partition(pt.SubspacePartition(2, 23, ()))


class TestProfile:
    def test_full_spread_v42(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 4, 2)))
        prof = pt.hyperplane_profile(part)
        assert prof.dims == (2,)
        assert len(prof.b_vectors) == 15
        assert set(prof.b_vectors) == {(1,)}
        assert prof.s_b == {(1,): 15}

    def test_partial_spread_v52(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        prof = pt.hyperplane_profile(part)
        assert prof.dims == (2, 1)
        assert sum(b[0] * c for b, c in prof.s_b.items()) == 9 * theta(3, 2)
        assert sum(b[1] * c for b, c in prof.s_b.items()) == 4 * theta(4, 2)
        for b in prof.s_b:
            assert 1 + 4 * b[0] + 2 * b[1] == 13

    def test_all_singles(self):
        prof = pt.hyperplane_profile(singles_partition(2, 3))
        assert prof.dims == (1,)
        assert prof.s_b == {(3,): 7}

    def test_whole_space_part(self):
        f = field_for_order(2)
        whole = Subspace.from_rows(f, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        prof = pt.hyperplane_profile(pt.SubspacePartition(2, 3, (whole,)))
        assert prof.s_b == {(0,): 7}

    def test_generic_path_gf4(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(4, 4, 2)))
        prof = pt.hyperplane_profile(part)
        assert prof.dims == (2,)
        assert prof.s_b == {(1,): theta(4, 4)}

    def test_profiles_match_brute_force(self):
        # independent recount via explicit containment tests; all but the
        # first case have holes, and GF(9) has odd characteristic
        for q, n, t in [(3, 4, 2), (4, 5, 2), (8, 3, 2), (9, 3, 2)]:
            field = field_for_order(q)
            part = pt.partition_from_spread(build_lower_bound_spread(P(q, n, t)))
            assert (1 in part.dim_counts) == (q != 3)
            prof = pt.hyperplane_profile(part)
            duals = hyperplane_duals(n, field)
            assert len(duals) == len(prof.b_vectors)
            for h, b in zip(duals, prof.b_vectors):
                for d, k in zip(prof.dims, b):
                    truth = sum(
                        1 for s in part.parts
                        if s.dim == d and contains(field, h, s)
                    )
                    assert truth == k, (q, n, t, h, d)

    def test_non_partition_rejected(self):
        part = singles_partition(2, 3)
        broken = pt.SubspacePartition(2, 3, part.parts[1:])
        with pytest.raises(IdentityViolationError):
            pt.hyperplane_profile(broken)

    def test_point_cap(self):
        with pytest.raises(BudgetExceededError):
            pt.hyperplane_profile(pt.SubspacePartition(2, 30, ()))

    def test_to_dict_shape(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        d = pt.hyperplane_profile(part).to_dict()
        assert d["dims"] == [2, 1]
        assert d["dim_counts"] == {"2": 9, "1": 4}
        assert sum(rec["hyperplanes"] for rec in d["s_b"]) == theta(5, 2)


class TestHeden:
    def test_case_iv_unsatisfied(self):
        c = pt.heden_case(2, 1, 2, 2)
        assert (c.case, c.required_min, c.satisfied) == ("iv", 4, False)
        assert c.divides and c.wide and not c.exceptional

    def test_case_ii_exceptional(self):
        c = pt.heden_case(7, 1, 3, 2)
        assert c.case == "ii"
        assert c.satisfied and c.exceptional

    def test_case_ii_generic_branch(self):
        c = pt.heden_case(8, 1, 2, 3)
        assert c.case == "ii"
        assert c.satisfied and not c.exceptional
        c = pt.heden_case(5, 1, 2, 3)
        assert c.case == "ii"
        assert not c.satisfied
        c = pt.heden_case(4, 1, 2, 3)  # theta-form (9-1)/(3-1)
        assert c.satisfied and c.exceptional

    def test_case_iv_satisfied(self):
        c = pt.heden_case(8, 1, 3, 2)
        assert (c.case, c.satisfied) == ("iv", True)

    def test_case_i(self):
        c = pt.heden_case(5, 2, 3, 2)
        assert (c.case, c.required_min, c.satisfied) == ("i", 5, True)
        assert not pt.heden_case(3, 2, 3, 2).satisfied

    def test_case_iii(self):
        c = pt.heden_case(4, 2, 3, 2)
        assert (c.case, c.required_min, c.satisfied) == ("iii", 6, False)
        assert pt.heden_case(6, 2, 3, 2).satisfied

    def test_rejects(self):
        with pytest.raises(InvalidParamsError):
            pt.heden_case(0, 1, 2, 2)
        with pytest.raises(InvalidParamsError):
            pt.heden_case(3, 2, 2, 2)
        with pytest.raises(InvalidParamsError):
            pt.heden_case(3, 0, 2, 2)

    def test_v42_brute_force_agrees(self):
        # the tail theorem says no partition of V(4, 2) can pair one solid
        # and two lines with a 2-point tail: case (iv) demands 4 singletons.
        assert not pt.heden_case(2, 1, 2, 2).satisfied
        f = field_for_order(2)
        all_pts = set(normalized_point_encodings(4, 2).tolist())
        lines = list(enumerate_subspaces(4, 2, f))
        solids = list(enumerate_subspaces(4, 3, f))

        def points(subspaces):
            return [
                frozenset(row)
                for _, block in point_encodings(subspaces)
                for row in block.tolist()
            ]

        line_pts = dict(zip(lines, points(lines)))
        found = 0
        for solid, solid_pts in zip(solids, points(solids)):
            rest = all_pts - solid_pts
            inside = [s for s in lines if line_pts[s] <= rest]
            for i, s1 in enumerate(inside):
                for s2 in inside[i + 1 :]:
                    if not line_pts[s1] & line_pts[s2]:
                        found += 1
        assert found == 0
