import json

import numpy as np
import pytest

from oracles import (
    b_vector_groups,
    cover_faults,
    decode,
    grouped,
    profile_b_vectors,
    subspace,
)
from spreadlab import linalg
from spreadlab import partition as pt
from spreadlab.bounds import SpreadParams, theta
from spreadlab.check import check_certificate
from spreadlab.construct import PartialSpread, build_lower_bound_spread
from spreadlab.errors import (
    BudgetExceededError,
    IdentityViolationError,
    UnverifiedSpreadError,
)
from spreadlab.gf import field_for_order
from spreadlab.linalg import (
    Subspace,
    enumerate_subspaces,
    normalized_point_encodings,
    point_encodings_of_bases,
)


def P(q, n, t):
    return SpreadParams(q, n, t)


def partition_of(q, n, parts):
    """The claimed partition of V(n, q) into the Subspace records parts."""
    return pt.SubspacePartition(grouped(field_for_order(q), n, parts))


def singles_partition(q, n):
    return with_singles(q, n, ())


def with_singles(q, n, big):
    """Partition of V(n, q) into the parts ``big`` and one single for each
    point they leave uncovered."""
    f = field_for_order(q)
    covered = {
        e
        for s in big
        for _, b in point_encodings_of_bases(f, np.array([s.rows]))
        for e in b[0].tolist()
    }
    singles = tuple(
        Subspace(f, n, (decode(e, n, q),))
        for e in normalized_point_encodings(n, q).tolist()
        if e not in covered
    )
    return partition_of(q, n, tuple(big) + singles)


def _three_dimensions():
    """V(5, 2) as a plane, a line disjoint from it and the 21 points left."""
    f = field_for_order(2)
    eye = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    plane = subspace(f, 5, eye[:3])
    line = subspace(f, 5, eye[3:])
    return with_singles(2, 5, (plane, line))


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

    def test_refuses_past_the_budget(self):
        f = field_for_order(2)
        eye = [tuple(int(i == j) for j in range(24)) for i in range(24)]
        spread = PartialSpread(
            P(2, 24, 2), grouped(f, 24, [subspace(f, 24, eye[:2])]), verified=True
        )
        with pytest.raises(BudgetExceededError):
            pt.partition_from_spread(spread)

    def test_refuses_unverified(self):
        sp = build_lower_bound_spread(P(2, 6, 2))
        raw = PartialSpread(sp.params, sp.members)  # verified defaults to None
        with pytest.raises(UnverifiedSpreadError):
            pt.partition_from_spread(raw)

    def test_roundtrip(self):
        # parts of two dimensions parse back, in order, from their documents
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        docs = json.loads(json.dumps(part.parts.to_dicts()))
        assert linalg.subspaces_from_dicts(docs, field_for_order(2), 5) == part.parts


class TestVerifyPartition:
    # the exact-cover oracle lists points from its own field tables, against
    # the package's point numbering and hole fill

    def test_spread_induced_ok(self):
        for q, n, t in [(2, 5, 2), (2, 7, 3), (3, 5, 2), (2, 8, 3), (3, 6, 3), (4, 5, 2)]:
            part = pt.partition_from_spread(build_lower_bound_spread(P(q, n, t)))
            assert cover_faults(field_for_order(q), n, part.parts) == ([], [])

    def test_all_singles_ok(self):
        part = singles_partition(3, 3)
        assert cover_faults(field_for_order(3), 3, part.parts) == ([], [])

    def test_double_cover_found(self):
        part = singles_partition(2, 3)
        parts = tuple(part.parts)
        doubled = partition_of(2, 3, (*parts, parts[0]))
        assert cover_faults(field_for_order(2), 3, doubled.parts) == ([1], [])
        # each hyperplane holds 3 or 4 of the 8 parts, so 1 + 2 b_1 != 8
        with pytest.raises(IdentityViolationError, match=r"hyperplane \(1, 0, 0\):"):
            pt.hyperplane_profile(doubled)

    def test_missing_point_found(self):
        part = singles_partition(2, 3)
        missing = partition_of(2, 3, tuple(part.parts)[1:])
        assert cover_faults(field_for_order(2), 3, missing.parts) == ([], [1])


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
        whole = subspace(f, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        prof = pt.hyperplane_profile(partition_of(2, 3, (whole,)))
        assert prof.s_b == {(0,): 7}

    def test_generic_path_gf4(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(4, 4, 2)))
        prof = pt.hyperplane_profile(part)
        assert prof.dims == (2,)
        assert prof.s_b == {(1,): theta(4, 4)}

    def test_profiles_match_brute_force(self):
        # independent recount via explicit containment tests; all spread
        # cases but the first have holes, and GF(9) and GF(25) have odd
        # characteristic
        cases = [(3, 4, 2), (4, 5, 2), (8, 3, 2), (9, 3, 2), (16, 3, 2), (25, 3, 2)]
        parts = []
        for q, n, t in cases:
            part = pt.partition_from_spread(build_lower_bound_spread(P(q, n, t)))
            assert (1 in part.dim_counts) == (q != 3)
            parts.append(part)
        parts.append(_three_dimensions())
        assert parts[-1].dim_counts == {3: 1, 2: 1, 1: 21}
        # a line off the coordinate axes, over fields whose trace pairing on
        # the polynomial basis is no field multiplication
        for q in (8, 9):
            line = subspace(field_for_order(q), 3, [(1, 0, 2), (0, 1, 3)])
            parts.append(with_singles(q, 3, (line,)))
        for part in parts:
            field = field_for_order(part.q)
            assert cover_faults(field, part.n, part.parts) == ([], [])
            prof = pt.hyperplane_profile(part)
            want = profile_b_vectors(field, part.n, part.parts)
            assert list(prof.b_vectors) == want, (part.q, part.n, part.dim_counts)

    def test_non_partition_rejected(self):
        part = singles_partition(2, 3)
        broken = partition_of(2, 3, tuple(part.parts)[1:])
        # every hyperplane breaks 1 + 2 b_1 = 6; the first is (1, 0, 0)
        with pytest.raises(IdentityViolationError, match=r"hyperplane \(1, 0, 0\):"):
            pt.hyperplane_profile(broken)

    def test_inexact_division_names_hyperplane(self, monkeypatch):
        # lines of parts in a hyperplane past n_d theta_(de-1) come in
        # multiples of p^(de-1); a miscount must not round away
        real = pt._orthogonal_counts

        def off_by_one(counts, p, at):
            out = real(counts, p, at)
            out[3] += 1
            return out

        monkeypatch.setattr(pt, "_orthogonal_counts", off_by_one)
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 4, 2)))
        with pytest.raises(
            IdentityViolationError, match=r"hyperplane \(0, 0, 1, 0\):.* remainder mod 2"
        ):
            pt.hyperplane_profile(part)

    def test_point_cap(self):
        with pytest.raises(BudgetExceededError):
            pt.hyperplane_profile(partition_of(2, 30, ()))

    # a partition is of its parts' space: seven copies of a point written
    # in V(4, 2) or V(2, 2), or over GF(4), are refused as a partition of
    # that space, not checked against a V(3, 2) kept beside them
    @pytest.mark.parametrize("check", [pt.hyperplane_profile])
    @pytest.mark.parametrize("ambient", [4, 2])
    def test_part_in_other_ambient_rejected(self, check, ambient):
        point = Subspace(field_for_order(2), ambient, ((1,) + (0,) * (ambient - 1),))
        part = partition_of(2, ambient, (point,) * 7)
        assert (part.q, part.n) == (2, ambient)
        with pytest.raises(IdentityViolationError, match=r"^hyperplane \(1, 0"):
            check(part)

    @pytest.mark.parametrize("check", [pt.hyperplane_profile])
    def test_part_over_other_field_rejected(self, check):
        point = Subspace(field_for_order(4), 3, ((1, 0, 0),))
        part = partition_of(4, 3, (point,) * 7)
        assert (part.q, part.n) == (4, 3)
        with pytest.raises(IdentityViolationError, match=r"^hyperplane \(1, 0, 0\)"):
            check(part)

    def test_to_dict_shape(self):
        part = pt.partition_from_spread(build_lower_bound_spread(P(2, 5, 2)))
        d = pt.hyperplane_profile(part).to_dict()
        assert d["dims"] == [2, 1]
        assert d["dim_counts"] == {"2": 9, "1": 4}
        assert sum(rec["hyperplanes"] for rec in d["s_b"]) == theta(5, 2)


def _grouped_against_the_oracle(part, monkeypatch):
    """The profile of part, after checking its s_b, in order, and its
    b_vectors against the Counter oracle on the b-vector table it grouped."""
    seen = []
    real = pt._b_vector_groups

    def spy(stacked):
        seen.append(stacked.copy())
        return real(stacked)

    monkeypatch.setattr(pt, "_b_vector_groups", spy)
    prof = pt.hyperplane_profile(part)
    (stacked,) = seen
    assert stacked.shape == (len(part.dim_counts), theta(part.n, part.q))
    vectors, s_b = b_vector_groups(stacked.T.tolist())
    assert list(prof.b_vectors) == vectors
    assert list(prof.s_b.items()) == list(s_b.items())
    return prof


class TestGrouping:
    # the benchmark's pipeline cases; (4, 6, 3) is a spread of planes
    @pytest.mark.parametrize(
        "q,n,t",
        [(5, 7, 3), (2, 13, 4), (3, 7, 3), (2, 11, 4), (2, 10, 3), (4, 7, 2),
         (4, 6, 3)],
    )
    def test_pipeline_cases(self, q, n, t, monkeypatch):
        part = pt.partition_from_spread(build_lower_bound_spread(P(q, n, t)))
        prof = _grouped_against_the_oracle(part, monkeypatch)
        if (q, n, t) == (4, 6, 3):
            assert prof.s_b == {(1,): theta(6, 4)}

    def test_three_part_dimensions(self, monkeypatch):
        prof = _grouped_against_the_oracle(_three_dimensions(), monkeypatch)
        assert prof.dims == (3, 2, 1)
        assert len(prof.s_b) > 2

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_any_table(self, rows):
        # in a partition's table the identity 1 + sum b_d q^d = parts ties
        # the rows together; a random table does not
        table = np.random.default_rng(rows).integers(0, 3, size=(rows, 300))
        b_vectors, s_b = pt._b_vector_groups(table)
        vectors, want = b_vector_groups(table.T.tolist())
        assert list(b_vectors) == vectors
        assert list(s_b.items()) == list(want.items())


class TestHeden:
    def test_case_iv_unsatisfied(self):
        # q | x and q^2 does not divide x make delta_2 = -x(q+1) mod q^2 a
        # nonzero multiple of q below q^2: the tail theorem's case (iv) at
        # dimensions (1, 2), which needs q^2 points; n = 2t + r, every
        # admissible x
        docs = 0
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            for t in range(3, 12):
                for r in range(2, t):
                    if q ** r > 5000:
                        break
                    for x in range(q, q ** r, q):
                        h = -(-x // (q - 1))
                        if x % (q * q) == 0 or t < theta(r, q) - h + 2:
                            continue
                        doc = pt.descent_certificate(q, 2 * t + r, t, x)
                        fin = doc["final"]
                        assert (fin["heden_case"], fin["heden_satisfied"]) == ("iv", False)
                        assert check_certificate(doc).ok
                        docs += 1
        assert docs == 1050

    def test_v42_brute_force_agrees(self):
        # the tail theorem says no partition of V(4, 2) can pair one solid
        # and two lines with a 2-point tail: case (iv) demands 4 singletons,
        # and the (2, 8, 3) certificate ends on that tail
        fin = pt.descent_certificate(2, 8, 3)["final"]
        assert (fin["delta2"], fin["heden_satisfied"]) == (2, False)
        f = field_for_order(2)
        all_pts = set(normalized_point_encodings(4, 2).tolist())
        lines = list(enumerate_subspaces(4, 2, f))
        solids = list(enumerate_subspaces(4, 3, f))

        def points(subspaces):
            return [
                frozenset(row)
                for _, block in point_encodings_of_bases(
                    f, np.array([s.rows for s in subspaces])
                )
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
