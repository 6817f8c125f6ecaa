import json
import random
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import grouped, intersect_dim, mult_map_matrix, subspace
from spreadlab import construct, linalg, search
from spreadlab import partition as pt
from spreadlab.bounds import SpreadParams, lower_bound, theta
from spreadlab.construct import (
    PartialSpread,
    build_lower_bound_spread,
    spread_from_dict,
    verify_partial_spread,
)
from spreadlab.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    InvalidParamsError,
)
from spreadlab.gf import ext_field, field_for_order
from spreadlab.linalg import Subspace, point_encodings_of_bases


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


def P(q, n, t):
    return SpreadParams(q, n, t)


def spread_of(params, subspaces):
    """The unverified partial spread of Subspace records of V(n, q)."""
    return PartialSpread(params, grouped(field_for_order(params.q), params.n, subspaces))


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
        mats = [mult_map_matrix(ext, a, t) for a in range(ext.q)]
        for c in range(1, ext.q):
            diff = mats[c]  # M_a - M_b = M_{a-b}, so checking M_c suffices
            assert len(subspace(base, m, diff).rows) == t
        # and subtraction really does land back in the family
        a, b = ext.q - 1, 1
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

    @pytest.mark.parametrize("q,n,t", [(2, 7, 3), (3, 7, 3), (4, 7, 2)])
    def test_bulk_rows_match_every_level(self, q, n, t):
        # the rows build_lower_bound_spread places right of I_t, per level
        for offset in range(0, n - 2 * t + 1, t):
            ext = ext_field(field_for_order(q), n - offset - t)
            got = construct._mult_map_rows(ext, np.arange(ext.q), t).tolist()
            want = [mult_map_matrix(ext, a, t) for a in range(ext.q)]
            assert got == [list(map(list, rows)) for rows in want]

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
        (member,) = sp.members
        assert len(member.rows) == 3
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
        (group,) = sp.members.groups
        for _, block in point_encodings_of_bases(sp.members.field, group.rows):
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
        members = tuple(sp.members)
        assert members[0].rows == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
        for s in members[:16]:
            assert [r[:2] for r in s.rows] == [(1, 0), (0, 1)]


class TestVerify:
    def test_duplicate_member_reported(self):
        sp = build_lower_bound_spread(P(2, 6, 3))
        members = tuple(sp.members)
        bad = spread_of(sp.params, (*members, members[2]))
        res = verify_partial_spread(bad)
        assert not res.ok
        assert res.clash == (2, 9)

    def test_overlapping_pair_lex_min(self):
        f = field_for_order(2)
        s1 = subspace(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        s2 = subspace(f, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        s3 = subspace(f, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        res = verify_partial_spread(spread_of(P(2, 4, 2), (s1, s2, s3)))
        assert not res.ok
        assert res.clash == (0, 2)

    def test_wrong_dimension_rejected(self):
        f = field_for_order(2)
        line = subspace(f, 6, [(1, 0, 0, 0, 0, 0)])
        res = verify_partial_spread(spread_of(P(2, 6, 2), (line,)))
        assert not res.ok
        assert "dimension" in res.reason
        assert res.clash is None

    def test_point_cover_path_agrees(self):
        sp = build_lower_bound_spread(P(2, 7, 3))
        members = tuple(sp.members)
        bad = spread_of(sp.params, (*members, members[5]))
        res = verify_partial_spread(bad)
        assert res.ok is False
        assert res.clash == (5, 17)
        # over GF(4), two clashing pairs: the pair with the smaller second
        # index, (9, 17), is not the lexicographically least one, (3, 18)
        sp4 = build_lower_bound_spread(P(4, 4, 2))
        built = tuple(sp4.members)
        members = (*built, built[9], built[3])
        pairs = [
            (i, j)
            for i in range(len(members))
            for j in range(i + 1, len(members))
            if intersect_dim(members[i], members[j]) > 0
        ]
        assert pairs == [(3, 18), (9, 17)]
        res = verify_partial_spread(spread_of(sp4.params, members))
        assert res.ok is False
        assert res.clash == (3, 18)

    def test_inserted_copy_clashes_with_its_original(self):
        sp = build_lower_bound_spread(P(3, 6, 2))
        members = tuple(sp.members)
        bad = spread_of(sp.params, members[:40] + (members[7],) + members[40:])
        res = verify_partial_spread(bad)
        assert (res.ok, res.clash) == (False, (7, 40))
        assert res.reason == "members 7 and 40 share a nonzero vector"

    @pytest.mark.parametrize("point_block", [1, 2, 7, 1 << 12])
    def test_pairwise_path_names_the_least_pair(self, monkeypatch, point_block):
        # planted clashes over GF(4): (9, 17) has the smallest second index,
        # (3, 18) is the lexicographically least pair and (3, 19) shares its
        # first index; small point blocks list the members over many blocks
        sp = build_lower_bound_spread(P(4, 4, 2))
        members = tuple(sp.members)
        planted = (members[9], members[3], members[3])
        bad = spread_of(sp.params, (*members, *planted))
        want = verify_partial_spread(bad)
        monkeypatch.setattr(linalg, "_POINT_BLOCK", point_block)
        res = verify_partial_spread(bad)
        assert res == want
        assert (res.ok, res.clash) == (False, (3, 18))
        assert verify_partial_spread(sp).ok

    def test_refuses_past_the_budget(self):
        # two 22-dimensional members of V(44, 2) list 2 (2^22 - 1) points
        f = field_for_order(2)
        eye = [tuple(int(i == j) for j in range(44)) for i in range(44)]
        halves = (Subspace(f, 44, tuple(eye[:22])), Subspace(f, 44, tuple(eye[22:])))
        start = time.monotonic()
        with pytest.raises(BudgetExceededError, match="8388606 points, point budget"):
            verify_partial_spread(spread_of(P(2, 44, 22), halves))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("q,n", [(2, 64), (3, 41), (4, 32)])
    def test_encodings_beyond_int64(self, q, n):
        # q^n >= 2^63, so the points are encoded as Python ints
        assert q ** n >= 1 << 63
        f = field_for_order(q)
        rng = random.Random(n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(7)]
        lines = [subspace(f, n, rows[i:i + 2]) for i in (0, 2, 4)]
        assert verify_partial_spread(spread_of(P(q, n, 2), lines)).ok
        # a multiple of member 1's first row lies in the new member 3
        multiple = [f.mul(q - 1, x) for x in rows[2]]
        meets = subspace(f, n, [rows[6], multiple])
        res = verify_partial_spread(spread_of(P(q, n, 2), lines + [meets]))
        assert (res.ok, res.clash) == (False, (1, 3))

    # the constructor compares the members' space with the params, so no
    # spread holds a member outside its V(n, q)
    def test_ambient_mismatch_raises(self):
        members = build_lower_bound_spread(P(2, 5, 2)).members
        msg = r"^members in V\(5\) over GF\(2\), spread in V\(6, 2\)$"
        with pytest.raises(InvalidParamsError, match=msg):
            PartialSpread(P(2, 6, 2), members)

    def test_field_mismatch_raises(self):
        members = build_lower_bound_spread(P(3, 4, 2)).members
        msg = r"^members in V\(4\) over GF\(3\), spread in V\(4, 2\)$"
        with pytest.raises(InvalidParamsError, match=msg):
            PartialSpread(P(2, 4, 2), members)
        # a field of order 16 other than the one q = 16 names
        tower = linalg.GroupedBases(ext_field(field_for_order(4), 2), 4, [])
        msg = r"^members in V\(4\) over GF\(4\^2\), spread in V\(4, 16\)$"
        with pytest.raises(InvalidParamsError, match=msg):
            PartialSpread(P(16, 4, 2), tower)

    def test_empty_ok(self):
        res = verify_partial_spread(spread_of(P(2, 6, 2), ()))
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


class TestGroupedMembers:
    """What the benchmark's output checks read: iterating a spread's members,
    a partition's parts or a search witness yields Subspace records, in
    position order, whose rows are tuples of ints as in to_dicts(); == and
    hash compare the arrays and build no Subspace."""

    @staticmethod
    def _assert_records(bases):
        records = list(bases)
        assert len(records) == len(bases)
        want = [tuple(map(tuple, d["rows"])) for d in bases.to_dicts()]
        assert [s.rows for s in records] == want
        for s in records:
            hash(s.rows)
            assert all(type(x) is int for r in s.rows for x in r)

    @pytest.mark.parametrize("q,n,t", [(2, 7, 3), (3, 5, 2), (4, 5, 2)])
    def test_iteration_yields_rows_in_position_order(self, q, n, t):
        spread = build_lower_bound_spread(P(q, n, t))
        part = pt.partition_from_spread(spread)
        assert len(part.parts.groups) == 2  # t-members and holes
        # parts of two dimensions shuffled, so the groups interleave
        docs = part.parts.to_dicts()
        random.Random(q).shuffle(docs)
        shuffled = linalg.subspaces_from_dicts(docs, field_for_order(q), n)
        assert [s.rows for s in shuffled] == [tuple(map(tuple, d["rows"])) for d in docs]
        witness = search.max_partial_spread(P(2, 5, 2)).witness
        for bases in (spread.members, part.parts, shuffled, witness.members):
            self._assert_records(bases)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("q,n,t", [(2, 7, 3), (3, 5, 2), (4, 7, 2)])
    def test_equality_and_hash_follow_the_members(self, q, n, t, seed, monkeypatch):
        doc = build_lower_bound_spread(P(q, n, t)).to_dict()
        moved = spread_from_dict(checks.rebase_spread_doc(doc, random.Random(seed)))
        # the built documents in the rebased copy's member order
        by_rows = {tuple(map(tuple, d["rows"])): d for d in doc["members"]}
        members = [by_rows[s.rows] for s in moved.members]
        same = spread_from_dict({**doc, "members": members})
        swapped = spread_from_dict({**doc, "members": [members[1], members[0], *members[2:]]})
        repeated = spread_from_dict({**doc, "members": [members[1], *members[1:]]})
        records = tuple(moved.members)

        def no_subspace(*args, **kwargs):
            raise AssertionError("== or hash built a Subspace")

        monkeypatch.setattr(linalg, "Subspace", no_subspace)
        assert same.members == moved.members
        assert hash(same.members) == hash(moved.members)
        assert same == moved and hash(same) == hash(moved)
        for other in (swapped, repeated):
            assert other.members != moved.members
            assert hash(other.members) != hash(moved.members)
        assert moved.members != records  # no tuple view to compare with

    @pytest.mark.parametrize(
        "name,make",
        [
            ("PartialSpread", lambda bases: PartialSpread(P(2, 4, 2), bases)),
            ("SubspacePartition", lambda bases: pt.SubspacePartition(bases)),
        ],
    )
    def test_only_grouped_bases_are_taken(self, name, make):
        members = build_lower_bound_spread(P(2, 4, 2)).members
        make(members)
        for given, got in [(tuple(members), "tuple"), (members.to_dicts(), "list")]:
            msg = f"^{name} takes GroupedBases, got {got}$"
            with pytest.raises(InvalidParamsError, match=msg):
                make(given)


def _doc_with(edit):
    """The (2, 4, 2) spread's document with member 2 edited."""
    doc = build_lower_bound_spread(P(2, 4, 2)).to_dict()
    edit(doc["members"][2])
    return doc


DECLARED = "q, n, dim must be integers with q >= 2, n >= 1, dim >= 0"


def _widen(member):
    member["n"] = 5
    for row in member["rows"]:
        row.append(0)


class TestParse:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("q,n,t", [(2, 7, 3), (3, 5, 2), (4, 7, 2), (5, 5, 2)])
    def test_rebased_documents_give_the_built_members(self, q, n, t, seed):
        sp = build_lower_bound_spread(P(q, n, t))
        moved = checks.rebase_spread_doc(sp.to_dict(), random.Random(seed))
        back = spread_from_dict(json.loads(json.dumps(moved)))
        assert sorted(back.members, key=lambda s: s.rows) == sorted(
            sp.members, key=lambda s: s.rows
        )

    @pytest.mark.parametrize(
        "edit,error,text",
        [
            (lambda m: m["rows"][1].append(0), InvalidParamsError,
             "row length differs from ambient dimension"),
            (lambda m: m["rows"][1].__setitem__(3, 2), FieldMismatchError,
             r"2 is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, 1.5), FieldMismatchError,
             r"1.5 is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, True), FieldMismatchError,
             r"True is not an element of GF\(2\)"),
            # traps of the one-array check: past int64, below the range, no
            # number, a nested list, a digit string, a row or rows no list
            (lambda m: m["rows"][1].__setitem__(3, 2 ** 64), FieldMismatchError,
             r"18446744073709551616 is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, -1), FieldMismatchError,
             r"-1 is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, None), FieldMismatchError,
             r"None is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, [0]), FieldMismatchError,
             r"\[0\] is not an element of GF\(2\)"),
            (lambda m: m["rows"][1].__setitem__(3, "1"), FieldMismatchError,
             r"'1' is not an element of GF\(2\)"),
            (lambda m: m["rows"].__setitem__(1, "0101"), InvalidParamsError,
             "member 2: row 1 must be a list, got str"),
            (lambda m: m.__setitem__("rows", None), InvalidParamsError,
             "member 2: rows must be a list, got NoneType"),
            (lambda m: m.__setitem__("dim", 1), InvalidParamsError,
             "declared dim 1 but basis has rank 2"),
            (lambda m: m["rows"].__setitem__(1, m["rows"][0]), InvalidParamsError,
             "declared dim 2 but basis has rank 1"),
        ],
    )
    def test_member_errors(self, edit, error, text):
        with pytest.raises(error, match=f"^{text}$"):
            spread_from_dict(_doc_with(edit))

    @pytest.mark.parametrize(
        "edit,error,text",
        [
            (lambda m: m.__setitem__("q", 3), FieldMismatchError, r"over GF\(3\)"),
            (_widen, AmbientMismatchError, "in ambient 5"),
            (lambda m: m.__setitem__("n", 5), AmbientMismatchError, "in ambient 5"),
        ],
    )
    def test_members_outside_the_space_fail_at_parse(self, edit, error, text):
        with pytest.raises(error, match=rf"^member 2 {text}, spread has [qn] = \d$"):
            spread_from_dict(_doc_with(edit))

    @pytest.mark.parametrize(
        "key,value,got",
        [
            ("q", 2.5, "2.5, 4, 2"),
            ("q", True, "True, 4, 2"),
            ("dim", True, "2, 4, True"),
            ("n", "4", "2, '4', 2"),
            ("q", 1, "1, 4, 2"),
            ("dim", -1, "2, 4, -1"),
        ],
    )
    def test_declared_parameters_are_checked(self, key, value, got):
        doc = _doc_with(lambda m: m.__setitem__(key, value))
        text = f"{DECLARED}, got {re.escape(got)}"
        with pytest.raises(InvalidParamsError, match=f"^{text}$"):
            spread_from_dict(doc)

    def test_negative_ambient_without_rows_is_refused(self):
        doc = _doc_with(lambda m: m.update(n=-4, rows=[]))
        text = f"{DECLARED}, got 2, -4, 2"
        with pytest.raises(InvalidParamsError, match=f"^{text}$"):
            spread_from_dict(doc)

    def test_a_declared_error_after_a_row_error_is_not_reported(self):
        doc = _doc_with(lambda m: m["rows"][0].append(0))
        doc["members"][4]["q"] = 2.5
        with pytest.raises(InvalidParamsError, match="^row length differs"):
            spread_from_dict(doc)
        doc["members"][1]["dim"] = True
        with pytest.raises(InvalidParamsError, match=f"^{DECLARED}, got 2, 4, True$"):
            spread_from_dict(doc)

    def test_the_first_failing_member_is_reported(self):
        # member 2 fails its rank, member 3 its field and member 4 a row
        # length; the three sit in different groups of the bulk parse
        doc = build_lower_bound_spread(P(2, 4, 2)).to_dict()
        doc["members"][4]["rows"][0].append(0)
        doc["members"][3]["q"] = 6
        doc["members"][2]["dim"] = 1
        rank = "^declared dim 1 but basis has rank 2$"
        with pytest.raises(InvalidParamsError, match=rank):
            spread_from_dict(doc)
        doc["members"][2]["dim"] = 2
        with pytest.raises(InvalidParamsError, match="^6 is not a prime power$"):
            spread_from_dict(doc)
