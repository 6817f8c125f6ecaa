import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import intersect_dim, max_disjoint

from spreadlab import search
from spreadlab.bounds import SpreadParams, lower_bound, theta
from spreadlab.construct import verify_partial_spread
from spreadlab.errors import BudgetExceededError, InvalidParamsError
from spreadlab.gf import field_for_order
from spreadlab.linalg import (
    enumerate_subspaces,
    gaussian_binomial,
    point_encodings_of_bases,
    point_ordinals,
)


def P(q, n, t):
    return SpreadParams(q, n, t)


def subspaces(q, n, t):
    return list(enumerate_subspaces(n, t, field_for_order(q)))


def rows(spread):
    """Member rows as bit strings."""
    return [tuple("".join(map(str, r)) for r in m.rows) for m in spread.members]


def bits(a):
    """The positions of the set bits of a, ascending."""
    return [i for i in range(a.bit_length()) if a >> i & 1]


def point_masks(ords):
    """Each candidate's point bitset, from its point ordinals."""
    return [sum(1 << p for p in row) for row in ords.tolist()]


EXACT_GOLDEN = [
    (2, 4, 2, 5),
    (2, 5, 2, 9),
    (2, 5, 3, 1),
    (2, 6, 3, 9),
    (3, 4, 2, 10),
]


class TestExact:
    @pytest.mark.parametrize("q,n,t,want", EXACT_GOLDEN)
    def test_golden_values(self, q, n, t, want):
        res = search.max_partial_spread(P(q, n, t))
        assert res.status == search.EXACT
        assert res.best_size == want
        assert res.witness.size == want
        assert res.witness.verified is True
        assert verify_partial_spread(res.witness).ok

    def test_full_line_spread_v62(self):
        res = search.max_partial_spread(P(2, 6, 2))
        assert res.status == search.EXACT
        assert res.best_size == 21

    @pytest.mark.parametrize("q,n,t", [(2, 4, 2), (2, 5, 3), (3, 4, 2), (2, 6, 3)])
    def test_cold_start_agrees(self, q, n, t):
        warm = search.max_partial_spread(P(q, n, t))
        cold = search.max_partial_spread(P(q, n, t), warm_start=False)
        assert cold.status == search.EXACT
        assert cold.best_size == warm.best_size
        assert verify_partial_spread(cold.witness).ok

    def test_cold_start_explores(self):
        # without the warm incumbent the tree is actually walked
        res = search.max_partial_spread(P(2, 5, 2), warm_start=False)
        assert res.nodes_explored > 10_000
        assert res.best_size == 9

    def test_deterministic_at_one_thread(self):
        a = search.max_partial_spread(P(2, 6, 3), warm_start=False)
        b = search.max_partial_spread(P(2, 6, 3), warm_start=False)
        assert a.witness.members == b.witness.members
        assert a.nodes_explored == b.nodes_explored


class TestAdjacency:
    # (2,5,3) has no disjoint pair: every row is empty
    @pytest.mark.parametrize("q,n,t", [(2, 5, 2), (3, 4, 2), (2, 5, 3)])
    def test_every_pair_matches_is_disjoint(self, q, n, t):
        _, ords = search._candidates(P(q, n, t))
        subs = subspaces(q, n, t)
        adj, _ = search._adjacency(ords, theta(n, q))
        assert len(adj) == len(subs)
        for i in range(len(subs)):
            assert not adj[i] >> i & 1
            for j in range(i + 1, len(subs)):
                want = intersect_dim(subs[i], subs[j]) == 0
                assert bool(adj[i] >> j & 1) == want, (i, j)
                assert bool(adj[j] >> i & 1) == want, (j, i)

    def test_gf4_rows(self):
        _, ords = search._candidates(P(4, 4, 2))
        subs = subspaces(4, 4, 2)
        assert len(subs) == 357
        adj, _ = search._adjacency(ords, theta(4, 4))
        for i in range(64):
            want = sum(
                1 << j
                for j, b in enumerate(subs)
                if j != i and intersect_dim(subs[i], b) == 0
            )
            assert adj[i] == want, i

    @pytest.mark.parametrize("q,n,t", [(2, 5, 2), (3, 4, 2)])
    def test_stars_hold_the_candidates_through_each_point(self, q, n, t):
        _, ords = search._candidates(P(q, n, t))
        _, stars = search._adjacency(ords, theta(n, q))
        masks = point_masks(ords)
        for i, m in enumerate(masks):
            assert len(stars[i]) == theta(t, q)
            for p, star in zip(bits(m), stars[i], strict=True):
                assert star == sum(1 << j for j, b in enumerate(masks) if b >> p & 1)


class TestCandidates:
    @pytest.mark.parametrize(
        "q,n,t",
        [(2, 5, 2), (2, 6, 3), (3, 4, 2), (4, 4, 2), (5, 3, 2), (8, 3, 2), (9, 3, 2)],
    )
    def test_bulk_matches_subspaces(self, q, n, t):
        bases, ords = search._candidates(P(q, n, t))
        subs = subspaces(q, n, t)
        assert [tuple(map(tuple, b)) for b in bases.tolist()] == [s.rows for s in subs]
        points = []
        bases = np.array([s.rows for s in subs])
        for _, block in point_encodings_of_bases(field_for_order(q), bases):
            points.extend(sorted(row) for row in point_ordinals(block, n, q).tolist())
        assert ords.tolist() == points


class TestRoot:
    def test_two_member_root_proves_v52(self):
        res = search.max_partial_spread(P(2, 5, 2), warm_start=False)
        assert res.status == search.EXACT
        assert res.best_size == 9
        assert res.nodes_explored < 60_000
        assert res.prunes["cover"] > 0
        assert verify_partial_spread(res.witness).ok

    def test_cold_witness_holds_the_root_pair(self):
        _, ords = search._candidates(P(2, 6, 3))
        subs = subspaces(2, 6, 3)
        adj, _ = search._adjacency(ords, theta(6, 2))
        c1 = bits(adj[0])[0]
        res = search.max_partial_spread(P(2, 6, 3), warm_start=False)
        assert res.witness.members[:2] == (subs[0], subs[c1])

    # (2,5,3) has no disjoint pair, so its root fixes one member
    @pytest.mark.parametrize(
        "q,n,t,want", [(2, 5, 2, 9), (2, 5, 3, 1), (2, 6, 2, 21), (3, 4, 2, 10)]
    )
    @pytest.mark.parametrize("warm", [True, False])
    def test_repeats_are_identical(self, q, n, t, want, warm):
        a, b = (
            search.max_partial_spread(P(q, n, t), warm_start=warm).to_dict()
            for _ in range(2)
        )
        assert a["status"] == search.EXACT
        assert a["best_size"] == want
        a["wall_time"] = b["wall_time"] = 0.0
        assert a == b


class TestPrunes:
    def test_counts_by_reason(self):
        res = search.max_partial_spread(P(2, 6, 2), warm_start=False)
        prunes = res.to_dict()["prunes"]
        assert set(prunes) == {"available", "points", "cover"}
        assert all(v > 0 for v in prunes.values()), prunes
        # a node is pruned at most once, and a node that branches is not,
        # but may end its child loop by one tail cut
        assert sum(prunes.values()) <= res.nodes_explored

    @pytest.mark.parametrize(
        "q,n,t", [(2, 4, 2), (3, 4, 2), (4, 4, 2), (2, 6, 3), (2, 6, 2)]
    )
    def test_warm_start_closes_at_root_by_points(self, q, n, t):
        # the packing-bound spread reaches the point count
        # floor(theta_n / theta_t), so the root is pruned by it
        res = search.max_partial_spread(P(q, n, t))
        assert res.best_size == theta(n, q) // theta(t, q)
        assert res.nodes_explored == 1
        assert res.prunes == {"available": 0, "points": 1, "cover": 0}

    def test_greedy_reports_zeros(self):
        res = search.greedy_result(P(2, 6, 3), seed=1)
        assert res.to_dict()["prunes"] == {"available": 0, "points": 0, "cover": 0}



class TestCover:
    @pytest.mark.parametrize("q,n,t", [(2, 5, 2), (3, 4, 2)])
    @given(data=st.data())
    def test_prune_is_admissible(self, q, n, t, data):
        _, ords = search._candidates(P(q, n, t))
        _, stars = search._adjacency(ords, theta(n, q))
        masks = point_masks(ords)
        subs = subspaces(q, n, t)
        # candidates through a few points, where small covers exist, and a
        # few arbitrary ones
        points = data.draw(st.lists(st.integers(0, theta(n, q) - 1), max_size=3))
        pool = sorted({j for p in points for j, m in enumerate(masks) if m >> p & 1})
        picked = data.draw(st.sets(st.sampled_from(pool), max_size=9)) if pool else set()
        picked |= data.draw(st.sets(st.integers(0, len(subs) - 1), max_size=4))
        avail = sum(1 << j for j in picked)
        seeds, classes = search._colour_classes(avail, stars)
        # the classes partition avail
        union = 0
        for cls in classes:
            assert cls and not cls & union
            union |= cls
        assert union == avail
        # seeds strictly descend, and each class lies in one star of its
        # seed and holds nothing above it
        assert all(a > b for a, b in zip(seeds, seeds[1:]))
        for seed, cls in zip(seeds, classes, strict=True):
            assert cls.bit_length() - 1 == seed
            assert any(not cls & ~star for star in stars[seed])
        # the classes with seed at least c bound the spreads from c on
        for c in sorted(picked):
            tail = [subs[j] for j in sorted(picked) if j >= c]
            assert max_disjoint(tail) <= sum(seed >= c for seed in seeds)

    def test_prunes_a_star_and_keeps_a_disjoint_pair(self):
        _, ords = search._candidates(P(2, 5, 2))
        adj, stars = search._adjacency(ords, theta(5, 2))
        star = stars[0][0]
        assert star.bit_count() == theta(4, 2)
        assert search._colour_classes(star, stars) == ([star.bit_length() - 1], [star])
        c1 = bits(adj[0])[0]
        assert search._colour_classes(1 | 1 << c1, stars) == ([c1, 0], [1 << c1, 1])
        assert search._colour_classes(0, stars) == ([], [])


# cold witnesses, member rows as bit strings.  The cover prune cuts only
# subtrees that hold no spread larger than the incumbent, so the search
# returns the same rows with and without it.
COLD_252 = [
    ("10000", "01000"),
    ("10001", "01010"),
    ("10010", "01011"),
    ("10011", "01100"),
    ("10100", "01001"),
    ("10101", "01111"),
    ("11100", "00010"),
    ("10110", "00001"),
    ("01101", "00011"),
]
COLD_263 = [
    ("100000", "010000", "001000"),
    ("100001", "010010", "001100"),
    ("100010", "010100", "001011"),
    ("100011", "010110", "001111"),
    ("100100", "010011", "001110"),
    ("100101", "010001", "001010"),
    ("100110", "010111", "001101"),
    ("100111", "010101", "001001"),
    ("000100", "000010", "000001"),
]


def never_cuts(avail, stars):
    """A cover that no colour cut can use: more classes than candidates,
    each seeded above every candidate and holding all of avail."""
    many = len(stars) + 1
    return [len(stars)] * many, [avail] * many


class TestIncumbents:
    @pytest.mark.parametrize("q,n,t,want", [(2, 5, 2, COLD_252), (2, 6, 3, COLD_263)])
    def test_cold_witness_unchanged(self, q, n, t, want):
        res = search.max_partial_spread(P(q, n, t), warm_start=False)
        assert res.status == search.EXACT
        assert rows(res.witness) == want

    def test_node_counts_without_the_cover_prune(self, monkeypatch):
        # without the colour classes the node loop walks the tree that the
        # available-count and point-count prunes leave
        monkeypatch.setattr(search, "_colour_classes", never_cuts)
        warm = search.max_partial_spread(P(2, 5, 2))
        cold = search.max_partial_spread(P(2, 5, 2), warm_start=False)
        assert (warm.nodes_explored, cold.nodes_explored) == (276_999, 277_119)
        assert warm.prunes["cover"] == cold.prunes["cover"] == 0
        assert rows(cold.witness) == COLD_252

    @pytest.mark.parametrize("q,n,t", [(2, 6, 3), (3, 4, 2), (2, 6, 2), (4, 4, 2)])
    @pytest.mark.parametrize("warm", [True, False])
    def test_colour_cuts_keep_the_witness(self, q, n, t, warm, monkeypatch):
        res = search.max_partial_spread(P(q, n, t), warm_start=warm)
        monkeypatch.setattr(search, "_colour_classes", never_cuts)
        plain = search.max_partial_spread(P(q, n, t), warm_start=warm)
        assert res.status == plain.status == search.EXACT
        assert res.best_size == plain.best_size
        assert rows(res.witness) == rows(plain.witness)


# (nodes, prunes available/points/cover) of each exhausted tree: the node
# loop counts a leaf that the available count or the colour classes prune
# without calling itself, and must count it exactly as the call would
TREES = [
    (2, 5, 2, True, 12_964, (2_575, 0, 10_389)),
    (2, 5, 2, False, 12_974, (2_577, 0, 10_397)),
    (2, 6, 3, False, 8, (1, 0, 6)),
    (3, 4, 2, False, 9, (1, 0, 7)),
    (2, 6, 2, False, 1_274, (4, 1_214, 55)),
    (2, 4, 2, False, 4, (1, 0, 2)),
    (4, 4, 2, False, 21, (1, 2, 17)),
]


class TestTree:
    @pytest.mark.parametrize(
        "q,n,t,warm,nodes,prunes", TREES,
        ids=[f"{q}-{n}-{t}-{'warm' if w else 'cold'}" for q, n, t, w, *_ in TREES],
    )
    def test_nodes_and_prunes_pinned(self, q, n, t, warm, nodes, prunes):
        res = search.max_partial_spread(P(q, n, t), warm_start=warm)
        assert res.status == search.EXACT
        assert res.nodes_explored == nodes
        assert tuple(res.prunes.values()) == prunes
        # the point count is a constant, so it prunes only once it is met
        if res.prunes["points"]:
            assert res.best_size == theta(n, q) // theta(t, q)

    def test_every_small_budget_is_met_exactly(self):
        for budget in range(1, 301):
            res = search.max_partial_spread(
                P(2, 5, 2), max_nodes=budget, warm_start=False
            )
            assert (res.status, res.nodes_explored) == (search.BUDGET_EXHAUSTED, budget)


class TestBudgets:
    def test_node_budget(self):
        res = search.max_partial_spread(P(2, 5, 2), max_nodes=1000)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.nodes_explored == 1000
        # incumbent still carries the warm-start witness
        assert res.best_size >= lower_bound(P(2, 5, 2))
        assert verify_partial_spread(res.witness).ok

    def test_cold_budget_before_first_node(self):
        # no warm start and no node left: the incumbent is the empty spread
        res = search.max_partial_spread(P(2, 5, 2), max_nodes=1, warm_start=False)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.nodes_explored == 1
        assert res.best_size == 0
        assert res.witness.members == ()
        assert res.witness.verified is True
        assert verify_partial_spread(res.witness).ok
        assert res.to_dict()["witness"]["members"] == []

    def test_node_budget_boundary(self):
        # a tree of N nodes closes EXACT under max_nodes=N and stops after
        # exactly N - 1 under max_nodes=N - 1
        full = search.max_partial_spread(P(2, 5, 2), warm_start=False)
        n = full.nodes_explored
        res = search.max_partial_spread(P(2, 5, 2), max_nodes=n, warm_start=False)
        assert (res.status, res.nodes_explored, res.best_size) == (search.EXACT, n, 9)
        assert rows(res.witness) == rows(full.witness)
        res = search.max_partial_spread(P(2, 5, 2), max_nodes=n - 1, warm_start=False)
        assert (res.status, res.nodes_explored) == (search.BUDGET_EXHAUSTED, n - 1)
        assert verify_partial_spread(res.witness).ok

    @pytest.mark.parametrize("q,n,t", [(2, 8, 3), (4, 6, 3), (2, 16, 15)])
    def test_adjacency_cap(self, q, n, t):
        # the tree's candidates are disjoint from the first, and at most
        # q^(t^2) [n - t, t]_q t-subspaces are: up to 0.8 GB and 8.6 GB of
        # adjacency bits; when n < 2t none is, and all 65,535 candidates
        # bound the build (their point lists alone would take 17 GB);
        # each is refused before any build
        most = q ** (t * t) * gaussian_binomial(n - t, t, q)
        most = most or gaussian_binomial(n, t, q)
        assert most * most > search.ADJACENCY_BIT_CAP
        start = time.monotonic()
        text = f"up to {most} candidates need {most * most} adjacency bits"
        with pytest.raises(BudgetExceededError, match=text):
            search.max_partial_spread(P(q, n, t), max_nodes=10)
        assert time.monotonic() - start < 1.0

    def test_cold_v63_over_gf3_under_the_cap(self):
        # 33,880 candidates, whose count squared is past the cap; the tree
        # grows over the 19,683 or fewer disjoint from the first
        assert gaussian_binomial(6, 3, 3) ** 2 > search.ADJACENCY_BIT_CAP
        res = search.max_partial_spread(P(3, 6, 3), warm_start=False)
        assert (res.status, res.best_size) == (search.EXACT, 28)
        assert res.nodes_explored == 5387
        assert verify_partial_spread(res.witness).ok

    def test_node_budget_under_adjacency_cap(self):
        res = search.max_partial_spread(P(2, 7, 3), max_nodes=1000)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.nodes_explored == 1000
        assert verify_partial_spread(res.witness).ok

    @pytest.mark.parametrize("budget", [0, -1])
    def test_node_budget_below_one_rejected(self, budget):
        with pytest.raises(InvalidParamsError, match="node budget"):
            search.max_partial_spread(P(2, 5, 2), max_nodes=budget)

    @pytest.mark.parametrize("seconds", [0, -1.0, float("nan")])
    def test_time_budget_not_positive_rejected(self, seconds):
        with pytest.raises(InvalidParamsError, match="time budget"):
            search.max_partial_spread(P(2, 5, 2), max_seconds=seconds)

    def test_time_budget(self):
        # warm (2,7,3) does not close, so the deadline ends it on any host
        res = search.max_partial_spread(P(2, 7, 3), max_seconds=0.02)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.wall_time < 5

    def test_time_budget_stops_the_tree(self):
        # cold (2,7,3) does not close; the deadline ends it inside the tree
        res = search.max_partial_spread(P(2, 7, 3), max_seconds=1.0, warm_start=False)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.nodes_explored > 1
        assert res.wall_time < 3
        assert verify_partial_spread(res.witness).ok


# greedy_spread(P(2, 8, 3), seed=1), member rows as bit strings; pinned
# from the order of _greedy_order
GREEDY_283_SEED1 = [
    ("10010100", "01001111", "00101011"),
    ("10100011", "01000101", "00011010"),
    ("10100010", "01000110", "00001010"),
    ("01000100", "00110010", "00001111"),
    ("10010101", "01000001", "00101110"),
    ("01010001", "00001001", "00000101"),
    ("10001010", "00110000", "00000110"),
    ("11101011", "00011000", "00000111"),
    ("10001111", "01001001", "00010000"),
    ("10000001", "01100011", "00010111"),
    ("10011110", "01000111", "00110100"),
    ("10101100", "01100110", "00011101"),
    ("01001110", "00101100", "00010101"),
    ("11001101", "00100010", "00011110"),
    ("10001000", "00100111", "00010010"),
    ("10100101", "00010011", "00001000"),
    ("10001001", "01010101", "00111011"),
    ("10011011", "01010111", "00101111"),
    ("10001011", "01101011", "00010110"),
    ("10100001", "01100001", "00010001"),
    ("10000100", "01011100", "00100011"),
    ("10010010", "01010000", "00101010"),
    ("10100100", "01100111", "00001101"),
    ("10010011", "01010110", "00100100"),
    ("10001101", "01010011", "00100110"),
    ("10011001", "01000011", "00111111"),
    ("10011000", "01001000", "00101101"),
    ("01011010", "00110011", "00000100"),
]


class TestGreedy:
    def test_pinned_witness_v83(self):
        sp = search.greedy_spread(P(2, 8, 3), seed=1)
        assert sp.size == 28
        assert rows(sp) == GREEDY_283_SEED1
        for m in sp.members:
            assert all(type(x) is int for r in m.rows for x in r)
        assert sp.verified is True

    def test_deterministic(self):
        a = search.greedy_spread(P(2, 6, 3), seed=7)
        b = search.greedy_spread(P(2, 6, 3), seed=7)
        assert a.members == b.members

    def test_all_seeds_verify(self):
        for seed in range(32):
            sp = search.greedy_spread(P(2, 6, 3), seed)
            assert sp.verified is True
            assert verify_partial_spread(sp).ok

    def test_seed_sweep_hits_known_max(self):
        sizes = {search.greedy_spread(P(2, 6, 3), s).size for s in range(32)}
        assert max(sizes) == 9
        assert min(sizes) >= 5
        sizes = {search.greedy_spread(P(3, 4, 2), s).size for s in range(32)}
        assert max(sizes) == 10

    @pytest.mark.parametrize("q,n,t", [(2, 6, 3), (3, 4, 2), (4, 4, 2), (2, 7, 3)])
    def test_first_fit_over_its_order(self, q, n, t):
        # a plain first fit over the candidate point bitsets, in the same
        # order, picks the same candidates; every candidate left out meets
        # the result, so it is maximal
        bases, ords = search._candidates(P(q, n, t))
        masks = point_masks(ords)
        for seed in range(16):
            covered, picked = 0, []
            for i in search._greedy_order(len(masks), seed).tolist():
                if not masks[i] & covered:
                    covered |= masks[i]
                    picked.append(i)
            sp = search.greedy_spread(P(q, n, t), seed)
            assert [m.rows for m in sp.members] == [
                tuple(map(tuple, bases[i].tolist())) for i in picked
            ], seed
            assert all(m & covered for m in masks), seed

    def test_tied_keys_keep_the_stable_order(self, monkeypatch):
        # keys 0..7 repeated: equal keys keep their positions
        keys = np.arange(64, dtype=np.uint64)[::-1] % 8
        monkeypatch.setattr(search.random.Random, "randbytes",
                            lambda self, k: keys.tobytes()[:k])
        order = search._greedy_order(len(keys), 3)
        assert order.tolist() == sorted(range(len(keys)), key=lambda i: (keys[i], i))

    def test_order_is_a_permutation_and_ignores_the_sign(self):
        order = search._greedy_order(1000, 5)
        assert sorted(order.tolist()) == list(range(1000))
        assert (search._greedy_order(1000, -5) == order).all()
        assert not (search._greedy_order(1000, 6) == order).all()

    def test_leaves_numpy_random_unloaded(self):
        # numpy.random's import alone costs several MiB of memory
        code = (
            "import sys\n"
            "from spreadlab.bounds import SpreadParams\n"
            "from spreadlab.search import greedy_spread\n"
            "greedy_spread(SpreadParams(2, 6, 3), seed=1)\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        )
        # the child imports this spreadlab, however the tests found it
        src = pathlib.Path(search.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_result_wrapper(self):
        res = search.greedy_result(P(2, 6, 2), seed=3)
        assert res.status == search.LOWER_WITNESS_ONLY
        assert res.nodes_explored == 0
        assert res.best_size == res.witness.size
        d = res.to_dict()
        assert d["status"] == "LOWER_WITNESS_ONLY"
        assert d["witness"]["members"]


class TestResultShape:
    def test_to_dict(self):
        res = search.max_partial_spread(P(2, 4, 2))
        d = res.to_dict()
        assert d["q"] == 2 and d["n"] == 4 and d["t"] == 2
        assert d["best_size"] == 5
        assert d["status"] == "EXACT"
        assert d["nodes_explored"] >= 1
        assert isinstance(d["wall_time"], float)
        assert len(d["witness"]["members"]) == 5
