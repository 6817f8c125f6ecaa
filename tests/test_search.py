import pytest

from spreadlab import search
from spreadlab.bounds import SpreadParams, lower_bound, theta
from spreadlab.construct import verify_partial_spread
from spreadlab.linalg import is_disjoint


def P(q, n, t):
    return SpreadParams(q, n, t)


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
        res = search.max_partial_spread(P(2, 6, 3), warm_start=False)
        assert res.nodes_explored > 100
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
        subs, masks = search._candidates(P(q, n, t))
        adj = search._adjacency(masks, theta(n, q))
        assert len(adj) == len(subs)
        for i in range(len(subs)):
            assert not adj[i] >> i & 1
            for j in range(i + 1, len(subs)):
                want = is_disjoint(subs[i], subs[j])
                assert bool(adj[i] >> j & 1) == want, (i, j)
                assert bool(adj[j] >> i & 1) == want, (j, i)

    def test_gf4_rows(self):
        subs, masks = search._candidates(P(4, 4, 2))
        assert len(subs) == 357
        adj = search._adjacency(masks, theta(4, 4))
        for i in range(64):
            want = sum(
                1 << j
                for j, b in enumerate(subs)
                if j != i and is_disjoint(subs[i], b)
            )
            assert adj[i] == want, i


class TestRoot:
    def test_two_member_root_proves_v52(self):
        res = search.max_partial_spread(P(2, 5, 2), warm_start=False)
        assert res.status == search.EXACT
        assert res.best_size == 9
        assert res.nodes_explored < 300_000
        assert verify_partial_spread(res.witness).ok

    def test_cold_witness_holds_the_root_pair(self):
        subs, masks = search._candidates(P(2, 6, 3))
        adj = search._adjacency(masks, theta(6, 2))
        c1 = next(search._bits(adj[0]))
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
        res = search.max_partial_spread(P(2, 6, 3), warm_start=False)
        prunes = res.to_dict()["prunes"]
        assert set(prunes) == {"available", "points"}
        assert prunes["available"] > 0 and prunes["points"] > 0
        # a node is pruned at most once, and a node that branches is not
        assert sum(prunes.values()) < res.nodes_explored

    def test_warm_start_closes_at_root_by_points(self):
        # the packing-bound spread of (2,6,2) is a full spread
        res = search.max_partial_spread(P(2, 6, 2))
        assert res.nodes_explored == 1
        assert res.prunes == {"available": 0, "points": 1}

    def test_greedy_reports_zeros(self):
        res = search.greedy_result(P(2, 6, 3), seed=1)
        assert res.to_dict()["prunes"] == {"available": 0, "points": 0}



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

    def test_time_budget(self):
        res = search.max_partial_spread(P(2, 5, 2), max_seconds=0.02)
        assert res.status == search.BUDGET_EXHAUSTED
        assert res.wall_time < 5


class TestGreedy:
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
