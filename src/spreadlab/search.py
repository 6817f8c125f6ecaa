"""Exhaustive and greedy search for maximum partial t-spreads.

The exact solver is a depth-first subset grower over the full candidate
list of t-subspaces, in enumeration order.  Point coverage is tracked as a
bitset over the theta_n projective points, and compatibility (trivial
intersection) as bitsets over candidate indices, built from point
incidence: a candidate is compatible with every candidate through none of
its points.  Two admissible prunes bound what a branch can still reach,
and each is counted when it fires:

  * chosen + available candidates;
  * chosen + floor(uncovered points / theta_t).

GL(n, q) is transitive on ordered pairs of trivially intersecting
t-subspaces, so when a partial spread of two members exists some maximum
one contains the first candidate and the first candidate disjoint from it;
the root fixes both.  Every other member disjoint from the first has a
larger index than the second, so growing subsets in increasing index order
from that pair still reaches every spread through it.  When n < 2t no two
t-subspaces meet trivially and the root fixes the first candidate only
(GL(n, q) is transitive on t-subspaces).  By default the incumbent is
warm-started with the packing-bound construction, which the search then
tries to beat.  Exhausting the tree proves optimality either way.  The
search is deterministic: the same call gives the same witness and node
count.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .bounds import SpreadParams, theta
from .construct import (
    PartialSpread,
    build_lower_bound_spread,
    verify_partial_spread,
)
from .errors import BudgetExceededError
from .gf import field_for_order
from .linalg import (
    enumerate_subspaces,
    gaussian_binomial,
    point_encodings,
    point_ordinals,
)

EXACT = "EXACT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
LOWER_WITNESS_ONLY = "LOWER_WITNESS_ONLY"

# most adjacency bits (candidates squared) the exact search builds
ADJACENCY_BIT_CAP = 1 << 30


@dataclass(frozen=True)
class SearchResult:
    params: SpreadParams
    best_size: int
    witness: PartialSpread
    status: str
    nodes_explored: int
    wall_time: float
    prunes: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "n": self.params.n,
            "t": self.params.t,
            "best_size": self.best_size,
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "prunes": dict(self.prunes),
            "witness": self.witness.to_dict(),
        }


def _candidates(params: SpreadParams):
    """All t-subspaces in enumeration order, each with its point bitset."""
    q, n, t = params.q, params.n, params.t
    subs = list(enumerate_subspaces(n, t, field_for_order(q)))
    total = theta(n, q)
    masks = []
    for _, block in point_encodings(subs):
        bits = np.zeros((len(block), total), dtype=bool)
        bits[np.arange(len(block))[:, None], point_ordinals(block, n, q)] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return subs, masks


class _State:
    """Incumbent, node and prune counts and budgets of one search."""

    def __init__(self, best_size, node_cap, deadline):
        self.best_size = best_size
        self.best_chosen: tuple[int, ...] | None = None
        self.node_cap = node_cap
        self.deadline = deadline
        self.nodes = 0
        self.prunes = {"available": 0, "points": 0}
        self.exhausted = True

    def out_of_budget(self) -> bool:
        if self.node_cap is not None and self.nodes >= self.node_cap:
            return True
        if self.deadline is not None and time.monotonic() > self.deadline:
            return True
        return False

    def offer(self, chosen: list[int]) -> None:
        if len(chosen) > self.best_size:
            self.best_size = len(chosen)
            self.best_chosen = tuple(chosen)


def _bits(a: int):
    while a:
        low = a & -a
        yield low.bit_length() - 1
        a ^= low


def _adjacency(masks, total_points):
    """adj[i]: bitset of the candidates meeting candidate i trivially.

    through[p] is the bitset of the candidates containing point p, so
    candidate i meets exactly the candidates in the union of through[p]
    over its points, itself included.
    """
    through = [0] * total_points
    for i, m in enumerate(masks):
        for p in _bits(m):
            through[p] |= 1 << i
    full = (1 << len(masks)) - 1
    adj = []
    for m in masks:
        meet = 0
        for p in _bits(m):
            meet |= through[p]
        adj.append(full & ~meet)
    return adj


def _grow(chosen, avail, covered, masks, adj, total_points, point_size, state):
    state.nodes += 1
    if state.out_of_budget():
        state.exhausted = False
        return
    state.offer(chosen)
    k = len(chosen)
    if k + avail.bit_count() <= state.best_size:
        state.prunes["available"] += 1
        return
    uncovered = total_points - covered.bit_count()
    if k + uncovered // point_size <= state.best_size:
        state.prunes["points"] += 1
        return
    for c in _bits(avail):
        rest = avail >> (c + 1) << (c + 1)
        _grow(
            chosen + [c],
            rest & adj[c],
            covered | masks[c],
            masks,
            adj,
            total_points,
            point_size,
            state,
        )
        if state.out_of_budget():
            state.exhausted = False
            return


def max_partial_spread(
    params: SpreadParams,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    warm_start: bool = True,
) -> SearchResult:
    """Branch-and-bound for mu_q(n, t) over the explicit candidate list.

    Status EXACT means the tree was exhausted and best_size is the true
    maximum; BUDGET_EXHAUSTED reports the best incumbent when max_nodes or
    max_seconds cut the run short.  That incumbent is the empty spread when
    the budget ends before the first node of a cold start.  Raises
    BudgetExceededError when the adjacency bitsets would exceed
    ADJACENCY_BIT_CAP bits.
    """
    start = time.monotonic()
    q, n, t = params.q, params.n, params.t
    count = gaussian_binomial(n, t, q)
    if count * count > ADJACENCY_BIT_CAP:
        raise BudgetExceededError(
            f"{count} candidates need {count * count} adjacency bits, "
            f"cap is {ADJACENCY_BIT_CAP}"
        )
    subs, masks = _candidates(params)
    total_points = theta(n, q)
    point_size = theta(t, q)
    adj = _adjacency(masks, total_points)

    seed_spread = build_lower_bound_spread(params) if warm_start else None
    state = _State(
        best_size=seed_spread.size if seed_spread else 0,
        node_cap=max_nodes,
        deadline=None if max_seconds is None else start + max_seconds,
    )
    if adj[0]:
        # some maximum partial spread contains candidate 0 and c1, the
        # first candidate disjoint from it; the rest all come after c1
        c1 = next(_bits(adj[0]))
        root = [0, c1], adj[0] & adj[c1], masks[0] | masks[c1]
    else:
        # n < 2t: every maximum partial spread is one candidate, any one
        root = [0], 0, masks[0]
    _grow(*root, masks, adj, total_points, point_size, state)

    if state.best_chosen is not None:
        witness = PartialSpread(
            params, tuple(subs[c] for c in state.best_chosen)
        )
        res = verify_partial_spread(witness)
        assert res.ok, res.reason
        witness = PartialSpread(params, witness.members, verified=True)
    elif seed_spread is not None:
        witness = seed_spread
    else:
        witness = PartialSpread(params, (), verified=True)
    status = EXACT if state.exhausted else BUDGET_EXHAUSTED
    return SearchResult(
        params=params,
        best_size=state.best_size,
        witness=witness,
        status=status,
        nodes_explored=state.nodes,
        wall_time=time.monotonic() - start,
        prunes=state.prunes,
    )


def greedy_spread(params: SpreadParams, seed: int = 0) -> PartialSpread:
    """Single greedy pass over a seeded shuffle of all candidates."""
    subs, masks = _candidates(params)
    order = list(range(len(subs)))
    random.Random(seed).shuffle(order)
    covered = 0
    picked = []
    for c in order:
        if covered & masks[c] == 0:
            picked.append(c)
            covered |= masks[c]
    spread = PartialSpread(params, tuple(subs[c] for c in picked))
    res = verify_partial_spread(spread)
    assert res.ok, res.reason
    return PartialSpread(params, spread.members, verified=True)


def greedy_result(params: SpreadParams, seed: int = 0) -> SearchResult:
    """Greedy witness wrapped as a SearchResult; never claims optimality."""
    start = time.monotonic()
    spread = greedy_spread(params, seed)
    return SearchResult(
        params=params,
        best_size=spread.size,
        witness=spread,
        status=LOWER_WITNESS_ONLY,
        nodes_explored=0,
        wall_time=time.monotonic() - start,
        prunes={"available": 0, "points": 0},
    )
