"""Exhaustive and greedy search for maximum partial t-spreads.

The exact solver is a depth-first subset grower over the full candidate
list of t-subspaces, in enumeration order.  Compatibility (trivial
intersection) is precomputed as bitsets over candidate indices, and point
coverage is tracked as a bitset over the theta_n projective points.  Two
admissible prunes bound what a branch can still reach:

  * chosen + available candidates;
  * chosen + floor(uncovered points / theta_t).

Because GL(n, q) is transitive on t-subspaces, some maximum partial spread
contains the first candidate, so the root fixes it; and by default the
incumbent is warm-started with the packing-bound construction, which the
search then tries to beat.  Exhausting the tree proves optimality either
way.  The search is deterministic: the same call gives the same witness
and node count.
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
from .gf import field_for_order
from .linalg import enumerate_subspaces, point_encodings, point_ordinals

EXACT = "EXACT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
LOWER_WITNESS_ONLY = "LOWER_WITNESS_ONLY"


@dataclass(frozen=True)
class SearchResult:
    params: SpreadParams
    best_size: int
    witness: PartialSpread
    status: str
    nodes_explored: int
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "n": self.params.n,
            "t": self.params.t,
            "best_size": self.best_size,
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
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
    """Incumbent, node count and budgets of one search."""

    def __init__(self, best_size, node_cap, deadline):
        self.best_size = best_size
        self.best_chosen: tuple[int, ...] | None = None
        self.node_cap = node_cap
        self.deadline = deadline
        self.nodes = 0
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


def _grow(chosen, avail, covered, masks, adj, total_points, point_size, state):
    state.nodes += 1
    if state.out_of_budget():
        state.exhausted = False
        return
    state.offer(chosen)
    k = len(chosen)
    if k + avail.bit_count() <= state.best_size:
        return
    uncovered = total_points - covered.bit_count()
    if k + uncovered // point_size <= state.best_size:
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
    the budget ends before the first node of a cold start.
    """
    start = time.monotonic()
    q, n, t = params.q, params.n, params.t
    subs, masks = _candidates(params)
    count = len(subs)
    adj = []
    for i in range(count):
        row = 0
        mi = masks[i]
        for j in range(count):
            if j != i and mi & masks[j] == 0:
                row |= 1 << j
        adj.append(row)

    seed_spread = build_lower_bound_spread(params) if warm_start else None
    state = _State(
        best_size=seed_spread.size if seed_spread else 0,
        node_cap=max_nodes,
        deadline=None if max_seconds is None else start + max_seconds,
    )
    total_points = theta(n, q)
    point_size = theta(t, q)

    # every maximum partial spread can be moved onto the first candidate
    _grow(
        [0], (adj[0] >> 1) << 1, masks[0], masks, adj,
        total_points, point_size, state,
    )

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
    )
