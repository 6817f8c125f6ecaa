"""Exhaustive and greedy search for maximum partial t-spreads.

The exact solver is a depth-first subset grower over the full candidate
list of t-subspaces, in enumeration order.  Candidates are kept as one
numpy array of RREF bases (linalg.subspace_bases) with a point bitset
each; the spread that is returned holds its members' rows of that array as
grouped bases, and is verified.  Point coverage is tracked as a
bitset over the theta_n projective points, and compatibility (trivial
intersection) as bitsets over candidate indices, built from point
incidence: a candidate is compatible with every candidate through none of
its points.  Three admissible prunes bound what a branch can still reach,
tried in this order, and each is counted when it fires:

  * chosen + available candidates;
  * chosen + floor(uncovered points / theta_t);
  * chosen + the number of points in a greedy cover of the available
    candidates.  The candidates through one point pairwise meet, so at
    most one of them joins the spread, and a branch whose available
    candidates all pass through k points adds at most k members.

A prune fires only when the bound is at most the incumbent, so it cuts
only subtrees that hold no larger spread: the incumbent changes at the
same nodes in the same order with or without it, and so do the witness
and the status.  A child that the available count prunes is counted by its
parent's loop without a call.  No prune reads the upper bounds of bounds.py,
which the search is meant to check independently; it takes only
SpreadParams and theta from there.

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
count.  A search whose tree has at most max_nodes nodes ends EXACT; a node
that would branch once the budget or the deadline is spent ends it before
that node becomes the incumbent.  greedy_spread, a first fit over the
candidates in a seeded order, gives a witness and never an optimality claim.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

import numpy as np

from .bounds import SpreadParams, theta
from .construct import (
    PartialSpread,
    build_lower_bound_spread,
    verify_partial_spread,
)
from .errors import BudgetExceededError, InvalidParamsError
from .gf import field_for_order
from .linalg import (
    _POINT_BLOCK,
    GroupedBases,
    gaussian_binomial,
    point_encodings_of_bases,
    point_ordinals,
    subspace_bases,
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
    """The bases of all t-subspaces in enumeration order, as one
    (count, t, n) array, and the point bitset of each."""
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    bases = subspace_bases(n, t, field)
    total = theta(n, q)
    masks = []
    for _, block in point_encodings_of_bases(field, bases):
        bits = np.zeros((len(block), total), dtype=bool)
        bits[np.arange(len(block))[:, None], point_ordinals(block, n, q)] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return bases, masks


def _members(params: SpreadParams, bases, chosen) -> PartialSpread:
    """The verified partial spread of the candidates ``chosen``."""
    members = GroupedBases([]).extended(
        field_for_order(params.q), params.n, bases[list(chosen)]
    )
    spread = PartialSpread(params, members)
    res = verify_partial_spread(spread)
    assert res.ok, res.reason
    return replace(spread, verified=True)


class _State:
    """Incumbent, node and prune counts and budgets of one search."""

    def __init__(self, best_size, node_cap, deadline):
        self.best_size = best_size
        self.best_chosen: tuple[int, ...] | None = None
        self.node_cap = node_cap
        self.deadline = deadline
        self.nodes = 0
        self.prunes = {"available": 0, "points": 0, "cover": 0}
        self.exhausted = True


def _bits(a: int):
    while a:
        low = a & -a
        yield low.bit_length() - 1
        a ^= low


def _adjacency(masks, total_points):
    """adj[i]: bitset of the candidates meeting candidate i trivially, and
    stars[i]: for each point of candidate i, the bitset of the candidates
    through that point.

    Candidate i meets exactly the candidates in the union of its stars,
    itself included.
    """
    through = [0] * total_points
    for i, m in enumerate(masks):
        for p in _bits(m):
            through[p] |= 1 << i
    full = (1 << len(masks)) - 1
    stars = [[through[p] for p in _bits(m)] for m in masks]
    adj = []
    for star in stars:
        meet = 0
        for s in star:
            meet |= s
        adj.append(full & ~meet)
    return adj, stars


def _covered_within(avail, slack, stars) -> bool:
    """True when the stars of at most slack points cover avail.

    The candidates through one point pairwise meet, so a branch whose
    available candidates lie on k points adds at most k members.  Greedy
    cover: the lowest candidate left lies in one of its own stars; take
    the one holding most of what is left.
    """
    steps = 0
    while avail:
        if steps == slack:
            return False
        steps += 1
        top = -1
        for star in stars[(avail & -avail).bit_length() - 1]:
            hit = star & avail
            size = hit.bit_count()
            if size > top:
                top, cover = size, hit
        avail ^= cover
    return True


def _grow(chosen, avail, covered, masks, adj, stars, total_points, point_size, state):
    """Explore the node ``chosen`` (a list this call restores on return)
    whose remaining candidates are ``avail`` and covered points ``covered``.

    The caller counts the node, and counts a child that the available count
    prunes without calling for it.  A pruned node is finished.  A node that
    would branch once max_nodes nodes are counted or the deadline has passed
    ends the search before it becomes the incumbent.
    """
    k = len(chosen)
    incumbent = state.best_size
    best = max(incumbent, k)
    if k + avail.bit_count() <= best:
        reason = "available"
    elif k + (total_points - covered.bit_count()) // point_size <= best:
        reason = "points"
    elif _covered_within(avail, best - k, stars):
        reason = "cover"
    else:
        reason = None
    if reason is None and (
        state.nodes == state.node_cap
        or (state.deadline is not None and time.monotonic() > state.deadline)
    ):
        state.exhausted = False
        return
    if k > incumbent:
        state.best_size = k
        state.best_chosen = tuple(chosen)
    if reason is not None:
        state.prunes[reason] += 1
        return
    chosen.append(-1)
    while avail:
        low = avail & -avail
        avail ^= low
        c = low.bit_length() - 1
        if state.nodes == state.node_cap:
            state.exhausted = False
            break
        state.nodes += 1
        # avail now holds the candidates after c
        child = avail & adj[c]
        if k + 1 + child.bit_count() <= state.best_size:
            state.prunes["available"] += 1  # a leaf, as its call would find
            continue
        chosen[-1] = c
        _grow(chosen, child, covered | masks[c], masks, adj, stars,
              total_points, point_size, state)
        if not state.exhausted:
            break
    chosen.pop()


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
    the budget ends at the root of a cold start.  Raises
    InvalidParamsError when max_nodes < 1 or max_seconds <= 0, and
    BudgetExceededError when the adjacency bitsets would exceed
    ADJACENCY_BIT_CAP bits.
    """
    start = time.monotonic()
    if max_nodes is not None and max_nodes < 1:
        raise InvalidParamsError(f"node budget must be at least 1, got {max_nodes}")
    if max_seconds is not None and not max_seconds > 0:
        raise InvalidParamsError(f"time budget must be positive, got {max_seconds}")
    q, n, t = params.q, params.n, params.t
    count = gaussian_binomial(n, t, q)
    if count * count > ADJACENCY_BIT_CAP:
        raise BudgetExceededError(
            f"{count} candidates need {count * count} adjacency bits, "
            f"cap is {ADJACENCY_BIT_CAP}"
        )
    bases, masks = _candidates(params)
    total_points = theta(n, q)
    point_size = theta(t, q)
    adj, stars = _adjacency(masks, total_points)

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
    state.nodes = 1  # the root; max_nodes is at least 1
    _grow(*root, masks, adj, stars, total_points, point_size, state)

    if state.best_chosen is not None:
        witness = _members(params, bases, state.best_chosen)
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


def _greedy_order(count: int, seed: int) -> np.ndarray:
    """greedy_spread's candidate order: one 64-bit key per candidate from
    random.Random(seed), which takes |seed|, stably sorted."""
    keys = np.frombuffer(random.Random(seed).randbytes(8 * count), dtype=np.uint64)
    return np.argsort(keys, kind="stable")


def greedy_spread(params: SpreadParams, seed: int = 0) -> PartialSpread:
    """First fit over all candidates in _greedy_order: each joins when none
    of its points is covered yet.  A chunk of the order at a time, the
    candidates with a covered basis row (an RREF row is a normalized vector,
    so a point) are dropped, and only the rest have their points listed."""
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    bases = subspace_bases(n, t, field)
    order = _greedy_order(len(bases), seed)
    covered = np.zeros(theta(n, q), dtype=bool)
    picked = []
    per = max(1, _POINT_BLOCK // theta(t, q))
    for chunk in np.split(order, range(per, len(order), per)):
        rows = point_ordinals(bases[chunk] @ q ** np.arange(n), n, q)
        chunk = chunk[~covered[rows].any(axis=1)]
        for at, block in point_encodings_of_bases(field, bases[chunk]):
            points = point_ordinals(block, n, q)
            for i in np.flatnonzero(~covered[points].any(axis=1)).tolist():
                if not covered[points[i]].any():
                    covered[points[i]] = True
                    picked.append(chunk[at + i])
    return _members(params, bases, picked)


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
        prunes={"available": 0, "points": 0, "cover": 0},
    )
