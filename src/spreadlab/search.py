"""Exhaustive and greedy search for maximum partial t-spreads.

The exact solver is a depth-first subset grower over the full candidate
list of t-subspaces, in enumeration order.  Candidates are kept as one
numpy array of RREF bases (linalg.subspace_bases) with the ordinals of
their points; the spread that is returned holds its members' rows of that
array as grouped bases, and is verified.  Compatibility (trivial
intersection) is kept as bitsets over candidate indices, built from point
incidence: a candidate is compatible with every candidate through none of
its points.  Three admissible prunes bound what a node can still reach,
tried in this order, and each is counted when it fires:

  * chosen + available candidates;
  * the point count floor(theta_n / theta_t): k disjoint members leave
    theta_n - k theta_t points, room for floor(theta_n / theta_t) - k more;
  * chosen + the number of classes in a colour cover of the available
    candidates, built top down: each class lies in one star (the
    candidates through one point) of its seed, its highest candidate.
    The candidates through one point pairwise meet, so at most one member
    of each class joins the spread.

A node that branches takes its children in increasing order and reuses
its cover.  Every member of a class is at most its seed, so the classes
whose seed is at least c cover every candidate from c on.  The loop stops
at the first child c where those classes cannot beat the incumbent (the
tail cut, a cover prune), and it counts without a call a child that the
available count prunes or whose candidates meet too few of those classes
(a cover prune).

A cut fires only when the bound is at most the incumbent, so it removes
only subtrees that hold no larger spread.  So, with or without it, the
incumbent takes the same sizes in the same DFS order, each first reached
by the same spread, and the witness and the status are the same.  No
prune reads the upper bounds of bounds.py, which the search is meant to
check independently; it takes only SpreadParams and theta from there.

GL(n, q) is transitive on ordered pairs of trivially intersecting
t-subspaces, so when a partial spread of two members exists some maximum
one contains the first candidate and the first candidate disjoint from it;
the root fixes both.  Every other member is disjoint from both and has a
larger index than the second, so growing subsets of those, in increasing
index order, from that pair still reaches every spread through it; the
tree renumbers them in order, which keeps its bitsets short.  When n < 2t
no two t-subspaces meet trivially and the root fixes the first candidate
only (GL(n, q) is transitive on t-subspaces).  By default the incumbent is
warm-started with the packing-bound construction, which the search then
tries to beat.  Exhausting the tree proves optimality either way.

The root also cuts by symmetry.  Call its pair (U, W) and let T be the
group of the maps g in GL(n, q) that fix every vector of U + W and move
every vector within its coset of U, (g - 1)V in U: in a basis U + W + C
the block matrices [[I,0,0],[0,I,0],[X,0,I]], q^(t(n - 2t)) of them.  T
fixes U and W, so it permutes the tree candidates.  Once the root has finished a child, it
drops what is left of that child's T-orbit from its available candidates.
What it has dropped is then a union of orbits O_1, ..., O_j, T-invariant,
and the children it explored are their least members c_1 < ... < c_j.  A
spread through the root whose first orbit met is O_i has, under some g in
T, an image through c_i that avoids O_1, ..., O_(i-1), so every member of
it is at least c_i: branch c_i holds it.  So the maximum is unchanged.
The first maximum spread in DFS order is in the cut tree too, since an
image of it in an earlier branch would come first, so the witness is
unchanged.  The orbits (_orbit_labels) are built only when the root is
about to count a second child, so a search that closes at the root, or
whose tail cut ends the root after one child, builds none.  T is trivial
when n = 2t.  It is a subgroup of the stabilizer of (U, W), which would
cut more, and deeper nodes do not cut by symmetry.

The search is deterministic: the same call gives the same witness and node
count.  A search whose tree has at most max_nodes nodes ends EXACT; a node
that would branch once the budget is spent ends it before that node becomes
the incumbent.  greedy_spread, a first fit over the candidates in a seeded
order that picks a disjoint prefix at a time, gives a witness and never an
optimality claim.
"""

from __future__ import annotations

import functools
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
    GroupedBases,
    gaussian_binomial,
    point_encodings_of_bases,
    point_images,
    point_ordinals,
    rref_blocks,
    subspace_bases,
)

EXACT = "EXACT"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
LOWER_WITNESS_ONLY = "LOWER_WITNESS_ONLY"

# most adjacency bits (tree candidates squared) the exact search builds
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
    (count, t, n) array, and the point ordinals of each as one
    (count, theta_t) array, ascending along each row."""
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    bases, _ = subspace_bases(n, t, field)
    blocks = point_encodings_of_bases(field, bases)
    ords = np.concatenate([point_ordinals(block, n, q) for _, block in blocks])
    return bases, np.sort(ords, axis=1)


def _members(params: SpreadParams, bases, chosen) -> PartialSpread:
    """The verified partial spread of the candidates ``chosen``."""
    field = field_for_order(params.q)
    members = GroupedBases(field, params.n, []).extended(bases[list(chosen)])
    spread = PartialSpread(params, members)
    res = verify_partial_spread(spread)
    assert res.ok, res.reason
    return replace(spread, verified=True)


class _State:
    """Incumbent, node and prune counts and budgets of one search."""

    def __init__(self, best_size, node_cap):
        self.best_size = best_size
        self.best_chosen: tuple[int, ...] | None = None
        self.node_cap = node_cap
        self.nodes = 0
        self.prunes = {"available": 0, "points": 0, "cover": 0, "symmetry": 0}
        self.exhausted = True


def _adjacency(ords, total_points):
    """adj[i]: bitset of the candidates meeting candidate i trivially, and
    stars[i]: for each point of candidate i, ascending, the bitset of the
    candidates through that point; ords[i] lists candidate i's points.

    Candidate i meets exactly the candidates in the union of its stars,
    itself included.  through[p], the bitset of the candidates through
    point p, is row p of the packed point-candidate incidence.
    """
    count = len(ords)
    where = np.broadcast_to(np.arange(count)[:, None], ords.shape)
    packed = np.zeros((total_points, (count + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (ords, where >> 3), (1 << (where & 7)).astype(np.uint8))
    through = [int.from_bytes(row.tobytes(), "little") for row in packed]
    full = (1 << count) - 1
    stars = [[through[p] for p in row] for row in ords.tolist()]
    adj = []
    for star in stars:
        meet = 0
        for s in star:
            meet |= s
        adj.append(full & ~meet)
    return adj, stars


def _colour_classes(avail, stars):
    """A cover of avail by classes that each lie in one star of their
    seed: the seeds, descending, and their classes.

    Top down: the highest candidate left is the next seed, and its class
    is what is left of the seed's star that holds most of it (the first
    such star).  Every member of a class is at most its seed, so the
    classes whose seed is at least c cover the candidates of avail from c
    on.  The candidates through one point pairwise meet, so a spread takes
    at most one member from each class.
    """
    seeds, classes = [], []
    while avail:
        seed = avail.bit_length() - 1
        top = -1
        for star in stars[seed]:
            hit = star & avail
            size = hit.bit_count()
            if size > top:
                top, cls = size, hit
        seeds.append(seed)
        classes.append(cls)
        avail ^= cls
    return seeds, classes


def _bitset(mask: np.ndarray) -> int:
    """The bitset of the true positions of a boolean array."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _translation_generators(field, n: int, t: int) -> np.ndarray:
    """Generators of T, the block matrices [[I,0,0],[0,I,0],[X,0,I]]
    acting on rows, with U the span of the first t unit vectors, W of the
    next t and C of the last n - 2t, as an (m, n, n) array: I + a E_ij for
    each i in C, j in U and a = p^k, k < e, the GF(p)-basis x^k of GF(q)."""
    p, e = field.p, field.e
    gens = np.zeros((n - 2 * t, t, e, n, n), dtype=np.int64)
    gens[...] = np.eye(n, dtype=np.int64)
    for i in range(n - 2 * t):
        for j in range(t):
            gens[i, j, :, 2 * t + i, j] = p ** np.arange(e)
    return gens.reshape(-1, n, n)


def _translation_points(field, pair: np.ndarray) -> np.ndarray:
    """The generators of T (see the module docstring) for the root pair
    (U, W) as permutations of the points: an (m, theta_n) array of point
    ordinals.

    pair holds the RREF bases of U and W.  T is written in the basis of U,
    W and the unit vectors off their pivots, C (_translation_generators),
    and each generator is carried to the unit basis through the points:
    point_images of the change of basis and of the generators.
    """
    t, n = pair.shape[1:]
    basis = pair.reshape(2 * t, n).astype(np.int64)
    pivots = set((rref_blocks(field, basis[None])[0][0] != 0).argmax(axis=1).tolist())
    off = [j for j in range(n) if j not in pivots]
    change = np.concatenate([basis, np.eye(n, dtype=np.int64)[off]])  # x -> x change
    gens = _translation_generators(field, n, t)
    images = point_images(field, np.concatenate([change[None], gens]))
    return images[0][images[1:, np.argsort(images[0])]]


def _orbit_labels(field, pair: np.ndarray, ords: np.ndarray) -> np.ndarray:
    """The orbits of the tree candidates under T (see the module
    docstring) for the root pair (U, W) whose RREF bases pair holds: each
    candidate's label is the least index in its orbit.

    ords holds the candidates' point ordinals, ascending along each row.
    The image of each candidate's points under each generator
    (_translation_points) is looked up among the candidates by one
    lexicographic sort of all the rows, checked element by element.  Labels
    fall to the least along every generator until none changes.
    """
    count = len(ords)
    points = _translation_points(field, pair)
    rows = np.concatenate([ords[None], np.sort(points[:, ords], axis=2)])
    rows = rows.reshape(-1, ords.shape[1])
    # a stable sort puts each candidate first among its len(points) images
    runs = np.lexsort(rows.T[::-1]).reshape(count, -1)
    heads = runs[:, 0]
    assert (heads < count).all() and (rows[runs] == rows[heads, None]).all()
    perms = np.empty((len(points), count), dtype=np.int64)
    perms.reshape(-1)[runs[:, 1:].ravel() - count] = np.repeat(heads, len(points))
    label = np.arange(count)
    while True:
        old = label
        for perm in perms:
            label = np.minimum(label, label[perm])
            label[perm] = np.minimum(label[perm], label)
        label = label[label]
        if (label == old).all():
            return label


def _grow(chosen, avail, adj, stars, packing, state, orbit=None):
    """Explore the node ``chosen`` (a list this call restores on return)
    whose remaining candidates are ``avail``; ``packing`` is the point count.

    The caller counts the node.  A pruned node is finished.  A node that
    branches stops at its first child c from which the colour classes with
    seed at least c cannot beat the incumbent, and finishes without a call
    a child that the available count or those classes prune.  A node that
    would branch once max_nodes nodes are counted ends the search before
    it becomes the incumbent.  ``orbit``, given at the root only, maps a
    candidate to the bitset of its orbit: before it counts the next child,
    the root drops what is left of the last finished child's orbit from
    avail, and skips that child if it was in it.
    """
    k = len(chosen)
    incumbent = state.best_size
    best = max(incumbent, k)
    if k + avail.bit_count() <= best:
        reason = "available"
    elif packing <= best:
        reason = "points"
    else:
        seeds, classes = _colour_classes(avail, stars)
        reason = "cover" if k + len(seeds) <= best else None
    if reason is None and state.nodes == state.node_cap:
        state.exhausted = False
        return
    if k > incumbent:
        state.best_size = k
        state.best_chosen = tuple(chosen)
    if reason is not None:
        state.prunes[reason] += 1
        return
    chosen.append(-1)
    above = len(seeds)  # the classes whose seed is at least c
    last = None  # the root's last finished child, until its orbit is dropped
    while avail:
        low = avail & -avail
        avail ^= low
        c = low.bit_length() - 1
        while seeds[above - 1] < c:
            above -= 1
        if k + above <= state.best_size:
            state.prunes["cover"] += 1  # the tail cut: no child from c on
            break
        if last is not None:
            drop = orbit(last) & (avail | low)
            state.prunes["symmetry"] += drop.bit_count()
            avail &= ~drop
            last = None
            if drop & low:
                continue
        if state.nodes == state.node_cap:
            state.exhausted = False
            break
        state.nodes += 1
        if orbit is not None:
            last = c
        # avail now holds the candidates after c
        child = avail & adj[c]
        if k + 1 + child.bit_count() <= state.best_size:
            state.prunes["available"] += 1  # a leaf, as its call would find
            continue
        # a child meeting at most room of the classes cannot beat the incumbent
        room = state.best_size - k - 1
        if room >= 0:
            for cls in classes[:above]:
                if cls & child:
                    room -= 1
                    if room < 0:
                        break
            else:
                state.prunes["cover"] += 1  # a leaf by its classes
                continue
        chosen[-1] = c
        _grow(chosen, child, adj, stars, packing, state)
        if not state.exhausted:
            break
    chosen.pop()


def max_partial_spread(
    params: SpreadParams,
    max_nodes: int | None = None,
    warm_start: bool = True,
) -> SearchResult:
    """Branch-and-bound for mu_q(n, t) over the explicit candidate list.

    Status EXACT means the tree was exhausted and best_size is the true
    maximum; BUDGET_EXHAUSTED reports the best incumbent when max_nodes cut
    the run short.  That incumbent is the empty spread when the budget ends
    at the root of a cold start.  Raises InvalidParamsError when
    max_nodes < 1, and BudgetExceededError, before anything is built, when
    the adjacency bitsets over the candidates disjoint from the first (all
    candidates when n < 2t) could exceed ADJACENCY_BIT_CAP bits.
    """
    start = time.monotonic()
    if max_nodes is not None and max_nodes < 1:
        raise InvalidParamsError(f"node budget must be at least 1, got {max_nodes}")
    q, n, t = params.q, params.n, params.t
    # the tree grows over candidates disjoint from candidate 0, and
    # q^(t^2) [n - t, t]_q t-subspaces meet one t-subspace trivially; when
    # n < 2t none does, and all [n, t]_q candidates bound what is built
    most = q ** (t * t) * gaussian_binomial(n - t, t, q)
    most = most or gaussian_binomial(n, t, q)
    if most * most > ADJACENCY_BIT_CAP:
        raise BudgetExceededError(
            f"up to {most} candidates need {most * most} adjacency bits, "
            f"cap is {ADJACENCY_BIT_CAP}"
        )
    bases, ords = _candidates(params)
    seed_spread = build_lower_bound_spread(params) if warm_start else None
    state = _State(best_size=seed_spread.size if seed_spread else 0, node_cap=max_nodes)
    # some maximum partial spread holds candidate 0 and c1, the first
    # candidate disjoint from it (none when n < 2t: then one candidate is a
    # maximum); its other members come after c1, disjoint from both, and the
    # tree grows over those alone, renumbered in order
    taken = np.zeros(theta(n, q), dtype=bool)  # the points of the root
    taken[ords[0]] = True
    root = [0, *np.flatnonzero(~taken[ords].any(axis=1))[:1].tolist()]
    taken[ords[root[-1]]] = True
    rest = np.flatnonzero(~taken[ords].any(axis=1)).tolist()
    adj, stars = _adjacency(ords[rest], len(taken))
    state.nodes = 1  # the root; max_nodes is at least 1
    orbit = None
    if len(root) == 2:
        pair, tree = bases[root], ords[rest]
        labels = functools.cache(lambda: _orbit_labels(field_for_order(q), pair, tree))

        def orbit(c):
            return _bitset(labels() == labels()[c])

    _grow(
        root, (1 << len(rest)) - 1, adj, stars, len(taken) // theta(t, q), state, orbit
    )

    if state.best_chosen is not None:
        chosen = root + [rest[j] for j in state.best_chosen[len(root):]]
        witness = _members(params, bases, chosen)
    elif seed_spread is not None:
        witness = seed_spread
    else:
        witness = _members(params, bases, [])
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
    random.Random(seed), which takes |seed|, with the index in its low bits,
    sorted once in place; by the keys' top bits, ties by index."""
    low = np.uint64((1 << (count - 1).bit_length()) - 1)
    keys = np.frombuffer(random.Random(seed).randbytes(8 * count), np.uint64) & ~low
    keys |= np.arange(count, dtype=np.uint64)
    keys.sort()
    return np.bitwise_and(keys, low, out=keys).view(np.int64)


def greedy_spread(params: SpreadParams, seed: int = 0) -> PartialSpread:
    """First fit over all candidates in _greedy_order: each joins when none
    of its points is taken yet.  Chunks of the order, doubling from 32, drop
    the candidates with a taken basis row and list the points of the rest;
    of those still free, the longest pairwise disjoint prefix joins at once,
    until none is left.  Raises InvalidParamsError unless seed is an int."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidParamsError(f"seed must be an integer, got {seed!r}")
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    bases, row_ords = subspace_bases(n, t, field)
    order = _greedy_order(len(bases), seed)
    taken, picked = np.zeros(theta(n, q), dtype=bool), []
    edges = [32 * (2 ** k - 1) for k in range(1, (len(order) // 32).bit_length())]
    for chunk in np.split(order, edges):
        chunk = chunk[~taken[row_ords[chunk]].any(axis=1)]
        for start, block in point_encodings_of_bases(field, bases[chunk]):
            ids, points = chunk[start:start + len(block)], point_ordinals(block, n, q)
            while len(ids):
                free = ~taken[points].any(axis=1)
                ids, points = ids[free], points[free]
                # the prefix ends at the first point an earlier row holds
                first = np.sort(np.unique(points, return_index=True)[1])
                k = np.count_nonzero(first == np.arange(len(first))) // points.shape[1]
                taken[points[:k]] = True  # the next filter drops these too
                picked.extend(ids[:k].tolist())
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
        prunes={"available": 0, "points": 0, "cover": 0, "symmetry": 0},
    )
