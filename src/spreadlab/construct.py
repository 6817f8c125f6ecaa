"""Partial t-spread constructions meeting the packing lower bound.

The builder walks the ambient space in t-coordinate steps.  At offset j*t it
places one member [0 | I_t | M_a] for every a in GF(q^m), m = n - (j+1)*t,
where M_a is the t x m matrix of the maps u -> a * u restricted to the first
t basis powers.  Any two such matrices differ by some M_c with c != 0, and
the rows of M_c are c, c*g, ..., c*g^(t-1) (g the polynomial generator),
which are linearly independent over F_q whenever t <= m.  So members at one
level meet trivially, and members at deeper levels vanish on the identity
block of shallower ones.  A single identity-block member closes the walk
once fewer than 2t coordinates remain.

Counting levels gives q^(n-t) + q^(n-2t) + ... + q^(t+r) + 1 members, which
is exactly the packing lower bound.  A PartialSpread holds its members as
bases arrays (linalg.GroupedBases), which the builder, verification and
JSON output read and write.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .bounds import SpreadParams, lower_bound, theta
from .errors import BudgetExceededError, ConstructionSizeMismatchError, InvalidParamsError
from .gf import Field, ext_field, field_for_order
from .linalg import (
    GroupedBases,
    check_in_space,
    least_shared_pair,
    subspaces_from_dicts,
)

# most points a spread or partition check lists, counted before listing any;
# larger inputs are refused with BudgetExceededError
VERIFY_POINT_BUDGET = 1 << 22

# values of a per level block of the construction; bounds its scratch memory
_BUILD_BLOCK = 1 << 12


@dataclass(frozen=True)
class PartialSpread:
    """A collection of t-subspaces of V(n, q), held as GroupedBases;
    pairwise disjointness is a claim tracked by ``verified`` (None = never
    checked)."""

    params: SpreadParams
    members: GroupedBases
    verified: bool | None = None

    def __post_init__(self):
        if not isinstance(self.members, GroupedBases):
            got = type(self.members).__name__
            raise InvalidParamsError(f"PartialSpread takes GroupedBases, got {got}")

    @property
    def size(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "n": self.params.n,
            "t": self.params.t,
            "members": self.members.to_dicts(),
        }


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    clash: tuple[int, int] | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "clash": list(self.clash) if self.clash else None}


def check_verify_budget(what: str, points: int) -> None:
    """Refuse to list more than VERIFY_POINT_BUDGET points."""
    if points > VERIFY_POINT_BUDGET:
        raise BudgetExceededError(
            f"{what} has {points} points, point budget is {VERIFY_POINT_BUDGET}"
        )


def _mult_map_rows(ext: Field, a: np.ndarray, t: int) -> np.ndarray:
    """Rows i < t of the multiplication-by-x map on GF(q^m), of every x in
    the array a, as one array of shape (len(a), t, m): row i holds the
    base-q digits of x * g^i, g the generator.
    Multiplication by g is GF(p)-linear on the base-p digits of x, so one
    matrix product over all of a gives each next row."""
    p, q, m = ext.p, ext.base.q, ext.m
    place = p ** np.arange(ext.e)
    g = q if m > 1 else 1
    times_g = np.array([ext.mul(int(b), g) for b in place])[:, None] // place % p
    digits = a[:, None] // place % p
    rows = np.empty((len(a), t, m), dtype=np.int64)
    for i in range(t):
        rows[:, i] = (digits @ place)[:, None] // q ** np.arange(m) % q
        digits = digits @ times_g % p
    return rows


def build_lower_bound_spread(params: SpreadParams) -> PartialSpread:
    """Construct and verify a partial t-spread of V(n, q) whose size equals
    the packing lower bound.  Raises OverflowLimitError if some level needs
    an extension field beyond the configured order cap, and
    BudgetExceededError, before anything is built, if its self-check would
    list more than VERIFY_POINT_BUDGET points.

    Each level's rows [0 | I_t | M_a] are built for a block of a at a time
    and are already in RREF."""
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    offsets = range(0, n - 2 * t + 1, t)  # one level each while 2t coordinates remain
    towers = [ext_field(field, n - offset - t) for offset in offsets]
    want = lower_bound(params)
    check_verify_budget(f"spread of {want} members", want * theta(t, q))
    blocks = []
    for offset, ext in zip(offsets, towers):
        for start in range(0, ext.q, _BUILD_BLOCK):
            a = np.arange(start, min(start + _BUILD_BLOCK, ext.q))
            rows = np.zeros((len(a), t, n), dtype=np.min_scalar_type(q - 1))
            rows[:, range(t), range(offset, offset + t)] = 1
            rows[:, :, offset + t:] = _mult_map_rows(ext, a, t)
            blocks.append(rows)
    offset = len(offsets) * t
    tail = np.zeros((1, t, n), dtype=np.min_scalar_type(q - 1))
    tail[:, range(t), range(offset, offset + t)] = 1
    blocks.append(tail)

    members = GroupedBases([]).extended(field, n, np.concatenate(blocks))
    if len(members) != want:
        raise ConstructionSizeMismatchError(
            f"built {len(members)} members, packing bound says {want}"
        )
    spread = PartialSpread(params, members)
    res = verify_partial_spread(spread)
    if not res.ok:
        raise ConstructionSizeMismatchError(f"self-check failed: {res.reason}")
    return replace(spread, verified=True)


def verify_partial_spread(spread: PartialSpread) -> VerificationResult:
    """Check that all members are t-dimensional and pairwise disjoint.

    The members' points are listed by the point kernel and sorted; a point
    listed twice reports the lexicographically least pair of members that
    share a point.  Raises BudgetExceededError, before listing any, when
    there are more than VERIFY_POINT_BUDGET of them.
    """
    params = spread.params
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    members = spread.members
    check_in_space(members, field, n, "member", "spread")
    g = members.first(lambda g: g.dim != t)
    if g is not None:
        reason = f"member {g.index[0]} has dimension {g.dim}, expected {t}"
        return VerificationResult(False, None, reason)
    check_verify_budget("spread", len(members) * theta(t, q))
    shared = least_shared_pair(members)
    if shared is not None:
        a, b, _ = shared
        return VerificationResult(
            False, (a, b), f"members {a} and {b} share a nonzero vector"
        )
    return VerificationResult(True)


def spread_from_dict(d: dict) -> PartialSpread:
    """Inverse of PartialSpread.to_dict, parsed by subspaces_from_dicts
    into grouped bases; the result is unverified."""
    params = SpreadParams(d["q"], d["n"], d["t"])
    return PartialSpread(params, subspaces_from_dicts(d["members"]))
