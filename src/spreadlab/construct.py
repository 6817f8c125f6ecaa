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
is exactly the packing lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bounds import SpreadParams, lower_bound, theta
from .errors import ConstructionSizeMismatchError, InvalidParamsError
from .gf import Field, ext_field, field_for_order
from .linalg import Subspace, check_in_space, intersect_dim, least_shared_pair

# most points a spread or partition check lists; larger inputs are refused,
# or verified by pairwise intersections
VERIFY_POINT_BUDGET = 1 << 22


@dataclass(frozen=True)
class PartialSpread:
    """A collection of t-subspaces of V(n, q); pairwise disjointness is a
    claim tracked by ``verified`` (None = never checked)."""

    params: SpreadParams
    members: tuple[Subspace, ...]
    verified: bool | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "n": self.params.n,
            "t": self.params.t,
            "members": [s.to_dict() for s in self.members],
        }


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    clash: tuple[int, int] | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "clash": list(self.clash) if self.clash else None,
            "reason": self.reason,
        }


def mult_map_matrix(ext: Field, a: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Rows i < t of the multiplication-by-a map on GF(q^m), in base-field
    coordinates: row i is the coordinate vector of a * g^i."""
    if not 1 <= t <= ext.m:
        raise InvalidParamsError(f"need 1 <= t <= {ext.m}, got {t}")
    g = ext.base.q if ext.m > 1 else 1  # encoding of the generator
    rows = []
    cur = a
    for _ in range(t):
        rows.append(ext.coord(cur))
        cur = ext.mul(cur, g)
    return tuple(rows)


def build_lower_bound_spread(params: SpreadParams) -> PartialSpread:
    """Construct and verify a partial t-spread of V(n, q) whose size equals
    the packing lower bound.  Raises OverflowLimitError if some level needs
    an extension field beyond the configured order cap."""
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    members: list[Subspace] = []

    offset = 0
    while n - offset >= 2 * t:
        m = n - offset - t
        ext = ext_field(field, m)
        for a in range(ext.q):
            mat = mult_map_matrix(ext, a, t)
            rows = []
            for i in range(t):
                row = [0] * offset
                row.extend(1 if j == i else 0 for j in range(t))
                row.extend(mat[i])
                rows.append(tuple(row))
            members.append(Subspace.from_rows(field, n, rows))
        offset += t

    tail = [
        tuple(1 if j == offset + i else 0 for j in range(n)) for i in range(t)
    ]
    members.append(Subspace.from_rows(field, n, tail))

    want = lower_bound(params)
    if len(members) != want:
        raise ConstructionSizeMismatchError(
            f"built {len(members)} members, packing bound says {want}"
        )
    spread = PartialSpread(params, tuple(members))
    res = verify_partial_spread(spread)
    if not res.ok:
        raise ConstructionSizeMismatchError(f"self-check failed: {res.reason}")
    return replace(spread, verified=True)


def verify_partial_spread(spread: PartialSpread) -> VerificationResult:
    """Check that all members are t-dimensional and pairwise disjoint.

    The members' points are listed by the point kernel and sorted; a point
    listed twice reports the lexicographically least pair of members that
    share a point.  When those points would exceed VERIFY_POINT_BUDGET, or
    q^n does not fit an int64, pairwise intersection tests take their place
    and report the same pair.
    """
    params = spread.params
    q, n, t = params.q, params.n, params.t
    field = field_for_order(q)
    members = spread.members
    check_in_space(members, field, n, "member", "spread")
    for i, s in enumerate(members):
        if s.dim != t:
            return VerificationResult(
                False, None, f"member {i} has dimension {s.dim}, expected {t}"
            )

    if len(members) * theta(t, q) > VERIFY_POINT_BUDGET or q ** n >= 1 << 63:
        clash = next(
            (
                (i, j)
                for i in range(len(members))
                for j in range(i + 1, len(members))
                if intersect_dim(members[i], members[j]) > 0
            ),
            None,
        )
    else:
        shared = least_shared_pair(members)
        clash = None if shared is None else shared[:2]
    if clash is not None:
        return VerificationResult(
            False, clash, f"members {clash[0]} and {clash[1]} share a nonzero vector"
        )
    return VerificationResult(True)


def spread_from_dict(d: dict) -> PartialSpread:
    """Inverse of PartialSpread.to_dict; the result is unverified."""
    params = SpreadParams(d["q"], d["n"], d["t"])
    members = tuple(Subspace.from_dict(m) for m in d["members"])
    return PartialSpread(params, members)
