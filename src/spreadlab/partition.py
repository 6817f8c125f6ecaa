"""Vector space partitions, hyperplane profiles, and descent certificates.

A partition of V(n, q) is a set of nonzero subspaces covering every nonzero
vector exactly once.  Partial t-spreads induce partitions by filling the
uncovered points with 1-dimensional parts; the resulting tail is what the
counting arguments below squeeze.  Parts are held as bases arrays
(linalg.GroupedBases), a spread's holes as one (h, 1, n) array; Subspace
objects are built only when ``parts`` is read.

Two counting identities constrain how parts sit inside hyperplanes.  With
b_(H,d) = number of d-dimensional parts contained in the hyperplane H and
n_d = number of d-dimensional parts:

    (1)  1 + sum_d b_(H,d) q^d  =  number of parts, for every H;
    (2)  sum_H b_(H,d)  =  n_d * theta_(n-d), for every d.

The tail theorem (`heden_case`) bounds the number n_d1 of minimal-dimension
parts in terms of the second-smallest dimension d2, split by whether
q^(d2-d1) divides n_d1 and whether d2 >= 2*d1.

`descent_certificate` packages the arithmetic trail of the supposition
"a partial t-spread of size l*q^t + x + 1 exists": the induced partition,
the residue chain delta_t, ..., delta_2 of its tail modulo falling powers
of q, and the final clash with the tail theorem.  `check_certificate`
recomputes every field independently.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import SpreadParams, delta, descent_x, h_of, lemma_main_bound, theta
from .construct import PartialSpread, check_verify_budget
from .errors import (
    BudgetExceededError,
    HypothesisViolatedError,
    IdentityViolationError,
    InvalidParamsError,
    UnverifiedSpreadError,
)
from .gf import digits, field_for_order
from .linalg import (
    GroupedBases,
    Subspace,
    check_in_space,
    least_shared_pair,
    normalized_point_encodings,
    point_encodings_of_bases,
    point_ordinals,
)

PROFILE_POINT_CAP = 1 << 24


@dataclass(frozen=True)
class SubspacePartition:
    """Subspaces of V(n, q), held as GroupedBases, claimed to cover each
    nonzero vector once."""

    q: int
    n: int
    parts: Sequence[Subspace]

    def __post_init__(self):
        object.__setattr__(self, "parts", GroupedBases.of(self.parts))

    @property
    def dim_counts(self) -> dict[int, int]:
        """dimension -> multiplicity, largest dimension first."""
        counts = Counter()
        for g in self.parts.groups:
            counts[g.dim] += len(g.rows)
        return dict(sorted(counts.items(), reverse=True))


def _covered(parts: GroupedBases, n: int, q: int) -> np.ndarray:
    """Flags, by point ordinal, of the points of V(n, q) the parts cover."""
    covered = np.zeros(theta(n, q), dtype=bool)
    for g in parts.groups:
        for _, block in point_encodings_of_bases(g.field, g.rows):
            covered[point_ordinals(block, n, q)] = True
    return covered


def partition_from_spread(spread: PartialSpread) -> SubspacePartition:
    """Extend a verified partial spread to a partition by adding one
    1-dimensional part per uncovered point, in ascending encoding order."""
    if spread.verified is not True:
        raise UnverifiedSpreadError(
            "refusing to extend an unverified spread; run verify_partial_spread"
        )
    params = spread.params
    q, n = params.q, params.n
    check_verify_budget(f"V({n}, {q})", theta(n, q))
    field = field_for_order(q)
    holes = normalized_point_encodings(n, q)[~_covered(spread.members, n, q)]
    # a normalized vector is already the RREF basis of its point
    singles = holes[:, None, None] // q ** np.arange(n) % q
    parts = spread.members.extended(field, n, singles.astype(np.min_scalar_type(q - 1)))
    return SubspacePartition(q, n, parts)


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    reason: str = ""
    witness: tuple[int, ...] | None = None


def verify_partition(partition: SubspacePartition) -> PartitionCheck:
    """Exact cover check on the parts' points.

    Reports the lexicographically least pair of parts sharing a point, else
    the least point no part covers."""
    q, n = partition.q, partition.n
    total = theta(n, q)
    check_verify_budget("partition", total)
    parts = partition.parts
    check_in_space(parts, field_for_order(q), n, "part", "partition")
    if any(g.dim == 0 for g in parts.groups):
        return PartitionCheck(False, "zero-dimensional part")

    shared = least_shared_pair(parts)
    if shared is not None:
        j, i, enc = shared
        return PartitionCheck(
            False, f"point covered by parts {j} and {i}", digits(enc, q, n)
        )
    if sum(len(g.rows) * theta(g.dim, q) for g in parts.groups) < total:
        covered = _covered(parts, n, q)
        enc = int(normalized_point_encodings(n, q)[np.argmin(covered)])
        return PartitionCheck(False, "point not covered", digits(enc, q, n))
    return PartitionCheck(True)


# ---------------------------------------------------------------------------
# hyperplane profiles


@dataclass(frozen=True)
class HyperplaneProfile:
    """Per-hyperplane containment counts for a partition.

    ``dims`` lists the distinct part dimensions, largest first.
    ``b_vectors[h][k]`` counts parts of dimension dims[k] inside the h-th
    hyperplane (hyperplanes ascending by dual encoding).  ``s_b`` counts how
    many hyperplanes share each distinct b-vector.
    """

    q: int
    n: int
    dims: tuple[int, ...]
    dim_counts: dict[int, int]
    b_vectors: tuple[tuple[int, ...], ...]
    s_b: dict[tuple[int, ...], int]

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "dims": list(self.dims),
            "dim_counts": {str(d): c for d, c in self.dim_counts.items()},
            "s_b": [
                {"b": list(b), "hyperplanes": c}
                for b, c in sorted(self.s_b.items(), reverse=True)
            ],
        }


def _line_counts(field, bases: np.ndarray, n: int, dtype) -> np.ndarray:
    """How often each vector of V(n, q) is listed as a GF(p)-line of the
    parts with RREF bases ``bases``, an (m, d, n) array, q = p^e, with the
    digits of each coordinate mapped by the trace pairing
    M[k, l] = Tr(x^(k+l)): digit k of the image of a is Tr(x^k a).
    Tr(x^m) is the trace of X^m, X the matrix of multiplication by x."""
    p, e, size = field.p, field.e, field.q ** n
    x = np.eye(e, k=-1, dtype=np.int64)
    x[:, -1] = np.negative(field.modulus[:e]) % p
    power, traces = np.eye(e, dtype=np.int64), []
    for _ in range(2 * e - 1):
        traces.append(int(np.trace(power)) % p)
        power = power @ x % p
    pairing = np.array([traces[k:k + e] for k in range(e)])
    counts = np.zeros(size, dtype)
    per = max(1, size // 4 // theta(bases.shape[1] * e, p))  # a bincount costs q^n
    for i in range(0, len(bases), per):
        blocks = point_encodings_of_bases(field, bases[i:i + per], lines=pairing)
        encs = [b.ravel() for _, b in blocks]
        counts += np.bincount(np.concatenate(encs), minlength=size)
    return counts


def _orthogonal_counts(counts: np.ndarray, p: int, at: np.ndarray) -> np.ndarray:
    """S(y) = sum of counts[w] over w in GF(p)^N with y.w = 0, at encodings
    ``at`` whose lowest nonzero digit is 1.  p = 2: Walsh-Hadamard in place,
    S = (sum + W) / 2.  Odd p, for each lowest nonzero digit i of y: sum out
    the digits of w below i, use digit i as residue s, and turn each higher
    digit w_j into y_j by G'(y_j, s) = sum_(w_j) G(w_j, s - y_j w_j); then
    S(e_i + y) is G at s = 0."""
    size = counts.size
    if p == 2:
        total = int(counts.sum())
        for k in range(size.bit_length() - 1):
            low, high = counts.reshape(-1, 2, 1 << k).transpose(1, 0, 2)
            low += high
            high *= -2
            high += low
        return (total + counts[at].astype(np.int64)) // 2
    out = np.zeros(size, counts.dtype)
    r, lead = np.arange(p), 1
    while lead < size:
        # g[s, rest, y]: rest = the digits above i still to turn, y = the
        # turned ones; the highest digit of rest turns first
        g = counts.reshape(-1, p).T.reshape(p, -1, 1)
        while g.shape[1] > p:
            g = g.reshape(p, p, -1, g.shape[2]).transpose(1, 0, 2, 3)
            twice = np.concatenate([g, g], axis=1)  # [w, p + s - t] = g[w, s - t]
            step = np.zeros((p,) + g.shape[1:], g.dtype)
            for y, w in np.ndindex(p, p):
                step[y] += twice[w, p - y * w % p:2 * p - y * w % p]
            g = step.transpose(1, 2, 3, 0).reshape(p, step.shape[2], -1)
        if g.shape[1] == p:  # the last digit, at s = 0 only
            g = g[-np.outer(r, r) % p, r].sum(axis=1).T
        out[lead::lead * p] = g[0] if g.shape[1] == 1 else g.ravel()
        counts = counts.reshape(-1, p).sum(axis=1)
        lead *= p
    return out[at].astype(np.int64)


def hyperplane_profile(partition: SubspacePartition) -> HyperplaneProfile:
    """Count, for every hyperplane, the parts of each dimension inside it,
    then verify both counting identities.

    Over GF(p), q = p^e, the hyperplane u.v = 0 gives Tr(u.v) = 0 with the
    same parts inside.  A d-part lies in that or meets it in theta_(de-1) of
    its GF(p)-lines, so if the n_d d-parts have Z(u) GF(p)-lines in it (with
    multiplicity), b_(u,d) = (Z(u) - n_d theta_(de-1)) / p^(de-1), exactly."""
    q, n = partition.q, partition.n
    if q ** n > PROFILE_POINT_CAP:
        raise BudgetExceededError(f"q^n = {q ** n} exceeds {PROFILE_POINT_CAP}")
    if not partition.parts:
        raise InvalidParamsError("empty partition has no profile")
    field = field_for_order(q)
    check_in_space(partition.parts, field, n, "part", "partition")
    # the parts now differ only in dimension: one group each
    bases = {g.dim: g.rows for g in partition.parts.groups}
    p, e = field.p, field.e
    dim_counts = partition.dim_counts
    dims = tuple(dim_counts)
    duals = normalized_point_encodings(n, q)
    per_dim = []
    for d, n_d in dim_counts.items():
        if d == 0:  # the zero subspace lies in every hyperplane
            per_dim.append(np.full(len(duals), n_d, dtype=np.int64))
            continue
        # the Walsh-Hadamard pass stays within twice the lines listed
        dtype = np.int32 if 2 * n_d * theta(d * e, p) < 2 ** 31 else np.int64
        lines = _orthogonal_counts(_line_counts(field, bases[d], n, dtype), p, duals)
        extra, unit = lines - n_d * theta(d * e - 1, p), p ** (d * e - 1)
        bad = np.flatnonzero(extra % unit)
        if bad.size:
            h = int(bad[0])
            raise IdentityViolationError(
                f"hyperplane {digits(int(duals[h]), q, n)}: {int(lines[h])} "
                f"lines of {d}-dimensional parts give b_(H,{d}) a remainder mod {unit}"
            )
        per_dim.append(extra // unit)

    n_parts = len(partition.parts)
    stacked = np.stack(per_dim)  # len(dims) x theta_n
    totals = 1 + np.array([q ** d for d in dims], dtype=np.int64) @ stacked
    bad = np.nonzero(totals != n_parts)[0]
    if bad.size:
        h = int(bad[0])
        raise IdentityViolationError(
            f"hyperplane {digits(int(duals[h]), q, n)}: 1 + sum b_d q^d = "
            f"{int(totals[h])}, but the partition has {n_parts} parts"
        )
    for d, row in zip(dims, per_dim):
        want = dim_counts[d] * theta(n - d, q)
        got = int(row.sum())
        if got != want:
            raise IdentityViolationError(
                f"dimension {d}: sum over hyperplanes is {got}, "
                f"want n_d * theta_(n-d) = {want}"
            )

    b_vectors, s_b = _b_vector_groups(stacked)
    assert sum(s_b.values()) == theta(n, q)
    return HyperplaneProfile(q, n, dims, dim_counts, b_vectors, s_b)


def _b_vector_groups(stacked: np.ndarray) -> tuple[tuple, dict]:
    """The columns of ``stacked`` as tuples, one tuple object per distinct
    column, and s_b: each distinct column with its count, in order of first
    occurrence.

    One stable lexsort over the rows puts equal columns next to each other,
    the first occurrence first; a run starts where a row changes."""
    order = np.lexsort(stacked)
    ranked = stacked[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new)
    # runs numbered by their first hyperplane, the one at their start
    by_first = np.argsort(order[starts])
    number = np.empty_like(by_first)
    number[by_first] = np.arange(len(starts))
    inverse = np.empty_like(order)
    inverse[order] = number[np.cumsum(new) - 1]
    sizes = np.diff(starts, append=len(order))
    distinct = [tuple(b) for b in ranked[:, starts[by_first]].T.tolist()]
    s_b = dict(zip(distinct, sizes[by_first].tolist()))
    return tuple(map(distinct.__getitem__, inverse.tolist())), s_b


# ---------------------------------------------------------------------------
# tail bounds

@dataclass(frozen=True)
class HedenCase:
    """Tail-theorem classification for n_d1 parts of minimal dimension d1
    next to second-smallest dimension d2.

    ``required_min`` is the threshold n_d1 must meet in its case; in case
    (ii) equality with (q^d2 - 1)/(q^d1 - 1) is the one escape below the
    threshold, flagged by ``exceptional``.
    """

    case: str
    divides: bool
    wide: bool
    required_min: int
    satisfied: bool
    exceptional: bool


def heden_case(n_d1: int, d1: int, d2: int, q: int) -> HedenCase:
    """Classify the tail count n_d1 against the tail theorem.

    Cases by (q^(d2-d1) divides n_d1, d2 >= 2*d1):
      (i)   no/no:   n_d1 >= q^d1 + 1
      (ii)  no/yes:  n_d1 = (q^d2 - 1)/(q^d1 - 1), or n_d1 > 2*q^(d2-d1)
      (iii) yes/no:  n_d1 >= q^d2 - q^d1 + q^(d2-d1)
      (iv)  yes/yes: n_d1 >= q^d2
    """
    if n_d1 < 1 or not 1 <= d1 < d2:
        raise InvalidParamsError(
            f"need n_d1 >= 1 and 1 <= d1 < d2, got n_d1={n_d1} d1={d1} d2={d2}"
        )
    gap = q ** (d2 - d1)
    divides = n_d1 % gap == 0
    wide = d2 >= 2 * d1
    at = 2 * divides + wide
    case = ("i", "ii", "iii", "iv")[at]
    required = (q ** d1 + 1, 2 * gap + 1, q ** d2 - q ** d1 + gap, q ** d2)[at]
    exceptional = case == "ii" and n_d1 * (q ** d1 - 1) == q ** d2 - 1
    satisfied = exceptional or n_d1 >= required
    return HedenCase(case, divides, wide, required, satisfied, exceptional)


# ---------------------------------------------------------------------------
# descent certificates


@dataclass(frozen=True)
class CertStep:
    """One rung of the residue descent: at step j the tail count satisfies
    n_1 = delta_i (mod q^i) for i = t - j, and the next residue follows by
    delta_(i-1) = ((x + delta_i) / q) mod q^(i-1)."""

    j: int
    i: int
    delta: int
    cap: int
    n1_residue: int
    next_delta: int


@dataclass(frozen=True)
class FinalCase:
    """End of the descent: the tail of the final partition has delta2
    singletons with q | delta2 and 0 < delta2 <= q^2 - q, but every branch
    of the tail theorem demands more, whatever the second dimension is."""

    delta2: int
    delta2_max: int
    required_dim2: int
    required_dim_ge3_min: int
    heden_case: str
    heden_satisfied: bool


@dataclass(frozen=True)
class DescentCertificate:
    q: int
    n: int
    t: int
    r: int
    x: int
    h: int
    ell: int
    claimed_bound: int
    n_t: int
    n_1: int
    steps: tuple[CertStep, ...]
    final: FinalCase

    def to_dict(self) -> dict:
        doc = asdict(self)  # the steps as a tuple of dicts
        return {**doc, "steps": list(doc["steps"])}


# JSON types of parsed values; a certificate's fields are integers but four
_JSON_TYPES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}
_FIELD_TYPES = {
    "steps": list, "final": dict, "heden_case": str, "heden_satisfied": bool,
}


def _expect(value, kind: type, at: str) -> None:
    if type(value) is not kind:
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise InvalidParamsError(f"{at} must be {_JSON_TYPES[kind]}, got {got}")


def certificate_from_dict(d: dict) -> DescentCertificate:
    """Inverse of DescentCertificate.to_dict.  Raises InvalidParamsError
    naming the first field whose key or type docs/schemas/certificate.schema.json
    does not allow, by the dotted path that check_certificate reports."""
    return _from_dict(DescentCertificate, d, "")


def _from_dict(cls, d, path: str):
    """The dataclass cls read from the object d at the dotted path."""
    where = path or "certificate"
    _expect(d, dict, where)
    names = [f.name for f in fields(cls)]
    for key in [*d, *names]:
        if key not in names:
            raise InvalidParamsError(f"{where} has unexpected key {key!r}")
        if key not in d:
            raise InvalidParamsError(f"{where} is missing key {key!r}")
    values = {}
    for name in names:
        at, value = f"{path}.{name}" if path else name, d[name]
        _expect(value, _FIELD_TYPES.get(name, int), at)
        if name == "steps":
            value = tuple(
                _from_dict(CertStep, s, f"{at}[{i}]") for i, s in enumerate(value)
            )
        elif name == "final":
            value = _from_dict(FinalCase, value, at)
        values[name] = value
    return cls(**values)


def descent_certificate(
    q: int, n: int, t: int, x: int | None = None
) -> DescentCertificate:
    """Build the full arithmetic trace refuting a partial t-spread of size
    l*q^t + x + 1.  With x omitted, the strongest admissible value
    q^r - (q-1)(t-2) - c1 + c2 is used."""
    params = SpreadParams(q, n, t)
    r = params.r
    if x is None:
        if r < 2:
            raise InvalidParamsError(f"default x needs r >= 2, got r = {r}")
        x = descent_x(q, t, r)
    if not 0 < x < q ** r:
        raise HypothesisViolatedError(
            f"x must lie in (0, q^r) for the induced partition to exist, got {x}"
        )
    claimed = lemma_main_bound(q, n, t, x)  # validates every hypothesis
    h = h_of(x, q, t)
    ell = (q ** (n - t) - q ** r) // (q ** t - 1)
    n_t = claimed + 1
    n_1 = q ** t * (theta(r, q) - h) + delta(x, t, q)
    assert n_1 == theta(n, q) - n_t * theta(t, q)

    steps = []
    for j in range(t - 1):
        i = t - j
        d_i = delta(x, i, q)
        steps.append(
            CertStep(
                j=j,
                i=i,
                delta=d_i,
                cap=max(theta(r, q) - h - j, 0),
                n1_residue=n_1 % q ** i,
                next_delta=delta(x, i - 1, q),
            )
        )

    d2 = delta(x, 2, q)
    hed = heden_case(d2, 1, 2, q)
    final = FinalCase(
        delta2=d2,
        delta2_max=q * q - q,
        required_dim2=q * q,
        required_dim_ge3_min=min(theta(3, q), 2 * q * q, q ** 3),
        heden_case=hed.case,
        heden_satisfied=hed.satisfied,
    )
    return DescentCertificate(
        q, n, t, r, x, h, ell, claimed, n_t, n_1, tuple(steps), final
    )


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    mismatch: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def check_certificate(cert: DescentCertificate) -> CertificateCheck:
    """Recompute every certificate field from (q, n, t, x) and report the
    first disagreement as a dotted field path."""
    q, n, t, x = cert.q, cert.n, cert.t, cert.x

    def bad(path):
        return CertificateCheck(False, path)

    try:
        params = SpreadParams(q, n, t)
    except InvalidParamsError:
        return bad("params")
    if cert.r != params.r:
        return bad("r")
    if not 0 < x < q ** params.r:
        return bad("x")
    try:
        claimed = lemma_main_bound(q, n, t, x)
    except (HypothesisViolatedError, InvalidParamsError):
        return bad("x")
    r = params.r
    if cert.claimed_bound != claimed:
        return bad("claimed_bound")
    try:
        h = h_of(x, q, t)
    except IdentityViolationError:
        return bad("h")
    if cert.h != h:
        return bad("h")
    ell = (q ** (n - t) - q ** r) // (q ** t - 1)
    if cert.ell != ell or claimed != ell * q ** t + x:
        return bad("ell")
    if cert.n_t != claimed + 1:
        return bad("n_t")
    n_1 = q ** t * (theta(r, q) - h) + delta(x, t, q)
    if cert.n_1 != n_1 or n_1 != theta(n, q) - cert.n_t * theta(t, q):
        return bad("n_1")

    if len(cert.steps) != t - 1:
        return bad("steps")
    for idx, step in enumerate(cert.steps):
        path = f"steps[{idx}]"
        if step.j != idx:
            return bad(f"{path}.j")
        i = t - idx
        if step.i != i:
            return bad(f"{path}.i")
        d_i = delta(x, i, q)
        if step.delta != d_i:
            return bad(f"{path}.delta")
        if step.cap != max(theta(r, q) - h - idx, 0):
            return bad(f"{path}.cap")
        if step.n1_residue != n_1 % q ** i or step.n1_residue != d_i:
            return bad(f"{path}.n1_residue")
        if (x + d_i) % q != 0:
            return bad(f"{path}.next_delta")
        recur = ((x + d_i) // q) % q ** (i - 1)
        if step.next_delta != recur or step.next_delta != delta(x, i - 1, q):
            return bad(f"{path}.next_delta")

    fin = cert.final
    d2 = delta(x, 2, q)
    if fin.delta2 != d2 or fin.delta2 != cert.steps[-1].delta:
        return bad("final.delta2")
    if d2 % q != 0 or not 0 < d2 <= q * q - q:
        return bad("final.delta2")
    if fin.delta2_max != q * q - q:
        return bad("final.delta2_max")
    if fin.required_dim2 != q * q or not fin.required_dim2 > d2:
        return bad("final.required_dim2")
    alt = min(theta(3, q), 2 * q * q, q ** 3)
    if fin.required_dim_ge3_min != alt or not alt > q * q - q:
        return bad("final.required_dim_ge3_min")
    hed = heden_case(d2, 1, 2, q)
    if fin.heden_case != hed.case or hed.case != "iv":
        return bad("final.heden_case")
    if fin.heden_satisfied or hed.satisfied:
        return bad("final.heden_satisfied")
    return CertificateCheck(True)
