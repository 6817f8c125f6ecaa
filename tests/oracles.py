"""Brute-force oracles for the tests.

The hyperplane oracles list hyperplanes and test containment from the
field's add and mul alone, without the package's point numbering or its
transform, so a test that compares them with ``hyperplane_profile`` or
``normalized_point_encodings`` checks one against the other.
``b_vector_groups`` counts b-vectors with a Counter, against the
profile's sort-based grouping.  ``max_disjoint`` sizes a partial spread
from ``intersect_dim`` alone, without the search's point bitsets.
``rref_rows`` reduces one matrix row by row with the field's own
arithmetic, against the package's batched elimination over GF(p) digits,
and ``intersect_dim`` ranks two stacked bases with it, so neither leans
on the package's elimination; ``subspace`` builds a Subspace from any
spanning rows with it, and ``grouped`` turns Subspace records into the
grouped bases that spreads and partitions hold.  ``mult_map_matrix``
builds the construction's matrices M_a one element at a time with
field.mul, against its bulk rows.  ``points`` lists a subspace's points
from the field tables alone; ``cover_faults`` checks with it that parts
partition the space, against the package's point numbering, and
``pairwise_least_shared`` finds the least pair of subspaces that meet,
against the package's sort of every point listed.  ``image`` maps one
point through a matrix, against the package's point permutations.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

import numpy as np

from spreadlab.linalg import BasesGroup, GroupedBases, Subspace


def encode(vec, q: int) -> int:
    """Base-q encoding of a vector, coordinate i as digit i."""
    return sum(v * q ** i for i, v in enumerate(vec))


def decode(enc: int, n: int, q: int) -> tuple[int, ...]:
    """The vector of V(n, q) with base-q encoding enc, the inverse of encode."""
    return tuple(enc // q ** i % q for i in range(n))


def hyperplane_duals(n: int, field) -> list[tuple[int, ...]]:
    """Dual vectors of the hyperplanes of V(n, q): first nonzero coordinate
    1, ascending by encoding."""
    duals = [
        v for v in product(range(field.q), repeat=n)
        if any(v) and next(x for x in v if x) == 1
    ]
    return sorted(duals, key=lambda v: encode(v, field.q))


@lru_cache(maxsize=None)
def _tables(field):
    """Addition and multiplication tables read from field.add and field.mul."""
    elems = range(field.q)
    add = [[field.add(a, b) for b in elems] for a in elems]
    mul = [[field.mul(a, b) for b in elems] for a in elems]
    return add, mul


def image(field, vec, matrix) -> tuple[int, ...]:
    """The row vector vec times matrix, scaled so its first nonzero
    coordinate is 1, from the field tables alone."""
    add, mul = _tables(field)
    out = [0] * len(matrix[0])
    for c, row in zip(vec, matrix):
        out = [add[v][mul[c][x]] for v, x in zip(out, row)]
    inv = mul[next(x for x in out if x)].index(1)
    return tuple(mul[inv][x] for x in out)


def contains(field, dual, subspace) -> bool:
    """True iff every basis row of the subspace is orthogonal to dual."""
    add, mul = _tables(field)
    for row in subspace.rows:
        acc = 0
        for a, b in zip(dual, row):
            acc = add[acc][mul[a][b]]
        if acc:
            return False
    return True


def profile_b_vectors(field, n: int, parts) -> list[tuple[int, ...]]:
    """For every hyperplane, in hyperplane_duals order, the number of parts
    of each dimension inside it, dimensions largest first."""
    parts = list(parts)
    dims = sorted({len(s.rows) for s in parts}, reverse=True)
    out = []
    for h in hyperplane_duals(n, field):
        inside = [len(s.rows) for s in parts if contains(field, h, s)]
        out.append(tuple(inside.count(d) for d in dims))
    return out


def points(field, subspace) -> frozenset[int]:
    """Encodings of the subspace's points: every nonzero combination of its
    rows, scaled so its first nonzero coordinate is 1."""
    add, mul = _tables(field)
    out = set()
    for coeffs in product(range(field.q), repeat=len(subspace.rows)):
        vec = [0] * subspace.ambient
        for c, row in zip(coeffs, subspace.rows):
            vec = [add[v][mul[c][x]] for v, x in zip(vec, row)]
        if any(vec):
            inv = mul[next(x for x in vec if x)].index(1)
            out.add(encode([mul[inv][x] for x in vec], field.q))
    return frozenset(out)


def cover_faults(field, n: int, parts) -> tuple[list[int], list[int]]:
    """The points of V(n, q) that the parts cover more than once, and the
    points they miss, each by ascending encoding: both empty iff the parts
    partition the space."""
    counts = Counter(e for s in parts for e in points(field, s))
    every = [encode(v, field.q) for v in hyperplane_duals(n, field)]
    return sorted(e for e, c in counts.items() if c > 1), [e for e in every if e not in counts]


def pairwise_least_shared(subspaces) -> tuple[int, int, int] | None:
    """The least index pair (a, b), a < b, of subspaces sharing a point,
    with the least such point's encoding, by comparing every pair."""
    listed = [points(s.field, s) for s in subspaces]
    for a, first in enumerate(listed):
        for b in range(a + 1, len(listed)):
            if first & listed[b]:
                return a, b, min(first & listed[b])
    return None


def b_vector_groups(columns) -> tuple[list[tuple[int, ...]], dict]:
    """Each hyperplane's b-vector as a tuple, given one column per
    hyperplane, and s_b: every distinct b-vector with its number of
    hyperplanes, in order of first occurrence (a Counter keeps it)."""
    vectors = [tuple(c) for c in columns]
    return vectors, dict(Counter(vectors))


def intersect_dim(a, b) -> int:
    """dim(A meet B) = dim A + dim B - rank of the stacked bases."""
    return len(a.rows) + len(b.rows) - len(rref_rows(a.field, a.rows + b.rows, a.ambient))


def max_disjoint(subspaces) -> int:
    """Most of the given subspaces that pairwise meet trivially, by trying
    every such subset."""
    meets = [[intersect_dim(a, b) > 0 for b in subspaces] for a in subspaces]

    def grow(rest):
        return max(
            (1 + grow([j for j in rest[k + 1:] if not meets[i][j]])
             for k, i in enumerate(rest)),
            default=0,
        )

    return grow(list(range(len(subspaces))))


def rref_rows(field, rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form, zero rows dropped, by Gauss-Jordan one row
    at a time with field.inv, field.mul and field.sub."""
    p = field.p if field.e == 1 else 0  # prime fields work on plain integers
    work = [list(r) for r in rows]
    k = 0
    for col in range(ncols):
        piv = next((i for i in range(k, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[k], work[piv] = work[piv], work[k]
        lead = work[k][col]
        if lead != 1:
            inv = field.inv(lead)
            work[k] = [inv * x % p if p else field.mul(inv, x) for x in work[k]]
        pr = work[k]
        for i in range(len(work)):
            if i != k and work[i][col]:
                c = work[i][col]
                work[i] = [
                    (x - c * y) % p if p else field.sub(x, field.mul(c, y))
                    for x, y in zip(work[i], pr)
                ]
        k += 1
        if k == len(work):
            break
    return tuple(tuple(r) for r in work[:k])


def subspace(field, n: int, rows) -> Subspace:
    """The subspace of V(n, q) that the rows span."""
    return Subspace(field, n, rref_rows(field, rows, n))


def grouped(subspaces) -> GroupedBases:
    """Subspace records, in order, as grouped bases: one group per (field,
    ambient, dim); their rows are taken to be RREF bases, unchecked."""
    subspaces, keys = tuple(subspaces), {}
    for i, s in enumerate(subspaces):
        keys.setdefault((s.field, s.ambient, len(s.rows)), []).append(i)
    return GroupedBases([
        BasesGroup(f, n, np.reshape([subspaces[i].rows for i in index], (len(index), d, n)),
                   np.array(index))
        for (f, n, d), index in keys.items()
    ])


def mult_map_matrix(ext, a: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Rows i < t of the multiplication-by-a map on GF(q^m) over GF(q):
    row i is the coordinate vector, the base-q digits, of a * g^i, g the
    generator x.  Past t = m the rows are dependent, so t > m is refused."""
    if not 1 <= t <= ext.m:
        raise ValueError(f"need 1 <= t <= {ext.m}, got {t}")
    g = ext.base.q if ext.m > 1 else 1  # the encoding of x
    rows = []
    for _ in range(t):
        rows.append(decode(a, ext.m, ext.base.q))
        a = ext.mul(a, g)
    return tuple(rows)
