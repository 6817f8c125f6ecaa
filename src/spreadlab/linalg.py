"""Exact linear algebra over finite fields: RREF, subspaces, points.

Rows are tuples of field-element encodings.  A Subspace stores its
reduced-row-echelon basis with zero rows dropped, so structural equality is
subspace equality and instances are hashable. GF(2) elimination is
bit-packed (rows become Python ints, elimination is word-parallel XOR);
every other field takes the generic path.  A hyperplane is named by its
normalized dual vector, so hyperplanes are numbered like points; the
hyperplanes containing a subspace are the points of its ``annihilator``.

Vectors of V(n, q) are also handled as single integers via base-q positional
encoding (digit i = coordinate i).  ``point_encodings`` is the one place
that lists the points of subspaces: it works on GF(p) digits with numpy, the
same way for prime and extension fields, and spread verification, partition
fill, hyperplane profiles and search candidates all run on it.
``point_ordinals`` numbers the points of V(n, q) for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    InvalidParamsError,
)
from .gf import Field, field_for_order

DEFAULT_ENUM_BUDGET = 1_000_000


def _rref_gf2(rows, ncols):
    packed = []
    for r in rows:
        acc = 0
        for j, v in enumerate(r):
            if v:
                acc |= 1 << j
        packed.append(acc)
    k = 0
    for col in range(ncols):
        bit = 1 << col
        piv = None
        for i in range(k, len(packed)):
            if packed[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        packed[k], packed[piv] = packed[piv], packed[k]
        pr = packed[k]
        for i in range(len(packed)):
            if i != k and packed[i] & bit:
                packed[i] ^= pr
        k += 1
        if k == len(packed):
            break
    return [
        tuple((row >> j) & 1 for j in range(ncols)) for row in packed[:k]
    ]


def _rref_generic(field, rows, ncols):
    work = [list(r) for r in rows]
    k = 0
    for col in range(ncols):
        piv = None
        for i in range(k, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[k], work[piv] = work[piv], work[k]
        lead = work[k][col]
        if lead != 1:
            inv = field.inv(lead)
            work[k] = [field.mul(inv, x) for x in work[k]]
        pr = work[k]
        for i in range(len(work)):
            if i != k and work[i][col]:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], pr)]
        k += 1
        if k == len(work):
            break
    return [tuple(r) for r in work[:k]]


def rref_rows(field: Field, rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form; zero rows dropped, pivot order."""
    if field.q == 2:
        return tuple(_rref_gf2(rows, ncols))
    return tuple(_rref_generic(field, rows, ncols))


@dataclass(frozen=True)
class Subspace:
    """Subspace of V(ambient, q), basis in RREF with zero rows dropped.

    The raw constructor trusts its rows; use :meth:`from_rows` unless the
    rows are already canonical.
    """

    field: Field
    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows) -> "Subspace":
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != ambient:
                raise InvalidParamsError("row length differs from ambient dimension")
            field._check(*r)
        return cls(field, ambient, rref_rows(field, rows, ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, v in enumerate(r) if v) for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "q": self.field.q,
            "n": self.ambient,
            "dim": self.dim,
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Subspace":
        field = field_for_order(int(d["q"]))
        sub = cls.from_rows(field, int(d["n"]), d["rows"])
        if sub.dim != int(d["dim"]):
            raise InvalidParamsError(
                f"declared dim {d['dim']} but basis has rank {sub.dim}"
            )
        return sub


def _require_same_space(a: Subspace, b: Subspace) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"fields differ: {a.field!r} vs {b.field!r}")
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ambient} vs {b.ambient}"
        )


def intersect_dim(a: Subspace, b: Subspace) -> int:
    """dim(A meet B) = dim A + dim B - rank of the stacked bases."""
    _require_same_space(a, b)
    stacked = rref_rows(a.field, a.rows + b.rows, a.ambient)
    return a.dim + b.dim - len(stacked)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of V(n, q); exact big-integer arithmetic.

    Out-of-range k gives 0, matching the usual convention (and the Pascal
    recurrences).
    """
    if n < 0 or q < 2:
        raise InvalidParamsError(f"need n >= 0 and q >= 2, got n={n} q={q}")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(
    n: int, d: int, field: Field, budget: int | None = None
) -> Iterator[Subspace]:
    """All d-subspaces of V(n, q) in canonical order.

    Order: RREF pivot-column sets ascending (itertools.combinations order),
    then free entries ascending lexicographically, first free cell most
    significant.  Free cells are read row-major.
    """
    if not 0 <= d <= n:
        raise InvalidParamsError(f"need 0 <= d <= n, got d={d} n={n}")
    total = gaussian_binomial(n, d, field.q)
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceededError(
            f"{total} subspaces exceed enumeration budget {limit}"
        )
    if d == 0:
        yield Subspace(field, n, ())
        return
    q = field.q
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        cells = [
            (i, c)
            for i in range(d)
            for c in range(pivots[i] + 1, n)
            if c not in pivot_set
        ]
        for values in product(range(q), repeat=len(cells)):
            grid = [[0] * n for _ in range(d)]
            for i in range(d):
                grid[i][pivots[i]] = 1
            for (i, c), v in zip(cells, values):
                grid[i][c] = v
            yield Subspace(field, n, tuple(tuple(r) for r in grid))


def decode_vector(enc: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        enc, d = divmod(enc, q)
        out.append(d)
    return tuple(out)


def annihilator(s: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product.

    For an RREF basis with pivot set P the complement has one generator per
    free column f: entry 1 at f and -B[i, f] at pivot column p_i.
    """
    field, n = s.field, s.ambient
    pivots = s.pivots
    pivot_set = set(pivots)
    gens = []
    for f in range(n):
        if f in pivot_set:
            continue
        w = [0] * n
        w[f] = 1
        for i, p in enumerate(pivots):
            w[p] = field.neg(s.rows[i][f])
        gens.append(tuple(w))
    return Subspace(field, n, rref_rows(field, gens, n))


# ---------------------------------------------------------------------------
# the point kernel

# Points listed per block by point_encodings; bounds its scratch memory.
_POINT_BLOCK = 1 << 14


def _expanded_rows(field: Field, rows: np.ndarray) -> np.ndarray:
    """GF(p) digit vectors of x^k * b for every basis row b and every k < e.

    ``rows`` holds m bases of d rows in V(n, q), q = p^e.  Digit j*e + l of
    a vector is digit l of its coordinate j, so the base-p encoding of the
    n*e digits is the base-q encoding of the vector; and the GF(q)-span of
    the rows is the GF(p)-span of their x^k multiples.  Returns an array of
    shape (d, e, n*e, m).
    """
    p, e = field.p, field.e
    m, d, n = rows.shape
    digits = rows[..., None] // p ** np.arange(e) % p
    # x^e = -(f_0 + f_1 x + ... + f_(e-1) x^(e-1)) for the monic modulus f
    lower = np.array(field.modulus[:e], dtype=np.int64)
    powers = []
    for _ in range(e):
        powers.append(digits)
        top = digits[..., -1:]
        shifted = np.concatenate([np.zeros_like(top), digits[..., :-1]], axis=-1)
        digits = (shifted - top * lower) % p
    return np.stack(powers).reshape(e, m, d, n * e).transpose(2, 0, 3, 1)


def _add_mod(a, b, p: int):
    """Digitwise (a + b) mod p of unsigned digit arrays with a, b < p."""
    s = a + b
    return np.minimum(s, s - p)  # s - p wraps around where s < p


def point_encodings(subspaces) -> Iterator[tuple[int, np.ndarray]]:
    """Normalized point encodings of subspaces of one dimension, in blocks.

    Yields (i, encs) with encs an int64 array whose row k lists the theta_d
    normalized point encodings of subspaces[i + k].  A block holds about
    _POINT_BLOCK points, or one subspace if that has more.  The subspaces
    must share field, ambient space and dimension.

    One code path serves every q = p^e.  Row i of an RREF basis leads the
    points b_i + v, v in span(b_(i+1), ...): a combination whose first
    nonzero coefficient is 1 has first nonzero coordinate 1.  Those spans
    are listed as GF(p)-digit vectors by adding each x^k * b_j in turn
    (see _expanded_rows), and the digits are then read as base-p integers.
    The caller keeps q^n below 2^63 so that encodings fit an int64.
    """
    subspaces = list(subspaces)
    if not subspaces:
        return
    field, n, d = subspaces[0].field, subspaces[0].ambient, subspaces[0].dim
    for s in subspaces:
        if (s.field, s.ambient, s.dim) != (field, n, d):
            raise InvalidParamsError(
                "point_encodings needs one field, ambient space and dimension"
            )
    if d == 0:
        return  # the zero subspace has no points
    p, q, width = field.p, field.q, n * field.e
    span = q ** (d - 1)  # vectors in span(b_1, ..., b_(d-1))
    count = (q ** d - 1) // (q - 1)
    dtype = np.min_scalar_type(2 * p - 2)  # holds a digit sum before reduction
    scalars = np.arange(p)[:, None, None]
    per = max(1, _POINT_BLOCK // count)
    for start in range(0, len(subspaces), per):
        block = subspaces[start:start + per]
        m = len(block)
        basis = _expanded_rows(field, np.array([s.rows for s in block]))
        # vecs[:, :size] lists span(b_(i+1), ...) once rows above i are added;
        # adding x^0 b_i leaves b_i + that span in vecs[:, size:2 * size]
        vecs = np.zeros((width, span, m), dtype)
        size = 1
        for i in range(d - 1, 0, -1):
            for w in basis[i]:
                multiples = (scalars * w % p).astype(dtype).transpose(1, 0, 2)
                grown = _add_mod(vecs[:, None, :size], multiples[:, :, None], p)
                vecs[:, :p * size] = grown.reshape(width, p * size, m)
                size *= p
        digits = np.empty((width, count, m), dtype)
        digits[:, :span] = _add_mod(vecs, basis[0, 0][:, None, :].astype(dtype), p)
        at = span
        for i in range(1, d):
            size = q ** (d - 1 - i)
            digits[:, at:at + size] = vecs[:, size:2 * size]
            at += size
        encs = np.zeros((count, m), dtype=np.int64)
        for j in range(width - 1, -1, -1):
            encs *= p
            encs += digits[j]
        yield start, encs.T


def normalized_point_encodings(n: int, q: int) -> np.ndarray:
    """Encodings of the theta_n normalized vectors of V(n, q), ascending.

    A point's position here is its ordinal: the index of the hyperplane
    with that dual vector, and the point's bit in search masks.
    """
    return np.sort(
        np.concatenate(
            [np.arange(q ** i, q ** n, q ** (i + 1), dtype=np.int64) for i in range(n)]
        )
    )


def point_ordinals(encs: np.ndarray, n: int, q: int) -> np.ndarray:
    """Ordinals of normalized encodings, the inverse of
    normalized_point_encodings.

    Normalized encodings with leading position i are q^i + q^(i+1) k for
    0 <= k < q^(n-1-i); summing, over i, how many of them lie below E gives
    the ordinal of E.
    """
    below = encs - 1
    ords = np.full(encs.shape, n, dtype=np.int64)
    for i in range(n):
        ords += (below - q ** i) // q ** (i + 1)
    return ords


def least_shared_pair(subspaces) -> tuple[int, int, int] | None:
    """Lexicographically least index pair (a, b), a < b, of subspaces that
    share a point, with the least encoding of a point they share; None when
    no point is listed twice.  Dimensions may differ."""
    encs, owners = [], []
    for d in {s.dim for s in subspaces}:
        index = [i for i, s in enumerate(subspaces) if s.dim == d]
        for start, block in point_encodings([subspaces[i] for i in index]):
            encs.append(block.ravel())
            owners.append(np.repeat(index[start:start + len(block)], block.shape[1]))
    if not encs:
        return None
    encs, owners = np.concatenate(encs), np.concatenate(owners)
    order = np.lexsort((owners, encs))
    encs, owners = encs[order], owners[order]
    repeat = np.flatnonzero(encs[1:] == encs[:-1]) + 1
    if not repeat.size:
        return None
    # first owner of each run of equal encodings, carried along the run
    head = np.ones(len(encs), dtype=bool)
    head[repeat] = False
    first = np.maximum.accumulate(np.where(head, np.arange(len(encs)), 0))
    a, b, shared = owners[first[repeat]], owners[repeat], encs[repeat]
    best = np.lexsort((shared, b, a))[0]
    return int(a[best]), int(b[best]), int(shared[best])
