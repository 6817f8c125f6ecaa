"""Exact linear algebra over finite fields: RREF, subspaces, points.

A Subspace stores its RREF basis, zero rows dropped, as tuples of field
element encodings, so equality is subspace equality.  Many subspaces, such
as a spread's members or a partition's parts, are a GroupedBases: one numpy
array of RREF bases per (field, ambient, dim), which the kernels read;
iterating it yields a Subspace record per member.  A hyperplane is named by
its normalized dual vector, so hyperplanes are numbered like points.

``rref_blocks`` is the one elimination: it reduces an (m, k, n) array of
bases at once, on GF(p) digits for q = p^e; one basis is rows[None].
``subspaces_from_dicts`` parses documents through it into a GroupedBases.

The d-subspaces of V(n, q) have one canonical order, set by _row_options
(RREF pivot sets in combinations order, then the product of the rows'
free-cell fillings, row 0 most significant), in which enumerate_subspaces
yields Subspace objects and subspace_bases arrays of bases and ordinals.

A vector of V(n, q) is also one integer, its base-q encoding (digit i =
coordinate i).  ``point_encodings_of_bases`` is the one place that lists
the points, or GF(p)-lines, of subspaces, for verification, partition
fill, hyperplane profiles and search candidates: by XOR of the rows'
integer encodings for p = 2, on GF(p) digits for odd p, expanding only the
rows it reads.  ``point_ordinals`` numbers the points, and
``least_shared_pair`` sorts them to find subspaces that meet.
``point_images`` maps every point through matrices over GF(q), as
permutations of the ordinals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    FieldMismatchError,
    InvalidParamsError,
)
from .gf import Field, field_for_order

DEFAULT_ENUM_BUDGET = 1_000_000


# digits of scratch per rref_blocks slice; bounds its memory
_ELIM_BLOCK = 1 << 18


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p; numpy divides by a scalar much faster than it takes %."""
    return x - x // p * p


def _x_powers(field: Field, y: np.ndarray) -> list[np.ndarray]:
    """x^k y for k < e, q = p^e, of GF(p) digit arrays y of shape (e, ...):
    each shifts the last up a digit and reduces its top digit by the
    modulus f, as x^e = -(f_0 + f_1 x + ... + f_(e-1) x^(e-1))."""
    p, e = field.p, field.e
    powers = [y]
    for _ in range(e - 1):
        lower = np.reshape(field.modulus[:e], (e,) + (1,) * (y.ndim - 1))
        y = _mod(np.concatenate([np.zeros_like(y[:1]), y[:-1]]) - y[-1:] * lower, p)
        powers.append(y)
    return powers


def _mul(field: Field, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c * y over GF(q) for GF(p) digit arrays of shape (e, ...) that
    broadcast, not yet reduced mod p: the sum of c_k x^k y."""
    return sum(ck * w for ck, w in zip(c, _x_powers(field, y)))


def rref_blocks(field: Field, rows) -> tuple[np.ndarray, np.ndarray]:
    """Every block of an (m, k, n) array over GF(q) in RREF, and its rank.

    Block i of the result holds the RREF basis of the span of rows[i] in
    its first ranks[i] rows, then zero rows.  Step r takes, in each block
    of rank r so far, the first column nonzero in a row from r on, swaps
    that row up, scales it by the inverse of its lead and clears the column
    in the other rows: all blocks at once, on GF(p) digits as in
    _span_rows.  So ``field`` is GF(p) or field_new(p, e), one
    arithmetic serves every q, and only the distinct leads are inverted
    through the field.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, k, n = rows.shape
    per = max(1, _ELIM_BLOCK // max(1, k * n * field.e ** 2))
    if m > per:
        parts = [rref_blocks(field, rows[s:s + per]) for s in range(0, m, per)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    p, e = field.p, field.e
    place = p ** np.arange(e, dtype=np.int64)
    a = _mod(rows // place[:, None, None, None], p)  # (e, m, k, n): digits
    ranks, s = np.zeros(m, dtype=np.int64), np.arange(m)
    for r in range(k):
        # a block without a pivot here has zero rows from r on: it swaps
        # row r with itself, its lead 0 scales it to 0 and it clears nothing
        nz = a[:, :, r:].any(axis=0)
        has = nz.any(axis=(1, 2))
        if not has.any():
            break
        ranks += has
        col = nz.any(axis=1).argmax(axis=1)
        piv = nz[s, :, col].argmax(axis=1) + r
        a[:, s, r], a[:, s, piv] = a[:, s, piv], a[:, s, r]
        leads = (place @ a[:, s, r, col]).tolist()
        inverse = {x: field.inv(x) if x else 0 for x in set(leads)}
        inv = np.array([inverse[x] for x in leads], dtype=np.int64)
        inv = _mod(inv // place[:, None], p)[:, :, None]
        prow = _mod(_mul(field, inv, a[:, :, r]), p)
        c = a[:, s, :, col].transpose(1, 0, 2)  # (e, blocks, rows)
        c[:, :, r] = 0
        a = _mod(a - _mul(field, c[..., None], prow[:, :, None]), p)
        a[:, :, r] = prow
    return (place @ a.reshape(e, -1)).reshape(m, k, n), ranks


@dataclass(frozen=True)
class Subspace:
    """Subspace of V(ambient, q), basis in RREF with zero rows dropped.

    The constructor trusts its rows to be that basis.
    """

    field: Field
    ambient: int
    rows: tuple[tuple[int, ...], ...]


class BasesGroup(NamedTuple):
    """Subspaces of one dimension in V(ambient, q): their RREF bases, an
    (m, d, ambient) array of dtype np.min_scalar_type(q - 1), and their
    positions in a GroupedBases, ascending."""

    field: Field
    ambient: int
    rows: np.ndarray
    index: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


class GroupedBases:
    """Subspaces in order, held as one BasesGroup per (field, ambient, dim):
    the kernels read ``groups``.  Iterating builds one Subspace per member,
    in order; == and hash compare the groups and build none."""

    def __init__(self, groups: list[BasesGroup]):
        """Groups that share (field, ambient, dim) are joined, their members
        in ascending position; empty groups go."""
        keys: dict[tuple, list[BasesGroup]] = {}
        for g in groups:
            keys.setdefault((g.field, g.ambient, g.dim), []).append(g)
        self.groups, self.size = [], sum(len(g.index) for g in groups)
        for (field, n, _), same in keys.items():
            index = np.concatenate([g.index for g in same])
            order = np.argsort(index, kind="stable")
            rows = np.concatenate([g.rows for g in same])[order]
            rows = rows.astype(np.min_scalar_type(field.q - 1), copy=False)
            if len(index):
                self.groups.append(BasesGroup(field, n, rows, index[order]))

    def extended(self, field: Field, ambient: int, rows: np.ndarray) -> "GroupedBases":
        """These subspaces, then the ones whose RREF bases are rows, an
        (m, d, ambient) array."""
        index = np.arange(self.size, self.size + len(rows))
        return GroupedBases(self.groups + [BasesGroup(field, ambient, rows, index)])

    def first(self, where) -> BasesGroup | None:
        """Of the groups g with where(g), the one holding the first
        subspace; None when there is none."""
        return min(filter(where, self.groups), key=lambda g: g.index[0], default=None)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Subspace]:
        out = [None] * self.size
        for g in self.groups:
            for i, basis in zip(g.index.tolist(), g.rows.tolist()):
                out[i] = g, basis
        return (Subspace(g.field, g.ambient, tuple(map(tuple, b))) for g, b in out)

    def _key(self) -> list[tuple]:
        groups = sorted(self.groups, key=lambda g: g.index[0])
        return [(g.field, g.ambient, g.index.tobytes(), g.rows.tobytes()) for g in groups]

    def __eq__(self, other):
        return isinstance(other, GroupedBases) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(self._key()))

    def to_dicts(self) -> list[dict]:
        """The document of every subspace, {"q", "n", "dim", "rows"}, one
        tolist() per group."""
        out = [None] * self.size
        for g in self.groups:
            q, n, d = g.field.q, g.ambient, g.dim
            for i, rows in zip(g.index.tolist(), g.rows.tolist()):
                out[i] = {"q": q, "n": n, "dim": d, "rows": rows}
        return out


def _checked(field: Field, n: int, members: list) -> tuple[np.ndarray, Exception | None]:
    """The leading members that are bases in V(n, q), as one int64 array of
    shape (j, k, n), and the error that member j raises, None when none does.

    A member is a list of k rows, k the same for all.  A row is a list (or
    tuple) of n entries, each an element of the field: an integer in [0, q);
    a row that is no list gives a TypeError, which names the row.  The whole
    group is checked at once: the set of entry types (np.array would read
    a True among ints as 1), then one np.array for the shape and the range.
    Only when that fails are the members walked one by one, so the error is
    the one the first failing member raises."""
    k = len(members[0])
    try:
        entries = chain.from_iterable(chain.from_iterable(members))
        if all(map(_integer_type, set(map(type, entries)))):
            block = np.array(members, dtype=np.int64)
            if block.shape == (len(members), k, n) and (
                not block.size or 0 <= block.min() and block.max() < field.q
            ):
                return block, None
    except (TypeError, ValueError, OverflowError):
        pass  # a row that is no list, a ragged row or an entry past int64
    for j, member in enumerate(members):
        for i, r in enumerate(member):
            if not isinstance(r, (list, tuple)):
                error = TypeError(f"row {i} must be a list, got {type(r).__name__}")
            elif len(r) != n:
                error = InvalidParamsError("row length differs from ambient dimension")
            elif bad := [x for x in r if not (_integer(x) and 0 <= x < field.q)]:
                error = FieldMismatchError(f"{bad[0]!r} is not an element of {field!r}")
            else:
                continue
            return np.array(members[:j], dtype=np.int64).reshape(j, k, n), error
    return np.array(members, dtype=np.int64).reshape(len(members), k, n), None


def _integer_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _integer(x) -> bool:
    return _integer_type(type(x))


def subspaces_from_dicts(docs) -> GroupedBases:
    """The subspaces of a list of member documents {"q", "n", "dim",
    "rows"}, checked and reduced in bulk.

    Documents are grouped by declared (q, n, dim), their types and the row
    count.  A group has (q, n, dim) checked as the spread schema requires,
    resolves its field once, has its rows checked at once by _checked and
    is reduced by one rref_blocks call into a BasesGroup.  The error raised
    is the one for the first member that fails; one that is no object, or
    whose rows are no list, is named as "member" and its index.
    """
    if not isinstance(docs, (list, tuple)):
        raise InvalidParamsError(f"members must be a list, got {type(docs).__name__}")
    keys: dict[tuple, list[int]] = {}
    errors = []  # (document, exception)
    for i, d in enumerate(docs):
        if not isinstance(d, dict):
            error = f"member {i} must be an object, got {type(d).__name__}"
            errors.append((i, InvalidParamsError(error)))
            continue
        head, rows = (d["q"], d["n"], d["dim"]), d["rows"]
        if not isinstance(rows, (list, tuple)):
            error = f"member {i}: rows must be a list, got {type(rows).__name__}"
            errors.append((i, InvalidParamsError(error)))
            continue
        # with the types: 2.0 == 2 and True == 1 would share a key
        keys.setdefault((*head, len(rows), *map(type, head)), []).append(i)
    groups = []
    for (q, n, dim, k, *_), index in keys.items():
        try:
            if not all(map(_integer, (q, n, dim))) or min(q - 2, n - 1, dim) < 0:
                raise InvalidParamsError(
                    "q, n, dim must be integers with q >= 2, n >= 1, dim >= 0, "
                    f"got {q!r}, {n!r}, {dim!r}"
                )
            q, n, dim = int(q), int(n), int(dim)
            field = field_for_order(q)
        except InvalidParamsError as exc:
            errors.append((index[0], exc))
            continue
        block, bad = _checked(field, n, [docs[i]["rows"] for i in index])
        if isinstance(bad, TypeError):
            bad = InvalidParamsError(f"member {index[len(block)]}: {bad}")
        if bad is not None:
            errors.append((index[len(block)], bad))
        reduced, ranks = rref_blocks(field, block)
        wrong = np.flatnonzero(ranks != dim)
        if wrong.size:
            i, rank = index[wrong[0]], ranks[wrong[0]]
            error = f"declared dim {docs[i]['dim']} but basis has rank {rank}"
            errors.append((i, InvalidParamsError(error)))
        groups.append(BasesGroup(field, n, reduced[:, :dim], index[:len(block)]))
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return GroupedBases(groups)


def check_in_space(subspaces, field: Field, n: int, item: str, owner: str) -> None:
    """Raise unless all the grouped bases lie in V(n, q) over ``field``; the
    error names the first outside, e.g. "member 3 over GF(4), spread has q = 2"."""
    g = subspaces.first(lambda g: (g.field, g.ambient) != (field, n))
    if g is not None and g.field != field:
        raise FieldMismatchError(
            f"{item} {g.index[0]} over {g.field}, {owner} has q = {field.q}"
        )
    if g is not None:
        raise AmbientMismatchError(
            f"{item} {g.index[0]} in ambient {g.ambient}, {owner} has n = {n}"
        )


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


def _row_options(n: int, d: int, q: int):
    """Each RREF pivot-column set of d columns, in itertools.combinations
    order, with the options of every row: row i has 1 at pivots[i] and
    takes every filling of its free cells (the columns after pivots[i] that
    are no pivot), ascending, first cell most significant.  The rows'
    options are shared by every subspace of the pivot set."""
    for pivots in combinations(range(n), d):
        options = []
        for pivot in pivots:
            free = [c for c in range(pivot + 1, n) if c not in pivots]
            row = [0] * n
            row[pivot] = 1
            filled = []
            for values in product(range(q), repeat=len(free)):
                for c, v in zip(free, values):
                    row[c] = v
                filled.append(tuple(row))
            options.append(filled)
        yield options


def _check_enum_budget(n: int, d: int, q: int) -> int:
    if not 0 <= d <= n:
        raise InvalidParamsError(f"need 0 <= d <= n, got d={d} n={n}")
    total = gaussian_binomial(n, d, q)
    if total > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"{total} subspaces exceed enumeration budget {DEFAULT_ENUM_BUDGET}"
        )
    return total


def enumerate_subspaces(n: int, d: int, field: Field) -> Iterator[Subspace]:
    """All d-subspaces of V(n, q) in canonical order.

    Order: RREF pivot-column sets ascending (itertools.combinations order),
    then the rows' options (see _row_options) as itertools.product does,
    row 0 most significant.  This is the free entries ascending
    lexicographically, read row-major, first free cell most significant.
    """
    _check_enum_budget(n, d, field.q)
    for options in _row_options(n, d, field.q):
        for rows in product(*options):
            yield Subspace(field, n, rows)


def subspace_bases(n: int, d: int, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """The bases enumerate_subspaces yields, in its order, as one (count, d, n)
    array of dtype np.min_scalar_type(q - 1), and their rows' point ordinals
    (an RREF row is a normalized vector) as one (count, d) array of dtype
    np.min_scalar_type(theta_n - 1).  Each pivot set's block is the product
    of its rows' options, spread by broadcasting, as are the options'
    ordinals; the budget is checked before anything is allocated."""
    q = field.q
    total = _check_enum_budget(n, d, q)
    bases = np.zeros((total, d, n), np.min_scalar_type(q - 1))
    ords = np.zeros((total, d), np.min_scalar_type((q ** n - 1) // (q - 1) - 1))
    place = np.array([q ** c for c in range(n)], np.int64 if q ** n < 1 << 63 else object)
    walk = list(_row_options(n, d, q))  # every row option, listed once
    every = np.array([*chain.from_iterable(chain(*walk))], place.dtype).reshape(-1, n)
    found = point_ordinals(every @ place, n, q)
    at = seen = 0
    for options in walk:
        sizes = [len(o) for o in options]
        count = math.prod(sizes)
        block = bases[at:at + count].reshape(*sizes, d, n)
        ord_block = ords[at:at + count].reshape(*sizes, d)
        for i, size in enumerate(sizes):
            shape = [1] * d
            shape[i] = size
            block[..., i, :] = every[seen:seen + size].reshape(*shape, n)
            ord_block[..., i] = found[seen:seen + size].reshape(shape)
            seen += size
        at += count
    return bases, ords


# ---------------------------------------------------------------------------
# the point kernel

# points listed per block by point_encodings_of_bases; bounds its memory
_POINT_BLOCK = 1 << 14


def _span_rows(field: Field, rows: np.ndarray, lines: np.ndarray | None) -> np.ndarray:
    """The GF(p)-rows R_0, R_1, ... that point_encodings_of_bases spans, for
    m bases in V(n, q), q = p^e, as (count, n*e, m) GF(p) digits: digit
    j*e + l is digit l of coordinate j, so a row's base-p encoding is its
    base-q encoding.  The rows are the x^k * b_i, k < e, from the last basis
    row up (their GF(p)-span is the GF(q)-span of the b_i); for points b_0
    comes last with k = 0 only, as its multiples are never read, so a
    1-subspace's row is not expanded.  ``lines`` maps each coordinate."""
    p, e, (m, _, n) = field.p, field.e, rows.shape
    digits = _mod(rows[:, ::-1] // p ** np.arange(e).reshape(e, 1, 1, 1), p)
    spanned = digits if lines is not None else digits[:, :, :-1]
    out = np.stack(_x_powers(field, spanned)).transpose(3, 0, 4, 1, 2)
    out = out.reshape(-1, n, e, m)  # (row, coordinate, digit, base)
    if lines is not None:
        out = _mod(np.einsum("kl,ajlm->ajkm", lines, out), p)
    else:
        out = np.concatenate([out, digits[:, :, -1].transpose(2, 0, 1)[None]])
    return out.reshape(-1, n * e, m)


def _add_mod(a, b, p: int):
    """Digitwise (a + b) mod p of unsigned digit arrays with a, b < p."""
    s = a + b
    return np.minimum(s, s - p)  # s - p wraps around where s < p


def _digit_listing(span: np.ndarray, leads: range, p: int, dtype) -> np.ndarray:
    """Odd p: the listing of point_encodings_of_bases, grown as GF(p) digit
    arrays one row at a time, then read as base-p integers."""
    top, (_, width, m) = leads[0], span.shape
    digit = np.min_scalar_type(2 * p - 2)  # holds a digit sum before reduction
    vecs = np.zeros((width, p ** top, m), digit)
    for j, w in enumerate(span[:top]):  # vecs[:, :p^j] lists span(R_0, ..., R_(j-1))
        multiples = _mod(w[:, None] * np.arange(p)[:, None], p).astype(digit)
        grown = _add_mod(vecs[:, None, :p ** j], multiples[:, :, None], p)
        vecs[:, :p ** (j + 1)] = grown.reshape(width, -1, m)
    first = _add_mod(vecs, span[top][:, None, :].astype(digit), p)
    later = (vecs[:, p ** j:2 * p ** j] for j in leads[1:])
    digits = np.concatenate([first, *later], axis=1)
    encs = np.zeros(digits.shape[1:], dtype)
    for row in digits[::-1]:
        encs *= p
        encs += row
    return encs.T


def point_encodings_of_bases(
    field: Field, rows: np.ndarray, lines: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Normalized point encodings of the subspaces whose RREF bases are
    rows[i], an (m, d, n) array over GF(q) such as subspace_bases returns or
    a BasesGroup holds, in blocks; the rows are not checked.

    Yields (i, encs) with encs an array whose row k lists the theta_d
    normalized point encodings of subspace i + k: int64 while q^n < 2^63,
    else Python ints (dtype object), exact at any size but tens of times
    slower.  A block holds about _POINT_BLOCK points, or one subspace if
    that has more.  Given ``lines``, an e x e matrix M over GF(p), q = p^e,
    a row lists one vector of each GF(p)-line instead, (q^d - 1)/(p - 1) of
    them, the e digits of each coordinate mapped by M (M maps the rows).

    Lead R_j of the rows R_0, ..., R_top of _span_rows lists R_j +
    span(R_0, ..., R_(j-1)), from R_top down: every R_j for lines, the
    x^0 * b_i for points (a combination whose first nonzero coefficient is
    1 has first nonzero coordinate 1 in RREF).  For p = 2 a row's base-2
    encoding is its base-q encoding and adding is XOR, so spans grow by XOR
    of the rows' integers; odd p grows GF(p) digits (_digit_listing).
    """
    _, d, n = rows.shape
    if d == 0:
        return  # the zero subspace has no points
    p, e, width = field.p, field.e, n * field.e
    top = (d - 1) * e if lines is None else d * e - 1
    leads = range(top, -1, -e if lines is None else -1)
    dtype = np.int64 if p ** width < 1 << 63 else object
    per = max(1, _POINT_BLOCK // sum(p ** j for j in leads))
    for start in range(0, len(rows), per):
        span = _span_rows(field, rows[start:start + per], lines)
        if p > 2:
            yield start, _digit_listing(span, leads, p, dtype)
            continue
        r = 2 ** np.arange(width, dtype=dtype) @ span
        vecs = np.zeros((r.shape[1], 1 << top), dtype)
        for j in range(top):  # vecs[:, :2^j] lists span(R_0, ..., R_(j-1))
            vecs[:, 1 << j:2 << j] = vecs[:, :1 << j] ^ r[j, :, None]
        later = (vecs[:, 1 << j:2 << j] for j in leads[1:])
        yield start, np.concatenate([vecs ^ r[top, :, None], *later], axis=1)


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
    ords = np.full(encs.shape, n, dtype=encs.dtype)
    for i in range(n):
        ords += (below - q ** i) // q ** (i + 1)
    return ords


def point_images(field: Field, matrices) -> np.ndarray:
    """The points of V(n, q) under invertible n x n matrices over GF(q).

    For an (m, n, n) array of matrices g_k, row k of the (m, theta_n)
    result holds at ordinal i the ordinal of the point v_i g_k, v_i the
    normalized vector of ordinal i read as a row.  The products run on GF(p)
    digits as in rref_blocks, so every q = p^e takes the field's own
    arithmetic; each image is normalized by the inverse of its first nonzero
    coordinate.
    """
    matrices = np.asarray(matrices, dtype=np.int64)
    m, n, _ = matrices.shape
    p, e, q = field.p, field.e, field.q
    place = p ** np.arange(e, dtype=np.int64)
    coords = normalized_point_encodings(n, q)[:, None] // q ** np.arange(n) % q
    v = _mod(coords // place[:, None, None], p)  # (e, points, n): digits
    g = _mod(matrices // place[:, None, None, None], p)  # (e, m, n, n)
    w = 0
    for j in range(n):  # v g = the sum of v_j times row j of g
        w = w + _mul(field, v[:, None, :, j, None], g[:, :, None, j])
    w = _mod(w, p)  # (e, m, points, n)
    elems = (place @ w.reshape(e, -1)).reshape(w.shape[1:])
    leads = np.take_along_axis(elems, (elems != 0).argmax(axis=2)[..., None], 2)
    inverse = {x: field.inv(x) for x in set(leads.ravel().tolist())}
    inv = np.array([inverse[x] for x in leads.ravel().tolist()], dtype=np.int64)
    inv = _mod(inv // place[:, None], p).reshape(e, *leads.shape)
    w = _mod(_mul(field, inv, w), p)
    encs = (place @ w.reshape(e, -1)).reshape(w.shape[1:]) @ q ** np.arange(n)
    return point_ordinals(encs, n, q)


def least_shared_pair(subspaces: GroupedBases) -> tuple[int, int, int] | None:
    """Lexicographically least index pair (a, b), a < b, of subspaces that
    share a point, with the least encoding of a point they share; None when
    no point is listed twice.  The groups share field and ambient space."""
    encs, owners = [], []
    for g in subspaces.groups:
        for start, block in point_encodings_of_bases(g.field, g.rows):
            encs.append(block.ravel())
            owners.append(np.repeat(g.index[start:start + len(block)], block.shape[1]))
    if not encs:
        return None
    encs = np.concatenate(encs)
    ascending = np.sort(encs)
    if not (ascending[1:] == ascending[:-1]).any():
        return None  # the common case: one key settles it
    owners = np.concatenate(owners)
    order = np.lexsort((owners, encs))
    encs, owners = encs[order], owners[order]
    # a subspace lists each of its points once, so the owners of a run of
    # equal encodings ascend strictly and its first two give its least pair
    same = encs[1:] == encs[:-1]
    second = np.flatnonzero(same & ~np.concatenate([[False], same[:-1]])) + 1
    a, b, shared = owners[second - 1], owners[second], encs[second]
    best = np.lexsort((shared, b, a))[0]
    return int(a[best]), int(b[best]), int(shared[best])
