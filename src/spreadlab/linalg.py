"""Exact linear algebra over finite fields: RREF, subspaces, points.

Rows are tuples of field-element encodings.  A Subspace stores its
reduced-row-echelon basis with zero rows dropped, so structural equality is
subspace equality and instances are hashable.  A hyperplane is named by
its normalized dual vector, so hyperplanes are numbered like points.
Many subspaces, such as a spread's members or a partition's parts, are a
GroupedBases: one numpy array of RREF bases per (field, ambient, dim).  It
reads as a tuple of Subspace built on first read; the kernels read arrays.

``rref_blocks`` is the one elimination: it reduces a whole (m, k, n) array
of bases at once, with numpy on GF(p) digits, q = p^e, so one arithmetic
serves every q; one basis is the block rows[None].  ``subspaces_from_dicts``
parses documents through it into a GroupedBases.

The d-subspaces of V(n, q) have one canonical order, defined once by
``_row_options``: RREF pivot sets in combinations order, then, per pivot
set, the product of the rows' options (each row's free-cell fillings,
listed once and shared), row 0 most significant.  ``enumerate_subspaces``
yields Subspace objects in that order; ``subspace_bases`` stacks the same
options, and the rows' point ordinals, into numpy arrays for bulk work.

Vectors of V(n, q) are also handled as single integers via base-q positional
encoding (digit i = coordinate i).  ``point_encodings_of_bases`` is the one
place that lists the points of subspaces, from an array of bases, with
numpy on GF(p) digits for every q; verification, partition fill,
hyperplane profiles and search candidates all run on it.
``point_ordinals`` numbers the points of V(n, q) for all of them, and
``least_shared_pair`` sorts them to find subspaces that meet.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
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
    _expanded_rows.  So ``field`` is GF(p) or field_new(p, e), one
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

    @property
    def dim(self) -> int:
        return len(self.rows)


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


class GroupedBases(Sequence):
    """Subspaces in order, held as one BasesGroup per (field, ambient, dim):
    the kernels read ``groups``.  Reads as a tuple of Subspace (indexing,
    slicing, iteration, ==), built when first read."""

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

    @classmethod
    def of(cls, subspaces) -> "GroupedBases":
        """The subspaces as grouped bases; a GroupedBases is returned as is."""
        if isinstance(subspaces, GroupedBases):
            return subspaces
        subspaces, keys = tuple(subspaces), {}
        for i, s in enumerate(subspaces):
            keys.setdefault((s.field, s.ambient, s.dim), []).append(i)
        return cls([
            BasesGroup(f, n, np.reshape([subspaces[i].rows for i in index],
                                        (len(index), d, n)), index)
            for (f, n, d), index in keys.items()
        ])

    def extended(self, field: Field, ambient: int, rows: np.ndarray) -> "GroupedBases":
        """These subspaces, then the ones whose RREF bases are rows, an
        (m, d, ambient) array."""
        index = np.arange(self.size, self.size + len(rows))
        return GroupedBases(self.groups + [BasesGroup(field, ambient, rows, index)])

    def first(self, where) -> BasesGroup | None:
        """Of the groups g with where(g), the one holding the first
        subspace; None when there is none."""
        return min(filter(where, self.groups), key=lambda g: g.index[0], default=None)

    @cached_property
    def subspaces(self) -> tuple[Subspace, ...]:
        out = [None] * self.size
        for g in self.groups:
            for i, basis in zip(g.index.tolist(), g.rows.tolist()):
                out[i] = Subspace(g.field, g.ambient, tuple(map(tuple, basis)))
        return tuple(out)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key):
        return self.subspaces[key]

    def __iter__(self):
        return iter(self.subspaces)

    def __eq__(self, other):
        if isinstance(other, (GroupedBases, tuple)):
            return self.subspaces == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.subspaces)

    def __repr__(self) -> str:
        return repr(self.subspaces)

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
    """Raise unless every subspace lies in V(n, q) over ``field``; the error
    names the first one outside, e.g. "member 3 over GF(4), spread has q = 2"."""
    g = GroupedBases.of(subspaces).first(lambda g: (g.field, g.ambient) != (field, n))
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

# Points listed per block by point_encodings_of_bases; bounds its scratch
# memory.
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
    digits = _mod(rows // p ** np.arange(e).reshape(e, 1, 1, 1), p)  # digit l at [l]
    powers = np.stack(_x_powers(field, digits))  # (k, l, m, d, n)
    return powers.transpose(3, 0, 4, 1, 2).reshape(d, e, n * e, m)


def _add_mod(a, b, p: int):
    """Digitwise (a + b) mod p of unsigned digit arrays with a, b < p."""
    s = a + b
    return np.minimum(s, s - p)  # s - p wraps around where s < p


def point_encodings_of_bases(
    field: Field, rows: np.ndarray, lines: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Normalized point encodings of the subspaces whose RREF bases are
    rows[i], an (m, d, n) array over GF(q) such as the bases subspace_bases
    returns or a BasesGroup holds, in blocks; the rows are not checked.

    Yields (i, encs) with encs an array whose row k lists the theta_d
    normalized point encodings of subspace i + k: int64 while q^n < 2^63,
    else Python ints (dtype object), which are exact at any size but list
    points about ten times slower.  A block holds about _POINT_BLOCK
    points, or one subspace if that has more.  Given
    ``lines``, an e x e matrix M over GF(p), q = p^e, a row lists one vector
    of each GF(p)-line instead, (q^d - 1)/(p - 1) of them, with the e digits
    of each coordinate mapped by M (the listing is GF(p)-linear: M maps the
    rows).

    One code path serves every q.  The x^k * b_i (see _expanded_rows) are
    GF(p)-rows R_0, ..., R_(de-1), from the last basis row up; lead R_j gives
    R_j + span(R_0, ..., R_(j-1)).  Every R_j leads for lines, the x^0 * b_i
    for points (a combination whose first nonzero coefficient is 1 has first
    nonzero coordinate 1 in RREF).  Spans are listed as GF(p)-digit vectors,
    one row at a time, then read as base-p integers.
    """
    _, d, n = rows.shape
    if d == 0:
        return  # the zero subspace has no points
    p, e, width = field.p, field.e, n * field.e
    top = (d - 1) * e if lines is None else d * e - 1
    leads = range(top, -1, -e if lines is None else -1)
    count = sum(p ** j for j in leads)
    dtype = np.min_scalar_type(2 * p - 2)  # holds a digit sum before reduction
    scalars = np.arange(p)[:, None, None]
    per = max(1, _POINT_BLOCK // count)
    for start in range(0, len(rows), per):
        basis = _expanded_rows(field, rows[start:start + per])
        m = basis.shape[-1]
        if lines is not None:
            split = basis.reshape(d, e, n, e, m)  # digit l of coordinate j
            basis = np.einsum("kl,abjlm->abjkm", lines, split).reshape(basis.shape)
            basis = _mod(basis, p)
        order = [w for row in basis[::-1] for w in row]  # R_0, ..., R_(de-1)
        # vecs[:, :p^j] lists span(R_0, ..., R_(j-1)) once R_j is added, and
        # vecs[:, p^j:2 p^j] is then R_j + that span
        vecs = np.zeros((width, p ** top, m), dtype)
        size = 1
        for w in order[:top]:
            multiples = _mod(scalars * w, p).astype(dtype).transpose(1, 0, 2)
            grown = _add_mod(vecs[:, None, :size], multiples[:, :, None], p)
            vecs[:, :p * size] = grown.reshape(width, p * size, m)
            size *= p
        digits = np.empty((width, count, m), dtype)
        digits[:, :size] = _add_mod(vecs, order[top][:, None, :].astype(dtype), p)
        at = size
        for j in leads[1:]:
            size = p ** j
            digits[:, at:at + size] = vecs[:, size:2 * size]
            at += size
        encs = np.zeros((count, m), dtype=np.int64 if p ** width < 1 << 63 else object)
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
    ords = np.full(encs.shape, n, dtype=encs.dtype)
    for i in range(n):
        ords += (below - q ** i) // q ** (i + 1)
    return ords


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
    repeat = np.flatnonzero(encs[1:] == encs[:-1]) + 1
    # first owner of each run of equal encodings, carried along the run
    head = np.ones(len(encs), dtype=bool)
    head[repeat] = False
    first = np.maximum.accumulate(np.where(head, np.arange(len(encs)), 0))
    a, b, shared = owners[first[repeat]], owners[repeat], encs[repeat]
    best = np.lexsort((shared, b, a))[0]
    return int(a[best]), int(b[best]), int(shared[best])
