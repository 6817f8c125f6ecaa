"""Output checks for the benchmark, written without spreadlab.

Everything here is recomputed from first principles: finite-field tables
(GF(4) from its documented modulus x^2 + x + 1), spans of member rows,
and the counting formulas of partial spreads.  Each ``check_*`` function
returns a list of error strings; an empty list means the output passed.

Field elements use spreadlab's documented encoding: the base-p digits of
the integer, constant term first, are the coefficients of the residue
polynomial.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np


def theta(i: int, q: int) -> int:
    """Number of points of an i-dimensional space over GF(q)."""
    return (q ** i - 1) // (q - 1)


def packing_value(q: int, n: int, t: int) -> int:
    """(q^n - q^(t+r)) / (q^t - 1) + 1 with r = n mod t."""
    r = n % t
    return (q ** n - q ** (t + r)) // (q ** t - 1) + 1


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of V(n, q), by the recurrence
    [n k] = [n-1 k-1] + q^k [n-1 k]."""
    row = [1] + [0] * k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + q ** j * row[j]
    return row[k]


def exact_value(q: int, n: int, t: int) -> int | None:
    """mu_q(n, t) where a theorem gives it: 1 for n < 2t, theta_n/theta_t
    for r = 0, the packing value for r = 1; None elsewhere."""
    if n < 2 * t:
        return 1
    if n % t == 0:
        return theta(n, q) // theta(t, q)
    if n % t == 1:
        return packing_value(q, n, t)
    return None


# ---------------------------------------------------------------------------
# field tables

@functools.cache
def field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(q) for prime q and q = 4."""
    if q == 4:
        add = np.array([[a ^ b for b in range(4)] for a in range(4)])
        mul = np.zeros((4, 4), dtype=np.int64)
        for a in range(4):
            for b in range(4):
                # (a0 + a1 x)(b0 + b1 x), then x^2 = x + 1 (characteristic 2)
                a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
                c0 = (a0 & b0) ^ (a1 & b1)
                c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                mul[a, b] = c0 | (c1 << 1)
        return add.astype(np.int64), mul
    if q < 2 or any(q % d == 0 for d in range(2, q)):
        raise ValueError(f"no tables for q = {q}: only primes and 4")
    idx = np.arange(q)
    return (idx[:, None] + idx[None, :]) % q, (idx[:, None] * idx[None, :]) % q


def combine(q: int, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """All linear combinations coeffs @ rows over GF(q).

    coeffs is (c, d), rows is (m, d, n); the result is (m, c, n).
    """
    add, mul = field_tables(q)
    m, d, n = rows.shape
    acc = np.zeros((m, len(coeffs), n), dtype=np.int64)
    for k in range(d):
        acc = add[acc, mul[coeffs[None, :, k, None], rows[:, None, k, :]]]
    return acc


def encode(q: int, vectors: np.ndarray) -> np.ndarray:
    """Integer code of each vector along the last axis."""
    powers = q ** np.arange(vectors.shape[-1], dtype=np.int64)
    return vectors @ powers


def span_codes(q: int, rows: np.ndarray) -> np.ndarray:
    """Codes of all q^d vectors in the span of each (d, n) row block."""
    d = rows.shape[1]
    coeffs = np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)
    return encode(q, combine(q, coeffs, rows))


def cover_errors(q: int, n: int, blocks) -> list[str]:
    """Check that subspaces given by row blocks meet pairwise trivially.

    blocks is a list of row lists.  The spans are pairwise trivially
    intersecting and each block has full rank exactly when the nonzero
    vectors of all spans are distinct, so it suffices to count them.
    """
    by_dim: dict[int, list] = {}
    for rows in blocks:
        if any(len(r) != n for r in rows):
            return [f"a row has length other than n = {n}"]
        if any(not 0 <= v < q for r in rows for v in r):
            return [f"an entry is not an element of GF({q})"]
        by_dim.setdefault(len(rows), []).append(rows)
    codes = []
    for d, group in by_dim.items():
        if d == 0:
            return ["a block has no rows"]
        codes.append(span_codes(q, np.array(group, dtype=np.int64)).ravel())
    distinct = np.unique(np.concatenate(codes)).size - 1
    want = sum((q ** len(rows) - 1) for rows in blocks)
    if distinct != want:
        return [
            f"spans hold {distinct} distinct nonzero vectors, "
            f"{want} if they met trivially"
        ]
    return []


# ---------------------------------------------------------------------------
# seeded inputs

REBASE_POOL = 8


def random_invertible(q: int, n: int, rng: random.Random) -> np.ndarray:
    """A uniformly random invertible n x n matrix over GF(q), n small."""
    while True:
        mat = np.array(
            [[rng.randrange(q) for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        # invertible exactly when its rows span all q^n vectors
        if np.unique(span_codes(q, mat[None])).size == q ** n:
            return mat


def rebase_spread_doc(doc: dict, rng: random.Random) -> dict:
    """Another document of the same spread: members in shuffled order, each
    given by a random basis (one of REBASE_POOL random changes of basis)."""
    q, t = doc["q"], doc["t"]
    add, mul = field_tables(q)
    bases = np.array([random_invertible(q, t, rng) for _ in range(REBASE_POOL)])
    order = list(range(len(doc["members"])))
    rng.shuffle(order)
    rows = np.array([doc["members"][i]["rows"] for i in order], dtype=np.int64)
    coeffs = bases[[rng.randrange(REBASE_POOL) for _ in order]]  # (members, t, t)
    moved = np.zeros_like(rows)
    for k in range(t):
        moved = add[moved, mul[coeffs[:, :, k, None], rows[:, None, k, :]]]
    out = dict(doc)
    out["members"] = [
        {**doc["members"][i], "rows": r.tolist()} for i, r in zip(order, moved)
    ]
    return out


# ---------------------------------------------------------------------------
# checks on program output


def check_spread_doc(doc: dict, q: int, n: int, t: int) -> list[str]:
    """A constructed spread: parameters, size equal to the packing value,
    t-dimensional members that meet pairwise trivially."""
    if (doc.get("q"), doc.get("n"), doc.get("t")) != (q, n, t):
        return [f"document declares {doc.get('q'), doc.get('n'), doc.get('t')}"]
    members = doc["members"]
    errors = []
    want = packing_value(q, n, t)
    if len(members) != want:
        errors.append(f"{len(members)} members, packing value is {want}")
    if any(m["dim"] != t or len(m["rows"]) != t for m in members):
        errors.append(f"a member is not {t}-dimensional")
        return errors
    return errors + cover_errors(q, n, [m["rows"] for m in members])


def check_partition(q: int, n: int, t: int, n_members: int, blocks) -> list[str]:
    """The spread members plus one 1-space per hole cover every point once,
    and the hole count is theta_n - N * theta_t."""
    holes = theta(n, q) - n_members * theta(t, q)
    errors = []
    if len(blocks) != n_members + holes:
        errors.append(
            f"{len(blocks)} parts, want {n_members} members + {holes} holes"
        )
    if sum(q ** len(rows) - 1 for rows in blocks) != q ** n - 1:
        errors.append("part sizes do not add up to the nonzero vectors")
    return errors + cover_errors(q, n, blocks)


def check_profile(doc: dict, q: int, n: int, t: int, n_members: int) -> list[str]:
    """The hyperplane profile document of a partition made from a partial
    t-spread with n_members members (t >= 2), hole parts being 1-spaces.

    For every hyperplane H: b_(H,1) = theta_(n-1) - N theta_(t-1)
    - b_(H,t) q^(t-1), hence b_(H,1) = #holes mod q^(t-1).  For every d:
    sum_H b_(H,d) = n_d theta_(n-d).
    """
    holes = theta(n, q) - n_members * theta(t, q)
    want_counts = {t: n_members}
    if holes:
        want_counts[1] = holes
    errors = []
    if (doc.get("q"), doc.get("n")) != (q, n):
        errors.append(f"profile declares q, n = {doc.get('q'), doc.get('n')}")
    if doc["dims"] != sorted(want_counts, reverse=True):
        return errors + [f"dims {doc['dims']}, want {sorted(want_counts, reverse=True)}"]
    got_counts = {int(d): c for d, c in doc["dim_counts"].items()}
    if got_counts != want_counts:
        errors.append(f"dim_counts {got_counts}, want {want_counts}")
    dims = doc["dims"]
    total = 0
    sums = [0] * len(dims)
    for entry in doc["s_b"]:
        b, count = entry["b"], entry["hyperplanes"]
        total += count
        for k in range(len(dims)):
            sums[k] += b[k] * count
        b_t = b[dims.index(t)]
        b_1 = b[dims.index(1)] if holes else 0
        want_b1 = theta(n - 1, q) - n_members * theta(t - 1, q) - b_t * q ** (t - 1)
        if b_1 != want_b1:
            errors.append(f"b-vector {b}: b_1 = {b_1}, counting gives {want_b1}")
        elif (b_1 - holes) % q ** (t - 1):
            errors.append(f"b-vector {b}: b_1 = {b_1} not = {holes} mod q^(t-1)")
    if total != theta(n, q):
        errors.append(f"profile covers {total} hyperplanes, want {theta(n, q)}")
    for k, d in enumerate(dims):
        want = want_counts[d] * theta(n - d, q)
        if sums[k] != want:
            errors.append(f"sum_H b_(H,{d}) = {sums[k]}, want {want}")
    return errors


def check_exact(q: int, n: int, t: int, status: str, best: int, witness) -> list[str]:
    """A finished exact search: EXACT, the theorem's value, and a witness
    of that size whose members are t-dimensional and meet trivially."""
    errors = []
    if status != "EXACT":
        errors.append(f"status {status}, want EXACT")
    want = exact_value(q, n, t)
    if best != want:
        errors.append(f"best_size {best}, the theorem gives {want}")
    return errors + check_witness(q, n, t, best, witness)


def check_budgeted(
    q: int, n: int, t: int, budget: int, status: str, nodes: int, best: int, witness
) -> list[str]:
    """A search under max_nodes=budget: either EXACT within the budget and
    checked as a finished search, or BUDGET_EXHAUSTED after exactly budget
    nodes with a witness no larger than the theorem allows."""
    if status == "EXACT":
        errors = [] if nodes <= budget else [f"{nodes} nodes under max_nodes={budget}"]
        return errors + check_exact(q, n, t, status, best, witness)
    errors = []
    if status != "BUDGET_EXHAUSTED":
        errors.append(f"status {status}, want EXACT or BUDGET_EXHAUSTED")
    if nodes != budget:
        errors.append(f"{nodes} nodes under max_nodes={budget}")
    if best > exact_value(q, n, t):
        errors.append(f"best_size {best} beats the theorem's {exact_value(q, n, t)}")
    return errors + check_witness(q, n, t, best, witness)


def check_witness(q: int, n: int, t: int, size: int, witness) -> list[str]:
    """witness is a list of row lists; it must hold size t-spaces that
    meet pairwise trivially."""
    if len(witness) != size:
        return [f"witness has {len(witness)} members, reported size {size}"]
    if any(len(rows) != t for rows in witness):
        return [f"a witness member is not {t}-dimensional"]
    return cover_errors(q, n, witness)
