"""Brute-force hyperplane oracles for the tests.

They list hyperplanes and test containment from the field's add and mul
alone, without the package's point numbering, so a test that compares them
with ``hyperplane_profile`` or ``annihilator`` checks one against the other.
"""

from __future__ import annotations

from itertools import product


def encode(vec, q: int) -> int:
    """Base-q encoding of a vector, coordinate i as digit i."""
    return sum(v * q ** i for i, v in enumerate(vec))


def hyperplane_duals(n: int, field) -> list[tuple[int, ...]]:
    """Dual vectors of the hyperplanes of V(n, q): first nonzero coordinate
    1, ascending by encoding."""
    duals = [
        v for v in product(range(field.q), repeat=n)
        if any(v) and next(x for x in v if x) == 1
    ]
    return sorted(duals, key=lambda v: encode(v, field.q))


def contains(field, dual, subspace) -> bool:
    """True iff every basis row of the subspace is orthogonal to dual."""
    for row in subspace.rows:
        acc = 0
        for a, b in zip(dual, row):
            acc = field.add(acc, field.mul(a, b))
        if acc:
            return False
    return True
