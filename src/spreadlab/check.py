"""Replay of descent certificates without the code that writes them.

A certificate is the JSON document `partition.descent_certificate` returns,
derived through bounds.py; its tail step is the tail theorem's case (iv) at
part dimensions (1, 2).  This module imports neither partition.py nor
bounds.py: it checks the document's keys and JSON types, then recomputes
every field with its own integer forms, so a bug they share cannot pass
both sides.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InvalidParamsError
from .gf import prime_power


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    mismatch: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# docs/schemas/certificate.schema.json: each key in document order with its
# JSON type, a dict for an object and a list of the item's table for an array
_STEP = dict.fromkeys(["j", "i", "delta", "cap", "n1_residue", "next_delta"], int)
_FINAL = {
    **dict.fromkeys(
        ["delta2", "delta2_max", "required_dim2", "required_dim_ge3_min"], int
    ),
    "heden_case": str,
    "heden_satisfied": bool,
}
_CERTIFICATE = {
    **dict.fromkeys(
        ["q", "n", "t", "r", "x", "h", "ell", "claimed_bound", "n_t", "n_1"], int
    ),
    "steps": [_STEP],
    "final": _FINAL,
}

_JSON_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def check_certificate(doc) -> CertificateCheck:
    """Recompute every field of the certificate document ``doc`` from
    (q, n, t, x) and report the first disagreement as a dotted field path.
    Raises InvalidParamsError, before any replay, at the first key or type
    the schema does not allow."""
    _check_shape(doc, _CERTIFICATE, "")
    for path, holds in _replay(doc):
        if not holds:
            return CertificateCheck(False, path)
    return CertificateCheck(True)


def _check_shape(value, table, path: str) -> None:
    """value against the table at the dotted path: the first unexpected key,
    then the first missing one, then each field in table order."""
    where = path or "certificate"
    kind = type(table) if isinstance(table, (dict, list)) else table
    if type(value) is not kind:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise InvalidParamsError(f"{where} must be {_JSON_NAMES[kind]}, got {got}")
    if kind is list:
        for i, item in enumerate(value):
            _check_shape(item, table[0], f"{path}[{i}]")
    elif kind is dict:
        for key in [*value, *table]:
            if key not in table:
                raise InvalidParamsError(f"{where} has unexpected key {key!r}")
            if key not in value:
                raise InvalidParamsError(f"{where} is missing key {key!r}")
        for key, field in table.items():
            _check_shape(value[key], field, f"{path}.{key}" if path else key)


def _below(q: int, value: int, k: int) -> bool:
    """Whether value < q^k shows from the bit lengths, without q^k."""
    return value < 0 or value.bit_length() <= (q.bit_length() - 1) * k


def _replay(doc):
    """(dotted path, whether the field holds), in the order of the
    descent; each pair is computed only after every earlier one held.  A
    field fails before it forms a power q^k that a document integer must
    reach when that integer is too short for it (_below)."""
    q, n, t, x = doc["q"], doc["n"], doc["t"], doc["x"]

    def theta(i):
        return (q ** i - 1) // (q - 1)

    def delta(i):
        return -x * theta(i) % q ** i

    try:
        power = prime_power(q)
    except InvalidParamsError:  # the primality of q is undecided
        power = None
    yield "params", power is not None and n > t >= 1
    r = n % t
    yield "r", doc["r"] == r
    yield "x", 0 < x and (_below(q, x, r) or x < q ** r)
    h = -(-x // (q - 1))  # ceil(x / (q - 1))
    # the descent lemma: q | x, q^2 does not, and t >= theta_r - h + 2
    yield "x", x % q == 0 < x % (q * q) and 2 <= r and not _below(q, t + h, r - 1)
    yield "x", t >= theta(r) - h + 2
    # ell q^t + x > q^(n-t-1) for n >= 2t; for n < 2t, n - t = r and ell = 0
    yield "claimed_bound", n < 2 * t or not _below(q, doc["claimed_bound"], n - t - 1)
    span = q ** (n - t) - q ** r  # ell (q^t - 1)
    ell = span and span // (q ** t - 1)
    yield "claimed_bound", doc["claimed_bound"] == span + ell + x
    # n_1 >= q^t: one shorter fails there, and the identity holds for r < t
    short = _below(q, doc["n_1"], t)
    yield "h", doc["h"] == h and (short or h == -(-x * theta(t) // q ** t))
    yield "ell", doc["ell"] == ell
    yield "n_t", doc["n_t"] == span + ell + x + 1
    n_1 = None if short else q ** t * (theta(r) - h) + delta(t)
    yield "n_1", doc["n_1"] == n_1 == theta(n) - doc["n_t"] * theta(t)

    steps = doc["steps"]
    yield "steps", len(steps) == t - 1
    for j, step in enumerate(steps):
        i, d_i, at = t - j, delta(t - j), f"steps[{j}]."
        yield at + "j", step["j"] == j
        yield at + "i", step["i"] == i
        yield at + "delta", step["delta"] == d_i
        yield at + "cap", step["cap"] == max(theta(r) - h - j, 0)
        yield at + "n1_residue", step["n1_residue"] == n_1 % q ** i == d_i
        yield at + "next_delta", (x + d_i) % q == 0 and (
            step["next_delta"] == (x + d_i) // q % q ** (i - 1) == delta(i - 1)
        )

    fin, d2 = doc["final"], delta(2)
    yield "final.delta2", fin["delta2"] == d2 == steps[-1]["delta"] and (
        d2 % q == 0 and 0 < d2 <= q * q - q
    )
    yield "final.delta2_max", fin["delta2_max"] == q * q - q
    yield "final.required_dim2", fin["required_dim2"] == q * q > d2
    alt = min(theta(3), 2 * q * q, q ** 3)
    yield "final.required_dim_ge3_min", fin["required_dim_ge3_min"] == alt > q * q - q
    # the tail theorem at (d1, d2) = (1, 2): q | delta_2 is its case (iv),
    # which needs delta_2 >= q^2
    yield "final.heden_case", fin["heden_case"] == "iv" and d2 % q == 0
    yield "final.heden_satisfied", not fin["heden_satisfied"] and d2 < q * q
