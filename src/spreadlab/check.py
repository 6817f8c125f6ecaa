"""Replay of descent certificates without the code that writes them.

`partition.descent_certificate` derives a certificate through bounds.py and
`partition.heden_case`.  This module imports neither and recomputes every
field with its own integer forms, so a bug they share cannot pass both sides.
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


def check_certificate(cert) -> CertificateCheck:
    """Recompute every field of the DescentCertificate ``cert`` from
    (q, n, t, x) and report the first disagreement as a dotted field path."""
    for path, holds in _replay(cert):
        if not holds:
            return CertificateCheck(False, path)
    return CertificateCheck(True)


def _replay(cert):
    """(dotted path, whether the field holds), in the order of the
    descent; each pair is computed only after every earlier one held."""
    q, n, t, x = cert.q, cert.n, cert.t, cert.x

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
    yield "r", cert.r == r
    yield "x", 0 < x < q ** r
    h = -(-x // (q - 1))  # ceil(x / (q - 1))
    # the descent lemma: q | x, q^2 does not, and t >= theta_r - h + 2
    yield "x", x % q == 0 < x % (q * q) and 2 <= r and t >= theta(r) - h + 2
    ell = (q ** (n - t) - q ** r) // (q ** t - 1)
    yield "claimed_bound", cert.claimed_bound == ell * q ** t + x
    yield "h", cert.h == h == -(-x * theta(t) // q ** t)  # ceil(x theta_t / q^t)
    yield "ell", cert.ell == ell
    yield "n_t", cert.n_t == ell * q ** t + x + 1
    n_1 = q ** t * (theta(r) - h) + delta(t)
    yield "n_1", cert.n_1 == n_1 == theta(n) - cert.n_t * theta(t)

    yield "steps", len(cert.steps) == t - 1
    for j, step in enumerate(cert.steps):
        i, d_i, at = t - j, delta(t - j), f"steps[{j}]."
        yield at + "j", step.j == j
        yield at + "i", step.i == i
        yield at + "delta", step.delta == d_i
        yield at + "cap", step.cap == max(theta(r) - h - j, 0)
        yield at + "n1_residue", step.n1_residue == n_1 % q ** i == d_i
        yield at + "next_delta", (x + d_i) % q == 0 and (
            step.next_delta == (x + d_i) // q % q ** (i - 1) == delta(i - 1)
        )

    fin, d2 = cert.final, delta(2)
    yield "final.delta2", fin.delta2 == d2 == cert.steps[-1].delta and (
        d2 % q == 0 and 0 < d2 <= q * q - q
    )
    yield "final.delta2_max", fin.delta2_max == q * q - q
    yield "final.required_dim2", fin.required_dim2 == q * q > d2
    alt = min(theta(3), 2 * q * q, q ** 3)
    yield "final.required_dim_ge3_min", fin.required_dim_ge3_min == alt > q * q - q
    # the tail theorem at (d1, d2) = (1, 2): q | delta_2 is its case (iv),
    # which needs delta_2 >= q^2
    yield "final.heden_case", fin.heden_case == "iv" and d2 % q == 0
    yield "final.heden_satisfied", not fin.heden_satisfied and d2 < q * q
