"""Bounds on the maximum size mu_q(n, t) of a partial t-spread of V(n, q).

Conventions: n > t >= 1, r = n mod t (so 0 <= r < t), and
theta_i = (q^i - 1)/(q - 1) counts points of PG(i-1, q).

Everything here is exact big-integer arithmetic; no floating point is used
anywhere in this module, including the square root inside the Drake-Freeman
bound (math.isqrt plus an interval argument).

Upper-bound sources
-------------------
DRAKE_FREEMAN   classical upper bound, any r > 0 with n >= 2t
MAIN_THEOREM    descent upper bound for the regime 2 <= r < t <= theta_r,
                n >= 2t
TRIVIAL_OVERLAP n < 2t forces any two t-subspaces to meet: mu = 1
SPREAD_EXACT    r = 0: perfect spreads exist, mu = theta_n / theta_t
BHP_EXACT       r in {0, 1}: the packing lower bound is tight
EJSSS_EXACT     q = 2, t = 3, r = 2, n >= 8: mu = (2^n - 32)/7 + 2
KURZ_EXACT      q = 2, t > 3, r = 2: the packing lower bound is tight
NS_EXACT        t > theta_r: the packing lower bound is tight
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import (
    HypothesisViolatedError,
    IdentityViolationError,
    InvalidParamsError,
    OutOfRegimeError,
)
from .gf import prime_power

TRIVIAL_OVERLAP = "TRIVIAL_OVERLAP"
SPREAD_EXACT = "SPREAD_EXACT"
BHP_EXACT = "BHP_EXACT"
EJSSS_EXACT = "EJSSS_EXACT"
KURZ_EXACT = "KURZ_EXACT"
NS_EXACT = "NS_EXACT"
DRAKE_FREEMAN = "DRAKE_FREEMAN"
MAIN_THEOREM = "MAIN_THEOREM"

SOURCES = (
    TRIVIAL_OVERLAP,
    SPREAD_EXACT,
    BHP_EXACT,
    EJSSS_EXACT,
    KURZ_EXACT,
    NS_EXACT,
    DRAKE_FREEMAN,
    MAIN_THEOREM,
)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class SpreadParams:
    """Problem instance (q, n, t); r = n mod t is derived."""

    q: int
    n: int
    t: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.q, self.n, self.t)):
            raise InvalidParamsError("q, n, t must be integers")
        if prime_power(self.q) is None:
            raise InvalidParamsError(f"q = {self.q} is not a prime power")
        if self.t < 1 or self.n <= self.t:
            raise InvalidParamsError(
                f"need n > t >= 1, got n = {self.n}, t = {self.t}"
            )

    @property
    def r(self) -> int:
        return self.n % self.t

    def to_dict(self) -> dict:
        return {"q": self.q, "n": self.n, "t": self.t, "r": self.r}


def theta(i: int, q: int) -> int:
    """Number of points of PG(i-1, q); theta_0 = 0."""
    if i < 0 or q < 2:
        raise InvalidParamsError(f"need i >= 0 and q >= 2, got i={i} q={q}")
    return (q ** i - 1) // (q - 1)


def lower_bound(params: SpreadParams) -> int:
    """Packing lower bound (q^n - q^(t+r))/(q^t - 1) + 1.

    Equality with mu is known exactly when r in {0, 1}; for r = 0 the value
    is theta_n / theta_t.  For n < 2t it is 1, as t + r = n.
    """
    q, n, t, r = params.q, params.n, params.t, params.r
    if n < 2 * t:
        return 1
    num = q ** n - q ** (t + r)
    assert num % (q ** t - 1) == 0
    return num // (q ** t - 1) + 1


def omega_floor(q: int, t: int, r: int) -> int:
    """floor(omega) where 2*omega = sqrt(4 q^t (q^t - q^r) + 1) - (2 q^t - 2 q^r + 1).

    For t >= 2r it is floor(q^r / 2) - 1, given without the isqrt of D (which
    costs by q^t).  Else sqrt(D) is in [s, s+1) for s = isqrt(D), so
    (sqrt(D) - m)/2 is in [(s-m)/2, (s-m+1)/2), with no integer boundary
    beyond its left end: the floor is (s - m) // 2.
    """
    if r < 1 or t <= r:
        raise InvalidParamsError(f"need t > r >= 1, got t={t} r={r}")
    if t >= 2 * r:
        return q ** r // 2 - 1
    D = 4 * q ** t * (q ** t - q ** r) + 1
    m = 2 * q ** t - 2 * q ** r + 1
    return (isqrt(D) - m) // 2


def drake_freeman(params: SpreadParams) -> int:
    """Classical upper bound for r > 0:

    mu <= (q^n - q^(t+r))/(q^t - 1) + q^r - floor(omega) - 1.
    """
    q, t, r = params.q, params.t, params.r
    if r == 0:
        raise InvalidParamsError("bound needs r > 0 (t does not divide n)")
    return lower_bound(params) - 1 + q ** r - omega_floor(q, t, r) - 1


def c1_c2(q: int, t: int) -> tuple[int, int]:
    """Correction pair: c1 = (t-2) mod q; c2 = q if q^2 | (q-1)(t-2)+c1 else 0."""
    if t < 2:
        raise InvalidParamsError(f"need t >= 2, got {t}")
    c1 = (t - 2) % q
    c2 = q if ((q - 1) * (t - 2) + c1) % (q * q) == 0 else 0
    return c1, c2


def descent_x(q: int, t: int, r: int) -> int:
    """Default descent parameter x = q^r - (q-1)(t-2) - c1 + c2."""
    c1, c2 = c1_c2(q, t)
    return q ** r - (q - 1) * (t - 2) - c1 + c2


def in_main_regime(params: SpreadParams) -> bool:
    r, t = params.r, params.t
    return 2 <= r < t <= theta(r, params.q)


def main_bound(params: SpreadParams) -> int:
    """Descent upper bound for 2 <= r < t <= theta_r:

    mu <= (q^n - q^(t+r))/(q^t - 1) + q^r - (q-1)(t-2) - c1 + c2.
    """
    if not in_main_regime(params):
        raise OutOfRegimeError(
            f"(q,n,t)=({params.q},{params.n},{params.t}) has r={params.r}; "
            f"regime requires 2 <= r < t <= theta_r"
        )
    q, t, r = params.q, params.t, params.r
    c1, c2 = c1_c2(q, t)
    return lower_bound(params) - 1 + q ** r - (q - 1) * (t - 2) - c1 + c2


def compare_bounds(params: SpreadParams) -> int:
    """main_bound - drake_freeman for r >= 2 and 2r <= t <= theta_r.

    Equals floor(q^r/2) - (q-1)(t-2) - c1 + c2 in closed form; strictly
    negative (descent bound wins) once t is large enough in the regime.
    """
    q, t, r = params.q, params.t, params.r
    if r < 2 or not (2 * r <= t <= theta(r, q)):
        raise OutOfRegimeError(
            f"(q,n,t)=({params.q},{params.n},{params.t}) has r={r}; "
            f"comparison requires r >= 2 and 2r <= t <= theta_r"
        )
    return main_bound(params) - drake_freeman(params)


def delta(x: int, i: int, q: int) -> int:
    """delta_i(x) = q^i * ceil(x * theta_i / q^i) - x * theta_i.

    Always in [0, q^i); zero iff q^i divides x.
    """
    if x < 1 or i < 1 or q < 2:
        raise InvalidParamsError(f"need x >= 1, i >= 1, q >= 2; got x={x} i={i} q={q}")
    qi = q ** i
    prod = x * theta(i, q)
    return qi * ceil_div(prod, qi) - prod


def h_of(x: int, q: int, t: int) -> int:
    """ceil(x / (q-1)), which equals ceil(x * theta_t / q^t) whenever
    0 < x < q^r for some r < t.  Both routes are computed; disagreement
    means the caller broke the precondition.
    """
    if x < 1 or q < 2 or t < 1:
        raise InvalidParamsError(f"need x >= 1, q >= 2, t >= 1; got x={x} q={q} t={t}")
    simple = ceil_div(x, q - 1)
    direct = ceil_div(x * theta(t, q), q ** t)
    if simple != direct:
        raise IdentityViolationError(
            f"ceil(x/(q-1)) = {simple} but ceil(x*theta_t/q^t) = {direct}; "
            f"x = {x} is out of range for t = {t}"
        )
    return simple


def lemma_main_bound(q: int, n: int, t: int, x: int) -> int:
    """Descent bound mu <= l*q^t + x with l = (q^(n-t) - q^r)/(q^t - 1),
    valid when q | x, q^2 does not divide x, r >= 2, and
    t >= theta_r - ceil(x/(q-1)) + 2.
    """
    params = SpreadParams(q, n, t)
    r = params.r
    if x < 1:
        raise HypothesisViolatedError(f"x must be positive, got {x}")
    if x % q != 0:
        raise HypothesisViolatedError(f"q = {q} does not divide x = {x}")
    if x % (q * q) == 0:
        raise HypothesisViolatedError(f"q^2 = {q * q} divides x = {x}")
    if r < 2:
        raise HypothesisViolatedError(f"r = {r} but the descent needs r >= 2")
    t_min = theta(r, q) - ceil_div(x, q - 1) + 2
    if t < t_min:
        raise HypothesisViolatedError(
            f"t = {t} below threshold theta_r - ceil(x/(q-1)) + 2 = {t_min}"
        )
    num = q ** (n - t) - q ** r
    assert num % (q ** t - 1) == 0
    ell = num // (q ** t - 1)
    return ell * q ** t + x


@dataclass(frozen=True)
class UpperBound:
    value: int
    source: str

    def to_dict(self) -> dict:
        return {"value": self.value, "source": self.source}


@dataclass(frozen=True)
class BoundReport:
    """Best known information about mu_q(n, t).

    ``lower`` is the best proven lower bound (the exact value when an
    exactness theorem applies, else the packing bound); ``uppers`` records
    every applicable upper-bound source, not just the winner.
    """

    params: SpreadParams
    lower: int
    uppers: tuple[UpperBound, ...]
    exact: UpperBound | None

    @property
    def best_upper(self) -> int:
        return min(u.value for u in self.uppers)

    def to_dict(self) -> dict:
        d = self.params.to_dict()
        d["lower"] = self.lower
        d["uppers"] = [u.to_dict() for u in self.uppers]
        d["exact"] = self.exact.to_dict() if self.exact else None
        return d


def best_known(params: SpreadParams) -> BoundReport:
    """Combine every applicable theorem into a BoundReport.

    Exactness precedence: trivial overlap (n < 2t), perfect spread (r = 0),
    packing-tight r = 1, the q = 2 t = 3 family, the q = 2 r = 2 family,
    then t > theta_r.  All applicable sources are recorded in ``uppers``;
    for n < 2t only the exactness rows are.
    """
    q, n, t, r = params.q, params.n, params.t, params.r
    packing = lower_bound(params)
    exact_rows: list[UpperBound] = []

    if n < 2 * t:
        exact_rows.append(UpperBound(1, TRIVIAL_OVERLAP))
    if r == 0:
        exact_rows.append(UpperBound(theta(n, q) // theta(t, q), SPREAD_EXACT))
    if r == 1:
        exact_rows.append(UpperBound(packing, BHP_EXACT))
    if q == 2 and t == 3 and r == 2 and n >= 8:
        exact_rows.append(UpperBound((2 ** n - 2 ** 5) // 7 + 2, EJSSS_EXACT))
    if q == 2 and t > 3 and r == 2:
        exact_rows.append(UpperBound(packing, KURZ_EXACT))
    if t > theta(r, q):
        exact_rows.append(UpperBound(packing, NS_EXACT))

    uppers = list(exact_rows)
    if n >= 2 * t:  # below, mu = 1 and these bounds are of order q^(n-t)
        if r > 0:
            uppers.append(UpperBound(drake_freeman(params), DRAKE_FREEMAN))
        if in_main_regime(params):
            uppers.append(UpperBound(main_bound(params), MAIN_THEOREM))

    exact = exact_rows[0] if exact_rows else None
    lower = exact.value if exact else packing
    return BoundReport(params, lower, tuple(uppers), exact)
