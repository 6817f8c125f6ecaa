"""Finite fields as one type: GF(p^e) and the towers GF(q^m) over them.

A :class:`Field` is GF(base.q^m): the polynomials of degree < m over the
field ``base``, reduced modulo a monic irreducible.  GF(p) has ``base``
None.  ``field_new(p, e)`` is the degree-e tower over GF(p); ``ext_field``
gives the towers GF(q^m) over GF(q) whose multiplication maps the packing
construction uses.  Both share one cache keyed on (base, m), so
``ext_field(field_new(p), e) is field_new(p, e)``.

Elements are plain integers in [0, q), q = p^e: the base-``base.q`` digits
(constant term first) are the coefficients of the residue polynomial, so
``digits(a, base.q, m)`` is the coordinate vector of a over the base in the
power basis (1, x, x^2, ...).  So 0 and 1 are the identities, matrix rows
stay hashable tuples of ints, and elements serialize as themselves.

The modulus is the monic irreducible of degree m over ``base`` whose
non-leading coefficients, read low-to-high as a base-``base.q`` integer,
are smallest, so every machine agrees on the encoding:

    GF(4) x^2 + x + 1    GF(8) x^3 + x + 1     GF(9) x^2 + 1
    GF(16) x^4 + x + 1   GF(27) x^3 + 2x + 1   GF(4^2) x^2 + x + 2 over GF(4)

GF(p) uses native modular arithmetic and characteristic 2 adds by XOR;
other fields multiply through log/antilog tables up to 2^16 elements and
by polynomial reduction above.  Orders above ``MAX_ORDER`` (2^20) are
refused.  Primality is decided exactly by Miller-Rabin with the first
thirteen prime bases; a candidate prime of ``_MR_LIMIT`` (about 3.3 * 10^24)
or more is refused with InvalidParamsError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    FieldMismatchError,
    InvalidParamsError,
    NotPrimeError,
    OverflowLimitError,
)

MAX_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16

# _MR_LIMIT is the least strong pseudoprime to all thirteen bases (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017), so
# Miller-Rabin with them decides every n below it; twelve stop at 3.2 * 10^23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InvalidParamsError for an undecided n."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise InvalidParamsError(f"primality of {n} is undecided from {_MR_LIMIT} on")
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 by integer Newton steps down from a start
    above the root; a float guess makes that start close, so few steps."""
    bits = math.log2(n) / k
    shift = max(int(bits) - 52, 0)
    x = (int(2 ** (bits - shift) * (1 + 2 ** -30)) + 1) << shift
    while x ** k <= n:  # the guess fell short, as it may for huge n
        x <<= 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e and p prime, or None if q is not a prime power.

    Peels exact roots of prime order k off q, then tests what is left."""
    if q < 2:
        return None
    p, e, k = q, 1, 2
    while k < p.bit_length():  # p = r^k with r >= 2 needs p >= 2^k
        r = _iroot(p, k)
        if r ** k == p:
            p, e = r, e * k
        else:
            k += 1
            while not is_prime(k):
                k += 1
    return (p, e) if is_prime(p) else None


def _factor(n: int) -> dict[int, int]:
    """Trial-division factorization; n stays below the order cap."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def digits(a: int, radix: int, m: int) -> tuple[int, ...]:
    """The m lowest base-radix digits of a, lowest first: the coordinates
    of an element over its base field, or of an encoded vector."""
    out = []
    for _ in range(m):
        a, d = divmod(a, radix)
        out.append(d)
    return tuple(out)


def _undigits(ds, radix: int) -> int:
    acc = 0
    for d in reversed(ds):
        acc = acc * radix + d
    return acc


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary base field
#
# Polynomials are lists of base-field encodings, constant term first, no
# implicit trailing zeros stripped unless stated.


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(base, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = base.add(out[i + j], base.mul(ai, bj))
    return out


def _poly_mod(base, a, mod):
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        a[i] = 0
        for j in range(dm):
            if mod[j]:
                a[i - dm + j] = base.sub(a[i - dm + j], base.mul(c, mod[j]))
    return (a + [0] * dm)[:dm]


def _poly_powmod(base, a, k, mod):
    dm = len(mod) - 1
    result = [1] + [0] * (dm - 1)
    acc = _poly_mod(base, a, mod)
    while k:
        if k & 1:
            result = _poly_mod(base, _poly_mul(base, result, acc), mod)
        acc = _poly_mod(base, _poly_mul(base, acc, acc), mod)
        k >>= 1
    return result


def _poly_gcd(base, a, b):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        # reduce a mod b (b made monic on the fly)
        lead_inv = base.inv(b[-1])
        b_monic = [base.mul(lead_inv, c) for c in b]
        while len(a) >= len(b_monic):
            c = a[-1]
            if c:
                off = len(a) - len(b_monic)
                for j, mj in enumerate(b_monic):
                    if mj:
                        a[off + j] = base.sub(a[off + j], base.mul(c, mj))
            a.pop()
            _poly_trim(a)
            if not a:
                break
        a, b = b, a
    return _poly_trim(a)


def _is_irreducible(base, coeffs) -> bool:
    """Monic coeffs over base; deterministic test (Rabin's): the
    x^(q^d) = x criterion with gcd checks at the maximal proper subfield
    degrees d/l for primes l | d.
    """
    d = len(coeffs) - 1
    if d == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    q = base.q
    x_poly = [0, 1]
    for ell in _factor(d):
        power = _poly_powmod(base, x_poly, q ** (d // ell), coeffs)
        power[1] = base.sub(power[1], 1)  # x^(q^(d/l)) - x
        g = _poly_gcd(base, power, list(coeffs))
        if len(g) != 1:  # gcd(0, f) = f also lands here, as it must
            return False
    top = _poly_powmod(base, x_poly, q ** d, coeffs)
    top[1] = base.sub(top[1], 1)
    return not _poly_trim(top)


def _smallest_irreducible(base, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of given degree.

    Candidates are ordered by the non-leading coefficient tuple read as a
    base-q integer, low digits = low-degree coefficients.
    """
    for v in range(base.q ** degree):
        coeffs = [*digits(v, base.q, degree), 1]
        if _is_irreducible(base, coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (unreachable)")


class Field:
    """GF(base.q^m) with integer-encoded elements; GF(p) when base is None.

    Construct through :func:`field_new` or :func:`ext_field`; direct
    instantiation skips the deterministic modulus scan, validation and the
    cache.
    """

    def __init__(self, p: int, m: int, modulus: tuple, base: Field | None = None):
        self.p = p
        self.m = m
        self.e = m * (base.e if base else 1)
        self.q = p ** self.e
        self.modulus = modulus
        self.base = base
        self._radix = base.q if base else p
        self._hash = hash((p, base, m, modulus))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if base is not None and self.q <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        if self.base is None or (self.base.base is None and self.m > 1):
            return f"GF({self.q})"
        return f"GF({self.base.q}^{self.m})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (
            (self.p, self.base, self.m, self.modulus)
            == (other.p, other.base, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return self._hash

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise FieldMismatchError(f"{a} is not an element of {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.base is None:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        r, m, add = self._radix, self.m, self.base.add
        return _undigits(
            [add(x, y) for x, y in zip(digits(a, r, m), digits(b, r, m))], r
        )

    def neg(self, a: int) -> int:
        self._check(a)
        if self.base is None:
            return (-a) % self.p
        if self.p == 2:
            return a
        r = self._radix
        return _undigits([self.base.neg(x) for x in digits(a, r, self.m)], r)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.base is None:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self._pow_poly(a, self.q - 2)

    def _mul_poly(self, a: int, b: int) -> int:
        r, m = self._radix, self.m
        prod = _poly_mul(self.base, digits(a, r, m), digits(b, r, m))
        return _undigits(_poly_mod(self.base, prod, self.modulus), r)

    def _pow_poly(self, a: int, k: int) -> int:
        r = self._radix
        power = _poly_powmod(self.base, digits(a, r, self.m), k, self.modulus)
        return _undigits(power, r)

    def _build_tables(self) -> None:
        """exp[i] = g^i for the least generator g, and log its inverse.

        Multiplying by g^k is GF(p)-linear on the e base-p digits of an
        element, and its matrix for g^(2k) is the square of the one for g^k.
        So the powers are listed by doubling: the digit rows of g^k, ...,
        g^(2k-1) are those of g^0, ..., g^(k-1) times the matrix of g^k.
        """
        size = self.q - 1
        ells = list(_factor(size))
        g = 1 if size == 1 else next(  # a generator of the unit group
            g for g in range(2, self.q)
            if all(self._pow_poly(g, size // ell) != 1 for ell in ells)
        )
        p, e = self.p, self.e
        place = p ** np.arange(e)
        step = np.array([digits(self._mul_poly(p ** j, g), p, e) for j in range(e)])
        powers = np.eye(1, e, dtype=np.int64)
        while len(powers) < size:
            powers = np.concatenate([powers, powers @ step % p])
            step = step @ step % p
        exp = powers[:size] @ place
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(size)
        self._exp, self._log = np.concatenate([exp, exp]).tolist(), log.tolist()


# GF(p) under (None, p); every other field under (base, m)
_FIELDS: dict[tuple, Field] = {}


def field_new(p: int, e: int = 1) -> Field:
    """GF(p^e), the degree-e tower over GF(p), smallest-modulus convention."""
    if not isinstance(p, int) or not isinstance(e, int):
        raise InvalidParamsError("p and e must be integers")
    if e < 1:
        raise InvalidParamsError(f"extension degree must be >= 1, got {e}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    q = p ** e
    if q > MAX_ORDER:
        raise OverflowLimitError(f"field order {q} exceeds cap {MAX_ORDER}")
    prime = _FIELDS.get((None, p))
    if prime is None:
        prime = _FIELDS[None, p] = Field(p, 1, (0, 1))
    return prime if e == 1 else ext_field(prime, e)


def field_for_order(q: int) -> Field:
    pe = prime_power(q)
    if pe is None:
        raise InvalidParamsError(f"{q} is not a prime power")
    return field_new(*pe)


def ext_field(base: Field, m: int) -> Field:
    """GF(base.q^m) over base, deterministic modulus scan over base[x]."""
    if not isinstance(base, Field):
        raise InvalidParamsError("base must be a Field")
    if not isinstance(m, int) or m < 1:
        raise InvalidParamsError(f"extension degree must be >= 1, got {m}")
    order = base.q ** m
    if order > MAX_ORDER:
        raise OverflowLimitError(f"extension order {order} exceeds cap {MAX_ORDER}")
    field = _FIELDS.get((base, m))
    if field is None:
        modulus = _smallest_irreducible(base, m)
        field = _FIELDS[base, m] = Field(base.p, m, modulus, base)
    return field
