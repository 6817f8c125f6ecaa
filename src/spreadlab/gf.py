"""Arithmetic for finite fields GF(p^e) and extension towers GF(q^m).

Field elements are plain integers in [0, order): the base-p digits of the
integer (constant term first) are the coefficients of the residue
polynomial.  0 and 1 are therefore always the additive and multiplicative
identities, rows of matrices stay hashable tuples of ints, and elements
serialize as themselves.

Moduli are chosen deterministically: the monic irreducible polynomial of the
requested degree whose non-leading coefficient tuple, read low-to-high as a
base-p integer, is smallest.  Every run on every machine agrees on the
encoding.  The scan yields the usual small moduli, e.g.

    GF(4)   x^2 + x + 1
    GF(8)   x^3 + x + 1
    GF(9)   x^2 + 1
    GF(16)  x^4 + x + 1
    GF(27)  x^3 + 2x + 1

Extension towers GF(q^m) over a base GF(q) use the same scheme with digits
in base q; ``ExtField.coord`` gives the length-m coordinate vector over the
base in the power basis (1, g, g^2, ...), so coord(1) == (1, 0, ..., 0).

Multiplication uses log/antilog tables for extension orders up to 2^16 and
polynomial reduction above; prime fields use native modular arithmetic.
Fields and towers of order above ``MAX_ORDER`` (2^20) are refused.
"""

from __future__ import annotations

from .errors import (
    FieldMismatchError,
    InvalidParamsError,
    NotPrimeError,
    OverflowLimitError,
)

MAX_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = _factor(q)
    if len(fac) != 1:
        return None
    (p, e), = fac.items()
    return p, e


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
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


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


def _poly_eval(base, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = base.add(base.mul(acc, x), c)
    return acc


def _is_irreducible(base, coeffs) -> bool:
    """Monic coeffs over base; deterministic test.

    Degrees 2 and 3 are rootless iff irreducible; degree >= 4 uses the
    x^(q^d) = x criterion with gcd checks at the maximal proper subfield
    degrees d/l for primes l | d.
    """
    d = len(coeffs) - 1
    if d <= 0:
        raise InvalidParamsError("degree must be positive")
    if d == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    q = base.q
    if d <= 3:
        return all(_poly_eval(base, coeffs, x) != 0 for x in range(q))
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
    q = base.q
    for v in range(q ** degree):
        coeffs = []
        a = v
        for _ in range(degree):
            a, dig = divmod(a, q)
            coeffs.append(dig)
        coeffs.append(1)
        if _is_irreducible(base, coeffs):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found (unreachable)")


# ---------------------------------------------------------------------------
# arithmetic core shared by GF(p^e) with e >= 2 and extension towers


class _PolyCore:
    """Digit-polynomial arithmetic modulo a monic irreducible over base."""

    def __init__(self, base: "Field", m: int, modulus: tuple[int, ...]):
        self.base = base
        self.m = m
        self.modulus = modulus
        self.order = base.q ** m
        self._char2 = base.p == 2
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def digits(self, a: int) -> list[int]:
        q = self.base.q
        out = []
        for _ in range(self.m):
            a, d = divmod(a, q)
            out.append(d)
        return out

    def undigits(self, ds) -> int:
        q = self.base.q
        acc = 0
        for d in reversed(ds):
            acc = acc * q + d
        return acc

    def add(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        base, q = self.base, self.base.q
        acc, mult = 0, 1
        while a or b:
            a, da = divmod(a, q)
            b, db = divmod(b, q)
            acc += base.add(da, db) * mult
            mult *= q
        return acc

    def neg(self, a: int) -> int:
        if self._char2:
            return a
        base, q = self.base, self.base.q
        acc, mult = 0, 1
        while a:
            a, da = divmod(a, q)
            acc += base.neg(da) * mult
            mult *= q
        return acc

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mul(self.base, self.digits(a), self.digits(b))
        return self.undigits(_poly_mod(self.base, prod, list(self.modulus)))

    def _pow_poly(self, a: int, k: int) -> int:
        result, acc = 1, a
        while k:
            if k & 1:
                result = self._mul_poly(result, acc)
            acc = self._mul_poly(acc, acc)
            k >>= 1
        return result

    def _find_generator(self) -> int:
        size = self.order - 1
        if size == 1:
            return 1
        prime_divisors = list(_factor(size))
        for g in range(2, self.order):
            if all(self._pow_poly(g, size // ell) != 1 for ell in prime_divisors):
                return g
        raise RuntimeError("no generator found (unreachable)")

    def _build_tables(self) -> None:
        g = self._find_generator()
        size = self.order - 1
        exp = [1] * (2 * size)
        log = [0] * self.order
        x = 1
        for i in range(size):
            exp[i] = x
            log[x] = i
            x = self._mul_poly(x, g)
        for i in range(size, 2 * size):
            exp[i] = exp[i - size]
        self._exp, self._log = exp, log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self._pow_poly(a, self.order - 2)


# ---------------------------------------------------------------------------
# public field types


class Field:
    """GF(p^e) with integer-encoded elements.

    Construct through :func:`field_new`; direct instantiation skips the
    deterministic modulus scan and validation.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], core: _PolyCore | None):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        self._core = core

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((Field, self.p, self.e, self.modulus))

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.q:
                raise FieldMismatchError(f"{a} is not an element of {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._core.add(a, b)

    def neg(self, a: int) -> int:
        self._check(a)
        if self.e == 1:
            return (-a) % self.p
        return self._core.neg(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.e == 1:
            return (a * b) % self.p
        return self._core.mul(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._core.inv(a)


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_new(p: int, e: int = 1) -> Field:
    """GF(p^e) with the deterministic smallest-modulus convention."""
    if not isinstance(p, int) or not isinstance(e, int):
        raise InvalidParamsError("p and e must be integers")
    if e < 1:
        raise InvalidParamsError(f"extension degree must be >= 1, got {e}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    q = p ** e
    if q > MAX_ORDER:
        raise OverflowLimitError(f"field order {q} exceeds cap {MAX_ORDER}")
    key = (p, e)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if e == 1:
        field = Field(p, 1, (0, 1), None)
    else:
        prime = field_new(p, 1)
        modulus = _smallest_irreducible(prime, e)
        field = Field(p, e, modulus, None)
        field._core = _PolyCore(prime, e, modulus)
    _FIELD_CACHE[key] = field
    return field


def field_for_order(q: int) -> Field:
    pe = prime_power(q)
    if pe is None:
        raise InvalidParamsError(f"{q} is not a prime power")
    return field_new(*pe)


class ExtField:
    """GF(q^m) as a tower over a base Field of order q.

    Elements are integers in [0, q^m) whose base-q digits are the power-basis
    coordinates over the base field.
    """

    def __init__(self, base: Field, m: int, modulus: tuple[int, ...], core: _PolyCore):
        self.base = base
        self.m = m
        self.modulus = modulus
        self.order = core.order
        self._core = core

    def __repr__(self) -> str:
        return f"GF({self.base.q}^{self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and (self.base, self.m, self.modulus) == (other.base, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((ExtField, self.base, self.m, self.modulus))

    def _check(self, *elems: int) -> None:
        for a in elems:
            if not 0 <= a < self.order:
                raise FieldMismatchError(f"{a} is not an element of {self!r}")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._core.add(a, b)

    def neg(self, a: int) -> int:
        self._check(a)
        return self._core.neg(a)

    def sub(self, a: int, b: int) -> int:
        return self._core.add(a, self._core.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._core.mul(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        return self._core.inv(a)

    def coord(self, a: int) -> tuple[int, ...]:
        """Power-basis coordinate vector over the base field, length m."""
        self._check(a)
        return tuple(self._core.digits(a))


_EXT_CACHE: dict[tuple[Field, int], ExtField] = {}


def ext_field(base: Field, m: int) -> ExtField:
    """GF(q^m) over base, deterministic modulus scan over GF(q)[x]."""
    if not isinstance(base, Field):
        raise InvalidParamsError("base must be a Field")
    if not isinstance(m, int) or m < 1:
        raise InvalidParamsError(f"extension degree must be >= 1, got {m}")
    order = base.q ** m
    if order > MAX_ORDER:
        raise OverflowLimitError(f"extension order {order} exceeds cap {MAX_ORDER}")
    key = (base, m)
    cached = _EXT_CACHE.get(key)
    if cached is not None:
        return cached
    modulus = _smallest_irreducible(base, m)
    ext = ExtField(base, m, modulus, _PolyCore(base, m, modulus))
    _EXT_CACHE[key] = ext
    return ext
