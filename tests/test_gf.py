"""Field construction and arithmetic laws.

Axioms are checked exhaustively for every order up to 81; triples are
subsampled above order 16 to keep the associativity/distributivity loops
proportionate.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from oracles import decode, encode
from spreadlab import gf
from spreadlab.bounds import SpreadParams
from spreadlab.construct import (
    build_lower_bound_spread,
    spread_from_dict,
    verify_partial_spread,
)
from spreadlab.errors import (
    FieldMismatchError,
    InvalidParamsError,
    NotPrimeError,
    OverflowLimitError,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81]


def all_fields():
    return [gf.field_for_order(q) for q in SMALL_ORDERS]


def _power(F, a, k):
    """a^k for k >= 0 by square and multiply, from F.mul alone."""
    result = 1
    while k:
        if k & 1:
            result = F.mul(result, a)
        a = F.mul(a, a)
        k >>= 1
    return result


# -- construction -----------------------------------------------------------


def test_prime_field_modulus_is_x():
    F = gf.field_new(2, 1)
    assert (F.p, F.e, F.q) == (2, 1, 2)
    assert F.modulus == (0, 1)


def test_gf4_modulus():
    assert gf.field_new(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_from_scan():
    # candidates below x^2+1 in base-3 coefficient order are x^2 and x^2+... none:
    # value 0 -> x^2 (root 0), value 1 -> x^2+1 rootless
    assert gf.field_new(3, 2).modulus == (1, 0, 1)


def test_known_moduli():
    assert gf.field_new(2, 3).modulus == (1, 1, 0, 1)
    assert gf.field_new(2, 4).modulus == (1, 1, 0, 0, 1)
    assert gf.field_new(3, 3).modulus == (1, 2, 0, 1)


def test_construction_is_deterministic():
    a = gf.field_new(5, 2)
    b = gf.field_new(5, 2)
    assert a.modulus == b.modulus
    assert a == b


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        gf.field_new(4)
    with pytest.raises(NotPrimeError):
        gf.field_new(6, 2)
    with pytest.raises(NotPrimeError):
        gf.field_new(1)


def test_order_cap(monkeypatch):
    with pytest.raises(OverflowLimitError):
        gf.field_new(2, 21)  # 2^21 > MAX_ORDER = 2^20
    monkeypatch.setattr(gf, "MAX_ORDER", 16)
    with pytest.raises(OverflowLimitError):
        gf.field_new(2, 5)


def test_field_for_order():
    assert gf.field_for_order(49).p == 7
    assert gf.field_for_order(49).e == 2
    with pytest.raises(InvalidParamsError):
        gf.field_for_order(12)


def test_prime_power():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(7) == (7, 1)
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None


@pytest.mark.parametrize("q, pe", [
    (2 ** 61 - 1, (2 ** 61 - 1, 1)),
    (2 ** 61, (2, 61)),
    ((2 ** 31 - 1) ** 2, (2 ** 31 - 1, 2)),
    ((2 ** 61 - 1) ** 2, (2 ** 61 - 1, 2)),  # q past the test's range, p within
    (3 * 2 ** 61, None),
    (6 ** 5, None),
])
def test_prime_power_of_large_q(q, pe):
    assert gf.prime_power(q) == pe


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 65537, 2 ** 31 - 1]), st.integers(1, 40))
def test_prime_power_finds_every_power(p, e):
    assert gf.prime_power(p ** e) == (p, e)


def test_prime_power_of_a_4300_digit_q_is_fast():
    # about the largest q the command line parses
    start = time.perf_counter()
    assert gf.prime_power(7 ** 5000) == (7, 5000)
    assert gf.prime_power(7 ** 5000 - 1) is None
    assert gf.prime_power(10 ** 4299 + 1) is None
    assert time.perf_counter() - start < 10


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if gf.is_prime(n)] == [
        n for n in range(20_000) if _trial_division_is_prime(n)
    ]


@pytest.mark.parametrize("n", [
    3_215_031_751,  # strong pseudoprime to bases 2, 3, 5, 7
    3_825_123_056_546_413_051,  # ... to the first nine prime bases
    318_665_857_834_031_151_167_461,  # ... to the first twelve
])
def test_strong_pseudoprimes_are_composite(n):
    assert not gf.is_prime(n)


def test_primality_past_the_limit_is_refused():
    with pytest.raises(InvalidParamsError, match="primality"):
        gf.is_prime(2 ** 89 - 1)  # a Mersenne prime
    assert gf.is_prime(2 ** 89) is False  # a small prime factor still decides


# -- arithmetic examples ----------------------------------------------------


def test_gf4_generator_square():
    F = gf.field_new(2, 2)
    # x * x = x + 1 under x^2 + x + 1
    assert F.mul(2, 2) == 3


def test_gf7_inverse():
    assert gf.field_new(7).inv(3) == 5


def test_inverse_of_zero():
    for F in (gf.field_new(5), gf.field_new(2, 2)):
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_element_out_of_range():
    F = gf.field_new(3)
    with pytest.raises(FieldMismatchError):
        F.add(1, 3)
    with pytest.raises(FieldMismatchError):
        F.mul(-1, 2)


# -- field axioms -----------------------------------------------------------


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms(q):
    F = gf.field_for_order(q)
    elems = list(range(q))

    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1

    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)

    if q <= 16:
        triples = [(a, b, c) for a in elems for b in elems for c in elems]
    else:
        rng = random.Random(978 + q)
        triples = [
            (rng.randrange(q), rng.randrange(q), rng.randrange(q))
            for _ in range(2000)
        ]
    for a, b, c in triples:
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_frobenius_is_additive(q):
    F = gf.field_for_order(q)
    p = F.p
    for a in range(q):
        for b in range(q):
            lhs = _power(F, F.add(a, b), p)
            rhs = F.add(_power(F, a, p), _power(F, b, p))
            assert lhs == rhs


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=80))
def test_gf81_sub_add_roundtrip(a, b):
    F = gf.field_new(3, 4)
    assert F.add(F.sub(a, b), b) == a


# -- extension towers -------------------------------------------------------


# the scan's moduli over non-prime and prime bases, pinned
@pytest.mark.parametrize("q, m, modulus", [
    (4, 2, (2, 1, 1)),
    (4, 3, (2, 0, 0, 1)),
    (4, 4, (1, 2, 1, 0, 1)),
    (8, 2, (1, 1, 1)),
    (9, 2, (4, 0, 1)),
    (16, 2, (8, 1, 1)),
    (5, 3, (1, 1, 0, 1)),
])
def test_tower_moduli(q, m, modulus):
    assert gf.ext_field(gf.field_for_order(q), m).modulus == modulus


@pytest.mark.parametrize("p, e", [(2, 4), (3, 3), (5, 2)])
def test_field_new_is_the_tower_over_the_prime_field(p, e):
    assert gf.ext_field(gf.field_new(p), e) is gf.field_new(p, e)


def test_ext_field_over_gf4():
    F4 = gf.field_new(2, 2)
    E = gf.ext_field(F4, 2)
    assert E.q == 16
    assert gf.digits(1, E.base.q, E.m) == (1, 0)
    assert gf.digits(0, E.base.q, E.m) == (0, 0)


def test_coord_is_base_linear():
    F4 = gf.field_new(2, 2)
    E = gf.ext_field(F4, 2)
    for a in range(E.q):
        for b in range(E.q):
            ca, cb = gf.digits(a, 4, 2), gf.digits(b, 4, 2)
            summed = tuple(F4.add(x, y) for x, y in zip(ca, cb))
            assert gf.digits(E.add(a, b), 4, 2) == summed


def test_coord_roundtrip():
    F3 = gf.field_new(3)
    E = gf.ext_field(F3, 3)
    # the coordinates are the base-q digits of the encoding
    for a in range(E.q):
        assert gf.digits(a, 3, E.m) == decode(a, E.m, 3)
        assert encode(gf.digits(a, 3, E.m), 3) == a


def test_ext_field_axioms_sampled():
    E = gf.ext_field(gf.field_new(3), 2)  # GF(9) as a tower
    elems = list(range(E.q))
    for a in elems:
        for b in elems:
            assert E.add(a, b) == E.add(b, a)
            assert E.mul(a, b) == E.mul(b, a)
            if b:
                assert E.mul(E.mul(a, b), E.inv(b)) == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))


def test_ext_field_degree_one_is_identity_map():
    F5 = gf.field_new(5)
    E = gf.ext_field(F5, 1)
    assert E.q == 5
    for a in range(5):
        assert gf.digits(a, E.base.q, E.m) == (a,)
        for b in range(5):
            assert E.mul(a, b) == F5.mul(a, b)


def test_ext_field_cap(monkeypatch):
    monkeypatch.setattr(gf, "MAX_ORDER", 1000)
    with pytest.raises(OverflowLimitError):
        gf.ext_field(gf.field_new(2), 10)


def test_large_degree_tower_arithmetic():
    # degree above the root-test cutoff exercises the exponentiation test
    F2 = gf.field_new(2)
    E = gf.ext_field(F2, 11)
    assert E.q == 2048
    g = 2  # x
    assert _power(E, g, E.q - 1) == 1
    assert E.mul(g, E.inv(g)) == 1



TABLE_FIELDS = {
    "2^9": lambda: gf.field_new(2, 9),
    "5^4": lambda: gf.field_new(5, 4),
    "4^5": lambda: gf.ext_field(gf.field_new(2, 2), 5),
    "7^5": lambda: gf.field_new(7, 5),
    "3^10": lambda: gf.field_new(3, 10),
    "16^4": lambda: gf.ext_field(gf.field_new(2, 4), 4),
}


@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_tables_are_the_powers_of_a_generator(name):
    # the tables are listed by doubling; the oracle is polynomial
    # multiplication, every power up to order 16807 and a stride above
    field = TABLE_FIELDS[name]()
    size = field.q - 1
    exp, log = field._exp, field._log
    assert exp[:size] == exp[size:]
    assert sorted(exp[:size]) == list(range(1, field.q))
    assert all(log[exp[i]] == i for i in range(size))
    g = exp[1]
    if size < 20_000:
        x = 1
        for i in range(size):
            assert exp[i] == x, i
            x = field._mul_poly(x, g)
        assert x == 1
    else:
        for i in range(0, size, 211):
            assert exp[i] == field._pow_poly(g, i), i


def test_largest_table_field_builds_fast(monkeypatch):
    # one _mul_poly call per element took about 2.7 s here
    monkeypatch.setattr(gf, "_FIELDS", {})
    start = time.monotonic()
    field = gf.ext_field(gf.field_new(2), 16)
    assert time.monotonic() - start < 0.5
    assert field._exp is not None and field.q == 1 << 16


def test_parse_and_verify_inverting_thousands_of_leads_is_fast():
    # rref_blocks inverts each distinct lead through Field.inv, which reads
    # the log tables.  Each of the 4,097 rows of the (4096, 2, 1) spread is
    # scaled by a unit, all 4,095 units used, so about 4,095 leads are
    # inverted: 0.05 s with the tables, about 5 s by polynomial powers
    # (2-core Xeon, Python 3.11)
    q = 4096
    field = gf.field_for_order(q)
    doc = build_lower_bound_spread(SpreadParams(q, 2, 1)).to_dict()
    units = list(range(1, q))
    random.Random(1).shuffle(units)
    for member, c in zip(doc["members"], itertools.cycle(units)):
        member["rows"] = [[field.mul(c, x) for x in row] for row in member["rows"]]
    start = time.monotonic()
    res = verify_partial_spread(spread_from_dict(doc))
    assert time.monotonic() - start < 1.5
    assert res.ok and len(doc["members"]) == 4097
