import time
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from spreadlab import bounds
from spreadlab.bounds import SpreadParams, theta
from spreadlab.gf import prime_power
from spreadlab.errors import (
    HypothesisViolatedError,
    IdentityViolationError,
    InvalidParamsError,
    OutOfRegimeError,
)


def P(q, n, t):
    return SpreadParams(q, n, t)


class TestParams:
    def test_r(self):
        assert P(2, 8, 3).r == 2
        assert P(2, 6, 3).r == 0
        assert P(3, 10, 4).r == 2

    @pytest.mark.parametrize("q,n,t", [(6, 8, 3), (1, 8, 3), (0, 4, 2), (10, 5, 2)])
    def test_bad_q(self, q, n, t):
        with pytest.raises(InvalidParamsError):
            P(q, n, t)

    @pytest.mark.parametrize("n,t", [(3, 3), (2, 3), (4, 0), (5, -1)])
    def test_bad_shape(self, n, t):
        with pytest.raises(InvalidParamsError):
            P(2, n, t)

    def test_to_dict(self):
        assert P(2, 8, 3).to_dict() == {"q": 2, "n": 8, "t": 3, "r": 2}


class TestTheta:
    def test_values(self):
        assert theta(0, 2) == 0
        assert theta(1, 5) == 1
        assert theta(3, 2) == 7
        assert theta(4, 3) == 40
        assert theta(2, 9) == 10

    def test_geometric_sum(self):
        for q in (2, 3, 4, 5):
            for i in range(8):
                assert theta(i, q) == sum(q ** j for j in range(i))

    def test_rejects(self):
        with pytest.raises(InvalidParamsError):
            theta(-1, 2)
        with pytest.raises(InvalidParamsError):
            theta(3, 1)


class TestLowerBound:
    def test_golden(self):
        assert bounds.lower_bound(P(2, 7, 3)) == 17
        assert bounds.lower_bound(P(2, 8, 3)) == 33
        assert bounds.lower_bound(P(3, 5, 2)) == 28

    def test_spread_case(self):
        # r = 0 gives a perfect spread count theta_n / theta_t
        assert bounds.lower_bound(P(2, 6, 3)) == theta(6, 2) // theta(3, 2)
        assert bounds.lower_bound(P(3, 6, 2)) == theta(6, 3) // theta(2, 3)

    def test_trivial_case(self):
        # n < 2t collapses to a single subspace
        assert bounds.lower_bound(P(2, 5, 3)) == 1
        assert bounds.lower_bound(P(3, 7, 4)) == 1

    def test_trivial_case_agrees_with_the_packing_formula(self):
        # t + r = n when t < n < 2t, so the numerator q^n - q^(t+r) is 0
        for q in (2, 3, 4, 5):
            for t in range(2, 7):
                for n in range(t + 1, 2 * t):
                    r = n % t
                    assert (q ** n - q ** (t + r)) // (q ** t - 1) + 1 == 1
                    assert bounds.lower_bound(P(q, n, t)) == 1


def omega_floor_oracle(q, t, r):
    # largest w with (2w + m)^2 <= D, found by unbounded upward scan
    D = 4 * q ** t * (q ** t - q ** r) + 1
    m = 2 * q ** t - 2 * q ** r + 1
    w = 0
    while (2 * (w + 1) + m) ** 2 <= D:
        w += 1
    assert (2 * w + m) ** 2 <= D
    return w


class TestOmegaFloor:
    def test_golden(self):
        assert bounds.omega_floor(2, 2, 1) == 0
        assert bounds.omega_floor(2, 3, 2) == 1
        assert bounds.omega_floor(2, 4, 2) == 1
        assert bounds.omega_floor(2, 13, 4) == 7
        assert bounds.omega_floor(3, 4, 2) == 3

    def test_against_scan_oracle(self):
        for q in (2, 3, 4, 5):
            for t in range(2, 9):
                for r in range(1, t):
                    assert bounds.omega_floor(q, t, r) == omega_floor_oracle(q, t, r)

    def test_closed_form_when_t_large(self):
        # t >= 2r pushes the root close to q^t - q^r + q^r/2; omega_floor
        # returns the closed form there, and it agrees with the isqrt of D
        for q in range(2, 257):
            for r in range(1, 12):
                for t in range(2 * r, 2 * r + 15):
                    D = 4 * q ** t * (q ** t - q ** r) + 1
                    m = 2 * q ** t - 2 * q ** r + 1
                    closed = q ** r // 2 - 1
                    assert (isqrt(D) - m) // 2 == closed
                    assert bounds.omega_floor(q, t, r) == closed

    def test_closed_form_is_fast(self):
        # t >= 2r: no isqrt of a 3-million-digit number
        start = time.perf_counter()
        assert bounds.omega_floor(3, 999999, 1) == 0
        assert time.perf_counter() - start < 2

    def test_rejects_r0(self):
        with pytest.raises(InvalidParamsError):
            bounds.omega_floor(2, 3, 0)
        with pytest.raises(InvalidParamsError):
            bounds.omega_floor(2, 3, 3)


class TestDrakeFreeman:
    def test_golden(self):
        assert bounds.drake_freeman(P(2, 8, 3)) == 34
        assert bounds.drake_freeman(P(2, 10, 4)) == 66
        assert bounds.drake_freeman(P(2, 5, 3)) == 2
        assert bounds.drake_freeman(P(2, 7, 3)) == 17
        assert bounds.drake_freeman(P(2, 9, 4)) == 33

    def test_rejects_r0(self):
        with pytest.raises(InvalidParamsError):
            bounds.drake_freeman(P(2, 6, 3))

    def test_at_least_packing(self):
        # upper bound must sit at or above the packing lower bound
        for q in (2, 3):
            for t in range(2, 6):
                for n in range(t + 1, 3 * t + 1):
                    if n % t == 0:
                        continue
                    p = P(q, n, t)
                    assert bounds.drake_freeman(p) >= bounds.lower_bound(p)


class TestC1C2:
    def test_golden(self):
        assert bounds.c1_c2(2, 3) == (1, 0)
        assert bounds.c1_c2(2, 13) == (1, 2)
        assert bounds.c1_c2(3, 4) == (2, 0)
        assert bounds.c1_c2(2, 14) == (0, 2)
        assert bounds.c1_c2(2, 15) == (1, 0)

    def test_c1_range_and_c2_membership(self):
        for q in (2, 3, 4, 5, 7, 9):
            for t in range(2, 40):
                c1, c2 = bounds.c1_c2(q, t)
                assert 0 <= c1 < q
                assert c2 in (0, q)
                # c1 is the unique residue making the sum divisible by q
                assert ((q - 1) * (t - 2) + c1) % q == 0

    def test_rejects(self):
        with pytest.raises(InvalidParamsError):
            bounds.c1_c2(2, 1)


class TestMainBound:
    def test_golden(self):
        assert bounds.main_bound(P(2, 8, 3)) == 34
        assert bounds.main_bound(P(3, 10, 4)) == 732
        assert bounds.main_bound(P(2, 17, 13)) == 6

    def test_regime_gate(self):
        with pytest.raises(OutOfRegimeError):
            bounds.main_bound(P(2, 7, 3))  # r = 1
        with pytest.raises(OutOfRegimeError):
            bounds.main_bound(P(2, 6, 3))  # r = 0
        with pytest.raises(OutOfRegimeError):
            bounds.main_bound(P(2, 9, 4))  # r = 1
        # t must not exceed theta_r: r = 2, q = 2 gives theta_2 = 3
        with pytest.raises(OutOfRegimeError):
            bounds.main_bound(P(2, 10, 4))

    def test_weaker_additive_form(self):
        # dropping c2 and rounding c1 up to q - 1 can only lower the bound:
        # bound >= packing - 1 + q^r - (q-1)(t-1) pointwise
        for q in (2, 3, 4):
            for r in range(2, 4):
                for t in range(r + 1, theta(r, q) + 1):
                    n = 2 * t + r
                    p = P(q, n, t)
                    weak = (
                        bounds.lower_bound(p) - 1 + q ** r - (q - 1) * (t - 1)
                    )
                    assert bounds.main_bound(p) >= weak

    def test_congruence_family(self):
        # t = 1 (mod q) but not 1 (mod q^2): additive part is q^r - (q-1)(t-1)
        for q, t in [(2, 3), (2, 7), (3, 4), (3, 13), (5, 6)]:
            if (t - 1) % (q * q) == 0:
                continue
            c1, c2 = bounds.c1_c2(q, t)
            assert (c1, c2) == (q - 1, 0)
            r = 2
            if t > theta(r, q):
                continue
            n = 2 * t + r
            p = P(q, n, t)
            want = bounds.lower_bound(p) - 1 + q ** r - (q - 1) * (t - 1)
            assert bounds.main_bound(p) == want

    def test_matches_lemma_at_default_x(self):
        for q, n, t in [(2, 8, 3), (3, 10, 4), (2, 17, 13), (3, 11, 4), (2, 23, 13)]:
            p = P(q, n, t)
            x = bounds.descent_x(q, t, p.r)
            assert bounds.main_bound(p) == bounds.lemma_main_bound(q, n, t, x)


class TestCompare:
    def test_golden(self):
        assert bounds.compare_bounds(P(2, 17, 13)) == -2
        assert bounds.compare_bounds(P(2, 18, 14)) == -2
        assert bounds.compare_bounds(P(2, 19, 15)) == -6

    def test_closed_form(self):
        for q in (2, 3):
            for r in (2, 3):
                for t in range(2 * r, theta(r, q) + 1):
                    p = P(q, 2 * t + r, t)
                    c1, c2 = bounds.c1_c2(q, t)
                    want = q ** r // 2 - (q - 1) * (t - 2) - c1 + c2
                    assert bounds.compare_bounds(p) == want

    def test_closed_form_computes_neither_bound(self, monkeypatch):
        # the margin scan checks compare_bounds against the two bounds, so it
        # must not be their difference
        def refuse(params):
            raise AssertionError("compare_bounds computed a bound")

        monkeypatch.setattr(bounds, "main_bound", refuse)
        monkeypatch.setattr(bounds, "drake_freeman", refuse)
        assert bounds.compare_bounds(P(2, 17, 13)) == -2

    def test_agrees_with_the_subtraction(self):
        cells = 0
        for q in (q for q in range(2, 33) if prime_power(q)):
            for r in range(2, 7):
                for t in range(2 * r, min(theta(r, q), 60) + 1):
                    p = P(q, 2 * t + r, t)
                    want = bounds.main_bound(p) - bounds.drake_freeman(p)
                    assert bounds.compare_bounds(p) == want, (q, r, t)
                    cells += 1
        assert cells > 500

    def test_negative_tail(self):
        # improvement is strict for t within half a theta of theta_r
        checked = 0
        for q, r in [(2, 4), (3, 3), (4, 3)]:
            off = 5 if q == 2 else 4
            th = theta(r, q)
            for t in range(-(-th // 2) + off, th + 1):
                if t < 2 * r:
                    continue
                p = P(q, 2 * t + r, t)
                assert bounds.compare_bounds(p) < 0
                checked += 1
        assert checked >= 10

    def test_regime_gate(self):
        with pytest.raises(OutOfRegimeError):
            bounds.compare_bounds(P(2, 7, 3))  # r = 1
        with pytest.raises(OutOfRegimeError):
            bounds.compare_bounds(P(2, 8, 3))  # t = 3 < 2r = 4
        with pytest.raises(OutOfRegimeError):
            bounds.compare_bounds(P(2, 20, 16))  # r = 4, t = 16 > theta_4 = 15


class TestDelta:
    def test_golden_q2_x2(self):
        assert bounds.delta(2, 1, 2) == 0
        assert bounds.delta(2, 2, 2) == 2
        assert bounds.delta(2, 3, 2) == 2

    def test_golden_q3_x3(self):
        assert bounds.delta(3, 4, 3) == 42
        assert bounds.delta(3, 3, 3) == 15
        assert bounds.delta(3, 2, 3) == 6

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    )
    def test_range_and_divisibility(self, x, i, q):
        d = bounds.delta(x, i, q)
        assert 0 <= d < q ** i
        assert (d == 0) == (x % q ** i == 0)

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_descent_recurrence(self, x, i, q):
        up = bounds.delta(x, i + 1, q)
        assert (x + up) % q == 0
        assert bounds.delta(x, i, q) == ((x + up) // q) % q ** i

    def test_rejects(self):
        with pytest.raises(InvalidParamsError):
            bounds.delta(0, 1, 2)
        with pytest.raises(InvalidParamsError):
            bounds.delta(1, 0, 2)


class TestHOf:
    def test_values(self):
        assert bounds.h_of(2, 2, 3) == 2
        assert bounds.h_of(3, 3, 4) == 2
        assert bounds.h_of(1, 2, 2) == 1
        assert bounds.h_of(6, 3, 2) == 3

    def test_identity_in_range(self):
        for q in (2, 3, 4):
            for t in range(2, 7):
                for r in range(1, t):
                    for x in range(1, q ** r):
                        h = bounds.h_of(x, q, t)
                        assert h == -(-x // (q - 1))

    def test_out_of_range_detected(self):
        # x = q^t breaks the two-route agreement
        with pytest.raises(IdentityViolationError):
            bounds.h_of(8, 2, 3)


class TestLemmaMainBound:
    def test_golden(self):
        assert bounds.lemma_main_bound(3, 10, 4, 3 * 1) == 729 + 3
        assert bounds.lemma_main_bound(2, 8, 3, 2) == 34

    def test_hypothesis_gates(self):
        with pytest.raises(HypothesisViolatedError):
            bounds.lemma_main_bound(2, 8, 3, 3)  # q does not divide x
        with pytest.raises(HypothesisViolatedError):
            bounds.lemma_main_bound(2, 8, 3, 4)  # q^2 divides x
        with pytest.raises(HypothesisViolatedError):
            bounds.lemma_main_bound(2, 7, 3, 2)  # r = 1
        with pytest.raises(HypothesisViolatedError):
            # r = 4, x = 2: threshold is theta_4 - 2 + 2 = 15 > 5
            bounds.lemma_main_bound(2, 14, 5, 2)
        with pytest.raises(HypothesisViolatedError):
            bounds.lemma_main_bound(2, 8, 3, -2)

    def test_threshold_boundary(self):
        # q = 2, r = 2: theta_2 = 3, x = 2 gives h = 2, threshold t >= 3
        assert bounds.lemma_main_bound(2, 8, 3, 2) == 34
        # t = 13, r = 2, q = 2 fails: threshold is 3 but 13 > 3 is fine...
        # the gate is t >= threshold, so larger t passes
        assert bounds.lemma_main_bound(2, 28, 13, 2) > 0


class TestBestKnown:
    def test_exact_families(self):
        rep = bounds.best_known(P(2, 8, 3))
        assert rep.exact is not None
        assert rep.exact.source == bounds.EJSSS_EXACT
        assert rep.exact.value == 34
        assert rep.lower == 34
        assert rep.best_upper == 34

        rep = bounds.best_known(P(2, 11, 3))
        assert rep.exact.value == 290

        rep = bounds.best_known(P(2, 10, 4))
        assert rep.exact.source == bounds.KURZ_EXACT
        assert rep.exact.value == 65

        rep = bounds.best_known(P(2, 9, 4))
        assert rep.exact.source == bounds.BHP_EXACT
        assert rep.exact.value == 33
        # t > theta_1 = 1 also fires the aperiodic-tail theorem
        assert bounds.NS_EXACT in [u.source for u in rep.uppers]

        rep = bounds.best_known(P(2, 7, 3))
        assert rep.exact.source == bounds.BHP_EXACT
        assert rep.exact.value == 17

        rep = bounds.best_known(P(3, 5, 2))
        assert rep.exact.source == bounds.BHP_EXACT
        assert rep.exact.value == 28

    def test_trivial_and_spread(self):
        rep = bounds.best_known(P(2, 5, 3))
        assert rep.exact.source == bounds.TRIVIAL_OVERLAP
        assert rep.exact.value == 1
        # t = 3 is not greater than theta_2 = 3, so no aperiodic-tail row
        assert bounds.NS_EXACT not in [u.source for u in rep.uppers]

        rep = bounds.best_known(P(2, 7, 5))
        assert rep.exact.source == bounds.TRIVIAL_OVERLAP
        assert bounds.NS_EXACT in [u.source for u in rep.uppers]

        rep = bounds.best_known(P(2, 6, 3))
        assert rep.exact.source == bounds.SPREAD_EXACT
        assert rep.exact.value == 9

        rep = bounds.best_known(P(3, 6, 2))
        assert rep.exact.source == bounds.SPREAD_EXACT
        assert rep.exact.value == 91

    def test_open_interval(self):
        # q = 3, r = 2, t = 3: no exactness theorem applies
        rep = bounds.best_known(P(3, 8, 3))
        assert rep.exact is None
        assert rep.lower == bounds.lower_bound(P(3, 8, 3))
        srcs = [u.source for u in rep.uppers]
        assert srcs == [bounds.DRAKE_FREEMAN, bounds.MAIN_THEOREM]
        assert rep.lower <= rep.best_upper

    def test_uppers_grid_invariants(self):
        for q in (2, 3, 4):
            for t in range(2, 7):
                for n in range(t + 1, 3 * t + 2):
                    rep = bounds.best_known(P(q, n, t))
                    srcs = [u.source for u in rep.uppers]
                    # fixed report order
                    assert srcs == sorted(srcs, key=bounds.SOURCES.index)
                    assert len(set(srcs)) == len(srcs)
                    assert rep.lower <= rep.best_upper
                    if rep.exact:
                        assert rep.lower == rep.best_upper == rep.exact.value
                    r = n % t
                    assert (bounds.DRAKE_FREEMAN in srcs) == (r > 0 and n >= 2 * t)
                    assert (bounds.MAIN_THEOREM in srcs) == (
                        2 <= r < t <= theta(r, q) and n >= 2 * t
                    )

    def test_to_dict_shape(self):
        d = bounds.best_known(P(2, 8, 3)).to_dict()
        assert d["q"] == 2 and d["n"] == 8 and d["t"] == 3 and d["r"] == 2
        assert d["lower"] == 34
        assert d["exact"]["source"] == bounds.EJSSS_EXACT
        assert {"value", "source"} <= set(d["uppers"][0].keys())
