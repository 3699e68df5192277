"""Dedekind-type sums, totative power sums, Ramanujan sums."""
from fractions import Fraction
from math import gcd

import pytest

from cyclosum.arith import euler_phi, moebius
from cyclosum.appell import _bernoulli, _frob_euler
from cyclosum.cyclotomic import cyclo_inv, zeta_pow
from cyclosum.dedekind import (
    _e_sum,
    _frob_euler_row,
    _twists,
    _unit_pow,
    e_sum,
    g_series_oracle,
    ramanujan_sum,
    v_sum,
)
from cyclosum.errors import ParameterCollision
from cyclosum.qpoly import QPoly
from cyclosum.spectra import PeriodicSeq, _lagrange_basis, family
from cyclosum.verify import _prop2_rhs, _shifted_bernoulli


def test_e_sum_hand_value():
    # single term at n=2: C_1 H_0^{(1)}(q,2,-1)/(1-(-1)) = 1 * (2/3) / 2
    c = PeriodicSeq(2, (Fraction(0), Fraction(1)))
    poly = e_sum(1, 2, 0, 1, 2, c)
    assert poly.level == 1
    assert poly == QPoly((Fraction(1, 3),))


def test_e_sum_delta_vanishes():
    for n in (2, 3, 5):
        for m in (1, 2, 4):
            assert e_sum(m, n, 1, 1, 2, family("delta", n)) == QPoly.zero()


def test_e_sum_degree_bound():
    c = family("ramanujan", 5)
    for m in (1, 2, 3, 5):
        poly = e_sum(m, 5, 0, 1, 3, c)
        assert poly.degree is None or poly.degree <= m - 1


def test_e_sum_collision_names_the_term():
    c = family("ramanujan", 4)
    with pytest.raises(ParameterCollision, match="k=2"):
        e_sum(2, 4, 0, 1, -1, c)
    # odd n never collides for rational lambda
    assert e_sum(2, 3, 0, 1, -1, family("ramanujan", 3)) is not None
    for n in range(2, 13):
        c = family("delta", n)
        for k in range(1, n):
            with pytest.raises(ParameterCollision, match=f"k={k} term"):
                e_sum(1, n, 0, 1, zeta_pow(n, -k), c)
        if n % 2 == 0:
            with pytest.raises(ParameterCollision, match=f"k={n // 2} term"):
                e_sum(1, n, 0, 1, -1, c)
        else:
            e_sum(1, n, 0, 1, -1, c)
        for lam in (1, 2, Fraction(-1, 2)):
            e_sum(1, n, 0, 1, lam, c)


def test_e_sum_validates_shape():
    c = family("ramanujan", 4)
    with pytest.raises(ValueError):
        e_sum(0, 4, 0, 1, 2, c)
    with pytest.raises(ValueError):
        e_sum(1, 5, 0, 1, 2, c)  # period mismatch


def test_e_sum_lambda_one_is_legal():
    # H_0^{(1)}(q, 1, zeta^{-k}) = 1 and C_{-k} (1 - zeta^k)^{-1} = (1 - i^k)^{-2},
    # so the sum over k = 1, 2, 3 is i/2 + 1/4 - i/2
    poly = e_sum(1, 4, 0, 1, 1, family("fourier-dedekind", 4, a=1))
    assert poly.level == 1
    assert poly == QPoly((Fraction(1, 4),))


def test_e_sum_shift_r_by_period():
    c = family("ramanujan", 6)
    assert e_sum(3, 6, 1, 1, 2, c) == e_sum(3, 6, 7, 1, 2, c)


def test_v_sum_frozen_values():
    assert v_sum(6, 0, 2) == 34  # 2^1 + 2^5
    assert v_sum(6, 1, 1) == 6  # 1 + 5
    assert v_sum(4, 2, Fraction(1, 2)) == Fraction(1, 2) + 9 * Fraction(1, 8)


def test_v_sum_totient_facts():
    for n in range(2, 21):
        assert v_sum(n, 0, 1) == euler_phi(n)
        assert v_sum(n, 1, 1) == Fraction(n * euler_phi(n), 2)


def test_v_sum_guards():
    with pytest.raises(ValueError):
        v_sum(1, 0, 2)
    with pytest.raises(ValueError):
        v_sum(4, -1, 2)


def test_ramanujan_frozen_row():
    assert [ramanujan_sum(6, k) for k in range(6)] == [2, 1, -1, -2, -1, 1]


def test_ramanujan_is_rational_fraction():
    val = ramanujan_sum(12, 5)
    assert isinstance(val, Fraction)


def test_ramanujan_totient_and_moebius_columns():
    for n in range(1, 21):
        assert ramanujan_sum(n, 0) == euler_phi(n)
        assert ramanujan_sum(n, 1) == moebius(n)


def test_ramanujan_hoelder():
    # c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(k, n)
    for n in range(1, 21):
        for k in range(n):
            g = gcd(k, n) if k else n
            want = Fraction(moebius(n // g) * euler_phi(n), euler_phi(n // g))
            assert ramanujan_sum(n, k) == want


def test_g_series_coefficients_are_e_sums():
    n, r, p, lam = 4, 1, 1, 2
    c = family("ramanujan", n)
    series = g_series_oracle(n, r, p, lam, c, order=5)
    for m in range(6):
        assert series[m] == e_sum(m + 1, n, r, p, lam, c)


def test_g_series_respects_collision():
    with pytest.raises(ParameterCollision):
        g_series_oracle(4, 0, 1, -1, family("ramanujan", 4), order=3)


def test_e_sum_rational_when_weights_are_galois_stable():
    # Fourier-Dedekind weights with rational lambda give rational coefficients
    for n in (3, 4, 5, 6):
        poly = e_sum(2, n, 1, 1, 2, family("fourier-dedekind", n, a=1))
        assert poly.level == 1
        assert all(isinstance(c, Fraction) for c in poly.coeffs)


def test_value_keyed_caches_are_bounded():
    # all are keyed on caller-supplied values, so grids larger than the
    # default ones must not grow them without limit
    for cached in (
        _e_sum, cyclo_inv, _bernoulli, _frob_euler, _shifted_bernoulli,
        _unit_pow, _lagrange_basis, _twists, _frob_euler_row, _prop2_rhs,
    ):
        assert cached.cache_info().maxsize is not None
