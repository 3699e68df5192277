"""Apostol-Bernoulli and Frobenius-Euler polynomials, both construction routes."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclosum.appell import (
    _frob_euler,
    apostol_bernoulli,
    apostol_bernoulli_number,
    frobenius_euler,
    series_oracle_B,
    series_oracle_H,
)
from cyclosum.cyclotomic import zeta_pow
from cyclosum.errors import InvalidPower, ParameterCollision
from cyclosum.qpoly import QPoly, q

half = Fraction(1, 2)


def test_bernoulli_frozen_values():
    assert apostol_bernoulli(0, 2) == QPoly.zero()
    assert apostol_bernoulli(1, 2) == QPoly.one()
    assert apostol_bernoulli(2, 2) == 2 * q - 4
    # classical branch
    assert apostol_bernoulli(0, 1) == QPoly.one()
    assert apostol_bernoulli(1, 1) == q - half
    assert apostol_bernoulli(2, 1) == q ** 2 - q + Fraction(1, 6)
    assert apostol_bernoulli(3, 1) == q ** 3 - Fraction(3, 2) * q ** 2 + half * q


def test_bernoulli_number():
    assert apostol_bernoulli_number(1, 1) == -half
    assert apostol_bernoulli_number(2, 1) == Fraction(1, 6)
    assert apostol_bernoulli_number(4, 1) == Fraction(-1, 30)


def test_euler_specialization():
    # (1-gamma)^p e^{qt}/(lambda e^t - gamma) at p=lambda=1, gamma=-1 gives
    # the classical Euler polynomials
    assert frobenius_euler(0, 1, 1, -1) == QPoly.one()
    assert frobenius_euler(1, 1, 1, -1) == q - half
    assert frobenius_euler(2, 1, 1, -1) == q ** 2 - q
    assert frobenius_euler(3, 1, 1, -1) == q ** 3 - Fraction(3, 2) * q ** 2 + Fraction(1, 4)


def test_frobenius_euler_hand_value():
    # (lambda - gamma) H_1 = (1-gamma)^p q - lambda H_0 at p=1, lambda=2, gamma=-1
    assert frobenius_euler(1, 1, 2, -1) == Fraction(2, 3) * q - Fraction(4, 9)


def test_collision_and_power_guards():
    with pytest.raises(ParameterCollision):
        frobenius_euler(2, 1, 3, 3)
    with pytest.raises(ParameterCollision):
        frobenius_euler(2, 1, zeta_pow(6, 1), zeta_pow(6, 1))
    with pytest.raises(InvalidPower):
        frobenius_euler(2, -1, 2, 1)
    # p = 0 with gamma = 1 is fine: (1-gamma)^0 = 1
    assert frobenius_euler(0, 0, 2, 1) == QPoly.one()


def test_appell_derivative_property():
    for m in range(1, 7):
        assert apostol_bernoulli(m, 2).derivative() == m * apostol_bernoulli(m - 1, 2)
        assert apostol_bernoulli(m, 1).derivative() == m * apostol_bernoulli(m - 1, 1)
        h_m = frobenius_euler(m, 2, half, -2)
        h_prev = frobenius_euler(m - 1, 2, half, -2)
        assert h_m.derivative() == m * h_prev


def test_difference_equation_bernoulli():
    # lambda B_m(q+1) - B_m(q) = m q^{m-1}
    for lam in (1, 2, Fraction(-1, 2)):
        for m in range(1, 7):
            b = apostol_bernoulli(m, lam)
            lhs = lam * b.shift(1) - b
            assert lhs == m * QPoly.monomial(m - 1)


def test_difference_equation_frobenius():
    # lambda H_m(q+1) - gamma H_m(q) = (1-gamma)^p q^m
    lam, gamma, p = 2, Fraction(-1, 3), 2
    for m in range(0, 6):
        h = frobenius_euler(m, p, lam, gamma)
        lhs = lam * h.shift(1) - gamma * h
        assert lhs == (1 - gamma) ** p * QPoly.monomial(m)


def test_series_route_matches_recurrence():
    for lam in (1, 2, Fraction(-1, 2)):
        series = series_oracle_B(8, lam)
        for m in range(9):
            assert series[m] == apostol_bernoulli(m, lam)
    series = series_oracle_H(6, -1, 2, zeta_pow(4, 3))
    for m in range(7):
        assert series[m] == frobenius_euler(m, -1, 2, zeta_pow(4, 3))


@pytest.mark.parametrize("d", [2, 3, 5, 9, 15, 35, 45])
def test_series_route_matches_recurrence_at_the_prop2_seeds(d):
    # gamma = zeta_d^(-1) at every level the prop2-hilevel seeds read
    gamma = zeta_pow(d, -1)
    for p in (-2, 0, 1, 3):
        for lam in (Fraction(2), Fraction(-1, 2), Fraction(0)):
            series = series_oracle_H(9, p, lam, gamma)
            for m in range(10):
                assert frobenius_euler(m, p, lam, gamma) == series[m], (m, p, lam)


@pytest.mark.parametrize("level", [3, 4, 5, 12])
def test_series_routes_match_recurrences_at_cyclotomic_lambdas(level):
    # the recurrences' field branch: irrational numbers, lam not folded
    for lam in (zeta_pow(level, 1), 2 * zeta_pow(level, -1) + Fraction(1, 3)):
        series_b = series_oracle_B(8, lam)
        series_h = series_oracle_H(8, 1, lam, Fraction(1, 2))
        for m in range(9):
            assert apostol_bernoulli(m, lam) == series_b[m], (m, lam)
            assert frobenius_euler(m, 1, lam, Fraction(1, 2)) == series_h[m], (m, lam)


@pytest.mark.parametrize("lam, gamma", [(Fraction(2), zeta_pow(5, -1)), (zeta_pow(4, 1), Fraction(-1, 2))])
def test_frobenius_euler_order_scales_the_order_zero_entry(lam, gamma):
    base = [frobenius_euler(m, 0, lam, gamma) for m in range(7)]
    misses = _frob_euler.cache_info().misses
    for p in (-2, 1, 3):
        for m in range(7):
            assert frobenius_euler(m, p, lam, gamma) == (1 - gamma) ** p * base[m], (m, p)
    # p adds no cache entry, and p = 0 returns the cached polynomial itself
    assert _frob_euler.cache_info().misses == misses
    assert all(frobenius_euler(m, 0, lam, gamma) is base[m] for m in range(7))


def test_series_route_guards_match():
    with pytest.raises(ParameterCollision):
        series_oracle_H(4, 1, 3, 3)
    with pytest.raises(InvalidPower):
        series_oracle_H(4, -2, 2, 1)


small_fracs = st.tuples(st.integers(-4, 4), st.integers(1, 5)).map(
    lambda t: Fraction(t[0], t[1])
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    small_fracs,
    small_fracs,
    st.integers(min_value=-2, max_value=3),
)
def test_dual_route_random_rational(m, lam, gamma, p):
    if lam == gamma or (p < 0 and gamma == 1):
        return
    assert frobenius_euler(m, p, lam, gamma) == series_oracle_H(m, p, lam, gamma)[m]


def test_gamma_zero_reduces_to_geometric():
    # gamma = 0: EGF e^{qt}/(lambda e^t) = e^{(q-1)t}/lambda
    for m in range(5):
        want = QPoly.monomial(0, Fraction(1, 2)) * QPoly((-1, 1)) ** m
        assert frobenius_euler(m, 3, 2, 0) == want
