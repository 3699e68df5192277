"""Truncated exponential generating functions: products, inverses, t-shifts,
expansions times e^{cqt}."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclosum.cyclotomic import CycloNum, zeta_pow
from cyclosum.errors import NotAUnit
from cyclosum.qpoly import QPoly, q
from cyclosum.series import TruncSeries, t_over_exp_affine, times_exp

fracs = st.tuples(st.integers(-20, 20), st.integers(1, 8)).map(
    lambda t: Fraction(t[0], t[1])
)
units = fracs.filter(lambda x: x != 0)
tails = st.lists(fracs, min_size=5, max_size=5)


def series_from(unit, tail):
    return TruncSeries((QPoly((unit,)),) + tuple(QPoly((c,)) for c in tail))


def test_exp_linear_coeffs():
    s = TruncSeries.exp_linear(Fraction(1, 2), 4)
    assert s[3] == QPoly((Fraction(1, 8),))
    # e^{qt}: coefficient m is the monomial q^m
    e = TruncSeries.exp_linear(q, 4)
    assert e[2] == q ** 2


def test_mul_binomial_convolution():
    # e^{at} * e^{bt} = e^{(a+b)t}
    a = TruncSeries.exp_linear(2, 6)
    b = TruncSeries.exp_linear(3, 6)
    assert a * b == TruncSeries.exp_linear(5, 6)


def test_mul_truncates_to_min_order():
    a = TruncSeries.exp_linear(1, 6)
    b = TruncSeries.exp_linear(1, 3)
    assert (a * b).order == 3


def test_inverse_roundtrip():
    s = TruncSeries.exp_affine(2, -1, 5)  # 2e^t - 1
    prod = s * s.inverse()
    assert prod == TruncSeries.one(5)


def test_inverse_requires_scalar_unit():
    with pytest.raises(NotAUnit):
        TruncSeries.exp_affine(1, -1, 4).inverse()  # constant term 0
    # constant term a polynomial of positive degree is not a unit here
    bad = TruncSeries((q, QPoly.zero(), QPoly.zero(), QPoly.zero()))
    with pytest.raises(NotAUnit):
        bad.inverse()


def test_mul_t():
    # t * e^t has m-th coefficient m
    s = TruncSeries.exp_linear(1, 5).mul_t()
    assert [p[0] for p in s.coeffs] == [0, 1, 2, 3, 4, 5]


def test_divide_t_roundtrip():
    # mul_t keeps the order, divide_t drops it by one
    s = TruncSeries.exp_linear(2, 5)
    assert s.mul_t().divide_t() == s.truncate(4)


def test_divide_t_needs_zero_constant():
    with pytest.raises(ValueError):
        TruncSeries.one(3).divide_t()


def test_egf_convention_against_explicit_sum():
    # (e^t - 1) coefficients on t^m/m! are 0, 1, 1, ...
    s = TruncSeries.exp_affine(1, -1, 4)
    assert [p[0] for p in s.coeffs] == [0, 1, 1, 1, 1]
    # square it by hand: coefficient m of (e^t-1)^2 is 2^m - 2
    sq = s * s
    assert [p[0] for p in sq.coeffs] == [2 ** m - 2 if m else 0 for m in range(5)]


@given(units, tails, units, tails)
def test_mul_commutes(u1, t1, u2, t2):
    a, b = series_from(u1, t1), series_from(u2, t2)
    assert a * b == b * a


@given(units, tails)
def test_inverse_is_two_sided(u, t):
    s = series_from(u, t)
    assert s * s.inverse() == TruncSeries.one(s.order)
    assert s.inverse() * s == TruncSeries.one(s.order)


@given(units, tails)
def test_mul_t_shifts_with_binomial_weight(u, t):
    s = series_from(u, t)
    shifted = s.mul_t()
    for m in range(1, s.order + 1):
        assert shifted[m] == m * s[m - 1]
    assert shifted[0] == QPoly.zero()


def test_binomial_weights_visible_in_product():
    # pick a = t (coeffs 0,1,0,...) and b = e^t; coeff m of a*b is C(m,1)
    a = TruncSeries((QPoly.zero(), QPoly.one(), QPoly.zero(), QPoly.zero(), QPoly.zero()))
    b = TruncSeries.exp_linear(1, 4)
    prod = a * b
    assert [p[0] for p in prod.coeffs] == [comb(m, 1) for m in range(5)]


# times_exp against the Cauchy product with e^{cqt}, which it replaces; a
# coefficient is a rational or level-5 polynomial, zero, or a bare scalar

LEVEL = 5
level_nums = st.lists(fracs, min_size=4, max_size=4)
# a coefficient is rational or in Q(zeta_5), so one series mixes both
coeff_polys = st.one_of(
    st.lists(fracs, max_size=3).map(QPoly),
    st.lists(level_nums, max_size=3).map(
        lambda rows: QPoly(tuple(CycloNum.from_coeffs(LEVEL, row) for row in rows))
    ),
)
scalars = st.one_of(
    st.integers(-5, 5),
    fracs,
    level_nums.map(lambda row: CycloNum.from_coeffs(LEVEL, row)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(coeff_polys, st.just(QPoly()), scalars), min_size=1, max_size=7), st.integers(0, 5))
@example([1, 1, 1, 1], 2)  # coefficient 3 is 1 + 3(2q) + 3(2q)^2 + (2q)^3
def test_times_exp_matches_product_with_exp_linear(coeffs, c):
    a = TruncSeries(coeffs)
    assert times_exp(coeffs, c) == (a * TruncSeries.exp_linear(QPoly((0, c)), a.order)).coeffs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(coeff_polys, st.just(QPoly()), scalars), min_size=1, max_size=7), st.integers(0, 5),
       st.integers(-3, 3))
def test_times_exp_with_t_factor_matches_scaled_mul_t(coeffs, c, f):
    # f t e^{cqt} A(t), one order past A's
    a = TruncSeries(coeffs, len(coeffs))
    assert times_exp(coeffs, c, f) == (f * (a * TruncSeries.exp_linear(QPoly((0, c)), a.order)).mul_t()).coeffs


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(2), Fraction(-1, 2), 2 + zeta_pow(3, 1)],
                         ids=["1", "2", "-1/2", "2+zeta_3"])
def test_t_over_exp_affine_times_its_denominator_is_t(lam):
    # (lam e^{st} - 1) t/(lam e^{st} - 1) = t, also at lam = 1, where the
    # builder divides t through before inverting
    for s in (1, 2, 3):
        for order in range(7):
            den = TruncSeries([lam - 1] + [lam * Fraction(s) ** k for k in range(1, order + 1)], order)
            t = TruncSeries([0, 1], order)
            assert t_over_exp_affine(lam, s, order) * den == t
