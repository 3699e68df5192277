"""Differential oracle: cyclotomic and Bernoulli polynomials against sympy."""
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from cyclosum.appell import apostol_bernoulli, frobenius_euler  # noqa: E402
from cyclosum.cyclotomic import cyclotomic_poly  # noqa: E402

x = sympy.Symbol("x")


def _coeffs(expr) -> list[Fraction]:
    """Coefficients of a polynomial in x from the constant term up."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


def test_cyclotomic_poly_matches_sympy():
    for n in range(1, 201):
        assert list(cyclotomic_poly(n)) == _coeffs(sympy.cyclotomic_poly(n, x))


def test_bernoulli_polynomials_match_sympy():
    # compare polynomials: sympy's number bernoulli(1) is +1/2, but its
    # polynomial bernoulli(1, x) is x - 1/2, the B_1(q) of the lam = 1 branch
    for m in range(31):
        assert list(apostol_bernoulli(m, 1).coeffs) == _coeffs(sympy.bernoulli(m, x))


def test_frobenius_euler_at_gamma_minus_one_matches_euler_polynomials():
    # (1 - gamma)^p e^(qt)/(lam e^t - gamma) at p = 1, lam = 1, gamma = -1 is
    # 2 e^(qt)/(e^t + 1), the generating function of the Euler polynomials
    for m in range(13):
        assert list(frobenius_euler(m, 1, 1, -1).coeffs) == _coeffs(sympy.euler(m, x))


def test_apostol_bernoulli_at_minus_one_matches_euler_polynomials():
    # t e^(qt)/(-e^t - 1) = -(t/2) 2 e^(qt)/(e^t + 1), so B_m(q, -1) = -(m/2) E_(m-1)(q)
    for m in range(1, 13):
        want = _coeffs(-sympy.Rational(m, 2) * sympy.euler(m - 1, x))
        assert list(apostol_bernoulli(m, -1).coeffs) == want
