"""Appell-family polynomials by recurrence, with truncated-series oracles.

Two independent routes to the same objects on purpose: the recurrences
below are the production path, and series_oracle_B / series_oracle_H
extract the same polynomials from the defining generating functions via
series inversion.  Tests hold the two routes equal; do not fold them into
one.

B_m(q, lam) is the Apostol-Bernoulli polynomial, EGF t e^{qt}/(lam e^t - 1),
which at lam = 1 degenerates to the classical Bernoulli branch (the lam - 1
division disappears and degrees shift from m-1 to m).  H_m^{(p)}(q, lam,
gamma) is the generalized Frobenius-Euler polynomial, EGF
(1-gamma)^p e^{qt}/(lam e^t - gamma).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .cyclotomic import normalize_scalar
from .errors import InvalidPower, ParameterCollision
from .qpoly import QPoly, q, sum_of_products
from .series import TruncSeries, t_over_exp_affine


def apostol_bernoulli(m: int, lam) -> QPoly:
    """B_m(q, lam); the classical Bernoulli polynomial when lam = 1."""
    if m < 0:
        raise ValueError("index m must be >= 0")
    return _bernoulli(m, normalize_scalar(lam))


@lru_cache(maxsize=1024)
def _bernoulli(m: int, lam) -> QPoly:
    if lam == 1:
        # sum_{i<=m} C(m+1,i) B_i(q) = (m+1) q^m, solved for B_m
        terms = [(1, QPoly.monomial(m), 1)]
        terms += [(Fraction(-comb(m + 1, i), m + 1), _bernoulli(i, lam), 1) for i in range(m)]
        return sum_of_products(terms)
    if m == 0:
        return QPoly.zero()
    # (lam-1) B_m = m q^{m-1} - lam sum_{i<m} C(m,i) B_i
    terms = [(m, QPoly.monomial(m - 1), 1)]
    terms += [(-comb(m, i), lam, _bernoulli(i, lam)) for i in range(m)]
    return sum_of_products(terms) * (1 / (lam - 1))


def apostol_bernoulli_number(i: int, lam):
    """B_i(lam) := B_i(0, lam), the constant coefficient."""
    return apostol_bernoulli(i, lam)[0]


def frobenius_euler(m: int, p: int, lam, gamma) -> QPoly:
    """H_m^{(p)}(q, lam, gamma).  Needs lam != gamma; p < 0 needs gamma != 1."""
    if m < 0:
        raise ValueError("index m must be >= 0")
    lam = normalize_scalar(lam)
    gamma = normalize_scalar(gamma)
    if lam == gamma:
        raise ParameterCollision("lambda equals gamma: defining denominator vanishes")
    if p < 0 and gamma == 1:
        raise InvalidPower("p < 0 with gamma = 1: the (1-gamma)^p factor degenerates")
    return _frob_euler(m, p, lam, gamma)


@lru_cache(maxsize=4096)
def _frob_euler(m: int, p: int, lam, gamma) -> QPoly:
    w = (1 - gamma) ** p
    inv_lg = 1 / (lam - gamma)
    if m == 0:
        return QPoly((w * inv_lg,))
    # (lam-gamma) H_m = (1-gamma)^p q^m - lam sum_{i<m} C(m,i) H_i
    terms = [(1, QPoly.monomial(m), w)]
    terms += [(-comb(m, i), lam, _frob_euler(i, p, lam, gamma)) for i in range(m)]
    return sum_of_products(terms) * inv_lg


def series_oracle_B(m_max: int, lam) -> list[QPoly]:
    """B_0..B_{m_max} read off the EGF t e^{qt}/(lam e^t - 1) directly."""
    s = t_over_exp_affine(normalize_scalar(lam), 1, m_max) * TruncSeries.exp_linear(q, m_max)
    return [s[i] for i in range(m_max + 1)]


def series_oracle_H(m_max: int, p: int, lam, gamma) -> list[QPoly]:
    """H_0..H_{m_max} read off (1-gamma)^p e^{qt}/(lam e^t - gamma)."""
    lam = normalize_scalar(lam)
    gamma = normalize_scalar(gamma)
    if lam == gamma:
        raise ParameterCollision("lambda equals gamma: defining denominator vanishes")
    if p < 0 and gamma == 1:
        raise InvalidPower("p < 0 with gamma = 1: the (1-gamma)^p factor degenerates")
    t = m_max
    w = (1 - gamma) ** p
    den = TruncSeries.exp_affine(lam, -gamma, t)
    s = (den.inverse() * TruncSeries.exp_linear(q, t)) * w
    return [s[i] for i in range(m_max + 1)]
