"""Appell-family polynomials by recurrence, with truncated-series oracles.

The recurrences are the production path; series_oracle_B / series_oracle_H
read the same polynomials off the generating functions by series inversion,
an independent route that tests hold equal to it.  Both recurrences solve
for the Appell numbers b_m = B_m(0), h_m = H_m(0) from the cached lower
entries and build sum_k C(m, k) h_k q^(m-k) from them in one pass (_appell).

B_m(q, lam) is the Apostol-Bernoulli polynomial, EGF t e^{qt}/(lam e^t - 1);
at lam = 1 it is the classical Bernoulli polynomial, of degree m, not m-1.
H_m^{(p)}(q, lam, gamma) is the generalized Frobenius-Euler polynomial, EGF
(1-gamma)^p e^{qt}/(lam e^t - gamma), so p is a scalar factor on H^{(0)}.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

from .cyclotomic import normalize_scalar
from .errors import InvalidPower, ParameterCollision
from .qpoly import QPoly, _build, q, sum_of_products
from .series import TruncSeries, t_over_exp_affine


def apostol_bernoulli(m: int, lam) -> QPoly:
    """B_m(q, lam); the classical Bernoulli polynomial when lam = 1."""
    if m < 0:
        raise ValueError("index m must be >= 0")
    return _bernoulli(m, normalize_scalar(lam))


@lru_cache(maxsize=1024)
def _bernoulli(m: int, lam) -> QPoly:
    b = [_bernoulli(i, lam)[0] for i in range(m)]
    if lam == 1:
        # sum_{i<=m} C(m+1, i) b_i = [m = 0]
        total = sum_of_products([(-comb(m + 1, i), b_i, 1) for i, b_i in enumerate(b)] + [(int(m == 0), 1, 1)])
        b.append(total[0] / (m + 1))
    else:
        # (lam-1) b_m = [m = 1] - lam sum_{i<m} C(m, i) b_i
        total = sum_of_products([(comb(m, i), b_i, -lam) for i, b_i in enumerate(b)] + [(int(m == 1), 1, 1)])
        b.append(total[0] / (lam - 1))
    return _appell(b)


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
    h = _frob_euler(m, lam, gamma)
    return h * (1 - gamma) ** p if p else h


@lru_cache(maxsize=4096)
def _frob_euler(m: int, lam, gamma) -> QPoly:
    if not m:
        return QPoly((1 / (lam - gamma),))
    # h_m = -lam h_0 sum_{i<m} C(m, i) h_i: a rational lam folds into the sum
    h = [_frob_euler(i, lam, gamma)[0] for i in range(m)]
    h.append(sum_of_products([(comb(m, i), h_i, -lam) for i, h_i in enumerate(h)])[0] * h[0])
    return _appell(h)


def _appell(h: list) -> QPoly:
    """sum_k C(m, k) h_k q^(m-k) from the Appell numbers h_0..h_m: the
    binomials scale the numbers' integer numerators, then one build."""
    m = len(h) - 1
    nums = QPoly(reversed(h))  # row i holds h_(m-i), over one denominator
    return _build(nums.level, [comb(m, i) * v for i, row in enumerate(nums.rows) for v in row], nums.den)


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
