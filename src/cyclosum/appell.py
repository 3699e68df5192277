"""Appell-family polynomials by recurrence, with truncated-series oracles.

The recurrences are the production path; series_oracle_B / series_oracle_H
read the same polynomials off the generating functions, an independent
route that tests hold equal to it: series.times_exp expands e^{qt} times
t/(lam e^t - 1) or the inverse of lam e^t - gamma.  Both families are
Appell sequences, B_m' = m B_{m-1} and H_m' = m H_{m-1}, so each index
reads only the cached entry below it: B_m is P = m times the integral of
B_{m-1} from 0 (_integral, one integer pass), plus the Appell number
b_m = B_m(0), which one condition at q = 1 fixes through the single
scalar P(1) (_at_one); H_m likewise.

B_m(q, lam) is the Apostol-Bernoulli polynomial, EGF t e^{qt}/(lam e^t - 1);
at lam = 1 it is the classical Bernoulli polynomial, of degree m, not m-1.
H_m^{(p)}(q, lam, gamma) is the generalized Frobenius-Euler polynomial, EGF
(1-gamma)^p e^{qt}/(lam e^t - gamma), so p is a scalar factor on H^{(0)}.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm

from .arith import euler_phi
from .cyclotomic import _scalar, normalize_scalar
from .errors import InvalidPower, ParameterCollision
from .qpoly import QPoly, _build
from .series import TruncSeries, t_over_exp_affine, times_exp


def apostol_bernoulli(m: int, lam) -> QPoly:
    """B_m(q, lam); the classical Bernoulli polynomial when lam = 1."""
    if m < 0:
        raise ValueError("index m must be >= 0")
    return _bernoulli(m, normalize_scalar(lam))


@lru_cache(maxsize=1024)
def _bernoulli(m: int, lam) -> QPoly:
    if not m:
        return QPoly((int(lam == 1),))
    p = _integral(_bernoulli(m - 1, lam), m)
    if lam == 1:
        # the integral of B_m over [0, 1] vanishes for m >= 1
        b = -_at_one(_integral(p, 1))
    else:
        # lam B_m(1) - B_m(0) = [m = 1]
        b = (int(m == 1) - lam * _at_one(p)) / (lam - 1)
    return p + b


def apostol_bernoulli_number(i: int, lam):
    """B_i(lam) := B_i(0, lam), the constant coefficient."""
    return apostol_bernoulli(i, lam)[0]


def frobenius_euler(m: int, p: int, lam, gamma) -> QPoly:
    """H_m^{(p)}(q, lam, gamma).  Needs lam != gamma; p < 0 needs gamma != 1."""
    if m < 0:
        raise ValueError("index m must be >= 0")
    lam, gamma = _check_h_args(p, lam, gamma)
    h = _frob_euler(m, lam, gamma)
    return h * (1 - gamma) ** p if p else h


def _check_h_args(p: int, lam, gamma):
    """Reject the (p, lam, gamma) where H^{(p)} is undefined, for the
    recurrence and its series oracle alike; return lam, gamma normalized."""
    lam, gamma = normalize_scalar(lam), normalize_scalar(gamma)
    if lam == gamma:
        raise ParameterCollision("lambda equals gamma: defining denominator vanishes")
    if p < 0 and gamma == 1:
        raise InvalidPower("p < 0 with gamma = 1: the (1-gamma)^p factor degenerates")
    return lam, gamma


@lru_cache(maxsize=4096)
def _frob_euler(m: int, lam, gamma) -> QPoly:
    if not m:
        return QPoly((1 / (lam - gamma),))
    # h_m = -lam h_0 sum_{i<m} C(m, i) h_i, and the sum is P(1)
    p = _integral(_frob_euler(m - 1, lam, gamma), m)
    return p + _at_one(p) * (-lam * _frob_euler(0, lam, gamma)[0])


def _integral(p: QPoly, m: int) -> QPoly:
    """m times the integral of p from 0 to q: row j of p, times m / (j + 1),
    is row j + 1, all over den * lcm(1, ..., deg p + 1)."""
    scale = lcm(*range(1, len(p.rows) + 1))
    flat = [0] * euler_phi(p.level) + [v * (m * scale // j) for j, row in enumerate(p.rows, 1) for v in row]
    return _build(p.level, flat, p.den * scale)


def _at_one(p: QPoly):
    """p(1), the sum of the coefficients, as one scalar."""
    return _scalar(p.level, [sum(col) for col in zip(*p.rows)] or [0], p.den)


def series_oracle_B(m_max: int, lam) -> list[QPoly]:
    """B_0..B_{m_max} read off the EGF t e^{qt}/(lam e^t - 1) directly."""
    return list(times_exp(t_over_exp_affine(normalize_scalar(lam), 1, m_max).coeffs, 1))


def series_oracle_H(m_max: int, p: int, lam, gamma) -> list[QPoly]:
    """H_0..H_{m_max} read off (1-gamma)^p e^{qt}/(lam e^t - gamma)."""
    lam, gamma = _check_h_args(p, lam, gamma)
    s = TruncSeries.exp_affine(lam, -gamma, m_max).inverse() * (1 - gamma) ** p
    return list(times_exp(s.coeffs, 1))
