"""Weighted sums over the nontrivial n-th roots of unity and their
generating series, plus totative power sums and Ramanujan sums.

The central object is

    e_sum(m, n, r, p, lam, C)
        = sum_{k=1}^{n-1} zeta^{-kr} H_{m-1}^{(p)}(q, lam, zeta^{-k}) C_{-k}
          / (1 - zeta^k)^p,

a polynomial in q of degree <= m-1 with coefficients in Q(zeta_n).  It is
undefined exactly when lam hits one of the zeta^{-k} (for rational lam that
means lam = -1 with n even); those parameters raise ParameterCollision.
lam = 1 is perfectly legal here.

For rational lam the terms fall into Galois orbits: with d = n/gcd(k, n),
the k-th term is sigma_u of one level-d seed, so _e_sum builds one
Frobenius-Euler polynomial per divisor d > 1 of n, not one per k.

g_series_oracle is the independent series route: the closed form of the
generating function whose EGF coefficient m must equal e_sum at index m+1.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul

from . import _kernel as _K
from .appell import frobenius_euler
from .arith import divisors, totatives
from .cyclotomic import CycloNum, _phi, normalize_scalar, zeta_pow
from .errors import ParameterCollision
from .qpoly import QPoly, _build, q, sum_of_products
from .series import TruncSeries
from .spectra import PeriodicSeq

__all__ = ["e_sum", "g_series_oracle", "v_sum", "ramanujan_sum"]


@lru_cache(maxsize=256)
def _excluded_lambdas(n: int) -> dict:
    """{zeta_n^{-k}: k} for 1 <= k < n; CycloNum hashes agree with ==, so a
    rational lambda finds the rational root -1 too."""
    return {zeta_pow(n, -k): k for k in range(1, n)}


def check_lambda_collision(n: int, lam):
    """Normalize lam and reject lam in {zeta_n^{-k} : 1 <= k < n}, naming k."""
    lam = normalize_scalar(lam)
    k = _excluded_lambdas(n).get(lam)
    if k is not None:
        raise ParameterCollision(
            f"lambda = zeta_{n}^(-{k}): the k={k} term of the sum divides by zero"
        )
    return lam


@lru_cache(maxsize=512)
def _unit_pow(n: int, k: int, e: int) -> CycloNum:
    """(1 - zeta_n^k)**e, any integer e; k != 0 mod n keeps the base nonzero."""
    return (1 - zeta_pow(n, k)) ** e


def e_sum(m: int, n: int, r: int, p: int, lam, c_seq: PeriodicSeq) -> QPoly:
    """The Dedekind-type sum as a polynomial in q over Q(zeta_n)."""
    if m < 1:
        raise ValueError("m must be >= 1 (the summand uses index m-1)")
    if n < 2:
        raise ValueError("n must be >= 2 (the sum over 1 <= k < n is empty)")
    if c_seq.n != n:
        raise ValueError(f"sequence period {c_seq.n} differs from n = {n}")
    lam = check_lambda_collision(n, lam)
    return _e_sum(m, n, r % n, p, lam, c_seq)


@lru_cache(maxsize=1024)
def _e_sum(m: int, n: int, r: int, p: int, lam, c_seq: PeriodicSeq) -> QPoly:
    if not isinstance(lam, Fraction):
        # sigma_u moves an irrational lambda, so no orbit form: sum over k
        terms = []
        for k in range(1, n):
            c = c_seq[-k]
            if c:
                h = frobenius_euler(m - 1, p, lam, zeta_pow(n, -k))
                terms.append((1, h, zeta_pow(n, -k * r) * _unit_pow(n, k, -p) * c))
        return sum_of_products(terms)
    # The term k with d = n/gcd(k, n), g = n/d and u = k/g is sigma_u(Y_d)
    # C_{-gu} taken into level n by zeta_d -> zeta_n^g.  With Y_d = sum_j
    # y_j zeta_d^j, the orbit of Y_d contributes sum_j y_j W_j, where
    # W_j = sum_u C_{-gu} zeta_n^{guj}.
    parts = []
    for d in divisors(n)[1:]:
        seed = _orbit_seed(m, d, r % d, p, lam)
        weights = _orbit_weights(n, d, seed.level, c_seq) if seed else None
        if weights is not None:
            parts.append((seed, weights[0], seed.den * weights[1]))
    if not parts:
        return QPoly()
    common = lcm(*(den for _, _, den in parts))
    acc: list[int] = []
    for seed, cols, den in parts:
        flat = [sum(map(mul, row, col)) for row in seed.rows for col in cols]
        if common != den:
            flat = _K.vec_scale(flat, common // den)
        if len(flat) > len(acc):
            acc, flat = flat, acc
        acc[: len(flat)] = map(add, acc, flat)
    return _build(n, acc, common)


@lru_cache(maxsize=4096)
def _orbit_seed(m: int, d: int, r: int, p: int, lam: Fraction) -> QPoly:
    """Y_d = zeta_d^{-r} (1 - zeta_d)^{-p} H_{m-1}^{(p)}(q, lam, zeta_d^{-1})
    for 0 <= r < d, at level d, or at level 1 when it is rational."""
    twist = zeta_pow(d, -r) * _unit_pow(d, 1, -p)
    return frobenius_euler(m - 1, p, lam, zeta_pow(d, -1)) * twist


@lru_cache(maxsize=1024)
def _orbit_weights(n: int, d: int, level: int, c_seq: PeriodicSeq):
    """The level-n weights W_j = sum_{u in (Z/d)^*} C_{-gu} zeta_n^{guj},
    g = n/d, for j < phi(level), as (cols, den): cols[l][j] / den is
    coordinate l of W_j.  None when every W_j vanishes."""
    g = n // d
    ws = []
    for j in range(_phi(level)):
        w = CycloNum.of(n, 0)
        for u in totatives(d):
            c = c_seq[-g * u]
            if c:
                w = w + c * zeta_pow(n, g * u * j)
        ws.append(w)
    if not any(ws):
        return None
    den = lcm(*(w.den for w in ws))
    return tuple(zip(*(_K.vec_scale(w.nums, den // w.den) for w in ws))), den


def g_series_oracle(n: int, r: int, p: int, lam, c_seq: PeriodicSeq, order: int) -> TruncSeries:
    """Closed form (-1)^p sum_k zeta^{-k(r+p)} C_{-k} e^{qt}/(lam e^t - zeta^{-k}),
    truncated; EGF coefficient m carries e_sum at index m+1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if c_seq.n != n:
        raise ValueError(f"sequence period {c_seq.n} differs from n = {n}")
    if order < 0:
        raise ValueError("order must be >= 0")
    lam = check_lambda_collision(n, lam)
    eq = TruncSeries.exp_linear(q, order)
    acc = TruncSeries.zero(order)
    for k in range(1, n):
        w = zeta_pow(n, -k * (r + p)) * c_seq[-k]
        if not w:
            continue
        den = TruncSeries.exp_affine(lam, -zeta_pow(n, -k), order)
        acc = acc + (den.inverse() * eq) * w
    return acc * (-1 if p % 2 else 1)


def v_sum(n: int, k: int, lam):
    """V_n^{(k)}(lam) = sum over totatives j of n of j^k lam^j."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    lam = normalize_scalar(lam)
    acc = 0
    for j in totatives(n):
        acc = j**k * lam**j + acc
    return acc


def ramanujan_sum(n: int, k: int) -> Fraction:
    """c_n(k) = sum over totatives j of zeta_n^{kj}; rational by Galois
    invariance (the totative powers permute under every automorphism)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = CycloNum.of(n, 0)
    for j in totatives(n):
        acc = acc + zeta_pow(n, k * j)
    r = acc.is_rational()
    if r is None:
        raise ArithmeticError(f"c_{n}({k}) came out irrational; reduction bug")
    return r
