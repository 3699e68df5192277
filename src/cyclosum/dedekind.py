"""Weighted sums over the nontrivial n-th roots of unity and their
generating series, plus totative power sums.  Ramanujan sums live in
spectra, beside the weight family they build, and are exported here too.

The central object is

    e_sum(m, n, r, p, lam, C)
        = sum_{k=1}^{n-1} zeta^{-kr} H_{m-1}^{(p)}(q, lam, zeta^{-k}) C_{-k}
          / (1 - zeta^k)^p,

a polynomial in q of degree <= m-1 with coefficients in Q(zeta_n).  It is
undefined exactly when lam hits one of the zeta^{-k} (for rational lam that
means lam = -1 with n even); those parameters raise ParameterCollision.
lam = 1 is perfectly legal here.

Since (1 - zeta^{-k})^p = (-zeta^{-k})^p (1 - zeta^k)^p, the k-th term is
(-1)^p zeta^{-k(r+p)} H_{m-1}^{(0)}(q, lam, zeta^{-k}) C_{-k}: the sum sees
r and p only through s = (r + p) mod n, up to the sign (-1)^p.  For
rational lam the terms fall into Galois orbits: with d = n/gcd(k, n), the
k-th term is sigma_u of the level-d seed H_{m-1}^{(0)}(q, lam, zeta_d^{-1}),
and s rotates the orbit's weights, which for one orbit are one
spectra.root_sums table.  So _e_sum is one qpoly.matrix_product: the
seeds of every divisor d > 1 of n laid side by side by poly_rows, one
Frobenius-Euler polynomial per divisor and not one per k, cached per
(m, n, lam); and the weights rotated by s, stacked to match by
value_columns, cached per (n, s, C).  Each seed comes from
appell.frobenius_euler, which builds it from its Appell numbers, one
scalar sum per index.

g_series_oracle is the independent series route: the closed form of the
generating function whose EGF coefficient m must equal e_sum at index m+1,
e^{qt} sum_k w_k S_k with w_k = (-1)^p zeta^{-k(r+p)} C_{-k} and the scalar
series S_k = 1/(lam e^t - zeta^{-k}); series.times_exp expands the sum once.
At a rational lam S_k is sigma_u of the seed S_d at zeta_d^{-1}: one
inverse per (d, lam, T), shared by every n that d divides, each orbit
weighted by a root_sums table of its own, all orbits in one matrix_product.
An irrational lam weights the n - 1 series S_k one by one.  The oracle reads
no e_sum, _seed_matrix, _weight_matrix, _orbit_weights or Frobenius-Euler
polynomial.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .appell import frobenius_euler
from .arith import divisors, euler_phi, totatives
from .cyclotomic import CycloNum, normalize_scalar, zeta_pow
from .errors import ParameterCollision
from .qpoly import QPoly, matrix_product, poly_rows, sum_of_products, value_columns
from .series import TruncSeries, times_exp, times_exp_rows
from .spectra import PeriodicSeq, ramanujan_sum, root_sums

__all__ = ["e_sum", "g_series_oracle", "v_sum", "ramanujan_sum"]


@lru_cache(maxsize=256)
def _excluded_lambdas(n: int) -> dict:
    """{zeta_n^{-k}: k} for 1 <= k < n; CycloNum hashes agree with ==, so a
    rational lambda finds the rational root -1 too."""
    return {zeta_pow(n, -k): k for k in range(1, n)}


def _check_sum_args(n: int, lam, c_seq: PeriodicSeq):
    """Reject an n, a sequence period or a lam = zeta_n^{-k}, naming k, at
    which the sum over 1 <= k < n is undefined; return lam normalized.
    e_sum and its series oracle both call it."""
    if n < 2:
        raise ValueError("n must be >= 2 (the sum over 1 <= k < n is empty)")
    if c_seq.n != n:
        raise ValueError(f"sequence period {c_seq.n} differs from n = {n}")
    lam = normalize_scalar(lam)
    k = _excluded_lambdas(n).get(lam)
    if k is not None:
        raise ParameterCollision(
            f"lambda = zeta_{n}^(-{k}): the k={k} term of the sum divides by zero"
        )
    return lam


def check_e_sum_args(m: int, n: int, lam, c_seq: PeriodicSeq):
    """Reject the arguments e_sum is undefined at; return lam normalized."""
    if m < 1:
        raise ValueError("m must be >= 1 (the summand uses index m-1)")
    return _check_sum_args(n, lam, c_seq)


def e_sum(m: int, n: int, r: int, p: int, lam, c_seq: PeriodicSeq) -> QPoly:
    """The Dedekind-type sum as a polynomial in q over Q(zeta_n)."""
    lam = check_e_sum_args(m, n, lam, c_seq)
    poly = _e_sum(m, n, (r + p) % n, lam, c_seq)
    return -poly if p % 2 else poly


@lru_cache(maxsize=1024)
def _e_sum(m: int, n: int, s: int, lam, c_seq: PeriodicSeq) -> QPoly:
    """sum_k zeta^{-ks} H_{m-1}^{(0)}(q, lam, zeta^{-k}) C_{-k}, which is
    (-1)^p e_sum at any r, p with r + p = s mod n."""
    if not isinstance(lam, Fraction):
        # sigma_u moves an irrational lambda, so no orbit form: sum over k
        terms = []
        for k in range(1, n):
            c = c_seq[-k]
            if c:
                h = frobenius_euler(m - 1, 0, lam, zeta_pow(n, -k))
                terms.append((1, h, zeta_pow(n, -k * s) * c))
        return sum_of_products(terms)
    # The term k with d = n/gcd(k, n), g = n/d and u = k/g is sigma_u(Y_d)
    # zeta_d^{-us} C_{-gu} taken into level n by zeta_d -> zeta_n^g, where
    # Y_d = H_{m-1}^{(0)}(q, lam, zeta_d^{-1}).  With Y_d = sum_j y_j zeta_d^j,
    # the orbit of Y_d contributes sum_j y_j W_{(j-s) mod d}: one product of
    # the seeds of (m, n, lam) and the weights of (n, s, C).
    return matrix_product(n, _seed_matrix(m, n, lam), _weight_matrix(n, s, c_seq))


@lru_cache(maxsize=1024)
def _seed_matrix(m: int, n: int, lam: Fraction):
    """The seeds Y_d of the divisors d > 1 of n side by side, as poly_rows
    lays them out: row i holds the coordinates y_j, j < phi(d), of q^i in
    each Y_d in turn.  Every Y_d has degree m - 1, and its leading
    coefficient 1/(lam - zeta_d^{-1}) puts it at level d, except Y_2,
    which is rational with phi(2) = 1 coordinate."""
    return poly_rows([frobenius_euler(m - 1, 0, lam, zeta_pow(d, -1)) for d in divisors(n)[1:]])


def scaled_e_sum(m: int, n: int, s: int, lam, c_seq: PeriodicSeq) -> QPoly:
    """-m _e_sum(m, n, s, lam, C) at nq, which is (-1)^(p-1) m e_sum(m, n,
    r, p, lam, C) at nq for any r, p with r + p = s mod n.  For a lam that
    check_e_sum_args accepted and normalized.  At a rational lam this is the
    rational branch of _e_sum with the scaling folded into a cached left
    matrix, so one product per call."""
    if not isinstance(lam, Fraction):
        return _e_sum(m, n, s, lam, c_seq).scale_arg(n, -m)
    return matrix_product(n, _left_matrix(m, n, lam), _weight_matrix(n, s, c_seq))


@lru_cache(maxsize=1024)
def _left_matrix(m: int, n: int, lam: Fraction):
    """The seed matrix of (m, n, lam) with row i, the coefficient of q^i,
    scaled by -m n^i and its content divided out."""
    rows, den = _seed_matrix(m, n, lam)
    rows = [[v * (-m * n**i) for v in row] for i, row in enumerate(rows)]
    content = gcd(den, *chain.from_iterable(rows))
    return tuple(tuple(v // content for v in row) for row in rows), den // content


@lru_cache(maxsize=1024)
def _weight_matrix(n: int, s: int, c_seq: PeriodicSeq):
    """The weights W_{(j-s) mod d}, j < phi(d), of the divisors d > 1 of n
    stacked to match _seed_matrix, as value_columns lays them out.  A
    divisor whose weights all vanish gives a zero block."""
    stack = []
    for d in divisors(n)[1:]:
        weights = _orbit_weights(n, d, c_seq)
        if weights is None:
            stack += [CycloNum.of(n, 0)] * euler_phi(d)
        else:
            stack += [weights[(j - s) % d] for j in range(euler_phi(d))]
    return value_columns(stack)


@lru_cache(maxsize=1024)
def _orbit_weights(n: int, d: int, c_seq: PeriodicSeq):
    """The level-n CycloNums W_i = sum_{u in (Z/d)^*} C_{-gu} zeta_n^{gui},
    g = n/d, for i < d; None when every W_i vanishes."""
    g = n // d
    tots = totatives(d)
    ws = root_sums(n, [c_seq[-g * u] for u in tots], ([g * u * i for u in tots] for i in range(d)))
    if not any(ws):
        return None
    return tuple(CycloNum.of(n, w) for w in ws)


def g_series_oracle(n: int, r: int, p: int, lam, c_seq: PeriodicSeq, order: int) -> TruncSeries:
    """Closed form (-1)^p sum_k zeta^{-k(r+p)} C_{-k} e^{qt}/(lam e^t - zeta^{-k}),
    truncated; EGF coefficient m carries e_sum at index m+1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    lam = _check_sum_args(n, lam, c_seq)
    sign, s = (-1 if p % 2 else 1), (r + p) % n
    if not isinstance(lam, Fraction):
        # sigma_u moves an irrational lambda, so no orbit form: sum over k
        terms = []
        for k in range(1, n):
            w = zeta_pow(n, -k * s) * c_seq[-k]
            if w:
                terms.append((_oracle_term(n, k, lam, order), sign * w))
        scalars = [sum_of_products([(1, S[m], w) for S, w in terms]) for m in range(order + 1)]
        return TruncSeries(times_exp(scalars, 1), order)
    # The term k with d = n/gcd(k, n), g = n/d and u = k/g is sigma_u of the
    # seed S_d in level n: coefficient m of S_d, sum_j y_j zeta_d^j, adds
    # sum_j y_j V_j to G's, V_j = (-1)^p sum_u C_{-gu} zeta_n^{gu(j-s)}.
    seeds, weights = [], []
    for d in divisors(n)[1:]:
        g, tots = n // d, totatives(d)
        exps = ([g * u * (j - s) for u in tots] for j in range(euler_phi(d)))
        vs = root_sums(n, [sign * c_seq[-g * u] for u in tots], exps)
        if any(vs):
            seeds.append(_oracle_term(d, 1, lam, order))
            weights += [CycloNum.of(n, v) for v in vs]
    a = matrix_product(n, poly_rows(seeds), value_columns(weights))
    rows = a.rows + ((),) * (order + 1 - len(a.rows))  # zeros past a's degree
    return TruncSeries(times_exp_rows(a.level, rows, a.den, 1), order)


@lru_cache(maxsize=1024)
def _oracle_term(n: int, k: int, lam, order: int) -> QPoly:
    """The coefficients of 1/(lam e^t - zeta_n^{-k}) to t^order as one
    polynomial in t, lam normalized; a rational lam asks only for seeds, k = 1."""
    return QPoly(a[0] for a in TruncSeries.exp_affine(lam, -zeta_pow(n, -k), order).inverse().coeffs)


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
