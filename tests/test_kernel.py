"""The integer-vector kernels against independent references.

Each primitive is checked against the plainest formula for what it computes:
the gather form of a convolution, integer long division by the cyclotomic
polynomial, comprehensions and math.gcd.  The reduction table and the
powers of zeta_n read off it are checked against the same long division.
"""
import math
import random

from cyclosum import _kernel
from cyclosum.arith import euler_phi
from cyclosum.cyclotomic import CycloNum, _reduction_rows, _zeta_pow, cyclotomic_poly, zeta_pow


def rand_vec(rng, size, bound=10 ** 6):
    return [rng.randint(-bound, bound) for _ in range(size)]


def gather_conv(a, b):
    if not a or not b:
        return []
    return [
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]


def remainder_mod_cyclotomic(c, n):
    """c mod Phi_n by monic long division, as a vector of length phi(n)."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    rem = list(c) + [0] * max(0, d - len(c))
    for top in range(len(rem) - 1, d - 1, -1):
        q = rem[top]
        if q:
            for j, pj in enumerate(phi):
                rem[top - d + j] -= q * pj
    return rem[:d]


def test_conv_matches_gather_sum():
    rng = random.Random(2024)
    for _ in range(50):
        a = rand_vec(rng, rng.randint(0, 8))
        b = rand_vec(rng, rng.randint(0, 8))
        assert _kernel.conv(a, b) == gather_conv(a, b)


def test_conv_bigint():
    a = [10 ** 40, -(10 ** 35)]
    b = [3, 10 ** 50]
    assert _kernel.conv(a, b) == gather_conv(a, b)


def test_reduce_cyclo_matches_long_division(monkeypatch):
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 8, 12, 15):
        d = euler_phi(n)
        rows = _reduction_rows(n)
        for _ in range(20):
            c = rand_vec(rng, rng.randint(1, 2 * d - 1))
            assert _kernel.reduce_cyclo(c, rows, d) == remainder_mod_cyclotomic(c, n)

    # the table is x^e mod Phi_n for phi(n) <= e <= n + phi(n) - 2, and
    # every power of zeta_n is read off it without a field product
    def no_product(*args):
        raise AssertionError("CycloNum product")

    monkeypatch.setattr(CycloNum, "__mul__", no_product)
    monkeypatch.setattr(CycloNum, "__rmul__", no_product)
    for n in [*range(1, 65), 90, 105]:
        d = euler_phi(n)
        rows = _reduction_rows(n)
        assert len(rows) == n - 1
        for e, row in enumerate(rows, d):
            assert list(row) == remainder_mod_cyclotomic([0] * e + [1], n)
        for k in range(n):
            x_k = remainder_mod_cyclotomic([0] * k + [1], n)
            assert list(zeta_pow(n, k).nums) == x_k
            assert list(_zeta_pow.__wrapped__(n, k).nums) == x_k


def test_lincomb_scale_match_comprehensions():
    rng = random.Random(55)
    for _ in range(30):
        size = rng.randint(0, 10)
        a, b = rand_vec(rng, size), rand_vec(rng, size)
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        assert _kernel.vec_lincomb(a, b, x, y) == [x * u + y * v for u, v in zip(a, b)]
        assert _kernel.vec_scale(a, x) == [x * u for u in a]


def test_content_matches_gcd():
    cases = [
        ([6, -9, 12], 15),
        ([4, -6], 8),
        ([0, 0], 7),
        ([5], 1),
        ([], 4),
        ([10 ** 30, 10 ** 20], 10 ** 10),
    ]
    for nums, den in cases:
        assert _kernel.vec_content(nums, den) == math.gcd(den, *nums)
