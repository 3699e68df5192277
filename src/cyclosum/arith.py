"""Elementary arithmetic functions used throughout: divisors, totient,
Moebius, totatives, and square-and-multiply powers.  Trial division is
plenty at desk scale (n <= a few thousand)."""
from __future__ import annotations

from functools import cache
from math import gcd, isqrt


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    m = n
    p = 2
    while p <= isqrt(m):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


@cache
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, sorted increasing."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


@cache
def euler_phi(n: int) -> int:
    """Count of totatives of n."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


@cache
def moebius(n: int) -> int:
    """Moebius function: 0 on square factors, else (-1)^(number of primes)."""
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


@cache
def totatives(n: int) -> tuple[int, ...]:
    """Integers j with 1 <= j <= n and gcd(j, n) = 1."""
    return tuple(j for j in range(1, n + 1) if gcd(j, n) == 1)


def power(base, k: int, one):
    """base**k for an integer k >= 0 by square-and-multiply from `one`, the
    identity of base's arithmetic; no squaring is left unused."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out
