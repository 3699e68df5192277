"""Exact arithmetic in Q(zeta_n), the field of n-th roots of unity.

Elements are reduced residues modulo the n-th cyclotomic polynomial, stored
as phi(n) integer numerators over one shared positive denominator.  Working
mod Phi_n (a field) rather than mod x^n - 1 (a ring with zero divisors)
keeps every nonzero element invertible, which the weighted root-of-unity
sums rely on.  The integer-vector loops go through cyclosum._kernel.

This module alone takes exact scalars apart (_scalar_parts refuses a float
or a string with TypeError), builds them back (_scalar) and decides their
level (_join_levels), for CycloNum, QPoly and root sums alike: a rational
embeds into any level, but zeta_m and zeta_n of different levels refuse
arithmetic rather than coerce.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import _kernel as _K
from .arith import divisors, euler_phi, power
from .scalars import format_rational, parse_rational


def _int_divexact(num: list[int], den: list[int]) -> list[int]:
    # long division by a monic integer polynomial; remainder must vanish
    rem = list(num)
    db = len(den) - 1
    out = [0] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if not c:
            continue
        out[top - db] = c
        for j, bv in enumerate(den):
            rem[top - db + j] -= c * bv
    if any(rem):
        raise ArithmeticError("inexact integer polynomial division")
    return out


@dataclass(frozen=True)
class CycloPolyMod:
    """The n-th cyclotomic polynomial, the reduction modulus for level n."""

    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> CycloPolyMod:
    """Phi_n(x), by exact division of x^n - 1 by Phi_d for proper d | n."""
    if n < 1:
        raise ValueError("cyclotomic level must be >= 1")
    p = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            p = _int_divexact(p, list(cyclotomic_poly(d).coeffs))
    return CycloPolyMod(n, tuple(p))


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i is x^(d+i) reduced mod Phi_n, for exponents d .. max(2d-2, d)."""
    phi = cyclotomic_poly(n)
    d = phi.degree
    first = tuple(-c for c in phi.coeffs[:d])
    rows = [first]
    for _ in range(max(d - 2, 0)):
        prev = rows[-1]
        carry = prev[d - 1]
        row = [carry * first[0]]
        for j in range(1, d):
            row.append(prev[j - 1] + carry * first[j])
        rows.append(tuple(row))
    return tuple(rows)


class CycloNum:
    """Element of Q(zeta_n): integer numerators nums over a positive den,
    fully cancelled, zero normalized to all-zero nums over 1.

    The constructor validates and normalizes whatever it is given.  Inside
    this module, results whose data is already canonical are built with the
    trusted _make, and results that only need cancelling with _cancel.
    """

    __slots__ = ("level", "nums", "den")

    def __init__(self, level: int, nums, den: int = 1):
        d = euler_phi(level)
        ns = list(nums)
        if len(ns) != d:
            raise ValueError(f"level {level} needs {d} coordinates, got {len(ns)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            ns = [-v for v in ns]
        g = _K.vec_content(ns, den)
        if g > 1:
            ns = [v // g for v in ns]
            den //= g
        self.level = level
        self.nums = tuple(ns)
        self.den = den

    @classmethod
    def of(cls, level: int, value) -> CycloNum:
        """Embed an int, a Fraction, a rational CycloNum or a same-level
        CycloNum at this level."""
        if isinstance(value, CycloNum) and value.level == level:
            return value
        lv, nums, den = _scalar_parts(value)
        if lv != 1:
            raise ValueError("cross-level cyclotomic coercion")
        return _make(level, nums + (0,) * (euler_phi(level) - 1), den)

    @classmethod
    def from_coeffs(cls, level: int, coeffs) -> CycloNum:
        """Build from phi(n) rational coordinates."""
        parts = [_scalar_parts(c) for c in coeffs]
        if any(lv != 1 for lv, _, _ in parts):
            raise TypeError("cyclotomic coordinates must be rational")
        den = lcm(*(d for _, _, d in parts))
        return cls(level, [nums[0] * (den // d) for _, nums, d in parts], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> Fraction | None:
        """The rational value when all higher coordinates vanish, else None."""
        if any(self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    # Sums take both operands to one level first (_one_level); a product
    # with a rational operand scales the other operand's numerator vector,
    # and only two irrational operands need conv + reduce_cyclo.

    def __add__(self, other):
        return _lincomb(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return _make(self.level, tuple(_K.vec_scale(self.nums, -1)), self.den)

    def __sub__(self, other):
        return _lincomb(self, other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        level, nums, den = _scalar_parts(other)
        if level == 1:
            return _scaled(self, nums[0], den)
        own, nums, den = _scalar_parts(self)
        if own == 1:
            return _scaled(other, nums[0], den)
        if own != level:
            level = _join_levels((own, level))
        nums = _K.reduce_cyclo(_K.conv(self.nums, other.nums), _reduction_rows(level), len(self.nums))
        return _cancel(level, nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.of(self.level, other)
        elif not isinstance(other, CycloNum):
            return NotImplemented
        return self * cyclo_inv(other)

    def __rtruediv__(self, other):
        return cyclo_inv(self).__mul__(other)

    def __pow__(self, k: int) -> CycloNum:
        if not isinstance(k, int):
            return NotImplemented
        base = cyclo_inv(self) if k < 0 else self
        return power(base, abs(k), CycloNum.of(self.level, 1))

    def inverse(self) -> CycloNum:
        return cyclo_inv(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            if other.level == self.level:
                return self.nums == other.nums and self.den == other.den
            a, b = self.is_rational(), other.is_rational()
            return a is not None and a == b
        if isinstance(other, (int, Fraction)):
            return self.is_rational() == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        r = self.is_rational()
        if r is not None:
            return hash(r)
        return hash((self.level, self.nums, self.den))

    def to_json(self) -> dict:
        return {"level": self.level, "coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> CycloNum:
        level, raw = obj.get("level"), obj.get("coeffs")
        if isinstance(level, bool) or not isinstance(level, int) or level < 1:
            raise ValueError(f"bad cyclotomic level: {level!r}")
        if not isinstance(raw, list):
            raise ValueError(f"cyclotomic coeffs must be a list, got {raw!r}")
        coeffs = [parse_rational(c) for c in raw]
        if len(coeffs) != euler_phi(level):
            raise ValueError(
                f"level {level} needs {euler_phi(level)} coefficients, got {len(coeffs)}"
            )
        return cls.from_coeffs(level, coeffs)

    def canonical_str(self) -> str:
        r = self.is_rational()
        if r is not None:
            return format_rational(r)
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"CycloNum({self.canonical_str()})"


# CycloNum first: isinstance against Fraction, an ABC, is the slow test
_EXACT = (CycloNum, int, Fraction)


def _scalar_parts(x) -> tuple[int, tuple[int, ...], int]:
    """(level, numerators, den) of an exact scalar; rational values,
    rational CycloNums included, at level 1."""
    if isinstance(x, CycloNum):
        if any(x.nums[1:]):
            return x.level, x.nums, x.den
        return 1, x.nums[:1], x.den
    if isinstance(x, int):
        return 1, (x,), 1
    if isinstance(x, Fraction):
        return 1, (x.numerator,), x.denominator
    raise TypeError(f"not an exact scalar: {x!r}")


def _join_levels(levels) -> int:
    """The level of an operation on scalars at `levels`, as _scalar_parts
    gives them: the one irrational level among them, or 1 when there is
    none.  Two different irrational levels refuse arithmetic."""
    level = 1
    for lv in levels:
        if lv != level and lv != 1:
            if level != 1:
                raise ValueError("cross-level cyclotomic arithmetic")
            level = lv
    return level


def _scalar(level: int, row: tuple[int, ...], den: int):
    """The scalar with numerators row over den > 0 at this level: a
    Fraction when rational, else a canonical CycloNum."""
    if level == 1 or not any(row[1:]):
        return Fraction(row[0], den)
    return _cancel(level, row, den)


def scalar_from_json(item):
    """An exact scalar from JSON: "a/b", an integer (not a boolean) or a
    {"level", "coeffs"} object.  Anything else raises ValueError."""
    if isinstance(item, str):
        return parse_rational(item)
    if isinstance(item, int) and not isinstance(item, bool):
        return Fraction(item)
    if isinstance(item, dict):
        return CycloNum.from_json(item)
    raise ValueError(f"unsupported scalar {item!r}")


def _make(level: int, nums: tuple[int, ...], den: int) -> CycloNum:
    """Trusted constructor: nums is a phi(level)-tuple over den > 0, already
    fully cancelled (zero as all-zero nums over 1).  Nothing is checked."""
    a = object.__new__(CycloNum)
    a.level = level
    a.nums = nums
    a.den = den
    return a


def _cancel(level: int, nums, den: int) -> CycloNum:
    """_make after the gcd pass, for phi(level) numerators over den > 0."""
    g = _K.vec_content(nums, den)
    if g > 1:
        return _make(level, tuple(v // g for v in nums), den // g)
    return _make(level, tuple(nums), den)


def _scaled(a: CycloNum, p: int, q: int) -> CycloNum:
    """a * p/q for p/q in lowest terms.

    As in Fraction multiplication, the common factor of p*nums and q*den is
    gcd(p, den) * gcd(nums, q), because both pairs (nums, den) and (p, q)
    are coprime; p = 0 gives gcd(p, den) = den and the canonical zero.
    """
    g = gcd(p, a.den)
    nums = a.nums
    if q > 1:
        h = _K.vec_content(nums, q)
        if h > 1:
            nums = [v // h for v in nums]
            q //= h
    return _make(a.level, tuple(_K.vec_scale(nums, p // g)), a.den // g * q)


def _one_level(a: CycloNum, b) -> tuple[CycloNum, CycloNum]:
    """a and b at one level, for b an int, a Fraction or a CycloNum: the
    level _join_levels gives them, a's own when b is rational."""
    if isinstance(b, CycloNum) and b.level == a.level:
        return a, b
    level = _scalar_parts(b)[0]
    if level == 1:
        return a, CycloNum.of(a.level, b)
    return CycloNum.of(_join_levels((_scalar_parts(a)[0], level)), a), b


def _lincomb(a: CycloNum, b, sign: int):
    """a + sign * b for an exact scalar b; NotImplemented for anything else."""
    if not isinstance(b, _EXACT):
        return NotImplemented
    a, b = _one_level(a, b)
    nums = _K.vec_lincomb(a.nums, b.nums, b.den, sign * a.den)
    return _cancel(a.level, nums, a.den * b.den)


def zeta_pow(n: int, k: int) -> CycloNum:
    """zeta_n^(k mod n) as a reduced level-n element."""
    if n < 1:
        raise ValueError("cyclotomic level must be >= 1")
    return _zeta_pow(n, k % n)


@lru_cache(maxsize=None)
def _zeta_pow(n: int, k: int) -> CycloNum:
    """zeta_pow for 0 <= k < n: at most n entries per level."""
    d = euler_phi(n)
    if k == 0:
        return CycloNum.of(n, 1)
    if k < d:
        return CycloNum(n, [0] * k + [1] + [0] * (d - k - 1))
    base = CycloNum(n, _K.reduce_cyclo([0, 1], _reduction_rows(n), d))
    return base**k


def galois_map(d: int, n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The phi(d) x phi(n) integer matrix sending zeta_d^j to zeta_n^(t*j):
    row j is zeta_pow(n, t*j).nums.

    It is a field map Q(zeta_d) -> Q(zeta_n) when zeta_n^t has order d:
    the automorphism sigma_t for d = n and gcd(t, n) = 1, and the embedding
    of level d into level n for t = n/d.
    """
    return tuple(zeta_pow(n, t * j).nums for j in range(euler_phi(d)))


def _map_nums(nums, matrix) -> list[int]:
    """The integer row vector nums times the integer matrix `matrix`."""
    out = [0] * len(matrix[0])
    for v, row in zip(nums, matrix):
        if v:
            out = _K.vec_lincomb(out, row, 1, v)
    return out


@lru_cache(maxsize=1024)
def cyclo_inv(a: CycloNum) -> CycloNum:
    """Inverse as the product of the other Galois conjugates over the norm:
    1/a = prod_{t != 1} sigma_t(a) / N(a), t over the units mod n.

    With a = A/den for the integer vector A, the product P of the sigma_t(A)
    is an integer vector and A * P is the rational integer N(A), so
    1/a = den * P / N(A) takes integer arithmetic only.
    """
    if not a:
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    n = a.level
    if not any(a.nums[1:]):
        return CycloNum.of(n, Fraction(a.den, a.nums[0]))
    phi = len(a.nums)
    rows = _reduction_rows(n)
    prod = None
    for t in range(2, n):
        if gcd(t, n) == 1:
            conj = _map_nums(a.nums, galois_map(n, n, t))
            prod = conj if prod is None else _K.reduce_cyclo(_K.conv(prod, conj), rows, phi)
    # Q(zeta_n) is totally complex for n > 2, so the norm, a product of
    # |sigma(a)|^2 over conjugate pairs, is positive
    norm = _K.reduce_cyclo(_K.conv(a.nums, prod), rows, phi)
    if any(norm[1:]) or norm[0] <= 0:
        raise ArithmeticError("Galois norm is not a positive rational")
    return _cancel(n, _K.vec_scale(prod, a.den), norm[0])


def normalize_scalar(x):
    """int -> Fraction; rational-valued CycloNum -> Fraction; else unchanged.

    Cache keys and branch tests (lambda == 1, lambda == gamma) rely on this
    collapsing every rational to one canonical type.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, CycloNum):
        r = x.is_rational()
        return r if r is not None else x
    return x


def format_scalar(x) -> str:
    """Canonical text of an exact scalar: "a/b" for any rational, else the
    CycloNum's canonical_str()."""
    x = normalize_scalar(x)
    if isinstance(x, Fraction):
        return format_rational(x)
    return x.canonical_str()

