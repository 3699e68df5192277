"""Dense univariate polynomials in q over Q or Q(zeta_n), packed.

A QPoly stores its coefficients as one integer matrix over one denominator:
``rows[i]`` holds the phi(level) integer numerators of the coefficient of
q^i in the power basis 1, zeta, ..., zeta^(phi-1) of Q(zeta_level), and
``den`` is the positive denominator shared by every entry.  Rational
polynomials live at level 1, one numerator per row.

Canonical form, which the builder _build gives every result: no trailing
zero row; the numerators and den share no common factor; the zero
polynomial is level 1 with rows () and den 1; level == 1 exactly when every
coefficient is rational.  Equality and hashing compare (level, rows, den).

The level rule is cyclotomic._join_levels, for CycloNum, QPoly and root
sums alike: a rational operand is lifted into the other operand's level;
two different irrational levels refuse arithmetic.  Every product goes
through sum_of_products, which accumulates the unreduced row products of a
whole sum over one common denominator, reduces each row modulo Phi_level
once and cancels the matrix once.  A sum of QPolys weighted by CycloNums
that recur across many sums, such as a fixed basis weighted by a rotated
spectrum, is one matrix_product of two integer matrices built once each:
poly_rows lays out the QPolys and value_columns the CycloNums.  Single
coefficients come out through ``coeffs`` and ``[i]`` as a Fraction when
rational and a CycloNum otherwise.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul
from typing import Iterable

from . import _kernel as _K
from .arith import euler_phi
from .cyclotomic import _EXACT, CycloNum, _join_levels, _reduction_rows, _scalar, _scalar_parts
from .errors import NotDivisible
from .scalars import format_rational

_SUPERSCRIPT = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


class QPoly:
    """Polynomial in q, immutable, in canonical packed form."""

    __slots__ = ("level", "rows", "den")

    def __init__(self, coeffs: Iterable = ()):
        parts = [_scalar_parts(c) for c in coeffs]
        level = _join_levels(lv for lv, _, _ in parts)
        den = lcm(*(d for _, _, d in parts))
        lift = (0,) * (euler_phi(level) - 1)
        flat: list[int] = []
        for lv, nums, d in parts:
            f = den // d
            flat.extend(v * f for v in nums)
            if lv != level:
                flat.extend(lift)
        self.level, self.rows, self.den = _canon(level, flat, den)

    @classmethod
    def zero(cls) -> QPoly:
        return cls()

    @classmethod
    def one(cls) -> QPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c=1) -> QPoly:
        """c * q**k."""
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple:
        """Coefficients from q^0 up: Fraction when rational, else CycloNum."""
        return tuple(_scalar(self.level, row, self.den) for row in self.rows)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.rows) - 1 if self.rows else None

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int):
        if 0 <= i < len(self.rows):
            return _scalar(self.level, self.rows[i], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.rows == other.rows and self.den == other.den and self.level == other.level
        # scalar comparison: constant (or zero) polynomial only
        if len(self.rows) > 1:
            return False
        return self[0] == other

    def __hash__(self) -> int:
        return hash((self.level, self.rows, self.den))

    def __add__(self, other) -> QPoly:
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return sum_of_products(((1, self, 1), (1, other, 1)))

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        # negation keeps the level, the trailing row and the gcd: still canonical
        p = object.__new__(QPoly)
        p.level, p.den = self.level, self.den
        p.rows = tuple(tuple(-v for v in row) for row in self.rows)
        return p

    def __sub__(self, other) -> QPoly:
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return sum_of_products(((1, self, 1), (-1, other, 1)))

    def __rsub__(self, other) -> QPoly:
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return sum_of_products(((-1, self, 1), (1, other, 1)))

    def __mul__(self, other) -> QPoly:
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return sum_of_products(((1, self, other),))

    def __rmul__(self, other) -> QPoly:
        return self.__mul__(other)

    def __pow__(self, k: int) -> QPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = QPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divexact(self, other: QPoly) -> QPoly:
        """Exact quotient self / other; NotDivisible on a nonzero remainder."""
        if not isinstance(other, QPoly):
            other = QPoly((other,))
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return QPoly()
        rem = list(self.coeffs)
        div = other.coeffs
        db = len(div) - 1
        lead_inv = 1 / div[-1]
        if len(rem) - 1 < db:
            raise NotDivisible("degree of dividend is below the divisor")
        qout = [0] * (len(rem) - db)
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if not c:
                continue
            f = c * lead_inv
            qout[top - db] = f
            for j, bv in enumerate(div):
                rem[top - db + j] = rem[top - db + j] - f * bv
        if any(rem):
            raise NotDivisible("nonzero remainder in exact division")
        return QPoly(qout)

    def shift(self, c) -> QPoly:
        """f(q + c) for a rational c = a/b, in one build (a Taylor shift):
        row i of the matrix is sum_{k >= i} C(k, i) a^(k-i) b^(top-k+i) row_k
        over den * b^top.

        c may be an int, a Fraction or a rational CycloNum.  An irrational
        CycloNum raises TypeError, as in scale_arg."""
        level, nums, b = _scalar_parts(c)
        if level != 1:
            raise TypeError("shift needs a rational argument")
        a = nums[0]
        rows = self.rows
        top = len(rows) - 1
        flat: list[int] = []
        for i in range(top + 1):
            weights = [comb(k, i) * a ** (k - i) * b ** (top - k + i) for k in range(i, top + 1)]
            flat.extend(sum(map(mul, weights, col)) for col in zip(*rows[i:]))
        return _build(self.level, flat, self.den * b ** max(top, 0))

    def scale_arg(self, c, factor=1) -> QPoly:
        """factor * f(c*q) for rationals c = a/d and factor = b/e, in one
        build: row i of the matrix picks up b a^i d^(top-i) over
        den * e * d^top."""
        level, nums, d = _scalar_parts(c)
        f_level, f_nums, e = _scalar_parts(factor)
        if level != 1 or f_level != 1:
            raise TypeError("scale_arg needs a rational factor")
        a, b = nums[0], f_nums[0]
        top = len(self.rows) - 1
        flat: list[int] = []
        for i, row in enumerate(self.rows):
            f = b * a**i * d ** (top - i)
            flat.extend(v * f for v in row)
        return _build(self.level, flat, self.den * e * d ** max(top, 0))

    def eval_at(self, x):
        """Horner evaluation at a scalar."""
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = acc * x + coeff
        return acc

    def derivative(self) -> QPoly:
        flat = [i * v for i, row in enumerate(self.rows) if i for v in row]
        return _build(self.level, flat, self.den)

    def to_str(self, unicode_sup: bool = False) -> str:
        """Canonical text: terms in decreasing degree, "q^2 - q + 1/6" style."""
        if not self.rows:
            return "0"
        coeffs = self.coeffs
        parts: list[str] = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            sign, mag, fenced = _signed_parts(c)
            if k == 0:
                body = mag
            else:
                var = "q" if k == 1 else ("q" + str(k).translate(_SUPERSCRIPT) if unicode_sup else f"q^{k}")
                if mag == "1":
                    body = var
                elif fenced:
                    body = f"({mag}){var}"
                else:
                    body = f"{mag}{var}"
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(("+ " if sign == "+" else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self.to_str()!r})"


_SCALARS = (QPoly,) + _EXACT


def sum_of_products(terms) -> QPoly:
    """The sum of c * A * B over the (c, A, B) terms, as one canonical QPoly.

    c is an int or a Fraction; A and B are each a QPoly or an exact scalar
    (int, Fraction or CycloNum).  Rational factors, constant rational
    polynomials included, fold into c.  The row products of what remains
    accumulate unreduced, rows up to 2*phi-1 long, over one common
    denominator; at the end each row is reduced modulo Phi_level once with
    reduce_cyclo and the whole matrix is cancelled once.
    """
    work = []
    wide = False  # some term multiplies two irrational polynomials
    for c, a, b in terms:
        if isinstance(c, int):
            num, den = c, 1
        else:
            num, den = c.numerator, c.denominator
        polys = []
        for x in (a, b):
            f = _factor(x)
            if f.__class__ is tuple:
                num *= f[0]
                den *= f[1]
            else:
                polys.append(f)
                den *= f.den
        if num:
            work.append((num, den, polys))
            if len(polys) == 2 and polys[0].level != 1 and polys[1].level != 1:
                wide = True
    if not work:
        return QPoly()
    level = _join_levels(p.level for _, _, polys in work for p in polys)
    common = lcm(*(den for _, den, _ in work))
    phi = euler_phi(level)
    stride = 2 * phi - 1 if wide else phi
    acc = [0]
    for num, den, polys in work:
        mult = num * (common // den)
        if not polys:
            prod = [mult]
        elif len(polys) == 1:
            prod = _flat(polys[0], phi, stride)
            if mult != 1:
                prod = _K.vec_scale(prod, mult)
        else:
            fa = _flat(polys[0], phi, stride)
            fb = _flat(polys[1], phi, stride)
            if mult != 1:
                if len(fa) <= len(fb):
                    fa = _K.vec_scale(fa, mult)
                else:
                    fb = _K.vec_scale(fb, mult)
            # the kernel skips zeros of its first operand only
            if (len(fa) - fa.count(0)) * len(fb) > (len(fb) - fb.count(0)) * len(fa):
                fa, fb = fb, fa
            prod = _K.conv(fa, fb)
        if len(prod) > len(acc):
            acc, prod = prod, acc
        acc[: len(prod)] = map(add, acc, prod)
    if stride == phi:
        return _build(level, acc, common)
    rows = _reduction_rows(level)
    flat: list[int] = []
    for i in range(0, len(acc), stride):
        seg = acc[i : i + stride]
        flat.extend(_K.reduce_cyclo(seg, rows, phi) if any(seg[phi:]) else seg[:phi])
    return _build(level, flat, common)


def poly_rows(polys) -> tuple[tuple[tuple[int, ...], ...], int]:
    """QPolys side by side over one denominator, as (rows, den): row i holds
    the phi(level) numerators of q^i of each poly in turn, zeros past a
    poly's degree.  The left factor of matrix_product."""
    den = lcm(*(p.den for p in polys))
    size = max(map(len, polys), default=0)
    cols = []
    for p in polys:
        f, pad = den // p.den, [0] * (size - len(p.rows))
        cols += [[v * f for v in col] + pad for col in zip(*p.rows)] or [pad]  # the zero poly: one column
    return tuple(zip(*cols)), den


def value_columns(values) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Same-level CycloNums over one denominator, as (cols, den): column t
    holds coordinate t of each value in turn, without its trailing zeros,
    since a product skips them and a rational or vanishing run of values
    leaves whole columns empty.  The right factor of matrix_product."""
    den = lcm(*(v.den for v in values))
    cols = []
    for col in zip(*[_K.vec_scale(v.nums, den // v.den) for v in values]):
        end = len(col)
        while end and not col[end - 1]:
            end -= 1
        cols.append(col[:end])
    return tuple(cols), den


def matrix_product(level: int, left, right) -> QPoly:
    """R @ M / (den_R * den_M) as one canonical QPoly at `level`, for
    left = (R, den_R) from poly_rows and right = (M, den_M) from
    value_columns: row i of R @ M holds the numerators of q^i."""
    (rows, row_den), (cols, col_den) = left, right
    return _build(level, [sum(map(mul, row, col)) for row in rows for col in cols], row_den * col_den)


def _flat(p: QPoly, phi: int, stride: int) -> list[int]:
    """p's numerators row-major, rows `stride` apart with phi columns each
    (level-1 rows lifted), the last row not padded past phi."""
    if p.level == 1 and phi > 1:
        out = [0] * ((len(p.rows) - 1) * stride + phi)
        out[::stride] = [row[0] for row in p.rows]
        return out
    if stride == phi:
        return list(chain.from_iterable(p.rows))
    pad = (0,) * (stride - phi)
    out = list(chain.from_iterable(row + pad for row in p.rows))
    del out[-len(pad) :]
    return out


def _factor(x):
    """A product factor: (num, den) for a rational value, a QPoly otherwise."""
    if isinstance(x, QPoly):
        if x.level == 1 and len(x.rows) <= 1:
            return (x.rows[0][0] if x.rows else 0), x.den
        return x
    level, nums, den = _scalar_parts(x)
    if level == 1:
        return nums[0], den
    # a canonical CycloNum is already a canonical one-row matrix
    p = object.__new__(QPoly)
    p.level, p.rows, p.den = level, (nums,), den
    return p


def _canon(level: int, flat, den: int) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """Canonical (level, rows, den) of the row-major numerators `flat`
    (phi(level) per row) over den > 0."""
    phi = euler_phi(level)
    n = len(flat)
    while n and not flat[n - 1]:
        n -= 1
    if not n:
        return 1, (), 1
    n += -n % phi
    if n < len(flat):
        flat = flat[:n]
    g = gcd(den, *flat)
    if g > 1:
        flat = [v // g for v in flat]
        den //= g
    if phi == 1:
        # levels 1 and 2: Q(zeta_2) = Q, so the polynomial is level 1
        return 1, tuple(zip(flat)), den
    col0 = flat[::phi]
    if flat.count(0) - col0.count(0) == len(flat) - len(col0):
        # every higher column vanishes: the polynomial is rational
        return 1, tuple(zip(col0)), den
    return level, tuple(zip(*[iter(flat)] * phi)), den


def _build(level: int, flat, den: int) -> QPoly:
    """The builder of every arithmetic result: a QPoly in canonical form."""
    p = object.__new__(QPoly)
    p.level, p.rows, p.den = _canon(level, flat, den)
    return p


def _signed_parts(c) -> tuple[str, str, bool]:
    """(sign, magnitude text, needs parentheses before q^k) of a Fraction
    or an irrational CycloNum."""
    if isinstance(c, CycloNum):
        return "+", c.canonical_str(), True
    sign = "-" if c < 0 else "+"
    mag = -c if c < 0 else c
    return sign, format_rational(mag), mag.denominator != 1


q = QPoly((0, 1))


def geometric_block(n: int, d: int) -> QPoly:
    """(q^n - 1) / (q^d - 1) for d | n, built by exact division."""
    top = QPoly((-1,) + (0,) * (n - 1) + (1,))
    bot = QPoly((-1,) + (0,) * (d - 1) + (1,))
    return top.divexact(bot)
