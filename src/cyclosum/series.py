"""Truncated exponential generating functions with polynomial coefficients.

A TruncSeries of order T stores, for each m <= T, the full value multiplying
t^m/m!.  Coefficients are QPoly values in q (plain scalars are wrapped on
the way in), so generating functions like e^{qt}/(lam*e^t - 1) stay exact
and polynomial-valued.  The Cauchy product therefore carries binomial
weights, and multiplying by t shifts with a factor of m.  weighted_sum
builds a scalar-weighted sum of series with one sum_of_products per
coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NotAUnit
from .qpoly import QPoly, sum_of_products


def _as_poly(v) -> QPoly:
    return v if isinstance(v, QPoly) else QPoly((v,))


class TruncSeries:
    """EGF truncated at a fixed order; immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        cs = [_as_poly(v) for v in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty series needs an explicit order")
            order = len(cs) - 1
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(QPoly())
        self.order = order
        self.coeffs: tuple[QPoly, ...] = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> TruncSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls((QPoly.one(),), order)

    @classmethod
    def exp_linear(cls, c, order: int) -> TruncSeries:
        """e^{c t}: coefficient m is c**m.  c may be a scalar or a QPoly."""
        base = _as_poly(c)
        out = [QPoly.one()]
        for _ in range(order):
            out.append(out[-1] * base)
        return cls(out, order)

    @classmethod
    def exp_affine(cls, lam, const, order: int) -> TruncSeries:
        """lam * e^t + const."""
        first = _as_poly(lam) + _as_poly(const)
        return cls([first] + [_as_poly(lam)] * order, order)

    def __getitem__(self, m: int) -> QPoly:
        return self.coeffs[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("TruncSeries", self.order, self.coeffs))

    def __add__(self, other: TruncSeries) -> TruncSeries:
        t = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[m] + other.coeffs[m] for m in range(t + 1)], t
        )

    def __neg__(self) -> TruncSeries:
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            w = other
            return TruncSeries([c * w for c in self.coeffs], self.order)
        t = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [
            sum_of_products([(comb(m, i), a[i], b[m - i]) for i in range(m + 1)])
            for m in range(t + 1)
        ]
        return TruncSeries(out, t)

    def __rmul__(self, other) -> TruncSeries:
        return self.__mul__(other)

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse; the constant term must be a nonzero scalar."""
        a0 = self.coeffs[0]
        if a0.degree != 0:
            raise NotAUnit("series constant term is zero or not a scalar")
        b0 = 1 / a0.coeffs[0]
        out = [QPoly((b0,))]
        # b_m = -b0 * sum_{1<=i<=m} C(m,i) a_i b_{m-i}; fold -b0 into the a_i once
        a = [None] + [c * -b0 for c in self.coeffs[1:]]
        for m in range(1, self.order + 1):
            out.append(sum_of_products([(comb(m, i), a[i], out[m - i]) for i in range(1, m + 1)]))
        return TruncSeries(out, self.order)

    def mul_t(self) -> TruncSeries:
        """t * A(t): coefficient m becomes m * a_{m-1}; order is preserved."""
        out = [QPoly()]
        for m in range(1, self.order + 1):
            out.append(m * self.coeffs[m - 1])
        return TruncSeries(out, self.order)

    def divide_t(self) -> TruncSeries:
        """A(t)/t for a series with zero constant term; order drops by one."""
        if self.coeffs[0]:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide by t: order 0")
        out = [self.coeffs[m + 1] * Fraction(1, m + 1) for m in range(self.order)]
        return TruncSeries(out, self.order - 1)

    def truncate(self, t: int) -> TruncSeries:
        if t > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: t + 1], t)

    def __repr__(self) -> str:
        inner = ", ".join(c.to_str() for c in self.coeffs)
        return f"TruncSeries[{self.order}]({inner})"


def weighted_sum(terms, order: int) -> TruncSeries:
    """The sum of w * S over the (S, w) terms, truncated at `order`.

    Each S is a TruncSeries of order at least `order` and each w an exact
    scalar; coefficient m is one sum_of_products over the terms.  No terms
    give the zero series of that order.
    """
    terms = tuple(terms)
    return TruncSeries(
        [sum_of_products([(1, s.coeffs[m], w) for s, w in terms]) for m in range(order + 1)],
        order,
    )


def t_over_exp_affine(lam, s: int, order: int) -> TruncSeries:
    """t / (lam e^{st} - 1), truncated; lam normalized.  For lam = 1 the
    constant term of the denominator vanishes, so divide t through before
    inverting."""
    if lam == 1:
        den = TruncSeries([Fraction(s ** (k + 1), k + 1) for k in range(order + 1)], order)
        return den.inverse()
    den = TruncSeries([lam - 1] + [lam * Fraction(s) ** k for k in range(1, order + 1)], order)
    return den.inverse().mul_t()
