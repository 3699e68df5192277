"""Polynomial ring over exact scalars: arithmetic, division, formatting."""
import pickle
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add

import pytest
from hypothesis import given, strategies as st

from cyclosum.arith import euler_phi
from cyclosum.cyclotomic import CycloNum, normalize_scalar, zeta_pow
from cyclosum.errors import NotDivisible
from cyclosum.qpoly import (QPoly, _build, geometric_block, matrix_product, poly_rows, q, sum_of_products,
                            value_columns)

rationals = st.tuples(st.integers(-50, 50), st.integers(1, 12)).map(
    lambda t: Fraction(t[0], t[1])
)
polys = st.lists(rationals, max_size=6).map(lambda cs: QPoly(cs))


def test_trailing_zeros_trimmed():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()


def test_degree():
    assert QPoly.zero().degree is None
    assert QPoly.one().degree == 0
    assert QPoly((0, 0, 3)).degree == 2


def test_getitem_out_of_range():
    p = QPoly((1, 2))
    assert p[5] == 0
    assert p[0] == 1


def test_monomial():
    p = QPoly.monomial(3, Fraction(1, 2))
    assert p.coeffs == (0, 0, 0, Fraction(1, 2))


def test_scalar_mixing():
    p = q * q - q + Fraction(1, 6)
    assert p.coeffs == (Fraction(1, 6), -1, 1)
    assert 2 * p == p + p
    assert p - p == QPoly.zero()


def test_pow():
    assert (q + 1) ** 2 == q * q + 2 * q + 1
    assert (q + 1) ** 0 == QPoly.one()


def test_divexact():
    num = q ** 4 - 1
    den = q ** 2 - 1
    assert num.divexact(den) == q ** 2 + 1
    with pytest.raises(NotDivisible):
        (q ** 2 + 1).divexact(q + 1)


def test_geometric_block():
    # (q^6 - 1)/(q^2 - 1) = q^4 + q^2 + 1
    assert geometric_block(6, 2) == q ** 4 + q ** 2 + 1
    assert geometric_block(4, 4) == QPoly.one()


def test_shift():
    p = q ** 2
    assert p.shift(1) == q ** 2 + 2 * q + 1
    assert p.shift(Fraction(1, 2)) == q ** 2 + q + Fraction(1, 4)


def test_scale_arg():
    p = q ** 2 + q + 1
    assert p.scale_arg(3) == 9 * q ** 2 + 3 * q + 1


def test_eval_at():
    p = q ** 2 - q + Fraction(1, 6)
    assert p.eval_at(Fraction(1, 2)) == Fraction(-1, 12)
    assert p.eval_at(0) == Fraction(1, 6)


def test_derivative():
    p = q ** 3 + 2 * q
    assert p.derivative() == 3 * q ** 2 + 2


def test_to_str_canonical():
    assert (q ** 2 - q + Fraction(1, 6)).to_str() == "q^2 - q + 1/6"
    assert (2 * q - 4).to_str() == "2q - 4"
    assert QPoly.zero().to_str() == "0"
    assert QPoly.one().to_str() == "1"
    assert (Fraction(1, 6) * q ** 2).to_str() == "(1/6)q^2"
    assert (-q).to_str() == "-q"


def test_to_str_unicode():
    assert (q ** 2 + 1).to_str(unicode_sup=True) == "q² + 1"
    assert (q ** 12).to_str(unicode_sup=True) == "q¹²"


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys)
def test_divexact_roundtrip(a, b):
    prod = a * b
    if b.degree is not None:
        assert prod.divexact(b) == a


@given(polys, rationals)
def test_shift_matches_eval(p, c):
    # p(q+c) evaluated at 0 is p(c)
    assert p.shift(c).eval_at(0) == p.eval_at(c)


@given(polys)
def test_derivative_of_shift(p):
    # chain rule with unit inner derivative
    assert p.shift(1).derivative() == p.derivative().shift(1)


# --- the packed representation over Q(zeta_n) ---------------------------

LEVELS = (1, 3, 4, 5, 7, 8, 9, 12, 15)
small = st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda t: Fraction(*t))


def scalars(level):
    """Rational values, and at level > 1 also arbitrary (mostly irrational)
    elements of Q(zeta_level)."""
    if level == 1:
        return small
    d = euler_phi(level)
    elements = st.lists(small, min_size=d, max_size=d).map(
        lambda cs: CycloNum.from_coeffs(level, cs)
    )
    return st.one_of(small, elements)


def coeff_lists(level, max_size=4):
    return st.lists(scalars(level), max_size=max_size)


def ref_convolution(a, b):
    """Coefficients of the product, by plain scalar arithmetic."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = x * y + out[i + j]
    return out


def assert_canonical(p):
    assert p.den > 0
    assert all(len(row) == euler_phi(p.level) for row in p.rows)
    assert not p.rows or any(p.rows[-1])
    assert gcd(p.den, *(v for row in p.rows for v in row)) == 1
    rational = all(isinstance(c, Fraction) for c in p.coeffs)
    assert (p.level == 1) == rational
    if not p:
        assert (p.level, p.rows, p.den) == (1, (), 1)


def assert_same_coeffs(p, coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert len(p.coeffs) == len(coeffs)
    for got, want in zip(p.coeffs, coeffs):
        assert got == want
        assert type(got) is type(normalize_scalar(want))


level_and_two = st.sampled_from(LEVELS).flatmap(
    lambda n: st.tuples(st.just(n), coeff_lists(n), coeff_lists(n))
)


@given(level_and_two)
def test_packed_product_matches_reference(args):
    level, a, b = args
    prod = QPoly(a) * QPoly(b)
    assert_canonical(prod)
    assert_same_coeffs(prod, ref_convolution(a, b))


@given(level_and_two)
def test_packed_coeffs_round_trip(args):
    level, a, b = args
    p = QPoly(a)
    assert_canonical(p)
    assert_same_coeffs(p, a)
    assert QPoly(p.coeffs) == p
    for i in range(len(p) + 2):
        assert p[i] == (a[i] if i < len(a) else 0)


def factors(level):
    return st.one_of(coeff_lists(level).map(QPoly), scalars(level), st.integers(-3, 3))


terms_at = st.sampled_from(LEVELS).flatmap(
    lambda n: st.lists(st.tuples(small, factors(n), factors(n)), max_size=4)
)


@given(terms_at)
def test_sum_of_products_equals_separate_products(terms):
    fused = sum_of_products(terms)
    assert_canonical(fused)
    separate = reduce(add, (c * a * b for c, a, b in terms), QPoly())
    assert fused == separate
    assert hash(fused) == hash(separate)


@given(level_and_two, coeff_lists(1))
def test_equal_values_by_different_routes(args, r):
    level, a, b = args
    pa, pb, pr = QPoly(a), QPoly(b), QPoly(r)
    routes = [
        pa * (pb + pr),
        pa * pb + pa * pr,
        sum_of_products([(1, pb, pa), (1, pr, pa)]),
        (pb + pr) * pa - QPoly.zero(),
    ]
    for other in routes[1:]:
        assert other == routes[0]
        assert hash(other) == hash(routes[0])
    # a rational polynomial is the same value whether its coefficients
    # arrive as Fractions or as rational elements of a cyclotomic field
    lifted = QPoly([CycloNum.of(7, c) for c in r])
    assert lifted == pr and hash(lifted) == hash(pr) and lifted.level == 1


@given(level_and_two)
def test_vanishing_higher_columns_demote_to_level_one(args):
    level, a, _ = args
    p = QPoly(a)
    diff = (p + q) - p
    assert diff == q and diff.level == 1
    assert (p - p).level == 1 and (p - p).rows == ()


@pytest.mark.parametrize("n, m", [(3, 4), (5, 15), (8, 12), (7, 9)])
def test_two_irrational_levels_refuse(n, m):
    a = QPoly((1, zeta_pow(n, 1)))
    b = QPoly((zeta_pow(m, 1),))
    for op in (lambda: a + b, lambda: a * b, lambda: b - a, lambda: a * zeta_pow(m, 1)):
        with pytest.raises(ValueError, match="cross-level cyclotomic arithmetic"):
            op()
    with pytest.raises(ValueError, match="cross-level"):
        sum_of_products([(1, a, 1), (1, b, 1)])
    with pytest.raises(ValueError, match="cross-level"):
        QPoly((zeta_pow(n, 1), zeta_pow(m, 1)))
    # rational content still mixes with either level
    assert a * QPoly((CycloNum.of(m, 2),)) == 2 * a


@given(level_and_two, small)
def test_scale_arg_matches_reference(args, c):
    level, a, _ = args
    p = QPoly(a).scale_arg(c)
    assert_canonical(p)
    assert_same_coeffs(p, [v * c**i for i, v in enumerate(a)])


def test_scale_arg_refuses_irrational_factor():
    with pytest.raises(TypeError, match="rational"):
        (q + 1).scale_arg(zeta_pow(3, 1))
    # a rational value held as a CycloNum is accepted
    assert (q + 1).scale_arg(CycloNum.of(3, 2)) == 2 * q + 1


@given(level_and_two, small, small)
def test_scale_arg_folds_rational_factor(args, c, k):
    # k * f(c q) in one build equals the two-pass form
    level, a, _ = args
    p = QPoly(a)
    got = p.scale_arg(c, k)
    assert_canonical(got)
    assert got == k * p.scale_arg(c)
    assert p.scale_arg(c, CycloNum.of(level, k)) == got


def test_scale_arg_refuses_irrational_multiplier():
    with pytest.raises(TypeError, match="rational"):
        (q + 1).scale_arg(2, zeta_pow(3, 1))


@pytest.mark.parametrize("level", [1, 2])
def test_phi_one_levels_build_at_level_one(level):
    # Q(zeta_2) = Q: a build at level 2 is the level-1 polynomial, with the
    # same rows, equality and hash
    p = _build(level, [2, -4, 6, 0], 8)
    want = QPoly((Fraction(1, 4), Fraction(-1, 2), Fraction(3, 4)))
    assert_canonical(p)
    assert (p.level, p.rows, p.den) == (want.level, want.rows, want.den)
    assert p == want and hash(p) == hash(want)


def _horner_shift(p, c):
    """p(q + c) by Horner composition with q + c: one product per coefficient."""
    step = QPoly((c, 1))
    out = QPoly()
    for coeff in reversed(p.coeffs):
        out = sum_of_products(((1, out, step), (1, coeff, 1)))
    return out


shift_args = st.one_of(st.integers(-5, 5), small)  # integers, negatives, non-integer rationals


@given(level_and_two, shift_args)
def test_taylor_shift_matches_horner(args, c):
    level, a, _ = args
    p = QPoly(a)
    got = p.shift(c)
    assert_canonical(got)
    want = _horner_shift(p, c)
    assert got == want and hash(got) == hash(want)
    # a rational value held as a CycloNum shifts the same way
    assert p.shift(CycloNum.of(level, c)) == want


def test_shift_refuses_irrational_argument():
    for c in (zeta_pow(3, 1), zeta_pow(4, 1) + 1):
        with pytest.raises(TypeError, match="rational"):
            (q**2 + 1).shift(c)
    with pytest.raises(TypeError):
        q.shift(0.5)


@given(level_and_two)
def test_negation_is_canonical(args):
    # negating a canonical matrix keeps it canonical, so -p skips _build
    level, a, _ = args
    p = QPoly(a)
    neg = -p
    assert_canonical(neg)
    want = _build(p.level, [-v for row in p.rows for v in row], p.den)
    assert (neg.level, neg.rows, neg.den) == (want.level, want.rows, want.den)
    assert neg == want and hash(neg) == hash(want)
    assert -neg == p and hash(-neg) == hash(p)
    assert neg == QPoly([-v for v in a])


@given(level_and_two)
def test_pickle_round_trip(args):
    level, a, _ = args
    p = QPoly(a)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert (back.level, back.rows, back.den) == (p.level, p.rows, p.den)


def _layout_pairs(n):
    """(n, [(P, V), ...]): rational QPolys of mixed lengths, zero ones too,
    each with a level-n CycloNum that is zero, rational or arbitrary."""
    d = euler_phi(n)
    values = st.one_of(
        st.just(CycloNum.of(n, 0)),
        small.map(lambda c: CycloNum.of(n, c)),
        st.lists(small, min_size=d, max_size=d).map(lambda cs: CycloNum.from_coeffs(n, cs)),
    )
    pairs = st.lists(st.tuples(st.lists(small, max_size=5).map(QPoly), values), max_size=6)
    return st.tuples(st.just(n), pairs)


@given(st.integers(3, 15).flatmap(_layout_pairs))
def test_matrix_product_of_the_layouts_is_the_sum_of_products(args):
    # poly_rows pads the shorter polys with zero rows and value_columns
    # trims each column's trailing zeros; neither may change the product
    n, pairs = args
    rows = poly_rows([p for p, _ in pairs])
    got = matrix_product(n, rows, value_columns([v for _, v in pairs]))
    assert_canonical(got)
    assert got == sum_of_products([(1, p, v) for p, v in pairs])
