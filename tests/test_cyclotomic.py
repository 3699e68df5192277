"""Cyclotomic field arithmetic: reduction, inversion, embeddings, JSON."""
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cyclosum import _kernel as _K
from cyclosum.arith import euler_phi
from cyclosum.cyclotomic import (
    CycloNum,
    _reduction_rows,
    _zeta_pow,
    cyclo_inv,
    cyclotomic_poly,
    embed_complex,
    normalize_scalar,
    zeta_pow,
)

# degree-phi(n) coefficient vectors for a few interesting levels
levels = st.sampled_from((3, 4, 5, 6, 8, 12))
small_fracs = st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(
    lambda t: Fraction(t[0], t[1])
)


def elements(n):
    return st.lists(
        small_fracs, min_size=euler_phi(n), max_size=euler_phi(n)
    ).map(lambda cs: CycloNum.from_coeffs(n, cs))


PHI_TABLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_poly_table():
    for n, coeffs in PHI_TABLE.items():
        assert cyclotomic_poly(n).coeffs == coeffs


def test_product_of_cyclotomics_is_power_minus_one():
    # prod over d | n of Phi_d = x^n - 1, checked via degrees and a root count
    for n in (6, 12):
        total = sum(euler_phi(d) for d in range(1, n + 1) if n % d == 0)
        assert total == n


def test_zeta_basic_relations():
    for n in (3, 4, 5, 6, 8, 12):
        z = zeta_pow(n, 1)
        assert z ** n == CycloNum.of(n, 1)
        assert zeta_pow(n, n) == CycloNum.of(n, 1)
        assert zeta_pow(n, -1) == z ** (n - 1)
        # full orbit sums to zero
        total = sum((zeta_pow(n, k) for k in range(n)), CycloNum.of(n, 0))
        assert total == 0


def test_zeta_pow_caches_reduced_exponent():
    # callers pass -k*r, k*j and the like; equal residues share one entry
    n = 11
    before = _zeta_pow.cache_info().currsize
    for k in range(n):
        for j in range(-4, 5):
            assert zeta_pow(n, k + j * n) == zeta_pow(n, k)
    assert _zeta_pow.cache_info().currsize - before <= n


def test_rational_recognition():
    assert CycloNum.of(6, Fraction(3, 7)).is_rational() == Fraction(3, 7)
    assert zeta_pow(6, 1).is_rational() is None
    # zeta_4^2 = -1 is rational even though built from an irrational power
    assert zeta_pow(4, 2) == -1
    assert normalize_scalar(zeta_pow(4, 2)) == Fraction(-1)


def test_cross_level_guard():
    a = zeta_pow(3, 1)
    b = zeta_pow(4, 1)
    with pytest.raises(ValueError, match="cross-level"):
        a + b
    # rational content crosses levels freely
    assert CycloNum.of(3, 2) + CycloNum.of(4, 3) == 5


def test_inverse_known_value():
    # 1/(1 - zeta_4) = (1 + zeta_4)/2
    z = zeta_pow(4, 1)
    inv = (1 - z).inverse()
    assert inv == (1 + z) / 2
    assert inv * (1 - z) == 1


def test_cyclo_inv_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        cyclo_inv(CycloNum.of(4, 0))


def test_pow_negative():
    z = zeta_pow(8, 3)
    assert z ** -2 == (z ** 2).inverse()
    assert z ** 0 == 1


def test_json_roundtrip():
    a = zeta_pow(12, 5) / 3 - Fraction(1, 2)
    again = CycloNum.from_json(a.to_json())
    assert again == a
    obj = a.to_json()
    assert obj["level"] == 12
    assert len(obj["coeffs"]) == euler_phi(12)


def test_json_rejects_wrong_arity():
    with pytest.raises(ValueError):
        CycloNum.from_json({"level": 4, "coeffs": ["1", "2", "3"]})


def test_canonical_str_rational_vs_not():
    assert CycloNum.of(6, Fraction(-2, 3)).canonical_str() == "-2/3"
    s = zeta_pow(6, 1).canonical_str()
    assert s.startswith("{") and '"level":6' in s.replace(" ", "")


def test_embed_complex_agrees_with_exp():
    for n in (3, 5, 8, 12):
        for k in (1, 2, n - 1):
            got = embed_complex(zeta_pow(n, k))
            want = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            assert abs(complex(got) - complex(want)) < 1e-12


def test_embed_precision_floor():
    with pytest.raises(ValueError):
        embed_complex(zeta_pow(4, 1), precision=10)


def test_hash_matches_rational_equality():
    a = CycloNum.of(8, Fraction(5, 3))
    assert hash(a) == hash(Fraction(5, 3))
    assert a == Fraction(5, 3)


@settings(max_examples=40)
@given(levels.flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == 0


@settings(max_examples=40)
@given(levels.flatmap(lambda n: st.tuples(elements(n), elements(n))))
def test_field_inverse(pair):
    a, _ = pair
    if a == 0:
        return
    assert a * a.inverse() == 1
    assert (a.inverse()).inverse() == a


@settings(max_examples=30)
@given(levels.flatmap(elements))
def test_galois_norm_style_embed(a):
    # the exact value and its float shadow agree under + and *
    x = complex(embed_complex(a))
    y = complex(embed_complex(a * a + a))
    assert abs(x * x + x - y) < 1e-9 * max(1.0, abs(y))


# Rational fast paths: products, sums and differences with an int, a Fraction
# or a rational-valued CycloNum must equal the general conv + reduce_cyclo
# route and come out canonical.  Levels cover phi(n) = 1, 2, 4, 6 and 8.
fast_path_levels = st.sampled_from((1, 2, 3, 4, 5, 7, 8, 9, 12, 15))


def _as_level(x, n: int) -> CycloNum:
    """x at level n through the validating constructor only."""
    if isinstance(x, CycloNum):
        if x.level == n:
            return CycloNum(n, x.nums, x.den)
        x = x.is_rational()
    x = Fraction(x)
    return CycloNum(n, [x.numerator] + [0] * (euler_phi(n) - 1), x.denominator)


def _general(op: str, x, y, n: int) -> CycloNum:
    a, b = _as_level(x, n), _as_level(y, n)
    if op == "*":
        prod = _K.conv(a.nums, b.nums)
        nums = _K.reduce_cyclo(prod, _reduction_rows(n), euler_phi(n))
    else:
        sign = 1 if op == "+" else -1
        nums = [u * b.den + sign * v * a.den for u, v in zip(a.nums, b.nums)]
    return CycloNum(n, nums, a.den * b.den)


def _assert_canonical(c: CycloNum) -> None:
    assert isinstance(c.nums, tuple) and len(c.nums) == euler_phi(c.level)
    assert all(type(v) is int for v in c.nums) and type(c.den) is int
    assert c.den > 0
    assert gcd(c.den, *c.nums) == 1
    if not any(c.nums):
        assert c.den == 1
    r = c.is_rational()
    if r is not None:
        assert hash(c) == hash(r)


def _rational_operands(n: int):
    value = st.one_of(st.just(Fraction(0)), small_fracs, st.integers(-20, 20).map(Fraction))
    return value.flatmap(
        lambda v: st.sampled_from(
            (
                v.numerator if v.denominator == 1 else v,
                v,
                CycloNum.of(n, v),
                CycloNum.of(1, v),
            )
        )
    )


def _element_or_zero(n: int):
    return st.one_of(st.just(CycloNum.of(n, 0)), elements(n))


@settings(max_examples=200, deadline=None)
@given(
    fast_path_levels.flatmap(
        lambda n: st.tuples(st.just(n), _element_or_zero(n), _rational_operands(n))
    ),
    st.sampled_from("*+-"),
    st.booleans(),
)
def test_rational_fast_paths_match_general_route(case, op, rational_first):
    n, a, r = case
    x, y = (r, a) if rational_first else (a, r)
    if op == "*":
        got = x * y
    elif op == "+":
        got = x + y
    else:
        got = x - y
    assert isinstance(got, CycloNum)
    _assert_canonical(got)
    expected = _general(op, x, y, n)
    assert got == expected
    if got.level == n:
        assert (got.nums, got.den) == (expected.nums, expected.den)


@settings(max_examples=60, deadline=None)
@given(fast_path_levels.flatmap(lambda n: st.tuples(elements(n), elements(n))))
def test_general_products_and_sums_stay_canonical(pair):
    a, b = pair
    n = a.level
    for op, got in (("*", a * b), ("+", a + b), ("-", a - b)):
        _assert_canonical(got)
        assert got == _general(op, a, b, n)
    _assert_canonical(-a)
    assert -a == _general("-", 0, a, n)
