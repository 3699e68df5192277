"""Cyclotomic field arithmetic: reduction, inversion, embeddings, JSON."""
import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cyclosum import _kernel as _K
from cyclosum.arith import euler_phi
from cyclosum.cyclotomic import (
    CycloNum,
    _map_nums,
    _reduction_rows,
    _zeta_pow,
    cyclo_inv,
    cyclotomic_poly,
    galois_map,
    normalize_scalar,
    zeta_pow,
)
from cyclosum.qpoly import QPoly, sum_of_products
from cyclosum.scalars import parse_int, parse_rational
from cyclosum.spectra import PeriodicSeq, root_sums

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
        assert cyclotomic_poly(n) == coeffs


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


# One level rule for every route: CycloNum arithmetic, QPoly construction,
# sum_of_products and root_sums all go through cyclotomic._join_levels.
RULE_LEVELS = (1, 2, 3, 4, 5, 6, 8, 12)


def _rule_scalars():
    """A rational, an element of some level (rational or not), or a
    rational-valued CycloNum of some level."""
    at_level = st.sampled_from(RULE_LEVELS).flatmap(
        lambda n: st.one_of(elements(n), small_fracs.map(lambda v: CycloNum.of(n, v)))
    )
    return st.one_of(st.integers(-9, 9), small_fracs, at_level)


def _irrational_level(x) -> int | None:
    return x.level if isinstance(x, CycloNum) and x.is_rational() is None else None


@settings(max_examples=300, deadline=None)
@given(_rule_scalars(), _rule_scalars())
def test_every_route_follows_one_level_rule(a, b):
    la, lb = _irrational_level(a), _irrational_level(b)
    n = la or lb or 1
    routes = {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: a * b,
        "QPoly": lambda: QPoly((a, b)),
        "sum_of_products": lambda: sum_of_products([(1, a, b)]),
        "root_sums": lambda: root_sums(n, [a, b], [[0, 0]]),
    }
    if la and lb and la != lb:
        for name, route in routes.items():
            with pytest.raises(ValueError, match="^cross-level cyclotomic arithmetic$"):
                route()
        return
    got = {name: route() for name, route in routes.items()}
    assert got["-"] + b == a
    assert got["QPoly"][0] == a and got["QPoly"][1] == b
    assert got["QPoly"].eval_at(1) == got["+"] == got["root_sums"][0]
    assert got["sum_of_products"][0] == got["*"] == b * a


def test_floats_and_strings_are_not_exact_scalars():
    for bad in (0.5, "1/3"):
        with pytest.raises(TypeError):
            CycloNum.of(3, bad)
        with pytest.raises(TypeError):
            CycloNum.from_coeffs(3, [bad, 0])
    with pytest.raises(TypeError):
        PeriodicSeq(3, [0.1, 0, 0])
    with pytest.raises(TypeError):
        QPoly((0.5,))
    with pytest.raises(TypeError):
        root_sums(3, [0.5], [[0]])


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


@pytest.mark.parametrize(
    "text, want",
    (
        ("7", 7), ("-3/4", Fraction(-3, 4)), ("+5", 5),
        ("6/4", Fraction(3, 2)), ("007/02", Fraction(7, 2)),
    ),
)
def test_parse_rational_accepts_ascii_literals(text, want):
    assert parse_rational(text) == want


@pytest.mark.parametrize(
    "text",
    # trailing newline, fullwidth and Arabic-Indic digits, whitespace, floats
    (
        "2\n", "1/2\n", "\uff13", "1/\u0663", " 2", "1 /2",
        "0.5", "1e3", "", "/2", "1/", "1/0", "--1",
    ),
)
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text, want", (("7", 7), ("-3", -3), ("0", 0), ("007", 7)))
def test_parse_int_accepts_ascii_digits(text, want):
    assert parse_int(text) == want


@pytest.mark.parametrize(
    "text",
    # each of these is an integer to int(), except the last five
    (
        "\u0663", "\uff13", "1_0", " 2", "2\n", "+1", "\t-1",
        "", "-", "--1", "1.0", "1/1",
    ),
)
def test_parse_int_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_int(text)


def test_canonical_str_rational_vs_not():
    assert CycloNum.of(6, Fraction(-2, 3)).canonical_str() == "-2/3"
    s = zeta_pow(6, 1).canonical_str()
    assert s.startswith("{") and '"level":6' in s.replace(" ", "")


def embed_complex(a: CycloNum) -> complex:
    """Float shadow of a under zeta_n -> e^(2 pi i / n)."""
    z = cmath.exp(2j * cmath.pi / a.level)
    return sum(v * z**j for j, v in enumerate(a.nums)) / a.den


def test_embed_complex_agrees_with_exp():
    for n in (3, 5, 8, 12):
        for k in (1, 2, n - 1):
            got = embed_complex(zeta_pow(n, k))
            want = cmath.exp(2j * cmath.pi * k / n)
            assert abs(got - want) < 1e-12


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
    x = embed_complex(a)
    y = embed_complex(a * a + a)
    assert abs(x * x + x - y) < 1e-9 * max(1.0, abs(y))


# Rational operands: products (the _scaled fast path), sums and differences
# (the rational side taken to the other side's level) with an int, a
# Fraction or a rational-valued CycloNum of any level must equal the general
# conv + reduce_cyclo route and come out canonical.  Levels cover
# phi(n) = 1, 2, 4, 6 and 8.
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


# The inverse as the product of Galois conjugates over the norm, against
# the extended Euclidean algorithm in Fraction arithmetic as the oracle.


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    rem = list(num)
    db = len(den) - 1
    quo = [Fraction(0)] * max(len(rem) - db, 0)
    inv_lead = 1 / den[-1]
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if not c:
            continue
        f = c * inv_lead
        quo[top - db] = f
        for j, bv in enumerate(den):
            rem[top - db + j] -= f * bv
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _euclid_inverse(a: CycloNum) -> CycloNum:
    """1/a from the Bezout factor s of s*a + t*Phi_n = const, over Q."""
    r0 = list(a.coeffs)
    while r0 and not r0[-1]:
        r0.pop()
    s0 = [Fraction(1)]
    r1 = [Fraction(c) for c in cyclotomic_poly(a.level)]
    s1: list[Fraction] = []
    while r1:
        quo, rem = _frac_poly_divmod(r0, r1)
        prod = [Fraction(0)] * (len(quo) + len(s1) - 1) if quo and s1 else []
        for i, qv in enumerate(quo):
            for j, sv in enumerate(s1):
                prod[i + j] += qv * sv
        s_next = [
            (s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)
            for i in range(max(len(s0), len(prod)))
        ]
        r0, s0, r1, s1 = r1, s1, rem, s_next
    assert len(r0) == 1, "gcd(a, Phi_n) is not a constant"
    d = euler_phi(a.level)
    s = (s0 + [Fraction(0)] * d)[:d]
    assert not any(s0[d:])
    return CycloNum.from_coeffs(a.level, [c / r0[0] for c in s])


inverse_levels = st.sampled_from((3, 4, 5, 7, 8, 9, 12, 15, 16, 21))


@settings(max_examples=60, deadline=None)
@given(inverse_levels.flatmap(elements))
def test_norm_inverse_matches_euclid(a):
    if a == 0:
        return
    inv = cyclo_inv(a)
    _assert_canonical(inv)
    assert inv * a == 1
    assert inv == _euclid_inverse(a)


def test_norm_inverse_high_level():
    # phi = 24 at the levels of the large benchmark grids
    for n in (35, 45):
        for a in (1 - zeta_pow(n, 1), 2 - zeta_pow(n, -4), zeta_pow(n, 7) + Fraction(1, 3) * zeta_pow(n, 2)):
            inv = cyclo_inv(a)
            assert inv * a == 1
            assert inv == _euclid_inverse(a)


def test_inverse_of_rational_element():
    for n in (1, 2, 6):
        assert cyclo_inv(CycloNum.of(n, Fraction(-3, 5))) == Fraction(-5, 3)


# galois_map(d, n, t): zeta_d^j -> zeta_n^(t*j) as an integer matrix.


def _sigma(a: CycloNum, n: int, t: int) -> CycloNum:
    return CycloNum(n, _map_nums(a.nums, galois_map(a.level, n, t)), a.den)


def _field_map(n: int):
    """(d, t) with d | n, d > 1 and zeta_n^t of order d: the automorphism
    sigma_u of level d followed by the embedding zeta_d -> zeta_n^(n/d)."""
    return st.sampled_from([d for d in range(2, n + 1) if n % d == 0]).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.sampled_from([n // d * u for u in range(1, d) if gcd(u, d) == 1]),
        )
    )


map_levels = st.sampled_from((3, 4, 5, 6, 8, 9, 12, 15))


@settings(max_examples=60, deadline=None)
@given(
    map_levels.flatmap(
        lambda n: _field_map(n).flatmap(
            lambda dt: st.tuples(st.just(n), st.just(dt), elements(dt[0]), elements(dt[0]))
        )
    )
)
def test_galois_map_is_ring_homomorphism(case):
    n, (d, t), a, b = case
    assert _sigma(a * b, n, t) == _sigma(a, n, t) * _sigma(b, n, t)
    assert _sigma(a + b, n, t) == _sigma(a, n, t) + _sigma(b, n, t)
    assert _sigma(CycloNum.of(d, 1), n, t) == 1


@settings(max_examples=60, deadline=None)
@given(
    map_levels.flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from([d for d in range(1, n + 1) if n % d == 0]),
            st.integers(0, n - 1),
            st.sampled_from([t for t in range(1, n) if gcd(t, n) == 1]),
        )
    )
)
def test_galois_maps_compose(case):
    # applying sigma_t2 after zeta_d -> zeta_n^t1 sends zeta_d to zeta_n^(t1 t2)
    n, d, t1, t2 = case
    composed = [_map_nums(row, galois_map(n, n, t2)) for row in galois_map(d, n, t1)]
    assert composed == [list(row) for row in galois_map(d, n, t1 * t2 % n)]


def test_embedding_agrees_with_zeta_pow():
    # every power of zeta_d, reduced at level d or not, lands on zeta_n^(gj)
    for n in (4, 6, 9, 12, 15, 20):
        for d in range(1, n + 1):
            if n % d:
                continue
            g = n // d
            for j in range(-d, 2 * d):
                assert _sigma(zeta_pow(d, j), n, g) == zeta_pow(n, g * j)
