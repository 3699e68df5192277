"""Dedekind-type sums, totative power sums, Ramanujan sums."""
import importlib
import pkgutil
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cyclosum
from cyclosum import dedekind
from cyclosum.arith import divisors, euler_phi, moebius, totatives
from cyclosum.appell import apostol_bernoulli, frobenius_euler
from cyclosum.cyclotomic import CycloNum, zeta_pow
from cyclosum.dedekind import (
    _e_sum,
    _oracle_term,
    _orbit_weights,
    _seed_matrix,
    _weight_matrix,
    e_sum,
    g_series_oracle,
    ramanujan_sum,
    v_sum,
)
from cyclosum.errors import ParameterCollision
from cyclosum.qpoly import QPoly, q, sum_of_products
from cyclosum.series import TruncSeries
from cyclosum.spectra import PeriodicSeq, family
from cyclosum.verify import (
    DEFAULT_SEED, default_grid, random_sequence, run_grid,
)


def _literal_e_sum(m, n, r, p, lam, c_seq):
    """The defining sum over k = 1..n-1, one Frobenius-Euler polynomial per k."""
    terms = []
    for k in range(1, n):
        if c_seq[-k]:
            weight = zeta_pow(n, -k * r) * (1 - zeta_pow(n, k)) ** -p * c_seq[-k]
            terms.append((1, frobenius_euler(m - 1, p, lam, zeta_pow(n, -k)), weight))
    return sum_of_products(terms)


def test_e_sum_hand_value():
    # single term at n=2: C_1 H_0^{(1)}(q,2,-1)/(1-(-1)) = 1 * (2/3) / 2
    c = PeriodicSeq(2, (Fraction(0), Fraction(1)))
    poly = e_sum(1, 2, 0, 1, 2, c)
    assert poly.level == 1
    assert poly == QPoly((Fraction(1, 3),))


def test_e_sum_delta_vanishes():
    for n in (2, 3, 5):
        for m in (1, 2, 4):
            assert e_sum(m, n, 1, 1, 2, family("delta", n)) == QPoly.zero()


def test_e_sum_degree_bound():
    c = family("ramanujan", 5)
    for m in (1, 2, 3, 5):
        poly = e_sum(m, 5, 0, 1, 3, c)
        assert poly.degree is None or poly.degree <= m - 1


def test_e_sum_collision_names_the_term():
    c = family("ramanujan", 4)
    with pytest.raises(ParameterCollision, match="k=2"):
        e_sum(2, 4, 0, 1, -1, c)
    # odd n never collides for rational lambda
    assert e_sum(2, 3, 0, 1, -1, family("ramanujan", 3)) is not None
    for n in range(2, 13):
        c = family("delta", n)
        for k in range(1, n):
            with pytest.raises(ParameterCollision, match=f"k={k} term"):
                e_sum(1, n, 0, 1, zeta_pow(n, -k), c)
        if n % 2 == 0:
            with pytest.raises(ParameterCollision, match=f"k={n // 2} term"):
                e_sum(1, n, 0, 1, -1, c)
        else:
            e_sum(1, n, 0, 1, -1, c)
        for lam in (1, 2, Fraction(-1, 2)):
            e_sum(1, n, 0, 1, lam, c)


def test_e_sum_validates_shape():
    c = family("ramanujan", 4)
    with pytest.raises(ValueError):
        e_sum(0, 4, 0, 1, 2, c)
    with pytest.raises(ValueError):
        e_sum(1, 5, 0, 1, 2, c)  # period mismatch


@pytest.mark.parametrize("n, period, lam, error, message", [
    (1, 2, 2, ValueError, "n must be >= 2"),
    (4, 3, 2, ValueError, "sequence period 3 differs from n = 4"),
    (4, 4, -1, ParameterCollision, r"lambda = zeta_4\^\(-2\)"),
    (3, 3, zeta_pow(3, 1), ParameterCollision, r"lambda = zeta_3\^\(-2\)"),
])
def test_e_sum_and_its_series_oracle_reject_the_same_arguments(n, period, lam, error, message):
    c = family("ramanujan", period)
    with pytest.raises(error, match=message) as from_sum:
        e_sum(2, n, 0, 1, lam, c)
    with pytest.raises(error) as from_series:
        g_series_oracle(n, 0, 1, lam, c, 3)
    assert str(from_series.value) == str(from_sum.value)
    # a negative order is refused before the other arguments are read
    with pytest.raises(ValueError, match="order must be >= 0"):
        g_series_oracle(n, 0, 1, lam, c, -1)


def test_e_sum_lambda_one_is_legal():
    # H_0^{(1)}(q, 1, zeta^{-k}) = 1 and C_{-k} (1 - zeta^k)^{-1} = (1 - i^k)^{-2},
    # so the sum over k = 1, 2, 3 is i/2 + 1/4 - i/2
    poly = e_sum(1, 4, 0, 1, 1, family("fourier-dedekind", 4, a=1))
    assert poly.level == 1
    assert poly == QPoly((Fraction(1, 4),))


def test_e_sum_shift_r_by_period():
    c = family("ramanujan", 6)
    assert e_sum(3, 6, 1, 1, 2, c) == e_sum(3, 6, 7, 1, 2, c)


def test_v_sum_frozen_values():
    assert v_sum(6, 0, 2) == 34  # 2^1 + 2^5
    assert v_sum(6, 1, 1) == 6  # 1 + 5
    assert v_sum(4, 2, Fraction(1, 2)) == Fraction(1, 2) + 9 * Fraction(1, 8)


def test_v_sum_totient_facts():
    for n in range(2, 21):
        assert v_sum(n, 0, 1) == euler_phi(n)
        assert v_sum(n, 1, 1) == Fraction(n * euler_phi(n), 2)


def test_v_sum_guards():
    with pytest.raises(ValueError):
        v_sum(1, 0, 2)
    with pytest.raises(ValueError):
        v_sum(4, -1, 2)


def test_ramanujan_frozen_row():
    assert [ramanujan_sum(6, k) for k in range(6)] == [2, 1, -1, -2, -1, 1]


def test_ramanujan_is_rational_fraction():
    val = ramanujan_sum(12, 5)
    assert isinstance(val, Fraction)


def test_ramanujan_totient_and_moebius_columns():
    for n in range(1, 21):
        assert ramanujan_sum(n, 0) == euler_phi(n)
        assert ramanujan_sum(n, 1) == moebius(n)


def test_ramanujan_hoelder():
    # c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(k, n)
    for n in range(1, 21):
        for k in range(n):
            g = gcd(k, n) if k else n
            want = Fraction(moebius(n // g) * euler_phi(n), euler_phi(n // g))
            assert ramanujan_sum(n, k) == want


def test_g_series_coefficients_are_e_sums():
    n, r, p, lam = 4, 1, 1, 2
    c = family("ramanujan", n)
    series = g_series_oracle(n, r, p, lam, c, order=5)
    for m in range(6):
        assert series[m] == e_sum(m + 1, n, r, p, lam, c)


def test_g_series_respects_collision():
    with pytest.raises(ParameterCollision):
        g_series_oracle(4, 0, 1, -1, family("ramanujan", 4), order=3)


def test_e_sum_rational_when_weights_are_galois_stable():
    # Fourier-Dedekind weights with rational lambda give rational coefficients
    for n in (3, 4, 5, 6):
        poly = e_sum(2, n, 1, 1, 2, family("fourier-dedekind", n, a=1))
        assert poly.level == 1
        assert all(isinstance(c, Fraction) for c in poly.coeffs)


# Classical Dedekind sums s(a, n) = sum_{j=1}^{n-1} ((j/n)) ((aj/n)), with the
# sawtooth ((x)) = x - floor(x) - 1/2 (0 at integers), over Q alone.

def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)


def _sawtooth_dedekind_sum(a, n):
    return sum((_sawtooth(Fraction(j, n)) * _sawtooth(Fraction(a * j, n)) for j in range(1, n)), Fraction(0))


def _dedekind_sum_from_e_sum(a, n):
    return Fraction(n - 1, 4 * n) - e_sum(1, n, 0, 1, 1, family("fourier-dedekind", n, a=a))[0] / n


def test_classical_dedekind_sums_come_from_e_sum():
    pairs = [(a, n) for n in range(2, 20) for a in range(1, n) if gcd(a, n) == 1]
    assert len(pairs) == 119
    for a, n in pairs:
        assert _dedekind_sum_from_e_sum(a, n) == _sawtooth_dedekind_sum(a, n), (a, n)


def test_dedekind_reciprocity_through_e_sum():
    pairs = [(a, b) for a in range(2, 12) for b in range(2, 12) if gcd(a, b) == 1]
    assert len(pairs) == 62
    for a, b in pairs:
        total = _dedekind_sum_from_e_sum(a, b) + _dedekind_sum_from_e_sum(b, a)
        assert total == Fraction(a * a + b * b + 1, 12 * a * b) - Fraction(1, 4), (a, b)


# Apostol-type sums at odd m: with Bbar_m(x) = B_m(x - floor(x)) the periodic
# Bernoulli function,
#   e_sum(m, n, 0, 1, 1, F_a)(0)
#     = -+ (n^m / m) sum_{j=1}^{n-1} ((j/n)) Bbar_m(aj/n) + [m = 1] (n - 1)/4,
# minus for fourier-dedekind and plus for apostol-dedekind weights.

def _sawtooth_apostol_sum(m, a, n):
    bernoulli = apostol_bernoulli(m, 1)
    total = Fraction(0)
    for j in range(1, n):
        x = Fraction(a * j, n)
        total += _sawtooth(Fraction(j, n)) * bernoulli.eval_at(x - floor(x))
    return total


def test_apostol_sums_at_odd_m_come_from_e_sum():
    cases = [(m, a, n) for m in (1, 3, 5) for n in range(2, 13) for a in range(1, n) if gcd(a, n) == 1]
    assert len(cases) == 135
    for m, a, n in cases:
        oracle = Fraction(n**m, m) * _sawtooth_apostol_sum(m, a, n)
        extra = Fraction(n - 1, 4) if m == 1 else 0
        for name, sign in (("fourier-dedekind", -1), ("apostol-dedekind", 1)):
            value = e_sum(m, n, 0, 1, 1, family(name, n, a=a))[0]
            assert value == sign * oracle + extra, (name, m, a, n)


# The only caches allowed to grow without limit: each holds a bounded number
# of entries per level or per integer, not one per caller-supplied value.
UNBOUNDED_CACHES = {
    "cyclosum.cyclotomic.cyclotomic_poly": "one polynomial per level",
    "cyclosum.cyclotomic._reduction_rows": "one reduction table per level",
    "cyclosum.cyclotomic._zeta_pow": "at most n powers per level n",
    "cyclosum.arith.divisors": "one tuple per integer",
    "cyclosum.arith.euler_phi": "one integer per integer",
    "cyclosum.arith.moebius": "one integer per integer",
    "cyclosum.arith.totatives": "one tuple per integer",
}


# Every other cache, with its key: bounded, because the key holds values a
# caller supplies, so grids larger than the default ones must not grow them
# without limit.  A new cache is added here with its key.
BOUNDED_CACHES = {
    "cyclosum.appell._bernoulli": "(m, lambda)",
    "cyclosum.appell._frob_euler": "(m, lambda, gamma)",
    "cyclosum.cyclotomic.cyclo_inv": "the element",
    "cyclosum.dedekind._excluded_lambdas": "n",
    "cyclosum.dedekind._e_sum": "(m, n, (r + p) mod n, lambda, C)",
    "cyclosum.dedekind._orbit_weights": "(n, d, C)",
    "cyclosum.dedekind._seed_matrix": "(m, n, lambda)",
    "cyclosum.dedekind._left_matrix": "(m, n, lambda)",
    "cyclosum.dedekind._weight_matrix": "(n, (r + p) mod n, C)",
    "cyclosum.dedekind._oracle_term": "(d, 1, lambda, T) at a rational lambda, else (n, k, lambda, T)",
    "cyclosum.spectra.dft_inverse": "C",
    "cyclosum.spectra._lagrange_columns": "n",
    "cyclosum.series.t_over_exp_affine": "(lambda, s, T)",
    "cyclosum.verify._basis_matrix": "(m, n, lambda)",
    "cyclosum.verify._spectrum_matrix": "(C, K, (r + p - 1) mod n)",
    "cyclosum.verify._gseries_bases": "(n, lambda, T)",
}


def _package_caches() -> dict:
    """Every lru_cache wrapper defined at the top level of a cyclosum module."""
    found = {}
    for info in pkgutil.walk_packages(cyclosum.__path__, "cyclosum."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == info.name:
                found[f"{info.name}.{name}"] = obj
    return found


def test_value_keyed_caches_are_bounded():
    caches = _package_caches()
    assert set(caches) == set(UNBOUNDED_CACHES) | set(BOUNDED_CACHES)
    assert len(caches) == 23
    unbounded = {name for name, fn in caches.items() if fn.cache_info().maxsize is None}
    assert unbounded == set(UNBOUNDED_CACHES)


# The orbit form of _e_sum (one seed per divisor of n) against the literal sum.

small_fracs = st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(lambda t: Fraction(*t))
rational_lambdas = st.sampled_from(
    (Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(3))
)


def _sequences(n):
    rational = st.lists(small_fracs, min_size=n, max_size=n).map(lambda vs: PeriodicSeq(n, vs))
    dedekind = st.tuples(
        st.sampled_from(("fourier-dedekind", "apostol-dedekind")),
        st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1]),
    ).map(lambda t: family(t[0], n, a=t[1]))
    return st.one_of(rational, dedekind)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 15).flatmap(
        lambda n: st.tuples(
            st.integers(1, 5), st.just(n), st.integers(-2, n + 2), st.integers(-1, 2),
            rational_lambdas, _sequences(n),
        )
    )
)
def test_orbit_e_sum_matches_literal_sum(case):
    m, n, r, p, lam, c = case
    assume(not (lam == -1 and n % 2 == 0))
    got = e_sum(m, n, r, p, lam, c)
    assert got == _literal_e_sum(m, n, r, p, lam, c)
    assert (got.level == 1) == all(isinstance(v, Fraction) for v in got.coeffs)


def _assert_orbit_weights_match_literal_weights(c_seq):
    # W_i = sum_{u in (Z/d)^*} C_{-gu} zeta_n^{gui}, g = n/d, as a running sum
    n = c_seq.n
    for d in divisors(n)[1:]:
        g = n // d
        literal = []
        for i in range(d):
            w = CycloNum.of(n, 0)
            for u in totatives(d):
                w = w + c_seq[-g * u] * zeta_pow(n, g * u * i)
            literal.append(w)
        assert list(_orbit_weights(n, d, c_seq)) == literal


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 15).flatmap(_sequences))
def test_orbit_weights_match_literal_weights(c_seq):
    _assert_orbit_weights_match_literal_weights(c_seq)


# n - 1 > 2 phi(n) - 2 at n = 30 and 42; n = 35 and 45 are the benchmark's
# high levels
high_and_wide_levels = pytest.mark.parametrize(
    "n, c_seq",
    (
        (30, lambda: random_sequence(30, DEFAULT_SEED, 1)),
        (42, lambda: family("fourier-dedekind", 42, a=5)),
        (35, lambda: family("ramanujan", 35)),
        (45, lambda: family("apostol-dedekind", 45, a=2)),
    ),
    ids=("30-random", "42-fourier-dedekind", "35-ramanujan", "45-apostol-dedekind"),
)


@high_and_wide_levels
def test_orbit_weights_at_high_and_wide_levels(n, c_seq):
    _assert_orbit_weights_match_literal_weights(c_seq())


@high_and_wide_levels
def test_e_sum_at_high_and_wide_levels(n, c_seq):
    c = c_seq()
    for m in (1, 2, 3):
        for lam in (Fraction(2), Fraction(-1, 3)):
            for r in (0, 1, n // 2, n - 1):
                assert e_sum(m, n, r, 0, lam, c) == _literal_e_sum(m, n, r, 0, lam, c), (m, lam, r)


@pytest.mark.parametrize("n", (3, 4, 6, 12))
@pytest.mark.parametrize(
    "lam, c_name",
    # lam = 0 makes the seed -zeta_d q^(m-1): one nonzero coordinate, which
    # the shift rotates through every weight
    ((Fraction(2), "ramanujan"), (Fraction(0), "apostol-dedekind")),
    ids=("lambda2-ramanujan", "lambda0-apostol-dedekind"),
)
def test_e_sum_is_built_once_per_shift(n, lam, c_name):
    ms = (1, 3)
    seqs = (family(c_name, n, a=1), random_sequence(n, DEFAULT_SEED, 1))
    for cache in (_e_sum, _seed_matrix, _weight_matrix):
        cache.cache_clear()
    for m in ms:
        for c in seqs:
            for r in range(n + 2):
                for p in range(-1, 3):
                    assert e_sum(m, n, r, p, lam, c) == _literal_e_sum(m, n, r, p, lam, c)
    # r + p runs through every residue mod n; each key (m, n, s, lam, C) is
    # built once, from one seed matrix per (m, n, lam) and one weight matrix
    # per (n, s, C)
    assert _e_sum.cache_info().misses == len(ms) * len(seqs) * n
    assert _seed_matrix.cache_info().misses == len(ms)
    assert _weight_matrix.cache_info().misses == len(seqs) * n


def test_irrational_lambda_matches_series_oracle():
    # sigma_u moves an irrational lambda, so these take the sum over k
    for n, lam in ((4, 2 * zeta_pow(4, 1)), (5, zeta_pow(5, 2) - 1)):
        c = family("fourier-dedekind", n, a=1)
        series = g_series_oracle(n, 1, 1, lam, c, order=3)
        for m in range(4):
            assert series[m] == e_sum(m + 1, n, 1, 1, lam, c)


# The oracle's cached terms T_k against the per-k loop that rebuilds them.

def _literal_g_series(n, r, p, lam, c_seq, order):
    """(-1)^p sum_k zeta^{-k(r+p)} C_{-k} e^{qt}/(lam e^t - zeta^{-k}), one
    inverse and two products per k, summed term by term."""
    eq = TruncSeries.exp_linear(q, order)
    acc = TruncSeries.zero(order)
    for k in range(1, n):
        w = zeta_pow(n, -k * (r + p)) * c_seq[-k]
        if not w:
            continue
        den = TruncSeries.exp_affine(lam, -zeta_pow(n, -k), order)
        acc = acc + (den.inverse() * eq) * w
    return acc * (-1 if p % 2 else 1)


def _series_lambdas(n):
    # 0 weights only R_0 on the right side: 0^0 = 1
    rational = st.sampled_from((Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(-3, 4), Fraction(5, 7)))
    # 2 + zeta_3 and 1 + zeta_4, irrational values of Q(zeta_3) and Q(zeta_4)
    # written at level n
    irrational = [2 + zeta_pow(n, n // 3)] * (n % 3 == 0) + [1 + zeta_pow(n, n // 4)] * (n % 4 == 0)
    return st.one_of(rational, st.sampled_from(irrational)) if irrational else rational


def _series_sequences(n):
    # delta weights no k >= 1, so G vanishes
    ram = st.sampled_from((family("ramanujan", n), family("delta", n)))
    rand = st.integers(1, 3).map(lambda i: random_sequence(n, DEFAULT_SEED, i))
    fourier = st.tuples(
        st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1]), small_fracs
    ).map(lambda t: family("fourier-dedekind", n, a=t[0], c0=t[1]))
    return st.one_of(ram, rand, fourier)


def series_cases(least_order=0):
    """(n, r, p, lambda, C, T) with n <= 12 and T <= 6; the checker tests
    in test_verify.py draw from it too."""
    return st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(-2, n + 2), st.integers(-1, 2),
            _series_lambdas(n), _series_sequences(n), st.integers(least_order, 6),
        )
    )


# n = 12 has five orbits, d = 2, 3, 4, 6, 12; the Ramanujan sum weights
# neither d = 12 nor d = 4, so their seeds are skipped
@settings(max_examples=60, deadline=None)
@given(series_cases())
@example((12, 1, 1, Fraction(0), family("ramanujan", 12), 0))
@example((12, 1, 1, Fraction(0), family("ramanujan", 12), 6))
@example((12, 5, 0, Fraction(1), family("ramanujan", 12), 0))
@example((12, 5, 0, Fraction(1), family("ramanujan", 12), 6))
@example((12, 0, 2, Fraction(-3, 4), family("ramanujan", 12), 0))
@example((12, 0, 2, Fraction(-3, 4), family("ramanujan", 12), 6))
@example((12, 0, 1, Fraction(2), family("delta", 12), 3))  # no term: G = 0
@example((12, 0, 1, 1 + zeta_pow(12, 3), family("delta", 12), 3))
def test_g_series_oracle_matches_per_k_loop(case):
    n, r, p, lam, c, order = case
    assert g_series_oracle(n, r, p, lam, c, order) == _literal_g_series(n, r, p, lam, c, order)


@pytest.mark.parametrize(
    "lam", (Fraction(0), Fraction(2), Fraction(-3, 4), 1 + zeta_pow(12, 3)), ids=("0", "2", "-3/4", "1+zeta_4"),
)
def test_g_series_oracle_reads_no_e_sum_route(monkeypatch, lam):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read e_sum's route")

    for name in ("_e_sum", "_seed_matrix", "_weight_matrix", "_orbit_weights", "frobenius_euler"):
        monkeypatch.setattr(dedekind, name, refuse)
    for c in (family("ramanujan", 12), random_sequence(12, DEFAULT_SEED, 1)):
        assert g_series_oracle(12, 1, 1, lam, c, 4) == _literal_g_series(12, 1, 1, lam, c, 4)


def test_oracle_terms_are_built_once_per_grid_value(checker_calls):
    spec = default_grid("gseries")
    _oracle_term.cache_clear()
    calls = checker_calls("gseries")
    assert all(case.status == "pass" for case in run_grid(spec))
    # no comparison outlives a campaign: the oracle runs once per key
    assert len(calls) == 54
    # at a rational lambda one seed per (d, lambda, T), d > 1 dividing some
    # n, which every such n shares; the sequence and (r, p) only weight it
    used = {(d, lam) for n in spec.n for d in divisors(n)[1:] for lam in spec.lambdas}
    assert _oracle_term.cache_info().misses == len(used) == 12
