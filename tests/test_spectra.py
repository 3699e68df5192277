"""DFT pairs, sequence families, and interpolation over roots of unity."""
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cyclosum.arith import euler_phi
from cyclosum.cyclotomic import CycloNum, cyclo_inv, zeta_pow
from cyclosum.errors import InvalidParam, SequenceFileError
from cyclosum.qpoly import QPoly, q, sum_of_products
from cyclosum.spectra import (
    PeriodicSeq,
    SpectralSeq,
    dft_forward,
    dft_inverse,
    family,
    interp_poly,
    lagrange_oracle,
    load_sequence,
    parse_family,
    ramanujan_sum,
    root_sums,
    sequence_from_json,
)
from cyclosum.verify import DEFAULT_SEED, GridSpec, random_sequence, run_grid

small_fracs = st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(
    lambda t: Fraction(t[0], t[1])
)


def rational_seqs(n):
    return st.lists(small_fracs, min_size=n, max_size=n).map(
        lambda vs: PeriodicSeq(n, tuple(vs))
    )


def test_indexing_wraps():
    k = SpectralSeq(3, (1, 2, 3))
    assert k[0] == 1 and k[3] == 1 and k[-1] == 3 and k[7] == 2


def test_period_floor():
    with pytest.raises(ValueError):
        PeriodicSeq(1, (1,))


_REHASH = """
import pickle, sys
for seq in pickle.load(sys.stdin.buffer):
    fresh = type(seq)(seq.n, seq.values)
    assert seq == fresh and hash(seq) == hash(fresh), seq
"""


def test_sequence_pickle_keeps_value_and_hash():
    vals = (Fraction(1, 2), zeta_pow(3, 1), 0)
    seqs = [PeriodicSeq(3, vals), SpectralSeq(3, vals)]
    assert seqs[0] != seqs[1]
    data = pickle.dumps(seqs)
    for seq, back in zip(seqs, pickle.loads(data)):
        assert back == seq and hash(back) == hash(seq)
    # a pool worker hashes str differently; the pickled hash must still hold
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    subprocess.run([sys.executable, "-c", _REHASH], input=data, env=env, check=True, timeout=60)


def test_dft_known_pair():
    # K = (1, 0): C_k = sum_j K_j zeta^{kj} = 1 for all k
    c = dft_forward(SpectralSeq(2, (1, 0)))
    assert list(c.values) == [CycloNum.of(2, 1), CycloNum.of(2, 1)]
    back = dft_inverse(c)
    assert list(back.values) == [CycloNum.of(2, 1), CycloNum.of(2, 0)]


@settings(max_examples=25)
@given(st.sampled_from((2, 3, 4, 6, 8)).flatmap(rational_seqs))
def test_dft_roundtrip(k_seq):
    assert dft_inverse(dft_forward(k_seq)).values == tuple(
        CycloNum.of(k_seq.n, v) for v in k_seq.values
    )


def test_spectrum_cached_by_value():
    vals = (Fraction(1, 2), 3, Fraction(-2, 5), 0, 7)
    first, second = PeriodicSeq(5, vals), PeriodicSeq(5, list(vals))
    assert first is not second and first == second
    before = dft_inverse.cache_info().hits
    assert dft_inverse(first) == dft_inverse(second)
    assert dft_inverse.cache_info().hits > before


def test_spectrum_cache_is_bounded():
    maxsize = dft_inverse.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


@settings(max_examples=25)
@given(st.sampled_from((2, 3, 4, 6, 8)).flatmap(rational_seqs))
def test_forward_inverts_cached_spectrum(c_seq):
    assert dft_forward(dft_inverse(c_seq)) == c_seq
    assert dft_forward(dft_inverse(c_seq)) == c_seq  # now a cache hit


def test_forward_inverts_cyclotomic_spectrum():
    for c_seq in (family("ramanujan", 6), family("fourier-dedekind", 5, a=2, c0=1)):
        assert dft_forward(dft_inverse(c_seq)) == c_seq


@pytest.mark.parametrize(
    "spec",
    [
        GridSpec("prop1", n=(3, 4), r=(0, 2), sequences=("random:2",), perturb_index=5),
        GridSpec(
            "prop2", m=(2,), n=(3, 4), r=(0, 1), p=(1,), lambdas=(Fraction(2),),
            sequences=("ramanujan", "random:1"), perturb_index=6,
        ),
        # (r, p) pairs sharing r + p - 1 share one cached right side
        GridSpec(
            "prop2", m=(2,), n=(3,), r=(0, 1, 2), p=(0, 1, 2), lambdas=(Fraction(2),),
            sequences=("ramanujan", "random:1"), perturb_index=9,
        ),
        # gseries cases sharing (n, lambda) share every cached series factor
        GridSpec(
            "gseries", n=(3,), r=(0, 1, 2), p=(0, 1), lambdas=(Fraction(2),),
            sequences=("ramanujan", "random:1"), order=4, perturb_index=7,
        ),
    ],
    ids=["prop1", "prop2", "prop2-shared-shift", "gseries-shared-series"],
)
def test_cached_spectrum_never_hides_perturbation(spec):
    # the second run finds every spectrum and series in the cache already
    for _ in range(2):
        statuses = [case.status for case in run_grid(spec)]
        assert statuses.count("fail") == 1
        assert statuses.count("pass") == len(statuses) - 1
    # the judge's perturbation never reaches a cached comparison
    clean = run_grid(dataclasses.replace(spec, perturb_index=None))
    assert all(case.status == "pass" for case in clean)


# The running CycloNum sums the root sums were once built with, kept as the
# reference for the one-build versions.

def _running_dft_forward(k_seq):
    n = k_seq.n
    out = []
    for k in range(n):
        acc = CycloNum.of(n, 0)
        for j in range(n):
            acc = acc + k_seq[j] * zeta_pow(n, k * j)
        out.append(acc)
    return PeriodicSeq(n, out)


def _running_dft_inverse(c_seq):
    n = c_seq.n
    out = []
    for j in range(n):
        acc = CycloNum.of(n, 0)
        for k in range(n):
            acc = acc + c_seq[k] * zeta_pow(n, -k * j)
        out.append(acc * Fraction(1, n))
    return SpectralSeq(n, out)


def _running_ramanujan_sum(n, k):
    acc = CycloNum.of(n, 0)
    for j in range(1, n + 1):
        if gcd(j, n) == 1:
            acc = acc + zeta_pow(n, k * j)
    return acc


def _oracle_sequences(n):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    dedekind = st.tuples(
        st.sampled_from(("fourier-dedekind", "apostol-dedekind")),
        st.sampled_from(units),
        st.sampled_from((None, Fraction(1), Fraction(-3, 2))),
    ).map(lambda t: family(t[0], n, a=t[1], c0=t[2]))
    return st.one_of(
        st.integers(0, 3).map(lambda i: random_sequence(n, DEFAULT_SEED, i)),
        st.just(family("ramanujan", n)),
        dedekind,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(_oracle_sequences(n), st.integers(-n, 2 * n))))
def test_root_sums_match_running_cyclonum_sums(case):
    c_seq, k = case
    n = c_seq.n
    assert dft_inverse(c_seq) == _running_dft_inverse(c_seq)
    k_seq = SpectralSeq(n, c_seq.values)
    assert dft_forward(k_seq) == _running_dft_forward(k_seq)
    value = ramanujan_sum(n, k)
    assert isinstance(value, Fraction) and value == _running_ramanujan_sum(n, k)


# n - 1 > 2 phi(n) - 2 at n = 30 and 42, so their top exponents lie past the
# reduction rows; n = 35 and 45 are the high levels of the benchmark grid.
HIGH_LEVEL_SEQUENCES = (
    (30, "random"), (30, "fourier-dedekind"), (42, "ramanujan"), (42, "apostol-dedekind"),
    (35, "ramanujan"), (35, "fourier-dedekind"), (45, "random"),
)


def _high_level_sequence(n, kind):
    if kind == "random":
        return random_sequence(n, DEFAULT_SEED, 0)
    if kind == "ramanujan":
        return family(kind, n)
    a = next(u for u in range(2, n) if gcd(u, n) == 1)
    return family(kind, n, a=a, c0=Fraction(-3, 2))


@pytest.mark.parametrize(
    "n, kind", HIGH_LEVEL_SEQUENCES, ids=[f"{n}-{k}" for n, k in HIGH_LEVEL_SEQUENCES]
)
def test_root_sums_at_high_and_wide_levels(n, kind):
    c_seq = _high_level_sequence(n, kind)
    assert dft_inverse(c_seq) == _running_dft_inverse(c_seq)
    k_seq = SpectralSeq(n, c_seq.values)
    assert dft_forward(k_seq) == _running_dft_forward(k_seq)


@pytest.mark.parametrize("n", (30, 35, 42, 45))
def test_ramanujan_family_at_high_and_wide_levels(n):
    got = family("ramanujan", n)
    assert all(isinstance(v.is_rational(), Fraction) for v in got)
    assert list(got) == [_running_ramanujan_sum(n, k) for k in range(n)]


def test_root_sums_refuse_an_irrational_term_of_another_level():
    with pytest.raises(ValueError, match="cross-level"):
        root_sums(4, [1, zeta_pow(3, 1)], [[0, 1]])
    # a rational value of any level is welcome
    assert root_sums(4, [1, CycloNum.of(3, 2)], [[0, 2]]) == [Fraction(-1)]


def test_delta_family():
    c = family("delta", 5)
    assert c.values[0] == 5
    assert all(v == 0 for v in c.values[1:])
    # its inverse transform is the all-ones sequence
    assert all(v == 1 for v in dft_inverse(c).values)


def test_ramanujan_family_is_totative_indicator_transform():
    for n in (2, 3, 4, 6, 10):
        c = family("ramanujan", n)
        k = dft_inverse(c)
        want = [1 if gcd(j, n) == 1 else 0 for j in range(n)]
        assert [v for v in k.values] == want


def test_fourier_vs_apostol_weights():
    n, a = 5, 2
    four = family("fourier-dedekind", n, a=a)
    apo = family("apostol-dedekind", n, a=a)
    assert four.values[0] == 0 and apo.values[0] == 0
    for k in range(1, n):
        assert four.values[k] == (1 - zeta_pow(n, -a * k)).inverse()
        assert apo.values[k] == (1 - zeta_pow(n, a * k)).inverse()


@pytest.mark.parametrize("n", [*range(2, 31), 35, 45])
def test_dedekind_families_match_per_k_inverses(n):
    # the literal route: one cyclo_inv of 1 - zeta_n^(-+ak) per k
    for a in (u for u in range(1, n) if gcd(u, n) == 1):
        for name, sign in (("fourier-dedekind", -1), ("apostol-dedekind", 1)):
            want = [0] + [cyclo_inv(1 - zeta_pow(n, sign * a * k)) for k in range(1, n)]
            assert family(name, n, a=a) == PeriodicSeq(n, want)


def test_family_c0_override():
    c = family("fourier-dedekind", 4, a=1, c0=Fraction(3, 2))
    assert c.values[0] == Fraction(3, 2)


def test_family_gcd_guard():
    with pytest.raises(InvalidParam, match="gcd"):
        family("fourier-dedekind", 4, a=2)
    with pytest.raises(InvalidParam, match="gcd"):
        family("apostol-dedekind", 6, a=3)


def test_parse_family_shorthand():
    assert parse_family("ramanujan") == ("ramanujan", {})
    name, params = parse_family("fourier-dedekind:a=3,c0=1/2")
    assert name == "fourier-dedekind"
    assert params == {"a": 3, "c0": Fraction(1, 2)}
    with pytest.raises(InvalidParam):
        parse_family("gauss")
    with pytest.raises(InvalidParam):
        parse_family("ramanujan:b=2")
    # a bad value, a parameter the family does not take, or a repeated one
    for desc in ("fourier-dedekind:a=x", "fourier-dedekind:a=1,c0=x", "ramanujan:c0=5", "delta:a=1",
                 "fourier-dedekind:a=1,a=2"):
        with pytest.raises(InvalidParam, match=re.escape(repr(desc))):
            parse_family(desc)


def test_interp_frozen_oracle():
    # spectrum of c_6 interpolates to the totative indicator polynomial
    poly = interp_poly(dft_inverse(family("ramanujan", 6)), 0)
    assert poly == q ** 5 + q
    # shifting r rotates the coefficients
    poly1 = interp_poly(dft_inverse(family("ramanujan", 6)), 1)
    assert poly1 == QPoly(tuple(poly[(j - 1) % 6] for j in range(6)))


def test_interp_values_at_roots():
    # defining property: C^{(r)}(zeta^{-k}) = zeta^{-kr} C_{-k}
    n, r = 6, 2
    c = family("ramanujan", n)
    poly = interp_poly(dft_inverse(c), r)
    for k in range(n):
        node = zeta_pow(n, -k)
        want = zeta_pow(n, -k * r) * CycloNum.of(n, c[-k])
        assert poly.eval_at(node) == want


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from((2, 3, 4, 5, 6)).flatmap(rational_seqs),
    st.integers(min_value=-2, max_value=5),
)
def test_interp_matches_lagrange(k_seq, r):
    c = dft_forward(k_seq)
    assert interp_poly(dft_inverse(c), r) == lagrange_oracle(c, r)


@lru_cache(maxsize=None)
def _product_basis(n):
    # L_k = prod_{l != k} (q - x_l) / (x_k - x_l) over the nodes x_l = zeta_n^{-l}
    nodes = [zeta_pow(n, -k) for k in range(n)]
    basis = []
    for k in range(n):
        num, den = QPoly.one(), CycloNum.of(n, 1)
        for l in range(n):
            if l != k:
                num, den = num * QPoly((-nodes[l], 1)), den * (nodes[k] - nodes[l])
        basis.append(num * cyclo_inv(den))
    return basis


def _entries(n):
    # zero, rational and irrational values at level n
    irrational = st.lists(small_fracs, min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda cs: CycloNum.from_coeffs(n, cs)
    )
    return st.lists(st.one_of(st.just(0), small_fracs, irrational), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24).flatmap(lambda n: st.tuples(_entries(n), st.integers(-2 * n, 2 * n))))
def test_lagrange_oracle_is_the_per_k_lagrange_sum(case):
    values, r = case
    n = len(values)
    c = PeriodicSeq(n, values)
    want = sum_of_products([(1, basis, zeta_pow(n, -k * r) * c[-k]) for k, basis in enumerate(_product_basis(n))])
    got = lagrange_oracle(c, r)
    assert (got.level, got.rows, got.den) == (want.level, want.rows, want.den)


def test_rebuilt_sequence_is_equal_without_comparing_field_values(monkeypatch):
    # a cache keyed on a sequence compares a rebuilt sequence on every hit
    def built():
        return [family("fourier-dedekind", 5, a=2, c0=Fraction(1, 2)), random_sequence(5, DEFAULT_SEED, 1)]

    first, again = built(), built()

    def refuse(self, other):
        raise AssertionError("sequence equality compared CycloNum values")

    monkeypatch.setattr(CycloNum, "__eq__", refuse)
    for seq, other in zip(first, again):
        assert seq is not other and seq == other and hash(seq) == hash(other)
    assert first[0] != first[1] and first[0] != SpectralSeq(5, first[0].values)
    values = list(first[0].values)
    values[3] = zeta_pow(5, 1)
    assert first[0] != PeriodicSeq(5, values)


def test_sequence_json_roundtrip(tmp_path):
    obj = {"n": 3, "values": ["1/2", -2, "5"]}
    seq = sequence_from_json(obj)
    assert seq.values == (Fraction(1, 2), Fraction(-2), Fraction(5))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(obj))
    assert load_sequence(path) == seq


def test_sequence_json_rejects_garbage(tmp_path):
    for bad in (
        {"values": ["1"]},
        {"n": 2, "values": ["1"]},
        {"n": 1, "values": ["1"]},
        {"n": 2, "values": ["1", "0.5"]},
        {"n": 2, "values": ["1", None]},
        {"n": 2, "values": ["1", True]},
    ):
        with pytest.raises(SequenceFileError):
            sequence_from_json(bad)
    missing = tmp_path / "nope.json"
    with pytest.raises(SequenceFileError):
        load_sequence(missing)
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    with pytest.raises(SequenceFileError):
        load_sequence(mangled)
