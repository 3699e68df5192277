"""Identity checkers, grid specs, campaign runner, reports."""
import hashlib
import inspect
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclosum import verify
from cyclosum.appell import apostol_bernoulli
from cyclosum.cyclotomic import CycloNum, format_scalar, normalize_scalar, zeta_pow
from cyclosum.dedekind import e_sum, g_series_oracle, scaled_e_sum
from cyclosum.errors import InvalidGrid, InvalidParam, ParameterCollision, SequenceFileError
from cyclosum.qpoly import QPoly, poly_rows
from cyclosum.series import TruncSeries, t_over_exp_affine
from cyclosum.spectra import PeriodicSeq, dft_inverse, family
from cyclosum.verify import (
    DEFAULT_SEED,
    IDENTITIES,
    GridSpec,
    IdentityCase,
    _basis_matrix,
    _enumerate_jobs,
    _gseries_bases,
    _judge,
    _spectrum_matrix,
    _spectrum_products,
    build_report,
    check_gseries_chain,
    check_mult_formula,
    check_prop2,
    check_section4_closed_form,
    default_grid,
    random_sequence,
    report_csv_bytes,
    report_json_bytes,
    resolve_sequences,
    run_grid,
    run_grids,
)

from test_dedekind import series_cases

RAM3 = family("ramanujan", 3)
RAM4 = family("ramanujan", 4)


def _sides_agree(comparisons):
    return all(lhs == rhs for _, lhs, rhs in comparisons)


# one job per identity, with the reason its first comparison fails under
JUDGED_JOBS = [
    ("prop1", {"c_seq": random_sequence(5, 1, 1), "r": 2, "seq_desc": "random-1"}, None),
    ("prop2", {"m": 2, "n": 3, "r": 1, "p": 1, "lam": 2, "c_seq": RAM3, "seq_desc": "ramanujan"}, None),
    ("mult", {"m": 3, "n": 4, "lam": Fraction(-1, 2)}, None),
    ("section4", {"m": 3, "n": 4, "r": 1, "p": 0, "lam": 2}, None),
    ("moebius", {"n": 6}, "divisor-sum form disagrees with the totative indicator"),
    ("gseries", {"n": 3, "r": 1, "p": 1, "lam": 2, "c_seq": RAM3, "order": 4, "seq_desc": "ramanujan"},
     "series sides differ at coefficient 0"),
]


# A job's report params and the key of the values its comparisons depend
# on, computed from its checker kwargs as the runner did per job before it
# laid out each grid in one pass: the oracle for that layout.
JOB_PARAMS = {
    "prop1": lambda kw: {"n": kw["c_seq"].n, "r": kw["r"], "seq": kw["seq_desc"]},
    "prop2": lambda kw: {"m": kw["m"], "n": kw["n"], "r": kw["r"], "p": kw["p"],
                         "lambda": format_scalar(kw["lam"]), "seq": kw["seq_desc"]},
    "mult": lambda kw: {"m": kw["m"], "n": kw["n"], "lambda": format_scalar(kw["lam"])},
    "section4": lambda kw: {"m": kw["m"], "n": kw["n"], "r": kw["r"], "p": kw["p"],
                            "lambda": format_scalar(kw["lam"]), "seq": "ramanujan"},
    "moebius": lambda kw: {"n": kw["n"]},
    "gseries": lambda kw: {"n": kw["n"], "r": kw["r"], "p": kw["p"], "lambda": format_scalar(kw["lam"]),
                           "seq": kw["seq_desc"], "T": kw["order"]},
}
JOB_KEYS = {
    "prop1": lambda kw: (kw["c_seq"], kw["r"] % kw["c_seq"].n),
    "prop2": lambda kw: (kw["m"], kw["n"], (kw["r"] + kw["p"]) % kw["n"], normalize_scalar(kw["lam"]), kw["c_seq"]),
    "mult": lambda kw: (kw["m"], kw["n"], normalize_scalar(kw["lam"])),
    "section4": lambda kw: (kw["m"], kw["n"], normalize_scalar(kw["lam"])),
    "moebius": lambda kw: (kw["n"],),
    "gseries": lambda kw: (kw["n"], (kw["r"] + kw["p"]) % kw["n"], kw["p"] % 2,
                           normalize_scalar(kw["lam"]), kw["c_seq"], kw["order"]),
}


def _judged(identity, group, perturbs=None):
    """The cases of one key group, judged by _judge on the first job's
    checker kwargs and labelled with each job's params; a perturbed job
    takes the perturbed verdict."""
    perturbs = perturbs or [False] * len(group)
    kwargs = {k: v for k, v in group[0].items() if k != "seq_desc"}
    verdict, perturbed = _judge((identity, kwargs, any(perturbs)))
    return [IdentityCase(identity, JOB_PARAMS[identity](kw), *(perturbed if flag else verdict))
            for kw, flag in zip(group, perturbs)]


def _job_route(spec):
    """run_grid by the route before the one-pass layout: a kwargs dict per
    job in job order, grouped by JOB_KEYS, judged once per group, labelled
    by JOB_PARAMS and sorted by sort_key."""
    by_key = {}
    for index, kwargs in enumerate(_enumerate_jobs(spec)):
        group, perturbs = by_key.setdefault(JOB_KEYS[spec.identity](kwargs), ([], []))
        group.append(kwargs)
        perturbs.append(index == spec.perturb_index)
    cases = [case for group, perturbs in by_key.values() for case in _judged(spec.identity, group, perturbs)]
    return sorted(cases, key=IdentityCase.sort_key)


def test_checkers_pass_and_perturb_fails(checker_calls):
    for identity, kwargs, reason in JUDGED_JOBS:
        calls = checker_calls(identity)
        [good] = _judged(identity, [kwargs])
        assert (good.status, good.reason, good.lhs, good.rhs) == ("pass", None, None, None), identity
        # one checker call decides the group, and only the perturbed job fails
        again, bad = _judged(identity, [kwargs, kwargs], [False, True])
        assert len(calls) == 2
        assert again == good and bad.params == good.params
        # the judge adds 1 to the right side of the checker's first comparison
        args = {k: v for k, v in kwargs.items() if k != "seq_desc"}
        comparisons = verify._CHECKERS[identity](**args)
        assert _sides_agree(comparisons)
        first, lhs, rhs = comparisons[0]
        assert first == reason
        assert (bad.status, bad.reason, bad.lhs, bad.rhs) == ("fail", reason, lhs.to_str(), (rhs + 1).to_str())
        assert bad.lhs != bad.rhs


def test_prop2_collision_becomes_skip(checker_calls):
    reason = "lambda = zeta_4^(-2): the k=2 term of the sum divides by zero"
    with pytest.raises(ParameterCollision, match=rf"^{re.escape(reason)}$"):
        check_prop2(2, 4, 0, 1, -1, RAM4)
    spec = GridSpec.from_json({
        "identity": "prop2", "m": [2], "n": [4], "r": [0, 1], "p": [0, 1], "lambdas": ["-1"], "sequences": ["ramanujan"],
    })
    calls = checker_calls("prop2")
    cases = run_grid(spec)
    # every (r, p) skips with the same reason; r + p mod 4 takes 3 values,
    # and one collision skips every case of its key
    assert {(c.status, c.reason, c.lhs, c.rhs) for c in cases} == {("skipped", reason, None, None)}
    assert (len(cases), len(calls)) == (4, 3)
    assert {"m": 2, "n": 4, "r": 0, "p": 1, "lambda": "-1", "seq": "ramanujan"} in [c.params for c in cases]


# the params of the first sorted case of each default grid
FIRST_PARAMS = {
    "prop1": {"n": 2, "r": -2, "seq": "random-1"},
    "prop2": {"m": 1, "n": 2, "r": 0, "p": -1, "lambda": "-1/2", "seq": "delta"},
    "mult": {"m": 1, "n": 2, "lambda": "-1/2"},
    "section4": {"m": 1, "n": 2, "r": 1, "p": 0, "lambda": "-1/2", "seq": "ramanujan"},
    "moebius": {"n": 2},
    "gseries": {"n": 2, "r": 0, "p": -1, "lambda": "-1/2", "seq": "random-1", "T": 8},
}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_report_labels_of_default_grids(identity):
    case = run_grid(default_grid(identity))[0]
    assert case.params == FIRST_PARAMS[identity]


def test_section4_requires_unit_row_sum():
    with pytest.raises(ValueError):
        check_section4_closed_form(2, 4, 1, 1, 2)


def _tagged_sort_key(case):
    # ints ordered numerically, strings lexically, per sorted param name
    parts = tuple(
        (k, 0, v, "") if isinstance(v, int) else (k, 1, 0, str(v))
        for k, v in sorted(case.params.items())
    )
    return (case.identity, parts)


def test_case_sort_orders_numerically():
    a, b = _judged("moebius", [{"n": 2}]) + _judged("moebius", [{"n": 10}])
    assert a.sort_key() < b.sort_key()
    # the flat key orders a shuffled default grid as the tagged key does
    for identity in IDENTITIES:
        cases = run_grid(default_grid(identity))
        random.Random(identity).shuffle(cases)
        assert sorted(cases, key=IdentityCase.sort_key) == sorted(cases, key=_tagged_sort_key)


def test_case_json_omits_empty_fields():
    [case] = _judged("mult", [{"m": 2, "n": 3, "lam": 2}])
    obj = case.to_json()
    assert set(obj) == {"identity", "params", "status"}


def test_random_sequence_reproducible():
    a = random_sequence(6, 42, 3)
    b = random_sequence(6, 42, 3)
    c = random_sequence(6, 43, 3)
    assert a == b
    assert a != c
    assert a.n == 6


def test_resolve_sequences_expansion():
    resolved = resolve_sequences(("random:3", "delta"), 4, 7)
    assert [d for d, _ in resolved] == ["random-1", "random-2", "random-3", "delta"]
    again = resolve_sequences(("random-2",), 4, 7)
    assert again[0][1] == resolved[1][1]


def test_resolve_sequences_prop2_needs_explicit_c0():
    with pytest.raises(InvalidParam, match="c0"):
        resolve_sequences(("fourier-dedekind:a=1",), 4, 7, identity="prop2")
    ok = resolve_sequences(("fourier-dedekind:a=1,c0=0",), 4, 7, identity="prop2")
    assert ok[0][0] == "fourier-dedekind:a=1,c0=0"


def test_grid_from_json_and_validation():
    spec = GridSpec.from_json(
        {
            "identity": "prop2",
            "m": [1, 2],
            "n": {"min": 2, "max": 3},
            "r": [0],
            "p": [1],
            "lambdas": ["2", "-1/2"],
            "sequences": ["delta"],
        }
    )
    assert spec.m == (1, 2) and spec.n == (2, 3)
    with pytest.raises(InvalidGrid):
        GridSpec.from_json({"identity": "prop2", "m": [1], "bogus": True})
    with pytest.raises(InvalidGrid):
        GridSpec.from_json({"identity": "nope"})
    with pytest.raises(InvalidGrid):
        GridSpec.from_json({"identity": "section4", "m": [1], "n": [2], "rp_pairs": [[1, 1]], "lambdas": ["2"]})
    with pytest.raises(InvalidGrid):
        GridSpec.from_json({"identity": "gseries", "n": [2], "r": [0], "p": [1], "lambdas": ["2"], "sequences": ["delta"], "T": 0})
    for bad in ("0", True):
        with pytest.raises(InvalidGrid, match="perturb_index"):
            GridSpec.from_json({"identity": "moebius", "n": [2], "perturb_index": bad})
    assert GridSpec.from_json({"identity": "moebius", "n": [2], "perturb_index": 0}).perturb_index == 0
    # booleans are not integers, in pairs or in ranges
    with pytest.raises(InvalidGrid, match=r"rp_pairs.*\[\[True, False\]\]"):
        GridSpec.from_json({"identity": "section4", "m": [1], "n": [2], "rp_pairs": [[True, False]], "lambdas": ["2"]})
    with pytest.raises(InvalidGrid, match="axis m.*True"):
        GridSpec.from_json({"identity": "mult", "m": {"min": True, "max": 3}, "n": [2], "lambdas": ["2"]})
    # a lambda object needs an integer level, not a boolean, and a list of coeffs
    for bad in ({"level": True, "coeffs": ["2"]}, {"level": 3}, {"level": 1, "coeffs": "2"}):
        with pytest.raises(InvalidGrid, match="bad lambda entry"):
            GridSpec.from_json({"identity": "mult", "m": [2], "n": [2], "lambdas": [bad]})
    # the smallest m and n each checker accepts
    small = {
        "prop1": {"r": [0], "sequences": ["delta"]},
        "prop2": {"m": [1], "r": [0], "p": [1], "lambdas": ["2"], "sequences": ["delta"]},
        "mult": {"m": [0], "lambdas": ["2"]},
        "section4": {"m": [1], "rp_pairs": [[1, 0]], "lambdas": ["2"]},
        "moebius": {},
        "gseries": {"r": [0], "p": [1], "lambdas": ["2"], "sequences": ["delta"]},
    }
    least_n = {"mult": 1}
    for ident, axes in small.items():
        n = least_n.get(ident, 2)
        assert GridSpec.from_json({"identity": ident, "n": [n], **axes}).n == (n,)
        for bad_n in (n - 1, -2):
            with pytest.raises(InvalidGrid, match=f"axis n .*got {bad_n}"):
                GridSpec.from_json({"identity": ident, "n": [n, bad_n], **axes})
    for ident, bad_m in (("prop2", 0), ("section4", 0), ("mult", -1)):
        with pytest.raises(InvalidGrid, match=f"axis m .*got {bad_m}"):
            GridSpec.from_json({"identity": ident, "n": [2], **dict(small[ident], m=[bad_m])})


# one value for each GridSpec axis, valid where an identity reads the axis
AXIS_VALUES = {"m": [1], "n": [2], "r": [0], "p": [1], "rp_pairs": [[1, 0]], "lambdas": ["2"], "sequences": ["delta"]}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_grid_axes_the_identity_does_not_read_are_grid_errors(identity):
    grid = default_grid(identity).to_json()
    assert GridSpec.from_json(grid).to_json() == grid
    foreign = [axis for axis in AXIS_VALUES if axis not in grid]
    assert foreign
    for axis in foreign:
        with pytest.raises(InvalidGrid, match=f"{identity} grid has a {axis} axis, which {identity} does not read"):
            GridSpec.from_json({**grid, axis: AXIS_VALUES[axis]})
    if "T" not in grid:
        with pytest.raises(InvalidGrid, match=f"{identity} grid has a T"):
            GridSpec.from_json({**grid, "T": 8})
    # a spec built in code is held to the same rule when a campaign runs it
    spec = default_grid(identity)
    setattr(spec, foreign[0], tuple(AXIS_VALUES[foreign[0]]))
    with pytest.raises(InvalidGrid, match=f"has a {foreign[0]} axis"):
        run_grid(spec)


def test_resolve_sequences_names_bad_descriptors(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 4, "values": ["1", "0", "0", "0"]}))
    assert resolve_sequences((f"file:{path}",), 4, 7)[0][1].n == 4
    with pytest.raises(SequenceFileError, match=f"file:{path}.*period 4.*n = 3"):
        resolve_sequences((f"file:{path}",), 3, 7)
    for desc in ("random:x", "random-", "random:1.5", "random:0", "random:-2"):
        with pytest.raises(InvalidGrid, match=desc):
            resolve_sequences((desc,), 3, 7)


# int() reads each of these as an integer: other digit scripts, "_", "+"
# and surrounding whitespace
LOOSE_INTEGERS = ("\u0663", "\uff13", "1_0", " 2", "2\n", "+1")


def test_resolve_sequences_takes_only_ascii_integers():
    assert [d for d, _ in resolve_sequences(("random:2", "random-3", "random--1"), 3, 7)] == [
        "random-1", "random-2", "random-3", "random--1",
    ]
    for text in LOOSE_INTEGERS:
        for desc in (f"random:{text}", f"random-{text}"):
            with pytest.raises(InvalidGrid) as exc:
                resolve_sequences((desc,), 3, 7)
            assert repr(desc) in str(exc.value)
        desc = f"fourier-dedekind:a={text},c0=0"
        with pytest.raises(InvalidParam) as exc:
            resolve_sequences((desc,), 4, 7)
        assert repr(desc) in str(exc.value)


HILEVEL = {
    "identity": "prop2", "m": {"min": 1, "max": 10}, "n": [35, 45],
    "r": [1], "p": [1], "lambdas": ["2"], "sequences": ["ramanujan", "random:1"],
}


def _reference_jobs(spec):
    # the loop nests the runner used before the identity table, kept as the
    # literal reference for the job order and the kwargs of every job
    if spec.identity == "prop1":
        for n in spec.n:
            seqs = resolve_sequences(spec.sequences, n, spec.seed, spec.identity)
            for r in spec.r:
                for desc, c_seq in seqs:
                    yield {"c_seq": c_seq, "r": r, "seq_desc": desc}
    elif spec.identity == "prop2":
        for m in spec.m:
            for n in spec.n:
                seqs = resolve_sequences(spec.sequences, n, spec.seed, spec.identity)
                for r in spec.r:
                    for p in spec.p:
                        for lam in spec.lambdas:
                            for desc, c_seq in seqs:
                                yield {
                                    "m": m, "n": n, "r": r, "p": p,
                                    "lam": lam, "c_seq": c_seq, "seq_desc": desc,
                                }
    elif spec.identity == "mult":
        for m in spec.m:
            for n in spec.n:
                for lam in spec.lambdas:
                    yield {"m": m, "n": n, "lam": lam}
    elif spec.identity == "section4":
        for m in spec.m:
            for n in spec.n:
                for r, p in spec.rp_pairs:
                    for lam in spec.lambdas:
                        yield {"m": m, "n": n, "r": r, "p": p, "lam": lam}
    elif spec.identity == "moebius":
        for n in spec.n:
            yield {"n": n}
    elif spec.identity == "gseries":
        for n in spec.n:
            seqs = resolve_sequences(spec.sequences, n, spec.seed, spec.identity)
            for r in spec.r:
                for p in spec.p:
                    for lam in spec.lambdas:
                        for desc, c_seq in seqs:
                            yield {
                                "n": n, "r": r, "p": p, "lam": lam,
                                "c_seq": c_seq, "order": spec.order, "seq_desc": desc,
                            }


@pytest.mark.parametrize("spec", [default_grid(i) for i in IDENTITIES] + [GridSpec.from_json(HILEVEL)],
                         ids=list(IDENTITIES) + ["prop2-hilevel"])
def test_enumerate_jobs_matches_reference_loops(spec):
    got = [list(kw.items()) for kw in _enumerate_jobs(spec)]
    want = [list(kw.items()) for kw in _reference_jobs(spec)]
    assert got == want


@pytest.mark.parametrize("spec", [default_grid("prop2"), default_grid("gseries"), GridSpec.from_json(HILEVEL)],
                         ids=["prop2", "gseries", "prop2-hilevel"])
def test_sequences_resolved_once_per_n(spec, monkeypatch):
    calls = []

    def counting(descs, n, seed, identity=""):
        calls.append(n)
        return resolve_sequences(descs, n, seed, identity)

    monkeypatch.setattr(verify, "resolve_sequences", counting)
    objects = {}
    for kw in _enumerate_jobs(spec):
        objects.setdefault((kw["n"], kw["seq_desc"]), set()).add(id(kw["c_seq"]))
    assert sorted(calls) == sorted(spec.n)
    assert all(len(ids) == 1 for ids in objects.values())


def _compose(poly: QPoly, inner: QPoly) -> QPoly:
    acc, power = QPoly.zero(), QPoly.one()
    for c in poly.coeffs:
        acc = acc + power * c
        power = power * inner
    return acc


def _literal_prop2_rhs(m, n, r, p, lam, c_seq):
    # C_0 B_m(nq, lam) - n^m sum_j K_{j-r-p+1} lam^j B_m(q + j/n, lam^n),
    # each argument substituted by expanding powers of the inner polynomial
    kseq = dft_inverse(c_seq)
    rhs = _compose(apostol_bernoulli(m, lam), QPoly((0, n))) * c_seq[0]
    b = apostol_bernoulli(m, lam**n)
    for j in range(n):
        w = n**m * kseq[j - r - p + 1] * lam**j
        rhs = rhs - _compose(b, QPoly((Fraction(j, n), 1))) * w
    return rhs


@pytest.mark.parametrize("n", [3, 4, 6])
def test_prop2_right_side_is_built_once_per_shift(n, checker_calls):
    m, lam = 3, Fraction(-1, 2)
    c_seq = random_sequence(n, DEFAULT_SEED, 1)
    for r in range(n + 2):
        for p in range(-1, 3):
            # the comparison at each (r, p) is the literal construction
            [(reason, lhs, rhs)] = check_prop2(m, n, r, p, lam, c_seq)
            assert reason is None and lhs == rhs
            sign = 1 if p % 2 else -1  # (-1)^(p-1)
            assert lhs == e_sum(m, n, r, p, lam, c_seq).scale_arg(n, sign * m)
            assert rhs == _literal_prop2_rhs(m, n, r, p, lam, c_seq)
    for cache in (_basis_matrix, _spectrum_matrix):
        cache.cache_clear()
    calls = checker_calls("prop2")
    spec = GridSpec("prop2", m=(m,), n=(n,), r=tuple(range(n + 2)), p=(-1, 0, 1, 2),
                    lambdas=(lam,), sequences=("random-1",))
    cases = run_grid(spec)
    # r + p runs through every residue mod n; the runner calls the checker
    # once for each, and every call reads one basis for (m, n, lam) and one
    # spectrum matrix for (c_seq, r + p - 1 mod n)
    assert all(case.status == "pass" for case in cases) and len(cases) == (n + 2) * 4
    assert sorted((kw["r"] + kw["p"]) % n for kw in calls) == list(range(n))
    assert _basis_matrix.cache_info().misses == 1
    assert _spectrum_matrix.cache_info().misses == n
    # a second sequence reuses the basis; a second lambda reuses the spectrum
    check_prop2(m, n, 0, 0, lam, family("ramanujan", n))
    check_prop2(m, n, 0, 0, Fraction(2), c_seq)
    assert _basis_matrix.cache_info().misses == 2
    assert _spectrum_matrix.cache_info().misses == n + 1
    # mult reads the basis polynomials and never builds the matrix
    assert _sides_agree(check_mult_formula(m, n, Fraction(3)))
    assert _basis_matrix.cache_info().misses == 2


def test_prop2_grid_builds_one_comparison_per_reduced_key(monkeypatch, checker_calls):
    spec = GridSpec.from_json({
        "identity": "prop2", "m": [1, 3], "n": [3, 4], "r": [0, 1, 2, 5], "p": [-1, 0, 1, 2],
        "lambdas": ["2", "-1/2", "1"], "sequences": ["ramanujan", "random:1"],
    })
    spectra = []

    def counting(*args):
        spectra.append(args)
        return dft_inverse(*args)

    monkeypatch.setattr(verify, "dft_inverse", counting)
    calls = checker_calls("prop2")
    cases = run_grid(spec)
    assert all(case.status == "pass" for case in cases)
    keys = {(c.params["m"], c.params["n"], (c.params["r"] + c.params["p"]) % c.params["n"],
             c.params["lambda"], c.params["seq"]) for c in cases}
    assert len(keys) == 2 * (3 + 4) * 3 * 2 < len(cases)
    assert len(calls) == len(keys)
    # each call reads the spectrum once, as the right side is built
    assert len(spectra) == len(keys)


small_fracs = st.tuples(st.integers(-4, 4), st.integers(1, 5)).map(lambda t: Fraction(*t))


def _prop2_sequences(n):
    named = st.sampled_from(("delta", "ramanujan")).map(lambda name: family(name, n))
    rand = st.integers(1, 3).map(lambda i: random_sequence(n, DEFAULT_SEED, i))
    # irrational C_k for k != 0, and a chosen C_0
    dedekind = st.tuples(
        st.sampled_from(("fourier-dedekind", "apostol-dedekind")),
        st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1]),
        small_fracs,
    ).map(lambda t: family(t[0], n, a=t[1], c0=t[2]))
    return st.one_of(named, rand, dedekind)


def _cyclotomic_lambdas(level):
    # c zeta_level^k + shift: irrational unless zeta_level^k is rational
    return st.tuples(small_fracs, st.integers(1, level - 1), small_fracs).map(
        lambda t: normalize_scalar(t[0] * zeta_pow(level, t[1]) + t[2]))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.integers(1, 6),
            st.just(n),
            st.one_of(
                st.sampled_from((Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(5, 7), Fraction(3), Fraction(-1))),
                small_fracs,
                _cyclotomic_lambdas(n),
            ),
            _prop2_sequences(n),
        )
    )
)
@example((3, 4, 1 + zeta_pow(4, 1), family("fourier-dedekind", 4, a=1, c0=Fraction(1, 2))))
@example((2, 6, normalize_scalar(2 * zeta_pow(6, 1)), random_sequence(6, DEFAULT_SEED, 1)))
def test_prop2_right_side_matches_literal(case):
    # both branches of the spectrum product: the lambdas at the sequence's level n
    m, n, lam, c_seq = case
    basis = _basis_matrix(m, n, lam)
    for s in range(n):
        [rhs] = _spectrum_products(n, lam, [basis], c_seq, s)
        assert rhs == _literal_prop2_rhs(m, n, s + 1, 0, lam, c_seq)


def _e_sum_left_side(m, n, r, p, lam, c_seq):
    # (-1)^(p-1) m E(nq) through e_sum, as check_prop2 built it at every lambda
    return e_sum(m, n, r, p, lam, c_seq).scale_arg(n, (-1) ** ((p - 1) % 2) * m)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.integers(1, 6),
            st.just(n),
            st.integers(-2 * n, 2 * n),
            st.integers(-2, 2),
            st.one_of(
                st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(5, 7))),
                small_fracs,
            ),
            st.sampled_from((Fraction, int, lambda v: CycloNum.of(4, v))),
            _prop2_sequences(n),
        )
    )
)
def test_prop2_left_side_matches_the_e_sum_route(case):
    m, n, r, p0, lam, form, c_seq = case
    if form is int:
        form = lambda v: v.numerator if v.denominator == 1 else v  # noqa: E731
    for p in (p0, p0 + 1):
        if lam == -1 and n % 2 == 0:
            with pytest.raises(ParameterCollision, match=rf"^lambda = zeta_{n}\^\(-{n // 2}\)"):
                check_prop2(m, n, r, p, form(lam), c_seq)
            with pytest.raises(ParameterCollision):
                _e_sum_left_side(m, n, r, p, lam, c_seq)
            continue
        [(reason, lhs, rhs)] = check_prop2(m, n, r, p, form(lam), c_seq)
        assert reason is None and lhs == rhs
        expected = _e_sum_left_side(m, n, r, p, lam, c_seq)
        assert (lhs.level, lhs.rows, lhs.den) == (expected.level, expected.rows, expected.den)


@pytest.mark.parametrize("lam, n", [
    (Fraction(5, 7), 4), (Fraction(-1, 2), 6), (CycloNum(4, (1, 1)), 2), (CycloNum(4, (0, 2)), 4), (CycloNum(3, (2, 1)), 3),
], ids=("5/7", "-1/2", "level4-n2", "level4-n4", "level3"))
def test_prop2_and_section4_read_one_left_side(lam, n):
    # scaled_e_sum is -m E_s(nq) at every lambda; prop2 reads it at s = r + p
    # and section4 at s = 1, and both equal the e_sum route at either parity
    ram = family("ramanujan", n)
    for m in range(1, 5):
        for c_seq in (ram, random_sequence(n, DEFAULT_SEED, 1)):
            for s in range(n):
                for p in (0, 1):
                    got = scaled_e_sum(m, n, s, normalize_scalar(lam), c_seq)
                    assert got == _e_sum_left_side(m, n, s - p, p, lam, c_seq)
        for r, p in ((1, 0), (0, 1), (-1, 2)):
            [(reason, lhs, rhs)] = check_section4_closed_form(m, n, r, p, lam)
            assert reason is None and lhs == rhs == _e_sum_left_side(m, n, r, p, lam, ram)


@pytest.mark.parametrize("m, n, period, message", [
    (0, 4, 4, "m must be >= 1"), (2, 1, 2, "n must be >= 2"), (2, 4, 3, "sequence period 3 differs from n = 4"),
])
def test_prop2_keeps_the_argument_errors_of_e_sum(m, n, period, message):
    # checked before the collision: lambda = -1 would collide at n = 4
    for lam in (Fraction(2), -1, CycloNum(4, (1, 1))):
        with pytest.raises(ValueError, match=message):
            check_prop2(m, n, 0, 1, lam, family("ramanujan", period))


IRRATIONAL_LAMBDAS = (
    ({"level": 3, "coeffs": ["2", "1"]}, 3),
    ({"level": 4, "coeffs": ["1", "1"]}, 4),
    ({"level": 6, "coeffs": ["3", "-1"]}, 6),
)


@pytest.mark.parametrize("lam, n", IRRATIONAL_LAMBDAS, ids=("level3", "level4", "level6"))
def test_prop2_and_mult_pass_at_irrational_lambda(lam, n):
    # the right sides take the literal sum over the basis polynomials here;
    # prop2 builds its basis once per m, for every (r + p) mod n and sequence
    _basis_matrix.cache_clear()
    prop2 = GridSpec.from_json({
        "identity": "prop2", "m": {"min": 1, "max": 4}, "n": [n], "r": [0, 1, 2], "p": [-1, 0, 1, 2],
        "lambdas": [lam], "sequences": ["delta", "ramanujan", "random:2", "fourier-dedekind:a=1,c0=1"],
    })
    cases = run_grid(prop2, workers=1)
    assert len(cases) == 240 and all(c.status == "pass" for c in cases)
    assert _basis_matrix.cache_info().misses == 4
    mult = GridSpec.from_json({"identity": "mult", "m": {"min": 0, "max": 4}, "n": [n], "lambdas": [lam]})
    cases = run_grid(mult, workers=1)
    assert len(cases) == 5 and all(c.status == "pass" for c in cases)


def test_mult_passes_at_least_values_and_lambda_minus_one():
    # m = 0, n = 1 are the least values mult accepts; at lambda = -1 and
    # even n, lambda^n = 1, so A has degree m - 1 and each V_j degree m
    for grid in (
        {"identity": "mult", "m": [0, 1, 2], "n": [1, 2, 3], "lambdas": ["1", "2", "-1/2"]},
        {"identity": "mult", "m": {"min": 0, "max": 6}, "n": [2, 4], "lambdas": ["-1", "1", "2", "-1/2"]},
    ):
        cases = run_grid(GridSpec.from_json(grid), workers=1)
        assert cases and all(c.status == "pass" for c in cases)
    scaled, *shifts = _basis_polys(3, 4, Fraction(-1))
    assert scaled.degree == 2 and {v.degree for v in shifts} == {3}
    assert len(_basis_matrix(3, 4, Fraction(-1))[0]) == 4


def _basis_polys(m, n, lam):
    # _basis_matrix(m, n, lam) as its n + 1 polynomials, at either kind of lambda
    basis = _basis_matrix(m, n, lam)
    if not isinstance(lam, Fraction):
        return (basis[0], *basis[1])
    rows, den = basis
    return tuple(QPoly([Fraction(row[t], den) for row in rows]) for t in range(n + 1))


def _per_j_basis(m, n, lam):
    # A and each V_j = lam^j B_m(q + j/n, lam^n) by its own Taylor shift
    b = apostol_bernoulli(m, lam**n)
    return apostol_bernoulli(m, lam).scale_arg(n), tuple(b.shift(Fraction(j, n)) * lam**j for j in range(n))


basis_lambdas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(5, 7)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 10), n=st.integers(2, 45), lam=basis_lambdas)
@example(m=10, n=45, lam=Fraction(2))
@example(m=4, n=6, lam=Fraction(-1))  # lam^n = 1: A has degree m - 1, each V_j degree m
@example(m=3, n=2, lam=Fraction(0))  # 0^0 = 1: V_0 alone is nonzero
def test_basis_matrix_equals_the_per_j_route(m, n, lam):
    scaled, shifts = _per_j_basis(m, n, lam)
    rows, den = poly_rows((scaled, *shifts))
    expected = [[Fraction(row[0], den), *(Fraction(-(n**m) * v, den) for v in row[1:])] for row in rows]
    got, got_den = _basis_matrix(m, n, lam)
    assert [[Fraction(v, got_den) for v in row] for row in got] == expected
    assert gcd(got_den, *(v for row in got for v in row)) == 1


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(0, 5), n=st.integers(1, 8), level=st.sampled_from([3, 4, 5, 12]), k=st.integers(1, 11),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    shift=st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
@example(m=3, n=4, level=4, k=1, c=Fraction(1), shift=Fraction(0))  # lam = i, lam^n = 1
def test_bernoulli_basis_at_cyclotomic_lambdas_equals_the_per_j_route(m, n, level, k, c, shift):
    # irrational unless the level divides k, which gives a rational lam and the integer layout
    lam = normalize_scalar(c * zeta_pow(level, k) + shift)
    scaled, shifts = _per_j_basis(m, n, lam)
    assert _basis_polys(m, n, lam) == (scaled, *(v * -(n**m) for v in shifts))


def _literal_t_over_exp_affine(lam, s, order):
    # t / (lam e^{st} - 1), t divided through first when lam = 1
    if lam == 1:
        den = TruncSeries([Fraction(s ** (k + 1), k + 1) for k in range(order + 1)], order)
        return den.inverse()
    den = TruncSeries([lam - 1] + [lam * Fraction(s) ** k for k in range(1, order + 1)], order)
    return den.inverse().mul_t()


def _literal_gseries_sides(n, r, p, lam, c_seq, g, order):
    """(L, P, tg, lhs, rhs) with every series factor rebuilt for the case:
    lhs = C_0 L + (-1)^p tg and rhs = sum_j K_{j-(r+p-1)} R_j."""
    sign_p = -1 if p % 2 else 1
    nq = QPoly((0, n))
    tg = (g * TruncSeries.exp_linear(QPoly((0, n - 1)), order)).mul_t()
    left = _literal_t_over_exp_affine(lam, 1, order) * TruncSeries.exp_linear(nq, order)
    lhs = c_seq[0] * left + sign_p * tg
    kseq = dft_inverse(c_seq)
    base = _literal_t_over_exp_affine(normalize_scalar(lam**n), n, order)
    acc = TruncSeries.zero(order)
    for j in range(n):
        w = kseq[j - r - p + 1] * lam**j
        if w:
            acc = acc + TruncSeries.exp_linear(QPoly((j, n)), order) * w
    return left, base * TruncSeries.exp_linear(nq, order), tg, lhs, (acc * base) * n


@settings(max_examples=60, deadline=None)
@given(series_cases(least_order=1))
# both branches of the right side, and C_0 L[m] at an irrational C_0
@example((5, 0, -1, Fraction(0), random_sequence(5, DEFAULT_SEED, 2), 4))
@example((6, 3, 2, Fraction(-3, 4), family("ramanujan", 6), 6))
@example((8, 2, 1, 1 + zeta_pow(8, 2), random_sequence(8, DEFAULT_SEED, 1), 5))
@example((4, 1, 0, 1 + zeta_pow(4, 1), PeriodicSeq(4, [2 + zeta_pow(4, 1), 1, zeta_pow(4, 3), Fraction(1, 2)]), 4))
@example((4, 0, 1, Fraction(2), PeriodicSeq(4, [2 + zeta_pow(4, 1), 1, zeta_pow(4, 3), Fraction(1, 2)]), 3))
# lambda = 0 weights only R_0; at lambda = 1, L and P both have degree m
@example((3, 1, 1, Fraction(0), family("ramanujan", 3), 4))
@example((6, 1, 1, Fraction(1), family("ramanujan", 6), 5))
@example((4, 2, 2, Fraction(1), random_sequence(4, DEFAULT_SEED, 1), 3))
def test_gseries_sides_match_per_case_construction(case):
    n, r, p, lam, c_seq, order = case
    g = g_series_oracle(n, r, p, lam, c_seq, order)
    lam = normalize_scalar(lam)
    left, right, tg, lhs, rhs = _literal_gseries_sides(n, r, p, lam, c_seq, g, order)
    # _shift_basis takes L[m] as `first`, which has at most P_m's rows
    assert all(len(left[m].rows) <= len(right[m].rows) for m in range(order + 1))
    # the checker builds the sides of this (r, p) from the cached series
    comparisons = check_gseries_chain(n, r, p, lam, c_seq, order)
    assert _sides_agree(comparisons)
    # lhs = rhs rearranged: u = -(-1)^p tg against C_0 L - sum_j K R_j, and u
    # against -(-1)^p m e_sum(nq), both sides of the literal chain times -(-1)^p
    f = 1 if p % 2 else -1
    sums = [e_sum(i, n, r, p, lam, c_seq) for i in range(1, order + 2)]
    literal = (
        [(f * tg[m], lhs[m] + f * tg[m] - rhs[m]) for m in range(order + 1)]
        + [(g[m], sums[m]) for m in range(order + 1)]
        + [(f * tg[m], sums[m - 1].scale_arg(n, f * m)) for m in range(1, order + 1)]
    )
    assert [(a, b) for _, a, b in comparisons] == literal


@pytest.mark.parametrize("lam", (Fraction(2), Fraction(1), 1 + zeta_pow(4, 1)), ids=("2", "1", "1+zeta_4"))
def test_gseries_series_sides_read_no_prop2_or_e_sum_route(monkeypatch, lam):
    def refuse(*args, **kwargs):
        raise AssertionError("a series side read prop2's route")

    monkeypatch.setattr(verify, "apostol_bernoulli", refuse)
    monkeypatch.setattr(verify, "_basis_matrix", refuse)
    # e_sum's route stubbed out: only the second and third layers read it
    monkeypatch.setattr(verify, "e_sum", lambda *args: QPoly())
    monkeypatch.setattr(verify, "scaled_e_sum", lambda *args: QPoly())
    _gseries_bases.cache_clear()
    comparisons = check_gseries_chain(4, 1, 1, lam, random_sequence(4, DEFAULT_SEED, 1), 4)
    assert _sides_agree(comparisons[:5])
    assert not _sides_agree(comparisons[5:])


def test_gseries_series_are_built_once_per_grid_value(checker_calls):
    spec = default_grid("gseries")
    _gseries_bases.cache_clear()
    t_over_exp_affine.cache_clear()
    calls = checker_calls("gseries")
    cases = run_grid(spec)
    assert all(case.status == "pass" for case in cases)
    # one checker call per (n, (r + p) mod n, p mod 2, lambda, C, T)
    keys = {(c.params["n"], (c.params["r"] + c.params["p"]) % c.params["n"], c.params["p"] % 2,
             c.params["lambda"], c.params["seq"]) for c in cases}
    assert (len(cases), len(keys), len(calls)) == (96, 54, 54)
    # one L and R_j table per (n, lambda, T), whatever the sequence and (r, p)
    info = _gseries_bases.cache_info()
    assert (info.misses, info.hits) == (len(spec.n) * len(spec.lambdas), 54 - 12) == (12, 42)
    # one inverse per (lambda, s, T): L's series at s = 1 is shared by every n
    series = {(lam, 1) for lam in spec.lambdas} | {(lam**n, n) for n in spec.n for lam in spec.lambdas}
    assert t_over_exp_affine.cache_info().misses == len(series) == 15


@pytest.mark.usefixtures("cpus")
def test_run_grid_deterministic_across_workers():
    # mult has one case per key; gseries groups 96 cases into 54 keys
    for identity in ("mult", "gseries"):
        spec = default_grid(identity)
        serial = run_grid(spec, workers=1)
        parallel = run_grid(spec, workers=3)
        assert [c.to_json() for c in serial] == [c.to_json() for c in parallel]


def test_judge_decides_the_group_once_and_the_perturbed_case_again(checker_calls):
    calls = checker_calls("moebius")
    verdict, perturbed = _judge(("moebius", {"n": 6}, True))
    assert len(calls) == 1
    assert verdict is verify._PASS
    assert perturbed[:2] == ("fail", "divisor-sum form disagrees with the totative indicator")
    # a group without the perturbed case gets its one verdict twice
    verdict, unperturbed = _judge(("moebius", {"n": 6}, False))
    assert verdict is unperturbed is verify._PASS
    reason = "lambda = zeta_4^(-2): the k=2 term of the sum divides by zero"
    kwargs = {"m": 2, "n": 4, "r": 0, "p": 1, "lam": -1, "c_seq": RAM4}
    for flag in (True, False):
        assert _judge(("prop2", kwargs, flag)) == (("skipped", reason),) * 2


# one small grid per identity: prop2 has lambda = -1 colliding at n = 2,
# and mult carries a perturbed case
MIXED_GRIDS = [
    GridSpec("prop1", n=(3, 4), r=(0, 1, 5), sequences=("random:1", "delta")),
    GridSpec("prop2", m=(1, 2), n=(2, 3), r=(0, 1), p=(0, 1), lambdas=(Fraction(2), Fraction(-1)),
             sequences=("ramanujan",)),
    GridSpec("mult", m=(1, 2), n=(2, 3), lambdas=(Fraction(2),), perturb_index=1),
    GridSpec("section4", m=(1, 2), n=(2, 3), rp_pairs=((1, 0), (0, 1)), lambdas=(Fraction(2),)),
    GridSpec("moebius", n=(2, 3, 4)),
    GridSpec("gseries", n=(2,), r=(0, 1), p=(1,), lambdas=(Fraction(2),), sequences=("delta",), order=2),
]


@pytest.mark.usefixtures("cpus")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_grids_matches_one_run_grid_per_identity(workers):
    # the campaign loop that ran one grid at a time: run_grid per spec, then
    # a stable sort on the identity
    expected = [case for spec in MIXED_GRIDS for case in run_grid(spec)]
    expected.sort(key=lambda c: c.identity)
    cases = run_grids(MIXED_GRIDS, workers=workers)
    assert [c.to_json() for c in cases] == [c.to_json() for c in expected]
    statuses = [c.status for c in cases]
    assert statuses.count("fail") == 1 and "skipped" in statuses
    assert {c.identity for c in cases} == set(IDENTITIES)


@pytest.mark.usefixtures("cpus")
def test_pool_is_capped_at_its_number_of_chunks(monkeypatch):
    sizes = []

    class Recording(verify.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", Recording)
    cases = run_grid(GridSpec("moebius", n=(2, 3)), workers=50)
    assert [c.status for c in cases] == ["pass", "pass"]
    assert sizes == [2]


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands a pool in for the process pool that maps in this process, so
    that no worker starts, and returns what it was handed: its size and its
    chunk size in `seen`, and the identity of each unit of work, in the
    order handed out, in `identities`."""
    record = SimpleNamespace(seen=[], identities=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize):
            record.seen.append(chunksize)
            record.identities += [identity for identity, _, _ in work]
            return map(fn, work)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    return record


@pytest.mark.parametrize("cpus, sizes", [(3, [3, 3]), (None, [])])
def test_pool_is_capped_at_the_cpu_count(monkeypatch, serial_pool, cpus, sizes):
    # --identity all with 5,000 workers: without the cap, 5,000 processes
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    cases = run_grids(MIXED_GRIDS, workers=5000)
    # 43 key groups: 3 workers with chunks of 43 // (3 * 4) groups, where the
    # uncapped count gave 43 workers with chunks of 1; no CPU count, no pool
    assert serial_pool.seen == sizes
    assert [c.to_json() for c in cases] == [c.to_json() for c in run_grids(MIXED_GRIDS, workers=1)]


def test_pool_gets_the_grids_with_the_fewest_key_groups_first(monkeypatch, serial_pool):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    run_grids(MIXED_GRIDS, workers=2)
    # each grid's groups leave together, in non-decreasing group count
    counts = Counter(serial_pool.identities)
    handed = [identity for identity, _ in groupby(serial_pool.identities)]
    assert sorted(handed) == sorted(IDENTITIES)
    assert [counts[identity] for identity in handed] == sorted(counts.values())


def test_first_chunk_of_the_default_grids_holds_every_costly_group(monkeypatch, serial_pool):
    # --identity all at 2 workers: gseries, moebius, section4 and mult keys
    # cost several times a prop1 or prop2 key, and all of them leave in the
    # first of the 8 chunks, as when the pool took them costliest first
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    run_grids([default_grid(identity) for identity in IDENTITIES], workers=2)
    counts = Counter(serial_pool.identities)
    assert counts == {"moebius": 11, "section4": 40, "gseries": 54, "mult": 126, "prop1": 1750, "prop2": 5100}
    assert serial_pool.seen == [2, 885]
    first = Counter(serial_pool.identities[:885])
    assert {identity: first[identity] for identity in ("moebius", "section4", "gseries", "mult")} == {
        identity: counts[identity] for identity in ("moebius", "section4", "gseries", "mult")}


def test_checker_parameters_are_read_once_per_identity(monkeypatch):
    # reading a checker's signature for each of prop2's 5,100 key groups
    # made the default prop2 grid about 30% slower
    reads, signature = Counter(), inspect.signature

    def counting(fn, *args, **kwargs):
        reads[fn] += 1
        return signature(fn, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting)
    run_grid(default_grid("prop2"))
    assert all(n <= 1 for n in reads.values()), reads


def _run_grid_per_job(spec):
    """run_grid's cases with the checker called once for every job, and the
    comparisons of every job (None for a collision) listed by key."""
    cases, by_key = [], {}
    for index, kwargs in enumerate(_enumerate_jobs(spec)):
        params = JOB_PARAMS[spec.identity](kwargs)
        same_key = by_key.setdefault(JOB_KEYS[spec.identity](kwargs), [])
        try:
            comparisons = verify._CHECKERS[spec.identity](**{k: v for k, v in kwargs.items() if k != "seq_desc"})
        except ParameterCollision as exc:
            same_key.append(None)
            cases.append(IdentityCase(spec.identity, params, "skipped", reason=str(exc)))
            continue
        same_key.append(comparisons)
        verdict = ("pass",)
        for i, (reason, lhs, rhs) in enumerate(comparisons):
            if index == spec.perturb_index and i == 0:
                rhs = rhs + 1
            if lhs != rhs:
                verdict = ("fail", reason, lhs.to_str(), rhs.to_str())
                break
        cases.append(IdentityCase(spec.identity, params, *verdict))
    return sorted(cases, key=IdentityCase.sort_key), by_key


def _axis(values, max_size=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size, unique=True).map(tuple)


# -1 collides with zeta_n^(-n/2) at even n
GRID_LAMBDAS = (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(-1))
# distinct labels, so no two cases of a grid share their params
GRID_SEQUENCES = ("delta", "ramanujan", "random:2")
SMALL_GRIDS = {
    "prop1": dict(n=_axis(range(2, 7), 2), r=_axis(range(-2, 7), 5), sequences=_axis(GRID_SEQUENCES, 2)),
    "prop2": dict(m=_axis(range(1, 4), 2), n=_axis(range(2, 5), 2), r=_axis(range(-1, 5)), p=_axis(range(-1, 3)),
                  lambdas=_axis(GRID_LAMBDAS, 2), sequences=_axis(GRID_SEQUENCES, 2)),
    "mult": dict(m=_axis(range(0, 4)), n=_axis(range(1, 5)), lambdas=_axis(GRID_LAMBDAS)),
    "section4": dict(m=_axis(range(1, 4)), n=_axis((2, 3, 4, 6), 2),
                     rp_pairs=_axis(((1, 0), (0, 1), (-1, 2), (2, -1))), lambdas=_axis(GRID_LAMBDAS, 2)),
    "moebius": dict(n=_axis(range(2, 9))),
    "gseries": dict(n=_axis(range(2, 5), 2), r=_axis(range(-1, 4), 2), p=_axis(range(-1, 3)),
                    lambdas=_axis(GRID_LAMBDAS, 2), sequences=_axis(GRID_SEQUENCES, 1), order=st.integers(1, 3)),
}


@st.composite
def small_grids(draw, identity):
    spec = GridSpec(identity, **{axis: draw(values) for axis, values in SMALL_GRIDS[identity].items()})
    count = len(list(_enumerate_jobs(spec)))
    spec.perturb_index = draw(st.integers(0, count - 1) | st.none())
    return spec


@pytest.mark.parametrize("identity", IDENTITIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_run_grid_matches_one_checker_call_per_job(identity, data):
    spec = data.draw(small_grids(identity))
    expected, by_key = _run_grid_per_job(spec)
    # the jobs of one key have equal comparisons, so one checker call decides them all
    assert all(comparisons == same[0] for same in by_key.values() for comparisons in same)
    assert [case.to_json() for case in run_grid(spec)] == [case.to_json() for case in expected]


def test_identity_fields_are_the_axes_by_sorted_name():
    # the one-pass layout walks the fields in this order, and reads a case's
    # report params and key from them
    for identity, row in verify._IDENTITY_TABLE.items():
        names = [name for _, field in row.fields for name in ((field,) if isinstance(field, str) else field)]
        assert names == sorted(names), identity
        assert {src for src, _ in row.fields if isinstance(src, str)} - {"order"} == set(row.axes), identity
        assert set(names) == set(JOB_PARAMS[identity](next(_enumerate_jobs(default_grid(identity))))), identity


def _repeating(values, max_size=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size).map(tuple)


# Axes whose values repeat: equal ints, two lambdas labelled "1", -1 (which
# collides at even n) and sequence labels given twice, as "random-1" is by
# "random:2" and by itself.
REPEAT_LAMBDAS = (Fraction(1), CycloNum.of(3, 1), Fraction(-1), Fraction(2), Fraction(-1, 2))
REPEAT_SEQUENCES = ("delta", "ramanujan", "random:2", "random-1")
REPEAT_GRIDS = {
    "prop1": dict(n=_repeating(range(2, 5), 2), r=_repeating(range(-1, 4)), sequences=_repeating(REPEAT_SEQUENCES, 2)),
    "prop2": dict(m=_repeating(range(1, 3), 2), n=_repeating(range(2, 5), 2), r=_repeating(range(-1, 3), 2),
                  p=_repeating(range(-1, 2), 2), lambdas=_repeating(REPEAT_LAMBDAS, 2),
                  sequences=_repeating(REPEAT_SEQUENCES, 2)),
    "mult": dict(m=_repeating(range(0, 3)), n=_repeating(range(1, 4)), lambdas=_repeating(REPEAT_LAMBDAS)),
    "section4": dict(m=_repeating(range(1, 3)), n=_repeating((2, 3, 4), 2),
                     rp_pairs=_repeating(((1, 0), (0, 1), (2, -1))), lambdas=_repeating(REPEAT_LAMBDAS, 2)),
    "moebius": dict(n=_repeating(range(2, 7), 4)),
    "gseries": dict(n=_repeating(range(2, 4), 2), r=_repeating(range(0, 3), 2), p=_repeating(range(0, 2), 2),
                    lambdas=_repeating(REPEAT_LAMBDAS, 2), sequences=_repeating(REPEAT_SEQUENCES[2:], 1),
                    order=st.integers(1, 2)),
}


@st.composite
def repeating_grids(draw, identity):
    spec = GridSpec(identity, **{axis: draw(values) for axis, values in REPEAT_GRIDS[identity].items()})
    count = len(list(_enumerate_jobs(spec)))
    spec.perturb_index = draw(st.integers(0, count - 1) | st.none())
    return spec


@pytest.mark.usefixtures("cpus")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("identity", IDENTITIES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_run_grid_matches_the_job_route_when_axis_values_repeat(identity, workers, data):
    # cases with equal params keep their job order, as the stable sort did
    spec = data.draw(repeating_grids(identity))
    assert [c.to_json() for c in run_grid(spec, workers)] == [c.to_json() for c in _job_route(spec)]


def test_equal_params_keep_job_order():
    # both lambdas read "1"; job 1 is (n, lambda) = (first 2, level-3 one)
    spec = GridSpec("mult", m=(1,), n=(2, 2), lambdas=(Fraction(1), CycloNum.of(3, 1)), perturb_index=1)
    cases = run_grid(spec)
    assert [c.status for c in cases] == ["pass", "fail", "pass", "pass"]
    assert [c.to_json() for c in cases] == [c.to_json() for c in _job_route(spec)]


# two prop2 grids with params in common, a mult grid between them, and a
# collision at n = 2
SAME_IDENTITY_GRIDS = [
    GridSpec("prop2", m=(2, 1), n=(3,), r=(0, 1), p=(1,), lambdas=(Fraction(2),),
             sequences=("delta", "ramanujan"), perturb_index=1),
    GridSpec("mult", m=(1, 2), n=(2,), lambdas=(Fraction(2),), perturb_index=0),
    GridSpec("prop2", m=(1,), n=(2, 3), r=(1, 0), p=(1,), lambdas=(Fraction(2), Fraction(-1)),
             sequences=("delta",), perturb_index=0),
]


@pytest.mark.usefixtures("cpus")
@pytest.mark.parametrize("workers", [1, 2])
def test_run_grids_interleaves_grids_of_one_identity_as_one_sort(workers):
    # the order one stable sort by sort_key gave over the cases of all grids
    expected = sorted((c for spec in SAME_IDENTITY_GRIDS for c in _job_route(spec)), key=IdentityCase.sort_key)
    cases = run_grids(SAME_IDENTITY_GRIDS, workers=workers)
    assert [c.to_json() for c in cases] == [c.to_json() for c in expected]
    prop2 = [c.to_json() for c in cases if c.identity == "prop2"]
    one_by_one = [c.to_json() for spec in SAME_IDENTITY_GRIDS[::2] for c in run_grid(spec)]
    assert prop2 != one_by_one and sorted(map(json.dumps, prop2)) == sorted(map(json.dumps, one_by_one))
    assert [c.status for c in cases].count("fail") == 3 and "skipped" in [c.status for c in cases]


def test_run_grid_perturb_injects_single_failure(checker_calls):
    # the index picks a job in enumeration order; the mutated case keeps its
    # sorted position, so locate it by status
    spec = default_grid("mult")
    spec.perturb_index = 5
    calls = checker_calls("mult")
    cases = run_grid(spec)
    failed = [c for c in cases if c.status == "fail"]
    assert len(failed) == 1
    assert failed[0].identity == "mult"
    assert failed[0].lhs != failed[0].rhs
    # job 5 is (m, n, lambda) = (1, 3, -1/2): m outermost, then n, then lambda
    assert [c.params for c in failed] == [{"m": 1, "n": 3, "lambda": "-1/2"}]
    assert list(_enumerate_jobs(spec))[5] == {"m": 1, "n": 3, "lam": Fraction(-1, 2)}
    # mult's cases all differ in their key, so one checker call per case,
    # the perturbed one included; the judge keeps its own keys from the checker
    assert len(calls) == len(cases)
    assert all(set(kw) == {"m", "n", "lam"} for kw in calls)


def test_report_schema_and_bytes_stable():
    spec = default_grid("moebius")
    cases = run_grid(spec)
    report = build_report("moebius", cases, [spec])
    assert set(report) == {"campaign", "grid", "cases", "summary"}
    assert report["summary"] == {"pass": len(cases), "fail": 0, "skipped": 0}
    assert report_json_bytes(report) == report_json_bytes(
        build_report("moebius", run_grid(spec), [spec])
    )
    csv_data = report_csv_bytes(report).decode()
    header = csv_data.splitlines()[0]
    assert header == "identity,m,n,r,p,lambda,seq,T,status,reason,lhs,rhs"
    assert len(csv_data.splitlines()) == len(cases) + 1


def _dumps_oracle(report) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


# quotes, backslashes, control characters, non-ASCII and the text the
# writer splits the envelope at
awkward_text = st.one_of(
    st.sampled_from(('"cases": []', '"', "\\", "\x00\x1f\n\t", "é", "λ = ζ₃", "\U0001f600", "")),
    st.text(max_size=12),
)
report_cases = st.builds(
    verify.IdentityCase,
    identity=awkward_text,
    params=st.dictionaries(
        awkward_text, st.one_of(st.integers(-10**30, 10**30), awkward_text, st.booleans(), st.none()), max_size=6
    ),
    status=st.sampled_from(("pass", "fail", "skipped")),
    reason=st.none() | awkward_text,
    lhs=st.none() | awkward_text,
    rhs=st.none() | awkward_text,
)


@settings(max_examples=300, deadline=None)
@given(awkward_text, st.lists(report_cases, max_size=4), st.lists(st.sampled_from(IDENTITIES), max_size=2))
@example('"cases": []', [], [])
@example("prop2", [verify.IdentityCase("prop2", {}, "fail", "r\u00e9ason", "-1", '"\\')], ["prop2"])
# equal params values of another type or sign print differently
@example("%s", [verify.IdentityCase("%", {"a": v, "%": "%s"}, "pass") for v in (1, True, 1.0, 0.0, -0.0, 0)], [])
def test_report_json_bytes_equal_json_dumps(campaign, cases, grids):
    report = build_report(campaign, cases, [default_grid(i) for i in grids])
    assert report_json_bytes(report) == _dumps_oracle(report)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_report_json_bytes_equal_json_dumps_on_default_grids(identity):
    for perturb in (None, 0):
        spec = default_grid(identity)
        spec.perturb_index = perturb
        report = build_report(identity, run_grid(spec), [spec])
        assert report["summary"]["fail"] == (perturb is not None)
        assert report_json_bytes(report) == _dumps_oracle(report)


# No default grid has an irrational lambda, so these pin the report bytes
# that `cyclosum verify` writes for grids whose Appell recurrences run over
# Q(zeta_n); each perturbed case prints an irrational lhs and rhs.  The
# prop2 grid is the one CI compares across hash seeds and worker counts
# (lambda = 2, 2 zeta_4 and 1 + zeta_4), with its case 51 (m = 3, n = 2,
# lambda = 2 zeta_4) perturbed.
IRRATIONAL_LAMBDA_REPORTS = [
    (
        {
            "identity": "prop2", "m": {"min": 1, "max": 4}, "n": [2, 4], "r": [0, 1], "p": [1],
            "lambdas": ["2", {"level": 4, "coeffs": ["0", "2"]}, {"level": 4, "coeffs": ["1", "1"]}],
            "sequences": ["delta", "ramanujan"], "perturb_index": 51,
        },
        "ff410df668b81e602f27abf48856fa4ce1d31cc71ebc15d85b96614b585695a0",
        {"pass": 95, "fail": 1, "skipped": 0},
    ),
    (
        {
            "identity": "mult", "m": {"min": 0, "max": 5}, "n": [2, 3, 4, 5],
            "lambdas": ["-1/2", {"level": 3, "coeffs": ["1", "1"]}, {"level": 5, "coeffs": ["0", "0", "2", "0"]}],
            "perturb_index": 43,
        },
        "b932e0a21d6882068df060d54237ef14a507605fba8f11d1999e26a4e6fd0586",
        {"pass": 71, "fail": 1, "skipped": 0},
    ),
]


@pytest.mark.parametrize("grid, digest, summary", IRRATIONAL_LAMBDA_REPORTS, ids=("prop2", "mult"))
def test_irrational_lambda_reports_are_pinned(grid, digest, summary):
    spec = GridSpec.from_json(grid)
    report = build_report(grid["identity"], run_grid(spec, workers=1), [spec])
    assert report["summary"] == summary
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest


def test_section4_report_is_pinned():
    # the left side at rational, colliding and irrational lambdas, with one
    # perturbed case printing its lhs and rhs; measured with e_sum's route
    grid = {
        "identity": "section4", "m": {"min": 1, "max": 4}, "n": [2, 4], "rp_pairs": [[1, 0], [0, 1], [-1, 2]],
        "lambdas": ["2", "-1", "5/7", {"level": 4, "coeffs": ["0", "2"]}, {"level": 4, "coeffs": ["1", "1"]}],
        "perturb_index": 5,
    }
    spec = GridSpec.from_json(grid)
    report = build_report("section4", run_grid(spec, workers=1), [spec])
    assert report["summary"] == {"pass": 95, "fail": 1, "skipped": 24}
    digest = hashlib.sha256(report_json_bytes(report)).hexdigest()
    assert digest == "8124349c16c6e96c77d57ca6eb479625f3b1c27ae262e82dfe423ead814a0d9f"


# Irrational sequence values at rational lambdas: prop1's Lagrange oracle at
# n up to 12 and at n = 24, 32, 48, and prop2's left side with lambda = -1
# colliding at n = 4, 6.  Each perturbed case prints its lhs and rhs.
IRRATIONAL_SEQUENCE_REPORTS = [
    (
        {
            "identity": "prop1", "n": {"min": 2, "max": 12}, "r": {"min": -2, "max": 13},
            "sequences": ["fourier-dedekind:a=1", "apostol-dedekind:a=1", "ramanujan", "random:2"],
            "perturb_index": 435,
        },
        "58de5c6e34d6f105607d1420e5040793ee934742f65de474488885384e0046ad",
        {"pass": 879, "fail": 1, "skipped": 0},
    ),
    (
        {
            "identity": "prop2", "m": {"min": 1, "max": 4}, "n": [3, 4, 6], "r": [0, 1], "p": [0, 1],
            "lambdas": ["2", "-1", "5/7"], "sequences": ["fourier-dedekind:a=1,c0=1/2", "random:1"],
            "perturb_index": 77,
        },
        "bd6ce688af34f84a97334b32c80b12bb1023d769c25b9aa8f4c12155ccf43e56",
        {"pass": 223, "fail": 1, "skipped": 64},
    ),
    (
        {"identity": "prop1", "n": [24, 32, 48], "r": [0, 1, 2], "sequences": ["random:2", "fourier-dedekind:a=1"]},
        "9f8c0fce39e80a24be7d0f3842764fe4af33052c3aa7dabe6e081404d38b7c2f",
        {"pass": 27, "fail": 0, "skipped": 0},
    ),
]


@pytest.mark.parametrize("grid, digest, summary", IRRATIONAL_SEQUENCE_REPORTS, ids=("prop1", "prop2", "prop1-large-n"))
def test_irrational_sequence_reports_are_pinned(grid, digest, summary):
    spec = GridSpec.from_json(grid)
    report = build_report(grid["identity"], run_grid(spec, workers=1), [spec])
    assert report["summary"] == summary
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest


# gseries past its default grid: an irrational lambda (both branches of the
# right side), lambda = 0 (only R_0 is weighted, 0^0 = 1), lambda = 1 and
# T = 10 on n = 2 .. 12.  Measured with the right side summed as whole
# weighted R_j series; each is `cyclosum verify --identity gseries --grid`.
GSERIES_REPORTS = [
    (
        {
            "identity": "gseries", "n": [4], "r": [0, 1], "p": [0, 1],
            "lambdas": [{"level": 4, "coeffs": ["1", "1"]}, "0", "1", "-3/4"],
            "sequences": ["delta", "ramanujan", "random:2"], "T": 5,
        },
        "0c49c2ea1eb4ad8f059ce4ee07a30b7a2d6f23caf96740a09c87e00dc19bf9db",
        {"pass": 64, "fail": 0, "skipped": 0},
    ),
    (
        {
            "identity": "gseries", "n": {"min": 2, "max": 12}, "r": [0, 3], "p": [-1, 2],
            "lambdas": ["1", "2", "-1/2", "5/7"], "sequences": ["random:1", "fourier-dedekind:a=1"], "T": 10,
        },
        "f489fd39592d8f3aa5892d81a17893bbcb0f4e0a6cd55aa4566b5bdb55c447d6",
        {"pass": 352, "fail": 0, "skipped": 0},
    ),
]


@pytest.mark.parametrize("grid, digest, summary", GSERIES_REPORTS, ids=("irrational-lambda", "wide"))
def test_gseries_reports_are_pinned(grid, digest, summary):
    spec = GridSpec.from_json(grid)
    report = build_report("gseries", run_grid(spec, workers=1), [spec])
    assert report["summary"] == summary
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest


def test_default_grids_cover_all_identities():
    assert set(IDENTITIES) == {"prop1", "prop2", "mult", "section4", "moebius", "gseries"}
    for ident in IDENTITIES:
        spec = default_grid(ident)
        assert spec.identity == ident
        assert spec.seed == DEFAULT_SEED
        spec.validate()


def test_grid_echo_roundtrips():
    irrational = {"identity": "mult", "m": [1], "n": [3], "lambdas": [{"level": 3, "coeffs": ["2", "1"]}]}
    for spec in (default_grid("gseries"), GridSpec.from_json(irrational)):
        again = GridSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
