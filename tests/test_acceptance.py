"""Acceptance criteria, one test per criterion.

Each test prints one ACCEPTANCE line outside the capture (capsys.disabled)
so a teed run shows the verdict per criterion regardless of verbosity.
"""
import cmath
import time
from fractions import Fraction
from math import comb, gcd

from cyclosum.appell import (
    apostol_bernoulli,
    frobenius_euler,
    series_oracle_B,
    series_oracle_H,
)
from cyclosum.arith import euler_phi, moebius
from cyclosum.cli import main
from cyclosum.cyclotomic import normalize_scalar, zeta_pow
from cyclosum.dedekind import e_sum, ramanujan_sum, v_sum
from cyclosum.spectra import family
from cyclosum.verify import default_grid, run_grid


def record(capsys, num: int, name: str, fn) -> None:
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failed criterion, not an error
        ok, detail = False, repr(exc)
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): {verdict}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def campaign(identity: str, budget: float | None = None):
    start = time.perf_counter()
    cases = run_grid(default_grid(identity), workers=1)
    elapsed = time.perf_counter() - start
    fails = [c for c in cases if c.status == "fail"]
    if fails:
        c = fails[0]
        return False, f"{len(fails)} failures, first at {c.params}: {c.reason}"
    if budget is not None and elapsed > budget:
        return False, f"{elapsed:.1f}s exceeds the {budget:.0f}s budget"
    return True, f"{len(cases)} cases in {elapsed:.1f}s"


def test_criterion_1_interpolation(capsys):
    def go():
        ok, detail = campaign("prop1", budget=10.0)
        return ok and "2800 cases" in detail, detail

    record(capsys, 1, "interpolation vs Lagrange", go)


def test_criterion_2_main_identity_grid(capsys):
    def go():
        ok, detail = campaign("prop2", budget=300.0)
        return ok and "16800 cases" in detail, detail

    record(capsys, 2, "Dedekind-sum multiplication identity", go)


def test_criterion_3_multiplication_formula(capsys):
    record(capsys, 3, "delta reduction to multiplication formula", lambda: campaign("mult"))


def test_criterion_4_dual_route_polynomials(capsys):
    def go():
        for lam in (1, 2, Fraction(-1, 2)):
            series = series_oracle_B(10, lam)
            for m in range(11):
                if series[m] != apostol_bernoulli(m, lam):
                    return False, f"B route split at m={m}, lambda={lam}"
        for n in range(2, 9):
            for k in range(1, n):
                gamma = zeta_pow(n, -k)
                for p in (-1, 0, 1, 2):
                    for lam in (1, 2, Fraction(-1, 2)):
                        series = series_oracle_H(10, p, lam, gamma)
                        for m in range(11):
                            if series[m] != frobenius_euler(m, p, lam, gamma):
                                return False, (
                                    f"H route split at m={m}, p={p}, "
                                    f"lambda={lam}, gamma=zeta_{n}^-{k}"
                                )
        return True, ""

    record(capsys, 4, "recurrence vs series extraction", go)


def test_criterion_5_series_chain(capsys):
    record(capsys, 5, "generating-series chain at T=8", lambda: campaign("gseries"))


def test_criterion_6_closed_form_and_power_sums(capsys):
    def go():
        ok, detail = campaign("section4")
        if not ok:
            return ok, detail
        for n in range(2, 21):
            if v_sum(n, 0, 1) != euler_phi(n):
                return False, f"V_{n}^(0)(1) != phi({n})"
            if v_sum(n, 1, 1) != Fraction(n * euler_phi(n), 2):
                return False, f"V_{n}^(1)(1) != {n}*phi({n})/2"
        return True, detail

    record(capsys, 6, "unit-row closed form and totative sums", go)


def test_criterion_7_ramanujan_facts(capsys):
    def go():
        for n in range(1, 21):
            if ramanujan_sum(n, 0) != euler_phi(n):
                return False, f"c_{n}(0) != phi({n})"
            if ramanujan_sum(n, 1) != moebius(n):
                return False, f"c_{n}(1) != mu({n})"
            for k in range(n):
                g = gcd(k, n) if k else n
                want = Fraction(moebius(n // g) * euler_phi(n), euler_phi(n // g))
                if ramanujan_sum(n, k) != want:
                    return False, f"Hoelder mismatch at n={n}, k={k}"
        ok, detail = campaign("moebius")
        return ok, detail

    record(capsys, 7, "Ramanujan columns, Hoelder form, Moebius interpolation", go)


def _h_complex(m: int, p: int, lam: complex, gamma: complex, q0: complex) -> complex:
    # same recurrence as the exact route, in plain complex arithmetic
    hs: list[complex] = []
    scale = (1 - gamma) ** p
    for mm in range(m + 1):
        acc = sum(comb(mm, i) * hs[i] for i in range(mm))
        hs.append((scale * q0 ** mm - lam * acc) / (lam - gamma))
    return hs[m]


def _e_complex(m: int, n: int, r: int, a: int, variant: str, q0: complex) -> complex:
    total = 0j
    for k in range(1, n):
        zk = cmath.exp(2j * cmath.pi * k / n)
        if variant == "fourier":
            weight = 1 / (1 - cmath.exp(2j * cmath.pi * a * k / n))
        else:
            weight = 1 / (1 - cmath.exp(-2j * cmath.pi * a * k / n))
        h = _h_complex(m - 1, 1, 1, 1 / zk, q0)
        total += zk ** (-r) * h * weight / (1 - zk)
    return total


def test_criterion_8_classical_instances_are_rational(capsys):
    def go():
        for n in range(2, 13):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                four = family("fourier-dedekind", n, a=a)
                for r in range(n):
                    poly = e_sum(1, n, r, 1, 1, four)
                    if poly.level != 1:
                        return False, f"irrational Fourier case n={n}, a={a}, r={r}"
                    exact = float(poly.eval_at(0))
                    approx = _e_complex(1, n, r, a, "fourier", 0j)
                    if abs(exact - approx) > 1e-9 * max(1.0, abs(approx)):
                        return False, f"float drift n={n}, a={a}, r={r}"
                apo = family("apostol-dedekind", n, a=a)
                for m in range(2, 7):
                    value = normalize_scalar(e_sum(m, n, 0, 1, 1, apo).eval_at(0))
                    if not isinstance(value, Fraction):
                        return False, f"irrational Apostol case n={n}, a={a}, m={m}"
                    approx = _e_complex(m, n, 0, a, "apostol", 0j)
                    if abs(float(value) - approx) > 1e-9 * max(1.0, abs(approx)):
                        return False, f"float drift n={n}, a={a}, m={m}"
        return True, ""

    record(capsys, 8, "classical instances rational and float-checked", go)


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    def go():
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            code = main(
                [
                    "verify",
                    "--identity",
                    "all",
                    "--seed",
                    "1009",
                    "--workers",
                    "4",
                    "--out",
                    str(path),
                ]
            )
            if code != 0:
                return False, f"campaign exited {code}"
        capsys.readouterr()
        one, two = paths[0].read_bytes(), paths[1].read_bytes()
        if one != two:
            return False, "reports differ between same-seed runs"
        return True, f"{len(one)} bytes, identical"

    record(capsys, 9, "same-seed campaigns byte-identical", go)
