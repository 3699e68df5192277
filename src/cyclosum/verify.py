"""Theorem-checkers for the package's identities, plus the grid campaign
runner and report serialization.

Every checker builds both sides of one identity through independent code
paths and returns them as (reason, lhs, rhs) comparisons.  The runner
calls it once per key, the values a case's comparisons depend on, and its
judge decides each case: it compares canonical forms exactly (a pass is an
algebraic equality, never a tolerance check) and records a parameter
collision (lambda hitting a root of unity that the sum divides by) as
skipped; any comparison whose sides differ is a failure.

A campaign lays out each grid's cases in report order, by parameter, in
one pass, and judges one work list of key groups over all its grids,
serially or by one process pool.  Random sequences are derived from the
grid seed alone, and neither execution order nor time shows in a report,
so two runs with the same seed are byte-identical.
"""
from __future__ import annotations

import csv
import inspect
import io
import json
import os
import random
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from itertools import chain, count, groupby, islice, product, repeat, starmap
from math import factorial, gcd, lcm
from operator import itemgetter

from .appell import apostol_bernoulli, apostol_bernoulli_number
from .arith import divisors, euler_phi, moebius, totatives
from .cyclotomic import format_scalar, normalize_scalar, scalar_from_json
from .dedekind import check_e_sum_args, e_sum, g_series_oracle, scaled_e_sum, v_sum
from .errors import InvalidGrid, InvalidParam, ParameterCollision, SequenceFileError
from .qpoly import QPoly, _build, geometric_block, matrix_product, sum_of_products, value_columns
from .scalars import parse_int
from .series import t_over_exp_affine, times_exp
from .spectra import (PeriodicSeq, SpectralSeq, dft_inverse, family, interp_poly, lagrange_oracle,
                      load_sequence, parse_family)

DEFAULT_SEED = 1009


@dataclass(slots=True)
class IdentityCase:
    identity: str
    params: dict
    status: str  # pass | fail | skipped
    reason: str | None = None
    lhs: str | None = None
    rhs: str | None = None

    def to_json(self) -> dict:
        out = {"identity": self.identity, "params": self.params, "status": self.status}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        return out

    def sort_key(self) -> tuple:
        # the values by sorted param name: ints, ordered numerically, or text
        return (self.identity, *[self.params[k] for k in sorted(self.params)])


# What a checker returns: (reason, lhs, rhs) comparisons in the order they
# are judged, reason None where one comparison is the whole identity.
Comparisons = tuple[tuple[str | None, QPoly, QPoly], ...]


def check_prop1(c_seq: PeriodicSeq, r: int) -> Comparisons:
    """Spectrum path vs Lagrange path for the interpolation polynomial."""
    return ((None, interp_poly(dft_inverse(c_seq), r), lagrange_oracle(c_seq, r)),)


def _shift_table(b: QPoly, n: int) -> tuple[list[list[int]], int]:
    """The numerators of b(q + j/n), j < n, over one denominator: entry j
    holds those of q^0, q^1, ... row after row, phi(level) to a row.

    With b_k the numerators of q^k over D, top = deg b and
    Q(y) = sum_k b_k n^(top-k) y^k, the polynomial Q(nq + j) is
    D n^top b(q + j/n), so the numerators of q^i over D n^top are n^i times
    coefficient i of Q(y + j).  Q(y + j) is a Taylor shift of Q(y + j - 1)
    by 1, which takes additions only; each coordinate is shifted alone."""
    top = len(b.rows) - 1
    coords = [[v * n ** (top - k) for k, v in enumerate(col)] for col in zip(*b.rows)]
    powers = [n**i for i in range(top + 1)]
    table = []
    for j in range(n):
        if j:
            for c in coords:
                for i in range(top):
                    for k in range(top - 1, i - 1, -1):
                        c[k] += c[k + 1]
        table.append([c[i] * powers[i] for i in range(top + 1) for c in coords])
    return table, b.den * n ** max(top, 0)


def _shift_basis(first: QPoly, b: QPoly, n: int, f: int, lam):
    """`first` and the columns f lam^j b(q + j/n), j < n, of _shift_table(b, n),
    which C_0 and the K_{j-s} weight in a right side.  At a rational lam = a/c
    as poly_rows lays them out, content divided out: over den c^(n-1), column
    j has the table's numerators times f a^j c^(n-1-j), and `first` has at
    most as many rows as the table.  At any other lam (first, the columns)."""
    table, den = _shift_table(b, n)
    if not isinstance(lam, Fraction):
        return first, tuple(_build(b.level, flat, den) * (f * lam**j) for j, flat in enumerate(table))
    a, c = lam.numerator, lam.denominator
    den *= c ** (n - 1)
    common = lcm(den, first.den)
    f, g = f * (common // den), common // first.den
    cols = [[row[0] * g for row in first.rows] + [0] * (len(table[0]) - len(first.rows))]
    cols += [[v * (f * a**j * c ** (n - 1 - j)) for v in col] for j, col in enumerate(table)]
    content = gcd(common, *chain.from_iterable(cols))
    return tuple(zip(*[[v // content for v in col] for col in cols])), common // content


@lru_cache(maxsize=1024)
def _basis_matrix(m: int, n: int, lam):
    """The prop2 right-side basis of (m, n, lam) as _shift_basis gives it:
    A = B_m(nq, lam), then -n^m V_j with V_j = lam^j B_m(q + j/n, lam^n).
    A has at most as many rows as B_m(q, lam^n): fewer only when
    lam != 1 = lam^n, where the degrees are m - 1 and m."""
    return _shift_basis(apostol_bernoulli(m, lam).scale_arg(n), apostol_bernoulli(m, lam**n), n, -(n**m), lam)


@lru_cache(maxsize=1024)
def _spectrum_matrix(c_seq: PeriodicSeq, kseq: SpectralSeq, s: int):
    """C_0 and the spectrum K of C rotated by s, as value_columns lays them
    out: column t holds coordinate t of C_0, K_{-s}, K_{1-s}, ..., K_{n-1-s}.
    Keyed on C as well as K, whose hashes are cached, instead of on C_0."""
    return value_columns((c_seq[0], *(kseq[j - s] for j in range(kseq.n))))


def _spectrum_products(n: int, lam, bases, c_seq: PeriodicSeq, s: int) -> list[QPoly]:
    """C_0 first + sum_j K_{j-s} column_j for each _shift_basis in `bases`, K
    the spectrum of C, read once: at a rational lam one matrix_product with
    _spectrum_matrix(C, K, s) each, at any other lam one sum_of_products."""
    kseq = dft_inverse(c_seq)
    if isinstance(lam, Fraction):
        spectrum = _spectrum_matrix(c_seq, kseq, s)
        return [matrix_product(n, basis, spectrum) for basis in bases]
    weights = (c_seq[0], *(kseq[j - s] for j in range(n)))
    return [sum_of_products(zip(repeat(1), (first, *columns), weights)) for first, columns in bases]


def check_prop2(m: int, n: int, r: int, p: int, lam, c_seq: PeriodicSeq) -> Comparisons:
    """(-1)^(p-1) m E(nq) against C_0 B_m(nq) - n^m sum_j K_{j-r-p+1} lam^j B_m(q+j/n, lam^n).

    The sides are scaled_e_sum and the _spectrum_products of _basis_matrix:
    at a rational lam, each one product of cached matrices."""
    lam = check_e_sum_args(m, n, lam, c_seq)
    lhs = scaled_e_sum(m, n, (r + p) % n, lam, c_seq)
    [rhs] = _spectrum_products(n, lam, [_basis_matrix(m, n, lam)], c_seq, (r + p - 1) % n)
    return ((None, lhs, rhs),)


def check_mult_formula(m: int, n: int, lam) -> Comparisons:
    """B_m(nq, lam) = n^(m-1) sum_j lam^j B_m(q + j/n, lam^n), summed over the
    columns of _shift_table, uncached: mult's cases never repeat a key."""
    lam = normalize_scalar(lam)
    b, c = apostol_bernoulli(m, lam**n), Fraction(n) ** (m - 1)
    table, den = _shift_table(b, n)
    rhs = sum_of_products([(c, _build(b.level, flat, den), lam**j) for j, flat in enumerate(table)])
    return ((None, apostol_bernoulli(m, lam).scale_arg(n), rhs),)


def check_section4_closed_form(m: int, n: int, r: int, p: int, lam) -> Comparisons:
    """The r+p=1 specialization with ramanujan weights, assembled from
    Bernoulli numbers and totative power sums on the right side."""
    if r + p != 1:
        raise ValueError("closed form requires r + p = 1")
    c_seq = family("ramanujan", n)
    lam = check_e_sum_args(m, n, lam, c_seq)
    # (-1)^(p-1) m e_sum(nq), the left side of prop2 at r + p = 1
    lhs = scaled_e_sum(m, n, 1, lam, c_seq)
    lam_n = lam**n
    terms = [(euler_phi(n), apostol_bernoulli(m, lam).scale_arg(n), 1)]
    for i in range(m + 1):
        b_i = apostol_bernoulli_number(i, lam_n)
        if not b_i:
            continue
        for k in range(m - i + 1):
            coeff = Fraction(
                n ** (m - k) * factorial(m),
                factorial(i) * factorial(k) * factorial(m - i - k),
            )
            terms.append((-coeff, QPoly.monomial(m - i - k, b_i), v_sum(n, k, lam)))
    return ((None, lhs, sum_of_products(terms)),)


def check_moebius_interp(n: int) -> Comparisons:
    """The totative indicator polynomial four ways: direct, spectral, and
    the two divisor-sum forms built by exact division."""
    coeffs = [0] * n
    for j in totatives(n):
        if j < n:
            coeffs[j] = 1
    direct = QPoly(coeffs)
    spectral = interp_poly(dft_inverse(family("ramanujan", n)), 0)
    terms1, terms2 = [], []
    for d in divisors(n):
        mu = moebius(d)
        if mu:
            block = geometric_block(n, d)
            terms1.append((mu, block, 1))
            terms2.append((mu, block, QPoly.monomial(d)))
    f1, f2 = sum_of_products(terms1), sum_of_products(terms2)
    return tuple(
        (f"{label} form disagrees with the totative indicator", direct, other)
        for label, other in (("divisor-sum", f1), ("spectral", spectral), ("divisor-sum-shifted", f2))
    )


@lru_cache(maxsize=256)
def _gseries_bases(n: int, lam, order: int) -> tuple[tuple[QPoly, ...], tuple]:
    """The coefficients up to t^order of the gseries bases, lam normalized:
    L = t e^{nqt} / (lam e^t - 1), and R_j = n lam^j e^{jt} P, j < n, with
    P = e^{nqt} t / (lam^n e^{nt} - 1), as _shift_basis gives them behind the
    zero polynomial, which C_0 weights.  L and P are expanded at c = n; e^{jt} P
    is P at q + j/n, so R_j[m] is column j of _shift_table(P_m, n) times n lam^j."""
    left = times_exp(t_over_exp_affine(lam, 1, order).coeffs, n)
    right = times_exp(t_over_exp_affine(normalize_scalar(lam**n), n, order).coeffs, n)
    return left, tuple(_shift_basis(QPoly(), pm, n, n, lam) for pm in right)


def check_gseries_chain(n: int, r: int, p: int, lam, c_seq: PeriodicSeq, order: int) -> Comparisons:
    """The generating-series identity chain, modulo t^(order+1).

    Three layers in one case: the series identity tying C_0/(lam e^t - 1),
    the G series and the K-weighted right side together; the G coefficients
    against e_sum at shifted index; and the t-shifted chain coefficients
    against m times e_sum at nq.

    The series sides are lhs = C_0 L + (-1)^p tg, one sum_of_products per
    coefficient, and rhs = sum_j K_{j-(r+p-1)} R_j, the _spectrum_products
    of the R_j as prop2's right side is of its basis, with L and the R_j
    from _gseries_bases.  tg = t g e^{(n-1)qt}: tg[m] is m times
    coefficient m - 1 of g expanded at c = n - 1.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    g = g_series_oracle(n, r, p, lam, c_seq, order)
    lam = normalize_scalar(lam)
    left, right = _gseries_bases(n, lam, order)
    tg = [QPoly(), *(m * x for m, x in enumerate(times_exp(g.coeffs[:-1], n - 1), 1))]
    sign, c0 = -1 if p % 2 else 1, c_seq[0]
    lhs = [sum_of_products(((1, lm, c0), (sign, tm, 1))) for lm, tm in zip(left, tg)]
    rhs = _spectrum_products(n, lam, right, c_seq, (r + p - 1) % n)
    # sums[i] is the index-(i + 1) sum: both chains read indices 1 .. order + 1
    sums = [e_sum(i, n, r, p, lam, c_seq) for i in range(1, order + 2)]
    return (
        *((f"series sides differ at coefficient {m}", lhs[m], rhs[m]) for m in range(order + 1)),
        *((f"G coefficient {m} differs from the index-{m + 1} sum", g[m], sums[m]) for m in range(order + 1)),
        *(
            (f"t-shifted chain coefficient {m} differs from m times the index-{m} sum",
             tg[m], sums[m - 1].scale_arg(n, m))
            for m in range(1, order + 1)
        ),
    )


@dataclass(frozen=True)
class _Identity:
    """What the campaign runner knows about one identity."""

    checker: Callable[..., Comparisons]
    axes: tuple[str, ...]  # GridSpec axes, outermost first: this is the job order
    # (GridSpec field or fixed values, the report field(s) a value gives), by
    # sorted field name: a case's params, and the order of the report
    fields: tuple[tuple, ...]
    # (a case's field values in fields order, a lambda as its value's id and a
    # sequence as {n: its value's id at n}) -> the values its comparisons use
    key: Callable[..., tuple]
    least: dict[str, int]  # smallest value of an axis that the checker accepts
    defaults: dict  # GridSpec fields of the default (acceptance) grid


_IDENTITY_TABLE = {
    "prop1": _Identity(
        check_prop1,
        axes=("n", "r", "sequences"),
        fields=(("n", "n"), ("r", "r"), ("sequences", "seq")),
        key=lambda n, r, seq: (seq[n], r % n),
        least={"n": 2},
        defaults=dict(n=tuple(range(2, 9)), r=tuple(range(-2, 6)), sequences=("random:50",)),
    ),
    "prop2": _Identity(
        check_prop2,
        axes=("m", "n", "r", "p", "lambdas", "sequences"),
        fields=(("lambdas", "lambda"), ("m", "m"), ("n", "n"), ("p", "p"), ("r", "r"), ("sequences", "seq")),
        # the left side is -m E_s(nq) for every p, as e_sum carries (-1)^p
        key=lambda lam, m, n, p, r, seq: (m, n, (r + p) % n, lam, seq[n]),
        least={"m": 1, "n": 2},
        defaults=dict(
            m=tuple(range(1, 7)), n=tuple(range(2, 9)), r=tuple(range(0, 4)), p=(-1, 0, 1, 2),
            lambdas=(Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3), Fraction(5, 7)),
            sequences=("delta", "ramanujan", "random:3"),
        ),
    ),
    "mult": _Identity(
        check_mult_formula,
        axes=("m", "n", "lambdas"),
        fields=(("lambdas", "lambda"), ("m", "m"), ("n", "n")),
        key=lambda lam, m, n: (m, n, lam),
        least={"m": 0, "n": 1},
        defaults=dict(
            m=tuple(range(1, 7)), n=tuple(range(2, 9)),
            lambdas=(Fraction(1), Fraction(2), Fraction(-1, 2)),
        ),
    ),
    "section4": _Identity(
        check_section4_closed_form,
        axes=("m", "n", "rp_pairs", "lambdas"),
        fields=(("lambdas", "lambda"), ("m", "m"), ("n", "n"), ("rp_pairs", ("p", "r")), (("ramanujan",), "seq")),
        key=lambda lam, m, n, rp, seq: (m, n, lam),  # r + p = 1, as in prop2
        least={"m": 1, "n": 2},
        defaults=dict(
            m=tuple(range(1, 6)), n=(2, 3, 4, 6), rp_pairs=((1, 0), (0, 1), (-1, 2)),
            lambdas=(Fraction(2), Fraction(-1, 2)),
        ),
    ),
    "moebius": _Identity(
        check_moebius_interp,
        axes=("n",),
        fields=(("n", "n"),),
        key=lambda n: (n,),
        least={"n": 2},
        defaults=dict(n=tuple(range(2, 13))),
    ),
    "gseries": _Identity(
        check_gseries_chain,
        axes=("n", "r", "p", "lambdas", "sequences"),
        fields=(("order", "T"), ("lambdas", "lambda"), ("n", "n"), ("p", "p"), ("r", "r"), ("sequences", "seq")),
        # no reason text names r or p
        key=lambda order, lam, n, p, r, seq: (n, (r + p) % n, p % 2, lam, seq[n], order),
        least={"n": 2},
        defaults=dict(
            n=(2, 3, 4, 6), r=(0, 2), p=(-1, 0, 1, 2),
            lambdas=(Fraction(1), Fraction(2), Fraction(-1, 2)), sequences=("random:1",),
        ),
    ),
}

IDENTITIES = tuple(_IDENTITY_TABLE)

# Looked up at call time, so that a wrapper stored here sees every case.
_CHECKERS = {name: row.checker for name, row in _IDENTITY_TABLE.items()}
# The keyword arguments a key group ships to its checker, read once per row.
_PARAMETERS = {name: tuple(inspect.signature(row.checker).parameters) for name, row in _IDENTITY_TABLE.items()}


@dataclass
class GridSpec:
    """Cartesian parameter grid for one identity's campaign."""

    identity: str
    m: tuple[int, ...] = ()
    n: tuple[int, ...] = ()
    r: tuple[int, ...] = ()
    p: tuple[int, ...] = ()
    rp_pairs: tuple[tuple[int, int], ...] = ()
    lambdas: tuple = ()
    sequences: tuple[str, ...] = ()
    order: int = 8
    seed: int = DEFAULT_SEED
    perturb_index: int | None = None  # test-only mutation hook

    def validate(self) -> None:
        row = _IDENTITY_TABLE.get(self.identity)
        if row is None:
            raise InvalidGrid(f"unknown identity {self.identity!r}")
        for axis in row.axes:
            if not getattr(self, axis):
                raise InvalidGrid(f"{self.identity} grid needs a nonempty {axis} axis")
        for axis in ("m", "n", "r", "p", "rp_pairs", "lambdas", "sequences"):
            if getattr(self, axis) and axis not in row.axes:
                raise InvalidGrid(f"{self.identity} grid has a {axis} axis, which {self.identity} does not read")
        for axis, least in row.least.items():
            for v in getattr(self, axis):
                if v < least:
                    raise InvalidGrid(f"{self.identity} grid axis {axis} needs values >= {least}, got {v}")
        if self.identity == "section4" and any(r + p != 1 for r, p in self.rp_pairs):
            raise InvalidGrid("section4 grid requires r + p = 1 in every pair")
        if "order" in _PARAMETERS[self.identity] and self.order < 1:
            raise InvalidGrid(f"{self.identity} grid needs order >= 1")

    @classmethod
    def from_json(cls, obj: dict, identity: str | None = None) -> GridSpec:
        if not isinstance(obj, dict):
            raise InvalidGrid("grid spec must be a JSON object")
        readers = {"m": _int_axis, "n": _int_axis, "r": _int_axis, "p": _int_axis, "rp_pairs": _pair_axis,
                   "lambdas": _lambda_axis, "sequences": _seq_axis, "perturb_index": _int_field}
        unknown = set(obj) - set(readers) - {"identity", "T", "seed"}
        if unknown:
            raise InvalidGrid(f"unknown grid fields: {sorted(unknown)}")
        ident = obj.get("identity", identity)
        if ident is None:
            raise InvalidGrid("grid spec does not name an identity")
        if identity is not None and obj.get("identity") not in (None, identity):
            raise InvalidGrid(f"grid identity {obj['identity']!r} contradicts requested {identity!r}")
        spec = cls(
            identity=ident,
            **{field: read(obj[field], field) for field, read in readers.items() if obj.get(field) is not None},
            order=_int_field(obj.get("T", 8), "T", minimum=0),
            seed=_int_field(obj.get("seed", DEFAULT_SEED), "seed"),
        )
        spec.validate()
        if "T" in obj and "order" not in _PARAMETERS[ident]:
            raise InvalidGrid(f"{ident} grid has a T, which {ident} does not read")
        return spec

    def to_json(self) -> dict:
        out: dict = {"identity": self.identity, "seed": self.seed}
        for axis in ("m", "n", "r", "p", "sequences"):
            if getattr(self, axis):
                out[axis] = list(getattr(self, axis))
        if self.rp_pairs:
            out["rp_pairs"] = [list(pair) for pair in self.rp_pairs]
        if self.lambdas:
            # in the forms _lambda_axis reads back
            out["lambdas"] = [format_scalar(v) if isinstance(normalize_scalar(v), Fraction) else v.to_json()
                              for v in self.lambdas]
        if "order" in _PARAMETERS[self.identity]:
            out["T"] = self.order
        return out


def _is_int(x) -> bool:
    # JSON true and false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _int_axis(v, name: str) -> tuple[int, ...]:
    if isinstance(v, dict) and set(v) == {"min", "max"}:
        lo, hi = v["min"], v["max"]
        if not (_is_int(lo) and _is_int(hi) and lo <= hi):
            raise InvalidGrid(f"bad range for axis {name}: {v!r}")
        return tuple(range(lo, hi + 1))
    if isinstance(v, list) and v and all(_is_int(x) for x in v):
        return tuple(v)
    raise InvalidGrid(f"axis {name} must be a nonempty integer list or a min/max range, got {v!r}")


def _pair_axis(v, name: str) -> tuple[tuple[int, int], ...]:
    if isinstance(v, list) and all(isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)) for x in v):
        return tuple((x[0], x[1]) for x in v)
    raise InvalidGrid(f"rp_pairs must be a list of [r, p] integer pairs, got {v!r}")


def _lambda_axis(v, name: str) -> tuple:
    if not isinstance(v, list):
        raise InvalidGrid("lambdas must be a list")
    try:
        return tuple(scalar_from_json(item) for item in v)
    except ValueError as exc:
        raise InvalidGrid(f"bad lambda entry: {exc}") from exc


def _seq_axis(v, name: str) -> tuple[str, ...]:
    if isinstance(v, list) and all(isinstance(x, str) for x in v):
        return tuple(v)
    raise InvalidGrid("sequences must be a list of descriptor strings")


def _int_field(v, name: str, minimum: int | None = None) -> int:
    if not _is_int(v) or (minimum is not None and v < minimum):
        raise InvalidGrid(f"bad {name}: {v!r}")
    return v


def random_sequence(n: int, seed: int, index: int) -> PeriodicSeq:
    """The index-th seeded random rational sequence of period n.  Entirely
    determined by (seed, index, n), independent of draw order elsewhere."""
    rng = random.Random(f"{seed}:random-{index}:{n}")
    vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    return PeriodicSeq(n, vals)


def resolve_sequences(descs: tuple[str, ...], n: int, seed: int, identity: str = "") -> list[tuple[str, PeriodicSeq]]:
    """Expand descriptors into (label, sequence) pairs at period n.

    A random count that is not a positive integer, or an index that is not
    an integer, each in ASCII digits, raises InvalidGrid, and a file whose
    period is not n raises SequenceFileError; both name the descriptor.
    """
    out: list[tuple[str, PeriodicSeq]] = []
    for desc in descs:
        if desc.startswith(("random:", "random-")):
            try:
                k = parse_int(desc[7:])
            except ValueError:
                msg = f"sequence {desc!r} needs an integer after {desc[:7]!r}"
                raise InvalidGrid(msg) from None
            if desc[6] == ":":
                if k < 1:
                    raise InvalidGrid(f"sequence {desc!r} needs a positive count")
                out.extend((f"random-{i}", random_sequence(n, seed, i)) for i in range(1, k + 1))
            else:
                out.append((desc, random_sequence(n, seed, k)))
        elif desc.startswith("file:"):
            seq = load_sequence(desc[5:])
            if seq.n != n:
                raise SequenceFileError(f"sequence {desc!r} has period {seq.n}, but n = {n}")
            out.append((desc, seq))
        else:
            name, params = parse_family(desc)
            if identity == "prop2" and name in ("fourier-dedekind", "apostol-dedekind") and "c0" not in params:
                raise InvalidParam(f"family {name} leaves C_0 unspecified, but prop2 reads C_0; "
                                   f"append c0=... to the descriptor")
            out.append((desc, family(name, n, **params)))
    return out


def _axis_values(spec: GridSpec) -> tuple[dict, dict]:
    """The sequences resolved once per n, {n: [(label, seq)]}, and each axis's
    values; the sequences axis runs over positions in the per-n lists."""
    row = _IDENTITY_TABLE[spec.identity]
    seqs = {}
    if "sequences" in row.axes:
        seqs = {n: resolve_sequences(spec.sequences, n, spec.seed, spec.identity) for n in spec.n}
    values = {axis: range(len(seqs[spec.n[0]])) if axis == "sequences" else getattr(spec, axis) for axis in row.axes}
    return seqs, values


def _job(row: _Identity, spec: GridSpec, seqs: dict, point, names: tuple[str, ...]) -> dict:
    """The checker kwargs `names` at one point: one value per axis,
    outermost first."""
    at = dict(zip(row.axes, point), order=spec.order)
    if "lambdas" in at:
        at["lam"] = at["lambdas"]
    if "rp_pairs" in at:
        at["r"], at["p"] = at["rp_pairs"]
    if "sequences" in at:
        at["seq_desc"], at["c_seq"] = seqs[at["n"]][at["sequences"]]
    return {k: at[k] for k in names}


def _enumerate_jobs(spec: GridSpec):
    """One checker kwargs dict per case in job order, which perturb_index
    counts in: the product of the axes, outermost first.  A case with a
    sequence also names it, as seq_desc, which no checker reads."""
    row = _IDENTITY_TABLE[spec.identity]
    seqs, values = _axis_values(spec)
    names = _PARAMETERS[spec.identity] + (("seq_desc",) if "sequences" in row.axes else ())
    return (_job(row, spec, seqs, point, names) for point in product(*values.values()))


def _walk(spec: GridSpec) -> tuple[list[dict], list[int], dict[int, tuple[dict, bool]], int | None]:
    """One grid's cases in report order, unjudged: each case's params, the
    position of the first case of its key (its group), each group's checker
    kwargs and whether it holds the perturbed case by that position, and the
    perturbed position.

    Each field's values are labelled, interned and sorted by label once; the
    product of the fields is then the order that sort_key gives.  Cases with
    equal labels keep their job order."""
    spec.validate()
    row = _IDENTITY_TABLE[spec.identity]
    seqs, values = _axis_values(spec)
    strides, size = {}, 1  # a job's index is the sum of axis position times stride
    for axis in reversed(row.axes):
        strides[axis], size = size, size * len(values[axis])
    index = spec.perturb_index
    if index is not None and not 0 <= index < size:
        raise InvalidGrid(f"perturb_index {index} is outside 0 .. {size - 1}: the grid has {size} cases")
    lams, seq_ids, columns = {}, {}, []
    for src, field in row.fields:
        vals = src if isinstance(src, tuple) else values[src] if src in values else (getattr(spec, src),)
        if src == "lambdas":
            cells = [(format_scalar(v), lams.setdefault(normalize_scalar(v), len(lams))) for v in vals]
        elif src == "sequences":
            cells = [(seqs[spec.n[0]][j][0], {n: seq_ids.setdefault(seqs[n][j][1], len(seq_ids)) for n in spec.n})
                     for j in vals]
        else:  # an (r, p) pair is labelled p, r
            cells = [((v[1], v[0]) if src == "rp_pairs" else v, v) for v in vals]
        columns.append(sorted([(*c, i * strides.get(src, 0)) for i, c in enumerate(cells)], key=itemgetter(0)))
    # per case: the labels, the key values and the terms of the job index
    labels, keys, terms = (product(*[[c[k] for c in col] for col in columns]) for k in range(3))
    if any(a[0] == b[0] for col in columns for a, b in zip(col, col[1:])):
        ties = [[list(same) for _, same in groupby(col, itemgetter(0))] for col in columns]
        labels, keys, terms = zip(*(tuple(zip(*point)) for cell in product(*ties)
                                    for point in sorted(product(*cell), key=lambda pt: sum(c[2] for c in pt))))
    names, by_key = [field for _, field in row.fields], {}
    params = [*map(dict, map(zip, repeat(names), labels))]
    groups = [*map(by_key.setdefault, starmap(row.key, keys), count())]
    jobs = [*map(sum, terms)]
    for field in (f for f in names if isinstance(f, tuple)):  # rp_pairs: one value, two labels
        for p in params:
            p.update(zip(field, p.pop(field)))
    perturbed = None if index is None else jobs.index(index)
    hit = None if index is None else groups[perturbed]
    units = {}
    for first in by_key.values():
        point = [values[a][jobs[first] // strides[a] % len(values[a])] for a in row.axes]
        units[first] = _job(row, spec, seqs, point, _PARAMETERS[spec.identity]), first == hit
    return params, groups, units, perturbed


_PASS = ("pass",)


def _verdict(comparisons: Comparisons, perturb: bool = False) -> tuple:
    """("pass",), or ("fail", reason, lhs, rhs) for the first comparison
    whose sides differ; perturb adds 1 to the first rhs."""
    for i, (reason, lhs, rhs) in enumerate(comparisons):
        if perturb and not i:
            rhs = rhs + 1
        if lhs != rhs:
            return ("fail", reason, lhs.to_str(), rhs.to_str())
    return _PASS


def _judge(job: tuple[str, dict, bool]) -> tuple[tuple, tuple]:
    """The verdict of a key group's cases and that of its perturbed case:
    the checker runs once, on the first case's kwargs; a collision skips
    both, and only a group holding the perturbed case is judged again."""
    identity, kwargs, perturbed = job
    try:
        comparisons = _CHECKERS[identity](**kwargs)
    except ParameterCollision as exc:
        skipped = ("skipped", str(exc))
        return skipped, skipped
    verdict = _verdict(comparisons)
    return verdict, _verdict(comparisons, True) if perturbed else verdict


def run_grids(specs: list[GridSpec], workers: int = 1) -> list[IdentityCase]:
    """All cases of the grids in report order: by identity, then by params.

    The cases that share a key are one unit of work, and the units of every
    grid go to one pool, the grid with the fewest units first: on the
    default grids the identities with the fewest keys have the costliest
    ones, so these leave in the first chunks and no worker is left alone
    with them at the end.  A unit travels as the checker kwargs of its
    first case and whether it holds the perturbed case, and comes back as
    one verdict pair, its cases' and its perturbed case's, into the cases
    that _walk laid out; the grids of one identity are merged by sort_key.
    """
    walks = sorted([(spec.identity, *_walk(spec)) for spec in specs], key=lambda w: len(w[3]))
    work = [(identity, *unit) for identity, _, _, units, _ in walks for unit in units.values()]
    # a fork pool starts all its workers at the first submit, so never more
    # than there are CPUs; no report depends on the worker count
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(work) > 1:
        chunk = max(1, len(work) // (workers * 4))
        with ProcessPoolExecutor(max_workers=min(workers, -(-len(work) // chunk))) as pool:
            verdicts = iter(list(pool.map(_judge, work, chunksize=chunk)))
    else:
        verdicts = map(_judge, work)
    grids: dict[str, list] = {}
    for identity, params, groups, units, perturbed in walks:
        pairs = dict(zip(units, islice(verdicts, len(units))))
        cases = [IdentityCase(identity, p, *pairs[first][0]) for p, first in zip(params, groups)]
        if perturbed is not None:
            cases[perturbed] = IdentityCase(identity, params[perturbed], *pairs[groups[perturbed]][1])
        grids.setdefault(identity, []).append(cases)
    return [case for identity in sorted(grids) for case in merge(*grids[identity], key=IdentityCase.sort_key)]


def run_grid(spec: GridSpec, workers: int = 1) -> list[IdentityCase]:
    """All cases of one grid, in report order."""
    return run_grids([spec], workers)


def default_grid(identity: str, seed: int = DEFAULT_SEED) -> GridSpec:
    """The acceptance-scale grid for one identity."""
    if identity not in _IDENTITY_TABLE:
        raise InvalidGrid(f"unknown identity {identity!r}")
    return GridSpec(identity, seed=seed, **_IDENTITY_TABLE[identity].defaults)


def build_report(campaign: str, cases: list[IdentityCase], grids: list[GridSpec]) -> dict:
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    summary.update(Counter(case.status for case in cases))
    return {"campaign": campaign, "grid": [spec.to_json() for spec in grids],
            "cases": [case.to_json() for case in cases], "summary": summary}


# Any indent sends json.dumps to its pure-Python encoder, so the case list,
# nearly all of a report, is laid out here: one template per (keys, params
# names, identity, status), filled with C-encoded strings and with params
# values (scalars) encoded once per (type, value).
_string = json.encoder.encode_basestring_ascii


class _Values(dict):
    def __missing__(self, item):
        text = json.dumps(item[1])
        if item[0] is not float:  # 0.0 == -0.0, which print differently
            self[item] = text
        return text


def _case_template(keys: tuple, names: tuple, identity: str, status: str) -> tuple:
    """A case's text with a %s for each params value by sorted name and for
    each other string; the sorted names, and those strings' keys before and
    after the params."""
    order, keys, esc = sorted(names), sorted(keys), lambda text: text.replace("%", "%%")
    params = ",\n        ".join(esc(json.dumps({k: 0})[1:-2]) + "%s" for k in order)
    fields = {"identity": esc(_string(identity)), "status": esc(_string(status)),
              "params": "{\n        " + params + "\n      }" if names else "{}"}
    text = "    {\n" + ",\n".join(f"      {esc(_string(k))}: {fields.get(k, '%s')}" for k in keys) + "\n    }"
    others = [k for k in keys if k not in fields]
    return text, order, [k for k in others if k < "params"], [k for k in others if k > "params"]


def _case_texts(cases):
    values, template = _Values(), lru_cache(maxsize=None)(_case_template)
    for case in cases:
        params = case["params"]
        text, order, before, after = template(tuple(case), tuple(params), case["identity"], case["status"])
        vals = [*map(params.__getitem__, order)]
        vals = tuple(map(values.__getitem__, zip(map(type, vals), vals)))
        if before or after:
            vals = (*[_string(case[k]) for k in before], *vals, *[_string(case[k]) for k in after])
        yield text % vals


def report_json_bytes(report: dict) -> bytes:
    """Exactly json.dumps(report, sort_keys=True, indent=2) + "\\n", encoded."""
    # only "campaign", whose encoded value escapes every quote, sorts before
    # "cases", so the first '"cases": []' in the envelope is the key
    head, tail = json.dumps(dict(report, cases=[]), sort_keys=True, indent=2).split('"cases": []', 1)
    cases = ",\n".join(_case_texts(report["cases"]))
    cases = ("[\n", cases, "\n  ]") if cases else ("[]",)
    return "".join((head, '"cases": ', *cases, tail, "\n")).encode()


_CSV_COLUMNS = ("identity", "m", "n", "r", "p", "lambda", "seq", "T", "status", "reason", "lhs", "rhs")
_CASE_COLUMNS = ("identity", "status", "reason", "lhs", "rhs")


def report_csv_bytes(report: dict) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for case in report["cases"]:
        writer.writerow([case.get(col, "") if col in _CASE_COLUMNS else case["params"].get(col, "")
                         for col in _CSV_COLUMNS])
    return buf.getvalue().encode()
