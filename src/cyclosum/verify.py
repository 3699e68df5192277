"""Theorem-checkers for the package's identities, plus the grid campaign
runner and report serialization.

Every checker builds both sides of one identity through independent code
paths and returns them as (reason, lhs, rhs) comparisons.  The runner
calls it once per key, the values a case's comparisons depend on, and its
judge labels each case, compares canonical forms exactly (a pass is an
algebraic equality, never a tolerance check) and records a parameter
collision (lambda hitting a root of unity that the sum divides by) as
skipped; any comparison whose sides differ is a failure.

Campaigns are deterministic: random sequences are derived from the grid
seed alone, cases are sorted by parameter key before reporting, and report
bytes carry no timestamps, so two runs with the same seed are
byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm
from typing import NamedTuple

from .appell import apostol_bernoulli, apostol_bernoulli_number
from .arith import divisors, euler_phi, moebius, totatives
from .cyclotomic import common_den, format_scalar, normalize_scalar, scalar_from_json
from .dedekind import e_sum, g_series_oracle, v_sum
from .errors import InvalidGrid, InvalidParam, ParameterCollision, SequenceFileError
from .qpoly import QPoly, geometric_block, sum_of_matrix_products, sum_of_products
from .series import TruncSeries, t_over_exp_affine, weighted_sum
from .spectra import (
    PeriodicSeq,
    SpectralSeq,
    dft_inverse,
    family,
    interp_poly,
    lagrange_oracle,
    load_sequence,
    parse_family,
)

DEFAULT_SEED = 1009


@dataclass
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
        # the values by sorted param name: one identity's cases share one
        # params builder, so a name holds ints (ordered numerically) or
        # strings (lexically) in every case
        return (self.identity, *[self.params[k] for k in sorted(self.params)])


# What a checker returns: (reason, lhs, rhs) comparisons in the order they
# are judged, reason None where one comparison is the whole identity.
Comparisons = tuple[tuple[str | None, QPoly, QPoly], ...]


def check_prop1(c_seq: PeriodicSeq, r: int) -> Comparisons:
    """Spectrum path vs Lagrange path for the interpolation polynomial."""
    return ((None, interp_poly(dft_inverse(c_seq), r), lagrange_oracle(c_seq, r)),)


class _Basis(NamedTuple):
    """The Apostol-Bernoulli pieces of the prop2 and mult right sides."""

    scaled: QPoly  # A = B_m(nq, lam)
    shifts: tuple[QPoly, ...]  # V_j = lam^j B_m(q + j/n, lam^n) for j < n


def _bernoulli_basis(m: int, n: int, lam) -> _Basis:
    """A and the V_j of (m, n, lam).  Uncached: a rational lam reads them
    once through _basis_matrix, and mult's cases never repeat a key."""
    b = apostol_bernoulli(m, lam**n)
    shifts = tuple(b.shift(Fraction(j, n)) * lam**j for j in range(n))
    return _Basis(apostol_bernoulli(m, lam).scale_arg(n), shifts)


@lru_cache(maxsize=1024)
def _basis_matrix(m: int, n: int, lam: Fraction):
    """The basis of a rational lam as one integer matrix, (rows, den): row i
    holds the numerators of q^i in A, -n^m V_0, ..., -n^m V_{n-1} over den."""
    scaled, shifts = _bernoulli_basis(m, n, lam)
    polys = (scaled,) + shifts
    weights = (1,) + (-(n**m),) * n
    den = lcm(*(v.den for v in polys))
    size = max(len(v) for v in polys)
    cols = [
        [w * (den // v.den) * row[0] for row in v.rows] + [0] * (size - len(v))
        for v, w in zip(polys, weights)
    ]
    return tuple(zip(*cols)), den


@lru_cache(maxsize=256)
def _spectrum_matrix(c0, kseq: SpectralSeq):
    """C_0 and the spectrum K over one den, as (cols, den): column t holds
    coordinate t of C_0, K_0, ..., K_{n-1}."""
    vecs, den = common_den((c0,) + tuple(kseq))
    return tuple(zip(*vecs)), den


def _prop2_rhs(m: int, n: int, s: int, lam, c_seq: PeriodicSeq) -> QPoly:
    """C_0 B_m(nq, lam) - n^m sum_j K_{j-s} lam^j B_m(q+j/n, lam^n).

    For rational lam this is the basis matrix of (m, n, lam) times the
    spectrum matrix of C with its K rows rotated by s.
    """
    kseq = dft_inverse(c_seq)
    if not isinstance(lam, Fraction):
        scaled, shifts = _bernoulli_basis(m, n, lam)
        terms = [(1, c_seq[0], scaled)]
        terms += [(-(n**m), v, kseq[j - s]) for j, v in enumerate(shifts)]
        return sum_of_products(terms)
    rows, den = _basis_matrix(m, n, lam)
    spec, spec_den = _spectrum_matrix(c_seq[0], kseq)
    # entry 1 + j of a rotated column is coordinate t of K_{(j-s) mod n}
    cols = tuple(c[:1] + c[n + 1 - s :] + c[1 : n + 1 - s] for c in spec)
    return sum_of_matrix_products(n, ((rows, cols, den * spec_den),))


def check_prop2(m: int, n: int, r: int, p: int, lam, c_seq: PeriodicSeq) -> Comparisons:
    """(-1)^(p-1) m E(nq) against C_0 B_m(nq) - n^m sum_j K_{j-r-p+1} lam^j B_m(q+j/n, lam^n)."""
    sign = 1 if p % 2 else -1  # (-1)^(p-1)
    lhs = e_sum(m, n, r, p, lam, c_seq).scale_arg(n, sign * m)
    rhs = _prop2_rhs(m, n, (r + p - 1) % n, normalize_scalar(lam), c_seq)
    return ((None, lhs, rhs),)


def check_mult_formula(m: int, n: int, lam) -> Comparisons:
    """B_m(nq, lam) = n^(m-1) sum_j lam^j B_m(q + j/n, lam^n)."""
    lhs, shifts = _bernoulli_basis(m, n, normalize_scalar(lam))
    return ((None, lhs, sum_of_products([(Fraction(n) ** (m - 1), v, 1) for v in shifts])),)


def check_section4_closed_form(m: int, n: int, r: int, p: int, lam) -> Comparisons:
    """The r+p=1 specialization with ramanujan weights, assembled from
    Bernoulli numbers and totative power sums on the right side."""
    if r + p != 1:
        raise ValueError("closed form requires r + p = 1")
    e = e_sum(m, n, r, p, lam, family("ramanujan", n))
    lam = normalize_scalar(lam)
    sign = 1 if p % 2 else -1
    lhs = e.scale_arg(n, sign * m)
    lam_n = lam**n
    rhs = euler_phi(n) * apostol_bernoulli(m, lam).scale_arg(n)
    for i in range(m + 1):
        b_i = apostol_bernoulli_number(i, lam_n)
        if not b_i:
            continue
        for k in range(m - i + 1):
            coeff = Fraction(
                n ** (m - k) * factorial(m),
                factorial(i) * factorial(k) * factorial(m - i - k),
            )
            w = coeff * b_i * v_sum(n, k, lam)
            if w:
                rhs = rhs - QPoly.monomial(m - i - k, w)
    return ((None, lhs, rhs),)


def check_moebius_interp(n: int) -> Comparisons:
    """The totative indicator polynomial four ways: direct, spectral, and
    the two divisor-sum forms built by exact division."""
    coeffs = [0] * n
    for j in totatives(n):
        if j < n:
            coeffs[j] = 1
    direct = QPoly(coeffs)
    spectral = interp_poly(dft_inverse(family("ramanujan", n)), 0)
    f1 = QPoly.zero()
    f2 = QPoly.zero()
    for d in divisors(n):
        mu = moebius(d)
        if not mu:
            continue
        block = geometric_block(n, d)
        f1 = f1 + mu * block
        f2 = f2 + mu * (block * QPoly.monomial(d, 1))
    return tuple(
        (f"{label} form disagrees with the totative indicator", direct, other)
        for label, other in (("divisor-sum", f1), ("spectral", spectral), ("divisor-sum-shifted", f2))
    )


@lru_cache(maxsize=256)
def _gseries_terms(n: int, lam, order: int) -> tuple[TruncSeries, tuple[TruncSeries, ...], TruncSeries]:
    """The series of the gseries identity that depend on (n, lam, order)
    alone, lam normalized: the left base L = t e^{nqt} / (lam e^t - 1), the
    right terms R_j = n lam^j e^{(j+nq)t} t / (lam^n e^{nt} - 1) for j < n,
    and e^{(n-1)qt}."""
    left = t_over_exp_affine(lam, 1, order) * TruncSeries.exp_linear(QPoly((0, n)), order)
    base = t_over_exp_affine(normalize_scalar(lam**n), n, order)
    right = tuple(
        (TruncSeries.exp_linear(QPoly((j, n)), order) * base) * (n * lam**j)
        for j in range(n)
    )
    return left, right, TruncSeries.exp_linear(QPoly((0, n - 1)), order)


def check_gseries_chain(n: int, r: int, p: int, lam, c_seq: PeriodicSeq, order: int) -> Comparisons:
    """The generating-series identity chain, modulo t^(order+1).

    Three layers in one case: the series identity tying C_0/(lam e^t - 1),
    the G series and the K-weighted right side together; the G coefficients
    against e_sum at shifted index; and the t-shifted chain coefficients
    against m times e_sum at nq.

    The series sides are lhs = C_0 L + (-1)^p t g e^{(n-1)qt} and
    rhs = sum_j K_{j-(r+p-1)} R_j, over _gseries_terms.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    g = g_series_oracle(n, r, p, lam, c_seq, order)
    lam = normalize_scalar(lam)
    left, right, exp_shift = _gseries_terms(n, lam, order)
    tg = (g * exp_shift).mul_t()
    lhs = weighted_sum(((left, c_seq[0]), (tg, -1 if p % 2 else 1)), order)
    kseq = dft_inverse(c_seq)
    rhs = weighted_sum(((rj, kseq[j - r - p + 1]) for j, rj in enumerate(right)), order)
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
    kwargs: tuple[str, ...]  # the keyword arguments each job passes the checker
    params: Callable[[dict], dict]  # a job's kwargs -> the case's report params
    key: Callable[[dict], tuple]  # a job's kwargs -> the values its comparisons depend on
    least: dict[str, int]  # smallest value of an axis that the checker accepts
    defaults: dict  # GridSpec fields of the default (acceptance) grid


_IDENTITY_TABLE = {
    "prop1": _Identity(
        check_prop1,
        axes=("n", "r", "sequences"),
        kwargs=("c_seq", "r", "seq_desc"),  # n is the period of c_seq
        params=lambda kw: {"n": kw["c_seq"].n, "r": kw["r"], "seq": kw["seq_desc"]},
        key=lambda kw: (kw["c_seq"], kw["r"] % kw["c_seq"].n),
        least={"n": 2},
        defaults=dict(n=tuple(range(2, 9)), r=tuple(range(-2, 6)), sequences=("random:50",)),
    ),
    "prop2": _Identity(
        check_prop2,
        axes=("m", "n", "r", "p", "lambdas", "sequences"),
        kwargs=("m", "n", "r", "p", "lam", "c_seq", "seq_desc"),
        params=lambda kw: {"m": kw["m"], "n": kw["n"], "r": kw["r"], "p": kw["p"],
                           "lambda": format_scalar(kw["lam"]), "seq": kw["seq_desc"]},
        # the left side is -m E_s(nq) for every p, as e_sum carries (-1)^p
        key=lambda kw: (kw["m"], kw["n"], (kw["r"] + kw["p"]) % kw["n"], normalize_scalar(kw["lam"]), kw["c_seq"]),
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
        kwargs=("m", "n", "lam"),
        params=lambda kw: {"m": kw["m"], "n": kw["n"], "lambda": format_scalar(kw["lam"])},
        key=lambda kw: (kw["m"], kw["n"], normalize_scalar(kw["lam"])),
        least={"m": 0, "n": 1},
        defaults=dict(
            m=tuple(range(1, 7)), n=tuple(range(2, 9)),
            lambdas=(Fraction(1), Fraction(2), Fraction(-1, 2)),
        ),
    ),
    "section4": _Identity(
        check_section4_closed_form,
        axes=("m", "n", "rp_pairs", "lambdas"),
        kwargs=("m", "n", "r", "p", "lam"),
        params=lambda kw: {"m": kw["m"], "n": kw["n"], "r": kw["r"], "p": kw["p"],
                           "lambda": format_scalar(kw["lam"]), "seq": "ramanujan"},
        key=lambda kw: (kw["m"], kw["n"], normalize_scalar(kw["lam"])),  # r + p = 1, as in prop2
        least={"m": 1, "n": 2},
        defaults=dict(
            m=tuple(range(1, 6)), n=(2, 3, 4, 6), rp_pairs=((1, 0), (0, 1), (-1, 2)),
            lambdas=(Fraction(2), Fraction(-1, 2)),
        ),
    ),
    "moebius": _Identity(
        check_moebius_interp,
        axes=("n",),
        kwargs=("n",),
        params=lambda kw: {"n": kw["n"]},
        key=lambda kw: (kw["n"],),
        least={"n": 2},
        defaults=dict(n=tuple(range(2, 13))),
    ),
    "gseries": _Identity(
        check_gseries_chain,
        axes=("n", "r", "p", "lambdas", "sequences"),
        kwargs=("n", "r", "p", "lam", "c_seq", "order", "seq_desc"),
        params=lambda kw: {"n": kw["n"], "r": kw["r"], "p": kw["p"], "lambda": format_scalar(kw["lam"]),
                           "seq": kw["seq_desc"], "T": kw["order"]},
        # no reason text names r or p
        key=lambda kw: (kw["n"], (kw["r"] + kw["p"]) % kw["n"], kw["p"] % 2,
                        normalize_scalar(kw["lam"]), kw["c_seq"], kw["order"]),
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
        for axis, least in row.least.items():
            for v in getattr(self, axis):
                if v < least:
                    raise InvalidGrid(
                        f"{self.identity} grid axis {axis} needs values >= {least}, got {v}"
                    )
        if self.identity == "section4" and any(r + p != 1 for r, p in self.rp_pairs):
            raise InvalidGrid("section4 grid requires r + p = 1 in every pair")
        if "order" in row.kwargs and self.order < 1:
            raise InvalidGrid(f"{self.identity} grid needs order >= 1")

    @classmethod
    def from_json(cls, obj: dict, identity: str | None = None) -> GridSpec:
        if not isinstance(obj, dict):
            raise InvalidGrid("grid spec must be a JSON object")
        known = {
            "identity", "m", "n", "r", "p", "rp_pairs",
            "lambdas", "sequences", "T", "seed", "perturb_index",
        }
        unknown = set(obj) - known
        if unknown:
            raise InvalidGrid(f"unknown grid fields: {sorted(unknown)}")
        ident = obj.get("identity", identity)
        if ident is None:
            raise InvalidGrid("grid spec does not name an identity")
        if identity is not None and obj.get("identity") not in (None, identity):
            raise InvalidGrid(
                f"grid identity {obj['identity']!r} contradicts requested {identity!r}"
            )
        perturb = obj.get("perturb_index")
        spec = cls(
            identity=ident,
            m=_int_axis(obj.get("m"), "m"),
            n=_int_axis(obj.get("n"), "n"),
            r=_int_axis(obj.get("r"), "r"),
            p=_int_axis(obj.get("p"), "p"),
            rp_pairs=_pair_axis(obj.get("rp_pairs")),
            lambdas=_lambda_axis(obj.get("lambdas")),
            sequences=_seq_axis(obj.get("sequences")),
            order=_int_field(obj.get("T", 8), "T", minimum=0),
            seed=_int_field(obj.get("seed", DEFAULT_SEED), "seed"),
            perturb_index=None if perturb is None else _int_field(perturb, "perturb_index"),
        )
        spec.validate()
        return spec

    def to_json(self) -> dict:
        out: dict = {"identity": self.identity, "seed": self.seed}
        for axis in ("m", "n", "r", "p"):
            vals = getattr(self, axis)
            if vals:
                out[axis] = list(vals)
        if self.rp_pairs:
            out["rp_pairs"] = [list(pair) for pair in self.rp_pairs]
        if self.lambdas:
            # in the forms _lambda_axis reads back
            out["lambdas"] = [format_scalar(v) if isinstance(normalize_scalar(v), Fraction) else v.to_json()
                              for v in self.lambdas]
        if self.sequences:
            out["sequences"] = list(self.sequences)
        if "order" in _IDENTITY_TABLE[self.identity].kwargs:
            out["T"] = self.order
        return out


def _is_int(x) -> bool:
    # JSON true and false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _int_axis(v, name: str) -> tuple[int, ...]:
    if v is None:
        return ()
    if isinstance(v, dict) and set(v) == {"min", "max"}:
        lo, hi = v["min"], v["max"]
        if not (_is_int(lo) and _is_int(hi) and lo <= hi):
            raise InvalidGrid(f"bad range for axis {name}: {v!r}")
        return tuple(range(lo, hi + 1))
    if isinstance(v, list) and v and all(_is_int(x) for x in v):
        return tuple(v)
    raise InvalidGrid(f"axis {name} must be a nonempty integer list or a min/max range, got {v!r}")


def _pair_axis(v) -> tuple[tuple[int, int], ...]:
    if v is None:
        return ()
    if isinstance(v, list) and all(
        isinstance(x, list) and len(x) == 2 and all(_is_int(y) for y in x) for x in v
    ):
        return tuple((x[0], x[1]) for x in v)
    raise InvalidGrid(f"rp_pairs must be a list of [r, p] integer pairs, got {v!r}")


def _lambda_axis(v) -> tuple:
    if v is None:
        return ()
    if not isinstance(v, list):
        raise InvalidGrid("lambdas must be a list")
    try:
        return tuple(scalar_from_json(item) for item in v)
    except ValueError as exc:
        raise InvalidGrid(f"bad lambda entry: {exc}") from exc


def _seq_axis(v) -> tuple[str, ...]:
    if v is None:
        return ()
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


def resolve_sequences(
    descs: tuple[str, ...], n: int, seed: int, identity: str = ""
) -> list[tuple[str, PeriodicSeq]]:
    """Expand descriptors into (label, sequence) pairs at period n.

    A random count that is not a positive integer, or an index that is not
    an integer, raises InvalidGrid, and a file whose period is not n raises
    SequenceFileError; both name the descriptor.
    """
    out: list[tuple[str, PeriodicSeq]] = []
    for desc in descs:
        if desc.startswith(("random:", "random-")):
            try:
                k = int(desc[7:])
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
            if (
                identity == "prop2"
                and name in ("fourier-dedekind", "apostol-dedekind")
                and "c0" not in params
            ):
                raise InvalidParam(
                    f"family {name} leaves C_0 unspecified, but prop2 reads C_0; "
                    f"append c0=... to the descriptor"
                )
            out.append((desc, family(name, n, **params)))
    return out


def _enumerate_jobs(spec: GridSpec):
    """One checker kwargs dict per case: the product of the identity's axes,
    outermost first.  The sequences are resolved once per n, so the jobs at
    one n share one PeriodicSeq object per label."""
    row = _IDENTITY_TABLE[spec.identity]
    seqs = {}
    if "sequences" in row.axes:
        seqs = {n: resolve_sequences(spec.sequences, n, spec.seed, spec.identity) for n in spec.n}
    # the sequences axis runs over positions in the per-n lists, which have
    # the same labels at every n
    values = [
        range(len(seqs[spec.n[0]])) if axis == "sequences" else getattr(spec, axis)
        for axis in row.axes
    ]
    for point in product(*values):
        at = dict(zip(row.axes, point), order=spec.order)
        if "lambdas" in at:
            at["lam"] = at["lambdas"]
        if "rp_pairs" in at:
            at["r"], at["p"] = at["rp_pairs"]
        if "sequences" in at:
            at["seq_desc"], at["c_seq"] = seqs[at["n"]][at["sequences"]]
        yield {k: at[k] for k in row.kwargs}


def _run_group(job: tuple[str, list[dict]]) -> list[IdentityCase]:
    """Run the checker once, on the first case's kwargs, and decide every case
    of the key: a collision skips them all, the first comparison whose sides
    differ fails one, and a perturbed one gets 1 added to its first rhs."""
    identity, group = job
    params = _IDENTITY_TABLE[identity].params
    kwargs = {k: v for k, v in group[0].items() if k not in ("perturb", "seq_desc")}
    try:
        comparisons = _CHECKERS[identity](**kwargs)
    except ParameterCollision as exc:
        return [IdentityCase(identity, params(kw), "skipped", reason=str(exc)) for kw in group]
    cases = []
    for kw in group:
        verdict = ("pass",)
        for i, (reason, lhs, rhs) in enumerate(comparisons):
            if kw.get("perturb") and not i:
                rhs = rhs + 1
            if lhs != rhs:
                verdict = ("fail", reason, lhs.to_str(), rhs.to_str())
                break
        cases.append(IdentityCase(identity, params(kw), *verdict))
    return cases


def run_grid(spec: GridSpec, workers: int = 1) -> list[IdentityCase]:
    """All cases of the grid, sorted by parameter key.

    The jobs that share a key are one unit of work.  Execution order never
    shows in the output: results are keyed and sorted by (identity,
    params), so serial and parallel runs agree byte for byte.
    """
    spec.validate()
    jobs = list(_enumerate_jobs(spec))
    if spec.perturb_index is not None:
        if not 0 <= spec.perturb_index < len(jobs):
            raise InvalidGrid(
                f"perturb_index {spec.perturb_index} is outside 0 .. {len(jobs) - 1}: "
                f"the grid has {len(jobs)} cases"
            )
        jobs[spec.perturb_index]["perturb"] = True
    key = _IDENTITY_TABLE[spec.identity].key
    groups: dict[tuple, list[dict]] = {}
    for kwargs in jobs:
        groups.setdefault(key(kwargs), []).append(kwargs)
    work = [(spec.identity, group) for group in groups.values()]
    if workers > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(work) // (workers * 4))
            results = list(pool.map(_run_group, work, chunksize=chunk))
    else:
        results = map(_run_group, work)
    cases = [case for group in results for case in group]
    cases.sort(key=IdentityCase.sort_key)
    return cases


def default_grid(identity: str, seed: int = DEFAULT_SEED) -> GridSpec:
    """The acceptance-scale grid for one identity."""
    if identity not in _IDENTITY_TABLE:
        raise InvalidGrid(f"unknown identity {identity!r}")
    return GridSpec(identity, seed=seed, **_IDENTITY_TABLE[identity].defaults)


def build_report(campaign: str, cases: list[IdentityCase], grids: list[GridSpec]) -> dict:
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for case in cases:
        summary[case.status] += 1
    return {
        "campaign": campaign,
        "grid": [spec.to_json() for spec in grids],
        "cases": [case.to_json() for case in cases],
        "summary": summary,
    }


# Any indent sends json.dumps to its pure-Python encoder, so the case list,
# nearly all of a report, is laid out here from C-encoded pieces: strings,
# and each params object (its values are scalars) by _PARAMS.
_string = json.encoder.encode_basestring_ascii
_PARAMS = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": "))


def _params_text(params: dict) -> str:
    return "{\n        " + _PARAMS.encode(params)[1:-1] + "\n      }" if params else "{}"


def _case_text(case: dict) -> str:
    return "    {\n" + ",\n".join([
        f"      {_string(key)}: {_params_text(value) if key == 'params' else _string(value)}"
        for key, value in sorted(case.items())
    ]) + "\n    }"


def report_json_bytes(report: dict) -> bytes:
    """Exactly json.dumps(report, sort_keys=True, indent=2) + "\\n", encoded."""
    # only "campaign", whose encoded value escapes every quote, sorts before
    # "cases", so the first '"cases": []' in the envelope is the key
    head, tail = json.dumps(dict(report, cases=[]), sort_keys=True, indent=2).split('"cases": []', 1)
    cases = "[]"
    if report["cases"]:
        cases = "[\n" + ",\n".join(map(_case_text, report["cases"])) + "\n  ]"
    return (head + '"cases": ' + cases + tail + "\n").encode()


_CSV_COLUMNS = (
    "identity", "m", "n", "r", "p", "lambda", "seq", "T",
    "status", "reason", "lhs", "rhs",
)


def report_csv_bytes(report: dict) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for case in report["cases"]:
        row = []
        for col in _CSV_COLUMNS:
            if col == "identity":
                row.append(case["identity"])
            elif col in ("status", "reason", "lhs", "rhs"):
                row.append(case.get(col, ""))
            else:
                row.append(case["params"].get(col, ""))
        writer.writerow(row)
    return buf.getvalue().encode()
