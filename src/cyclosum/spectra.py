"""n-periodic sequences over Q(zeta_n), their exact DFT pair, built-in
weight families, and the interpolation polynomial attached to a shifted
spectrum, with the Lagrange construction as an independent second path.

Both DFTs and the Ramanujan sums are tables of weighted sums over the n-th
roots of unity; root_sums builds each table in one integer pass, by
exponent mod n.  The Lagrange path does not use it: _lagrange_columns
builds the basis polynomials L_k once per n, each from the one product
of q - node over all nodes by exact division, and keeps their integer
numerators over one denominator.  An interpolant
then sums those integer columns, one per nonzero coordinate of each
value, into one sum per power of zeta_n they are multiplied by, moves
each sum up by its power and takes the result into the basis once: no
field product per interpolant.

Indexing is always mod n with nonnegative representative, so C[-k] and
K[j - r - p + 1] mean exactly what the summation formulas want.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod
from pathlib import Path

from . import _kernel as _K
from .arith import euler_phi, totatives
from .cyclotomic import CycloNum, _join_levels, _scalar, _scalar_parts, cyclo_inv, scalar_from_json, zeta_pow
from .errors import InvalidParam, SequenceFileError
from .qpoly import QPoly, _build
from .scalars import parse_int, parse_rational


class _Cycle:
    """Shared machinery of PeriodicSeq and SpectralSeq: n values at level n,
    indexed modulo n."""

    __slots__ = ("n", "values", "_key", "_hash")

    def __init__(self, n: int, values):
        if n < 2:
            raise ValueError("period must be >= 2")
        vals = tuple(CycloNum.of(n, v) for v in values)
        if len(vals) != n:
            raise ValueError(f"period {n} needs {n} values, got {len(vals)}")
        self.n = n
        self.values = vals
        # cache lookups hash and compare whole sequences by the raw (nums,
        # den) pairs, canonical at level n; no type name in the hash, because
        # str hashes differ between the processes a pickled slot travels to
        self._key = tuple((v.nums, v.den) for v in vals)
        self._hash = hash(self._key)

    def __getitem__(self, k: int) -> CycloNum:
        return self.values[k % self.n]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {[v.canonical_str() for v in self.values]})"


class PeriodicSeq(_Cycle):
    """The sequence C = {C_k}, periodically extended."""


class SpectralSeq(_Cycle):
    """The spectrum K = {K_j} of a periodic sequence."""


def root_sums(n: int, xs, exponent_rows, den: int = 1) -> list:
    """The table of sums sum_k xs[k] * zeta_n^(row[k]) / den, one per row
    of exponent_rows: a Fraction when rational, else a canonical level-n
    CycloNum.

    The xs go over one common denominator once.  Since zeta_n^n = 1, each
    row adds their numerators into n buckets by exponent mod n and takes
    the buckets into the basis once: bucket e < phi(n) is coordinate e, and
    a nonzero bucket e >= phi(n) adds its value times zeta_pow(n, e).
    """
    phi = euler_phi(n)
    parts = [_scalar_parts(x) for x in xs]
    # every x is rational or at level n; n = 1 joins as 2, the same field
    _join_levels(chain((max(n, 2),), (level for level, _, _ in parts)))
    common = lcm(*(d for _, _, d in parts))
    terms = [
        [(t, v * (common // d)) for t, v in enumerate(nums) if v] for _, nums, d in parts
    ]
    high = [zeta_pow(n, e).nums for e in range(phi, n)]
    common *= den
    out = []
    for exps in exponent_rows:
        acc = [0] * n
        for term, e in zip(terms, exps):
            for t, v in term:
                acc[(t + e) % n] += v
        nums = acc[:phi]
        for row, v in zip(high, acc[phi:]):
            if v:
                nums = _K.vec_lincomb(nums, row, 1, v)
        out.append(_scalar(n, nums, common))
    return out


def dft_forward(k_seq: SpectralSeq) -> PeriodicSeq:
    """C_k = sum_j K_j zeta_n^{kj}."""
    n = k_seq.n
    return PeriodicSeq(
        n, root_sums(n, k_seq.values, ([k * j for j in range(n)] for k in range(n)))
    )


@lru_cache(maxsize=256)
def dft_inverse(c_seq: PeriodicSeq) -> SpectralSeq:
    """K_j = (1/n) sum_k C_k zeta_n^{-kj}; exact inverse of dft_forward.

    Cached by the sequence's value: a campaign asks for the spectrum of the
    same few sequences once per key.  The result is immutable.
    """
    n = c_seq.n
    return SpectralSeq(
        n, root_sums(n, c_seq.values, ([-k * j for k in range(n)] for j in range(n)), den=n)
    )


def ramanujan_sums(n: int, ks) -> list[Fraction]:
    """c_n(k) = sum over totatives j of zeta_n^{kj} for each k in ks, as
    one table; rational by Galois invariance (the totative powers permute
    under every automorphism)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tots = totatives(n)
    sums = root_sums(n, [1] * len(tots), ([k * j for j in tots] for k in ks))
    for k, r in zip(ks, sums):
        if not isinstance(r, Fraction):
            raise ArithmeticError(f"c_{n}({k}) came out irrational; reduction bug")
    return sums


def ramanujan_sum(n: int, k: int) -> Fraction:
    """The Ramanujan sum c_n(k)."""
    return ramanujan_sums(n, (k,))[0]


FAMILY_NAMES = ("delta", "ramanujan", "fourier-dedekind", "apostol-dedekind")


def family(name: str, n: int, a: int | None = None, c0=None) -> PeriodicSeq:
    """Built-in weight sequences.

    delta: (n, 0, ..., 0).  ramanujan: C_k = sum over totatives j of
    zeta_n^{kj}.  fourier-dedekind: C_k = 1/(1 - zeta_n^{-ak}) for k != 0;
    apostol-dedekind the same with +ak.  Both need gcd(a, n) = 1 and leave
    C_0 unspecified, so it defaults to 0 unless c0 is given.
    """
    if name == "delta":
        return PeriodicSeq(n, [n] + [0] * (n - 1))
    if name == "ramanujan":
        return PeriodicSeq(n, ramanujan_sums(n, range(n)))
    if name in ("fourier-dedekind", "apostol-dedekind"):
        if a is None:
            raise InvalidParam(f"family {name} needs parameter a")
        if gcd(a, n) != 1:
            raise InvalidParam(
                f"family {name} needs gcd(a, n) = 1, got gcd({a}, {n}) = {gcd(a, n)}"
            )
        # 1/(1 - w) = -(1/n) sum_{i<n} i w^i for an n-th root of unity
        # w != 1, here w = zeta_n^(sign*a*k) with 0 < k < n
        sign = -1 if name == "fourier-dedekind" else 1
        rows = ([sign * a * k * i for i in range(n)] for k in range(1, n))
        vals = root_sums(n, range(0, -n, -1), rows, den=n)
        return PeriodicSeq(n, [c0 if c0 is not None else 0] + vals)
    raise InvalidParam(f"unknown sequence family {name!r}")


def parse_family(text: str) -> tuple[str, dict]:
    """Parse a shorthand like "ramanujan" or "fourier-dedekind:a=3,c0=1/2".
    Only the two Dedekind families take parameters, a and c0, each once."""
    name, _, tail = text.partition(":")
    if name not in FAMILY_NAMES:
        raise InvalidParam(f"unknown sequence family {name!r}")
    known = ("a", "c0") if name.endswith("-dedekind") else ()
    params: dict = {}
    for item in tail.split(",") if tail else ():
        key, sep, value = item.partition("=")
        bad = InvalidParam(f"bad family parameter {item!r} in {text!r}")
        if not sep or key not in known or key in params:
            raise bad
        try:
            params[key] = parse_int(value) if key == "a" else parse_rational(value)
        except ValueError:
            raise bad from None
    return name, params


def interp_poly(k_seq: SpectralSeq, r: int) -> QPoly:
    """The polynomial with coefficient of q^j equal to K_{(j-r) mod n}."""
    return QPoly(tuple(k_seq[j - r] for j in range(k_seq.n)))


@lru_cache(maxsize=64)
def _lagrange_columns(n: int) -> tuple[tuple[list[int], ...], int]:
    """The numerators of the Lagrange basis polynomials L_k, k < n, over one
    denominator, coordinate by coordinate: entry k holds coordinate 0 of
    the coefficients of q^0, ..., q^(n-1), then coordinate 1, and so on.

    L_k is 1 at zeta_n^{-k} and 0 at the other nodes: prod_l (q - node_l)
    divided exactly by q - node_k, over its value at node_k."""
    nodes = [zeta_pow(n, -k) for k in range(n)]
    factors = [QPoly((-x, 1)) for x in nodes]
    node_product = prod(factors, start=QPoly.one())
    basis = []
    for x, factor in zip(nodes, factors):
        num = node_product.divexact(factor)
        basis.append(num * cyclo_inv(num.eval_at(x)))
    phi = euler_phi(n)
    common = lcm(*(b.den for b in basis))
    # rational rows are lifted to phi coordinates
    return tuple(
        [v * (common // b.den) for t in range(phi) for v in (row[t] if t < len(row) else 0 for row in b.rows)]
        for b in basis
    ), common


def lagrange_oracle(c_seq: PeriodicSeq, r: int) -> QPoly:
    """Interpolate the values zeta_n^{-kr} C_{-k} at the nodes zeta_n^{-k}.

    Independent second path to interp_poly(dft_inverse(C), r); the equality
    of the two is the interpolation proposition itself.  With C_{-k} the sum
    of c_u zeta_n^u over its coordinates, the sum of L_k zeta_n^{-kr} C_{-k}
    is the sum of c_u zeta_n^e L_k with e = (u - kr) mod n.  Laid out
    coordinate by coordinate, zeta_n^e L_k is the column of L_k moved up e
    coordinates, so the sum is integer column sums over one denominator,
    into exponents up to n + phi(n) - 2.  Those >= n wrap around, and those
    from phi(n) to n - 1 go into the basis once, through the coordinates of
    zeta_n^e.
    """
    n = c_seq.n
    columns, den = _lagrange_columns(n)
    values = [c_seq[-k] for k in range(n)]
    common = lcm(*(v.den for v in values))
    size = len(columns[0])  # phi(n) coordinates of n coefficients
    phi = size // n
    wide = [0] * (size + n * (n - 1))
    for k, (v, column) in enumerate(zip(values, columns)):
        f = common // v.den
        for u, c in enumerate(v.nums):
            if c:
                at = (u - k * r) % n * n
                wide[at : at + size] = _K.vec_lincomb(wide[at : at + size], column, 1, c * f)
    # exponents n .. n + phi - 2 wrap around to 0 .. phi - 2
    low = n * (phi - 1)
    wide = _K.vec_lincomb(wide[:low], wide[n * n :], 1, 1) + wide[low : n * n]
    coords = [wide[j * n : (j + 1) * n] for j in range(n)]  # exponent j of every coefficient
    for j in range(phi, n):
        high = coords[j]
        if any(high):
            for t, z in enumerate(zeta_pow(n, j).nums):
                if z:
                    coords[t] = _K.vec_lincomb(coords[t], high, 1, z)
    del coords[phi:]
    return _build(n, list(chain.from_iterable(zip(*coords))), common * den)


def sequence_from_json(obj) -> PeriodicSeq:
    """Decode {"n": int, "values": [...]} with "a/b" or cyclonum entries."""
    try:
        n = obj["n"]
        raw = obj["values"]
    except (TypeError, KeyError) as exc:
        raise SequenceFileError(f"sequence object needs n and values: {exc}") from exc
    if not isinstance(n, int) or n < 2:
        raise SequenceFileError(f"bad period: {n!r}")
    if not isinstance(raw, list) or len(raw) != n:
        raise SequenceFileError(f"period {n} needs exactly {n} values")
    try:
        vals = [scalar_from_json(item) for item in raw]
    except ValueError as exc:
        raise SequenceFileError(f"bad sequence value: {exc}") from exc
    try:
        return PeriodicSeq(n, vals)
    except ValueError as exc:
        raise SequenceFileError(str(exc)) from exc


def load_sequence(path: str | Path) -> PeriodicSeq:
    """Read a sequence JSON file; all failures become SequenceFileError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFileError(f"{path} is not valid JSON: {exc}") from exc
    return sequence_from_json(obj)
