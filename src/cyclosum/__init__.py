"""Exact Dedekind-type sums over cyclotomic fields.

Apostol-Bernoulli and generalized Frobenius-Euler polynomials, DFT spectra
of periodic sequences, weighted root-of-unity sums, and exact verification
campaigns for the identities tying them together.
"""
from .appell import apostol_bernoulli, apostol_bernoulli_number, frobenius_euler
from .cyclotomic import CycloNum, cyclo_inv, cyclotomic_poly, zeta_pow
from .dedekind import e_sum, g_series_oracle, ramanujan_sum, v_sum
from .errors import (
    CyclosumError,
    InvalidGrid,
    InvalidParam,
    InvalidPower,
    NotAUnit,
    NotDivisible,
    ParameterCollision,
    SequenceFileError,
)
from .qpoly import QPoly
from .scalars import format_rational, parse_rational
from .series import TruncSeries
from .spectra import (
    PeriodicSeq,
    SpectralSeq,
    dft_forward,
    dft_inverse,
    family,
    interp_poly,
    load_sequence,
)
from .verify import GridSpec, default_grid, run_grid

__version__ = "0.1.0"

# the kernel is plain Python; benchmark records carry this as provenance
kernel_backend = "python"

__all__ = [
    "CycloNum",
    "CyclosumError",
    "GridSpec",
    "InvalidGrid",
    "InvalidParam",
    "InvalidPower",
    "NotAUnit",
    "NotDivisible",
    "ParameterCollision",
    "PeriodicSeq",
    "QPoly",
    "SequenceFileError",
    "SpectralSeq",
    "TruncSeries",
    "apostol_bernoulli",
    "apostol_bernoulli_number",
    "cyclo_inv",
    "cyclotomic_poly",
    "default_grid",
    "dft_forward",
    "dft_inverse",
    "e_sum",
    "family",
    "format_rational",
    "frobenius_euler",
    "g_series_oracle",
    "interp_poly",
    "kernel_backend",
    "load_sequence",
    "parse_rational",
    "ramanujan_sum",
    "run_grid",
    "v_sum",
    "zeta_pow",
]
