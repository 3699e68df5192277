"""Exact rational scalars and their wire format.

Rationals are plain fractions.Fraction values throughout the package.  The
text form is strict: "a/b" with b > 0, or just "a" for integers, no
whitespace, always fully reduced on output.  This is the format used in
sequence files, reports, and CLI flags, and it round-trips bit-exactly.
The integers inside sequence descriptors are as strict: ASCII digits with
an optional leading "-".
"""
from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" in ASCII digits.  Rejects floats, whitespace,
    other digit scripts and empty strings."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_int(text: str) -> int:
    """Parse an integer in ASCII digits with an optional leading "-".
    Rejects "+", "_", whitespace, other digit scripts and empty strings,
    all of which int() accepts."""
    if not isinstance(text, str) or not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def format_rational(value: Fraction | int) -> str:
    """Canonical text for a rational: reduced "a/b", or "a" when integral."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

