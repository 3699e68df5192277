"""The integer-vector primitives.

A cyclotomic number is carried as a vector of integer numerators over one
shared denominator; the functions here are the numerator-vector loops that
every exact multiplication and reduction bottoms out in.

Call sites bind this module and look the functions up through it
(``_K.conv(...)``), so a profiler can wrap the module attributes:
perfbench/tracer.py rebinds the five names here, and perfbench/child.py
times ``conv`` and ``reduce_cyclo`` through this module.

All inputs are plain lists/tuples of Python ints (arbitrary precision), and
outputs are new lists.  Nothing here mutates its arguments.
"""
from __future__ import annotations

from math import gcd


def conv(a, b):
    """Dense convolution of two coefficient vectors.

    Returns a vector of length len(a)+len(b)-1, or [] if either input is
    empty.
    """
    la = len(a)
    lb = len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if not ai:
            continue
        for j in range(lb):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def reduce_cyclo(c, rows, d):
    """Fold coefficients at index >= d back below d.

    rows[i] is the length-d reduced vector of x**(d+i) modulo the minimal
    polynomial; every entry of c at index d+i distributes over rows[i].
    Returns a vector of length exactly d.
    """
    lc = len(c)
    out = [0] * d
    top = min(lc, d)
    for j in range(top):
        out[j] = c[j]
    for i in range(d, lc):
        ci = c[i]
        if not ci:
            continue
        row = rows[i - d]
        for j in range(d):
            rj = row[j]
            if rj:
                out[j] += ci * rj
    return out


def vec_lincomb(a, b, x, y):
    """Elementwise x*a + y*b for equal-length vectors."""
    return [x * a[i] + y * b[i] for i in range(len(a))]


def vec_scale(a, x):
    """Elementwise x*a."""
    return [x * v for v in a]


def vec_content(nums, den):
    """gcd of den and every numerator; this is the factor a fraction vector
    nums/den can be cancelled by.  den must be positive.  Returns den itself
    when all numerators vanish, so that zero normalizes to .../1."""
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g
