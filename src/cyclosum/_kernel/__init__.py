"""The integer-vector primitives, from the compiled twin when it is built.

``pure`` is the plain-Python implementation and always imports.  ``_fast``
holds the same five entry points compiled from the committed ``_fast.c``;
setup.py builds it wherever a C compiler is around.  When it imports it is
used, otherwise ``pure`` is; ``BACKEND`` names the one in use.

Call sites bind this module and look the functions up through it
(``_K.conv(...)``), so a profiler can wrap the module attributes.
"""
from __future__ import annotations

try:
    from . import _fast as _impl

    BACKEND = "compiled"
except ImportError:
    from . import pure as _impl

    BACKEND = "python"

conv = _impl.conv
reduce_cyclo = _impl.reduce_cyclo
vec_lincomb = _impl.vec_lincomb
vec_scale = _impl.vec_scale
vec_content = _impl.vec_content
