"""Build hook for the optional compiled kernel.

The package runs pure-Python out of the box.  When a C compiler is present,
the committed src/cyclosum/_kernel/_fast.c (generated from _fast.pyx with
``cython -3 src/cyclosum/_kernel/_fast.pyx``) is compiled, and the
import-time backend selection in cyclosum._kernel picks it up.  The
extension is marked optional so a failed build never breaks the install.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("cyclosum._kernel._fast", ["src/cyclosum/_kernel/_fast.c"], optional=True)
    ]
)
