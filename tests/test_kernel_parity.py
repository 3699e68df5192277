"""Pure-Python and compiled kernels must be observationally identical.

The compiled twin is built from the committed _fast.c into a temporary
directory, so these tests run wherever a C compiler is around, and they
never change which backend the package itself picked.
"""
import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cyclosum
from cyclosum._kernel import pure
from cyclosum.cyclotomic import _reduction_rows
from cyclosum.arith import euler_phi

ROOT = Path(__file__).resolve().parent.parent
FAST_NAME = "cyclosum._kernel._fast"


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("kernel_build")
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "tmp")],
        cwd=ROOT,
        capture_output=True,
        timeout=600,
    )
    built = sorted((tmp / "lib").glob("cyclosum/_kernel/_fast*.so"))
    if not built:
        pytest.skip("the compiled kernel did not build (no C compiler or Python headers)")
    backend = cyclosum.kernel_backend
    previous = sys.modules.get(FAST_NAME)
    spec = importlib.util.spec_from_file_location(FAST_NAME, built[0])
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        # loading registers the module; a later import must not find it
        if previous is None:
            sys.modules.pop(FAST_NAME, None)
        else:
            sys.modules[FAST_NAME] = previous
    assert cyclosum.kernel_backend == backend
    return module


def rand_vec(rng, size, bound=10 ** 6):
    return [rng.randint(-bound, bound) for _ in range(size)]


def test_conv_parity(fast):
    rng = random.Random(2024)
    for _ in range(50):
        a = rand_vec(rng, rng.randint(0, 8))
        b = rand_vec(rng, rng.randint(0, 8))
        assert pure.conv(a, b) == fast.conv(a, b)


def test_conv_bigint_parity(fast):
    a = [10 ** 40, -(10 ** 35)]
    b = [3, 10 ** 50]
    assert pure.conv(a, b) == fast.conv(a, b)


def test_reduce_cyclo_parity(fast):
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 8, 12, 15):
        d = euler_phi(n)
        rows = _reduction_rows(n)
        for _ in range(20):
            c = rand_vec(rng, rng.randint(1, 2 * d - 1))
            assert pure.reduce_cyclo(c, rows, d) == fast.reduce_cyclo(c, rows, d)


def test_lincomb_scale_parity(fast):
    rng = random.Random(55)
    for _ in range(30):
        size = rng.randint(0, 10)
        a, b = rand_vec(rng, size), rand_vec(rng, size)
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        assert pure.vec_lincomb(a, b, x, y) == fast.vec_lincomb(a, b, x, y)
        assert pure.vec_scale(a, x) == fast.vec_scale(a, x)


def test_content_parity(fast):
    cases = [
        ([6, -9, 12], 15),
        ([0, 0], 7),
        ([5], 1),
        ([], 4),
        ([10 ** 30, 10 ** 20], 10 ** 10),
    ]
    for nums, den in cases:
        assert pure.vec_content(nums, den) == fast.vec_content(nums, den)
